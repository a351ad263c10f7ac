#include "core/mss.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "obs/perf_probe.h"

namespace rdp::core {

Mss::Mss(Runtime& runtime, MssId id, CellId cell, NodeAddress address)
    : runtime_(runtime), id_(id), cell_(cell), address_(address) {
  if (runtime_.config.arq.enabled()) {
    arq_ = std::make_unique<arq::ArqReceiver>(runtime_.simulator,
                                              runtime_.wireless,
                                              runtime_.observer,
                                              runtime_.counters, cell_);
  }
}

namespace {

// First proxy in `proxies` whose id is not below `id`.
auto proxy_position(const std::vector<std::unique_ptr<Proxy>>& proxies,
                    ProxyId id) {
  return std::lower_bound(
      proxies.begin(), proxies.end(), id,
      [](const std::unique_ptr<Proxy>& proxy, ProxyId key) {
        return proxy->id() < key;
      });
}

}  // namespace

const Pref* Mss::pref_of(MhId mh) const { return prefs_.find(mh.value()); }

const Proxy* Mss::proxy(ProxyId id) const { return find_proxy(id); }

Proxy* Mss::find_proxy(ProxyId id) const {
  const auto it = proxy_position(proxies_, id);
  return it != proxies_.end() && (*it)->id() == id ? it->get() : nullptr;
}

void Mss::insert_proxy(std::unique_ptr<Proxy> proxy) {
  const auto it = proxy_position(proxies_, proxy->id());
  RDP_CHECK(it == proxies_.end() || (*it)->id() != proxy->id(),
            "duplicate proxy id");
  proxies_.insert(it, std::move(proxy));
}

// ---------------------------------------------------------------------------
// Uplink (wireless) dispatch.
// ---------------------------------------------------------------------------

void Mss::on_uplink(MhId from, const net::PayloadPtr& payload) {
  RDP_PROF_SCOPE(kCore);
  if (crashed_) {
    // A crashed Mss is deaf on the wireless network; the Mh's only remedy
    // is the re-issue watchdog (RdpConfig::mh_reissue) or a migration.
    // unwrap() sees through an arqData wrapper: a request stranded in the
    // ARQ window dies with the host exactly like a bare one would.
    count("mss.uplink_dropped_crashed");
    if (const auto* req =
            dynamic_cast<const MsgUplinkRequest*>(&payload->unwrap());
        req != nullptr && !runtime_.config.mh_reissue) {
      runtime_.observer.on_event({.kind = Hook::kRequestLost,
                                  .at = runtime_.simulator.now(),
                                  .mh = from,
                                  .request = req->request,
                                  .reason = RequestLossReason::kMssCrashed});
    }
    return;
  }
  if (arq_ != nullptr &&
      arq_->on_uplink(from, payload,
                      [this](MhId mh, const net::PayloadPtr& inner) {
                        // Released from inside the ARQ receiver's scope.
                        RDP_PROF_SCOPE(kCore);
                        dispatch_uplink(mh, inner);
                      })) {
    return;
  }
  dispatch_uplink(from, payload);
}

void Mss::dispatch_uplink(MhId from, const net::PayloadPtr& payload) {
  if (const auto* m = net::message_cast<MsgJoin>(payload)) {
    (void)m;
    handle_join(from);
  } else if (const auto* greet = net::message_cast<MsgGreet>(payload)) {
    handle_greet(from, greet->old_mss);
  } else if (const auto* req = net::message_cast<MsgUplinkRequest>(payload)) {
    handle_uplink_request(from, *req);
  } else if (const auto* unsub = net::message_cast<MsgUnsubscribe>(payload)) {
    handle_uplink_unsubscribe(from, *unsub);
  } else if (const auto* ack = net::message_cast<MsgUplinkAck>(payload)) {
    handle_uplink_ack(from, *ack);
  } else if (net::message_cast<MsgLeave>(payload) != nullptr) {
    handle_leave(from);
  } else {
    count("mss.unknown_uplink");
  }
}

void Mss::handle_join(MhId mh) {
  if (prefs_.contains(mh.value())) {
    // Duplicate join (our registrationAck was lost): just re-confirm.
    send_registration_ack(mh);
    return;
  }
  if (pending_handoffs_.contains(mh.value())) return;  // hand-off running
  prefs_.try_emplace(mh.value()).first->clear();
  departed_to_.erase(mh.value());
  count("mss.joins");
  // A proxy restored from the checkpoint store re-binds to its Mh here:
  // this join (or a greet downgraded to a join after the crash) is the
  // first time the restarted Mss hears from the Mh again.  The
  // update_currentLoc makes the proxy re-send every unacknowledged result.
  if (auto it = restored_bindings_.find(mh); it != restored_bindings_.end()) {
    if (find_proxy(it->second) != nullptr) {
      Pref& pref = *prefs_.find(mh.value());
      pref.proxy_host = address_;
      pref.proxy = it->second;
      count("mss.prefs_rebound");
      send_update_currentloc(mh, pref);
    }
    restored_bindings_.erase(it);
  }
  // A repair deferred during a hand-off that collapsed into this join (the
  // old Mss died mid-transfer) applies now — or, if the checkpoint rebind
  // above installed a fresh local proxy, resolves as a conflict Nack.
  if (auto rit = pending_repairs_.find(mh); rit != pending_repairs_.end()) {
    const MsgPrefRepair repair = rit->second;
    pending_repairs_.erase(rit);
    handle_pref_repair(repair);
  }
  send_registration_ack(mh);
}

void Mss::handle_leave(MhId mh) {
  const Pref* pref = prefs_.find(mh.value());
  if (pref == nullptr) return;
  if (pref->has_proxy()) {
    // Assumption 6 makes this benign in conforming workloads (no pending
    // requests); with a proxy still alive somewhere it becomes orphaned
    // and is only reclaimed by the idle-proxy GC extension.
    count("mss.leave_with_proxy");
  }
  prefs_.erase(mh.value());
  drop_cached_results(mh);
  // Deliberately NOT forgetting the ARQ channel here: retransmitted frames
  // of the final epoch can still be in flight when the leave arrives, and
  // erasing the dedupe state would re-deliver them as fresh (A1).  State is
  // bounded by the Mh population; a future epoch resets it anyway.
  count("mss.leaves");
}

void Mss::handle_greet(MhId mh, MssId old_mss) {
  if (const Pref* pref = prefs_.find(mh.value())) {
    // Re-activation in our cell (§3.1) or a duplicate greet after a lost
    // registrationAck: confirm, and let the proxy re-send anything the Mh
    // missed while inactive.
    send_registration_ack(mh);
    if (pref->has_proxy()) send_update_currentloc(mh, *pref);
    count("mss.greets_reactivate");
    return;
  }
  if (old_mss.valid() && old_mss != id_ &&
      !runtime_.directory.mss_up(old_mss)) {
    // Stale binding: the Mh's old respMss is down, so its copy of the pref
    // cannot be recovered by a hand-off (and any hand-off already underway
    // against it is wedged — its deregAck will never come).  Register the
    // Mh fresh; a checkpoint-restored proxy re-binds on the join, and the
    // re-issue watchdog recovers anything else.
    pending_handoffs_.erase(mh.value());
    count("mss.greet_old_mss_down");
    handle_join(mh);
    // Transfer-resume handshake: if the dead Mss has a backup, ask it to
    // re-point the Mh at the replica proxy (the local proxy id at the old
    // host is unknown here — the backup resolves by Mh).
    request_transfer_resume(mh, runtime_.directory.mss_address(old_mss),
                            ProxyId::invalid());
    return;
  }
  if (pending_handoffs_.contains(mh.value())) return;  // de-registering

  // Hand-off (§3.2): ask the Mh's previous respMss for its pref.  Trust
  // the old Mss named in the greet; if the Mh (wrongly) believes *we* are
  // its respMss because our registrationAck was lost after we already
  // handed its pref away, chase the pref where it went.
  NodeAddress old_address;
  if (old_mss.valid() && old_mss != id_) {
    old_address = runtime_.directory.mss_address(old_mss);
  } else if (const NodeAddress* to = departed_to_.find(mh.value())) {
    old_address = *to;
  } else {
    // The Mh names us as its old Mss but we do not know it: treat the
    // greet as a (re-)join with a fresh, empty pref.
    count("mss.greet_unknown_old");
    handle_join(mh);
    return;
  }

  *pending_handoffs_.try_emplace(mh.value()).first =
      PendingHandoff{old_mss, runtime_.simulator.now(), NodeAddress::invalid()};
  runtime_.observer.on_event({.kind = Hook::kHandoffStarted,
                              .at = runtime_.simulator.now(),
                              .mh = mh,
                              .id_a = old_mss.value(),
                              .id_b = id_.value()});
  runtime_.wired.send(address_, old_address,
                      net::make_message<MsgDereg>(mh, id_));
}

void Mss::handle_uplink_request(MhId mh, const MsgUplinkRequest& msg) {
  Pref* pref = prefs_.find(mh.value());
  if (pref == nullptr) {
    // The Mh de-registered between sending and delivery; RDP does not
    // retransmit requests (QRPC-style request reliability is complementary,
    // §4), so the request is lost and counted.  When the Mh re-issue
    // watchdog is on, the Mh itself re-drives the request and reports the
    // loss only if it exhausts its attempts, so the drop is not terminal.
    count("mss.stale_request_dropped");
    if (!runtime_.config.mh_reissue) {
      runtime_.observer.on_event({.kind = Hook::kRequestLost,
                                  .at = runtime_.simulator.now(),
                                  .mh = mh,
                                  .request = msg.request,
                                  .reason = RequestLossReason::kMhLeft});
    }
    return;
  }
  // A new request resets RKpR (§3.3): the proxy will also serve this
  // request, so it must not be torn down by the Ack of the previous one.
  pref->clear_rkpr();
  if (!pref->has_proxy()) {
    Proxy& proxy = create_proxy(mh);
    pref->proxy_host = address_;
    pref->proxy = proxy.id();
  }
  count("mss.requests_relayed");
  route_to_proxy(*pref,
                 net::make_message<MsgForwardRequest>(mh, pref->proxy,
                                                      msg.request, msg.server,
                                                      msg.body, msg.stream),
                 sim::EventPriority::kNormal);
}

void Mss::handle_uplink_unsubscribe(MhId mh, const MsgUnsubscribe& msg) {
  const Pref* pref = prefs_.find(mh.value());
  if (pref == nullptr) {
    count("mss.stale_unsubscribe_dropped");
    return;
  }
  if (!pref->has_proxy()) {
    count("mss.unsubscribe_without_proxy");
    return;
  }
  route_to_proxy(*pref,
                 net::make_message<MsgForwardUnsubscribe>(mh, pref->proxy,
                                                          msg.request),
                 sim::EventPriority::kNormal);
}

void Mss::handle_uplink_ack(MhId mh, const MsgUplinkAck& msg) {
  Pref* pref = prefs_.find(mh.value());
  if (pref == nullptr) {
    // §3.1: after a dereg the old Mss ignores all further Acks from the Mh.
    count("mss.stale_ack_dropped");
    runtime_.observer.on_event({.kind = Hook::kStaleAckDropped,
                                .at = runtime_.simulator.now(),
                                .mh = mh,
                                .request = msg.request});
    return;
  }
  if (runtime_.config.mss_result_cache) {
    // The Mh has the result; stop the local retry loop for it.
    if (CachedResult* cached = find_cached(mh, msg.request, msg.result_seq)) {
      cached->timer.cancel();
      cached_results_.erase(cached_results_.begin() +
                            (cached - cached_results_.data()));
    }
  }
  if (!pref->has_proxy()) {
    // Duplicate Ack arriving after the del-proxy handshake finished.
    count("mss.ack_without_proxy");
    return;
  }
  // §3.3: confirm proxy removal iff RKpR is set and this Ack is the one the
  // del-pref announcement referred to (see RdpConfig::rkpr_tracks_request).
  bool del_proxy = pref->rkpr;
  if (del_proxy && runtime_.config.rkpr_tracks_request) {
    del_proxy = pref->rkpr_request == msg.request &&
                pref->rkpr_seq == msg.result_seq;
  }
  const ProxyId proxy_id = pref->proxy;
  const net::PayloadPtr forward = net::make_message<MsgAckForward>(
      mh, proxy_id, msg.request, msg.result_seq, del_proxy);
  runtime_.observer.on_event({.kind = Hook::kAckForwarded,
                              .at = runtime_.simulator.now(),
                              .mh = mh,
                              .request = msg.request,
                              .seq = msg.result_seq,
                              .flag_a = del_proxy});
  count("mss.acks_relayed");
  Pref route_copy = *pref;
  if (del_proxy) pref->clear();  // erase proxy address from pref (§3.3)
  route_to_proxy(route_copy, forward, runtime_.ack_priority());
}

// ---------------------------------------------------------------------------
// Wired dispatch.
// ---------------------------------------------------------------------------

void Mss::on_message(const net::Envelope& envelope) {
  RDP_PROF_SCOPE(kCore);
  if (crashed_) {
    // The host is down: wired traffic is dropped on the floor.  (With the
    // causal layer enabled this is safe — the causal shim has already
    // delivered and accounted the message before it reaches the entity.)
    count("mss.wired_dropped_crashed");
    return;
  }
  const net::PayloadPtr& payload = envelope.payload;
  if (const auto* m = net::message_cast<MsgDereg>(payload)) {
    handle_dereg(*m, envelope.src);
  } else if (const auto* m2 = net::message_cast<MsgDeregAck>(payload)) {
    handle_dereg_ack(*m2);
  } else if (const auto* m3 = net::message_cast<MsgForwardRequest>(payload)) {
    handle_forward_request(*m3, envelope.src);
  } else if (const auto* m4 =
                 net::message_cast<MsgForwardUnsubscribe>(payload)) {
    handle_forward_unsubscribe(*m4);
  } else if (const auto* m5 = net::message_cast<MsgServerResult>(payload)) {
    Proxy* proxy = find_proxy(m5->proxy);
    if (proxy == nullptr) {
      count("mss.result_for_dead_proxy");
      return;
    }
    proxy->handle_server_result(*m5);
    checkpoint_proxy(m5->proxy);
  } else if (const auto* m6 = net::message_cast<MsgResultForward>(payload)) {
    handle_result_forward(*m6);
  } else if (const auto* m7 = net::message_cast<MsgDelPref>(payload)) {
    handle_del_pref(*m7);
  } else if (const auto* m8 = net::message_cast<MsgAckForward>(payload)) {
    handle_ack_forward(*m8);
  } else if (const auto* m9 = net::message_cast<MsgUpdateCurrentLoc>(payload)) {
    handle_update_currentloc(*m9);
  } else if (const auto* m10 = net::message_cast<MsgProxyGone>(payload)) {
    handle_proxy_gone(*m10);
  } else if (const auto* m11 = net::message_cast<MsgPrefRestore>(payload)) {
    handle_pref_restore(*m11);
  } else if (const auto* m12 = net::message_cast<MsgPrefRepair>(payload)) {
    handle_pref_repair(*m12);
  } else if (const auto* m13 = net::message_cast<MsgPrefRepairNack>(payload)) {
    handle_pref_repair_nack(*m13);
  } else if (replication_ != nullptr &&
             replication_->on_wired_message(envelope)) {
    // Consumed by the replication subsystem (replica deltas, heartbeats,
    // resyncs, transfer-resumes).
  } else {
    count("mss.unknown_wired");
  }
}

void Mss::handle_dereg(const MsgDereg& msg, NodeAddress from) {
  const MhId mh = msg.mh;
  // The deregAck must go to the Mss that *initiated* the hand-off, which
  // is not necessarily the sender: a dereg can reach us via a tombstone
  // chase through intermediate Mss's (see below).
  const NodeAddress requester =
      runtime_.directory.mss_address(msg.new_mss);
  if (const Pref* pref = prefs_.find(mh.value())) {
    // Note on the §3.1 priority rule: Acks from this Mh that were already
    // received have been forwarded synchronously, and the event kernel
    // delivers same-instant Ack events before this dereg (EventPriority).
    // From this point on, uplink Acks from `mh` are ignored (handle_uplink_ack
    // drops them because the Mh is no longer local).
    runtime_.wired.send(address_, requester,
                        net::make_message<MsgDeregAck>(mh, *pref));
    prefs_.erase(mh.value());
    *departed_to_.try_emplace(mh.value()).first = requester;
    drop_cached_results(mh);
    count("mss.handoffs_out");
    return;
  }
  if (PendingHandoff* pending = pending_handoffs_.find(mh.value())) {
    // Chained migration: the Mh left for yet another cell before our own
    // hand-off finished.  Forward the pref there once it arrives.
    pending->chained_to = from;
    count("mss.handoffs_chained");
    return;
  }
  if (const NodeAddress* to = departed_to_.find(mh.value())) {
    // We already handed this Mh's pref away; chase it.  Never chase back
    // to the requester itself (that could only ping-pong).
    if (*to != requester) {
      runtime_.wired.send(address_, *to,
                          net::make_message<MsgDereg>(mh, msg.new_mss));
      count("mss.deregs_chased");
      return;
    }
    departed_to_.erase(mh.value());
  }
  // Unknown Mh: answer with a null pref so the new Mss can register it
  // fresh rather than deadlock waiting for a deregAck.
  count("mss.dereg_unknown_mh");
  Pref null_pref;
  null_pref.clear();
  runtime_.wired.send(address_, requester,
                      net::make_message<MsgDeregAck>(mh, null_pref));
  (void)from;
}

void Mss::handle_dereg_ack(const MsgDeregAck& msg) {
  const MhId mh = msg.mh;
  const PendingHandoff* found = pending_handoffs_.find(mh.value());
  if (found == nullptr) {
    count("mss.unexpected_deregack");
    return;
  }
  const PendingHandoff pending = *found;
  pending_handoffs_.erase(mh.value());

  if (pending.chained_to.valid()) {
    // The Mh has moved on: relay the pref to its newest Mss directly.
    runtime_.wired.send(address_, pending.chained_to,
                        net::make_message<MsgDeregAck>(mh, msg.pref));
    *departed_to_.try_emplace(mh.value()).first = pending.chained_to;
    if (auto rit = pending_repairs_.find(mh); rit != pending_repairs_.end()) {
      // A deferred repair chases the pref to the Mh's newest Mss.
      const MsgPrefRepair repair = rit->second;
      pending_repairs_.erase(rit);
      handle_pref_repair(repair);
    }
    return;
  }

  *prefs_.try_emplace(mh.value()).first = msg.pref;
  departed_to_.erase(mh.value());
  runtime_.observer.on_event(
      {.kind = Hook::kHandoffCompleted,
       .at = runtime_.simulator.now(),
       .mh = mh,
       .id_a = pending.old_mss.value(),
       .id_b = id_.value(),
       .count_a = msg.wire_size(),
       .duration = runtime_.simulator.now() - pending.started});
  count("mss.handoffs_in");

  // A repair that arrived mid-hand-off is applied now that the pref is
  // here; its install path sends the update_currentLoc itself.
  if (auto rit = pending_repairs_.find(mh); rit != pending_repairs_.end()) {
    const MsgPrefRepair repair = rit->second;
    pending_repairs_.erase(rit);
    handle_pref_repair(repair);
  }
  const Pref pref = *prefs_.find(mh.value());
  const bool repair_rewrote = pref.proxy_host != msg.pref.proxy_host ||
                              pref.proxy != msg.pref.proxy;
  // §3.2: "responsibility for Mh is officially transferred ... and updates
  // Mh's new location with its proxy, by sending the update_currLoc
  // message."
  if (pref.has_proxy() && !repair_rewrote) send_update_currentloc(mh, pref);
  send_registration_ack(mh);
}

void Mss::handle_forward_request(const MsgForwardRequest& msg,
                                 NodeAddress from) {
  Proxy* proxy = find_proxy(msg.proxy);
  if (proxy == nullptr) {
    // Stale pref (only possible with the GC extension or in ablations).
    count("mss.request_for_dead_proxy");
    runtime_.wired.send(address_, from,
                        net::make_message<MsgProxyGone>(
                            msg.mh, msg.proxy, msg.request, msg.server,
                            msg.body, msg.stream, true));
    return;
  }
  proxy->handle_request(msg.request, msg.server, msg.body, msg.stream);
  checkpoint_proxy(msg.proxy);
}

void Mss::handle_forward_unsubscribe(const MsgForwardUnsubscribe& msg) {
  Proxy* proxy = find_proxy(msg.proxy);
  if (proxy == nullptr) {
    count("mss.unsubscribe_for_dead_proxy");
    return;
  }
  proxy->handle_unsubscribe(msg.request);
  checkpoint_proxy(msg.proxy);
}

void Mss::handle_result_forward(const MsgResultForward& msg) {
  Pref* pref = prefs_.find(msg.mh.value());
  if (pref == nullptr) {
    // The Mh migrated away (or is mid-hand-off): drop after this single
    // attempt (§5); the proxy re-sends on the next update_currentLoc.
    count("mss.result_forward_missed");
    return;
  }
  if (msg.del_pref) {
    if (pref->has_proxy() && pref->proxy_host == msg.proxy_host &&
        pref->proxy == msg.proxy) {
      pref->rkpr = true;
      pref->rkpr_request = msg.request;
      pref->rkpr_seq = msg.result_seq;
    } else {
      count("mss.delpref_mismatched_pref");
    }
  }
  count("mss.results_downlinked");
  runtime_.wireless.downlink(
      cell_, msg.mh,
      net::make_message<MsgDownlinkResult>(msg.request, msg.result_seq,
                                           msg.final, msg.body, msg.attempt));
  if (runtime_.config.mss_result_cache) cache_result(msg);
}

void Mss::cache_result(const MsgResultForward& msg) {
  auto it = cached_position(msg.mh, msg.request, msg.result_seq);
  if (it == cached_results_.end() || it->mh != msg.mh ||
      it->request != msg.request || it->result_seq != msg.result_seq) {
    it = cached_results_.emplace(it);
    it->mh = msg.mh;
    it->request = msg.request;
    it->result_seq = msg.result_seq;
  }
  it->body = msg.body;
  it->final = msg.final;
  it->attempt = msg.attempt;
  it->local_retries = 0;
  arm_result_cache_timer(msg.mh, msg.request, msg.result_seq);
}

Mss::CachedResults::iterator Mss::cached_position(MhId mh, RequestId request,
                                                  std::uint32_t result_seq) {
  return std::lower_bound(
      cached_results_.begin(), cached_results_.end(),
      std::make_tuple(mh, request, result_seq),
      [](const CachedResult& cached,
         const std::tuple<MhId, RequestId, std::uint32_t>& key) {
        return std::tie(cached.mh, cached.request, cached.result_seq) < key;
      });
}

Mss::CachedResult* Mss::find_cached(MhId mh, RequestId request,
                                    std::uint32_t result_seq) {
  const auto it = cached_position(mh, request, result_seq);
  if (it == cached_results_.end() || it->mh != mh || it->request != request ||
      it->result_seq != result_seq) {
    return nullptr;
  }
  return &*it;
}

void Mss::arm_result_cache_timer(MhId mh, RequestId request,
                                 std::uint32_t result_seq) {
  CachedResult* cached = find_cached(mh, request, result_seq);
  if (cached == nullptr) return;
  cached->timer.cancel();
  cached->timer = runtime_.simulator.schedule(
      runtime_.config.result_cache_retry,
      [this, mh, request, result_seq] {
        CachedResult* entry = find_cached(mh, request, result_seq);
        if (entry == nullptr) return;
        const auto erase_entry = [&] {
          cached_results_.erase(cached_results_.begin() +
                                (entry - cached_results_.data()));
        };
        if (!prefs_.contains(mh.value())) {
          // Departed: the proxy's update_currentLoc path takes over.
          erase_entry();
          return;
        }
        // snapshot_*: barrier-synced view in sharded runs, so the retry
        // decision does not depend on how cells map to shards.
        if (runtime_.wireless.snapshot_mh_active(mh) &&
            runtime_.wireless.snapshot_mh_cell(mh) == std::optional(cell_)) {
          if (++entry->local_retries >
              runtime_.config.result_cache_max_attempts) {
            count("mss.result_cache_gave_up");
            erase_entry();
            return;
          }
          count("mss.result_cache_retries");
          runtime_.wireless.downlink(
              cell_, mh,
              net::make_message<MsgDownlinkResult>(request, result_seq,
                                                   entry->final, entry->body,
                                                   entry->attempt));
        }
        // Inactive or mid-transit: don't burn an attempt, just wait
        // ("wait until the Mh becomes active again", §5 footnote 3).
        arm_result_cache_timer(mh, request, result_seq);
      },
      sim::EventPriority::kLow);
}

void Mss::drop_cached_results(MhId mh) {
  // The least RequestId (an invalid MhId sorts last).
  const auto first = cached_position(mh, RequestId(MhId(0), 0), 0);
  auto last = first;
  for (; last != cached_results_.end() && last->mh == mh; ++last) {
    last->timer.cancel();
  }
  cached_results_.erase(first, last);
}

void Mss::handle_del_pref(const MsgDelPref& msg) {
  Pref* pref = prefs_.find(msg.mh.value());
  if (pref == nullptr) {
    count("mss.delpref_missed");
    return;
  }
  if (pref->has_proxy() && pref->proxy_host == msg.proxy_host &&
      pref->proxy == msg.proxy) {
    pref->rkpr = true;
    pref->rkpr_request = msg.request;
    pref->rkpr_seq = msg.result_seq;
  } else {
    count("mss.delpref_mismatched_pref");
  }
}

void Mss::handle_ack_forward(const MsgAckForward& msg) {
  Proxy* proxy = find_proxy(msg.proxy);
  if (proxy == nullptr) {
    count("mss.ack_for_dead_proxy");
    return;
  }
  if (proxy->handle_ack(msg)) {
    delete_proxy(msg.proxy, /*via_gc=*/false);
  } else {
    checkpoint_proxy(msg.proxy);
  }
}

void Mss::handle_update_currentloc(const MsgUpdateCurrentLoc& msg) {
  Proxy* proxy = find_proxy(msg.proxy);
  if (proxy == nullptr) {
    count("mss.update_for_dead_proxy");
    return;
  }
  proxy->handle_update_currentloc(msg.new_loc);
  checkpoint_proxy(msg.proxy);
}

void Mss::handle_proxy_gone(const MsgProxyGone& msg) {
  Pref* pref = prefs_.find(msg.mh.value());
  if (pref == nullptr) {
    count("mss.proxygone_missed");
    return;
  }
  if (!pref->has_proxy() || pref->proxy != msg.proxy) {
    count("mss.proxygone_stale");
    return;
  }
  pref->clear();
  count("mss.prefs_healed");
  if (!msg.had_request) return;
  // Recreate a proxy locally and replay the request that hit the dead one.
  Proxy& proxy = create_proxy(msg.mh);
  pref->proxy_host = address_;
  pref->proxy = proxy.id();
  proxy.handle_request(msg.request, msg.server, msg.body, msg.stream);
  checkpoint_proxy(proxy.id());
}

void Mss::handle_pref_restore(const MsgPrefRestore& msg) {
  Pref* pref = prefs_.find(msg.mh.value());
  if (pref == nullptr) {
    // The Mh moved on with a null pref; the proxy stays orphaned until the
    // idle-proxy GC reclaims it (its pending requests are unrecoverable —
    // counted so experiments can report the residual window).
    count("mss.pref_restore_missed");
    return;
  }
  if (pref->has_proxy()) {
    if (pref->proxy_host == msg.proxy_host && pref->proxy == msg.proxy) {
      // Already consistent; just defuse the stale RKpR.
      pref->clear_rkpr();
    } else {
      // A different proxy was created meanwhile; the old one is orphaned.
      count("mss.pref_restore_conflict");
    }
    return;
  }
  pref->proxy_host = msg.proxy_host;
  pref->proxy = msg.proxy;
  pref->clear_rkpr();
  count("mss.prefs_restored");
  // The proxy refused deletion while holding unacknowledged results; let
  // it re-deliver them to us right away.
  send_update_currentloc(msg.mh, *pref);
}

void Mss::handle_pref_repair(const MsgPrefRepair& msg) {
  // A promoted backup adopted the Mh's proxy (previously at msg.old_host)
  // under (msg.new_host, msg.new_proxy) and asks us to re-point the pref.
  // Any failure mode that leaves the adopted proxy unused must Nack it
  // back to the backup, or its pending requests hang unaccounted.
  Pref* pref = prefs_.find(msg.mh.value());
  if (pref == nullptr) {
    if (const NodeAddress* to = departed_to_.find(msg.mh.value())) {
      // The Mh moved on; chase the repair to wherever the pref went.
      runtime_.wired.send(address_, *to,
                          net::make_message<MsgPrefRepair>(msg));
      count("mss.pref_repairs_chased");
      return;
    }
    if (pending_handoffs_.contains(msg.mh.value())) {
      // The pref is still in flight towards us; apply once the deregAck
      // lands (handle_dereg_ack / handle_join drain pending_repairs_).
      pending_repairs_.insert_or_assign(msg.mh, msg);
      count("mss.pref_repairs_deferred");
      return;
    }
    count("mss.pref_repairs_missed");
    runtime_.wired.send(
        address_, msg.new_host,
        net::make_message<MsgPrefRepairNack>(msg.mh, msg.new_proxy));
    return;
  }
  if (pref->has_proxy()) {
    if (pref->proxy_host == msg.new_host && pref->proxy == msg.new_proxy) {
      // Duplicate repair (lease expiry racing a transfer-resume answer).
      pref->clear_rkpr();
      count("mss.pref_repairs_duplicate");
      return;
    }
    if (pref->proxy_host != msg.old_host || pref->proxy != msg.old_proxy) {
      // The pref names a different live proxy (e.g. healed fresh after a
      // proxyGone, or rebound to a checkpoint-restored copy): keep it and
      // let the backup reclaim the adopted incarnation.
      count("mss.pref_repairs_conflict");
      runtime_.wired.send(
          address_, msg.new_host,
          net::make_message<MsgPrefRepairNack>(msg.mh, msg.new_proxy));
      return;
    }
  }
  pref->proxy_host = msg.new_host;
  pref->proxy = msg.new_proxy;
  pref->clear_rkpr();
  count("mss.prefs_repaired");
  // Tell the adopted proxy where the Mh is; it re-sends every
  // unacknowledged result to us (§3.1 semantics, new incarnation).
  send_update_currentloc(msg.mh, *pref);
}

void Mss::handle_pref_repair_nack(const MsgPrefRepairNack& msg) {
  const Proxy* proxy = find_proxy(msg.new_proxy);
  if (proxy == nullptr || proxy->mh() != msg.mh) {
    count("mss.repair_nacks_stale");
    return;
  }
  // The repair lost: a different proxy (or nobody) serves the Mh now.
  drop_adopted_proxy(msg.new_proxy);
}

void Mss::drop_adopted_proxy(ProxyId proxy) {
  const Proxy* adopted = find_proxy(proxy);
  if (adopted == nullptr) return;
  // Without the re-issue watchdog the adopted requests are unrecoverable
  // from this incarnation — account them before tearing it down.  (These
  // requests reached a proxy at the *old* host, so the R4 delete-host
  // bookkeeping stays consistent.)
  if (!runtime_.config.mh_reissue) {
    for (const RequestId request : adopted->pending_requests()) {
      runtime_.observer.on_event({.kind = Hook::kRequestLost,
                                  .at = runtime_.simulator.now(),
                                  .mh = adopted->mh(),
                                  .request = request,
                                  .reason = RequestLossReason::kProxyGone});
    }
  }
  count("mss.adopted_proxies_dropped");
  delete_proxy(proxy, /*via_gc=*/false);
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

Proxy& Mss::create_proxy(MhId mh) {
  const ProxyId id{next_proxy_++};
  std::unique_ptr<Proxy> proxy;
  if (retired_proxies_.empty()) {
    proxy = std::make_unique<Proxy>(runtime_, *this, address_, id, mh);
  } else {
    proxy = std::move(retired_proxies_.back());
    retired_proxies_.pop_back();
    proxy->reopen(id, mh);
  }
  Proxy& ref = *proxy;
  insert_proxy(std::move(proxy));
  count("mss.proxies_created");
  // The GC timer lives only while this Mss hosts proxies, so an idle world
  // drains its event queue (run_to_quiescence terminates).
  if (runtime_.config.idle_proxy_gc && !gc_scheduled_) schedule_gc();
  return ref;
}

Proxy& Mss::adopt_proxy(const ProxyCheckpoint& record) {
  // The record's proxy id was allocated by the dead primary; re-home the
  // state under a fresh id from our own namespace so the two incarnations
  // can never collide in wired messages that outlive the crash.
  ProxyCheckpoint local = record;
  local.proxy = ProxyId{next_proxy_++};
  auto proxy = std::make_unique<Proxy>(runtime_, *this, address_, local);
  Proxy& ref = *proxy;
  insert_proxy(std::move(proxy));
  count("mss.proxies_adopted");
  if (runtime_.config.idle_proxy_gc && !gc_scheduled_) schedule_gc();
  // The adopted proxy is durable/replicated state of *this* host now.
  checkpoint_proxy(local.proxy);
  // Requests whose server reply died with the primary would hang forever
  // (the reply was addressed to the dead host); ask the servers again.
  ref.requery_servers();
  return ref;
}

std::vector<ProxyCheckpoint> Mss::checkpoint_all() const {
  std::vector<ProxyCheckpoint> out;
  out.reserve(proxies_.size());
  for (const auto& proxy : proxies_) out.push_back(proxy->checkpoint());
  return out;
}

void Mss::route_to_proxy(const Pref& pref, net::PayloadPtr payload,
                         sim::EventPriority priority) {
  RDP_CHECK(pref.has_proxy(), "routing to a null pref");
  if (pref.proxy_host == address_) {
    deliver_local_from_proxy(std::move(payload));
    return;
  }
  runtime_.wired.send(address_, pref.proxy_host, std::move(payload), priority);
}

void Mss::deliver_local_from_proxy(const net::PayloadPtr& payload) {
  // Local exchange between this Mss and a co-located proxy, in either
  // direction; reuse the wired dispatch.
  net::Envelope envelope;
  envelope.src = address_;
  envelope.dst = address_;
  envelope.payload = payload;
  envelope.sent_at = runtime_.simulator.now();
  envelope.arrives_at = runtime_.simulator.now();
  on_message(envelope);
}

void Mss::send_registration_ack(MhId mh) {
  runtime_.wireless.downlink(cell_, mh,
                             net::make_message<MsgRegistrationAck>(id_));
}

void Mss::send_update_currentloc(MhId mh, Pref pref) {
  if (pref.proxy_host != address_) {
    const MssId host_mss = runtime_.directory.mss_at(pref.proxy_host);
    if (host_mss.valid() && !runtime_.directory.mss_up(host_mss)) {
      // The proxy host is down: the update would fall on deaf ears.  Start
      // the transfer-resume handshake instead; the dead host's backup
      // (promoted, or promoting on this very message) answers with a
      // prefRepair that re-points the pref and re-drives delivery.
      count("mss.update_to_down_host");
      request_transfer_resume(mh, pref.proxy_host, pref.proxy);
      return;
    }
  }
  runtime_.observer.on_event({.kind = Hook::kUpdateCurrentloc,
                              .at = runtime_.simulator.now(),
                              .mh = mh,
                              .id_a = pref.proxy_host.value(),
                              .id_b = address_.value()});
  count("mss.update_currentloc_sent");
  if (pref.proxy_host == address_) {
    Proxy* proxy = find_proxy(pref.proxy);
    if (proxy == nullptr) {
      count("mss.update_for_dead_proxy");
      return;
    }
    proxy->handle_update_currentloc(address_);
    checkpoint_proxy(pref.proxy);
    return;
  }
  runtime_.wired.send(
      address_, pref.proxy_host,
      net::make_message<MsgUpdateCurrentLoc>(mh, pref.proxy, address_));
}

void Mss::request_transfer_resume(MhId mh, NodeAddress dead_host,
                                  ProxyId old_proxy) {
  const MssId dead = runtime_.directory.mss_at(dead_host);
  if (!dead.valid()) return;
  // The resume goes to the first live member of the dead host's backup
  // chain — the same deterministic promoter the lease-expiry path elects,
  // so a primary+backup double crash still resolves against the surviving
  // chain member.
  MssId backup = MssId::invalid();
  for (const MssId member : runtime_.directory.backups_of(dead)) {
    if (runtime_.directory.mss_live(member)) {
      backup = member;
      break;
    }
  }
  if (!backup.valid()) {
    // No replication for that host (or the whole chain is gone); the Mh
    // watchdog (or its restart plus checkpoint restore) is the only
    // recovery path.
    count("mss.transfer_resume_no_backup");
    return;
  }
  count("mss.transfer_resumes_sent");
  runtime_.wired.send(
      address_, runtime_.directory.mss_address(backup),
      net::make_message<MsgTransferResume>(mh, dead_host, old_proxy));
}

std::size_t Mss::demote_proxies() {
  if (proxies_.empty()) return 0;
  // Replicated proxies live on in the promoted chain members — their
  // requests are owned there, exactly as after a crash.  A never-shipped
  // proxy's requests die here (unless the Mh watchdog re-issues them).
  if (!runtime_.config.mh_reissue) {
    for (const auto& proxy : proxies_) {
      if (replication_ != nullptr && replication_->covers(proxy->id())) {
        continue;
      }
      for (const RequestId request : proxy->pending_requests()) {
        runtime_.observer.on_event({.kind = Hook::kRequestLost,
                                    .at = runtime_.simulator.now(),
                                    .mh = proxy->mh(),
                                    .request = request,
                                    .reason = RequestLossReason::kProxyGone});
      }
    }
  }
  std::vector<ProxyId> ids;
  ids.reserve(proxies_.size());
  for (const auto& proxy : proxies_) ids.push_back(proxy->id());
  for (const ProxyId id : ids) {
    count("mss.proxies_demoted");
    delete_proxy(id, /*via_gc=*/false);
  }
  return ids.size();
}

void Mss::delete_proxy(ProxyId id, bool via_gc) {
  const auto it = proxy_position(proxies_, id);
  RDP_CHECK(it != proxies_.end() && (*it)->id() == id,
            "deleting unknown proxy");
  runtime_.observer.on_event({.kind = Hook::kProxyDeleted,
                              .at = runtime_.simulator.now(),
                              .mh = (*it)->mh(),
                              .id_a = address_.value(),
                              .id_b = id.value(),
                              .flag_a = via_gc});
  count(via_gc ? "mss.proxies_gc" : "mss.proxies_deleted");
  // The object and its storage wait for the next create_proxy.
  retired_proxies_.push_back(
      std::move(proxies_[static_cast<std::size_t>(it - proxies_.begin())]));
  proxies_.erase(it);
  if (checkpoint_store_ != nullptr) checkpoint_store_->erase(id_, id);
  if (replication_ != nullptr) replication_->on_proxy_erased(id);
  std::erase_if(restored_bindings_,
                [id](const auto& entry) { return entry.second == id; });
}

void Mss::schedule_gc() {
  gc_scheduled_ = true;
  runtime_.simulator.schedule(
      runtime_.config.proxy_gc_interval, [this] { run_gc(); },
      sim::EventPriority::kLow);
}

void Mss::run_gc() {
  gc_scheduled_ = false;
  std::vector<ProxyId> dead;
  for (const auto& proxy : proxies_) {
    const common::Duration age =
        runtime_.simulator.now() - proxy->last_activity();
    if (proxy->idle()) {
      if (age >= runtime_.config.idle_proxy_timeout) {
        dead.push_back(proxy->id());
      }
    } else if (runtime_.config.abandoned_proxy_timeout >
                   common::Duration::zero() &&
               age >= runtime_.config.abandoned_proxy_timeout) {
      // The Mh has been unreachable for a very long time (left the system
      // or died): the pending requests are unrecoverable.
      for (const RequestId request : proxy->pending_requests()) {
        runtime_.observer.on_event({.kind = Hook::kRequestLost,
                                    .at = runtime_.simulator.now(),
                                    .mh = proxy->mh(),
                                    .request = request,
                                    .reason = RequestLossReason::kMhLeft});
      }
      count("mss.proxies_abandoned");
      dead.push_back(proxy->id());
    }
  }
  for (ProxyId id : dead) {
    runtime_.observer.on_event({.kind = Hook::kOrphanedProxy,
                                .at = runtime_.simulator.now(),
                                .mh = find_proxy(id)->mh(),
                                .id_a = id.value()});
    delete_proxy(id, /*via_gc=*/true);
  }
  if (!proxies_.empty()) schedule_gc();
}

// ---------------------------------------------------------------------------
// Crash / recovery (fault-injection subsystem).
// ---------------------------------------------------------------------------

void Mss::crash() {
  RDP_CHECK(!crashed_, "crashing an already-crashed Mss");
  crashed_ = true;
  runtime_.directory.set_mss_up(id_, false);

  // Pending requests whose proxy has no durable checkpoint die with the
  // host.  (A checkpointed proxy's requests survive: restart() re-creates
  // the proxy and the Mh-side rebind path re-delivers its results.  With
  // the Mh re-issue watchdog on, even an un-checkpointed request may yet
  // be recovered — the watchdog reports the loss itself if it gives up.)
  if (!runtime_.config.mh_reissue) {
    for (const auto& proxy : proxies_) {
      const ProxyId id = proxy->id();
      if (checkpoint_store_ != nullptr &&
          checkpoint_store_->contains(id_, id)) {
        continue;
      }
      if (replication_ != nullptr && replication_->covers(id)) {
        // The proxy's state reached the backup at least once; its promotion
        // resumes delivery without waiting for our restart.
        continue;
      }
      for (const RequestId request : proxy->pending_requests()) {
        runtime_.observer.on_event({.kind = Hook::kRequestLost,
                                    .at = runtime_.simulator.now(),
                                    .mh = proxy->mh(),
                                    .request = request,
                                    .reason = RequestLossReason::kMssCrashed});
      }
    }
  }

  const std::size_t proxies_lost = proxies_.size();
  const std::size_t mhs_detached = prefs_.size();

  // Everything volatile is gone: proxies, the pref table (and with it the
  // local_Mhs list), in-flight hand-offs (their deregAcks will fall on deaf
  // ears), the tombstone chain, and the footnote-3 result cache.
  proxies_.clear();
  prefs_.clear();
  pending_handoffs_.clear();
  pending_repairs_.clear();
  departed_to_.clear();
  restored_bindings_.clear();
  if (replication_ != nullptr) replication_->on_host_crashed();
  for (CachedResult& cached : cached_results_) cached.timer.cancel();
  cached_results_.clear();
  // ARQ receiver state (epochs, cum counters, reassembly buffers) is as
  // volatile as the pref table; survivors re-sync via a fresh sender epoch
  // when the Mh re-registers after restart().
  if (arq_ != nullptr) arq_->clear();

  count("mss.crashes");
  runtime_.observer.on_event({.kind = Hook::kMssCrashed,
                              .at = runtime_.simulator.now(),
                              .id_a = id_.value(),
                              .count_a = proxies_lost,
                              .count_b = mhs_detached});
}

void Mss::restart() {
  RDP_CHECK(crashed_, "restarting an Mss that is up");
  crashed_ = false;
  runtime_.directory.set_mss_up(id_, true);
  count("mss.restarts");

  std::size_t restored = 0;
  if (checkpoint_store_ != nullptr) {
    for (const ProxyCheckpoint& record : checkpoint_store_->restore(id_)) {
      auto proxy = std::make_unique<Proxy>(runtime_, *this, address_, record);
      Proxy& ref = *proxy;
      next_proxy_ = std::max(next_proxy_, record.proxy.value() + 1);
      insert_proxy(std::move(proxy));
      restored_bindings_[record.mh] = record.proxy;
      ++restored;
      count("mss.proxies_restored");
      // Push unacknowledged results back out to where the Mh was last
      // known to be.  If it migrated meanwhile its current respMss still
      // holds a pref naming this proxy, so the forward lands; if the Mh is
      // (still) in our own cell the attempt misses — the rebind on its
      // next join/greet re-triggers the resend.
      ref.handle_update_currentloc(record.current_loc);
    }
    if (!proxies_.empty() && runtime_.config.idle_proxy_gc && !gc_scheduled_) {
      schedule_gc();
    }
  }
  if (replication_ != nullptr) replication_->on_host_restarted();
  runtime_.observer.on_event({.kind = Hook::kMssRestarted,
                              .at = runtime_.simulator.now(),
                              .id_a = id_.value(),
                              .count_a = restored});
}

void Mss::checkpoint_proxy(ProxyId id) {
  if (checkpoint_store_ == nullptr && replication_ == nullptr) return;
  const Proxy* proxy = find_proxy(id);
  if (proxy == nullptr) return;
  ProxyCheckpoint record = proxy->checkpoint();
  if (replication_ != nullptr) replication_->on_proxy_mutated(record);
  if (checkpoint_store_ != nullptr) {
    checkpoint_store_->put(id_, std::move(record));
  }
}

}  // namespace rdp::core
