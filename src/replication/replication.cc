#include "replication/replication.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/perf_probe.h"

namespace rdp::replication {

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff:
      return "off";
    case Mode::kAsync:
      return "async";
    case Mode::kSync:
      return "sync";
  }
  return "?";
}

Replicator::Replicator(core::Runtime& runtime, core::Mss& mss,
                       const ReplicationConfig& config)
    : runtime_(runtime),
      mss_(mss),
      config_(config),
      last_chain_(runtime.directory.backups_of(mss.id())) {}

// ---------------------------------------------------------------------------
// Chain helpers.
// ---------------------------------------------------------------------------

const std::vector<common::MssId>& Replicator::chain_of(
    common::MssId primary) const {
  return runtime_.directory.backups_of(primary);
}

bool Replicator::has_chain() const { return !chain_of(mss_.id()).empty(); }

common::NodeAddress Replicator::head_address() const {
  return runtime_.directory.mss_address(chain_of(mss_.id()).front());
}

common::MssId Replicator::first_live_member(
    const std::vector<common::MssId>& chain) const {
  for (common::MssId member : chain) {
    if (runtime_.directory.mss_live(member)) return member;
  }
  return common::MssId::invalid();
}

bool Replicator::forward_down_chain(common::MssId primary,
                                    const net::PayloadPtr& payload) {
  const std::vector<common::MssId>& chain = chain_of(primary);
  auto self = std::find(chain.begin(), chain.end(), mss_.id());
  if (self == chain.end()) return true;  // stale member: neither forward
                                         // nor ack for this chain
  for (auto it = std::next(self); it != chain.end(); ++it) {
    if (!runtime_.directory.mss_live(*it)) continue;
    count("repl.chain_forwards");
    runtime_.wired.send(mss_.address(), runtime_.directory.mss_address(*it),
                        payload, sim::EventPriority::kLow);
    return true;
  }
  return false;  // effective tail
}

// ---------------------------------------------------------------------------
// Primary side: delta shipping.
// ---------------------------------------------------------------------------

void Replicator::on_proxy_mutated(const core::ProxyCheckpoint& record) {
  RDP_PROF_SCOPE(kReplication);
  if (config_.mode == Mode::kOff) return;
  if (runtime_.directory.mss_departed(mss_.id())) {
    // This primary was declared departed (partition) while still running:
    // its proxies belong to the promoted chain members now.  Demote instead
    // of shipping — deferred one event, because the caller may be mutating
    // the very proxy the demotion deletes.
    schedule_demote();
    return;
  }
  if (!has_chain()) return;
  if (config_.mode == Mode::kSync) {
    ship_update(record);
    return;
  }
  dirty_[record.proxy] = record;
  arm_flush();
}

void Replicator::on_proxy_erased(common::ProxyId proxy) {
  RDP_PROF_SCOPE(kReplication);
  if (config_.mode == Mode::kOff || !has_chain()) return;
  if (demoting_) return;  // fenced primary: promoted incarnations own these
  if (!shipped_live_.contains(proxy)) {
    // Never reached the backup (created and completed within one flush
    // window, or an idle proxy that never mutated): nothing to retract.
    dirty_.erase(proxy);
    return;
  }
  if (config_.mode == Mode::kSync) {
    ship_erase(proxy);
    return;
  }
  dirty_[proxy] = std::nullopt;
  arm_flush();
}

void Replicator::ship_update(const core::ProxyCheckpoint& record) {
  shipped_live_.insert(record.proxy);
  auto msg = net::make_message<core::MsgReplicaUpdate>(mss_.id(), ++ship_seq_,
                                                       record);
  ++deltas_shipped_;
  bytes_shipped_ += msg->wire_size();
  count("repl.deltas_shipped");
  runtime_.wired.send(mss_.address(), head_address(), std::move(msg),
                      sim::EventPriority::kLow);
  arm_heartbeat();
}

void Replicator::ship_erase(common::ProxyId proxy) {
  shipped_live_.erase(proxy);
  ++deltas_shipped_;
  count("repl.erases_shipped");
  runtime_.wired.send(
      mss_.address(), head_address(),
      net::make_message<core::MsgReplicaErase>(mss_.id(), ++ship_seq_, proxy),
      sim::EventPriority::kLow);
}

void Replicator::flush_dirty() {
  RDP_PROF_SCOPE(kReplication);
  if (mss_.crashed() || !has_chain()) return;
  for (auto& [proxy, entry] : dirty_) {
    if (entry.has_value()) {
      ship_update(*entry);
    } else {
      ship_erase(proxy);
    }
  }
  dirty_.clear();
}

void Replicator::arm_flush() {
  if (flush_timer_.pending()) return;
  flush_timer_ = runtime_.simulator.schedule(
      config_.flush_interval, [this] { flush_dirty(); },
      sim::EventPriority::kLow);
}

void Replicator::arm_heartbeat() {
  if (heartbeat_timer_.pending()) return;
  if (shipped_live_.empty() && dirty_.empty()) return;
  heartbeat_timer_ = runtime_.simulator.schedule(
      config_.heartbeat_interval,
      [this] {
        if (mss_.crashed() || !has_chain()) return;
        if (shipped_live_.empty() && dirty_.empty()) return;
        count("repl.heartbeats_sent");
        runtime_.wired.send(
            mss_.address(), head_address(),
            net::make_message<core::MsgReplicaHeartbeat>(mss_.id()),
            sim::EventPriority::kLow);
        arm_heartbeat();
      },
      sim::EventPriority::kLow);
}

void Replicator::reship_chain(bool force) {
  if (config_.mode == Mode::kOff || mss_.crashed()) return;
  if (runtime_.directory.mss_departed(mss_.id())) {
    schedule_demote();
    return;
  }
  const std::vector<common::MssId>& chain = chain_of(mss_.id());
  if (!force && chain == last_chain_) return;
  last_chain_ = chain;
  if (chain.empty()) return;
  // Ring repaired: re-replicate the full checkpoint to the (partly new)
  // chain under a begin/commit fence bracket.  The begin fence precedes the
  // snapshot on every per-link FIFO hop, so a new member marks the shadow
  // syncing before the first record lands and never promotes a partial
  // snapshot; the commit fence makes it promotable again.
  count("repl.rerings");
  const std::uint64_t epoch = runtime_.directory.membership_epoch();
  runtime_.wired.send(mss_.address(), head_address(),
                      net::make_message<core::MsgReplicaFence>(
                          mss_.id(), epoch, ship_seq_, /*commit=*/false),
                      sim::EventPriority::kLow);
  // Pending coalesced erases must still reach the members that stayed on
  // the chain; flush them inside the bracket, then snapshot everything
  // (full-record dups are fenced by seq on arrival).
  flush_dirty();
  for (const core::ProxyCheckpoint& record : mss_.checkpoint_all()) {
    ship_update(record);
  }
  runtime_.wired.send(mss_.address(), head_address(),
                      net::make_message<core::MsgReplicaFence>(
                          mss_.id(), epoch, ship_seq_, /*commit=*/true),
                      sim::EventPriority::kLow);
  arm_heartbeat();
}

void Replicator::handle_chain_ack(const core::MsgChainAck& msg) {
  if (msg.primary != mss_.id()) return;
  ++chain_acks_;
  chain_acked_seq_ = std::max(chain_acked_seq_, msg.seq);
  count("repl.chain_acks");
}

void Replicator::handle_fence_ack(const core::MsgReplicaFenceAck& msg) {
  if (msg.primary != mss_.id()) return;
  ++fence_acks_;
  count("repl.fence_acks");
}

void Replicator::handle_primary_fence(const core::MsgPrimaryFence& msg) {
  if (msg.primary != mss_.id()) return;
  count("repl.primary_fences_received");
  maybe_demote();
}

void Replicator::maybe_demote() {
  if (mss_.crashed()) return;
  if (!runtime_.directory.mss_departed(mss_.id())) return;
  // demoting_ keeps the deletions below from shipping erases from a fenced
  // primary, while covers() still sees the shipped set for loss accounting.
  demoting_ = true;
  const std::size_t dropped = mss_.demote_proxies();
  demoting_ = false;
  shipped_live_.clear();
  dirty_.clear();
  flush_timer_.cancel();
  heartbeat_timer_.cancel();
  if (dropped > 0) {
    ++demotions_;
    count("repl.primary_demotions");
    runtime_.observer.on_event({.kind = core::Hook::kPrimaryDemoted,
                                .at = runtime_.simulator.now(),
                                .id_a = mss_.id().value(),
                                .count_a = dropped});
  }
  // Ask to re-enter the ring; the service rejoins us (departed -> live) and
  // the resulting ring repair re-replicates whatever we host afterwards.
  const common::NodeAddress service = runtime_.directory.membership_service();
  if (service.valid()) {
    runtime_.wired.send(mss_.address(), service,
                        net::make_message<core::MsgMembershipReport>(
                            mss_.id(), mss_.id(),
                            core::MembershipReportKind::kRejoin),
                        sim::EventPriority::kLow);
  }
}

void Replicator::schedule_demote() {
  if (demote_scheduled_) return;
  demote_scheduled_ = true;
  runtime_.simulator.schedule(common::Duration::millis(0), [this] {
    demote_scheduled_ = false;
    maybe_demote();
  });
}

// ---------------------------------------------------------------------------
// Crash / restart of the attached host.
// ---------------------------------------------------------------------------

void Replicator::on_host_crashed() {
  // Everything here models software co-located with the Mss: both roles'
  // volatile state dies with the host.  (ship_seq_ survives by design — see
  // the header — so the backup's fence stays monotonic across restarts.)
  shipped_live_.clear();
  dirty_.clear();
  flush_timer_.cancel();
  heartbeat_timer_.cancel();
  shadows_.clear();
  promoted_.clear();
  syncing_.clear();
  suspected_.clear();
  applied_seq_.clear();
  lease_timer_.cancel();
  adopted_watch_.clear();
  resolve_timer_.cancel();
}

void Replicator::on_host_restarted() {
  if (config_.mode == Mode::kOff) return;
  last_chain_ = chain_of(mss_.id());
  // Primary role: whatever the restart recovered (checkpoint-restored
  // proxies, possibly none) is the new truth; re-ship it so the chain's
  // shadows converge on this incarnation.  A restart while departed waits:
  // the membership service rejoins us first (observer order: the service
  // sees on_mss_restarted after this hook) and the kRejoined ring repair
  // triggers a fenced re-ship.
  if (has_chain() && !runtime_.directory.mss_departed(mss_.id())) {
    for (const core::ProxyCheckpoint& record : mss_.checkpoint_all()) {
      ship_update(record);
    }
  }
  // Backup role: the shadow tables were volatile.  Ask every live primary
  // we back to re-ship its proxies; a crashed primary has nothing to send
  // (its own recovery goes through restart or its Mhs' watchdogs).
  for (common::MssId primary :
       runtime_.directory.primaries_backed_by(mss_.id())) {
    if (!runtime_.directory.mss_live(primary)) {
      count("repl.resync_skipped_down_primary");
      continue;
    }
    count("repl.resyncs_requested");
    runtime_.wired.send(mss_.address(),
                        runtime_.directory.mss_address(primary),
                        net::make_message<core::MsgReplicaResync>(mss_.id()),
                        sim::EventPriority::kLow);
  }
}

// ---------------------------------------------------------------------------
// Backup side: shadow table, lease, promotion.
// ---------------------------------------------------------------------------

bool Replicator::on_wired_message(const net::Envelope& envelope) {
  if (config_.mode == Mode::kOff) return false;
  RDP_PROF_SCOPE(kReplication);
  const net::PayloadPtr& payload = envelope.payload;
  if (const auto* update = net::message_cast<core::MsgReplicaUpdate>(payload)) {
    apply_update(*update, payload);
    return true;
  }
  if (const auto* erase = net::message_cast<core::MsgReplicaErase>(payload)) {
    apply_erase(*erase, payload);
    return true;
  }
  if (const auto* hb = net::message_cast<core::MsgReplicaHeartbeat>(payload)) {
    handle_heartbeat(*hb, payload);
    return true;
  }
  if (const auto* fence = net::message_cast<core::MsgReplicaFence>(payload)) {
    handle_fence(*fence, payload);
    return true;
  }
  if (const auto* fack =
          net::message_cast<core::MsgReplicaFenceAck>(payload)) {
    handle_fence_ack(*fack);
    return true;
  }
  if (const auto* cack = net::message_cast<core::MsgChainAck>(payload)) {
    handle_chain_ack(*cack);
    return true;
  }
  if (const auto* resync = net::message_cast<core::MsgReplicaResync>(payload)) {
    handle_resync_request(*resync);
    return true;
  }
  if (const auto* resume =
          net::message_cast<core::MsgTransferResume>(payload)) {
    handle_transfer_resume(*resume, envelope.src);
    return true;
  }
  if (const auto* event =
          net::message_cast<core::MsgMembershipEvent>(payload)) {
    handle_membership_event(*event);
    return true;
  }
  if (net::message_cast<core::MsgMembershipProbe>(payload) != nullptr) {
    handle_probe(envelope);
    return true;
  }
  if (const auto* pfence = net::message_cast<core::MsgPrimaryFence>(payload)) {
    handle_primary_fence(*pfence);
    return true;
  }
  return false;
}

bool Replicator::delta_is_stale(common::MssId primary, common::ProxyId proxy,
                                std::uint64_t seq) {
  std::uint64_t& applied = applied_seq_[primary][proxy];
  if (seq <= applied) return true;
  applied = seq;
  return false;
}

bool Replicator::fence_departed_primary(common::MssId primary) {
  if (!runtime_.directory.mss_departed(primary)) return false;
  if (runtime_.directory.mss_up(primary)) {
    // The partition case: a departed primary is still running and still
    // shipping.  Fence it — it must demote, not race the promoted backup.
    count("repl.primary_fences_sent");
    runtime_.wired.send(mss_.address(),
                        runtime_.directory.mss_address(primary),
                        net::make_message<core::MsgPrimaryFence>(
                            primary, runtime_.directory.membership_epoch()),
                        sim::EventPriority::kLow);
  }
  count("repl.stale_deltas_dropped");
  return true;
}

void Replicator::apply_update(const core::MsgReplicaUpdate& msg,
                              const net::PayloadPtr& payload) {
  if (fence_departed_primary(msg.primary)) return;
  if (!runtime_.directory.mss_up(msg.primary)) {
    // In-flight straggler from a crashed incarnation (fail-stop: a *live*
    // primary is never marked down).  Applying it could re-grow a shadow
    // that was already promoted.
    count("repl.stale_deltas_dropped");
    return;
  }
  // Chain shipping: pass the delta to the next live member (or ack back to
  // the primary as the effective tail) regardless of local staleness — the
  // successors dedupe independently.
  if (!forward_down_chain(msg.primary, payload)) {
    runtime_.wired.send(mss_.address(),
                        runtime_.directory.mss_address(msg.primary),
                        net::make_message<core::MsgChainAck>(
                            msg.primary, msg.seq, mss_.id()),
                        sim::EventPriority::kLow);
  }
  if (delta_is_stale(msg.primary, msg.record.proxy, msg.seq)) {
    count("repl.reordered_deltas_dropped");
    return;
  }
  // A delta from a live primary supersedes any promotion bookkeeping for
  // it: this is a new incarnation being backed up afresh.
  promoted_.erase(msg.primary);
  suspected_.erase(msg.primary);
  Shadow& shadow = shadows_[msg.primary];
  shadow.records[msg.record.proxy] = msg.record;
  shadow.last_heard = runtime_.simulator.now();
  count("repl.updates_applied");
  arm_lease_check();
}

void Replicator::apply_erase(const core::MsgReplicaErase& msg,
                             const net::PayloadPtr& payload) {
  if (fence_departed_primary(msg.primary)) return;
  if (!runtime_.directory.mss_up(msg.primary)) {
    count("repl.stale_deltas_dropped");
    return;
  }
  if (!forward_down_chain(msg.primary, payload)) {
    runtime_.wired.send(mss_.address(),
                        runtime_.directory.mss_address(msg.primary),
                        net::make_message<core::MsgChainAck>(
                            msg.primary, msg.seq, mss_.id()),
                        sim::EventPriority::kLow);
  }
  if (delta_is_stale(msg.primary, msg.proxy, msg.seq)) {
    count("repl.reordered_deltas_dropped");
    return;
  }
  suspected_.erase(msg.primary);
  auto it = shadows_.find(msg.primary);
  if (it == shadows_.end()) return;
  it->second.records.erase(msg.proxy);
  it->second.last_heard = runtime_.simulator.now();
  if (it->second.records.empty()) shadows_.erase(it);
}

void Replicator::handle_heartbeat(const core::MsgReplicaHeartbeat& msg,
                                  const net::PayloadPtr& payload) {
  if (fence_departed_primary(msg.primary)) return;
  if (!runtime_.directory.mss_up(msg.primary)) return;
  forward_down_chain(msg.primary, payload);  // heartbeats renew the whole
                                             // chain; the tail does not ack
  touch_lease(msg.primary);
}

void Replicator::handle_fence(const core::MsgReplicaFence& msg,
                              const net::PayloadPtr& payload) {
  if (!runtime_.directory.mss_live(msg.primary)) return;
  forward_down_chain(msg.primary, payload);
  if (!msg.commit) {
    syncing_.insert(msg.primary);
    count("repl.fences_begun");
    return;
  }
  syncing_.erase(msg.primary);
  count("repl.fences_committed");
  if (auto it = shadows_.find(msg.primary); it != shadows_.end()) {
    it->second.last_heard = runtime_.simulator.now();
  }
  runtime_.wired.send(mss_.address(),
                      runtime_.directory.mss_address(msg.primary),
                      net::make_message<core::MsgReplicaFenceAck>(
                          msg.primary, msg.epoch, mss_.id()),
                      sim::EventPriority::kLow);
}

void Replicator::handle_membership_event(const core::MsgMembershipEvent& msg) {
  switch (msg.kind) {
    case core::MembershipEventKind::kAlive: {
      // The suspect answered its probe: a still-silent shadow of it is not
      // promotable (it restarted empty, or its heartbeats are being dropped
      // and the resync path will rebuild the shadow) — drop it so the lease
      // timer can retire.
      suspected_.erase(msg.subject);
      auto it = shadows_.find(msg.subject);
      if (it != shadows_.end() &&
          runtime_.simulator.now() - it->second.last_heard >=
              config_.lease_timeout) {
        count("repl.shadows_dropped_stale");
        syncing_.erase(msg.subject);
        shadows_.erase(it);
      }
      return;
    }
    case core::MembershipEventKind::kSuspect:
      return;  // informational (the wire analyzer correlates it)
    case core::MembershipEventKind::kDeparted:
    case core::MembershipEventKind::kRejoined:
      suspected_.erase(msg.subject);
      // Ring repaired: if this primary's own chain changed, re-replicate to
      // it.  A rejoin of *this* Mss re-ships even when the recomputed chain
      // matches the frozen one — the members discarded our shadows while we
      // were out.
      reship_chain(/*force=*/msg.kind == core::MembershipEventKind::kRejoined &&
                   msg.subject == mss_.id());
      return;
  }
}

void Replicator::handle_probe(const net::Envelope& envelope) {
  count("repl.probes_answered");
  runtime_.wired.send(mss_.address(), envelope.src,
                      net::make_message<core::MsgMembershipReport>(
                          mss_.id(), mss_.id(),
                          core::MembershipReportKind::kAlive),
                      sim::EventPriority::kLow);
}

void Replicator::touch_lease(common::MssId primary) {
  if (!runtime_.directory.mss_up(primary)) return;
  suspected_.erase(primary);
  auto it = shadows_.find(primary);
  if (it == shadows_.end()) return;
  it->second.last_heard = runtime_.simulator.now();
}

void Replicator::arm_lease_check() {
  if (lease_timer_.pending()) return;
  if (shadows_.empty()) return;
  lease_timer_ = runtime_.simulator.schedule(
      config_.heartbeat_interval, [this] { run_lease_check(); },
      sim::EventPriority::kLow);
}

void Replicator::run_lease_check() {
  RDP_PROF_SCOPE(kReplication);
  if (mss_.crashed()) return;
  std::vector<common::MssId> expired;
  const common::SimTime now = runtime_.simulator.now();
  for (auto it = shadows_.begin(); it != shadows_.end();) {
    auto& [primary, shadow] = *it;
    const std::vector<common::MssId>& chain = chain_of(primary);
    if (std::find(chain.begin(), chain.end(), mss_.id()) == chain.end()) {
      // Ring repair moved this backup role elsewhere.
      count("repl.shadows_dropped_reassigned");
      syncing_.erase(primary);
      it = shadows_.erase(it);
      continue;
    }
    const common::Duration silence = now - shadow.last_heard;
    if (silence < config_.lease_timeout) {
      ++it;
      continue;
    }
    if (runtime_.directory.mss_live(primary)) {
      // Silent but (per the directory) alive: either its heartbeats are
      // being dropped by wired fault injection, it restarted empty, or we
      // are on the wrong side of a partition.  Promotion would split the
      // brain — report the suspect and let the membership service probe it:
      // a kAlive event drops this shadow, a departure makes it promotable.
      const common::NodeAddress service =
          runtime_.directory.membership_service();
      if (service.valid()) {
        if (!suspected_.contains(primary)) {
          suspected_.insert(primary);
          count("repl.suspects_reported");
        }
        // Re-sent every pass while still silent: the service dedupes by
        // outstanding probe, and re-sending rides out dropped reports.
        runtime_.wired.send(mss_.address(), service,
                            net::make_message<core::MsgMembershipReport>(
                                mss_.id(), primary,
                                core::MembershipReportKind::kSuspect),
                            sim::EventPriority::kLow);
        ++it;
        continue;
      }
      // No membership service in this world: fall back to dropping the
      // unpromotable shadow so the lease timer can retire.
      count("repl.shadows_dropped_stale");
      it = shadows_.erase(it);
      continue;
    }
    // The primary is down or departed: promotion, in deterministic chain
    // order.  The owner is the first live member; later members hold on for
    // one give-up window in case their predecessors die too, then retire
    // the shadow (the Mh watchdog backstops from there).
    if (first_live_member(chain) == mss_.id() &&
        !syncing_.contains(primary)) {
      expired.push_back(primary);
      ++it;
      continue;
    }
    if (silence >= config_.lease_timeout + config_.resolve_timeout) {
      count(syncing_.contains(primary) ? "repl.shadows_dropped_unsynced"
                                       : "repl.shadows_dropped_not_owner");
      syncing_.erase(primary);
      it = shadows_.erase(it);
      continue;
    }
    ++it;
  }
  for (common::MssId primary : expired) promote(primary);
  arm_lease_check();
}

void Replicator::promote(common::MssId primary) {
  auto it = shadows_.find(primary);
  if (it == shadows_.end()) return;
  // Promotion safety (auditor R7): never promote a live primary, never
  // promote ahead of an open fence bracket, and only the first live chain
  // member — a pure function of directory state, so concurrent chain
  // members always elect the same owner.
  if (runtime_.directory.mss_live(primary)) return;
  if (syncing_.contains(primary)) {
    count("repl.promotions_blocked_syncing");
    return;
  }
  if (first_live_member(chain_of(primary)) != mss_.id()) {
    count("repl.promotions_not_owner");
    return;
  }
  const common::NodeAddress primary_addr =
      runtime_.directory.mss_address(primary);
  Shadow shadow = std::move(it->second);
  shadows_.erase(it);
  Promoted& aliases = promoted_[primary];

  // Adopt in proxy-id order: deterministic, and matches the restore order
  // of the checkpoint path so the two recovery flavours are comparable.
  std::size_t adopted = 0;
  for (const auto& [old_id, record] : shadow.records) {
    core::Proxy& proxy = mss_.adopt_proxy(record);
    aliases.by_old_proxy[old_id] = proxy.id();
    aliases.by_mh[record.mh] = {old_id, proxy.id()};
    adopted_watch_[proxy.id()] =
        AdoptedWatch{record.mh, runtime_.simulator.now()};
    ++adopted;
    if (record.current_loc == primary_addr) {
      // The Mh's respMss *was* the dead primary: no live Mss holds its
      // pref.  The Mh's next greet (against a live cell) collapses into a
      // join plus a transfer-resume that finds the adopted proxy here.
      count("repl.repairs_deferred");
      continue;
    }
    count("repl.repairs_sent");
    runtime_.wired.send(mss_.address(), record.current_loc,
                        net::make_message<core::MsgPrefRepair>(
                            record.mh, primary_addr, old_id, mss_.address(),
                            proxy.id()));
  }
  ++promotions_;
  count("repl.promotions");
  runtime_.observer.on_event({.kind = core::Hook::kBackupPromoted,
                              .at = runtime_.simulator.now(),
                              .id_a = primary.value(),
                              .id_b = mss_.id().value(),
                              .count_a = adopted});
  arm_resolve_check();
}

void Replicator::arm_resolve_check() {
  if (resolve_timer_.pending()) return;
  if (adopted_watch_.empty()) return;
  resolve_timer_ = runtime_.simulator.schedule(
      config_.lease_timeout, [this] { run_resolve_check(); },
      sim::EventPriority::kLow);
}

void Replicator::run_resolve_check() {
  if (mss_.crashed()) return;
  const common::SimTime now = runtime_.simulator.now();
  for (auto it = adopted_watch_.begin(); it != adopted_watch_.end();) {
    const core::Proxy* proxy = mss_.proxy(it->first);
    if (proxy == nullptr) {
      // Normal teardown (handshake) or a repair Nack already won.
      it = adopted_watch_.erase(it);
      continue;
    }
    if (now - it->second.adopted_at < config_.resolve_timeout) {
      ++it;
      continue;
    }
    // Any contact after adoption — the update_currentLoc a successful
    // repair triggers, a requeried server result, an Ack — shows the world
    // found the adopted incarnation; the ordinary life-cycle owns its
    // teardown as long as it still has work to finish.  (adopt_proxy's own
    // requery does not touch the proxy, so a never-contacted adoption
    // keeps last_activity == adopted_at.)  A resolved-but-idle adoption
    // has nothing left to drive its deletion handshake (the record was
    // mid-teardown when the primary died), so it is reclaimed like an
    // unresolved one; a later request from the Mh heals the pref through
    // the ordinary proxy-gone path.
    const bool resolved = proxy->last_activity() > it->second.adopted_at;
    if (resolved && !proxy->idle()) {
      it = adopted_watch_.erase(it);
      continue;
    }
    count(resolved ? "repl.adoptions_idle_reclaimed"
                   : "repl.adoptions_reclaimed");
    forget_aliases(it->first);
    mss_.drop_adopted_proxy(it->first);
    it = adopted_watch_.erase(it);
  }
  arm_resolve_check();
}

void Replicator::forget_aliases(common::ProxyId adopted) {
  for (auto pit = promoted_.begin(); pit != promoted_.end();) {
    Promoted& aliases = pit->second;
    for (auto it = aliases.by_old_proxy.begin();
         it != aliases.by_old_proxy.end();) {
      it = it->second == adopted ? aliases.by_old_proxy.erase(it)
                                 : std::next(it);
    }
    for (auto it = aliases.by_mh.begin(); it != aliases.by_mh.end();) {
      it = it->second.second == adopted ? aliases.by_mh.erase(it)
                                        : std::next(it);
    }
    pit = aliases.by_old_proxy.empty() && aliases.by_mh.empty()
              ? promoted_.erase(pit)
              : std::next(pit);
  }
}

void Replicator::handle_transfer_resume(const core::MsgTransferResume& msg,
                                        common::NodeAddress from) {
  const common::MssId primary = runtime_.directory.mss_at(msg.old_host);
  if (!primary.valid()) return;
  if (runtime_.directory.mss_live(primary)) {
    // The host already restarted (or was never declared departed); its own
    // recovery (checkpoint rebind or the Mh watchdog) owns the Mh now.
    count("repl.resumes_primary_up");
    return;
  }
  // The hand-off window race in person: a respMss holds a pref (or a fresh
  // registration) pointing into the dead primary.  Promote now instead of
  // waiting out the lease (promote() itself enforces chain order and the
  // fence, so a non-owner or mid-sync member answers from promoted_ state
  // only if an earlier promotion exists).
  promote(primary);
  auto pit = promoted_.find(primary);
  if (pit == promoted_.end()) {
    count("repl.resumes_unresolved");
    return;
  }
  common::ProxyId old_id = msg.old_proxy;
  common::ProxyId adopted = common::ProxyId::invalid();
  if (old_id.valid()) {
    if (auto ait = pit->second.by_old_proxy.find(old_id);
        ait != pit->second.by_old_proxy.end()) {
      adopted = ait->second;
    }
  } else if (auto ait = pit->second.by_mh.find(msg.mh);
             ait != pit->second.by_mh.end()) {
    old_id = ait->second.first;
    adopted = ait->second.second;
  }
  if (!adopted.valid() || mss_.proxy(adopted) == nullptr) {
    // No replicated record for this Mh (the proxy never shipped, already
    // completed, or the adoption lost a repair race); the Mh watchdog is
    // the remaining recovery path.
    count("repl.resumes_unresolved");
    return;
  }
  count("repl.resumes_answered");
  runtime_.wired.send(mss_.address(), from,
                      net::make_message<core::MsgPrefRepair>(
                          msg.mh, msg.old_host, old_id, mss_.address(),
                          adopted));
}

void Replicator::handle_resync_request(const core::MsgReplicaResync& msg) {
  const std::vector<common::MssId>& chain = chain_of(mss_.id());
  if (std::find(chain.begin(), chain.end(), msg.backup) == chain.end()) {
    return;
  }
  count("repl.resyncs_served");
  // Bulk snapshot: ship inline even in async mode — the backup starts from
  // nothing, so there is no coalescing to gain.  Chain forwarding routes
  // the records past the head to the requester wherever it sits.
  for (const core::ProxyCheckpoint& record : mss_.checkpoint_all()) {
    ship_update(record);
  }
}

bool Replicator::covers(common::ProxyId proxy) const {
  return config_.mode != Mode::kOff && shipped_live_.contains(proxy);
}

std::size_t Replicator::shadow_record_count() const {
  std::size_t n = 0;
  for (const auto& [primary, shadow] : shadows_) n += shadow.records.size();
  return n;
}

}  // namespace rdp::replication
