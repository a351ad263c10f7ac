#include "core/proxy.h"

namespace rdp::core {

Proxy::Proxy(Runtime& runtime, ProxyHost& host, NodeAddress host_address,
             ProxyId id, MhId mh)
    : runtime_(runtime),
      host_(host),
      host_address_(host_address),
      id_(id),
      mh_(mh),
      current_loc_(host_address),
      last_activity_(runtime.simulator.now()) {
  runtime_.observer.on_event({.kind = Hook::kProxyCreated,
                              .at = runtime_.simulator.now(),
                              .mh = mh_,
                              .id_a = host_address_.value(),
                              .id_b = id_.value()});
}

Proxy::Proxy(Runtime& runtime, ProxyHost& host, NodeAddress host_address,
             const ProxyCheckpoint& record)
    : runtime_(runtime),
      host_(host),
      host_address_(host_address),
      id_(record.proxy),
      mh_(record.mh),
      current_loc_(record.current_loc),
      last_activity_(runtime.simulator.now()) {
  for (const ProxyCheckpoint::Request& request : record.requests) {
    PendingRequest& entry = pending_[request.request];
    entry.server = request.server;
    entry.body = request.body;
    entry.stream = request.stream;
    entry.del_pref_announced = request.del_pref_announced;
    for (const ProxyCheckpoint::Result& result : request.unacked) {
      StoredResult& stored = entry.unacked[result.seq];
      stored.seq = result.seq;
      stored.final = result.final;
      stored.body = result.body;
      stored.attempts = result.attempts;
    }
  }
  runtime_.observer.on_event({.kind = Hook::kProxyRestored,
                              .at = runtime_.simulator.now(),
                              .mh = mh_,
                              .id_a = host_address_.value(),
                              .id_b = id_.value()});
}

ProxyCheckpoint Proxy::checkpoint() const {
  ProxyCheckpoint record;
  record.proxy = id_;
  record.mh = mh_;
  record.current_loc = current_loc_;
  record.requests.reserve(pending_.size());
  for (const auto& [request, entry] : pending_) {
    ProxyCheckpoint::Request out;
    out.request = request;
    out.server = entry.server;
    out.body = entry.body;
    out.stream = entry.stream;
    out.del_pref_announced = entry.del_pref_announced;
    out.unacked.reserve(entry.unacked.size());
    for (const auto& [seq, stored] : entry.unacked) {
      out.unacked.push_back(ProxyCheckpoint::Result{
          stored.seq, stored.final, stored.body, stored.attempts});
    }
    record.requests.push_back(std::move(out));
  }
  return record;
}

void Proxy::send_to_mss(NodeAddress mss, net::PayloadPtr payload,
                        sim::EventPriority priority) {
  if (mss == host_address_) {
    // Co-located with the respMss: hand over without a wire message.
    host_.deliver_local_from_proxy(payload);
    return;
  }
  runtime_.wired.send(host_address_, mss, std::move(payload), priority);
}

bool Proxy::compute_del_pref(const PendingRequest& entry,
                             const StoredResult& result) const {
  // del-pref == "this is the result of the proxy's last pending request"
  // (§3.3).  With stream requests a request can hold several results; the
  // flag is only safe on the final result once it is the sole result still
  // unacknowledged (otherwise an Ack for an earlier result could complete
  // the del-proxy handshake prematurely).
  return pending_.size() == 1 && result.final && entry.unacked.size() == 1 &&
         entry.unacked.begin()->second.seq == result.seq;
}

void Proxy::handle_request(RequestId request, NodeAddress server,
                           std::string body, bool stream) {
  touch();
  auto [it, inserted] = pending_.try_emplace(request);
  if (!inserted) {
    // Duplicate forward (client-side retry or the Mh re-issue watchdog);
    // the request is already registered.  If no result has been stored yet
    // the original server query — or its reply — may have been lost to a
    // fault (the proxy's host crashed mid-service, or the wired path was
    // degraded), so ask the server again; duplicate results are absorbed
    // above and at the Mh, keeping delivery exactly-once for the app.
    // Stream subscriptions are excluded: re-subscribing would reset the
    // server's sequence numbers and alias future notifications.  Only the
    // re-issue extension opts into the re-query — with it off, duplicates
    // are pure client retries and stay fully absorbed (idempotent).
    if (runtime_.config.mh_reissue && !it->second.stream &&
        it->second.unacked.empty()) {
      runtime_.counters.increment("proxy.server_requeries");
      runtime_.wired.send(host_address_, it->second.server,
                          net::make_message<MsgServerRequest>(
                              host_address_, id_, request, std::move(body),
                              stream));
    }
    return;
  }
  it->second.server = server;
  it->second.body = body;
  it->second.stream = stream;

  // A new request means the previously announced del-pref (if any) no
  // longer marks "the last pending request": the proxy will have to
  // re-announce once the request list shrinks back to one.
  for (auto& [id, entry] : pending_) entry.del_pref_announced = false;

  runtime_.observer.on_event({.kind = Hook::kRequestReachedProxy,
                              .at = runtime_.simulator.now(),
                              .mh = mh_,
                              .request = request,
                              .id_a = host_address_.value()});
  runtime_.wired.send(host_address_, server,
                      net::make_message<MsgServerRequest>(
                          host_address_, id_, request, std::move(body),
                          stream));
}

void Proxy::requery_servers() {
  for (auto& [request, entry] : pending_) {
    // Stream subscriptions are excluded for the same reason as the
    // re-issue re-query: re-subscribing would reset the server's sequence
    // numbers and alias future notifications.
    if (entry.stream || !entry.unacked.empty()) continue;
    runtime_.counters.increment("proxy.server_requeries");
    runtime_.wired.send(host_address_, entry.server,
                        net::make_message<MsgServerRequest>(
                            host_address_, id_, request, entry.body,
                            entry.stream));
  }
}

void Proxy::handle_unsubscribe(RequestId request) {
  touch();
  auto it = pending_.find(request);
  if (it == pending_.end()) return;  // already completed
  runtime_.wired.send(host_address_, it->second.server,
                      net::make_message<MsgServerUnsubscribe>(id_, request));
}

void Proxy::handle_server_result(const MsgServerResult& msg) {
  touch();
  auto it = pending_.find(msg.request);
  if (it == pending_.end()) {
    // Late result for a request that already completed (e.g. a stream
    // result racing the unsubscribe confirmation).  Nothing is pending, so
    // nothing to deliver.
    return;
  }
  PendingRequest& entry = it->second;
  auto [rit, inserted] = entry.unacked.try_emplace(msg.result_seq);
  if (!inserted) return;  // duplicate result from the server
  StoredResult& stored = rit->second;
  stored.seq = msg.result_seq;
  stored.final = msg.final;
  stored.body = msg.body;

  runtime_.observer.on_event({.kind = Hook::kResultAtProxy,
                              .at = runtime_.simulator.now(),
                              .mh = mh_,
                              .request = msg.request,
                              .seq = msg.result_seq});
  const bool del_pref = compute_del_pref(entry, stored);
  if (del_pref) entry.del_pref_announced = true;
  forward_result(msg.request, stored, del_pref);
}

void Proxy::forward_result(RequestId request, StoredResult& result,
                           bool del_pref) {
  ++result.attempts;
  runtime_.observer.on_event({.kind = Hook::kResultForwarded,
                              .at = runtime_.simulator.now(),
                              .mh = mh_,
                              .request = request,
                              .id_a = current_loc_.value(),
                              .seq = result.seq,
                              .attempt = result.attempts,
                              .flag_a = del_pref});
  send_to_mss(current_loc_,
              net::make_message<MsgResultForward>(
                  mh_, host_address_, id_, request, result.seq, result.final,
                  del_pref, result.body, result.attempts));
}

void Proxy::handle_update_currentloc(NodeAddress new_loc) {
  touch();
  current_loc_ = new_loc;
  // "any non-acknowledged results from pending requests [are] re-sent to
  // the new location" (§3.1).
  for (auto& [request, entry] : pending_) {
    for (auto& [seq, stored] : entry.unacked) {
      const bool del_pref = compute_del_pref(entry, stored);
      if (del_pref) entry.del_pref_announced = true;
      forward_result(request, stored, del_pref);
    }
  }
  // If the single pending request's results were all acknowledged except
  // for bookkeeping (no unacked results), there is nothing to re-send; the
  // standalone del-pref case is handled on the Ack path.
}

void Proxy::maybe_send_standalone_del_pref() {
  if (pending_.size() != 1) return;
  auto& [request, entry] = *pending_.begin();
  if (entry.del_pref_announced) return;
  // Fig 4: the remaining request's final result has already been forwarded
  // (with del-pref == false, because other requests were pending at the
  // time), so only the flag — not the payload — needs to travel now.
  if (entry.unacked.size() != 1) return;
  const StoredResult& stored = entry.unacked.begin()->second;
  if (stored.final && stored.attempts > 0) {
    entry.del_pref_announced = true;
    send_to_mss(current_loc_,
                net::make_message<MsgDelPref>(mh_, host_address_, id_,
                                              request, stored.seq));
  }
}

bool Proxy::handle_ack(const MsgAckForward& msg) {
  touch();
  auto it = pending_.find(msg.request);
  if (it != pending_.end()) {
    PendingRequest& entry = it->second;
    auto rit = entry.unacked.find(msg.result_seq);
    if (rit != entry.unacked.end()) {
      const bool was_final = rit->second.final;
      entry.unacked.erase(rit);
      if (was_final) {
        // The request is complete: remove it from the requestList (§3.1).
        if (runtime_.config.ack_servers) {
          runtime_.wired.send(host_address_, entry.server,
                              net::make_message<MsgServerAck>(msg.request));
        }
        pending_.erase(it);
        runtime_.observer.on_event({.kind = Hook::kRequestCompleted,
                                    .at = runtime_.simulator.now(),
                                    .mh = mh_,
                                    .request = msg.request});
      }
      // Either a request just completed (another one may now be the single
      // pending request) or an earlier stream result was acknowledged
      // (the final may now be the sole unacked result): both can enable
      // the standalone del-pref of Fig 4.
      maybe_send_standalone_del_pref();
    }
  }

  if (msg.del_proxy) {
    if (!pending_.empty()) {
      // Stale-del-pref revisit race (DESIGN.md §5.4): the respMss honoured
      // an outdated del-pref and already erased the pref.  Deleting now
      // would lose pending requests; refuse, count the anomaly, and ask
      // the respMss to re-install the pref so delivery can continue.
      runtime_.observer.on_event({.kind = Hook::kDelproxyWithPending,
                                  .at = runtime_.simulator.now(),
                                  .mh = mh_,
                                  .id_a = id_.value()});
      send_to_mss(current_loc_,
                  net::make_message<MsgPrefRestore>(mh_, host_address_, id_),
                  sim::EventPriority::kAck);
      return false;
    }
    return true;  // host deletes the proxy
  }
  return false;
}

}  // namespace rdp::core
