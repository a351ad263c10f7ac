#include "core/proxy.h"

#include <algorithm>
#include <tuple>

namespace rdp::core {

Proxy::Proxy(Runtime& runtime, ProxyHost& host, NodeAddress host_address,
             ProxyId id, MhId mh)
    : runtime_(runtime), host_(host), host_address_(host_address) {
  reopen(id, mh);
}

void Proxy::reopen(ProxyId id, MhId mh) {
  id_ = id;
  mh_ = mh;
  current_loc_ = host_address_;
  pending_.clear();
  unacked_.clear();
  last_activity_ = runtime_.simulator.now();
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
    auto it = request_position(request.request);
    if (it == pending_.end() || it->request != request.request) {
      it = pending_.emplace(it);
      it->request = request.request;
    }
    it->server = request.server;
    it->body = request.body;
    it->stream = request.stream;
    it->del_pref_announced = request.del_pref_announced;
    for (const ProxyCheckpoint::Result& result : request.unacked) {
      auto rit = result_position(request.request, result.seq);
      if (rit == unacked_.end() || rit->request != request.request ||
          rit->seq != result.seq) {
        rit = unacked_.emplace(rit);
        rit->request = request.request;
        rit->seq = result.seq;
      }
      rit->final = result.final;
      rit->body = result.body;
      rit->attempts = result.attempts;
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
  auto stored = unacked_.begin();
  for (const PendingRequest& entry : pending_) {
    ProxyCheckpoint::Request out;
    out.request = entry.request;
    out.server = entry.server;
    out.body = entry.body;
    out.stream = entry.stream;
    out.del_pref_announced = entry.del_pref_announced;
    for (; stored != unacked_.end() && stored->request == entry.request;
         ++stored) {
      out.unacked.push_back(ProxyCheckpoint::Result{
          stored->seq, stored->final, stored->body, stored->attempts});
    }
    record.requests.push_back(std::move(out));
  }
  return record;
}

Proxy::Requests::iterator Proxy::request_position(RequestId request) {
  return std::lower_bound(pending_.begin(), pending_.end(), request,
                          [](const PendingRequest& entry, RequestId key) {
                            return entry.request < key;
                          });
}

Proxy::Results::iterator Proxy::result_position(RequestId request,
                                                std::uint32_t seq) {
  return std::lower_bound(
      unacked_.begin(), unacked_.end(), std::make_tuple(request, seq),
      [](const StoredResult& stored,
         const std::tuple<RequestId, std::uint32_t>& key) {
        return std::tie(stored.request, stored.seq) < key;
      });
}

bool Proxy::has_unacked(RequestId request) {
  const auto it = result_position(request, 0);
  return it != unacked_.end() && it->request == request;
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

bool Proxy::compute_del_pref(const StoredResult& result) const {
  // del-pref == "this is the result of the proxy's last pending request"
  // (§3.3).  With stream requests a request can hold several results; the
  // flag is only safe on the final result once it is the sole result still
  // unacknowledged (otherwise an Ack for an earlier result could complete
  // the del-proxy handshake prematurely).  With one request pending, every
  // unacknowledged result is that request's, and `result` is one of them.
  return pending_.size() == 1 && result.final && unacked_.size() == 1;
}

void Proxy::handle_request(RequestId request, NodeAddress server,
                           std::string body, bool stream) {
  touch();
  auto it = request_position(request);
  if (it != pending_.end() && it->request == request) {
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
    if (runtime_.config.mh_reissue && !it->stream && !has_unacked(request)) {
      runtime_.counters.increment("proxy.server_requeries");
      runtime_.wired.send(host_address_, it->server,
                          net::make_message<MsgServerRequest>(
                              host_address_, id_, request, std::move(body),
                              stream));
    }
    return;
  }
  it = pending_.insert(it, PendingRequest{.request = request,
                                          .server = server,
                                          .body = body,
                                          .stream = stream});

  // A new request means the previously announced del-pref (if any) no
  // longer marks "the last pending request": the proxy will have to
  // re-announce once the request list shrinks back to one.
  for (PendingRequest& entry : pending_) entry.del_pref_announced = false;

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
  for (const PendingRequest& entry : pending_) {
    // Stream subscriptions are excluded for the same reason as the
    // re-issue re-query: re-subscribing would reset the server's sequence
    // numbers and alias future notifications.
    if (entry.stream || has_unacked(entry.request)) continue;
    runtime_.counters.increment("proxy.server_requeries");
    runtime_.wired.send(host_address_, entry.server,
                        net::make_message<MsgServerRequest>(
                            host_address_, id_, entry.request, entry.body,
                            entry.stream));
  }
}

void Proxy::handle_unsubscribe(RequestId request) {
  touch();
  const auto it = request_position(request);
  if (it == pending_.end() || it->request != request) return;  // completed
  runtime_.wired.send(host_address_, it->server,
                      net::make_message<MsgServerUnsubscribe>(id_, request));
}

void Proxy::handle_server_result(const MsgServerResult& msg) {
  touch();
  const auto it = request_position(msg.request);
  if (it == pending_.end() || it->request != msg.request) {
    // Late result for a request that already completed (e.g. a stream
    // result racing the unsubscribe confirmation).  Nothing is pending, so
    // nothing to deliver.
    return;
  }
  auto rit = result_position(msg.request, msg.result_seq);
  if (rit != unacked_.end() && rit->request == msg.request &&
      rit->seq == msg.result_seq) {
    return;  // duplicate result from the server
  }
  StoredResult& stored = *unacked_.insert(
      rit, StoredResult{.request = msg.request,
                        .seq = msg.result_seq,
                        .final = msg.final,
                        .body = msg.body});

  runtime_.observer.on_event({.kind = Hook::kResultAtProxy,
                              .at = runtime_.simulator.now(),
                              .mh = mh_,
                              .request = msg.request,
                              .seq = msg.result_seq});
  const bool del_pref = compute_del_pref(stored);
  if (del_pref) it->del_pref_announced = true;
  forward_result(stored, del_pref);
}

void Proxy::forward_result(StoredResult& result, bool del_pref) {
  ++result.attempts;
  runtime_.observer.on_event({.kind = Hook::kResultForwarded,
                              .at = runtime_.simulator.now(),
                              .mh = mh_,
                              .request = result.request,
                              .id_a = current_loc_.value(),
                              .seq = result.seq,
                              .attempt = result.attempts,
                              .flag_a = del_pref});
  send_to_mss(current_loc_,
              net::make_message<MsgResultForward>(
                  mh_, host_address_, id_, result.request, result.seq,
                  result.final, del_pref, result.body, result.attempts));
}

void Proxy::handle_update_currentloc(NodeAddress new_loc) {
  touch();
  current_loc_ = new_loc;
  // "any non-acknowledged results from pending requests [are] re-sent to
  // the new location" (§3.1), request by request and seq by seq.
  for (StoredResult& stored : unacked_) {
    const bool del_pref = compute_del_pref(stored);
    // The only pending request, when del_pref is set.
    if (del_pref) pending_.front().del_pref_announced = true;
    forward_result(stored, del_pref);
  }
  // If the single pending request's results were all acknowledged except
  // for bookkeeping (no unacked results), there is nothing to re-send; the
  // standalone del-pref case is handled on the Ack path.
}

void Proxy::maybe_send_standalone_del_pref() {
  if (pending_.size() != 1) return;
  PendingRequest& entry = pending_.front();
  if (entry.del_pref_announced) return;
  // Fig 4: the remaining request's final result has already been forwarded
  // (with del-pref == false, because other requests were pending at the
  // time), so only the flag — not the payload — needs to travel now.
  if (unacked_.size() != 1) return;
  const StoredResult& stored = unacked_.front();
  if (stored.final && stored.attempts > 0) {
    entry.del_pref_announced = true;
    send_to_mss(current_loc_,
                net::make_message<MsgDelPref>(mh_, host_address_, id_,
                                              entry.request, stored.seq));
  }
}

bool Proxy::handle_ack(const MsgAckForward& msg) {
  touch();
  const auto it = request_position(msg.request);
  if (it != pending_.end() && it->request == msg.request) {
    const auto rit = result_position(msg.request, msg.result_seq);
    if (rit != unacked_.end() && rit->request == msg.request &&
        rit->seq == msg.result_seq) {
      const bool was_final = rit->final;
      unacked_.erase(rit);
      if (was_final) {
        // The request is complete: remove it from the requestList (§3.1),
        // with any earlier stream results it still holds.
        if (runtime_.config.ack_servers) {
          runtime_.wired.send(host_address_, it->server,
                              net::make_message<MsgServerAck>(msg.request));
        }
        pending_.erase(it);
        const auto first = result_position(msg.request, 0);
        auto last = first;
        while (last != unacked_.end() && last->request == msg.request) ++last;
        unacked_.erase(first, last);
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
