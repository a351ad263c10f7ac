// The proxy for requests (§3.1, §3.3) — the paper's central object.
//
// "The main purpose of the proxy is to provide a fixed location for the
// reception of server replies, to keep track of pending requests, store the
// request's results, and to forward the results to the Mss responsible for
// the cell in which the Mh is currently located."
//
// A proxy is hosted inside an Mss (its *fixed* location for its whole
// life), holds the `currentLoc` variable and the `requestList`, retransmits
// unacknowledged results on every update_currentLoc, and participates in
// the del-pref / RKpR / del-proxy deletion handshake.
//
// The requestList and the unacknowledged results are two sorted vectors
// (requests by RequestId, results by (RequestId, seq)); they keep their
// storage when entries leave, and reopen() hands a deleted proxy's storage
// to the next proxy its host creates, so a proxy's steady-state life
// allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/messages.h"
#include "core/runtime.h"

namespace rdp::core {

// Host-side interface the proxy uses to hand a message to its own Mss
// without a network round-trip when currentLoc == host (the proxy and the
// respMss are co-located until the Mh first migrates).
class ProxyHost {
 public:
  virtual ~ProxyHost() = default;
  virtual void deliver_local_from_proxy(const net::PayloadPtr& payload) = 0;
};

class Proxy {
 public:
  Proxy(Runtime& runtime, ProxyHost& host, NodeAddress host_address,
        ProxyId id, MhId mh);

  // Re-create a proxy from a durable checkpoint after its host restarted
  // (fault-tolerance extension).  Emits on_proxy_restored, not _created.
  Proxy(Runtime& runtime, ProxyHost& host, NodeAddress host_address,
        const ProxyCheckpoint& record);

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  // Start over as the new proxy `id` for `mh` at the same host, as if just
  // constructed (emits on_proxy_created); the host calls this on a deleted
  // proxy object to reuse its storage.
  void reopen(ProxyId id, MhId mh);

  [[nodiscard]] ProxyId id() const { return id_; }
  [[nodiscard]] MhId mh() const { return mh_; }
  [[nodiscard]] NodeAddress current_loc() const { return current_loc_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] bool idle() const { return pending_.empty(); }
  [[nodiscard]] common::SimTime last_activity() const { return last_activity_; }
  // Ids of the pending requests (for abandoned-proxy loss reporting).
  [[nodiscard]] std::vector<RequestId> pending_requests() const {
    std::vector<RequestId> out;
    out.reserve(pending_.size());
    for (const PendingRequest& entry : pending_) out.push_back(entry.request);
    return out;
  }

  // A new request from the Mh, relayed by its respMss.  Registers the
  // request as pending and forwards it to the server.
  void handle_request(RequestId request, NodeAddress server, std::string body,
                      bool stream);

  // Relay an unsubscribe for a stream request to its server.
  void handle_unsubscribe(RequestId request);

  // A result arriving from a server: store it and forward to currentLoc.
  void handle_server_result(const MsgServerResult& msg);

  // New Mh location (§3.1): "the arrival of the update_currentLoc message
  // causes the variable currentLoc to be updated and any non-acknowledged
  // results from pending requests to be re-sent to the new location."
  void handle_update_currentloc(NodeAddress new_loc);

  // An Ack forwarded by the respMss.  Returns true when the proxy must be
  // deleted by its host (del-proxy handshake completed, §3.3).
  [[nodiscard]] bool handle_ack(const MsgAckForward& msg);

  // Snapshot of the complete mutable state, for the checkpoint store.
  [[nodiscard]] ProxyCheckpoint checkpoint() const;

  // Re-send the server query for every pending oneshot request that holds
  // no stored result yet.  A backup calls this right after adopting the
  // proxy: the original query (or its reply) may have died with the
  // primary, and unlike the re-issue path there is no duplicate forward to
  // trigger the re-query.  Duplicate results are absorbed here and at the
  // Mh, so delivery stays exactly-once for the application.
  void requery_servers();

 private:
  // A result received from the server and not yet acknowledged.
  struct StoredResult {
    RequestId request;
    std::uint32_t seq = 0;
    bool final = false;
    std::string body;
    std::uint32_t attempts = 0;  // forward attempts so far
  };
  struct PendingRequest {
    RequestId request;
    NodeAddress server;
    // Original request body, kept so a restored/adopted incarnation can
    // re-drive the server query when the reply died with the old host.
    std::string body;
    bool stream = false;
    // Set once the proxy announced del-pref for this request (either
    // piggy-backed on a result forward or as a standalone MsgDelPref).
    bool del_pref_announced = false;
  };
  using Requests = std::vector<PendingRequest>;
  using Results = std::vector<StoredResult>;

  // First request in pending_ not below `request`.
  [[nodiscard]] Requests::iterator request_position(RequestId request);
  // First result in unacked_ not below (request, seq).
  [[nodiscard]] Results::iterator result_position(RequestId request,
                                                  std::uint32_t seq);
  // Whether `request` holds any unacknowledged result.
  [[nodiscard]] bool has_unacked(RequestId request);

  void touch() { last_activity_ = runtime_.simulator.now(); }
  void send_to_mss(NodeAddress mss, net::PayloadPtr payload,
                   sim::EventPriority priority = sim::EventPriority::kNormal);
  void forward_result(StoredResult& result, bool del_pref);

  // §3.4 / Fig 4: if exactly one request remains pending and its final
  // result has already been forwarded (so the natural piggy-back carried
  // del-pref == false), announce del-pref with a standalone message.
  void maybe_send_standalone_del_pref();

  // del_pref value for forwarding `result` right now (§3.3): true iff this
  // is the final result of the only pending request.
  [[nodiscard]] bool compute_del_pref(const StoredResult& result) const;

  Runtime& runtime_;
  ProxyHost& host_;
  const NodeAddress host_address_;
  ProxyId id_;
  MhId mh_;
  NodeAddress current_loc_;
  Requests pending_;  // the paper's requestList, by RequestId
  // Every pending request's unacknowledged results, by (RequestId, seq);
  // only pending requests hold any.
  Results unacked_;
  common::SimTime last_activity_;
};

}  // namespace rdp::core
