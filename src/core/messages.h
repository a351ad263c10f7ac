// The complete message vocabulary of the Result Delivery Protocol
// (Sections 2-3 of the paper), plus the registration-ack and proxy-gone
// messages this implementation adds (documented in DESIGN.md).
//
// Naming follows the paper: greet/dereg/deregAck (hand-off, §3.2),
// update_currentLoc (§3.1), result forwarding with the del-pref flag and
// Ack forwarding with the del-proxy flag (§3.3).
//
// Each message's fields() is its wire layout, declared once: its encoded
// members in wire order, which is also member order and constructor order.
// core/codec.cc walks it to encode and decode the message, and
// net::Message walks it for wire_size(); adding a message takes its struct,
// its fields() and one row in the codec's tag table.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "common/ids.h"
#include "core/checkpoint.h"
#include "net/message.h"

namespace rdp::core {

using common::CellId;
using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::ProxyId;
using common::RequestId;

// The proxy reference (pref, §3.1): "contains a reference (i.e. address of
// the Mss and a proxyId) to the current proxy associated with the Mh ...
// when a Mh does not have a proxy, pref holds a null address.  A pref also
// contains a flag called Ready-to-Kill-pref (RKpR)."
//
// `rkpr_request` records which request the del-pref announcement was for;
// tracking it closes a duplicate-Ack race in the paper's formulation (see
// DESIGN.md §5.4 and the kRkprTracksRequest ablation).
struct Pref {
  NodeAddress proxy_host;  // invalid() == null pref
  ProxyId proxy;
  bool rkpr = false;
  RequestId rkpr_request;
  std::uint32_t rkpr_seq = 0;

  [[nodiscard]] bool has_proxy() const { return proxy_host.valid(); }

  void clear() {
    proxy_host = NodeAddress::invalid();
    proxy = ProxyId::invalid();
    clear_rkpr();
  }

  void clear_rkpr() {
    rkpr = false;
    rkpr_request = RequestId{};
    rkpr_seq = 0;
  }

  [[nodiscard]] auto fields() const {
    return std::tie(proxy_host, proxy, rkpr, rkpr_request, rkpr_seq);
  }
};

// ---------------------------------------------------------------------------
// Wireless uplink: mobile host -> Mss of its current cell.
// ---------------------------------------------------------------------------

// First contact with the system (§2): "In order to join the system, a Mh
// sends a join message to the Mss in charge for the cell it is currently
// in."
struct MsgJoin final : net::Message<MsgJoin> {
  [[nodiscard]] auto fields() const { return std::tie(); }
  [[nodiscard]] const char* name() const override { return "join"; }
};

// Departure (§2): only legal once every received message was acknowledged
// (assumption 6).
struct MsgLeave final : net::Message<MsgLeave> {
  [[nodiscard]] auto fields() const { return std::tie(); }
  [[nodiscard]] const char* name() const override { return "leave"; }
};

// Cell entry / re-activation (§2): "Whenever a Mh enters a new cell it
// sends a greet(oldMss) message to the Mss responsible for the target
// cell."  `old_mss` is the Mss the Mh last completed a registration with;
// old_mss == receiving Mss means re-activation, no hand-off.
struct MsgGreet final : net::Message<MsgGreet> {
  MssId old_mss;

  explicit MsgGreet(MssId old_mss_in) : old_mss(old_mss_in) {}
  [[nodiscard]] auto fields() const { return std::tie(old_mss); }
  [[nodiscard]] const char* name() const override { return "greet"; }
  [[nodiscard]] std::string describe() const override {
    return "greet(old=" + old_mss.str() + ")";
  }
};

// A new service request (§3.1).  `stream` marks a subscription: the server
// may reply with many results; the request stays pending until a result
// with `final` set is acknowledged.
struct MsgUplinkRequest final : net::Message<MsgUplinkRequest> {
  RequestId request;
  NodeAddress server;
  std::string body;
  bool stream = false;

  MsgUplinkRequest(RequestId request_in, NodeAddress server_in,
                   std::string body_in, bool stream_in)
      : request(request_in),
        server(server_in),
        body(std::move(body_in)),
        stream(stream_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(request, server, body, stream);
  }
  [[nodiscard]] const char* name() const override { return "request"; }
  [[nodiscard]] std::string describe() const override {
    return "request(" + request.str() + (stream ? ",stream)" : ")");
  }
};

// Terminates a stream request; routed through the proxy to the server.
struct MsgUnsubscribe final : net::Message<MsgUnsubscribe> {
  RequestId request;

  explicit MsgUnsubscribe(RequestId request_in) : request(request_in) {}
  [[nodiscard]] auto fields() const { return std::tie(request); }
  [[nodiscard]] const char* name() const override { return "unsubscribe"; }
};

// Acknowledgement of a delivered result (§3.1): forwarded by the respMss
// to the proxy; handled with the highest priority.
struct MsgUplinkAck final : net::Message<MsgUplinkAck> {
  RequestId request;
  std::uint32_t result_seq;

  MsgUplinkAck(RequestId request_in, std::uint32_t result_seq_in)
      : request(request_in), result_seq(result_seq_in) {}
  [[nodiscard]] auto fields() const { return std::tie(request, result_seq); }
  [[nodiscard]] const char* name() const override { return "ack"; }
  [[nodiscard]] std::string describe() const override {
    return "ack(" + request.str() + "#" + std::to_string(result_seq) + ")";
  }
};

// ---------------------------------------------------------------------------
// Wireless downlink: Mss -> mobile host.
// ---------------------------------------------------------------------------

// Confirms join/greet processing (and hand-off completion).  The paper
// leaves registration confirmation implicit; an explicit ack is required
// once the wireless channel can lose frames (DESIGN.md §5).
struct MsgRegistrationAck final : net::Message<MsgRegistrationAck> {
  MssId mss;

  explicit MsgRegistrationAck(MssId mss_in) : mss(mss_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mss); }
  [[nodiscard]] const char* name() const override { return "registrationAck"; }
};

// A result delivered over the air.  `attempt` counts proxy forwards of this
// result (1 = first transmission), used by the retransmission experiments.
struct MsgDownlinkResult final : net::Message<MsgDownlinkResult> {
  RequestId request;
  std::uint32_t result_seq;
  bool final;
  std::string body;
  std::uint32_t attempt;

  MsgDownlinkResult(RequestId request_in, std::uint32_t result_seq_in,
                    bool final_in, std::string body_in,
                    std::uint32_t attempt_in)
      : request(request_in),
        result_seq(result_seq_in),
        final(final_in),
        body(std::move(body_in)),
        attempt(attempt_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(request, result_seq, final, body, attempt);
  }
  [[nodiscard]] const char* name() const override { return "result"; }
  [[nodiscard]] std::string describe() const override {
    return "result(" + request.str() + "#" + std::to_string(result_seq) +
           ",attempt=" + std::to_string(attempt) + ")";
  }
};

// ---------------------------------------------------------------------------
// Uplink ARQ (src/arq, PROTOCOL.md §11): per-Mh sliding-window reliability
// for the wireless uplink.  The paper defers request-frame loss to
// "QRPC-style" transport mechanisms (§4); these two frames are that
// transport.  Registration traffic (join/greet/leave) does NOT ride the
// channel — it has its own retry loop and must work before the channel
// opens.
// ---------------------------------------------------------------------------

// Mh -> respMss: one application uplink message under ARQ.  `epoch`
// identifies the channel incarnation (bumped on every re-registration, so a
// new respMss never confuses old sequence numbers); `seq` numbers frames
// within the epoch from 0; `attempt` counts transmissions of this frame
// (1 = first send).  The inner message is carried opaquely and re-encoded
// through the codec.
struct MsgArqData final : net::Message<MsgArqData> {
  std::uint32_t epoch;
  std::uint32_t seq;
  std::uint32_t attempt;
  net::PayloadPtr inner;

  MsgArqData(std::uint32_t epoch_in, std::uint32_t seq_in,
             std::uint32_t attempt_in, net::PayloadPtr inner_in)
      : epoch(epoch_in),
        seq(seq_in),
        attempt(attempt_in),
        inner(std::move(inner_in)) {}
  [[nodiscard]] auto fields() const {
    return std::tie(epoch, seq, attempt, inner);
  }
  [[nodiscard]] const char* name() const override { return "arqData"; }
  // Cost accounting and frame taps classify by the application message the
  // frame carries; the ARQ header is transport framing.
  [[nodiscard]] const MessageBase& unwrap() const override {
    return inner->unwrap();
  }
  [[nodiscard]] std::string describe() const override {
    return "arqData(e" + std::to_string(epoch) + "#" + std::to_string(seq) +
           ",attempt=" + std::to_string(attempt) + "," + inner->describe() +
           ")";
  }
};

// respMss -> Mh: cumulative + selective acknowledgement.  Everything below
// `cum_next` has been delivered in order; bit i of `sack` set means frame
// `cum_next + 1 + i` was received out of order and need not be resent.
struct MsgArqAck final : net::Message<MsgArqAck> {
  std::uint32_t epoch;
  std::uint32_t cum_next;
  std::uint64_t sack;

  MsgArqAck(std::uint32_t epoch_in, std::uint32_t cum_next_in,
            std::uint64_t sack_in)
      : epoch(epoch_in), cum_next(cum_next_in), sack(sack_in) {}
  [[nodiscard]] auto fields() const { return std::tie(epoch, cum_next, sack); }
  [[nodiscard]] const char* name() const override { return "arqAck"; }
  [[nodiscard]] std::string describe() const override {
    return "arqAck(e" + std::to_string(epoch) + ",cum=" +
           std::to_string(cum_next) + ")";
  }
};

// ---------------------------------------------------------------------------
// Wired: Mss <-> Mss / proxy host / server.
// ---------------------------------------------------------------------------

// respMss -> proxy host: a new request to register as pending and relay to
// the server (§3.1: "Mss forwards the request to the proxy whose address is
// mentioned in pref").
struct MsgForwardRequest final : net::Message<MsgForwardRequest> {
  MhId mh;
  ProxyId proxy;
  RequestId request;
  NodeAddress server;
  std::string body;
  bool stream;

  MsgForwardRequest(MhId mh_in, ProxyId proxy_in, RequestId request_in,
                    NodeAddress server_in, std::string body_in, bool stream_in)
      : mh(mh_in),
        proxy(proxy_in),
        request(request_in),
        server(server_in),
        body(std::move(body_in)),
        stream(stream_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, proxy, request, server, body, stream);
  }
  [[nodiscard]] const char* name() const override { return "forwardRequest"; }
};

// respMss -> proxy host: relay an unsubscribe to the proxy.
struct MsgForwardUnsubscribe final : net::Message<MsgForwardUnsubscribe> {
  MhId mh;
  ProxyId proxy;
  RequestId request;

  MsgForwardUnsubscribe(MhId mh_in, ProxyId proxy_in, RequestId request_in)
      : mh(mh_in), proxy(proxy_in), request(request_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, proxy, request); }
  [[nodiscard]] const char* name() const override {
    return "forwardUnsubscribe";
  }
};

// proxy -> server: the request as seen by the server.  "From the
// perspective of the server, service access is identical to the one by a
// static client" (§3): the reply address is the proxy's fixed location.
struct MsgServerRequest final : net::Message<MsgServerRequest> {
  NodeAddress reply_to;  // proxy host address
  ProxyId proxy;
  RequestId request;
  std::string body;
  bool stream;

  MsgServerRequest(NodeAddress reply_to_in, ProxyId proxy_in,
                   RequestId request_in, std::string body_in, bool stream_in)
      : reply_to(reply_to_in),
        proxy(proxy_in),
        request(request_in),
        body(std::move(body_in)),
        stream(stream_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(reply_to, proxy, request, body, stream);
  }
  [[nodiscard]] const char* name() const override { return "serverRequest"; }
};

// proxy -> server: stop a stream request.
struct MsgServerUnsubscribe final : net::Message<MsgServerUnsubscribe> {
  ProxyId proxy;
  RequestId request;

  MsgServerUnsubscribe(ProxyId proxy_in, RequestId request_in)
      : proxy(proxy_in), request(request_in) {}
  [[nodiscard]] auto fields() const { return std::tie(proxy, request); }
  [[nodiscard]] const char* name() const override {
    return "serverUnsubscribe";
  }
};

// server -> proxy: one result.  Oneshot requests produce a single result
// with result_seq == 1 and final == true; stream requests produce a series.
struct MsgServerResult final : net::Message<MsgServerResult> {
  ProxyId proxy;
  RequestId request;
  std::uint32_t result_seq;
  bool final;
  std::string body;

  MsgServerResult(ProxyId proxy_in, RequestId request_in,
                  std::uint32_t result_seq_in, bool final_in,
                  std::string body_in)
      : proxy(proxy_in),
        request(request_in),
        result_seq(result_seq_in),
        final(final_in),
        body(std::move(body_in)) {}
  [[nodiscard]] auto fields() const {
    return std::tie(proxy, request, result_seq, final, body);
  }
  [[nodiscard]] const char* name() const override { return "serverResult"; }
};

// proxy -> server: application-level completion ack (§3.1: "possibly sends
// an acknowledgment to the server, depending on the particular
// application-level client-server protocol"); enabled by RdpConfig.
struct MsgServerAck final : net::Message<MsgServerAck> {
  RequestId request;

  explicit MsgServerAck(RequestId request_in) : request(request_in) {}
  [[nodiscard]] auto fields() const { return std::tie(request); }
  [[nodiscard]] const char* name() const override { return "serverAck"; }
};

// proxy host -> respMss: a result to hand to the Mh over the air.  The
// del-pref flag (§3.3) announces that this is the result of the proxy's
// last pending request.
struct MsgResultForward final : net::Message<MsgResultForward> {
  MhId mh;
  NodeAddress proxy_host;
  ProxyId proxy;
  RequestId request;
  std::uint32_t result_seq;
  bool final;
  bool del_pref;
  std::string body;
  std::uint32_t attempt;

  MsgResultForward(MhId mh_in, NodeAddress proxy_host_in, ProxyId proxy_in,
                   RequestId request_in, std::uint32_t result_seq_in,
                   bool final_in, bool del_pref_in, std::string body_in,
                   std::uint32_t attempt_in)
      : mh(mh_in),
        proxy_host(proxy_host_in),
        proxy(proxy_in),
        request(request_in),
        result_seq(result_seq_in),
        final(final_in),
        del_pref(del_pref_in),
        body(std::move(body_in)),
        attempt(attempt_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, proxy_host, proxy, request, result_seq, final, del_pref,
                    body, attempt);
  }
  [[nodiscard]] const char* name() const override { return "resultForward"; }
  [[nodiscard]] std::string describe() const override {
    return std::string("resultForward(") + request.str() +
           (del_pref ? ",del-pref" : "") + ")";
  }
};

// proxy host -> respMss: standalone del-pref (§3.4, Fig 4): sent when the
// last pending request's result has already been forwarded, so only the
// flag — not the payload — needs to travel.
struct MsgDelPref final : net::Message<MsgDelPref> {
  MhId mh;
  NodeAddress proxy_host;
  ProxyId proxy;
  RequestId request;
  std::uint32_t result_seq;

  MsgDelPref(MhId mh_in, NodeAddress proxy_host_in, ProxyId proxy_in,
             RequestId request_in, std::uint32_t result_seq_in)
      : mh(mh_in),
        proxy_host(proxy_host_in),
        proxy(proxy_in),
        request(request_in),
        result_seq(result_seq_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, proxy_host, proxy, request, result_seq);
  }
  [[nodiscard]] const char* name() const override { return "delPref"; }
};

// respMss -> proxy host: Ack forwarded from the Mh (§3.1), possibly
// carrying del-proxy == true (§3.3) which authorises proxy deletion.
struct MsgAckForward final : net::Message<MsgAckForward> {
  MhId mh;
  ProxyId proxy;
  RequestId request;
  std::uint32_t result_seq;
  bool del_proxy;

  MsgAckForward(MhId mh_in, ProxyId proxy_in, RequestId request_in,
                std::uint32_t result_seq_in, bool del_proxy_in)
      : mh(mh_in),
        proxy(proxy_in),
        request(request_in),
        result_seq(result_seq_in),
        del_proxy(del_proxy_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, proxy, request, result_seq, del_proxy);
  }
  [[nodiscard]] const char* name() const override { return "ackForward"; }
  [[nodiscard]] std::string describe() const override {
    return std::string("ackForward(") + request.str() +
           (del_proxy ? ",del-proxy" : "") + ")";
  }
};

// new Mss -> old Mss: start of the hand-off (§3.2): "asking it to
// de-register Mh and send back Mh's proxy reference".
struct MsgDereg final : net::Message<MsgDereg> {
  MhId mh;
  MssId new_mss;

  MsgDereg(MhId mh_in, MssId new_mss_in) : mh(mh_in), new_mss(new_mss_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, new_mss); }
  [[nodiscard]] const char* name() const override { return "dereg"; }
  [[nodiscard]] std::string describe() const override {
    return "dereg(" + mh.str() + ")";
  }
};

// old Mss -> new Mss: completes the hand-off, carrying the Mh's pref — the
// *only* per-Mh protocol state that migrates (§5: "except for the proxy
// reference, neither result forwarding pointers nor other residue ... need
// to be kept at the Mss").
struct MsgDeregAck final : net::Message<MsgDeregAck> {
  MhId mh;
  Pref pref;

  MsgDeregAck(MhId mh_in, Pref pref_in) : mh(mh_in), pref(pref_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, pref); }
  [[nodiscard]] const char* name() const override { return "deregAck"; }
  [[nodiscard]] std::string describe() const override {
    return "deregAck(" + mh.str() +
           (pref.has_proxy() ? ",pref=" + pref.proxy_host.str() : ",pref=null") +
           ")";
  }
};

// respMss -> proxy host: location update after hand-off or re-activation
// (§3.1).  The proxy updates currentLoc and re-sends unacknowledged
// results.
struct MsgUpdateCurrentLoc final : net::Message<MsgUpdateCurrentLoc> {
  MhId mh;
  ProxyId proxy;
  NodeAddress new_loc;

  MsgUpdateCurrentLoc(MhId mh_in, ProxyId proxy_in, NodeAddress new_loc_in)
      : mh(mh_in), proxy(proxy_in), new_loc(new_loc_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, proxy, new_loc); }
  [[nodiscard]] const char* name() const override {
    return "update_currentLoc";
  }
  [[nodiscard]] std::string describe() const override {
    return "update_currentLoc(" + mh.str() + "->" + new_loc.str() + ")";
  }
};

// proxy host -> respMss: the respMss completed the del-proxy handshake,
// but the proxy still holds pending requests (reachable only through the
// stale-del-pref revisit race analyzed in DESIGN.md §5.4 — the del-pref
// information can be outdated by requests that flowed through *other*
// Mss's, a causality the wired causal layer cannot see).  The proxy
// refuses deletion and asks the respMss to re-install the pref so the
// pending results can still be delivered and acknowledged.
struct MsgPrefRestore final : net::Message<MsgPrefRestore> {
  MhId mh;
  NodeAddress proxy_host;
  ProxyId proxy;

  MsgPrefRestore(MhId mh_in, NodeAddress proxy_host_in, ProxyId proxy_in)
      : mh(mh_in), proxy_host(proxy_host_in), proxy(proxy_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, proxy_host, proxy); }
  [[nodiscard]] const char* name() const override { return "prefRestore"; }
};

// proxy host -> respMss: reply to a message addressed to a proxy that no
// longer exists (only possible when the idle-proxy GC extension is enabled,
// or in ablations that break the deletion handshake).  Carries the original
// request so the respMss can recreate a proxy locally and retry.
struct MsgProxyGone final : net::Message<MsgProxyGone> {
  MhId mh;
  ProxyId proxy;
  RequestId request;
  NodeAddress server;
  std::string body;
  bool stream;
  bool had_request;  // false when the dead-proxy message carried no request

  MsgProxyGone(MhId mh_in, ProxyId proxy_in, RequestId request_in,
               NodeAddress server_in, std::string body_in, bool stream_in,
               bool had_request_in)
      : mh(mh_in),
        proxy(proxy_in),
        request(request_in),
        server(server_in),
        body(std::move(body_in)),
        stream(stream_in),
        had_request(had_request_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, proxy, request, server, body, stream, had_request);
  }
  [[nodiscard]] const char* name() const override { return "proxyGone"; }
};

// ---------------------------------------------------------------------------
// Primary/backup replication (src/replication; DESIGN extension).
//
// The paper's Mss's "are assumed not to fail" (§2); the replication
// subsystem drops the assumption without waiting for a restart: every proxy
// mutation at a primary Mss is shipped to a backup Mss as a full
// ProxyCheckpoint delta, the backup applies it to a shadow table, and on a
// lease expiry (or an explicit transfer-resume) the backup promotes the
// shadow records into live proxies and repairs the prefs that still name
// the dead primary.
// ---------------------------------------------------------------------------

// primary -> backup: one proxy's full state after a mutation.  `seq` is a
// per-primary shipping counter so a reordered or duplicated delta can never
// roll the shadow record back.
struct MsgReplicaUpdate final : net::Message<MsgReplicaUpdate> {
  MssId primary;
  std::uint64_t seq;
  ProxyCheckpoint record;

  MsgReplicaUpdate(MssId primary_in, std::uint64_t seq_in,
                   ProxyCheckpoint record_in)
      : primary(primary_in), seq(seq_in), record(std::move(record_in)) {}
  [[nodiscard]] auto fields() const { return std::tie(primary, seq, record); }
  [[nodiscard]] const char* name() const override { return "replicaUpdate"; }
  [[nodiscard]] std::string describe() const override {
    return "replicaUpdate(" + record.proxy.str() + "," + record.mh.str() + ")";
  }
};

// primary -> backup: the proxy completed its deletion handshake; drop its
// shadow record.
struct MsgReplicaErase final : net::Message<MsgReplicaErase> {
  MssId primary;
  std::uint64_t seq;
  ProxyId proxy;

  MsgReplicaErase(MssId primary_in, std::uint64_t seq_in, ProxyId proxy_in)
      : primary(primary_in), seq(seq_in), proxy(proxy_in) {}
  [[nodiscard]] auto fields() const { return std::tie(primary, seq, proxy); }
  [[nodiscard]] const char* name() const override { return "replicaErase"; }
};

// primary -> backup: lease renewal while the primary has replicated proxies
// but no state changes to ship.
struct MsgReplicaHeartbeat final : net::Message<MsgReplicaHeartbeat> {
  MssId primary;

  explicit MsgReplicaHeartbeat(MssId primary_in) : primary(primary_in) {}
  [[nodiscard]] auto fields() const { return std::tie(primary); }
  [[nodiscard]] const char* name() const override { return "replicaHeartbeat"; }
};

// restarted backup -> primary: the backup lost its (volatile) shadow table
// in its own crash; ask the primary to re-ship every live proxy.
struct MsgReplicaResync final : net::Message<MsgReplicaResync> {
  MssId backup;

  explicit MsgReplicaResync(MssId backup_in) : backup(backup_in) {}
  [[nodiscard]] auto fields() const { return std::tie(backup); }
  [[nodiscard]] const char* name() const override { return "replicaResync"; }
};

// promoted backup -> respMss: the proxy at (old_host, old_proxy) lives on
// as (new_host, new_proxy); rewrite the Mh's pref so delivery resumes.
struct MsgPrefRepair final : net::Message<MsgPrefRepair> {
  MhId mh;
  NodeAddress old_host;
  ProxyId old_proxy;
  NodeAddress new_host;
  ProxyId new_proxy;

  MsgPrefRepair(MhId mh_in, NodeAddress old_host_in, ProxyId old_proxy_in,
                NodeAddress new_host_in, ProxyId new_proxy_in)
      : mh(mh_in),
        old_host(old_host_in),
        old_proxy(old_proxy_in),
        new_host(new_host_in),
        new_proxy(new_proxy_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, old_host, old_proxy, new_host, new_proxy);
  }
  [[nodiscard]] const char* name() const override { return "prefRepair"; }
  [[nodiscard]] std::string describe() const override {
    return "prefRepair(" + mh.str() + "->" + new_host.str() + ")";
  }
};

// respMss -> promoted backup: the repair lost its race (a fresh proxy
// already took over, or the Mh is gone for good); the adopted incarnation
// is garbage and the backup should reclaim it.
struct MsgPrefRepairNack final : net::Message<MsgPrefRepairNack> {
  MhId mh;
  ProxyId new_proxy;

  MsgPrefRepairNack(MhId mh_in, ProxyId new_proxy_in)
      : mh(mh_in), new_proxy(new_proxy_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, new_proxy); }
  [[nodiscard]] const char* name() const override { return "prefRepairNack"; }
};

// respMss -> backup of a dead Mss: transfer-resume handshake for the
// hand-off window.  A deregAck (or greet) left this Mss holding a pref —
// or just a registration — whose proxy host is down; ask the backup for
// the adopted incarnation instead of waiting for the Mh watchdog.
// `old_proxy` may be invalid when only the host is known (greet path); the
// backup then resolves the proxy by Mh.
struct MsgTransferResume final : net::Message<MsgTransferResume> {
  MhId mh;
  NodeAddress old_host;
  ProxyId old_proxy;

  MsgTransferResume(MhId mh_in, NodeAddress old_host_in, ProxyId old_proxy_in)
      : mh(mh_in), old_host(old_host_in), old_proxy(old_proxy_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, old_host, old_proxy);
  }
  [[nodiscard]] const char* name() const override { return "transferResume"; }
  [[nodiscard]] std::string describe() const override {
    return "transferResume(" + mh.str() + "," + old_host.str() + ")";
  }
};

// ---------------------------------------------------------------------------
// Dynamic membership + k-chain replication (src/replication).
//
// Replication fans out along an ordered chain of k backups: the primary
// ships every delta to the chain head, each member applies and forwards to
// its successor, and the tail acknowledges back to the primary.  A
// membership service watches Mss liveness, marks an Mss that stays
// unreachable past the departure threshold as *departed*, and repairs the
// ring: chains are recomputed and the affected primaries re-replicate their
// checkpoints to the new members under a begin/commit seq-fence so a
// half-synced shadow is never promoted.
// ---------------------------------------------------------------------------

// chain tail -> primary: the delta with shipping counter `seq` reached the
// end of the chain; every member between head and tail has applied it.
struct MsgChainAck final : net::Message<MsgChainAck> {
  MssId primary;
  std::uint64_t seq;
  MssId member;  // the acking tail

  MsgChainAck(MssId primary_in, std::uint64_t seq_in, MssId member_in)
      : primary(primary_in), seq(seq_in), member(member_in) {}
  [[nodiscard]] auto fields() const { return std::tie(primary, seq, member); }
  [[nodiscard]] const char* name() const override { return "chainAck"; }
};

// primary -> chain: brackets a re-replication snapshot after a chain
// change.  The begin fence (commit = false) travels ahead of the snapshot
// on every per-link FIFO hop, so a new member marks its shadow *syncing*
// before the first record arrives; the commit fence closes the bracket and
// makes the shadow promotable.  `fence_seq` is the primary's shipping
// counter at the bracket boundary: promotion is never ahead of the fence.
struct MsgReplicaFence final : net::Message<MsgReplicaFence> {
  MssId primary;
  std::uint64_t epoch;  // membership epoch that triggered the re-replication
  std::uint64_t fence_seq;
  bool commit;

  MsgReplicaFence(MssId primary_in, std::uint64_t epoch_in,
                  std::uint64_t fence_seq_in, bool commit_in)
      : primary(primary_in),
        epoch(epoch_in),
        fence_seq(fence_seq_in),
        commit(commit_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(primary, epoch, fence_seq, commit);
  }
  [[nodiscard]] const char* name() const override { return "replicaFence"; }
  [[nodiscard]] std::string describe() const override {
    return std::string("replicaFence(") + primary.str() + "," +
           (commit ? "commit" : "begin") + ")";
  }
};

// chain member -> primary: acknowledges the commit fence; the member's
// shadow of `primary` is complete up to the fence and promotable.
struct MsgReplicaFenceAck final : net::Message<MsgReplicaFenceAck> {
  MssId primary;
  std::uint64_t epoch;
  MssId member;

  MsgReplicaFenceAck(MssId primary_in, std::uint64_t epoch_in, MssId member_in)
      : primary(primary_in), epoch(epoch_in), member(member_in) {}
  [[nodiscard]] auto fields() const { return std::tie(primary, epoch, member); }
  [[nodiscard]] const char* name() const override { return "replicaFenceAck"; }
};

enum class MembershipEventKind : std::uint8_t {
  kSuspect = 0,   // the subject stopped answering; departure timer armed
  kDeparted = 1,  // the subject stayed down past the threshold; ring repaired
  kRejoined = 2,  // a departed subject is reachable again; ring repaired
  kAlive = 3,     // a suspected subject answered its probe; drop stale state
};

// membership service -> Mss's: a membership-view transition.  Broadcast in
// Mss-id order so the wire view of every transition is deterministic.
// `subject_address` lets a passive observer correlate the event with proxy
// traffic that names the subject by wired address (e.g. prefRepair).
struct MsgMembershipEvent final : net::Message<MsgMembershipEvent> {
  MssId subject;
  NodeAddress subject_address;
  MembershipEventKind kind;
  std::uint64_t epoch;

  MsgMembershipEvent(MssId subject_in, NodeAddress subject_address_in,
                     MembershipEventKind kind_in, std::uint64_t epoch_in)
      : subject(subject_in),
        subject_address(subject_address_in),
        kind(kind_in),
        epoch(epoch_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(subject, subject_address, kind, epoch);
  }
  [[nodiscard]] const char* name() const override { return "membershipEvent"; }
  [[nodiscard]] std::string describe() const override {
    static constexpr const char* kKinds[] = {"suspect", "departed", "rejoined",
                                             "alive"};
    const auto index = static_cast<std::size_t>(kind);
    return "membershipEvent(" + subject.str() + "," +
           (index < 4 ? kKinds[index] : "?") + ")";
  }
};

enum class MembershipReportKind : std::uint8_t {
  kSuspect = 0,  // a backup stopped hearing a directory-up primary
  kAlive = 1,    // a probed Mss answering that it is reachable
  kRejoin = 2,   // a demoted (fenced) primary asking to re-enter the ring
};

// Mss -> membership service: a liveness observation the service cannot make
// itself.  A suspect report triggers a probe of the subject; an alive reply
// resolves it; a rejoin request re-admits a fenced primary after a
// partition heals.
struct MsgMembershipReport final : net::Message<MsgMembershipReport> {
  MssId reporter;
  MssId subject;
  MembershipReportKind kind;

  MsgMembershipReport(MssId reporter_in, MssId subject_in,
                      MembershipReportKind kind_in)
      : reporter(reporter_in), subject(subject_in), kind(kind_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(reporter, subject, kind);
  }
  [[nodiscard]] const char* name() const override { return "membershipReport"; }
};

// membership service -> suspected Mss: are you reachable?  A live subject
// answers with MsgMembershipReport(kAlive); a crashed or partitioned one
// cannot, and departs when the probe times out.
struct MsgMembershipProbe final : net::Message<MsgMembershipProbe> {
  MssId subject;

  explicit MsgMembershipProbe(MssId subject_in) : subject(subject_in) {}
  [[nodiscard]] auto fields() const { return std::tie(subject); }
  [[nodiscard]] const char* name() const override { return "membershipProbe"; }
};

// backup -> departed-but-up primary: you were declared departed (epoch on
// the message); stop serving and demote.  Sent whenever a departed primary's
// replication traffic reaches a chain member, so a partitioned primary is
// fenced off the moment the partition heals instead of racing the promoted
// backup.
struct MsgPrimaryFence final : net::Message<MsgPrimaryFence> {
  MssId primary;
  std::uint64_t epoch;

  MsgPrimaryFence(MssId primary_in, std::uint64_t epoch_in)
      : primary(primary_in), epoch(epoch_in) {}
  [[nodiscard]] auto fields() const { return std::tie(primary, epoch); }
  [[nodiscard]] const char* name() const override { return "primaryFence"; }
  [[nodiscard]] std::string describe() const override {
    return "primaryFence(" + primary.str() + ")";
  }
};

}  // namespace rdp::core
