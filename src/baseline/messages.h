// Message vocabulary of the Mobile-IP-style baselines (§4 of the paper
// compares RDP against Mobile IP qualitatively; these baselines make the
// comparison quantitative).
//
// Downlink messages (results, registration confirmations) reuse the core
// types so the mobile-host side of both stacks stays comparable.
//
// Each message's fields() is its wire layout and sizes it, as in
// core/messages.h; nothing decodes these, so they have no codec tag.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "common/ids.h"
#include "net/message.h"

namespace rdp::baseline {

using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::RequestId;

// Mh -> Mss: join/entry announcement carrying the Mh's home agent (fixed
// for the Mh's lifetime — the defining difference from RDP's migrating
// proxy).  An invalid home means "this is my first contact; you become my
// home agent".
struct MsgMipGreet final : net::Message<MsgMipGreet> {
  NodeAddress home;

  explicit MsgMipGreet(NodeAddress home_in) : home(home_in) {}
  [[nodiscard]] auto fields() const { return std::tie(home); }
  [[nodiscard]] const char* name() const override { return "mipGreet"; }
};

// Mh -> Mss: a request; carries the home address so the Mss can set the
// server's reply path without per-Mh wired state.
struct MsgMipRequest final : net::Message<MsgMipRequest> {
  RequestId request;
  NodeAddress server;
  NodeAddress home;
  std::string body;

  MsgMipRequest(RequestId request_in, NodeAddress server_in,
                NodeAddress home_in, std::string body_in)
      : request(request_in),
        server(server_in),
        home(home_in),
        body(std::move(body_in)) {}
  [[nodiscard]] auto fields() const {
    return std::tie(request, server, home, body);
  }
  [[nodiscard]] const char* name() const override { return "mipRequest"; }
};

// Mh -> Mss (reliable variant only): acknowledge a delivered result.
struct MsgMipUplinkAck final : net::Message<MsgMipUplinkAck> {
  RequestId request;
  NodeAddress home;

  MsgMipUplinkAck(RequestId request_in, NodeAddress home_in)
      : request(request_in), home(home_in) {}
  [[nodiscard]] auto fields() const { return std::tie(request, home); }
  [[nodiscard]] const char* name() const override { return "mipAck"; }
};

// care-of Mss -> home agent: registration (care-of address update).
struct MsgMipRegistration final : net::Message<MsgMipRegistration> {
  MhId mh;
  NodeAddress care_of;

  MsgMipRegistration(MhId mh_in, NodeAddress care_of_in)
      : mh(mh_in), care_of(care_of_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, care_of); }
  [[nodiscard]] const char* name() const override { return "mipRegistration"; }
};

// home agent -> care-of Mss: registration accepted.
struct MsgMipRegReply final : net::Message<MsgMipRegReply> {
  MhId mh;

  explicit MsgMipRegReply(MhId mh_in) : mh(mh_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh); }
  [[nodiscard]] const char* name() const override { return "mipRegReply"; }
};

// home agent -> care-of Mss: a tunnelled result for a visiting Mh.
struct MsgMipTunnel final : net::Message<MsgMipTunnel> {
  MhId mh;
  RequestId request;
  std::string body;
  std::uint32_t attempt;

  MsgMipTunnel(MhId mh_in, RequestId request_in, std::string body_in,
               std::uint32_t attempt_in)
      : mh(mh_in),
        request(request_in),
        body(std::move(body_in)),
        attempt(attempt_in) {}
  [[nodiscard]] auto fields() const {
    return std::tie(mh, request, body, attempt);
  }
  [[nodiscard]] const char* name() const override { return "mipTunnel"; }
};

// care-of Mss -> home agent (reliable variant): result acknowledged.
struct MsgMipAckForward final : net::Message<MsgMipAckForward> {
  MhId mh;
  RequestId request;

  MsgMipAckForward(MhId mh_in, RequestId request_in)
      : mh(mh_in), request(request_in) {}
  [[nodiscard]] auto fields() const { return std::tie(mh, request); }
  [[nodiscard]] const char* name() const override { return "mipAckForward"; }
};

}  // namespace rdp::baseline
