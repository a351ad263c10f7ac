// Mobile-IP-style baseline protocols (§4/§5 comparison).
//
// Three modes:
//  * kDirect        — the server replies straight to the Mss the request
//                     came from; nothing tracks the Mh.  The weakest
//                     baseline: any migration before the reply loses it.
//  * kMobileIp      — a fixed home agent per Mh; care-of registrations on
//                     every cell change; results tunnelled to the current
//                     care-of Mss, one attempt, no acknowledgements.  This
//                     is the paper's Mobile IP strawman: "IP datagrams may
//                     be lost while a new care-of address change is on its
//                     way to the home agent, or during the periods of
//                     inactivity of the mobile host."
//  * kReliableMobileIp — the home agent stores results until acknowledged
//                     and re-tunnels them after every registration: RDP's
//                     reliability with Mobile IP's *fixed* agent.  Isolates
//                     the load-balancing difference (E5) from the
//                     reliability difference (E6).
//
// The mobile-host side reuses the core downlink messages so the two stacks
// share delivery accounting.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "baseline/messages.h"
#include "core/messages.h"
#include "core/mobile_host.h"
#include "core/runtime.h"

namespace rdp::baseline {

enum class BaselineMode { kDirect, kMobileIp, kReliableMobileIp };

struct BaselineConfig {
  BaselineMode mode = BaselineMode::kMobileIp;
};

// Mss for the baseline stack: cell access point, care-of endpoint and —
// when it is some Mh's home — home agent.
class MipMss final : public net::Endpoint, public net::UplinkReceiver {
 public:
  MipMss(core::Runtime& runtime, const BaselineConfig& config, MssId id,
         common::CellId cell, NodeAddress address);

  MipMss(const MipMss&) = delete;
  MipMss& operator=(const MipMss&) = delete;

  [[nodiscard]] MssId id() const { return id_; }
  [[nodiscard]] common::CellId cell() const { return cell_; }
  [[nodiscard]] NodeAddress address() const { return address_; }

  // --- home-agent load metrics (E5) ---
  [[nodiscard]] std::uint64_t tunnels_forwarded() const { return tunnels_; }
  [[nodiscard]] std::uint64_t registrations_handled() const {
    return registrations_;
  }
  [[nodiscard]] std::size_t stored_results() const;
  [[nodiscard]] std::uint64_t resend_bytes() const { return resend_bytes_; }

  void on_uplink(MhId from, const net::PayloadPtr& payload) override;
  void on_message(const net::Envelope& envelope) override;

 private:
  struct StoredResult {
    std::string body;
    std::uint32_t attempts = 0;
  };

  void count(const char* name) { runtime_.counters.increment(name); }
  void tunnel_to(NodeAddress care_of, MhId mh, RequestId request,
                 const std::string& body, std::uint32_t attempt);
  void handle_registration(const MsgMipRegistration& msg);
  void handle_server_result(const core::MsgServerResult& msg);

  core::Runtime& runtime_;
  const BaselineConfig& config_;
  const MssId id_;
  const common::CellId cell_;
  const NodeAddress address_;

  // Home-agent state: current care-of address per homed Mh, plus (reliable
  // mode) the unacknowledged results awaiting delivery.
  std::map<MhId, NodeAddress> care_of_;
  std::map<MhId, std::map<RequestId, StoredResult>> stored_;
  std::uint64_t tunnels_ = 0;
  std::uint64_t registrations_ = 0;
  std::uint64_t resend_bytes_ = 0;
};

// Mobile-host agent for the baseline stack.  API mirrors
// core::MobileHostAgent so workload drivers can be written once and
// instantiated for either protocol.
class MipHostAgent final : public net::DownlinkReceiver {
 public:
  using Delivery = core::MobileHostAgent::Delivery;
  using DeliveryCallback = std::function<void(const Delivery&)>;

  MipHostAgent(core::Runtime& runtime, const BaselineConfig& config, MhId id);

  MipHostAgent(const MipHostAgent&) = delete;
  MipHostAgent& operator=(const MipHostAgent&) = delete;

  [[nodiscard]] MhId id() const { return id_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] bool registered() const { return registered_; }
  [[nodiscard]] NodeAddress home() const { return home_; }
  [[nodiscard]] std::optional<common::CellId> cell() const {
    return runtime_.wireless.mh_cell(id_);
  }
  [[nodiscard]] std::size_t pending_requests() const {
    return pending_requests_.size();
  }

  void set_delivery_callback(DeliveryCallback callback) {
    delivery_callback_ = std::move(callback);
  }

  void power_on(common::CellId cell);
  void power_off();
  void reactivate();
  void move_while_inactive(common::CellId target);
  void migrate(common::CellId target, common::Duration travel_time);

  // `stream` is unsupported by the baselines (they have no subscription
  // machinery) and must be false.
  RequestId issue_request(NodeAddress server, std::string body,
                          bool stream = false);

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t duplicate_deliveries() const {
    return duplicates_;
  }

  void on_downlink(common::CellId cell, const net::PayloadPtr& payload) override;

 private:
  void send_greet();
  void arm_registration_timer();
  void flush_outbox();

  core::Runtime& runtime_;
  const BaselineConfig& config_;
  const MhId id_;

  bool active_ = false;
  bool registered_ = false;
  NodeAddress home_;  // fixed once assigned (the defining MIP property)

  common::SimTime greet_sent_;
  sim::TimerHandle registration_timer_;
  int registration_attempts_ = 0;

  std::uint32_t next_request_seq_ = 0;
  std::set<RequestId> pending_requests_;
  std::set<RequestId> delivered_;
  std::deque<net::PayloadPtr> outbox_;

  DeliveryCallback delivery_callback_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace rdp::baseline
