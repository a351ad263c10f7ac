// Mobile host protocol agent (§2).
//
// Implements the Mh side of RDP: join/leave, greet on cell entry and on
// re-activation, issuing requests through the current respMss, duplicate
// detection (assumption 5) and acknowledgement of every received result
// (assumption 4).  Workload drivers and examples steer it through the
// public lifecycle methods; it owns no threads — everything runs on the
// simulation kernel.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arq/sender.h"
#include "common/flat_map.h"
#include "core/messages.h"
#include "core/runtime.h"

namespace rdp::core {

class MobileHostAgent final : public net::DownlinkReceiver {
 public:
  // Called once per *new* (non-duplicate) result delivered to the
  // application.
  struct Delivery {
    RequestId request;
    std::uint32_t result_seq;
    std::string body;
    bool final;
  };
  using DeliveryCallback = std::function<void(const Delivery&)>;

  MobileHostAgent(Runtime& runtime, MhId id);

  MobileHostAgent(const MobileHostAgent&) = delete;
  MobileHostAgent& operator=(const MobileHostAgent&) = delete;

  [[nodiscard]] MhId id() const { return id_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] bool registered() const { return registered_; }
  [[nodiscard]] std::optional<common::CellId> cell() const;
  [[nodiscard]] MssId resp_mss() const { return resp_mss_; }
  [[nodiscard]] std::size_t pending_requests() const {
    return pending_.size();
  }
  [[nodiscard]] bool can_leave() const { return pending_.empty(); }

  void set_delivery_callback(DeliveryCallback callback) {
    delivery_callback_ = std::move(callback);
  }

  // --- lifecycle ------------------------------------------------------------
  // First activation: join the system in `cell`.
  void power_on(common::CellId cell);
  // Switch to the inactive state (power save / turned off, §2).
  void power_off();
  // Return to the active state; greets the Mss of the current cell (§2:
  // the greet is also sent on re-activation).
  void reactivate();
  // While inactive, physically move to another cell (the greet happens at
  // the next reactivate()).
  void move_while_inactive(common::CellId target);
  // Migrate to `target`; unreachable during `travel_time` (§2, assumption
  // 4: a migrating Mh may be considered inactive by both Mss's).
  void migrate(common::CellId target, common::Duration travel_time);
  // Leave the system (assumption 6: only legal once everything received
  // was acknowledged; pending requests are reported lost).
  void leave();

  // --- requests ---------------------------------------------------------------
  // Issue a request; queued locally until the agent is registered with an
  // Mss.  With `stream` the request is a subscription delivering many
  // results until unsubscribe().
  RequestId issue_request(NodeAddress server, std::string body,
                          bool stream = false);
  RequestId issue_request(common::ServerId server, std::string body,
                          bool stream = false);
  void unsubscribe(RequestId request);

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t duplicate_deliveries() const {
    return duplicates_;
  }
  // Null unless RdpConfig::arq is enabled.
  [[nodiscard]] const arq::ArqSender* arq_sender() const { return arq_.get(); }

  // net::DownlinkReceiver
  void on_downlink(common::CellId cell, const net::PayloadPtr& payload) override;

 private:
  // A request issued and not completed yet (its final result is not
  // delivered).  While `watched`, the re-issue watchdog
  // (RdpConfig::mh_reissue) keeps enough of it to resend it when the
  // respMss stays silent — the Mh-side half of the fault-tolerance
  // extension (the respMss may have crashed and lost the pref, or the
  // proxy may have died without a checkpoint).
  struct PendingRequest {
    RequestId request;
    bool watched = false;
    NodeAddress server;
    std::string body;
    bool stream = false;
    common::SimTime last_progress;
    int reissues = 0;
  };
  using Pending = std::vector<PendingRequest>;

  // The pending entry for `request`, or end().
  [[nodiscard]] Pending::iterator find_pending(RequestId request);
  // Whether the watchdog watches any pending request.
  [[nodiscard]] bool watching() const;
  void send_greet_or_join();
  void arm_registration_timer();
  void arm_reissue_timer();
  void run_reissue_check();
  void flush_outbox();
  void uplink(net::PayloadPtr payload,
              sim::EventPriority priority = sim::EventPriority::kNormal);

  Runtime& runtime_;
  const MhId id_;
  // Uplink ARQ channel (PROTOCOL.md §11); null when arq.mode == kOff.
  // Application uplink traffic (requests, unsubscribes, result Acks) rides
  // it; registration traffic (join/greet/leave) never does.
  std::unique_ptr<arq::ArqSender> arq_;

  bool joined_ = false;      // ever joined the system
  bool active_ = false;      // §2 active/inactive state
  bool in_system_ = false;   // between join and leave
  bool registered_ = false;  // greet/join confirmed by registrationAck
  MssId resp_mss_;           // last Mss a registration completed with

  common::SimTime greet_sent_;
  sim::TimerHandle registration_timer_;
  // Pending travel arrival; a newer migrate() supersedes it (otherwise the
  // Mh "arrives" at both cells and registers twice, and the stale first
  // registrationAck masks the real one).
  sim::TimerHandle travel_timer_;
  int registration_attempts_ = 0;

  std::uint32_t next_request_seq_ = 0;
  // In RequestId order, which is issue order: a new request goes last.
  Pending pending_;
  sim::TimerHandle reissue_timer_;
  // (request seq, result seq) pairs already delivered to the application,
  // packed as seq << 32 | result seq (assumption 5: duplicate detection).
  // Exact: every result this Mh receives is for one of its own requests.
  common::FlatMap<common::NoValue> delivered_;
  std::deque<net::PayloadPtr> outbox_;  // requests issued while unregistered

  DeliveryCallback delivery_callback_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace rdp::core
