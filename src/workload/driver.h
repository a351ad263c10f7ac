// Drives one mobile host through a randomized workload: mobility (via a
// MobilityModel), activity on/off periods, and Poisson request issuance.
//
// The driver is templated on the host-agent type so the same workload runs
// unchanged against the RDP stack (core::MobileHostAgent) and the baseline
// stack (baseline::MipHostAgent) — the comparison experiments depend on the
// two protocols seeing *identical* mobility and request schedules.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "sim/simulator.h"
#include "workload/loss.h"
#include "workload/mobility.h"

namespace rdp::workload {

using common::Duration;
using common::NodeAddress;

struct WorkloadParams {
  // Mobility.
  Duration travel_time = Duration::millis(500);
  // Requests: Poisson with this mean inter-arrival (zero disables).
  Duration mean_request_interval = Duration::seconds(10);
  std::string request_body = "q";
  // Optional: generate a fresh body per request (e.g. random TIS queries);
  // overrides request_body when set.
  std::function<std::string(common::Rng&)> body_factory;
  // Activity: exponential on/off periods (zero mean_inactive disables).
  Duration mean_active = Duration::zero();
  Duration mean_inactive = Duration::zero();
  // Named wireless loss profile (workload/loss.h).  The drivers share one
  // channel, so the harness installs a single LossShaper for the whole
  // scenario rather than one per driver; drivers carry the name so a
  // workload description is self-contained.
  LossShaperConfig loss;
};

template <typename Host>
class HostDriver {
 public:
  HostDriver(sim::Simulator& simulator, Host& host, MobilityModel& mobility,
             common::Rng rng, WorkloadParams params,
             std::vector<NodeAddress> servers)
      : simulator_(simulator),
        host_(host),
        mobility_(mobility),
        rng_(rng),
        params_(params),
        servers_(std::move(servers)) {}

  HostDriver(const HostDriver&) = delete;
  HostDriver& operator=(const HostDriver&) = delete;

  // Pin the starting cell instead of drawing it at start().  The sharded
  // harness assigns each Mh to the shard of its home cell, so the home cell
  // must be known (from a dedicated RNG stream) before the world is built.
  void set_initial_cell(CellId cell) { preset_cell_ = cell; }

  void start() {
    current_cell_ = preset_cell_ ? *preset_cell_ : mobility_.initial_cell(rng_);
    host_.power_on(current_cell_);
    schedule_move();
    if (params_.mean_request_interval > Duration::zero() &&
        !servers_.empty()) {
      schedule_request();
    }
    if (params_.mean_inactive > Duration::zero() &&
        params_.mean_active > Duration::zero()) {
      schedule_power_off();
    }
  }

  // Stop generating new work (migrations, requests, activity changes);
  // in-flight protocol activity continues so the scenario can drain.
  void stop() {
    stopped_ = true;
    move_timer_.cancel();
    request_timer_.cancel();
    activity_timer_.cancel();
    // Leave the host active so pending results can still be delivered.
    if (!host_.active()) host_.reactivate();
  }

  // Reaction bound for the driver's timers (sim::Simulator
  // schedule_bounded).  Everything a driver timer does ends in the host
  // agent — migrate, issue_request, power on/off — whose cascades only
  // ever send over the wireless channel, so the sharded harness sets this
  // to the wireless base latency.  Zero (the default) keeps the kernel's
  // default bound; single-kernel runs ignore bounds entirely.
  void set_reaction_bound(Duration bound) { reaction_bound_ = bound; }

  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] std::uint64_t requests_issued() const { return issued_; }
  [[nodiscard]] std::uint64_t reactivations() const { return reactivations_; }

 private:
  void schedule_move() {
    move_timer_ = simulator_.schedule_bounded(
        mobility_.dwell(rng_), reaction_bound_, [this] {
          if (stopped_) return;
          const CellId target = mobility_.next_cell(current_cell_, rng_);
          if (target != current_cell_) {
            current_cell_ = target;
            ++migrations_;
            if (host_.active()) {
              host_.migrate(target, params_.travel_time);
            } else {
              host_.move_while_inactive(target);
            }
          }
          schedule_move();
        });
  }

  void schedule_request() {
    request_timer_ = simulator_.schedule_bounded(
        rng_.exponential_duration(params_.mean_request_interval),
        reaction_bound_, [this] {
          if (stopped_) return;
          const NodeAddress server = rng_.pick(servers_);
          host_.issue_request(server, params_.body_factory
                                          ? params_.body_factory(rng_)
                                          : params_.request_body);
          ++issued_;
          schedule_request();
        });
  }

  void schedule_power_off() {
    activity_timer_ = simulator_.schedule_bounded(
        rng_.exponential_duration(params_.mean_active), reaction_bound_,
        [this] {
          if (stopped_) return;
          if (host_.active()) host_.power_off();
          schedule_power_on();
        });
  }

  void schedule_power_on() {
    activity_timer_ = simulator_.schedule_bounded(
        rng_.exponential_duration(params_.mean_inactive), reaction_bound_,
        [this] {
          if (stopped_) return;
          if (!host_.active()) {
            host_.reactivate();
            ++reactivations_;
          }
          schedule_power_off();
        });
  }

  sim::Simulator& simulator_;
  Host& host_;
  MobilityModel& mobility_;
  common::Rng rng_;
  WorkloadParams params_;
  std::vector<NodeAddress> servers_;

  CellId current_cell_;
  std::optional<CellId> preset_cell_;
  Duration reaction_bound_ = Duration::zero();
  bool stopped_ = false;
  sim::TimerHandle move_timer_, request_timer_, activity_timer_;
  std::uint64_t migrations_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t reactivations_ = 0;
};

}  // namespace rdp::workload
