// Metrics collection for experiments: an RdpObserver that aggregates the
// quantities every table in EXPERIMENTS.md is built from.
//
// The collector sits on top of obs::MetricsRegistry: give it a registry
// and every quantity is mirrored there as a named counter/histogram —
// including labeled breakdowns the flat fields cannot express (losses per
// reason, hand-offs per target Mss, proxies per host) — so experiment
// artifacts (CSV/JSON exports, time series) come from one source.  The
// public fields remain the cheap in-process read path.
//
// Every hook does constant work without allocating: registry handles are
// resolved on a series' first bump and cached (labeled families by the
// label's numeric id), and the per-request bookkeeping lives in flat hash
// maps keyed by RequestId::packed().
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "core/events.h"
#include "obs/event_names.h"
#include "obs/metrics_registry.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace rdp::harness {

class MetricsCollector final : public core::RdpObserver {
 public:
  MetricsCollector() = default;
  // Mirror every quantity into `registry` (must outlive the collector)
  // under "rdp.*" metric names.
  explicit MetricsCollector(obs::MetricsRegistry* registry)
      : registry_(registry) {}
  // --- request path ---
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_lost = 0;
  std::uint64_t results_delivered = 0;      // non-duplicate app deliveries
  std::uint64_t app_duplicates = 0;         // duplicate downlink deliveries
  std::uint64_t result_forwards = 0;        // proxy -> respMss forwards
  std::uint64_t retransmissions = 0;        // forwards with attempt > 1
  std::uint64_t acks_forwarded = 0;         // respMss -> proxy (the §5 extra Ack)
  std::uint64_t update_currentloc = 0;      // the §5 per-migration message

  // --- mobility ---
  std::uint64_t handoffs = 0;
  std::uint64_t registrations = 0;
  stats::Histogram handoff_latency_ms;
  stats::Histogram handoff_state_bytes;
  stats::Histogram registration_latency_ms;

  // --- proxy life-cycle ---
  std::uint64_t proxies_created = 0;
  std::uint64_t proxies_deleted = 0;
  std::uint64_t proxies_gc = 0;
  std::uint64_t delproxy_with_pending = 0;  // anomaly counter (ablations)
  stats::Tally<common::NodeAddress> proxy_host_tally;  // E5 load balance

  // --- fault injection (src/fault) ---
  std::uint64_t mss_crashes = 0;
  std::uint64_t mss_restarts = 0;
  std::uint64_t proxies_restored = 0;
  std::uint64_t requests_reissued = 0;

  // --- replication (src/replication) ---
  std::uint64_t backup_promotions = 0;
  std::uint64_t proxies_adopted = 0;

  // --- membership / ring repair (PROTOCOL.md §8) ---
  std::uint64_t mss_departures = 0;
  std::uint64_t mss_rejoins = 0;
  std::uint64_t primary_demotions = 0;
  std::uint64_t membership_epoch = 0;  // latest epoch seen on either event

  // --- latency (request issue -> first non-duplicate delivery of each
  // result; milliseconds) ---
  stats::Histogram delivery_latency_ms;

  // requests still pending (issued, final result not yet delivered)
  [[nodiscard]] std::uint64_t requests_outstanding() const {
    return requests_issued - requests_completed_at_mh_ - requests_lost;
  }
  [[nodiscard]] double delivery_ratio() const {
    return requests_issued == 0
               ? 1.0
               : static_cast<double>(requests_completed_at_mh_) /
                     static_cast<double>(requests_issued);
  }

  // RdpObserver — mask covers exactly the hooks overridden below so the
  // flattened ObserverList skips this collector on everything else.
  [[nodiscard]] std::uint32_t hook_mask() const override {
    using core::Hook;
    using core::hook_bit;
    return hook_bit(Hook::kRequestIssued) | hook_bit(Hook::kRequestCompleted) |
           hook_bit(Hook::kRequestLost) | hook_bit(Hook::kResultForwarded) |
           hook_bit(Hook::kResultDelivered) | hook_bit(Hook::kAckForwarded) |
           hook_bit(Hook::kUpdateCurrentloc) |
           hook_bit(Hook::kHandoffCompleted) | hook_bit(Hook::kMhRegistered) |
           hook_bit(Hook::kProxyCreated) | hook_bit(Hook::kProxyDeleted) |
           hook_bit(Hook::kDelproxyWithPending) | hook_bit(Hook::kMssCrashed) |
           hook_bit(Hook::kMssRestarted) | hook_bit(Hook::kProxyRestored) |
           hook_bit(Hook::kRequestReissued) | hook_bit(Hook::kBackupPromoted) |
           hook_bit(Hook::kMssDeparted) | hook_bit(Hook::kMssRejoined) |
           hook_bit(Hook::kPrimaryDemoted);
  }
  void on_request_issued(core::SimTime t, core::MhId, core::RequestId r,
                         core::NodeAddress) override {
    ++requests_issued;
    *issue_time_.try_emplace(r.packed()).first = t;
    bump(issued_, "rdp.requests.issued");
  }
  void on_request_completed(core::SimTime, core::MhId,
                            core::RequestId) override {
    ++requests_completed;
    bump(completed_, "rdp.requests.completed");
  }
  void on_request_lost(core::SimTime, core::MhId, core::RequestId r,
                       core::RequestLossReason reason) override {
    // A crash can report a request lost whose final result is already at
    // the Mh (only the Ack was still in flight), and a request can be
    // reported lost at more than one site; count each truly undelivered
    // request exactly once.
    if (finals_delivered_.contains(r.packed())) return;
    if (lost_requests_.insert(r).second) {
      ++requests_lost;
      bump(lost_by_reason_, static_cast<std::size_t>(reason),
           obs::loss_reason_name(reason));
    }
  }
  void on_result_forwarded(core::SimTime, core::MhId, core::RequestId,
                           std::uint32_t, core::NodeAddress,
                           std::uint32_t attempt, bool) override {
    ++result_forwards;
    bump(forwarded_, "rdp.results.forwarded");
    if (attempt > 1) {
      ++retransmissions;
      bump(retransmitted_, "rdp.results.retransmissions");
    }
  }
  void on_result_delivered(core::SimTime t, core::MhId, core::RequestId r,
                           std::uint32_t seq, bool final, bool duplicate,
                           std::uint32_t attempt) override;
  void on_ack_forwarded(core::SimTime, core::MhId, core::RequestId,
                        std::uint32_t, bool) override {
    ++acks_forwarded;
    bump(acks_forwarded_, "rdp.acks.forwarded");
  }
  void on_update_currentloc(core::SimTime, core::MhId, core::NodeAddress,
                            core::NodeAddress) override {
    ++update_currentloc;
    bump(update_currentloc_, "rdp.update_currentloc");
  }
  void on_handoff_completed(core::SimTime, core::MhId, core::MssId,
                            core::MssId to, core::Duration latency,
                            std::size_t bytes) override {
    ++handoffs;
    handoff_latency_ms.add(latency);
    handoff_state_bytes.add(static_cast<double>(bytes));
    bump(handoffs_by_target_, to);
    if (registry_ != nullptr) {
      histogram(handoff_latency_, "rdp.handoff.latency_ms").add(latency);
      histogram(handoff_bytes_, "rdp.handoff.state_bytes")
          .add(static_cast<double>(bytes));
    }
  }
  void on_mh_registered(core::SimTime, core::MhId, core::MssId mss,
                        core::Duration latency) override {
    ++registrations;
    registration_latency_ms.add(latency);
    bump(registrations_by_mss_, mss);
  }
  void on_proxy_created(core::SimTime, core::MhId, core::NodeAddress host,
                        core::ProxyId) override {
    ++proxies_created;
    proxy_host_tally.add(host);
    bump(created_by_host_, host);
  }
  void on_proxy_deleted(core::SimTime, core::MhId, core::NodeAddress,
                        core::ProxyId, bool via_gc) override {
    ++proxies_deleted;
    if (via_gc) ++proxies_gc;
    bump(deleted_by_path_, via_gc ? 1 : 0, via_gc ? "gc" : "handshake");
  }
  void on_delproxy_with_pending(core::SimTime, core::MhId,
                                core::ProxyId) override {
    ++delproxy_with_pending;
    bump(delproxy_with_pending_, "rdp.anomalies.delproxy_with_pending");
  }
  void on_mss_crashed(core::SimTime, core::MssId mss, std::size_t,
                      std::size_t) override {
    ++mss_crashes;
    bump(crashes_by_mss_, mss);
  }
  void on_mss_restarted(core::SimTime, core::MssId mss, std::size_t) override {
    ++mss_restarts;
    bump(restarts_by_mss_, mss);
  }
  void on_proxy_restored(core::SimTime, core::MhId, core::NodeAddress host,
                         core::ProxyId) override {
    ++proxies_restored;
    bump(restored_by_host_, host);
  }
  void on_request_reissued(core::SimTime, core::MhId, core::RequestId,
                           int) override {
    ++requests_reissued;
    bump(reissued_, "rdp.requests.reissued");
  }
  void on_backup_promoted(core::SimTime, core::MssId primary, core::MssId,
                          std::size_t adopted) override {
    ++backup_promotions;
    proxies_adopted += adopted;
    bump(promotions_by_primary_, primary);
    if (adopted > 0) bump(adopted_, "rdp.replication.proxies_adopted", adopted);
  }
  void on_mss_departed(core::SimTime, core::MssId mss,
                       std::uint64_t epoch) override {
    ++mss_departures;
    membership_epoch = epoch;
    bump(departures_by_mss_, mss);
    set_epoch_gauge(epoch);
  }
  void on_mss_rejoined(core::SimTime, core::MssId mss,
                       std::uint64_t epoch) override {
    ++mss_rejoins;
    membership_epoch = epoch;
    bump(rejoins_by_mss_, mss);
    set_epoch_gauge(epoch);
  }
  void on_primary_demoted(core::SimTime, core::MssId mss,
                          std::size_t dropped) override {
    ++primary_demotions;
    bump(demotions_by_mss_, mss);
    if (dropped > 0) bump(demoted_, "rdp.membership.proxies_demoted", dropped);
  }

 private:
  using Counter = obs::MetricsRegistry::Counter;

  // A counter family with one label.  Handles are indexed by a small
  // number (an id's value + 1, slot 0 holding the invalid id; or an enum)
  // and resolved on that key's first bump.
  struct LabeledCounters {
    const char* name;
    const char* label;
    std::vector<Counter*> handles;
  };

  void bump(Counter*& handle, const char* name, std::uint64_t by = 1) {
    if (registry_ == nullptr) return;
    if (handle == nullptr) handle = &registry_->counter(name);
    handle->increment(by);
  }
  template <typename Render>
  void bump(LabeledCounters& family, std::size_t key, Render render) {
    if (registry_ == nullptr) return;
    if (key >= family.handles.size()) family.handles.resize(key + 1);
    Counter*& handle = family.handles[key];
    if (handle == nullptr) {
      handle = &registry_->counter(family.name, {{family.label, render()}});
    }
    handle->increment();
  }
  void bump(LabeledCounters& family, std::size_t key, const char* value) {
    bump(family, key, [value] { return std::string(value); });
  }
  template <typename Tag>
  void bump(LabeledCounters& family, common::Id<Tag> id) {
    bump(family, id.valid() ? std::size_t{id.value()} + 1 : 0,
         [id] { return id.str(); });
  }
  stats::Histogram& histogram(stats::Histogram*& handle, const char* name) {
    if (handle == nullptr) handle = &registry_->histogram(name);
    return *handle;
  }
  void set_epoch_gauge(std::uint64_t epoch) {
    if (registry_ == nullptr) return;
    if (epoch_gauge_ == nullptr) {
      epoch_gauge_ = &registry_->gauge("rdp.rering.epoch");
    }
    epoch_gauge_->set(static_cast<double>(epoch));
  }

  obs::MetricsRegistry* registry_ = nullptr;
  Counter* issued_ = nullptr;
  Counter* completed_ = nullptr;
  Counter* forwarded_ = nullptr;
  Counter* retransmitted_ = nullptr;
  Counter* acks_forwarded_ = nullptr;
  Counter* update_currentloc_ = nullptr;
  Counter* delproxy_with_pending_ = nullptr;
  Counter* reissued_ = nullptr;
  Counter* duplicates_ = nullptr;
  Counter* delivered_ = nullptr;
  Counter* adopted_ = nullptr;
  Counter* demoted_ = nullptr;
  LabeledCounters lost_by_reason_{"rdp.requests.lost", "reason", {}};
  LabeledCounters handoffs_by_target_{"rdp.handoffs", "to", {}};
  LabeledCounters registrations_by_mss_{"rdp.registrations", "mss", {}};
  LabeledCounters created_by_host_{"rdp.proxies.created", "host", {}};
  LabeledCounters deleted_by_path_{"rdp.proxies.deleted", "via", {}};
  LabeledCounters crashes_by_mss_{"rdp.mss.crashes", "mss", {}};
  LabeledCounters restarts_by_mss_{"rdp.mss.restarts", "mss", {}};
  LabeledCounters restored_by_host_{"rdp.proxies.restored", "host", {}};
  LabeledCounters promotions_by_primary_{"rdp.replication.promotions",
                                         "primary", {}};
  LabeledCounters departures_by_mss_{"rdp.membership.departures", "mss", {}};
  LabeledCounters rejoins_by_mss_{"rdp.membership.rejoins", "mss", {}};
  LabeledCounters demotions_by_mss_{"rdp.membership.demotions", "mss", {}};
  stats::Histogram* handoff_latency_ = nullptr;
  stats::Histogram* handoff_bytes_ = nullptr;
  stats::Histogram* delivery_latency_ = nullptr;
  obs::MetricsRegistry::Gauge* epoch_gauge_ = nullptr;

  // Keyed by RequestId::packed().
  common::FlatMap<core::SimTime> issue_time_;
  common::FlatMap<common::NoValue> finals_delivered_;
  std::set<core::RequestId> lost_requests_;  // touched only by losses
  std::uint64_t requests_completed_at_mh_ = 0;

 public:
  [[nodiscard]] std::uint64_t requests_completed_at_mh() const {
    return requests_completed_at_mh_;
  }
};

}  // namespace rdp::harness
