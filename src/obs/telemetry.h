// Telemetry bundle: one object wiring the observability pieces together.
//
// A Telemetry owns a MetricsRegistry plus the three observer components —
// flight recorder, span tracer, invariant auditor — selected by its config,
// and attaches them to a World's ObserverList in one call.  The attach
// order matters: the flight recorder sees every event before the auditor
// does, so a violation's dump already contains the event that tripped it.
//
// The registry's periodic sampling is driven by an internal event tap (an
// observer that calls maybe_sample on every protocol event) instead of a
// self-rescheduling simulator timer, which would keep the event queue
// non-empty forever and break run_to_quiescence().
#pragma once

#include <memory>
#include <string>

#include "common/time.h"
#include "core/events.h"
#include "obs/flight_recorder.h"
#include "obs/invariant_auditor.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"

namespace rdp::core {
class Directory;
}

namespace rdp::obs {

struct TelemetryConfig {
  // Online invariant auditing (on by default).  Its handlers hold ≈4% of
  // a profile's samples on the campus_causal and lossy_arq benchmark
  // workloads and ≈1% on metro_sharded (EXPERIMENTS.md M1).  The harness
  // derives the rule allowances from the scenario's ablation flags before
  // constructing the auditor.
  bool audit = true;
  InvariantAuditor::Config audit_rules;

  // Last-N event tail for post-mortems (cheap; on by default).
  bool flight_recorder = true;
  std::size_t flight_recorder_capacity = 512;

  // Span tracer (off by default: retains every span for the run).
  bool trace = false;

  // Periodic time-series snapshots of every counter/gauge in the registry
  // on the sim clock; zero disables sampling.
  common::Duration metrics_period = common::Duration::zero();
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config,
                     const core::Directory* directory = nullptr);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // Register the enabled components on an observer fan-out.  The Telemetry
  // must outlive `observers` (ObserverList holds raw pointers).
  void attach(core::ObserverList& observers);

  [[nodiscard]] const TelemetryConfig& config() const { return config_; }
  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }
  // Null when the corresponding component is disabled.
  [[nodiscard]] FlightRecorder* flight_recorder() { return recorder_.get(); }
  [[nodiscard]] SpanTracer* tracer() { return tracer_.get(); }
  [[nodiscard]] InvariantAuditor* auditor() { return auditor_.get(); }

  // Export helpers; return false (and log) when the file cannot be opened
  // or the component is disabled.
  bool write_trace_json(const std::string& path) const;
  bool write_metrics_csv(const std::string& path) const;
  bool write_metrics_json(const std::string& path) const;

 private:
  // Feeds the registry's sim-clock sampler from the event stream.  The
  // mask fixes which kinds may close a sampling period, and so the sample
  // rows a run exports.
  class EventTap final : public core::RdpObserver {
   public:
    explicit EventTap(MetricsRegistry& registry) : registry_(registry) {}

    [[nodiscard]] std::uint32_t hook_mask() const override {
      using core::Hook;
      using core::hook_bit;
      return hook_bit(Hook::kProxyCreated) | hook_bit(Hook::kProxyDeleted) |
             hook_bit(Hook::kRequestIssued) |
             hook_bit(Hook::kRequestReachedProxy) |
             hook_bit(Hook::kResultAtProxy) |
             hook_bit(Hook::kResultForwarded) |
             hook_bit(Hook::kResultDelivered) | hook_bit(Hook::kAckForwarded) |
             hook_bit(Hook::kRequestCompleted) | hook_bit(Hook::kRequestLost) |
             hook_bit(Hook::kHandoffStarted) |
             hook_bit(Hook::kHandoffCompleted) |
             hook_bit(Hook::kUpdateCurrentloc) |
             hook_bit(Hook::kMhRegistered) | hook_bit(Hook::kMssCrashed) |
             hook_bit(Hook::kMssRestarted);
    }
    void on_event(const core::Event& event) override {
      registry_.maybe_sample(event.at);
    }

   private:
    MetricsRegistry& registry_;
  };

  TelemetryConfig config_;
  MetricsRegistry registry_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<SpanTracer> tracer_;
  std::unique_ptr<InvariantAuditor> auditor_;
  EventTap tap_;
};

}  // namespace rdp::obs
