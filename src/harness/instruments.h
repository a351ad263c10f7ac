// The observability consumers a world owns, built once for both kernels.
//
// An Instruments object holds the telemetry bundle (flight recorder, span
// tracer, invariant auditor, metrics registry), the cost ledger and the
// passive wire analyzer with its tap, each selected by the ScenarioConfig.
// Per-type wired message counts come from the ledger alone
// (CostLedger::wired_message_counts); the registry keeps no per-type
// series of its own.  The world feeds the instruments through two entry
// points: every wired send and every radio frame.  World calls them from
// its networks' observers as things happen; ShardedWorld calls them from
// the shard-tap merger's canonical replay at observer barriers.
// Destroying the instruments reports any auditor or analyzer violations
// on stderr.
//
// It lives in the harness, not in src/obs, because the analyzer library
// itself depends on src/obs.
#pragma once

#include <memory>

#include "analyzer/analyzer.h"
#include "analyzer/wire_tap.h"
#include "core/directory.h"
#include "core/events.h"
#include "net/message.h"
#include "net/wireless.h"
#include "obs/cost_ledger.h"
#include "obs/telemetry.h"

namespace rdp::harness {

struct ScenarioConfig;

class Instruments {
 public:
  // Attaches the telemetry observers to `observers`, which must outlive
  // the instruments' last event.  `world_name` names the world in the
  // teardown report.
  Instruments(const ScenarioConfig& config, const core::Directory& directory,
              core::ObserverList& observers, const char* world_name);
  ~Instruments();

  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  [[nodiscard]] obs::Telemetry& telemetry() { return telemetry_; }
  // Null unless the scenario enabled cost accounting.
  [[nodiscard]] obs::CostLedger* cost_ledger() { return cost_ledger_.get(); }
  // Both null unless the scenario enabled the wire analyzer.
  [[nodiscard]] analyzer::Analyzer* wire_analyzer() { return analyzer_.get(); }
  [[nodiscard]] analyzer::WireTap* analyzer_tap() { return tap_.get(); }

  void on_wired_send(const net::Envelope& envelope);
  // `at` is the frame's emission time.
  void on_wireless_frame(common::SimTime at, common::MhId mh,
                         const net::PayloadPtr& payload, bool uplink,
                         net::FramePhase phase);

 private:
  obs::Telemetry telemetry_;
  std::unique_ptr<obs::CostLedger> cost_ledger_;
  std::unique_ptr<analyzer::Analyzer> analyzer_;
  std::unique_ptr<analyzer::WireTap> tap_;
  const char* world_name_;
};

}  // namespace rdp::harness
