// Scenario builder: a fully wired RDP world on the single kernel.
//
// Owns the simulation kernel, both networks (with optional causal layer),
// the directory, N Mss's (one cell each, matching the paper's model), M
// application servers and K mobile hosts, plus the counter registry and the
// observer fan-out all entities report into.  Its observability consumers
// are one harness::Instruments, the same set ShardedWorld builds, fed live
// by one send observer on the wired network and one frame observer on the
// radio.  Tests, examples and benchmarks build a World, drive the mobile
// hosts, and read the metrics.
#pragma once

#include <memory>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/wire_tap.h"
#include "causal/causal_layer.h"
#include "core/checkpoint.h"
#include "core/directory.h"
#include "core/mobile_host.h"
#include "core/mss.h"
#include "core/runtime.h"
#include "core/server.h"
#include "harness/instruments.h"
#include "net/wired.h"
#include "net/wireless.h"
#include "obs/cost_ledger.h"
#include "obs/telemetry.h"
#include "replication/membership.h"
#include "replication/replication.h"
#include "sim/simulator.h"
#include "stats/counters.h"

namespace rdp::harness {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  int num_mss = 4;
  int num_mh = 8;
  int num_servers = 1;
  bool causal_order = true;  // paper assumption 1 (E6 ablates)
  // Fault-tolerance extension: give every Mss simulated stable storage so
  // proxies survive a crash (see src/fault and core::ProxyCheckpointStore).
  bool proxy_checkpointing = false;
  core::ProxyCheckpointStore::Config checkpoint;
  // Primary/backup replication extension (src/replication): when the mode
  // is not kOff and the world has >= 2 Mss's, each Mss replicates its
  // proxies along a chain of the k next Mss's in id-ring order and a crash
  // fails over to the first live chain member without waiting for restart.
  // A MembershipService watches crashes/restarts, declares long-dead Mss's
  // departed and repairs the ring (PROTOCOL.md §8).
  replication::ReplicationConfig replication;
  // Observability: invariant auditing + flight recorder are on by default;
  // span tracing and periodic metrics sampling are opt-in.  The world's
  // Instruments derive the auditor's rule allowances from the ablation
  // flags above (e.g. causal_order=false permits result reordering), so
  // scenarios only need to touch this for the opt-in pieces.
  obs::TelemetryConfig telemetry;
  // Wire-level byte/energy accounting (off by default: it meters every
  // frame).  When enabled both networks feed one obs::CostLedger, the one
  // source of per-type wired message counts and per-Mh energy; it mirrors
  // run-level totals into telemetry().registry() as the rdp.cost.* counters
  // and the rdp.energy.spent_total / rdp.energy.remaining_min gauges.
  obs::CostConfig cost;
  // Passive wire analyzer (off by default: it re-encodes and decodes every
  // frame).  When enabled an analyzer::WireTap sees both networks and the
  // second, wire-derived conformance checker runs alongside the invariant
  // auditor (docs/PROTOCOL.md §12).
  analyzer::AnalyzerConfig analyzer;
  net::WiredConfig wired;
  net::WirelessConfig wireless;
  core::RdpConfig rdp;
  core::Server::Config server;
};

class World {
 public:
  explicit World(ScenarioConfig config);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const ScenarioConfig& config() const { return config_; }

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] core::Runtime& runtime() { return *runtime_; }
  [[nodiscard]] core::Directory& directory() { return directory_; }
  [[nodiscard]] stats::CounterRegistry& counters() { return counters_; }
  [[nodiscard]] core::ObserverList& observers() { return observers_; }
  [[nodiscard]] net::WiredNetwork& wired() { return wired_; }
  [[nodiscard]] net::WirelessChannel& wireless() { return wireless_; }
  [[nodiscard]] common::Rng& rng() { return rng_; }
  // Null when the scenario disabled causal ordering.
  [[nodiscard]] causal::CausalLayer* causal() { return causal_.get(); }
  // The wired transport the protocol entities actually send through: the
  // causal layer when enabled, the raw network otherwise.  Tests injecting
  // crafted wire messages must use this, not wired(), or the causal shims
  // will receive an unwrapped payload.
  [[nodiscard]] net::WiredTransport& transport() { return transport_; }
  // Null unless the scenario enabled proxy_checkpointing.
  [[nodiscard]] core::ProxyCheckpointStore* checkpoint_store() {
    return checkpoint_store_.get();
  }
  // Null unless the scenario enabled replication (mode != kOff).
  [[nodiscard]] replication::Replicator* replicator(int i) {
    return replicators_.empty() ? nullptr : replicators_.at(i).get();
  }
  // Null unless the scenario enabled replication (mode != kOff).
  [[nodiscard]] replication::MembershipService* membership() {
    return membership_.get();
  }
  // Observability bundle (always present; individual components follow
  // config().telemetry).  Per-type wired message counts are the cost
  // ledger's (cost_ledger()->wired_message_counts()), not a registry series.
  [[nodiscard]] obs::Telemetry& telemetry() {
    return instruments_.telemetry();
  }
  // Null unless the scenario enabled cost accounting (config().cost).
  [[nodiscard]] obs::CostLedger* cost_ledger() {
    return instruments_.cost_ledger();
  }
  // Null unless the scenario enabled the passive wire analyzer
  // (config().analyzer).
  [[nodiscard]] analyzer::Analyzer* wire_analyzer() {
    return instruments_.wire_analyzer();
  }
  [[nodiscard]] analyzer::WireTap* analyzer_tap() {
    return instruments_.analyzer_tap();
  }

  [[nodiscard]] int num_mss() const { return static_cast<int>(msses_.size()); }
  [[nodiscard]] core::Mss& mss(int i) { return *msses_.at(i); }
  [[nodiscard]] core::MobileHostAgent& mh(int i) { return *mhs_.at(i); }
  [[nodiscard]] core::Server& server(int i) { return *servers_.at(i); }
  [[nodiscard]] common::CellId cell(int i) const {
    return common::CellId(static_cast<std::uint32_t>(i));
  }
  [[nodiscard]] common::NodeAddress server_address(int i) {
    return servers_.at(i)->address();
  }

  // Find the Mss hosting the given wired address (for assertions).
  [[nodiscard]] core::Mss* mss_at(common::NodeAddress address);

  // Install a custom server (e.g. a tis::TrafficServer).  The factory gets
  // the runtime, a fresh id/address and a forked rng; the world attaches
  // the result to the wired transport and keeps ownership.
  core::Server& add_server(
      const std::function<std::unique_ptr<core::Server>(
          core::Runtime&, common::ServerId, common::NodeAddress,
          common::Rng)>& factory);

  // Convenience: run the simulation for `duration` of virtual time.
  void run_for(common::Duration duration) {
    simulator_.run_until(simulator_.now() + duration);
  }
  // Run until the event queue drains (all protocol activity quiesced).
  void run_to_quiescence() { simulator_.run(); }

 private:
  ScenarioConfig config_;
  sim::Simulator simulator_;
  common::Rng rng_;
  net::WiredNetwork wired_;
  std::unique_ptr<causal::CausalLayer> causal_;
  net::WiredTransport& transport_;
  net::WirelessChannel wireless_;
  core::Directory directory_;
  stats::CounterRegistry counters_;
  core::ObserverList observers_;
  Instruments instruments_;
  std::unique_ptr<core::Runtime> runtime_;
  std::unique_ptr<core::ProxyCheckpointStore> checkpoint_store_;
  std::vector<std::unique_ptr<core::Mss>> msses_;
  std::vector<std::unique_ptr<replication::Replicator>> replicators_;
  std::unique_ptr<replication::MembershipService> membership_;
  std::vector<std::unique_ptr<core::Server>> servers_;
  std::vector<std::unique_ptr<core::MobileHostAgent>> mhs_;
};

}  // namespace rdp::harness
