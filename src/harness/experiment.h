// Experiment runners shared by the benchmark binaries: run an identical
// randomized workload over the RDP stack (on the single kernel or the
// sharded one) or a baseline stack and collect the metrics every row in
// EXPERIMENTS.md is made of.
//
// All three runners build their scenario from the params the same way and
// share one driver loop.  The two RDP runners also share one body; what
// differs by kernel (building the world, arming the profiler, the features
// only one kernel runs, reading totals back) sits in a small adapter per
// kernel.  Each runner refuses, with common::InvariantViolation, a feature
// its kernel does not run rather than running without it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/mip.h"
#include "harness/baseline_world.h"
#include "harness/metrics.h"
#include "harness/sharded_world.h"
#include "harness/world.h"
#include "workload/driver.h"
#include "workload/mobility.h"
#include "workload/topology.h"

namespace rdp::obs {
struct ProfileReport;
}

namespace rdp::harness {

enum class MobilityKind { kStatic, kRandomWalk, kUniformJump, kPingPong };

struct ExperimentParams {
  std::uint64_t seed = 1;

  // Sharded kernel (run_sharded_rdp_experiment only; run_rdp_experiment
  // refuses shards != 1): number of cell-partitioned shards and worker
  // threads for window execution.  For a fixed seed the results are
  // identical across every shards/threads combination; only wall-clock
  // changes.
  int shards = 1;
  int shard_threads = 1;

  // Topology / population.
  int grid_width = 3;
  int grid_height = 3;
  int num_mh = 20;
  int num_servers = 2;

  // Timing.
  common::Duration sim_time = common::Duration::seconds(600);
  common::Duration drain_time = common::Duration::seconds(120);

  // Mobility.
  MobilityKind mobility = MobilityKind::kRandomWalk;
  common::Duration mean_dwell = common::Duration::seconds(30);
  common::Duration travel_time = common::Duration::millis(500);

  // Activity (zero disables on/off cycling).
  common::Duration mean_active = common::Duration::zero();
  common::Duration mean_inactive = common::Duration::zero();

  // Requests.
  common::Duration mean_request_interval = common::Duration::seconds(10);
  std::string request_body = "q";

  // Service.
  common::Duration service_time = common::Duration::millis(200);
  common::Duration service_jitter = common::Duration::zero();

  // Networks.
  net::WiredConfig wired;
  net::WirelessConfig wireless;
  // Correlated wireless loss on top of the WirelessConfig i.i.d. loss
  // (workload/loss.h).  Single-kernel runs only; the sharded runner
  // requires kClean.
  workload::LossShaperConfig loss;

  // Protocol knobs.
  core::RdpConfig rdp;
  bool causal_order = true;
  // Membership churn (sharded runs only; run_rdp_experiment refuses a
  // plan): crash/restart the named Mss's at virtual times.  A host down
  // past replication.departure_threshold is marked departed and its
  // backup-chain bookkeeping is ring-repaired; a departed host that
  // restarts rejoins.  Everything is applied at window barriers, so
  // results stay bit-identical across shard/thread counts.
  using ChurnEvent = ShardedScenarioConfig::ChurnEvent;
  std::vector<ChurnEvent> membership_churn;
  // Chain length for the sharded churn's ring bookkeeping.
  int backup_k = 1;
  // Primary/backup proxy replication (single-kernel RDP runs only; kOff
  // disables).
  replication::ReplicationConfig replication;
  // Proxy checkpointing to simulated stable storage (single-kernel RDP runs
  // only).
  bool proxy_checkpointing = false;

  // Wire-level cost accounting.  The harness always runs with the ledger
  // enabled — every experiment's byte numbers come from the one accounting
  // path — so only the energy model here is a knob.
  obs::EnergyConfig energy;

  // Called on the freshly built RDP world before the workload starts;
  // lets benches arm fault plans or extra probes without the harness
  // depending on src/fault.  The returned object is kept alive for the run
  // and destroyed before the world (a fault::FaultInjector's destructor
  // still touches it), so return state that must match the world's
  // lifetime.  Refused by the sharded runner; ignored by baseline runs.
  std::function<std::shared_ptr<void>(World&)> rdp_world_hook;

  // Telemetry artifacts (RDP runs only; empty path disables the export).
  std::string trace_out;    // Chrome trace-event JSON (enables span tracer)
  std::string metrics_out;  // metrics time-series CSV
  // Passive wire analyzer (RDP runs only; the conformance rules describe
  // RDP signaling, so baseline arms ignore it).  `analyzer_out` writes the
  // canonically sorted event JSONL (docs/PROTOCOL.md §12).
  bool analyzer = false;
  std::string analyzer_out;
  // Sampling period for the metrics time series; zero leaves only the
  // final counter values in the export.
  common::Duration metrics_period = common::Duration::zero();

  // Instrumentation profiler (docs/PROTOCOL.md §13; RDP runs only).  When
  // set, the run arms the probe layer — per-shard accumulators on the
  // kernel(s), the allocation hook, and the sharded kernel's busy/stall
  // accounting — and exports rdp.prof.* gauges through the metrics
  // registry, per-window spans into the Chrome trace, a collapsed-stack
  // file when `profile_folded_out` is non-empty, and the merged rollup
  // into *profile_report when non-null.  Purely observational: the
  // ExperimentResult and every protocol artifact are bit-identical with
  // profiling on or off (the neutrality tests pin this).  Requires the
  // RDP_PROFILE build (default ON); a no-op otherwise beyond the report
  // coming back empty.
  bool profile = false;
  std::string profile_folded_out;
  obs::ProfileReport* profile_report = nullptr;

  [[nodiscard]] int num_mss() const { return grid_width * grid_height; }
};

struct ExperimentResult {
  // Request path.
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;  // final result delivered at the Mh
  std::uint64_t requests_lost = 0;
  std::uint64_t results_delivered = 0;
  std::uint64_t app_duplicates = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t result_forwards = 0;
  double delivery_ratio = 0;
  double mean_latency_ms = 0;
  double p50_latency_ms = 0;
  double p90_latency_ms = 0;
  double p95_latency_ms = 0;
  double p99_latency_ms = 0;

  // Mobility / overhead.
  std::uint64_t migrations = 0;
  std::uint64_t reactivations = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t update_currentloc = 0;
  std::uint64_t acks_forwarded = 0;
  double mean_handoff_ms = 0;
  double mean_handoff_bytes = 0;

  // Proxy / agent placement (load balance).
  std::uint64_t proxies_created = 0;
  double placement_jain = 1.0;
  double placement_max_to_mean = 1.0;

  // Wire totals (from the cost ledger; wired_messages/wired_bytes are
  // cross-checked against the network's own counters).
  std::uint64_t wired_messages = 0;
  std::uint64_t wired_bytes = 0;
  std::map<std::string, std::uint64_t> wired_by_type;
  // Per-purpose-class byte/energy breakdown (§5 tables, E12).
  obs::CostSummary cost;

  // Anomaly counters (ablations).
  std::uint64_t delproxy_with_pending = 0;
  std::uint64_t stale_acks = 0;
  // Requests dropped before reaching a proxy (in-flight during a hand-off;
  // request-side reliability is QRPC's job per §4, not RDP's).
  std::uint64_t requests_dropped_preproxy = 0;
  // Messages the causal layer had to buffer to preserve causal order.
  std::uint64_t causal_delayed = 0;

  // Online invariant audit (RDP runs; 0 on a clean run).
  std::uint64_t invariant_violations = 0;

  // Passive wire analyzer (RDP runs with params.analyzer; all zero
  // otherwise).  Violations are 0 on a clean run by the same contract as
  // the auditor; events counts lifecycle transitions + summaries too.
  std::uint64_t analyzer_violations = 0;
  std::uint64_t analyzer_events = 0;
  std::uint64_t analyzer_decode_errors = 0;

  // Events executed by the simulation kernel over the whole run; divided by
  // wall time this is the kernel throughput the scalability bench reports.
  std::uint64_t kernel_events = 0;

  // Raw counter snapshot for ad-hoc queries.
  std::map<std::string, std::uint64_t> counters;
};

// Runs the workload over the full RDP stack on the single kernel.
// membership_churn and shards are sharded-kernel parameters and must be
// unset.
ExperimentResult run_rdp_experiment(const ExperimentParams& params);

// Runs the workload over the RDP stack on the cell-partitioned sharded
// kernel (params.shards / params.shard_threads).  Replication, proxy
// checkpointing, rdp_world_hook and correlated loss profiles are
// single-kernel features and must be unset.  For a fixed seed the result
// is bit-identical across all shard/thread counts.
ExperimentResult run_sharded_rdp_experiment(const ExperimentParams& params);

// Runs the identical workload over a baseline stack.
ExperimentResult run_baseline_experiment(const ExperimentParams& params,
                                         baseline::BaselineMode mode);

}  // namespace rdp::harness
