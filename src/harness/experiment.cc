#include "harness/experiment.h"

#include "harness/sharded_world.h"
#include "obs/profiler.h"
#include "stats/fairness.h"

#include <iostream>
#include <memory>

namespace rdp::harness {
namespace {

// Installs the profiler's control accumulator on the driving thread for the
// duration of the workload, so barrier-time work (outbox drains, observer
// buffer replay) lands in its own tree instead of vanishing.  A no-op when
// `profiler` is null.
struct ScopedControlAccumulator {
  explicit ScopedControlAccumulator(obs::Profiler* profiler)
      : active(profiler != nullptr) {
    if (active) prev = obs::prof::exchange_accumulator(profiler->control());
  }
  ~ScopedControlAccumulator() {
    if (active) (void)obs::prof::exchange_accumulator(prev);
  }
  ScopedControlAccumulator(const ScopedControlAccumulator&) = delete;
  ScopedControlAccumulator& operator=(const ScopedControlAccumulator&) =
      delete;
  obs::prof::Accumulator* prev = nullptr;
  bool active = false;
};

// Shared tail of the profiled runs: rdp.prof.* gauges into the registry
// (before the CSV sample), spans onto the trace (before the trace write),
// then the folded-stack file and the caller's report.
void export_profile(const obs::Profiler& profiler,
                    const ExperimentParams& params, obs::Telemetry& telemetry) {
  profiler.export_metrics(telemetry.registry());
  if (obs::SpanTracer* tracer = telemetry.tracer()) {
    profiler.emit_trace_spans(*tracer);
  }
  if (!params.profile_folded_out.empty() &&
      !profiler.write_folded(params.profile_folded_out)) {
    std::cerr << "experiment: failed to write folded stacks to "
              << params.profile_folded_out << "\n";
  }
  if (params.profile_report != nullptr) {
    *params.profile_report = profiler.report();
  }
}

std::unique_ptr<workload::MobilityModel> make_mobility(
    const ExperimentParams& params, const workload::CellTopology& topology) {
  switch (params.mobility) {
    case MobilityKind::kStatic:
      return std::make_unique<workload::StaticMobility>(topology);
    case MobilityKind::kRandomWalk:
      return std::make_unique<workload::RandomWalkMobility>(topology,
                                                            params.mean_dwell);
    case MobilityKind::kUniformJump:
      return std::make_unique<workload::UniformJumpMobility>(
          topology, params.mean_dwell);
    case MobilityKind::kPingPong:
      return std::make_unique<workload::PingPongMobility>(topology,
                                                          params.mean_dwell);
  }
  RDP_CHECK(false, "unknown mobility kind");
}

workload::WorkloadParams make_workload(const ExperimentParams& params) {
  workload::WorkloadParams wl;
  wl.travel_time = params.travel_time;
  wl.mean_request_interval = params.mean_request_interval;
  wl.request_body = params.request_body;
  wl.mean_active = params.mean_active;
  wl.mean_inactive = params.mean_inactive;
  wl.loss = params.loss;
  return wl;
}

// Installs the correlated-loss shaper on the world's wireless channel.  The
// shaper draws from a dedicated seed stream (not world.rng()) so enabling a
// profile does not shift the driver RNG forks — the workload schedule stays
// identical to a clean run of the same seed.
template <typename World>
std::unique_ptr<workload::LossShaper> make_loss_shaper(
    World& world, const ExperimentParams& params) {
  if (params.loss.profile == workload::LossProfile::kClean) return nullptr;
  return std::make_unique<workload::LossShaper>(
      world.simulator(), world.wireless(),
      common::Rng(params.seed ^ 0x5bf0a8b1451b54e9ull), params.loss);
}

// Everything shared between the RDP and baseline runs.  Wire accounting
// comes from the world's cost ledger (the single accounting path for all
// byte numbers), not from a bench-local tally.
template <typename World, typename Host>
void drive(World& world, const ExperimentParams& params,
           MetricsCollector& metrics, ExperimentResult& result) {
  world.observers().add(&metrics);

  const workload::CellTopology topology =
      workload::CellTopology::grid(params.grid_width, params.grid_height);
  const workload::WorkloadParams wl = make_workload(params);

  std::vector<common::NodeAddress> servers;
  for (int i = 0; i < params.num_servers; ++i) {
    servers.push_back(world.server_address(i));
  }

  // Per-Mh mobility instances: models can be stateful (PingPongMobility
  // remembers its home), so each driver owns its own.
  std::vector<std::unique_ptr<workload::MobilityModel>> mobilities;
  std::vector<std::unique_ptr<workload::HostDriver<Host>>> drivers;
  drivers.reserve(params.num_mh);
  for (int i = 0; i < params.num_mh; ++i) {
    mobilities.push_back(make_mobility(params, topology));
    drivers.push_back(std::make_unique<workload::HostDriver<Host>>(
        world.simulator(), world.mh(i), *mobilities.back(), world.rng().fork(),
        wl, servers));
    drivers.back()->start();
  }
  world.run_for(params.sim_time);
  for (auto& driver : drivers) driver->stop();
  world.run_for(params.drain_time);

  for (auto& driver : drivers) {
    result.migrations += driver->migrations();
    result.reactivations += driver->reactivations();
  }
}

void collect_common(const MetricsCollector& metrics,
                    const obs::CostLedger& ledger,
                    std::uint64_t wired_messages, std::uint64_t wired_bytes,
                    const stats::CounterRegistry& counters,
                    ExperimentResult& result) {
  result.requests_issued = metrics.requests_issued;
  result.requests_completed = metrics.requests_completed_at_mh();
  result.requests_lost = metrics.requests_lost;
  result.results_delivered = metrics.results_delivered;
  result.app_duplicates = metrics.app_duplicates;
  result.retransmissions = metrics.retransmissions;
  result.result_forwards = metrics.result_forwards;
  result.delivery_ratio = metrics.delivery_ratio();
  result.mean_latency_ms = metrics.delivery_latency_ms.mean();
  result.p50_latency_ms = metrics.delivery_latency_ms.p50();
  result.p90_latency_ms = metrics.delivery_latency_ms.p90();
  result.p95_latency_ms = metrics.delivery_latency_ms.percentile(0.95);
  result.p99_latency_ms = metrics.delivery_latency_ms.p99();
  result.handoffs = metrics.handoffs;
  result.update_currentloc = metrics.update_currentloc;
  result.acks_forwarded = metrics.acks_forwarded;
  result.mean_handoff_ms = metrics.handoff_latency_ms.mean();
  result.mean_handoff_bytes = metrics.handoff_state_bytes.mean();
  result.proxies_created = metrics.proxies_created;
  result.delproxy_with_pending = metrics.delproxy_with_pending;
  result.wired_messages = wired_messages;
  result.wired_bytes = wired_bytes;
  RDP_CHECK(ledger.wired_bytes() == result.wired_bytes,
            "cost ledger disagrees with the wired network's byte counter");
  result.wired_by_type = ledger.wired_message_counts();
  result.cost = ledger.summary();
  result.counters = counters.all();
  result.stale_acks = counters.get("mss.stale_ack_dropped");
  result.requests_dropped_preproxy =
      counters.get("mss.stale_request_dropped");
}

}  // namespace

ExperimentResult run_rdp_experiment(const ExperimentParams& params) {
  ScenarioConfig config;
  config.seed = params.seed;
  config.num_mss = params.num_mss();
  config.num_mh = params.num_mh;
  config.num_servers = params.num_servers;
  config.causal_order = params.causal_order;
  config.replication = params.replication;
  config.proxy_checkpointing = params.proxy_checkpointing;
  config.wired = params.wired;
  config.wireless = params.wireless;
  config.rdp = params.rdp;
  config.server.base_service_time = params.service_time;
  config.server.service_jitter = params.service_jitter;
  config.telemetry.trace = !params.trace_out.empty();
  config.telemetry.metrics_period = params.metrics_period;
  config.cost.enabled = true;
  config.cost.energy = params.energy;
  config.analyzer.enabled = params.analyzer;

  World world(config);
  // Destroyed before `world`; nothing runs the kernel after that, so the
  // accumulator pointer left on the simulator never dangles into a run.
  std::unique_ptr<obs::Profiler> profiler;
  if (params.profile) {
    profiler = std::make_unique<obs::Profiler>();
    world.simulator().set_prof_accumulator(profiler->accumulator(0));
    profiler->enable_alloc_tracking();
  }
  // Destroyed before `world`, which clears the channel's drop filter.
  const std::unique_ptr<workload::LossShaper> loss_shaper =
      make_loss_shaper(world, params);
  // Mirror the experiment metrics into the world's registry so the CSV
  // export carries the labeled breakdowns alongside the wire counters.
  MetricsCollector metrics(&world.telemetry().registry());
  ExperimentResult result;
  // Declared after `world` so hook state (fault injectors, probes) is torn
  // down before the world it references.
  std::shared_ptr<void> hook_state;
  if (params.rdp_world_hook) hook_state = params.rdp_world_hook(world);
  drive<World, core::MobileHostAgent>(world, params, metrics, result);
  collect_common(metrics, *world.cost_ledger(), world.wired().messages_sent(),
                 world.wired().bytes_sent(), world.counters(), result);
  result.kernel_events = world.simulator().executed_events();
  if (world.causal() != nullptr) {
    result.causal_delayed = world.causal()->delayed_total();
  }
  if (const obs::InvariantAuditor* auditor = world.telemetry().auditor()) {
    result.invariant_violations = auditor->violations().size();
  }
  if (analyzer::Analyzer* wire_analyzer = world.wire_analyzer()) {
    // Finalize before the metrics export below so the rdp.analyzer.*
    // series carries the resolved (post-parking) totals.
    wire_analyzer->finalize();
    result.analyzer_violations = wire_analyzer->violations().size();
    result.analyzer_events = wire_analyzer->events_total();
    result.analyzer_decode_errors = wire_analyzer->decode_errors();
    if (!params.analyzer_out.empty() &&
        !wire_analyzer->write_jsonl(params.analyzer_out)) {
      std::cerr << "experiment: failed to write analyzer events to "
                << params.analyzer_out << "\n";
    }
  }
  if (profiler) export_profile(*profiler, params, world.telemetry());
  if (!params.trace_out.empty() &&
      !world.telemetry().write_trace_json(params.trace_out)) {
    std::cerr << "experiment: failed to write trace to " << params.trace_out
              << "\n";
  }
  if (!params.metrics_out.empty()) {
    // Close the series with one final sample so a zero-period run still
    // exports the end-state values.
    world.telemetry().registry().sample_now(world.simulator().now());
    if (!world.telemetry().write_metrics_csv(params.metrics_out)) {
      std::cerr << "experiment: failed to write metrics to "
                << params.metrics_out << "\n";
    }
  }

  // Proxy placement across Mss's (E5): include zero entries for Mss's that
  // never hosted a proxy, otherwise the fairness index flatters skew.
  std::vector<double> placement;
  for (int i = 0; i < world.num_mss(); ++i) {
    placement.push_back(static_cast<double>(
        metrics.proxy_host_tally.get(world.mss(i).address())));
  }
  result.placement_jain = stats::jain_fairness(placement);
  result.placement_max_to_mean = stats::max_to_mean(placement);
  return result;
}

ExperimentResult run_sharded_rdp_experiment(const ExperimentParams& params) {
  RDP_CHECK(params.replication.mode == replication::Mode::kOff,
            "replication is a single-kernel feature");
  RDP_CHECK(!params.proxy_checkpointing,
            "proxy checkpointing is a single-kernel feature");
  RDP_CHECK(!params.rdp_world_hook,
            "rdp_world_hook targets the single-kernel World");
  RDP_CHECK(params.loss.profile == workload::LossProfile::kClean,
            "correlated loss profiles are a single-kernel feature");

  ShardedScenarioConfig config;
  config.base.seed = params.seed;
  config.base.num_mss = params.num_mss();
  config.base.num_mh = params.num_mh;
  config.base.num_servers = params.num_servers;
  config.base.causal_order = params.causal_order;
  config.base.wired = params.wired;
  config.base.wireless = params.wireless;
  config.base.rdp = params.rdp;
  config.base.server.base_service_time = params.service_time;
  config.base.server.service_jitter = params.service_jitter;
  config.base.telemetry.trace = !params.trace_out.empty();
  config.base.telemetry.metrics_period = params.metrics_period;
  config.base.cost.enabled = true;
  config.base.cost.energy = params.energy;
  config.base.analyzer.enabled = params.analyzer;
  config.shards = params.shards;
  config.threads = params.shard_threads;
  // Mode is kOff (checked above); the churn machinery reads the timing
  // knobs (departure_threshold) and chain length from the same config.
  config.base.replication = params.replication;
  config.backup_k = params.backup_k;
  for (const ExperimentParams::ChurnEvent& event : params.membership_churn) {
    config.membership_churn.push_back({event.at, event.mss, event.up});
  }

  const workload::CellTopology topology =
      workload::CellTopology::grid(params.grid_width, params.grid_height);
  // Per-Mh mobility instances: models can be stateful (PingPongMobility
  // remembers its home), so each driver owns its own, and the home cells —
  // which pin each Mh to a shard and must exist before the world — come
  // from a dedicated RNG stream consumed in Mh order.
  std::vector<std::unique_ptr<workload::MobilityModel>> mobilities;
  common::Rng home_rng(params.seed ^ 0xc3a5c85c97cb3127ull);
  for (int i = 0; i < params.num_mh; ++i) {
    mobilities.push_back(make_mobility(params, topology));
    config.mh_home_cells.push_back(mobilities.back()->initial_cell(home_rng));
  }

  ShardedWorld world(config);
  std::unique_ptr<obs::Profiler> profiler;
  if (params.profile) {
    profiler = std::make_unique<obs::Profiler>();
    for (int s = 0; s < world.kernel().shards(); ++s) {
      world.shard_simulator(s).set_prof_accumulator(profiler->accumulator(s));
    }
    world.kernel().set_profiling(true);
    profiler->enable_alloc_tracking();
  }
  MetricsCollector metrics(&world.telemetry().registry());
  world.observers().add(&metrics);
  ExperimentResult result;

  const workload::WorkloadParams wl = make_workload(params);
  std::vector<common::NodeAddress> servers;
  for (int i = 0; i < params.num_servers; ++i) {
    servers.push_back(world.server_address(i));
  }

  // Drivers live on their Mh's home shard; RNG forks are drawn in Mh order
  // so each driver's stream is independent of the shard layout.
  std::vector<
      std::unique_ptr<workload::HostDriver<core::MobileHostAgent>>>
      drivers;
  drivers.reserve(params.num_mh);
  for (int i = 0; i < params.num_mh; ++i) {
    drivers.push_back(
        std::make_unique<workload::HostDriver<core::MobileHostAgent>>(
            world.shard_simulator(world.home_shard(i)), world.mh(i),
            *mobilities[i], world.rng().fork(), wl, servers));
    drivers.back()->set_initial_cell(world.home_cell(i));
    // Driver cascades end in the Mh agent, which only sends over the
    // radio: tag the timers so the sharded kernel can widen its windows.
    drivers.back()->set_reaction_bound(params.wireless.base_latency);
    drivers.back()->start();
  }
  {
    const ScopedControlAccumulator control(profiler.get());
    world.run_for(params.sim_time);
    for (auto& driver : drivers) driver->stop();
    world.run_for(params.drain_time);
  }

  for (auto& driver : drivers) {
    result.migrations += driver->migrations();
    result.reactivations += driver->reactivations();
  }

  collect_common(metrics, *world.cost_ledger(), world.wired_messages_total(),
                 world.wired_bytes_total(), world.merged_counters(), result);
  result.kernel_events = world.kernel().executed_events();
  result.causal_delayed = world.causal_delayed_total();
  if (const obs::InvariantAuditor* auditor = world.telemetry().auditor()) {
    result.invariant_violations = auditor->violations().size();
  }
  if (analyzer::Analyzer* wire_analyzer = world.wire_analyzer()) {
    wire_analyzer->finalize();
    result.analyzer_violations = wire_analyzer->violations().size();
    result.analyzer_events = wire_analyzer->events_total();
    result.analyzer_decode_errors = wire_analyzer->decode_errors();
    if (!params.analyzer_out.empty() &&
        !wire_analyzer->write_jsonl(params.analyzer_out)) {
      std::cerr << "experiment: failed to write analyzer events to "
                << params.analyzer_out << "\n";
    }
  }
  if (profiler) {
    profiler->ingest_shard_stats(world.kernel());
    export_profile(*profiler, params, world.telemetry());
  }
  if (!params.trace_out.empty() &&
      !world.telemetry().write_trace_json(params.trace_out)) {
    std::cerr << "experiment: failed to write trace to " << params.trace_out
              << "\n";
  }
  if (!params.metrics_out.empty()) {
    world.telemetry().registry().sample_now(world.kernel().now());
    if (!world.telemetry().write_metrics_csv(params.metrics_out)) {
      std::cerr << "experiment: failed to write metrics to "
                << params.metrics_out << "\n";
    }
  }

  std::vector<double> placement;
  for (int i = 0; i < world.num_mss(); ++i) {
    placement.push_back(static_cast<double>(
        metrics.proxy_host_tally.get(world.mss(i).address())));
  }
  result.placement_jain = stats::jain_fairness(placement);
  result.placement_max_to_mean = stats::max_to_mean(placement);
  return result;
}

ExperimentResult run_baseline_experiment(const ExperimentParams& params,
                                         baseline::BaselineMode mode) {
  BaselineScenarioConfig config;
  config.base.seed = params.seed;
  config.base.num_mss = params.num_mss();
  config.base.num_mh = params.num_mh;
  config.base.num_servers = params.num_servers;
  config.base.wired = params.wired;
  config.base.wireless = params.wireless;
  config.base.rdp = params.rdp;
  config.base.server.base_service_time = params.service_time;
  config.base.server.service_jitter = params.service_jitter;
  config.base.cost.enabled = true;
  config.base.cost.energy = params.energy;
  config.baseline.mode = mode;

  BaselineWorld world(config);
  const std::unique_ptr<workload::LossShaper> loss_shaper =
      make_loss_shaper(world, params);
  MetricsCollector metrics;
  ExperimentResult result;
  drive<BaselineWorld, baseline::MipHostAgent>(world, params, metrics, result);
  collect_common(metrics, *world.cost_ledger(), world.wired().messages_sent(),
                 world.wired().bytes_sent(), world.counters(), result);
  result.kernel_events = world.simulator().executed_events();

  // The baseline's completion metric: MetricsCollector's finals come from
  // on_result_delivered with final=true, which the baseline also emits, so
  // requests_completed is already correct.  Placement = home-agent tunnel
  // load across Mss's.
  std::vector<double> placement;
  std::uint64_t tunnels = 0;
  for (int i = 0; i < world.num_mss(); ++i) {
    placement.push_back(static_cast<double>(world.mss(i).tunnels_forwarded()));
    tunnels += world.mss(i).tunnels_forwarded();
  }
  if (tunnels > 0) {
    result.placement_jain = stats::jain_fairness(placement);
    result.placement_max_to_mean = stats::max_to_mean(placement);
  }
  return result;
}

}  // namespace rdp::harness
