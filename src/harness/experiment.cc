#include "harness/experiment.h"

#include "obs/profiler.h"
#include "stats/fairness.h"

#include <iostream>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

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

// The scenario every runner builds from its params.  The wire accounting
// always runs: every experiment's byte numbers come from the one ledger.
// A baseline world reads only the networks, counts, server and cost.
ScenarioConfig scenario_config(const ExperimentParams& params) {
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
  return config;
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

// What the drivers run: the grid, one mobility model per Mh (models can be
// stateful: PingPongMobility remembers its home, so each driver owns its
// own) and the drivers' workload parameters.  Building it draws no
// randomness.
struct Workload {
  explicit Workload(const ExperimentParams& p)
      : topology(workload::CellTopology::grid(p.grid_width, p.grid_height)) {
    for (int i = 0; i < p.num_mh; ++i) {
      mobilities.push_back(make_mobility(p, topology));
    }
    params.travel_time = p.travel_time;
    params.mean_request_interval = p.mean_request_interval;
    params.request_body = p.request_body;
    params.mean_active = p.mean_active;
    params.mean_inactive = p.mean_inactive;
    params.loss = p.loss;
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const workload::CellTopology topology;  // the models hold references
  std::vector<std::unique_ptr<workload::MobilityModel>> mobilities;
  workload::WorkloadParams params;
};

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

template <typename World>
using DriverFor = workload::HostDriver<
    std::remove_reference_t<decltype(std::declval<World&>().mh(0))>>;

// Driver i on a world with one kernel.
template <typename World>
std::unique_ptr<DriverFor<World>> make_driver(
    World& world, int i, const ExperimentParams&, const Workload& workload,
    const std::vector<common::NodeAddress>& servers) {
  return std::make_unique<DriverFor<World>>(
      world.simulator(), world.mh(i), *workload.mobilities[i],
      world.rng().fork(), workload.params, servers);
}

// Driver i on its Mh's home shard, starting in the Mh's home cell.  Driver
// cascades end in the Mh agent, which only sends over the radio: tag the
// timers so the sharded kernel can widen its windows.
std::unique_ptr<DriverFor<ShardedWorld>> make_driver(
    ShardedWorld& world, int i, const ExperimentParams& params,
    const Workload& workload,
    const std::vector<common::NodeAddress>& servers) {
  auto driver = std::make_unique<DriverFor<ShardedWorld>>(
      world.shard_simulator(world.home_shard(i)), world.mh(i),
      *workload.mobilities[i], world.rng().fork(), workload.params, servers);
  driver->set_initial_cell(world.home_cell(i));
  driver->set_reaction_bound(params.wireless.base_latency);
  return driver;
}

// The driver loop every runner shares: one driver per Mh, started in Mh
// order, each with the next fork of the world's RNG; then the workload, the
// drivers' stop and the drain.  With a `control` profiler the driving
// thread's barrier-time work is attributed to its control tree.
template <typename World>
void drive(World& world, const ExperimentParams& params,
           const Workload& workload, obs::Profiler* control,
           ExperimentResult& result) {
  std::vector<common::NodeAddress> servers;
  for (int i = 0; i < params.num_servers; ++i) {
    servers.push_back(world.server_address(i));
  }
  std::vector<std::unique_ptr<DriverFor<World>>> drivers;
  drivers.reserve(params.num_mh);
  for (int i = 0; i < params.num_mh; ++i) {
    drivers.push_back(make_driver(world, i, params, workload, servers));
    drivers.back()->start();
  }
  {
    const ScopedControlAccumulator scope(control);
    world.run_for(params.sim_time);
    for (auto& driver : drivers) driver->stop();
    world.run_for(params.drain_time);
  }
  for (auto& driver : drivers) {
    result.migrations += driver->migrations();
    result.reactivations += driver->reactivations();
  }
}

// Everything shared between the RDP and baseline runs.  Wire accounting
// comes from the world's cost ledger (the single accounting path for all
// byte numbers), not from a bench-local tally.
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

// --- kernel adapters ---------------------------------------------------------
//
// What run_rdp does differently on the two kernels: building the world,
// arming the profiler, the single kernel's extensions, and reading the
// network totals, counters, kernel and shard statistics back.  Each
// adapter owns the world and everything that must be destroyed just
// before it.

// The single kernel: one event queue, so every extension runs on it.
class SingleKernel {
 public:
  static constexpr bool kSharded = false;

  explicit SingleKernel(const ExperimentParams& params)
      : params_(refuse_sharded_only(params)),
        workload_(params),
        world_(scenario_config(params)) {}

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] common::SimTime now() { return world_.simulator().now(); }

  void arm(obs::Profiler& profiler) {
    world_.simulator().set_prof_accumulator(profiler.accumulator(0));
  }
  // Installs the correlated-loss shaper and runs the caller's world hook;
  // both live until just before the world.  Runs before the metrics
  // collector joins the observers, so the hook's observers precede it.
  void prepare() {
    loss_shaper_ = make_loss_shaper(world_, params_);
    if (params_.rdp_world_hook) hook_state_ = params_.rdp_world_hook(world_);
  }
  void collect(const MetricsCollector& metrics, obs::Profiler*,
               ExperimentResult& result) {
    collect_common(metrics, *world_.cost_ledger(),
                   world_.wired().messages_sent(), world_.wired().bytes_sent(),
                   world_.counters(), result);
    result.kernel_events = world_.simulator().executed_events();
    if (world_.causal() != nullptr) {
      result.causal_delayed = world_.causal()->delayed_total();
    }
  }

 private:
  static const ExperimentParams& refuse_sharded_only(
      const ExperimentParams& params) {
    RDP_CHECK(params.membership_churn.empty(),
              "membership churn is a sharded-kernel feature");
    RDP_CHECK(params.shards == 1, "shards is a sharded-kernel parameter");
    return params;
  }

  const ExperimentParams& params_;
  Workload workload_;
  World world_;
  std::unique_ptr<workload::LossShaper> loss_shaper_;
  // Hook state (fault injectors, probes) still touches the world when it
  // is destroyed.
  std::shared_ptr<void> hook_state_;
};

// The cell-partitioned kernel.  Each Mh's home cell pins it to a shard, so
// the home cells are drawn before the world exists, from a dedicated RNG
// stream consumed in Mh order.
class ShardedKernel {
 public:
  static constexpr bool kSharded = true;

  explicit ShardedKernel(const ExperimentParams& params)
      : workload_(refuse_single_kernel_only(params)),
        world_(sharded_config(params)) {}

  [[nodiscard]] ShardedWorld& world() { return world_; }
  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] common::SimTime now() { return world_.kernel().now(); }

  void arm(obs::Profiler& profiler) {
    for (int s = 0; s < world_.kernel().shards(); ++s) {
      world_.shard_simulator(s).set_prof_accumulator(profiler.accumulator(s));
    }
    world_.kernel().set_profiling(true);
  }
  void prepare() {}
  void collect(const MetricsCollector& metrics, obs::Profiler* profiler,
               ExperimentResult& result) {
    collect_common(metrics, *world_.cost_ledger(),
                   world_.wired_messages_total(), world_.wired_bytes_total(),
                   world_.merged_counters(), result);
    result.kernel_events = world_.kernel().executed_events();
    result.causal_delayed = world_.causal_delayed_total();
    if (profiler) profiler->ingest_shard_stats(world_.kernel());
  }

 private:
  static const ExperimentParams& refuse_single_kernel_only(
      const ExperimentParams& params) {
    RDP_CHECK(params.replication.mode == replication::Mode::kOff,
              "replication is a single-kernel feature");
    RDP_CHECK(!params.proxy_checkpointing,
              "proxy checkpointing is a single-kernel feature");
    RDP_CHECK(!params.rdp_world_hook,
              "rdp_world_hook targets the single-kernel World");
    RDP_CHECK(params.loss.profile == workload::LossProfile::kClean,
              "correlated loss profiles are a single-kernel feature");
    return params;
  }

  ShardedScenarioConfig sharded_config(const ExperimentParams& params) {
    ShardedScenarioConfig config;
    // Replication's mode is kOff (refused above); the churn reads its
    // timing knobs (departure_threshold) from the same config.
    config.base = scenario_config(params);
    config.shards = params.shards;
    config.threads = params.shard_threads;
    config.backup_k = params.backup_k;
    config.membership_churn = params.membership_churn;
    common::Rng home_rng(params.seed ^ 0xc3a5c85c97cb3127ull);
    for (const auto& mobility : workload_.mobilities) {
      config.mh_home_cells.push_back(mobility->initial_cell(home_rng));
    }
    return config;
  }

  Workload workload_;
  ShardedWorld world_;
};

// The body both RDP runners share.
template <typename Kernel>
ExperimentResult run_rdp(const ExperimentParams& params) {
  Kernel kernel(params);
  auto& world = kernel.world();
  // Destroyed before the world; nothing runs the kernel after that, so the
  // accumulator pointers left on the simulators never dangle into a run.
  std::unique_ptr<obs::Profiler> profiler;
  if (params.profile) {
    profiler = std::make_unique<obs::Profiler>();
    kernel.arm(*profiler);
    profiler->enable_alloc_tracking();
  }
  // Mirror the experiment metrics into the world's registry so the CSV
  // export carries the labeled breakdowns alongside the wire counters.
  MetricsCollector metrics(&world.telemetry().registry());
  ExperimentResult result;
  kernel.prepare();
  world.observers().add(&metrics);
  drive(world, params, kernel.workload(),
        Kernel::kSharded ? profiler.get() : nullptr, result);

  kernel.collect(metrics, profiler.get(), result);
  obs::Telemetry& telemetry = world.telemetry();
  if (const obs::InvariantAuditor* auditor = telemetry.auditor()) {
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
  if (profiler) {
    // rdp.prof.* gauges into the registry (before the CSV sample), spans
    // onto the trace (before the trace write), then the folded-stack file
    // and the caller's report.
    profiler->export_metrics(telemetry.registry());
    if (obs::SpanTracer* tracer = telemetry.tracer()) {
      profiler->emit_trace_spans(*tracer);
    }
    if (!params.profile_folded_out.empty() &&
        !profiler->write_folded(params.profile_folded_out)) {
      std::cerr << "experiment: failed to write folded stacks to "
                << params.profile_folded_out << "\n";
    }
    if (params.profile_report != nullptr) {
      *params.profile_report = profiler->report();
    }
  }
  if (!params.trace_out.empty() &&
      !telemetry.write_trace_json(params.trace_out)) {
    std::cerr << "experiment: failed to write trace to " << params.trace_out
              << "\n";
  }
  if (!params.metrics_out.empty()) {
    // Close the series with one final sample so a zero-period run still
    // exports the end-state values.
    telemetry.registry().sample_now(kernel.now());
    if (!telemetry.write_metrics_csv(params.metrics_out)) {
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

}  // namespace

ExperimentResult run_rdp_experiment(const ExperimentParams& params) {
  return run_rdp<SingleKernel>(params);
}

ExperimentResult run_sharded_rdp_experiment(const ExperimentParams& params) {
  return run_rdp<ShardedKernel>(params);
}

ExperimentResult run_baseline_experiment(const ExperimentParams& params,
                                         baseline::BaselineMode mode) {
  BaselineScenarioConfig config;
  config.base = scenario_config(params);
  config.baseline.mode = mode;

  const Workload workload(params);
  BaselineWorld world(config);
  const std::unique_ptr<workload::LossShaper> loss_shaper =
      make_loss_shaper(world, params);
  MetricsCollector metrics;
  ExperimentResult result;
  world.observers().add(&metrics);
  drive(world, params, workload, nullptr, result);
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
