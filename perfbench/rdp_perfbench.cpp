// The repository benchmark's measuring program (perfbench/BENCHMARK.md).
//
// Runs one named workload through the harness's public entry points — the
// World / ShardedWorld constructors, HostDriver start and stop, run_for,
// result collection and world destruction — and times each of those calls.
// A repetition prints one JSON line ("kind":"rep") carrying its phase
// timings, its simulated outputs and its layer counters; perfbench/run.py
// turns the lines of many processes into the benchmark's metrics.
//
// The simulated outputs are exact for a seed, so every repetition must
// reproduce the first one bit for bit, and they must equal what the
// harness's own runner (run_rdp_experiment / run_sharded_rdp_experiment)
// reports for the same params.  A traced repetition additionally arms the
// instrumentation profiler and a stage observer; it must still reproduce
// the untraced outputs.
//
//   rdp_perfbench --workload campus_causal --seed 1 [--trace 1]
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/sharded_world.h"
#include "harness/world.h"
#include "obs/profiler.h"
#include "stats/histogram.h"
#include "workload/driver.h"
#include "workload/mobility.h"
#include "workload/topology.h"

namespace {

using namespace rdp;
using common::Duration;
using Clock = std::chrono::steady_clock;
using Driver = workload::HostDriver<core::MobileHostAgent>;

#ifndef RDP_PERFBENCH_BUILD_TYPE
#define RDP_PERFBENCH_BUILD_TYPE "unknown"
#endif

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  bool sharded = false;
  harness::ExperimentParams params;
};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  harness::ExperimentParams& p = w.params;
  p.seed = seed;
  p.mobility = harness::MobilityKind::kRandomWalk;
  if (name == "campus_causal") {
    // The paper's exactly-once setting at a cell count where the n x n
    // causal piggyback dominates.
    p.grid_width = 8;
    p.grid_height = 8;
    p.num_mh = 800;
    p.mean_dwell = Duration::seconds(20);
    p.mean_request_interval = Duration::seconds(5);
    p.service_time = Duration::millis(200);
    p.causal_order = true;
    p.sim_time = Duration::seconds(600);
    p.drain_time = Duration::seconds(60);
    // Crash backstop only.  Without it about one seed in five strands a
    // request: its final result is forwarded with del-pref while the Mh is
    // between cells, the Mh then registers at the new Mss as a fresh join,
    // and the old proxy keeps the request pending forever (auditor rule R1
    // fires when the next request creates a second proxy).
    p.rdp.mh_reissue = true;
    p.rdp.reissue_timeout = Duration::seconds(45);
    p.rdp.max_reissue_attempts = 10;
  } else if (name == "metro_sharded") {
    // The scale path: 100k agents on the sharded kernel, sparse traffic.
    // The four shards run on the driving thread: windows, barriers, outbox
    // drains and the serial replay are all exercised, and the timing does
    // not depend on how a shared host schedules worker threads.
    w.sharded = true;
    p.shards = 4;
    p.shard_threads = 1;
    p.grid_width = 16;
    p.grid_height = 16;
    p.num_mh = 100'000;
    p.mean_dwell = Duration::seconds(60);
    p.mean_request_interval = Duration::seconds(60);
    p.causal_order = false;
    p.sim_time = Duration::seconds(20);
    // The same backstop as campus_causal (the stranding race shows up here
    // on about one seed in ten), sized so that a request stranded at the
    // end of the run is re-issued and completes within the drain.
    p.drain_time = Duration::seconds(15);
    p.rdp.mh_reissue = true;
    p.rdp.reissue_timeout = Duration::seconds(10);
    p.rdp.max_reissue_attempts = 10;
  } else if (name == "lossy_arq") {
    // The recovery paths: radio loss drives ARQ, the result cache and
    // registration retries.
    p.grid_width = 3;
    p.grid_height = 3;
    p.num_mh = 900;
    p.mean_dwell = Duration::seconds(10);
    p.mean_request_interval = Duration::seconds(6);
    p.service_time = Duration::millis(500);
    p.service_jitter = Duration::millis(250);
    p.wireless.uplink_loss = 0.05;
    p.wireless.downlink_loss = 0.05;
    p.rdp.arq.mode = core::ArqMode::kSlidingWindow;
    p.rdp.mss_result_cache = true;
    p.rdp.mh_reissue = true;
    p.rdp.reissue_timeout = Duration::seconds(45);
    p.rdp.max_reissue_attempts = 10;
    p.causal_order = true;
    p.sim_time = Duration::seconds(600);
    p.drain_time = Duration::seconds(120);
  } else {
    return std::nullopt;
  }
  return w;
}

// The ScenarioConfig run_rdp_experiment derives from its params; the
// cross-check against that runner keeps the two in step.
harness::ScenarioConfig scenario_config(const harness::ExperimentParams& p) {
  harness::ScenarioConfig c;
  c.seed = p.seed;
  c.num_mss = p.num_mss();
  c.num_mh = p.num_mh;
  c.num_servers = p.num_servers;
  c.causal_order = p.causal_order;
  c.replication = p.replication;
  c.proxy_checkpointing = p.proxy_checkpointing;
  c.wired = p.wired;
  c.wireless = p.wireless;
  c.rdp = p.rdp;
  c.server.base_service_time = p.service_time;
  c.server.service_jitter = p.service_jitter;
  c.telemetry.metrics_period = p.metrics_period;
  c.cost.enabled = true;
  c.cost.energy = p.energy;
  c.analyzer.enabled = p.analyzer;
  return c;
}

workload::WorkloadParams workload_params(const harness::ExperimentParams& p) {
  workload::WorkloadParams wl;
  wl.travel_time = p.travel_time;
  wl.mean_request_interval = p.mean_request_interval;
  wl.request_body = p.request_body;
  wl.mean_active = p.mean_active;
  wl.mean_inactive = p.mean_inactive;
  wl.loss = p.loss;
  return wl;
}

// --- JSON output ----------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One flat-or-nested JSON object, built key by key.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// FNV-1a over the canonical rendering of a repetition's simulated outputs.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// --- stage observer (traced repetitions) ----------------------------------

// Splits each request's end-to-end latency into protocol stages from the
// hooks: uplink (issue -> reached proxy), service (reached proxy -> result
// at proxy), downlink (result at proxy -> final delivery at the Mh) and ack
// (final delivery -> the proxy's request_completed).  Each request's stages
// must add up to the latency the harness's MetricsCollector measured for
// it, so this observer is added after the collector and reads the sample
// the collector has just recorded for the same delivery.
class StageObserver final : public core::RdpObserver {
 public:
  explicit StageObserver(const harness::MetricsCollector& metrics)
      : metrics_(metrics) {}

  stats::Histogram uplink_ms, service_ms, downlink_ms, ack_ms, handoff_ms;
  std::uint64_t checked = 0;     // completed requests whose stages were summed
  std::uint64_t mismatched = 0;  // sum off by > 1%, or a stage hook missing
  std::uint64_t reissued = 0;    // completed requests that were re-issued

  [[nodiscard]] std::uint32_t hook_mask() const override {
    using core::Hook;
    using core::hook_bit;
    return hook_bit(Hook::kRequestIssued) |
           hook_bit(Hook::kRequestReachedProxy) |
           hook_bit(Hook::kResultAtProxy) | hook_bit(Hook::kResultDelivered) |
           hook_bit(Hook::kRequestCompleted) |
           hook_bit(Hook::kRequestReissued) | hook_bit(Hook::kMhRegistered);
  }
  void on_request_issued(core::SimTime t, core::MhId, core::RequestId r,
                         core::NodeAddress) override {
    track_[r].issued = t;
  }
  void on_request_reissued(core::SimTime, core::MhId, core::RequestId r,
                           int) override {
    if (auto it = track_.find(r); it != track_.end()) {
      it->second.reissued = true;
    }
  }
  void on_request_reached_proxy(core::SimTime t, core::MhId, core::RequestId r,
                                core::NodeAddress) override {
    if (auto it = track_.find(r); it != track_.end() && !it->second.reached) {
      it->second.reached = t;
    }
  }
  void on_result_at_proxy(core::SimTime t, core::MhId, core::RequestId r,
                          std::uint32_t) override {
    if (auto it = track_.find(r); it != track_.end() && !it->second.at_proxy) {
      it->second.at_proxy = t;
    }
  }
  void on_result_delivered(core::SimTime t, core::MhId, core::RequestId r,
                           std::uint32_t, bool final, bool duplicate,
                           std::uint32_t) override {
    if (duplicate || !final) return;
    auto it = track_.find(r);
    if (it == track_.end() || it->second.delivered) return;
    Track& track = it->second;
    track.delivered = t;
    ++checked;
    if (track.reissued) ++reissued;
    if (!track.reached || !track.at_proxy || *track.reached < track.issued ||
        *track.at_proxy < *track.reached || t < *track.at_proxy ||
        metrics_.delivery_latency_ms.empty()) {
      ++mismatched;
      return;
    }
    const double up = ms(*track.reached - track.issued);
    const double service = ms(*track.at_proxy - *track.reached);
    const double down = ms(t - *track.at_proxy);
    const double e2e = metrics_.delivery_latency_ms.samples().back();
    if (std::fabs(up + service + down - e2e) > 0.01 * e2e) ++mismatched;
    uplink_ms.add(up);
    service_ms.add(service);
    downlink_ms.add(down);
  }
  void on_request_completed(core::SimTime t, core::MhId,
                            core::RequestId r) override {
    auto it = track_.find(r);
    if (it == track_.end()) return;
    if (it->second.delivered) ack_ms.add(ms(t - *it->second.delivered));
    track_.erase(it);
  }
  void on_mh_registered(core::SimTime, core::MhId, core::MssId,
                        Duration latency) override {
    handoff_ms.add(latency);
  }

 private:
  struct Track {
    core::SimTime issued;
    std::optional<core::SimTime> reached, at_proxy, delivered;
    bool reissued = false;
  };
  static double ms(Duration d) { return d.to_seconds() * 1e3; }

  const harness::MetricsCollector& metrics_;
  std::unordered_map<core::RequestId, Track> track_;
};

// --- one repetition -------------------------------------------------------

enum class Mode { kSetupOnly, kUntraced, kTraced };

struct Phases {
  double build_s = 0, drivers_s = 0, run_s = 0, drain_s = 0, collect_s = 0,
         teardown_s = 0, wall_s = 0;
};

// Everything the simulation determines: exact for a seed and shard-count
// invariant.
struct SimOutputs {
  std::uint64_t issued = 0, completed = 0, lost = 0, app_duplicates = 0,
                results_delivered = 0, app_deliveries = 0, result_forwards = 0,
                retransmissions = 0, handoffs = 0, proxies_created = 0,
                migrations = 0, kernel_events = 0, wired_messages = 0,
                wired_bytes = 0, radio_frames = 0, radio_dropped = 0,
                radio_bytes = 0, causal_delayed = 0, invariant_violations = 0;
  std::size_t latency_samples = 0;
  double latency_p50_ms = 0, latency_p99_ms = 0, latency_p999_ms = 0;
  std::map<std::string, std::uint64_t> counters;
  std::string digest;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

// Kernel-side figures that depend on the shard layout, not the seed alone.
struct KernelStats {
  std::uint64_t windows = 0, observer_barriers = 0;
};

struct Rep {
  Mode mode = Mode::kUntraced;
  Phases phases;
  SimOutputs sim;
  KernelStats kernel;
  std::optional<obs::ProfileReport> profile;
  std::optional<std::string> stages_json;
  std::uint64_t stage_checked = 0, stage_mismatched = 0, stage_reissued = 0;
};

std::string counters_digest(const std::map<std::string, std::uint64_t>& all) {
  Digest digest;
  for (const auto& [name, value] : all) {
    digest.add(name + '=' + std::to_string(value) + '\n');
  }
  return digest.hex();
}

// Digest of everything the simulation determined, latency samples included.
std::string sim_digest(const SimOutputs& s,
                       const std::vector<double>& latencies) {
  std::ostringstream os;
  os << s.issued << ' ' << s.completed << ' ' << s.lost << ' '
     << s.app_duplicates << ' ' << s.results_delivered << ' '
     << s.app_deliveries << ' ' << s.result_forwards << ' '
     << s.retransmissions << ' ' << s.handoffs << ' ' << s.proxies_created
     << ' ' << s.migrations << ' ' << s.kernel_events << ' '
     << s.wired_messages << ' ' << s.wired_bytes << ' ' << s.radio_frames
     << ' ' << s.radio_dropped << ' ' << s.radio_bytes << ' '
     << s.causal_delayed << ' ' << s.invariant_violations << ' '
     << counters_digest(s.counters) << '\n';
  Digest digest;
  digest.add(os.str());
  digest.add(latencies.data(), latencies.size() * sizeof(double));
  return digest.hex();
}

// Per-world-type plumbing.  The single kernel shares one mobility model
// among its drivers (as run_rdp_experiment does); the sharded kernel needs a
// model per Mh, drawn before the world exists, because the home cells pin
// each Mh to a shard.
struct SingleKernel {
  using World = harness::World;
  static constexpr bool kSharded = false;

  std::unique_ptr<workload::MobilityModel> mobility;

  std::unique_ptr<World> build(const harness::ExperimentParams& p,
                               const workload::CellTopology&) {
    return std::make_unique<World>(scenario_config(p));
  }
  void arm(World& world, obs::Profiler& profiler) {
    world.simulator().set_prof_accumulator(profiler.accumulator(0));
  }
  std::unique_ptr<Driver> make_driver(World& world, int i,
                                      const harness::ExperimentParams& p,
                                      const workload::CellTopology& topology,
                                      const workload::WorkloadParams& wl,
                                      const std::vector<common::NodeAddress>&
                                          servers) {
    if (!mobility) {
      mobility = std::make_unique<workload::RandomWalkMobility>(topology,
                                                                p.mean_dwell);
    }
    return std::make_unique<Driver>(world.simulator(), world.mh(i), *mobility,
                                    world.rng().fork(), wl, servers);
  }
  static void collect(World& world, SimOutputs& s, KernelStats&) {
    s.kernel_events = world.simulator().executed_events();
    s.wired_messages = world.wired().messages_sent();
    s.wired_bytes = world.wired().bytes_sent();
    const net::WirelessChannel& radio = world.wireless();
    s.radio_frames = radio.uplink_sent() + radio.downlink_sent();
    s.radio_dropped = radio.uplink_dropped() + radio.downlink_dropped();
    s.radio_bytes = radio.uplink_bytes() + radio.downlink_bytes();
    s.counters = world.counters().all();
    s.causal_delayed =
        world.causal() != nullptr ? world.causal()->delayed_total() : 0;
  }
  static void ingest(World&, obs::Profiler&) {}
};

struct Sharded {
  using World = harness::ShardedWorld;
  static constexpr bool kSharded = true;

  std::vector<std::unique_ptr<workload::MobilityModel>> mobilities;

  std::unique_ptr<World> build(const harness::ExperimentParams& p,
                               const workload::CellTopology& topology) {
    harness::ShardedScenarioConfig config;
    config.base = scenario_config(p);
    config.shards = p.shards;
    config.threads = p.shard_threads;
    config.backup_k = p.backup_k;
    common::Rng home_rng(p.seed ^ 0xc3a5c85c97cb3127ull);
    mobilities.reserve(static_cast<std::size_t>(p.num_mh));
    for (int i = 0; i < p.num_mh; ++i) {
      mobilities.push_back(std::make_unique<workload::RandomWalkMobility>(
          topology, p.mean_dwell));
      config.mh_home_cells.push_back(mobilities.back()->initial_cell(home_rng));
    }
    return std::make_unique<World>(std::move(config));
  }
  void arm(World& world, obs::Profiler& profiler) {
    for (int s = 0; s < world.kernel().shards(); ++s) {
      world.shard_simulator(s).set_prof_accumulator(profiler.accumulator(s));
    }
    world.kernel().set_profiling(true);
  }
  std::unique_ptr<Driver> make_driver(World& world, int i,
                                      const harness::ExperimentParams& p,
                                      const workload::CellTopology&,
                                      const workload::WorkloadParams& wl,
                                      const std::vector<common::NodeAddress>&
                                          servers) {
    auto driver = std::make_unique<Driver>(
        world.shard_simulator(world.home_shard(i)), world.mh(i),
        *mobilities[static_cast<std::size_t>(i)], world.rng().fork(), wl,
        servers);
    driver->set_initial_cell(world.home_cell(i));
    driver->set_reaction_bound(p.wireless.base_latency);
    return driver;
  }
  static void collect(World& world, SimOutputs& s, KernelStats& k) {
    s.kernel_events = world.kernel().executed_events();
    s.wired_messages = world.wired_messages_total();
    s.wired_bytes = world.wired_bytes_total();
    for (int shard = 0; shard < world.shards(); ++shard) {
      const net::WirelessChannel& radio = world.wireless(shard);
      s.radio_frames += radio.uplink_sent() + radio.downlink_sent();
      s.radio_dropped += radio.uplink_dropped() + radio.downlink_dropped();
      s.radio_bytes += radio.uplink_bytes() + radio.downlink_bytes();
    }
    s.counters = world.merged_counters().all();
    s.causal_delayed = world.causal_delayed_total();
    k.windows = world.kernel().windows_run();
    k.observer_barriers = world.kernel().observer_barriers_run();
  }
  static void ingest(World& world, obs::Profiler& profiler) {
    profiler.ingest_shard_stats(world.kernel());
  }
};

// Puts the profiler's control accumulator on the driving thread while the
// kernel runs, so barrier-time work (outbox drains, observer replay) is
// attributed.  A no-op without a profiler.
class ControlScope {
 public:
  explicit ControlScope(obs::Profiler* profiler)
      : active_(profiler != nullptr) {
    if (active_) prev_ = obs::prof::exchange_accumulator(profiler->control());
  }
  ~ControlScope() {
    if (active_) (void)obs::prof::exchange_accumulator(prev_);
  }
  ControlScope(const ControlScope&) = delete;
  ControlScope& operator=(const ControlScope&) = delete;

 private:
  bool active_;
  obs::prof::Accumulator* prev_ = nullptr;
};

std::string histogram_json(const stats::Histogram& h) {
  const std::vector<double> q = h.percentiles({0.5, 0.999});
  return JsonObject()
      .num("p50", q[0])
      .num("p999", q[1])
      .count("n", h.count())
      .str();
}

template <typename Stack>
Rep run_rep(const Workload& w, Mode mode) {
  const harness::ExperimentParams& p = w.params;
  Rep rep;
  rep.mode = mode;
  Stack stack;
  const workload::CellTopology topology =
      workload::CellTopology::grid(p.grid_width, p.grid_height);

  // Setup: world constructor, then observers and drivers.
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<typename Stack::World> world = stack.build(p, topology);
  std::unique_ptr<obs::Profiler> profiler;
  if (mode == Mode::kTraced) {
    profiler = std::make_unique<obs::Profiler>();
    stack.arm(*world, *profiler);
    profiler->enable_alloc_tracking();
  }
  const Clock::time_point t1 = Clock::now();
  auto metrics = std::make_unique<harness::MetricsCollector>(
      &world->telemetry().registry());
  world->observers().add(metrics.get());
  std::unique_ptr<StageObserver> stages;
  if (mode == Mode::kTraced) {
    stages = std::make_unique<StageObserver>(*metrics);
    world->observers().add(stages.get());
  }
  const workload::WorkloadParams wl = workload_params(p);
  std::vector<common::NodeAddress> servers;
  for (int i = 0; i < p.num_servers; ++i) {
    servers.push_back(world->server_address(i));
  }
  std::vector<std::unique_ptr<Driver>> drivers;
  drivers.reserve(static_cast<std::size_t>(p.num_mh));
  for (int i = 0; i < p.num_mh; ++i) {
    drivers.push_back(stack.make_driver(*world, i, p, topology, wl, servers));
    drivers.back()->start();
  }
  const Clock::time_point t2 = Clock::now();

  Clock::time_point t3 = t2, t4 = t2, t5 = t2;
  if (mode != Mode::kSetupOnly) {
    {
      const ControlScope control(Stack::kSharded ? profiler.get() : nullptr);
      world->run_for(p.sim_time);
      t3 = Clock::now();
      for (auto& driver : drivers) driver->stop();
      world->run_for(p.drain_time);
    }
    t4 = Clock::now();

    // Result collection: the reads run_rdp_experiment makes.
    SimOutputs& s = rep.sim;
    s.issued = metrics->requests_issued;
    s.completed = metrics->requests_completed_at_mh();
    s.lost = metrics->requests_lost;
    s.app_duplicates = metrics->app_duplicates;
    s.results_delivered = metrics->results_delivered;
    s.result_forwards = metrics->result_forwards;
    s.retransmissions = metrics->retransmissions;
    s.handoffs = metrics->handoffs;
    s.proxies_created = metrics->proxies_created;
    for (const auto& driver : drivers) s.migrations += driver->migrations();
    for (int i = 0; i < p.num_mh; ++i) {
      s.app_deliveries += world->mh(i).deliveries();
    }
    const std::vector<double> q =
        metrics->delivery_latency_ms.percentiles({0.5, 0.99, 0.999});
    s.latency_p50_ms = q[0];
    s.latency_p99_ms = q[1];
    s.latency_p999_ms = q[2];
    s.latency_samples = metrics->delivery_latency_ms.count();
    Stack::collect(*world, s, rep.kernel);
    const obs::CostLedger& ledger = *world->cost_ledger();
    RDP_CHECK(ledger.wired_bytes() == s.wired_bytes,
              "cost ledger disagrees with the wired network's byte counter");
    // Computed as the runner computes it, so collect_s times the same work.
    [[maybe_unused]] const obs::CostSummary cost = ledger.summary();
    if (const obs::InvariantAuditor* auditor = world->telemetry().auditor()) {
      s.invariant_violations = auditor->violations().size();
    }
    t5 = Clock::now();
    s.digest = sim_digest(s, metrics->delivery_latency_ms.samples());

    if (profiler) {
      Stack::ingest(*world, *profiler);
      rep.profile = profiler->report();
    }
    if (stages) {
      const StageObserver& st = *stages;
      rep.stages_json = JsonObject()
                            .raw("uplink_ms", histogram_json(st.uplink_ms))
                            .raw("service_ms", histogram_json(st.service_ms))
                            .raw("downlink_ms", histogram_json(st.downlink_ms))
                            .raw("ack_ms", histogram_json(st.ack_ms))
                            .raw("handoff_ms", histogram_json(st.handoff_ms))
                            .str();
      rep.stage_checked = stages->checked;
      rep.stage_mismatched = stages->mismatched;
      rep.stage_reissued = stages->reissued;
    }
  }

  // Teardown: drivers, observers, profiler, then the world (the order the
  // harness runner destroys them in).
  const Clock::time_point t6 = Clock::now();
  drivers.clear();
  stages.reset();
  metrics.reset();
  profiler.reset();
  world.reset();
  const Clock::time_point t7 = Clock::now();

  const auto span = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  Phases& ph = rep.phases;
  ph.build_s = span(t0, t1);
  ph.drivers_s = span(t1, t2);
  ph.run_s = span(t2, t3);
  ph.drain_s = span(t3, t4);
  ph.collect_s = span(t4, t5);
  ph.teardown_s = span(t6, t7);
  ph.wall_s = ph.build_s + ph.drivers_s + ph.run_s + ph.drain_s +
              ph.collect_s + ph.teardown_s;
  return rep;
}

Rep run_rep(const Workload& w, Mode mode) {
  return w.sharded ? run_rep<Sharded>(w, mode) : run_rep<SingleKernel>(w, mode);
}

// --- checks ---------------------------------------------------------------

// Why a repetition fails the correctness gate; empty when it passes.  The
// workloads carry one result per request, so every request must reach the
// application exactly once, by the Mh agents' own delivery counts.  Copies
// of a result that reach the Mh again (re-sent by the result cache, or
// after a backstop re-issue) are absorbed by its duplicate filter; they are
// counted in app_duplicates and must never reach the application.
std::string gate(const Rep& rep) {
  const SimOutputs& s = rep.sim;
  std::string why;
  const auto fail = [&why](const std::string& reason) {
    why += (why.empty() ? "" : ",") + reason;
  };
  if (s.issued == 0) fail("no_requests");
  if (s.invariant_violations != 0) fail("auditor_violations");
  if (s.lost != 0 || s.completed != s.issued) fail("undelivered");
  if (s.app_deliveries != s.issued || s.results_delivered != s.issued) {
    fail("app_delivery_count");
  }
  if (rep.stage_mismatched != 0) fail("stage_sum");
  return why;
}

// --- output ---------------------------------------------------------------

std::string profile_json(const obs::ProfileReport& report) {
  const double ns_per_s = 1e9;
  JsonObject domains;
  for (const obs::ProfDomainRow& row : report.domains) {
    domains.raw(row.name, JsonObject()
                              .num("self_s", row.self_ns / ns_per_s)
                              .count("allocs", row.alloc_count)
                              .str());
  }
  std::uint64_t busy_ns = 0, stall_ns = 0;
  for (const obs::ProfShardRow& shard : report.shards) {
    busy_ns += shard.busy_ns;
    stall_ns += shard.stall_ns;
  }
  return JsonObject()
      .raw("domains", domains.str())
      .num("total_self_s", report.total_self_ns / ns_per_s)
      .count("total_allocs", report.total_alloc_count)
      .num("shard_busy_s", busy_ns / ns_per_s)
      .num("shard_stall_s", stall_ns / ns_per_s)
      .str();
}

// The simulated outputs the harness runner also reports, under the same
// keys for both, so perfbench/run.py can compare them one by one.
JsonObject shared_sim_json(const SimOutputs& s) {
  JsonObject o;
  o.count("issued", s.issued)
      .count("completed", s.completed)
      .count("lost", s.lost)
      .count("results_delivered", s.results_delivered)
      .count("app_duplicates", s.app_duplicates)
      .count("result_forwards", s.result_forwards)
      .count("retransmissions", s.retransmissions)
      .count("handoffs", s.handoffs)
      .count("proxies_created", s.proxies_created)
      .count("migrations", s.migrations)
      .count("kernel_events", s.kernel_events)
      .count("wired_messages", s.wired_messages)
      .count("wired_bytes", s.wired_bytes)
      .count("causal_delayed", s.causal_delayed)
      .count("invariant_violations", s.invariant_violations)
      .num("latency_p50_ms", s.latency_p50_ms)
      .num("latency_p99_ms", s.latency_p99_ms)
      .str("counters_digest", counters_digest(s.counters));
  return o;
}

std::string rep_json(const Rep& rep, const std::string& gate_failure) {
  const Phases& ph = rep.phases;
  const SimOutputs& s = rep.sim;
  JsonObject sim = shared_sim_json(s);
  sim.count("app_deliveries", s.app_deliveries)
      .count("latency_samples", s.latency_samples)
      .num("latency_p999_ms", s.latency_p999_ms)
      .count("radio_frames", s.radio_frames)
      .count("radio_dropped", s.radio_dropped)
      .count("radio_bytes", s.radio_bytes)
      .count("arq_frames_sent", s.counter("arq.frames_sent"))
      .count("arq_retransmits", s.counter("arq.retransmits"))
      .count("arq_duplicates_dropped", s.counter("arq.duplicates_dropped"))
      .count("result_cache_retries", s.counter("mss.result_cache_retries"))
      .count("registration_retries", s.counter("mh.registration_retries"))
      .count("reissues", s.counter("mh.reissues"));
  JsonObject line;
  line.str("kind", "rep")
      .count("traced", rep.mode == Mode::kTraced ? 1 : 0)
      .raw("ok", gate_failure.empty() ? "true" : "false")
      .str("gate", gate_failure)
      .str("digest", s.digest)
      .raw("phases", JsonObject()
                         .num("build_s", ph.build_s)
                         .num("drivers_s", ph.drivers_s)
                         .num("run_s", ph.run_s)
                         .num("drain_s", ph.drain_s)
                         .num("collect_s", ph.collect_s)
                         .num("teardown_s", ph.teardown_s)
                         .num("wall_s", ph.wall_s)
                         .str())
      .raw("sim", sim.str())
      .raw("kernel", JsonObject()
                         .count("windows", rep.kernel.windows)
                         .count("observer_barriers",
                                rep.kernel.observer_barriers)
                         .str());
  if (rep.profile) line.raw("profile", profile_json(*rep.profile));
  if (rep.stages_json) {
    line.raw("stages", *rep.stages_json)
        .count("stage_checked", rep.stage_checked)
        .count("stage_mismatched", rep.stage_mismatched)
        .count("stage_reissued", rep.stage_reissued);
  }
  return line.str();
}

std::string reference_json(const harness::ExperimentResult& r, double wall_s) {
  SimOutputs s;
  s.issued = r.requests_issued;
  s.completed = r.requests_completed;
  s.lost = r.requests_lost;
  s.results_delivered = r.results_delivered;
  s.app_duplicates = r.app_duplicates;
  s.result_forwards = r.result_forwards;
  s.retransmissions = r.retransmissions;
  s.handoffs = r.handoffs;
  s.proxies_created = r.proxies_created;
  s.migrations = r.migrations;
  s.kernel_events = r.kernel_events;
  s.wired_messages = r.wired_messages;
  s.wired_bytes = r.wired_bytes;
  s.causal_delayed = r.causal_delayed;
  s.invariant_violations = r.invariant_violations;
  s.latency_p50_ms = r.p50_latency_ms;
  s.latency_p99_ms = r.p99_latency_ms;
  s.counters = r.counters;
  return JsonObject()
      .str("kind", "reference")
      .num("wall_s", wall_s)
      .raw("sim", shared_sim_json(s).str())
      .str();
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

enum class Task { kRep, kSetup, kReference };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  int shards = 0;  // 0 keeps the workload's own layout
  Task task = Task::kRep;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload campus_causal|metro_sharded|lossy_arq"
               " [--seed N] [--trace 0|1] [--shards N]"
               " [--setup-only | --reference]\n";
  return 2;
}

}  // namespace

// One task per process, so every timed repetition starts cold, as a user's
// experiment does:
//   (default)      one repetition, traced with --trace 1;
//   --setup-only   one setup sample (world + drivers, then teardown);
//   --reference    the harness runner's own result for the same params.
int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      opt.task = Task::kSetup;
      continue;
    }
    if (arg == "--reference") {
      opt.task = Task::kReference;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = v;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(v);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (arg == "--shards") {
        opt.shards = std::stoi(v);
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  std::optional<Workload> found = make_workload(opt.workload, opt.seed);
  if (!found) return usage(argv[0]);
  Workload& w = *found;
  if (opt.shards > 0) {
    if (!w.sharded) return usage(argv[0]);
    w.params.shards = opt.shards;
    w.params.shard_threads = std::min(opt.shards, w.params.shard_threads);
  }

#if defined(RDP_PROFILE)
  const bool rdp_profile = true;
#else
  const bool rdp_profile = false;
#endif
  std::cout << JsonObject()
                   .str("kind", "config")
                   .str("workload", w.name)
                   .count("seed", opt.seed)
                   .count("host_cores",
                          static_cast<std::uint64_t>(host_cores()))
                   .str("build_type", RDP_PERFBENCH_BUILD_TYPE)
                   .raw("rdp_profile", rdp_profile ? "true" : "false")
                   .count("shards", static_cast<std::uint64_t>(
                                        w.sharded ? w.params.shards : 1))
                   .count("threads", static_cast<std::uint64_t>(
                                         w.sharded ? w.params.shard_threads
                                                   : 1))
                   .count("num_mh", static_cast<std::uint64_t>(w.params.num_mh))
                   .count("num_mss",
                          static_cast<std::uint64_t>(w.params.num_mss()))
                   .str()
            << std::endl;

  switch (opt.task) {
    case Task::kReference: {
      const Clock::time_point start = Clock::now();
      const harness::ExperimentResult result =
          w.sharded ? harness::run_sharded_rdp_experiment(w.params)
                    : harness::run_rdp_experiment(w.params);
      std::cout << reference_json(result, seconds_since(start)) << std::endl;
      break;
    }
    case Task::kSetup: {
      const Rep rep = run_rep(w, Mode::kSetupOnly);
      std::cout << JsonObject()
                       .str("kind", "setup")
                       .num("setup_s",
                            rep.phases.build_s + rep.phases.drivers_s)
                       .num("teardown_s", rep.phases.teardown_s)
                       .str()
                << std::endl;
      break;
    }
    case Task::kRep: {
      const Rep rep = run_rep(w, opt.trace ? Mode::kTraced : Mode::kUntraced);
      std::cout << rep_json(rep, gate(rep)) << std::endl;
      break;
    }
  }
  std::cout << JsonObject()
                   .str("kind", "process")
                   .num("peak_rss_mb", peak_rss_mb())
                   .str()
            << std::endl;
  return 0;
}
