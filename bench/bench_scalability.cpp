// E8 — §1 motivation: a decentralized traffic-information service queried
// and updated by roaming mobile users, with "time-consuming data location
// and retrieval protocols among the servers".
//
// Scales the mobile-host population over a 4x4 cell grid backed by a
// 4-node TIS network (region-partitioned, multi-hop queries, aggregates,
// updates) and reports end-to-end latency and delivery.  The shape to
// reproduce: delivery stays total and per-request latency stays flat as
// the population grows (the simulated substrate has no contention model;
// what is being validated is that the *protocol* machinery — proxies,
// hand-offs, routing — introduces no loss or systematic slowdown at scale).
//
// M2 — shard scaling: the same class of workload on the cell-partitioned
// sharded kernel at 1/2/4/8 shards, reporting aggregate kernel events/s
// and verifying the results are bit-identical across shard counts.  Two
// extra flags beyond the shared set:
//
//   --mega               also run the 10^6-mobile-host configuration
//                        (32x32 grid, 8 shards) — minutes of wall clock
//   --kernel-json PATH   merge "shard_sweep" (and "mega") sections into
//                        the BENCH_kernel.json baseline at PATH; with
//                        --profile also an "attribution" block with the
//                        top-10 self-time domains for the 8-shard sweep
//                        run ("scenario") and the --mega run ("mega")
#include <chrono>
#include <cstdlib>
#include <thread>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench/bench_util.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/world.h"
#include "stats/table.h"
#include "tis/commands.h"
#include "tis/traffic_server.h"
#include "workload/driver.h"

namespace {

using namespace rdp;
using common::Duration;

struct Outcome {
  std::uint64_t issued = 0;
  double delivery = 0;
  double mean_ms = 0;
  double p95_ms = 0;
  std::uint64_t routed = 0;
  std::uint64_t migrations = 0;
};

Outcome run(int num_mh, const benchutil::BenchOptions* artifacts = nullptr) {
  harness::ScenarioConfig config;
  config.seed = 1000 + static_cast<std::uint64_t>(num_mh);
  config.num_mss = 16;
  config.num_mh = num_mh;
  config.num_servers = 0;
  if (artifacts != nullptr) {
    config.telemetry.trace = artifacts->trace();
    config.telemetry.metrics_period = Duration::seconds(20);
  }

  harness::World world(config);
  harness::MetricsCollector metrics;
  world.observers().add(&metrics);

  tis::TisNetwork network{tis::TisConfig{}};
  std::vector<tis::TrafficServer*> servers;
  std::vector<common::NodeAddress> addresses;
  for (int i = 0; i < 4; ++i) {
    auto& server = world.add_server(
        [&](core::Runtime& runtime, common::ServerId id,
            common::NodeAddress address, common::Rng rng) {
          return std::make_unique<tis::TrafficServer>(runtime, network, id,
                                                      address, rng);
        });
    servers.push_back(static_cast<tis::TrafficServer*>(&server));
    addresses.push_back(server.address());
  }

  const workload::CellTopology topology = workload::CellTopology::grid(4, 4);
  workload::RandomWalkMobility mobility(topology, Duration::seconds(25));
  workload::WorkloadParams params;
  params.mean_request_interval = Duration::seconds(8);
  params.travel_time = Duration::millis(400);
  // Realistic SIDAM mix: mostly point queries, some area aggregates, some
  // updates from TEC vehicles.
  params.body_factory = [](common::Rng& rng) -> std::string {
    const auto region = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
    const double dice = rng.next_double();
    if (dice < 0.60) return tis::cmd_get(region);
    if (dice < 0.80) {
      return tis::cmd_area(region, std::min<std::uint32_t>(63, region + 7));
    }
    return tis::cmd_set(region, static_cast<int>(rng.uniform_int(0, 100)));
  };

  std::vector<std::unique_ptr<workload::HostDriver<core::MobileHostAgent>>>
      drivers;
  for (int i = 0; i < num_mh; ++i) {
    drivers.push_back(
        std::make_unique<workload::HostDriver<core::MobileHostAgent>>(
            world.simulator(), world.mh(i), mobility, world.rng().fork(),
            params, addresses));
    drivers.back()->start();
  }
  world.run_for(Duration::seconds(400));
  for (auto& driver : drivers) driver->stop();
  world.run_for(Duration::seconds(60));
  if (artifacts != nullptr) {
    benchutil::export_artifacts(*artifacts, world.telemetry(),
                                world.simulator().now());
  }

  Outcome outcome;
  outcome.issued = metrics.requests_issued;
  outcome.delivery = metrics.delivery_ratio();
  outcome.mean_ms = metrics.delivery_latency_ms.mean();
  outcome.p95_ms = metrics.delivery_latency_ms.percentile(0.95);
  for (auto* server : servers) outcome.routed += server->operations_routed();
  for (auto& driver : drivers) outcome.migrations += driver->migrations();
  return outcome;
}

// --- M2: shard scaling ------------------------------------------------

struct ShardOutcome {
  int shards = 1;
  int threads = 1;
  harness::ExperimentResult result;
  double wall_s = 0;
  [[nodiscard]] double events_per_s() const {
    return wall_s > 0 ? static_cast<double>(result.kernel_events) / wall_s : 0;
  }
};

harness::ExperimentParams sweep_params(bool smoke) {
  harness::ExperimentParams params;
  params.seed = 4242;
  params.grid_width = 4;
  params.grid_height = 4;
  params.num_mh = smoke ? 60 : 240;
  params.num_servers = 4;
  params.sim_time = Duration::seconds(smoke ? 120 : 400);
  params.drain_time = Duration::seconds(60);
  params.mean_dwell = Duration::seconds(25);
  params.travel_time = Duration::millis(400);
  params.mean_request_interval = Duration::seconds(8);
  return params;
}

ShardOutcome run_sharded(harness::ExperimentParams params, int shards,
                         int threads, bool profile = false,
                         obs::ProfileReport* report = nullptr,
                         const std::string& folded = {}) {
  params.shards = shards;
  params.shard_threads = threads;
  params.profile = profile;
  params.profile_report = report;
  params.profile_folded_out = folded;
  ShardOutcome outcome;
  outcome.shards = shards;
  outcome.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  outcome.result = harness::run_sharded_rdp_experiment(params);
  outcome.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

// The 10^6-mobile-host configuration the ROADMAP targets: 1024 cells, a
// short simulated horizon, sparse per-host traffic.  Causal order is off —
// its vector clocks are per-fixed-node but the point here is raw kernel
// scale, not the ordering ablation.
harness::ExperimentParams mega_params() {
  harness::ExperimentParams params;
  params.seed = 99;
  params.grid_width = 32;
  params.grid_height = 32;
  params.num_mh = 1'000'000;
  params.num_servers = 8;
  params.sim_time = Duration::seconds(2);
  params.drain_time = Duration::seconds(2);
  params.mean_dwell = Duration::seconds(60);
  params.mean_request_interval = Duration::seconds(60);
  params.causal_order = false;
  return params;
}

// Insert `fragment` (one or more `"key": {...}` members) before the final
// closing brace of the JSON object at `path`; starts a fresh file when the
// baseline does not exist yet.
bool merge_into_kernel_json(const std::string& path,
                            const std::string& fragment) {
  std::string text;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
  }
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t brace = text.rfind('}');
  if (brace == std::string::npos) {
    out << "{\n  \"schema\": \"rdp-kernel-bench-v1\",\n"
        << fragment << "\n}\n";
    return static_cast<bool>(out);
  }
  std::string head = text.substr(0, brace);
  while (!head.empty() && (head.back() == '\n' || head.back() == ' ')) {
    head.pop_back();
  }
  out << head << ",\n" << fragment << "\n}\n";
  return static_cast<bool>(out);
}

std::string shard_sweep_json(const std::vector<ShardOutcome>& outcomes,
                             const harness::ExperimentParams& params) {
  std::ostringstream os;
  os << "  \"shard_sweep\": {\n"
     << "    \"num_mh\": " << params.num_mh << ",\n"
     << "    \"cells\": " << params.num_mss() << ",\n"
     << "    \"sim_time_s\": " << params.sim_time.count_micros() / 1000000
     << ",\n"
     << "    \"results\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ShardOutcome& o = outcomes[i];
    os << "      {\"shards\": " << o.shards << ", \"threads\": " << o.threads
       << ", \"kernel_events\": " << o.result.kernel_events
       << ", \"wall_s\": " << o.wall_s
       << ", \"events_per_s\": " << o.events_per_s() << "}"
       << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }";
  return os.str();
}

std::string mega_json(const ShardOutcome& o,
                      const harness::ExperimentParams& params) {
  std::ostringstream os;
  os << "  \"mega\": {\n"
     << "    \"num_mh\": " << params.num_mh << ",\n"
     << "    \"cells\": " << params.num_mss() << ",\n"
     << "    \"shards\": " << o.shards << ",\n"
     << "    \"kernel_events\": " << o.result.kernel_events << ",\n"
     << "    \"wall_s\": " << o.wall_s << ",\n"
     << "    \"events_per_s\": " << o.events_per_s() << ",\n"
     << "    \"requests_issued\": " << o.result.requests_issued << ",\n"
     << "    \"requests_completed\": " << o.result.requests_completed << ",\n"
     << "    \"delivery_ratio\": " << o.result.delivery_ratio << "\n  }";
  return os.str();
}

bool same_protocol_outcome(const harness::ExperimentResult& a,
                           const harness::ExperimentResult& b) {
  return a.requests_issued == b.requests_issued &&
         a.requests_completed == b.requests_completed &&
         a.kernel_events == b.kernel_events &&
         a.wired_messages == b.wired_messages &&
         a.wired_bytes == b.wired_bytes && a.handoffs == b.handoffs &&
         a.mean_latency_ms == b.mean_latency_ms &&
         a.invariant_violations == b.invariant_violations;
}

}  // namespace

int main(int argc, char** argv) {
  bool mega = false;
  std::string kernel_json;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mega") {
      mega = true;
    } else if (arg == "--kernel-json" && i + 1 < argc) {
      kernel_json = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const rdp::benchutil::BenchOptions options = rdp::benchutil::parse_options(
      static_cast<int>(passthrough.size()), passthrough.data());
  benchutil::banner("E8", "traffic-information service at scale",
                    "§1 motivating workload (SIDAM) over the full RDP stack");

  stats::Table table({"mobile hosts", "requests", "migrations",
                      "multi-hop ops", "delivery", "mean latency (ms)",
                      "p95 latency (ms)"});
  std::vector<Outcome> outcomes;
  for (const int num_mh : {10, 40, 120, 240}) {
    // The smallest population is the canonical --trace run (tractable file).
    const Outcome outcome = run(num_mh, num_mh == 10 ? &options : nullptr);
    outcomes.push_back(outcome);
    table.add_row({stats::Table::fmt(std::uint64_t(num_mh)),
                   stats::Table::fmt(outcome.issued),
                   stats::Table::fmt(outcome.migrations),
                   stats::Table::fmt(outcome.routed),
                   stats::Table::fmt(outcome.delivery, 4),
                   stats::Table::fmt(outcome.mean_ms, 1),
                   stats::Table::fmt(outcome.p95_ms, 1)});
  }
  table.print(std::cout);

  bool all_delivered = true;
  for (const auto& outcome : outcomes) {
    if (outcome.delivery < 1.0) all_delivered = false;
  }
  benchutil::claim("delivery stays total at every population size",
                   all_delivered);
  benchutil::claim(
      "latency stays flat as the population grows (within 15%)",
      outcomes.back().mean_ms < outcomes.front().mean_ms * 1.15 &&
          outcomes.back().mean_ms > outcomes.front().mean_ms * 0.85);
  benchutil::claim("the data-location protocol was exercised (multi-hop ops)",
                   outcomes.back().routed > 500);

  // -- M2: shard scaling over the sharded kernel --
  benchutil::section("M2: shard scaling (cell-partitioned kernel)");
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::cout << "host cores: " << host_cores
            << " (wall-clock speedup needs as many cores as shards; the\n"
               " determinism and throughput numbers below hold regardless)\n";

  const harness::ExperimentParams sweep = sweep_params(options.smoke);
  stats::Table shard_table({"shards", "threads", "kernel events", "wall (s)",
                            "events/s", "requests", "delivery"});
  // With --profile every sweep run is profiled (the bit-identity claim below
  // then doubles as a live neutrality check); the 8-shard run — the one with
  // real cross-shard traffic — supplies the "scenario" attribution.
  obs::ProfileReport scenario_report;
  bool have_scenario_report = false;
  std::vector<ShardOutcome> sharded;
  for (const int shards : {1, 2, 4, 8}) {
    const bool capture = options.profile && shards == 8;
    sharded.push_back(run_sharded(
        sweep, shards, shards, options.profile,
        capture ? &scenario_report : nullptr,
        capture ? options.profile_folded_path : std::string()));
    have_scenario_report = have_scenario_report || capture;
    const ShardOutcome& o = sharded.back();
    shard_table.add_row({stats::Table::fmt(std::uint64_t(o.shards)),
                         stats::Table::fmt(std::uint64_t(o.threads)),
                         stats::Table::fmt(o.result.kernel_events),
                         stats::Table::fmt(o.wall_s, 2),
                         stats::Table::fmt(o.events_per_s(), 0),
                         stats::Table::fmt(o.result.requests_issued),
                         stats::Table::fmt(o.result.delivery_ratio, 4)});
  }
  shard_table.print(std::cout);

  bool identical = true;
  for (const auto& o : sharded) {
    if (!same_protocol_outcome(o.result, sharded.front().result)) {
      identical = false;
    }
  }
  benchutil::claim("results are bit-identical across 1/2/4/8 shards",
                   identical);
  benchutil::claim("no invariant violations at any shard count",
                   sharded.front().result.invariant_violations == 0);
  const double speedup_4 =
      sharded[2].events_per_s() / sharded[0].events_per_s();
  std::cout << "4-shard aggregate events/s vs 1 shard: " << speedup_4
            << "x\n";
  benchutil::claim(
      "4 shards reach >=3x aggregate events/s vs 1 shard "
      "(informational when the host has fewer than 4 cores)",
      host_cores < 4 || speedup_4 >= 3.0);

  if (have_scenario_report) {
    benchutil::section("profile: 8-shard sweep attribution");
    benchutil::print_profile(scenario_report);
    // 0.85, not 0.90: flattened dispatch and pooled messages shrank the
    // former hot domains, so self time is spread more evenly across what
    // remains.
    benchutil::claim(
        "top-10 domains cover >=85% of attributed self time",
        scenario_report.top10_share >= 0.85);
    // Alloc-count regression gate: steady-state heap allocations per kernel
    // event in the profiled 8-shard sweep.  With the pooled message path,
    // flattened dispatch, allocation-free per-message bookkeeping (ledger,
    // metrics collector, flight recorder, flat causal matrices), flat
    // protocol state (Mh agent, Mss, proxy, ARQ receiver) and no per-Mh
    // registry series the sweep measures 0.62 allocs/event (the count is
    // deterministic); the budget of 0.75 leaves ~20% headroom for
    // consumer/telemetry drift and scales with RDP_PERF_TOLERANCE
    // (default 0.30) like the micro-bench gate.
    double tolerance = 0.30;
    if (const char* env = std::getenv("RDP_PERF_TOLERANCE")) {
      tolerance = std::strtod(env, nullptr);
    }
    const double allocs_per_event =
        sharded.back().result.kernel_events == 0
            ? 0.0
            : static_cast<double>(scenario_report.total_alloc_count) /
                  static_cast<double>(sharded.back().result.kernel_events);
    const double alloc_budget = 0.75 * (1.0 + tolerance);
    std::cout << "steady-state allocs/event: " << allocs_per_event
              << " (budget " << alloc_budget << ")\n";
    benchutil::claim(
        "steady-state allocs/event stays within the pooled-path budget",
        allocs_per_event <= alloc_budget);
  }

  ShardOutcome mega_outcome;
  obs::ProfileReport mega_report;
  harness::ExperimentParams mega_p = mega_params();
  if (mega) {
    benchutil::section("M2: 10^6 mobile hosts (--mega)");
    mega_outcome = run_sharded(mega_p, 8, 0, options.profile,
                               options.profile ? &mega_report : nullptr);
    std::cout << "kernel events: " << mega_outcome.result.kernel_events
              << "  wall: " << mega_outcome.wall_s
              << " s  events/s: " << mega_outcome.events_per_s()
              << "\nrequests issued: " << mega_outcome.result.requests_issued
              << "  delivery: " << mega_outcome.result.delivery_ratio << "\n";
    benchutil::claim("the 10^6-Mh scenario completes with requests served",
                     mega_outcome.result.requests_completed > 10000);
    benchutil::claim("no invariant violations at 10^6 Mhs",
                     mega_outcome.result.invariant_violations == 0);
    if (options.profile) {
      benchutil::section("profile: --mega attribution");
      benchutil::print_profile(mega_report);
      benchutil::claim(
          "top-10 domains cover >=90% of attributed self time (--mega)",
          mega_report.top10_share >= 0.90);
    }
  }

  if (!kernel_json.empty()) {
    std::string fragment = shard_sweep_json(sharded, sweep);
    if (mega) fragment += ",\n" + mega_json(mega_outcome, mega_p);
    if (have_scenario_report) {
      fragment += ",\n  \"attribution\": {\n    \"scenario\": " +
                  benchutil::profile_json(scenario_report);
      if (mega && options.profile) {
        fragment += ",\n    \"mega\": " + benchutil::profile_json(mega_report);
      }
      fragment += "\n  }";
    }
    if (merge_into_kernel_json(kernel_json, fragment)) {
      std::cout << "kernel bench sections merged into " << kernel_json << "\n";
    } else {
      std::cerr << "FAILED to write " << kernel_json << "\n";
      benchutil::g_all_ok = false;
    }
  }
  return benchutil::finish();
}
