// Pins the experiment runners' whole output for small fixed scenarios:
// every scalar ExperimentResult field, plus FNV-1a digests of the counter
// maps, the cost summary's CSV rows and the bytes of every artifact the
// run writes.  A refactor of the runners or the worlds they build must
// leave each expected block unchanged.  Profiling stays off: its spans
// carry wall time.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "fault/fault_injector.h"
#include "harness/experiment.h"

namespace rdp::harness {
namespace {

using common::Duration;

std::string fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
  return buf;
}

std::string digest(const std::map<std::string, std::uint64_t>& values) {
  std::string text;
  for (const auto& [name, value] : values) {
    text += name + "=" + std::to_string(value) + "\n";
  }
  return fnv1a(text);
}

std::string cost_csv(const obs::CostSummary& cost) {
  std::ostringstream out;
  obs::CostSummary::csv_header(out);
  cost.append_csv(out, "pin");
  return out.str();
}

// The file's bytes; removes it, so a later run cannot read a stale copy.
std::string take_file(const std::string& path) {
  std::ostringstream bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes << in.rdbuf();
  }
  std::remove(path.c_str());
  return bytes.str();
}

// Unique per process, so concurrent suites never share an artifact path.
std::string artifact(const std::string& name) {
  return ::testing::TempDir() + "/runner_pin_" + std::to_string(::getpid()) +
         "_" + name;
}

// Every scalar field of `r` and a digest of each of its maps, one per line.
std::string render(const ExperimentResult& r) {
  std::ostringstream out;
  const auto count = [&out](const char* name, std::uint64_t value) {
    out << name << ' ' << value << '\n';
  };
  const auto real = [&out](const char* name, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out << name << ' ' << buf << '\n';
  };
  count("requests_issued", r.requests_issued);
  count("requests_completed", r.requests_completed);
  count("requests_lost", r.requests_lost);
  count("results_delivered", r.results_delivered);
  count("app_duplicates", r.app_duplicates);
  count("retransmissions", r.retransmissions);
  count("result_forwards", r.result_forwards);
  real("delivery_ratio", r.delivery_ratio);
  real("mean_latency_ms", r.mean_latency_ms);
  real("p50_latency_ms", r.p50_latency_ms);
  real("p90_latency_ms", r.p90_latency_ms);
  real("p95_latency_ms", r.p95_latency_ms);
  real("p99_latency_ms", r.p99_latency_ms);
  count("migrations", r.migrations);
  count("reactivations", r.reactivations);
  count("handoffs", r.handoffs);
  count("update_currentloc", r.update_currentloc);
  count("acks_forwarded", r.acks_forwarded);
  real("mean_handoff_ms", r.mean_handoff_ms);
  real("mean_handoff_bytes", r.mean_handoff_bytes);
  count("proxies_created", r.proxies_created);
  real("placement_jain", r.placement_jain);
  real("placement_max_to_mean", r.placement_max_to_mean);
  count("wired_messages", r.wired_messages);
  count("wired_bytes", r.wired_bytes);
  count("delproxy_with_pending", r.delproxy_with_pending);
  count("stale_acks", r.stale_acks);
  count("requests_dropped_preproxy", r.requests_dropped_preproxy);
  count("causal_delayed", r.causal_delayed);
  count("invariant_violations", r.invariant_violations);
  count("analyzer_violations", r.analyzer_violations);
  count("analyzer_events", r.analyzer_events);
  count("analyzer_decode_errors", r.analyzer_decode_errors);
  count("kernel_events", r.kernel_events);
  out << "wired_by_type " << digest(r.wired_by_type) << '\n';
  out << "cost_csv " << fnv1a(cost_csv(r.cost)) << '\n';
  out << "counters " << digest(r.counters) << '\n';
  return out.str();
}

ExperimentParams small_scenario(std::uint64_t seed) {
  ExperimentParams params;
  params.seed = seed;
  params.grid_width = 3;
  params.grid_height = 2;
  params.num_mh = 10;
  params.num_servers = 2;
  params.sim_time = Duration::seconds(60);
  params.drain_time = Duration::seconds(60);
  params.mean_dwell = Duration::seconds(8);
  params.mean_request_interval = Duration::seconds(3);
  return params;
}

TEST(ExperimentRunners, SingleKernelOutputsArePinned) {
  ExperimentParams params = small_scenario(0x51e9);
  params.causal_order = true;
  params.wireless.uplink_loss = 0.05;
  params.wireless.downlink_loss = 0.05;
  params.rdp.arq.mode = core::ArqMode::kSlidingWindow;
  params.rdp.mss_result_cache = true;
  params.rdp.mh_reissue = true;
  params.rdp.reissue_timeout = Duration::seconds(20);
  params.rdp.max_reissue_attempts = 10;
  params.proxy_checkpointing = true;
  params.analyzer = true;
  params.metrics_period = Duration::seconds(10);
  params.rdp_world_hook = [](World& world) -> std::shared_ptr<void> {
    fault::FaultPlan plan;
    plan.seed = 17;
    plan.crash_at(1, Duration::seconds(20), Duration::seconds(2));
    auto injector = std::make_shared<fault::FaultInjector>(world, plan);
    injector->arm();
    return injector;
  };
  params.trace_out = artifact("single_trace.json");
  params.metrics_out = artifact("single_metrics.csv");
  params.analyzer_out = artifact("single_analyzer.jsonl");

  const ExperimentResult result = run_rdp_experiment(params);
  const std::string actual =
      render(result) + "trace " + fnv1a(take_file(params.trace_out)) +
      "\nmetrics " + fnv1a(take_file(params.metrics_out)) + "\nanalyzer " +
      fnv1a(take_file(params.analyzer_out)) + "\n";
  EXPECT_EQ(actual, R"(requests_issued 212
requests_completed 212
requests_lost 0
results_delivered 212
app_duplicates 0
retransmissions 8
result_forwards 220
delivery_ratio 1
mean_latency_ms 686.4212688679246
p50_latency_ms 266.95999999999998
p90_latency_ms 672.495
p95_latency_ms 1020.13
p99_latency_ms 10347.656999999999
migrations 62
reactivations 0
handoffs 57
update_currentloc 9
acks_forwarded 212
mean_handoff_ms 14.821719298245618
mean_handoff_bytes 44
proxies_created 186
placement_jain 0.94866732477788751
placement_max_to_mean 1.4838709677419355
wired_messages 568
wired_bytes 113571
delproxy_with_pending 0
stale_acks 0
requests_dropped_preproxy 1
causal_delayed 0
invariant_violations 0
analyzer_violations 0
analyzer_events 475
analyzer_decode_errors 0
kernel_events 3093
wired_by_type 601e03ecc1bf6b8c
cost_csv e48fb72f5925dee7
counters 55c2334281737c7b
trace e12ddb632e94ff84
metrics 82d8225c9f7b0ebd
analyzer 7fc27d8ac94506a3
)");
  // The scenario exercises what it names.
  EXPECT_EQ(result.counters.at("mss.crashes"), 1u);
  EXPECT_GT(result.counters.at("arq.retransmits"), 0u);
}

TEST(ExperimentRunners, ShardedOutputsArePinned) {
  ExperimentParams params = small_scenario(0x5a4d);
  params.shards = 3;
  params.shard_threads = 2;
  params.analyzer = true;
  params.metrics_period = Duration::seconds(10);
  params.membership_churn = {
      {Duration::seconds(15), 2, false},
      {Duration::seconds(30), 2, true},
  };
  params.metrics_out = artifact("sharded_metrics.csv");
  params.analyzer_out = artifact("sharded_analyzer.jsonl");

  const ExperimentResult result = run_sharded_rdp_experiment(params);
  const std::string actual = render(result) + "metrics " +
                             fnv1a(take_file(params.metrics_out)) +
                             "\nanalyzer " +
                             fnv1a(take_file(params.analyzer_out)) + "\n";
  EXPECT_EQ(actual, R"(requests_issued 202
requests_completed 198
requests_lost 4
results_delivered 198
app_duplicates 0
retransmissions 6
result_forwards 204
delivery_ratio 0.98019801980198018
mean_latency_ms 420.22463636363608
p50_latency_ms 264.99799999999999
p90_latency_ms 423.44200000000001
p95_latency_ms 781.32400000000007
p99_latency_ms 5111.71
migrations 81
reactivations 0
handoffs 67
update_currentloc 6
acks_forwarded 198
mean_handoff_ms 14.740895522388058
mean_handoff_bytes 44
proxies_created 165
placement_jain 0.84074485825458589
placement_max_to_mean 1.8909090909090909
wired_messages 552
wired_bytes 115623
delproxy_with_pending 0
stale_acks 0
requests_dropped_preproxy 0
causal_delayed 0
invariant_violations 0
analyzer_violations 0
analyzer_events 442
analyzer_decode_errors 0
kernel_events 1903
wired_by_type 4a0aec9b8188c9f4
cost_csv b33a28a7b3ad8074
counters 132685fe071accd7
metrics cc55834eeafa6ada
analyzer bcd552af622fdeec
)");
  EXPECT_EQ(result.counters.at("membership.departures"), 1u);
  EXPECT_EQ(result.counters.at("membership.rejoins"), 1u);
}

TEST(ExperimentRunners, BaselineOutputsArePinned) {
  const ExperimentParams params = small_scenario(0xba5e);
  EXPECT_EQ(render(run_baseline_experiment(params,
                                           baseline::BaselineMode::kDirect)),
            R"(requests_issued 192
requests_completed 188
requests_lost 0
results_delivered 188
app_duplicates 0
retransmissions 0
result_forwards 0
delivery_ratio 0.97916666666666663
mean_latency_ms 274.35273404255315
p50_latency_ms 265.512
p90_latency_ms 271.47700000000003
p95_latency_ms 275.25300000000004
p99_latency_ms 510.82000000000005
migrations 69
reactivations 0
handoffs 0
update_currentloc 0
acks_forwarded 0
mean_handoff_ms 0
mean_handoff_bytes 0
proxies_created 0
placement_jain 1
placement_max_to_mean 1
wired_messages 384
wired_bytes 14784
delproxy_with_pending 0
stale_acks 0
requests_dropped_preproxy 0
causal_delayed 0
invariant_violations 0
analyzer_violations 0
analyzer_events 0
analyzer_decode_errors 0
kernel_events 1448
wired_by_type 07ecac65092d51d7
cost_csv 5404e9948988b67b
counters edc2a2f8b9bf05cb
)");
  EXPECT_EQ(render(run_baseline_experiment(
                params, baseline::BaselineMode::kMobileIp)),
            R"(requests_issued 192
requests_completed 188
requests_lost 0
results_delivered 188
app_duplicates 0
retransmissions 0
result_forwards 0
delivery_ratio 0.97916666666666663
mean_latency_ms 279.98752659574478
p50_latency_ms 270.19
p90_latency_ms 278.08300000000003
p95_latency_ms 282.51599999999996
p99_latency_ms 532.31099999999992
migrations 69
reactivations 0
handoffs 0
update_currentloc 0
acks_forwarded 0
mean_handoff_ms 0
mean_handoff_bytes 0
proxies_created 0
placement_jain 0.71342313051555972
placement_max_to_mean 1.75
wired_messages 630
wired_bytes 21336
delproxy_with_pending 0
stale_acks 0
requests_dropped_preproxy 0
causal_delayed 0
invariant_violations 0
analyzer_violations 0
analyzer_events 0
analyzer_decode_errors 0
kernel_events 1694
wired_by_type 34a1a9d19986ff15
cost_csv 793f44b213633b26
counters c4bae515cbd80995
)");
  EXPECT_EQ(render(run_baseline_experiment(
                params, baseline::BaselineMode::kReliableMobileIp)),
            R"(requests_issued 192
requests_completed 192
requests_lost 0
results_delivered 192
app_duplicates 0
retransmissions 0
result_forwards 0
delivery_ratio 1
mean_latency_ms 288.33957291666661
p50_latency_ms 269.64800000000002
p90_latency_ms 278.40600000000001
p95_latency_ms 294.90699999999998
p99_latency_ms 769.32100000000003
migrations 69
reactivations 0
handoffs 0
update_currentloc 0
acks_forwarded 0
mean_handoff_ms 0
mean_handoff_bytes 0
proxies_created 0
placement_jain 0.70638423065607536
placement_max_to_mean 1.806122448979592
wired_messages 825
wired_bytes 26040
delproxy_with_pending 0
stale_acks 0
requests_dropped_preproxy 0
causal_delayed 0
invariant_violations 0
analyzer_violations 0
analyzer_events 0
analyzer_decode_errors 0
kernel_events 2085
wired_by_type a30afa46cde40da7
cost_csv af2df55ffbdbc497
counters 59fce79fb567c858
)");
}

// --- features one kernel does not run -----------------------------------------
//
// Each runner refuses what its kernel cannot run instead of silently running
// without it.

ExperimentParams sharded_scenario() {
  ExperimentParams params = small_scenario(0x7ef5);
  params.shards = 2;
  return params;
}

TEST(ExperimentRunners, ShardedRefusesReplication) {
  ExperimentParams params = sharded_scenario();
  params.replication.mode = replication::Mode::kSync;
  EXPECT_THROW(run_sharded_rdp_experiment(params), common::InvariantViolation);
}

TEST(ExperimentRunners, ShardedRefusesProxyCheckpointing) {
  ExperimentParams params = sharded_scenario();
  params.proxy_checkpointing = true;
  EXPECT_THROW(run_sharded_rdp_experiment(params), common::InvariantViolation);
}

TEST(ExperimentRunners, ShardedRefusesWorldHook) {
  ExperimentParams params = sharded_scenario();
  params.rdp_world_hook = [](World&) -> std::shared_ptr<void> {
    return nullptr;
  };
  EXPECT_THROW(run_sharded_rdp_experiment(params), common::InvariantViolation);
}

TEST(ExperimentRunners, ShardedRefusesCorrelatedLoss) {
  ExperimentParams params = sharded_scenario();
  params.loss.profile = workload::LossProfile::kBursty;
  EXPECT_THROW(run_sharded_rdp_experiment(params), common::InvariantViolation);
}

TEST(ExperimentRunners, SingleKernelRefusesMembershipChurn) {
  ExperimentParams params = small_scenario(0x7ef5);
  params.membership_churn = {{Duration::seconds(10), 1, false}};
  EXPECT_THROW(run_rdp_experiment(params), common::InvariantViolation);
}

TEST(ExperimentRunners, SingleKernelRefusesShards) {
  ExperimentParams params = small_scenario(0x7ef5);
  params.shards = 2;
  EXPECT_THROW(run_rdp_experiment(params), common::InvariantViolation);
}

}  // namespace
}  // namespace rdp::harness
