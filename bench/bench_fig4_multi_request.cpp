// E2 — Figure 4: multiple requests through one proxy.
//
// Re-enacts the paper's Figure 4: three overlapping requests sharing one
// proxy, RKpR reset by a newer request, the standalone del-pref message,
// the del-proxy handshake — and the §3.4 closing race where the del-pref
// loses against the last Ack and the proxy survives to be reused.
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "core/server.h"
#include "harness/metrics.h"
#include "harness/world.h"

namespace {

using namespace rdp;
using common::Duration;
using common::NodeAddress;

harness::ScenarioConfig fig4_config() {
  harness::ScenarioConfig config;
  config.num_mss = 2;
  config.num_mh = 1;
  config.num_servers = 0;
  config.telemetry.trace = true;  // timeline + optional --trace export
  config.cost.enabled = true;      // per-type wired message counts
  config.wired.base_latency = Duration::millis(5);
  config.wired.jitter = Duration::zero();
  config.wireless.base_latency = Duration::millis(20);
  config.wireless.jitter = Duration::zero();
  return config;
}

NodeAddress add_server(harness::World& world, Duration service_time) {
  core::Server::Config server_config;
  server_config.base_service_time = service_time;
  auto& server = world.add_server(
      [&](core::Runtime& runtime, common::ServerId id,
          common::NodeAddress address, common::Rng rng) {
        return std::make_unique<core::Server>(runtime, id, address,
                                              server_config, rng);
      });
  return server.address();
}

// Wire messages are tallied by the world's cost ledger (wired frames per
// payload type name); no hand-rolled log.
std::uint64_t wire_count(harness::World& world, const std::string& type) {
  const auto counts = world.cost_ledger()->wired_message_counts();
  const auto it = counts.find(type);
  return it == counts.end() ? 0 : it->second;
}

void main_flow(const benchutil::BenchOptions& artifacts) {
  benchutil::section("Figure 4 main flow (requests A, B, C)");
  harness::World world(fig4_config());
  harness::MetricsCollector metrics(&world.telemetry().registry());
  world.observers().add(&metrics);

  const NodeAddress server_a = add_server(world, Duration::millis(500));
  const NodeAddress server_b = add_server(world, Duration::millis(400));
  const NodeAddress server_c = add_server(world, Duration::millis(280));

  auto& mh = world.mh(0);
  auto& sim = world.simulator();
  mh.power_on(world.cell(0));
  sim.schedule(Duration::millis(100), [&] { mh.issue_request(server_a, "a"); });
  sim.schedule(Duration::millis(200),
               [&] { mh.migrate(world.cell(1), Duration::millis(50)); });
  sim.schedule(Duration::millis(645), [&] { mh.issue_request(server_b, "b"); });
  sim.schedule(Duration::millis(800), [&] { mh.issue_request(server_c, "c"); });
  world.run_to_quiescence();

  world.telemetry().tracer()->write_timeline(std::cout, "  ");

  std::cout << "  requests issued:    " << metrics.requests_issued << "\n"
            << "  results delivered:  " << metrics.results_delivered << "\n"
            << "  proxies created:    " << metrics.proxies_created << "\n"
            << "  standalone delPref: " << wire_count(world, "delPref")
            << "\n";

  benchutil::claim("one proxy serves all three requests",
                   metrics.proxies_created == 1 &&
                       metrics.results_delivered == 3);
  benchutil::claim("standalone del-pref sent exactly once (Fig 4)",
                   wire_count(world, "delPref") == 1);
  benchutil::claim("proxy deleted once, after the last Ack",
                   metrics.proxies_deleted == 1 &&
                       world.mss(0).proxy_count() == 0);
  benchutil::claim("no duplicate deliveries", metrics.app_duplicates == 0);
  benchutil::claim("invariant auditor clean",
                   world.telemetry().auditor()->clean());
  benchutil::export_artifacts(artifacts, world.telemetry(),
                              world.simulator().now());
}

void race_variant() {
  benchutil::section(
      "Figure 4 closing race: del-pref arrives after the last Ack");
  harness::World world(fig4_config());
  harness::MetricsCollector metrics(&world.telemetry().registry());
  world.observers().add(&metrics);

  const NodeAddress server_b = add_server(world, Duration::millis(400));
  const NodeAddress server_c = add_server(world, Duration::millis(386));

  auto& mh = world.mh(0);
  auto& sim = world.simulator();
  mh.power_on(world.cell(1));
  world.run_to_quiescence();

  // Two results ~6 ms apart; the AckC overtakes the standalone del-pref on
  // its way to the respMss, so del-proxy is never sent.
  const auto t0 = Duration::millis(1000);
  sim.schedule(t0, [&] { mh.issue_request(server_b, "b"); });
  sim.schedule(t0 + Duration::millis(6), [&] { mh.issue_request(server_c, "c"); });
  sim.schedule(t0 + Duration::millis(100),
               [&] { mh.migrate(world.cell(0), Duration::millis(50)); });
  world.run_to_quiescence();

  const bool proxy_survived = world.mss(1).proxy_count() == 1;
  std::cout << "  results delivered:  " << metrics.results_delivered << "\n"
            << "  proxy survived:     " << (proxy_survived ? "yes" : "no")
            << "\n";
  benchutil::claim("both results delivered exactly once",
                   metrics.results_delivered == 2 &&
                       metrics.app_duplicates == 0);
  benchutil::claim("proxy survives (AckC carried del-proxy=false)",
                   proxy_survived && metrics.proxies_deleted == 0);

  // "The old proxy will also be used for this new request."
  sim.schedule(Duration::millis(200), [&] { mh.issue_request(server_b, "d"); });
  world.run_to_quiescence();
  benchutil::claim("surviving proxy reused by the next request, then deleted",
                   metrics.proxies_created == 1 &&
                       metrics.proxies_deleted == 1 &&
                       metrics.results_delivered == 3);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchOptions options = benchutil::parse_options(argc, argv);
  benchutil::banner("E2", "multiple requests, proxy life-cycle",
                    "Figure 4 + §3.3/§3.4 of Endler/Silva/Okuda (ICDCS 2000)");
  main_flow(options);
  race_variant();
  return benchutil::finish();
}
