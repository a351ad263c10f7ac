// Property-based sweeps: the §5 guarantees expressed as invariants and
// checked across a parameter grid of seeds, mobility patterns, activity
// regimes and network conditions.
//
//   P1  at-least-once: requests_completed == requests_issued -
//       requests_lost (lost == pre-proxy drops + leave-with-pending);
//   P2  exactly-once at the application: the delivery callback never sees
//       a (request, seq) twice;
//   P3  proxy conservation: proxies_created == proxies_deleted + live;
//   P4  pref sanity after quiescence: each registered Mh's pref is null or
//       points to a live proxy of its own;
//   P5  overhead bounds: update_currentLoc <= migrations + reactivations +
//       registration retries; acks ~= deliveries.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "harness/metrics.h"
#include "harness/world.h"
#include "workload/driver.h"

namespace rdp {
namespace {

using common::Duration;
using common::MhId;

struct PropertyParams {
  std::uint64_t seed;
  const char* mobility;
  Duration dwell;
  bool activity;
  double loss;
  bool cache;
  bool causal = true;
  bool rkpr_tracking = true;

  [[nodiscard]] std::string name() const {
    std::string out = std::string(mobility) + "_seed" + std::to_string(seed);
    if (activity) out += "_onoff";
    if (loss > 0) out += "_lossy";
    if (cache) out += "_cache";
    if (!causal) out += "_nocausal";
    if (!rkpr_tracking) out += "_paperrkpr";
    return out;
  }
};

class RdpPropertyTest : public ::testing::TestWithParam<PropertyParams> {};

std::unique_ptr<workload::MobilityModel> make_mobility(
    const char* name, const workload::CellTopology& topology, Duration dwell) {
  const std::string kind(name);
  if (kind == "walk") {
    return std::make_unique<workload::RandomWalkMobility>(topology, dwell);
  }
  if (kind == "jump") {
    return std::make_unique<workload::UniformJumpMobility>(topology, dwell);
  }
  if (kind == "pingpong") {
    return std::make_unique<workload::PingPongMobility>(topology, dwell);
  }
  return std::make_unique<workload::StaticMobility>(topology);
}

TEST_P(RdpPropertyTest, InvariantsHold) {
  const PropertyParams& param = GetParam();

  harness::ScenarioConfig config;
  config.seed = param.seed;
  config.num_mss = 9;
  config.num_mh = 8;
  config.num_servers = 2;
  // Downlink loss only: a lost uplink *request* frame silently kills the
  // request before RDP's guarantee begins (§4 assigns request-side
  // reliability to QRPC), which would make P1 unverifiable.
  config.wireless.downlink_loss = param.loss;
  config.rdp.mss_result_cache = param.cache;
  config.causal_order = param.causal;
  config.rdp.rkpr_tracks_request = param.rkpr_tracking;
  config.server.base_service_time = Duration::millis(300);
  config.server.service_jitter = Duration::millis(500);

  harness::World world(config);
  harness::MetricsCollector metrics;
  world.observers().add(&metrics);

  // P2 guard: the application-level duplicate detector.
  std::map<MhId, std::set<std::pair<core::RequestId, std::uint32_t>>>
      app_seen;
  std::uint64_t app_level_duplicates = 0;
  for (int i = 0; i < config.num_mh; ++i) {
    const MhId mh(static_cast<std::uint32_t>(i));
    world.mh(i).set_delivery_callback(
        [&app_seen, &app_level_duplicates,
         mh](const core::MobileHostAgent::Delivery& delivery) {
          if (!app_seen[mh]
                   .insert(std::make_pair(delivery.request,
                                          delivery.result_seq))
                   .second) {
            ++app_level_duplicates;
          }
        });
  }

  const workload::CellTopology topology = workload::CellTopology::grid(3, 3);
  workload::WorkloadParams wl;
  wl.mean_request_interval = Duration::seconds(6);
  wl.travel_time = Duration::millis(200);
  if (param.activity) {
    wl.mean_active = Duration::seconds(50);
    wl.mean_inactive = Duration::seconds(8);
  }
  // One model per driver: PingPongMobility keeps its home per instance.
  std::vector<std::unique_ptr<workload::MobilityModel>> mobilities;
  std::vector<std::unique_ptr<workload::HostDriver<core::MobileHostAgent>>>
      drivers;
  std::vector<common::NodeAddress> servers{world.server_address(0),
                                           world.server_address(1)};
  for (int i = 0; i < config.num_mh; ++i) {
    mobilities.push_back(make_mobility(param.mobility, topology, param.dwell));
    drivers.push_back(
        std::make_unique<workload::HostDriver<core::MobileHostAgent>>(
            world.simulator(), world.mh(i), *mobilities.back(),
            world.rng().fork(), wl, servers));
    drivers.back()->start();
  }
  world.run_for(Duration::seconds(400));
  for (auto& driver : drivers) driver->stop();
  world.run_for(Duration::seconds(param.loss > 0 ? 240 : 120));

  std::uint64_t migrations = 0, reactivations = 0;
  for (auto& driver : drivers) {
    migrations += driver->migrations();
    reactivations += driver->reactivations();
  }

  // P1 — at-least-once for everything that became an RDP request.
  EXPECT_EQ(metrics.requests_completed_at_mh() + metrics.requests_lost,
            metrics.requests_issued)
      << param.name();
  if (param.loss == 0) {
    // In a loss-free run nothing is dropped pre-proxy unless churn raced a
    // hand-off; those are counted as lost, already covered above.  Sanity:
    // the overwhelming majority completed.
    EXPECT_GT(metrics.requests_completed_at_mh() * 100,
              metrics.requests_issued * 95)
        << param.name();
  }

  // P2 — exactly-once at the application.
  EXPECT_EQ(app_level_duplicates, 0u) << param.name();

  // P3 — proxy conservation.
  std::uint64_t live_proxies = 0;
  for (int i = 0; i < world.num_mss(); ++i) {
    live_proxies += world.mss(i).proxy_count();
  }
  EXPECT_EQ(metrics.proxies_created, metrics.proxies_deleted + live_proxies)
      << param.name();

  // P4 — pref sanity: every registered Mh's pref is null or points at a
  // live proxy registered to that Mh.
  for (int i = 0; i < config.num_mh; ++i) {
    const MhId mh(static_cast<std::uint32_t>(i));
    for (int m = 0; m < world.num_mss(); ++m) {
      if (!world.mss(m).is_local(mh)) continue;
      const core::Pref* pref = world.mss(m).pref_of(mh);
      ASSERT_NE(pref, nullptr) << param.name();
      if (!pref->has_proxy()) continue;
      core::Mss* host = world.mss_at(pref->proxy_host);
      ASSERT_NE(host, nullptr) << param.name();
      const core::Proxy* proxy = host->proxy(pref->proxy);
      if (proxy != nullptr) {
        EXPECT_EQ(proxy->mh(), mh) << param.name();
      }
      // proxy == nullptr can only linger when a stale pref survived a
      // healed anomaly with no follow-up request; MsgProxyGone would heal
      // it on the next request.
    }
  }

  // P5 — §5 overhead bounds.
  EXPECT_LE(metrics.update_currentloc,
            metrics.handoffs + world.counters().get("mss.greets_reactivate"))
      << param.name();
  EXPECT_LE(metrics.handoffs, migrations + reactivations +
                                  world.counters().get("mh.registration_retries"))
      << param.name();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RdpPropertyTest,
    ::testing::Values(
        PropertyParams{1, "static", Duration::seconds(3600), false, 0, false},
        PropertyParams{2, "walk", Duration::seconds(25), false, 0, false},
        PropertyParams{3, "walk", Duration::seconds(25), true, 0, false},
        PropertyParams{4, "walk", Duration::seconds(10), true, 0, false},
        PropertyParams{5, "jump", Duration::seconds(12), false, 0, false},
        PropertyParams{6, "jump", Duration::seconds(6), true, 0, false},
        PropertyParams{7, "pingpong", Duration::seconds(5), false, 0, false},
        PropertyParams{8, "pingpong", Duration::seconds(3), true, 0, false},
        PropertyParams{9, "walk", Duration::seconds(20), false, 0.15, true},
        PropertyParams{10, "walk", Duration::seconds(20), true, 0.15, true},
        PropertyParams{11, "jump", Duration::seconds(10), false, 0.15, true},
        PropertyParams{12, "pingpong", Duration::seconds(4), false, 0.15,
                       true},
        PropertyParams{13, "walk", Duration::seconds(25), false, 0, true},
        PropertyParams{14, "static", Duration::seconds(3600), true, 0.15,
                       true},
        PropertyParams{15, "walk", Duration::seconds(15), true, 0, false},
        PropertyParams{16, "jump", Duration::seconds(8), true, 0, false},
        // Ablations: the invariants must hold without causal order and
        // with the paper's RKpR formulation (healing keeps P1 intact).
        PropertyParams{17, "walk", Duration::seconds(15), false, 0, false,
                       /*causal=*/false},
        PropertyParams{18, "jump", Duration::seconds(8), true, 0, false,
                       /*causal=*/false},
        PropertyParams{19, "pingpong", Duration::seconds(3), false, 0, false,
                       /*causal=*/true, /*rkpr_tracking=*/false},
        PropertyParams{20, "pingpong", Duration::seconds(4), true, 0.15, true,
                       /*causal=*/false, /*rkpr_tracking=*/false}),
    [](const ::testing::TestParamInfo<PropertyParams>& info) {
      return info.param.name();
    });

}  // namespace
}  // namespace rdp
