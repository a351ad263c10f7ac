// Extension features and hardenings beyond the paper's core protocol:
//   * footnote-3 Mss result cache (recovers lost downlinks locally),
//   * idle-proxy GC + MsgProxyGone pref healing,
//   * the pref-restore handshake for the stale-del-pref revisit race,
//   * the rkpr_tracks_request hardening (regression vs the paper's
//     formulation),
//   * the group-multicast service (Fig 1's mcast operation).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/world.h"
#include "tests/trace_util.h"
#include "tis/group_server.h"
#include "workload/driver.h"

namespace rdp {
namespace {

using common::Duration;
using common::GroupId;
using common::MhId;

// ---------------------------------------------------------------------------
// Footnote-3 result cache.
// ---------------------------------------------------------------------------

TEST(ResultCache, RecoversLostDownlinkWithoutMigration) {
  auto config = testutil::deterministic_config(2, 1, 1);
  config.seed = 12;
  config.wireless.downlink_loss = 0.9;  // almost every frame dies
  config.rdp.mss_result_cache = true;
  config.rdp.result_cache_retry = Duration::millis(200);
  config.rdp.result_cache_max_attempts = 200;
  harness::World world(config);
  harness::MetricsCollector metrics;
  world.observers().add(&metrics);

  world.mh(0).power_on(world.cell(0));
  world.simulator().schedule(Duration::seconds(2), [&] {
    world.mh(0).issue_request(world.server_address(0), "q");
  });
  world.run_for(Duration::seconds(120));

  // The Mh never migrates, so without the cache the proxy would have no
  // update_currentLoc trigger and the result would be stuck; the local
  // retry loop delivers it.
  EXPECT_EQ(metrics.results_delivered, 1u);
  EXPECT_EQ(metrics.requests_completed, 1u);
  EXPECT_GT(world.counters().get("mss.result_cache_retries"), 0u);
}

TEST(ResultCache, StuckWithoutCacheRecoveredWithCache) {
  // A sedentary host under 90% downlink loss: without the cache the single
  // forwarding attempt per update_currentLoc usually dies and there is no
  // further trigger, so the result is stuck for the whole window; with the
  // cache the respMss retries locally until it lands.  Compare the two
  // configurations on identical seeds.
  int stuck_without_cache = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto make = [&](bool cache) {
      auto config = testutil::deterministic_config(2, 1, 1);
      config.seed = seed;
      config.wireless.downlink_loss = 0.9;
      config.rdp.mss_result_cache = cache;
      config.rdp.registration_retry = Duration::millis(500);
      return config;
    };
    auto run = [&](bool cache) {
      harness::World world(make(cache));
      harness::MetricsCollector metrics;
      world.observers().add(&metrics);
      world.mh(0).power_on(world.cell(0));
      // Give the (retried) registration time, then issue.
      world.simulator().schedule(Duration::seconds(20), [&] {
        world.mh(0).issue_request(world.server_address(0), "q");
      });
      world.run_for(Duration::seconds(90));
      return metrics.results_delivered;
    };
    if (run(false) == 0) ++stuck_without_cache;
    EXPECT_EQ(run(true), 1u) << "cache run, seed " << seed;
  }
  // At 90% loss the single attempt fails in ~90% of runs.
  EXPECT_GE(stuck_without_cache, 3);
}

TEST(ResultCache, HighLossRandomWorkloadStillDeliversEverything) {
  harness::ExperimentParams params;
  params.seed = 31;
  params.num_mh = 8;
  params.sim_time = Duration::seconds(300);
  params.drain_time = Duration::seconds(120);
  params.mean_dwell = Duration::seconds(25);
  params.mean_request_interval = Duration::seconds(8);
  params.wireless.downlink_loss = 0.3;
  params.rdp.mss_result_cache = true;
  const auto result = harness::run_rdp_experiment(params);
  EXPECT_EQ(result.requests_completed,
            result.requests_issued - result.requests_lost);
  EXPECT_GT(result.requests_issued, 200u);
  // Lossy radio forces local retries.
  auto it = result.counters.find("mss.result_cache_retries");
  ASSERT_NE(it, result.counters.end());
  EXPECT_GT(it->second, 0u);
}

// ---------------------------------------------------------------------------
// Idle-proxy GC + MsgProxyGone healing.
// ---------------------------------------------------------------------------

TEST(IdleProxyGc, ReclaimsOrphanedProxyAndHealsPref) {
  auto config = testutil::deterministic_config(2, 1, 1);
  config.rdp.idle_proxy_gc = true;
  config.rdp.idle_proxy_timeout = Duration::seconds(10);
  config.rdp.proxy_gc_interval = Duration::seconds(5);
  harness::World world(config);
  harness::MetricsCollector metrics;
  world.observers().add(&metrics);

  // Create the Fig-4 closing-race orphan: two results ~6 ms apart so the
  // standalone del-pref loses against the last Ack (see rdp_fig4_test).
  const auto server_b =
      testutil::add_server_with_service_time(world, Duration::millis(400));
  const auto server_c =
      testutil::add_server_with_service_time(world, Duration::millis(386));
  auto& mh = world.mh(0);
  mh.power_on(world.cell(1));
  world.run_to_quiescence();
  auto& sim = world.simulator();
  const auto t0 = Duration::millis(1000);
  sim.schedule(t0, [&] { mh.issue_request(server_b, "b"); });
  sim.schedule(t0 + Duration::millis(6), [&] { mh.issue_request(server_c, "c"); });
  sim.schedule(t0 + Duration::millis(100),
               [&] { mh.migrate(world.cell(0), Duration::millis(50)); });
  world.run_for(Duration::seconds(5));
  ASSERT_EQ(world.mss(1).proxy_count(), 1u);  // idle survivor

  // The GC reclaims it...
  world.run_for(Duration::seconds(20));
  EXPECT_EQ(world.mss(1).proxy_count(), 0u);
  EXPECT_EQ(metrics.proxies_gc, 1u);

  // ...leaving a stale pref at Mss0, which the next request heals through
  // MsgProxyGone (a fresh proxy is created and the request replayed).
  sim.schedule(Duration::zero(), [&] { mh.issue_request(server_b, "after-gc"); });
  world.run_for(Duration::seconds(5));
  EXPECT_EQ(metrics.results_delivered, 3u);
  EXPECT_EQ(world.counters().get("mss.prefs_healed"), 1u);
  EXPECT_EQ(world.counters().get("mss.request_for_dead_proxy"), 1u);
}

TEST(IdleProxyGc, DoesNotTouchBusyProxies) {
  auto config = testutil::deterministic_config(2, 1, 0);
  config.rdp.idle_proxy_gc = true;
  config.rdp.idle_proxy_timeout = Duration::seconds(5);
  config.rdp.proxy_gc_interval = Duration::seconds(2);
  harness::World world(config);
  const auto slow =
      testutil::add_server_with_service_time(world, Duration::seconds(60));
  world.mh(0).power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(500), [&] {
    world.mh(0).issue_request(slow, "slow");
  });
  world.run_for(Duration::seconds(30));
  // Still pending -> not idle -> must not be collected.
  EXPECT_EQ(world.mss(0).proxy_count(), 1u);
  world.run_for(Duration::seconds(120));
  // Eventually the result arrives, the request completes, the proxy is
  // deleted by the normal handshake — not the GC.
  EXPECT_EQ(world.mss(0).proxy_count(), 0u);
  EXPECT_EQ(world.counters().get("mss.proxies_gc"), 0u);
}

// ---------------------------------------------------------------------------
// Stale-del-pref revisit race: detection, healing, and the value of the
// rkpr_tracks_request hardening.
// ---------------------------------------------------------------------------

TEST(RevisitRace, PingPongChurnIsHealedWithNoRequestLoss) {
  // Ping-pong at a short dwell constantly revisits cells — the pattern
  // that produces stale del-pref flags (DESIGN.md §5.4).  Sweep seeds until
  // the race actually fires, and verify the restore handshake kept
  // delivery total every time.
  bool race_observed = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    harness::ExperimentParams params;
    params.seed = seed * 1301;
    params.num_mh = 10;
    params.sim_time = Duration::seconds(400);
    params.mobility = harness::MobilityKind::kPingPong;
    params.mean_dwell = Duration::seconds(3);
    params.mean_request_interval = Duration::seconds(5);
    params.service_time = Duration::millis(500);
    params.service_jitter = Duration::millis(1500);
    const auto result = harness::run_rdp_experiment(params);
    EXPECT_EQ(result.requests_completed,
              result.requests_issued - result.requests_lost)
        << "seed " << params.seed;
    if (result.delproxy_with_pending > 0) {
      race_observed = true;
      auto it = result.counters.find("mss.prefs_restored");
      EXPECT_NE(it, result.counters.end()) << "seed " << params.seed;
    }
  }
  EXPECT_TRUE(race_observed) << "sweep never exercised the revisit race";
}

// The sweep above is only the revisit race if every Mh shuttles between
// its own two cells.  PingPongMobility keeps its home/away pair per
// instance, so each driver needs its own model: one shared by all drivers
// moved every Mh between the last-started driver's pair.
TEST(RevisitRace, EachPingPongMhRegistersWithAtMostTwoMss) {
  struct Registrations final : core::RdpObserver {
    std::map<MhId, std::set<common::MssId>> mss_by_mh;
    std::uint32_t hook_mask() const override {
      return core::hook_bit(core::Hook::kMhRegistered);
    }

   protected:
    void on_mh_registered(common::SimTime, MhId mh, common::MssId mss,
                          Duration) override {
      mss_by_mh[mh].insert(mss);
    }
  };
  Registrations registrations;
  harness::ExperimentParams params;
  params.seed = 1301;  // the first seed of the sweep above
  params.num_mh = 10;
  params.sim_time = Duration::seconds(400);
  params.mobility = harness::MobilityKind::kPingPong;
  params.mean_dwell = Duration::seconds(3);
  params.mean_request_interval = Duration::seconds(5);
  params.service_time = Duration::millis(500);
  params.service_jitter = Duration::millis(1500);
  params.rdp_world_hook =
      [&registrations](harness::World& world) -> std::shared_ptr<void> {
    world.observers().add(&registrations);
    return nullptr;
  };
  (void)harness::run_rdp_experiment(params);
  ASSERT_EQ(registrations.mss_by_mh.size(), 10u);
  for (const auto& [mh, mss] : registrations.mss_by_mh) {
    EXPECT_LE(mss.size(), 2u) << mh;
  }
}

TEST(RevisitRace, PaperFormulationTripsMoreAnomalies) {
  // With rkpr_tracks_request disabled (the paper's formulation: any Ack
  // arriving while RKpR is set completes the handshake), duplicate Acks of
  // older requests can also tear the pref down, so the anomaly counter
  // must not be lower than with the hardening enabled.
  std::uint64_t hardened = 0, paper = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    harness::ExperimentParams params;
    params.seed = seed * 733;
    params.num_mh = 10;
    params.sim_time = Duration::seconds(400);
    params.mobility = harness::MobilityKind::kPingPong;
    params.mean_dwell = Duration::seconds(2);
    params.mean_request_interval = Duration::seconds(4);
    params.service_time = Duration::millis(500);
    params.service_jitter = Duration::millis(1500);

    params.rdp.rkpr_tracks_request = true;
    const auto with_tracking = harness::run_rdp_experiment(params);
    params.rdp.rkpr_tracks_request = false;
    const auto without = harness::run_rdp_experiment(params);
    hardened += with_tracking.delproxy_with_pending;
    paper += without.delproxy_with_pending;
    // Deliveries stay total either way thanks to the restore handshake.
    EXPECT_EQ(without.requests_completed,
              without.requests_issued - without.requests_lost);
  }
  EXPECT_GE(paper, hardened);
  EXPECT_GT(paper, 0u);
}

// ---------------------------------------------------------------------------
// Group multicast (Fig 1).
// ---------------------------------------------------------------------------

class GroupTest : public ::testing::Test {
 protected:
  GroupTest() : world_(testutil::deterministic_config(3, 3, 0)) {
    auto& server = world_.add_server(
        [&](core::Runtime& runtime, common::ServerId id,
            common::NodeAddress address, common::Rng rng) {
          return std::make_unique<tis::GroupServer>(runtime, id, address, rng);
        });
    group_server_ = static_cast<tis::GroupServer*>(&server);
    for (int i = 0; i < 3; ++i) {
      world_.mh(i).set_delivery_callback(
          [this, i](const core::MobileHostAgent::Delivery& delivery) {
            received_[i].push_back(delivery.body);
          });
      world_.mh(i).power_on(world_.cell(i));
    }
    world_.run_for(Duration::millis(200));
  }

  harness::World world_;
  tis::GroupServer* group_server_ = nullptr;
  std::vector<std::string> received_[3];
};

TEST_F(GroupTest, MulticastReachesAllMembers) {
  core::RequestId inboxes[3];
  for (int i = 0; i < 3; ++i) {
    inboxes[i] = world_.mh(i).issue_request(
        group_server_->address(), tis::cmd_inbox(GroupId(7)), /*stream=*/true);
  }
  world_.run_for(Duration::seconds(1));
  EXPECT_EQ(group_server_->group_size(GroupId(7)), 3u);

  world_.mh(0).issue_request(group_server_->address(),
                             tis::cmd_mcast(GroupId(7), "meet at region 4"));
  world_.run_for(Duration::seconds(1));

  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(std::find(received_[i].begin(), received_[i].end(),
                        "group msg: meet at region 4"),
              received_[i].end())
        << "member " << i;
  }
  // Sender also got the delivery count confirmation.
  EXPECT_NE(std::find(received_[0].begin(), received_[0].end(),
                      "multicast to 3 members"),
            received_[0].end());
}

TEST_F(GroupTest, MulticastFollowsMigratingMember) {
  world_.mh(1).issue_request(group_server_->address(),
                             tis::cmd_inbox(GroupId(1)), /*stream=*/true);
  world_.run_for(Duration::seconds(1));
  world_.mh(1).migrate(world_.cell(0), Duration::millis(60));
  world_.run_for(Duration::millis(300));
  world_.mh(0).issue_request(group_server_->address(),
                             tis::cmd_mcast(GroupId(1), "hello"));
  world_.run_for(Duration::seconds(1));
  EXPECT_NE(std::find(received_[1].begin(), received_[1].end(),
                      "group msg: hello"),
            received_[1].end());
}

TEST_F(GroupTest, UnsubscribeLeavesGroup) {
  const core::RequestId inbox = world_.mh(2).issue_request(
      group_server_->address(), tis::cmd_inbox(GroupId(3)), /*stream=*/true);
  world_.run_for(Duration::seconds(1));
  EXPECT_EQ(group_server_->group_size(GroupId(3)), 1u);
  world_.mh(2).unsubscribe(inbox);
  world_.run_for(Duration::seconds(1));
  EXPECT_EQ(group_server_->group_size(GroupId(3)), 0u);
  EXPECT_NE(std::find(received_[2].begin(), received_[2].end(), "left group"),
            received_[2].end());
  // The inbox request is closed: no pending requests pin the proxy.
  EXPECT_EQ(world_.mh(2).pending_requests(), 0u);
}

TEST_F(GroupTest, MulticastToEmptyGroupReportsZero) {
  world_.mh(0).issue_request(group_server_->address(),
                             tis::cmd_mcast(GroupId(42), "anyone?"));
  world_.run_for(Duration::seconds(1));
  EXPECT_NE(std::find(received_[0].begin(), received_[0].end(),
                      "multicast to 0 members"),
            received_[0].end());
}

}  // namespace
}  // namespace rdp
