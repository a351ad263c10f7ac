#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "harness/metrics.h"
#include "harness/world.h"
#include "workload/driver.h"
#include "workload/mobility.h"
#include "workload/topology.h"

namespace rdp::workload {
namespace {

using common::CellId;
using common::Duration;
using common::Rng;

TEST(Topology, GridAdjacency) {
  const CellTopology topo = CellTopology::grid(3, 2);
  EXPECT_EQ(topo.size(), 6u);
  // Corner cell 0 (x=0,y=0): right and down.
  const auto& corner = topo.neighbors(CellId(0));
  EXPECT_EQ(corner.size(), 2u);
  EXPECT_NE(std::find(corner.begin(), corner.end(), CellId(1)), corner.end());
  EXPECT_NE(std::find(corner.begin(), corner.end(), CellId(3)), corner.end());
  // Middle cell 1 (x=1,y=0): left, right, down.
  EXPECT_EQ(topo.neighbors(CellId(1)).size(), 3u);
  // Cell 4 (x=1,y=1): left, right, up.
  EXPECT_EQ(topo.neighbors(CellId(4)).size(), 3u);
}

TEST(Topology, GridSingleCellHasNoNeighbors) {
  const CellTopology topo = CellTopology::grid(1, 1);
  EXPECT_EQ(topo.size(), 1u);
  EXPECT_TRUE(topo.neighbors(CellId(0)).empty());
}

TEST(Topology, RingWrapsAround) {
  const CellTopology topo = CellTopology::ring(4);
  const auto& n0 = topo.neighbors(CellId(0));
  EXPECT_EQ(n0.size(), 2u);
  EXPECT_NE(std::find(n0.begin(), n0.end(), CellId(1)), n0.end());
  EXPECT_NE(std::find(n0.begin(), n0.end(), CellId(3)), n0.end());
}

TEST(Topology, CompleteConnectsEverything) {
  const CellTopology topo = CellTopology::complete(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(topo.neighbors(CellId(i)).size(), 4u);
  }
}

TEST(Topology, RandomCellInRange) {
  const CellTopology topo = CellTopology::grid(4, 4);
  Rng rng(1);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(topo.random_cell(rng).value());
  EXPECT_GT(seen.size(), 10u);
  EXPECT_LE(*seen.rbegin(), 15u);
}

TEST(Mobility, RandomWalkStaysOnAdjacency) {
  const CellTopology topo = CellTopology::grid(4, 4);
  RandomWalkMobility mobility(topo, Duration::seconds(10));
  Rng rng(2);
  CellId current = mobility.initial_cell(rng);
  for (int i = 0; i < 200; ++i) {
    const CellId next = mobility.next_cell(current, rng);
    const auto& allowed = topo.neighbors(current);
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), next), allowed.end());
    current = next;
  }
}

TEST(Mobility, RandomWalkDwellHasConfiguredMean) {
  const CellTopology topo = CellTopology::grid(2, 2);
  RandomWalkMobility mobility(topo, Duration::seconds(30));
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += mobility.dwell(rng).to_seconds();
  EXPECT_NEAR(sum / n, 30.0, 1.0);
}

TEST(Mobility, UniformJumpNeverStays) {
  const CellTopology topo = CellTopology::grid(3, 3);
  UniformJumpMobility mobility(topo, Duration::seconds(10));
  Rng rng(4);
  const CellId current(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(mobility.next_cell(current, rng), current);
  }
}

TEST(Mobility, PingPongAlternates) {
  const CellTopology topo = CellTopology::grid(2, 1);
  PingPongMobility mobility(topo, Duration::seconds(5));
  Rng rng(5);
  const CellId home = mobility.initial_cell(rng);
  const CellId away = mobility.next_cell(home, rng);
  EXPECT_NE(home, away);
  EXPECT_EQ(mobility.next_cell(away, rng), home);
  EXPECT_EQ(mobility.next_cell(home, rng), away);
  EXPECT_EQ(mobility.dwell(rng), Duration::seconds(5));
}

TEST(Mobility, StaticNeverMoves) {
  const CellTopology topo = CellTopology::grid(3, 3);
  StaticMobility mobility(topo);
  Rng rng(6);
  const CellId start = mobility.initial_cell(rng);
  EXPECT_EQ(mobility.next_cell(start, rng), start);
}

// ---------------------------------------------------------------------------
// HostDriver end-to-end over the RDP stack.
// ---------------------------------------------------------------------------

TEST(HostDriver, DrivesMobilityAndRequestsToCompletion) {
  harness::ScenarioConfig config;
  config.seed = 99;
  config.num_mss = 9;
  config.num_mh = 4;
  config.num_servers = 2;
  config.server.base_service_time = Duration::millis(200);
  harness::World world(config);
  harness::MetricsCollector metrics;
  world.observers().add(&metrics);

  const CellTopology topo = CellTopology::grid(3, 3);
  RandomWalkMobility mobility(topo, Duration::seconds(20));
  WorkloadParams params;
  params.mean_request_interval = Duration::seconds(5);
  params.travel_time = Duration::millis(300);
  params.mean_active = Duration::seconds(40);
  params.mean_inactive = Duration::seconds(5);

  std::vector<common::NodeAddress> servers{world.server_address(0),
                                           world.server_address(1)};
  std::vector<std::unique_ptr<HostDriver<core::MobileHostAgent>>> drivers;
  for (int i = 0; i < config.num_mh; ++i) {
    drivers.push_back(std::make_unique<HostDriver<core::MobileHostAgent>>(
        world.simulator(), world.mh(i), mobility, world.rng().fork(), params,
        servers));
    drivers.back()->start();
  }
  world.run_for(Duration::seconds(600));
  for (auto& driver : drivers) driver->stop();
  world.run_to_quiescence();

  std::uint64_t total_migrations = 0, total_issued = 0;
  for (auto& driver : drivers) {
    total_migrations += driver->migrations();
    total_issued += driver->requests_issued();
  }
  EXPECT_GT(total_migrations, 20u);
  EXPECT_GT(total_issued, 100u);
  EXPECT_EQ(metrics.requests_issued, total_issued);
  // Loss-free world: every request must complete (the §5 guarantee).
  EXPECT_EQ(metrics.requests_lost, 0u);
  EXPECT_EQ(metrics.requests_completed_at_mh(), total_issued);
  EXPECT_EQ(metrics.delivery_ratio(), 1.0);
}

TEST(HostDriver, StopPreventsFurtherWork) {
  harness::ScenarioConfig config;
  config.num_mss = 4;
  config.num_mh = 1;
  harness::World world(config);
  const CellTopology topo = CellTopology::grid(2, 2);
  RandomWalkMobility mobility(topo, Duration::seconds(5));
  WorkloadParams params;
  params.mean_request_interval = Duration::seconds(2);
  HostDriver<core::MobileHostAgent> driver(world.simulator(), world.mh(0),
                                           mobility, Rng(1), params,
                                           {world.server_address(0)});
  driver.start();
  world.run_for(Duration::seconds(60));
  driver.stop();
  const auto issued = driver.requests_issued();
  const auto migrations = driver.migrations();
  world.run_for(Duration::seconds(60));
  EXPECT_EQ(driver.requests_issued(), issued);
  EXPECT_EQ(driver.migrations(), migrations);
}

}  // namespace
}  // namespace rdp::workload
