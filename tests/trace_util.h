// Shared helpers for protocol-level tests: a deterministic world config and
// the milestone string trace (tests/milestone_trace.h).
#pragma once

#include "harness/metrics.h"
#include "harness/world.h"
#include "tests/milestone_trace.h"

namespace rdp::testutil {

inline harness::ScenarioConfig deterministic_config(int num_mss, int num_mh,
                                                    int num_servers) {
  harness::ScenarioConfig config;
  config.num_mss = num_mss;
  config.num_mh = num_mh;
  config.num_servers = num_servers;
  config.wired.base_latency = common::Duration::millis(5);
  config.wired.jitter = common::Duration::zero();
  config.wireless.base_latency = common::Duration::millis(20);
  config.wireless.jitter = common::Duration::zero();
  config.server.base_service_time = common::Duration::millis(100);
  return config;
}

// Adds a plain echo server with a fixed service time; returns its address.
inline common::NodeAddress add_server_with_service_time(
    harness::World& world, common::Duration service_time) {
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

// Records protocol milestones as strings like "forward#1->Node2+delpref".
using TraceObserver = MilestoneTrace;

}  // namespace rdp::testutil
