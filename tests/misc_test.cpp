// Odds and ends: the directory service, the optional server-completion
// ack (§3.1 "possibly sends an acknowledgment to the server"), message
// describe()/wire_size() surfaces used by traces and byte accounting.
#include <gtest/gtest.h>

#include "core/directory.h"
#include "core/messages.h"
#include "harness/metrics.h"
#include "harness/world.h"
#include "tests/trace_util.h"

namespace rdp {
namespace {

using common::CellId;
using common::Duration;
using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::ProxyId;
using common::RequestId;
using common::ServerId;

TEST(Directory, AddressesAreUniqueAndLookupsWork) {
  core::Directory directory;
  const NodeAddress a = directory.allocate_address();
  const NodeAddress b = directory.allocate_address();
  EXPECT_NE(a, b);
  directory.register_mss(MssId(0), CellId(0), a);
  directory.register_server(ServerId(0), b);
  EXPECT_EQ(directory.mss_address(MssId(0)), a);
  EXPECT_EQ(directory.mss_of_cell(CellId(0)), MssId(0));
  EXPECT_EQ(directory.server_address(ServerId(0)), b);
  EXPECT_EQ(directory.mss_count(), 1u);
}

TEST(Directory, RejectsDuplicatesAndUnknowns) {
  core::Directory directory;
  const NodeAddress a = directory.allocate_address();
  directory.register_mss(MssId(0), CellId(0), a);
  EXPECT_THROW(directory.register_mss(MssId(0), CellId(1), a),
               common::InvariantViolation);
  EXPECT_THROW((void)directory.mss_address(MssId(7)),
               common::InvariantViolation);
  EXPECT_THROW((void)directory.mss_of_cell(CellId(9)),
               common::InvariantViolation);
  EXPECT_THROW((void)directory.server_address(ServerId(9)),
               common::InvariantViolation);
}

TEST(ServerAcks, ProxySendsCompletionAckWhenConfigured) {
  auto config = testutil::deterministic_config(2, 1, 1);
  config.rdp.ack_servers = true;
  harness::World world(config);
  world.mh(0).power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    world.mh(0).issue_request(world.server_address(0), "q");
  });
  world.run_to_quiescence();
  EXPECT_EQ(world.server(0).completion_acks(), 1u);
}

TEST(ServerAcks, NoAckByDefault) {
  harness::World world(testutil::deterministic_config(2, 1, 1));
  world.mh(0).power_on(world.cell(0));
  world.simulator().schedule(Duration::millis(100), [&] {
    world.mh(0).issue_request(world.server_address(0), "q");
  });
  world.run_to_quiescence();
  EXPECT_EQ(world.server(0).completion_acks(), 0u);
}

TEST(MessageSurfaces, DescribeAndWireSize) {
  const core::MsgGreet greet(MssId(3));
  EXPECT_EQ(greet.describe(), "greet(old=Mss3)");
  EXPECT_GT(greet.wire_size(), 0u);

  const core::MsgUplinkRequest request(RequestId(MhId(1), 2), NodeAddress(3),
                                       "body", true);
  EXPECT_NE(request.describe().find("stream"), std::string::npos);
  // Frame header, tag, request id, server, length-prefixed body, stream.
  EXPECT_EQ(request.wire_size(), 4u + 1u + 8u + 4u + (4u + 4u) + 1u);

  const core::MsgResultForward fwd(MhId(1), NodeAddress(2), ProxyId(3),
                                   RequestId(MhId(1), 4), 5, true, true, "x",
                                   6);
  EXPECT_NE(fwd.describe().find("del-pref"), std::string::npos);

  const core::MsgAckForward ack(MhId(1), ProxyId(2), RequestId(MhId(1), 3), 4,
                                true);
  EXPECT_NE(ack.describe().find("del-proxy"), std::string::npos);

  core::Pref pref;
  pref.clear();
  const core::MsgDeregAck dereg_ack(MhId(9), pref);
  EXPECT_NE(dereg_ack.describe().find("pref=null"), std::string::npos);
}

TEST(MessageSurfaces, WireSizeScalesWithBody) {
  const core::MsgServerResult small(ProxyId(1), RequestId(MhId(1), 1), 1,
                                    true, "a");
  const core::MsgServerResult large(ProxyId(1), RequestId(MhId(1), 1), 1,
                                    true, std::string(1000, 'a'));
  EXPECT_EQ(large.wire_size() - small.wire_size(), 999u);
}

TEST(WorldBuilder, MssAtResolvesAddresses) {
  harness::World world(testutil::deterministic_config(3, 1, 1));
  EXPECT_EQ(world.mss_at(world.mss(1).address()), &world.mss(1));
  EXPECT_EQ(world.mss_at(world.server_address(0)), nullptr);
}

TEST(WorldBuilder, CausalLayerPresenceFollowsConfig) {
  auto config = testutil::deterministic_config(2, 1, 0);
  config.causal_order = true;
  harness::World with(config);
  EXPECT_NE(with.causal(), nullptr);
  config.causal_order = false;
  harness::World without(config);
  EXPECT_EQ(without.causal(), nullptr);
}

}  // namespace
}  // namespace rdp
