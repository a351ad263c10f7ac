// MobileHostAgent edge cases: lifecycle contract violations, outbox
// ordering, duplicate-downlink acking, unsubscribe queueing, and behaviour
// when power state changes mid-transit.
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "harness/metrics.h"
#include "harness/world.h"
#include "tests/trace_util.h"

namespace rdp {
namespace {

using common::Duration;
using common::MhId;

class MobileHostUnitTest : public ::testing::Test {
 protected:
  MobileHostUnitTest() : world_(testutil::deterministic_config(3, 1, 1)) {
    world_.observers().add(&metrics_);
    world_.mh(0).set_delivery_callback(
        [this](const core::MobileHostAgent::Delivery& delivery) {
          bodies_.push_back(delivery.body);
        });
  }

  harness::World world_;
  harness::MetricsCollector metrics_;
  std::vector<std::string> bodies_;
};

TEST_F(MobileHostUnitTest, LifecycleContractIsEnforced) {
  auto& mh = world_.mh(0);
  EXPECT_THROW(mh.power_off(), common::InvariantViolation);  // not on yet
  EXPECT_THROW(mh.reactivate(), common::InvariantViolation);
  mh.power_on(world_.cell(0));
  EXPECT_THROW(mh.power_on(world_.cell(0)), common::InvariantViolation);
  EXPECT_THROW(mh.move_while_inactive(world_.cell(1)),
               common::InvariantViolation);  // active: use migrate()
  mh.power_off();
  EXPECT_THROW(mh.power_off(), common::InvariantViolation);
  EXPECT_THROW(mh.migrate(world_.cell(1), Duration::millis(1)),
               common::InvariantViolation);  // inactive: use move_while_inactive
}

TEST_F(MobileHostUnitTest, OutboxPreservesIssueOrder) {
  auto& mh = world_.mh(0);
  mh.power_on(world_.cell(0));
  // All issued before registration completes.
  mh.issue_request(world_.server_address(0), "first");
  mh.issue_request(world_.server_address(0), "second");
  mh.issue_request(world_.server_address(0), "third");
  world_.run_to_quiescence();
  ASSERT_EQ(bodies_.size(), 3u);
  EXPECT_EQ(bodies_[0], "re:first");
  EXPECT_EQ(bodies_[1], "re:second");
  EXPECT_EQ(bodies_[2], "re:third");
}

TEST(MobileHostForgedDownlink, DuplicateDownlinkIsAckedButNotDelivered) {
  // This test forges wire frames for a request that was never issued; the
  // online auditor rightly calls that delivery-without-issue (R2), so it
  // is off — the premise is broken on purpose.
  auto config = testutil::deterministic_config(3, 1, 1);
  config.telemetry.audit = false;
  harness::World world(config);
  std::vector<std::string> bodies;
  world.mh(0).set_delivery_callback(
      [&bodies](const core::MobileHostAgent::Delivery& delivery) {
        bodies.push_back(delivery.body);
      });

  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  world.run_for(Duration::millis(100));
  // Forge the same downlink result twice.
  const core::RequestId request(MhId(0), 1);
  for (int i = 0; i < 2; ++i) {
    world.wireless().downlink(
        world.cell(0), MhId(0),
        net::make_message<core::MsgDownlinkResult>(request, 1, true, "x", 1));
  }
  world.run_to_quiescence();
  EXPECT_EQ(bodies.size(), 1u);                   // app saw it once
  EXPECT_EQ(mh.duplicate_deliveries(), 1u);       // duplicate filtered
  // Both copies were acked (assumption 4) — the Mss relayed none of them
  // to a proxy (there is none) but received two acks.
  EXPECT_EQ(world.counters().get("mss.ack_without_proxy"), 2u);
}

TEST(MobileHostForgedDownlink, LateStreamResultAndResentCopyPinDeliveries) {
  // Forged frames again (auditor off, see above).  The duplicate filter is
  // a set of (request, result seq) pairs: a stream's non-final result that
  // arrives after the stream's final is still new, and only a pair seen
  // before is a duplicate.
  auto config = testutil::deterministic_config(3, 1, 1);
  config.telemetry.audit = false;
  harness::World world(config);
  std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> seen;
  world.mh(0).set_delivery_callback(
      [&seen](const core::MobileHostAgent::Delivery& delivery) {
        seen.emplace_back(delivery.request.seq(), delivery.result_seq,
                          delivery.final);
      });
  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  world.run_for(Duration::millis(100));

  const core::RequestId stream(MhId(0), 1);
  const core::RequestId oneshot(MhId(0), 2);
  const auto forge = [&](core::RequestId request, std::uint32_t seq,
                         bool final) {
    world.wireless().downlink(
        world.cell(0), MhId(0),
        net::make_message<core::MsgDownlinkResult>(request, seq, final, "r",
                                                   1));
    world.run_for(Duration::millis(100));
  };
  forge(stream, 1, false);
  forge(stream, 3, true);
  forge(stream, 2, false);  // after the final: still delivered
  forge(stream, 2, false);  // duplicate
  forge(stream, 3, true);   // duplicate of the final
  forge(oneshot, 1, true);
  forge(oneshot, 1, true);  // re-sent copy of a completed request's result
  world.run_to_quiescence();

  EXPECT_EQ(seen, (std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>>{
                      {1, 1, false}, {1, 3, true}, {1, 2, false},
                      {2, 1, true}}));
  EXPECT_EQ(mh.deliveries(), 4u);
  EXPECT_EQ(mh.duplicate_deliveries(), 3u);
  EXPECT_EQ(world.counters().get("mh.duplicate_results"), 3u);
  // Every copy is acked, duplicates included (assumption 4).
  EXPECT_EQ(world.counters().get("mss.ack_without_proxy"), 7u);
  EXPECT_EQ(mh.pending_requests(), 0u);
}

TEST_F(MobileHostUnitTest, UnsubscribeQueuedWhileInactive) {
  auto& mh = world_.mh(0);
  mh.power_on(world_.cell(0));
  core::RequestId sub;
  world_.simulator().schedule(Duration::millis(100), [&] {
    sub = mh.issue_request(world_.server_address(0), "watch", true);
  });
  world_.run_for(Duration::seconds(1));
  mh.power_off();
  mh.unsubscribe(sub);  // queued: the Mh is inactive
  world_.run_for(Duration::seconds(1));
  EXPECT_EQ(world_.server(0).active_subscriptions(), 1u);  // not yet
  mh.reactivate();
  world_.run_to_quiescence();
  EXPECT_EQ(world_.server(0).active_subscriptions(), 0u);
  EXPECT_EQ(mh.pending_requests(), 0u);
}

TEST_F(MobileHostUnitTest, PowerOffDuringTravelArrivesSilently) {
  auto& mh = world_.mh(0);
  mh.power_on(world_.cell(0));
  world_.run_for(Duration::millis(100));
  mh.migrate(world_.cell(1), Duration::millis(500));
  world_.simulator().schedule(Duration::millis(100), [&] { mh.power_off(); });
  world_.run_for(Duration::seconds(2));
  // Arrived placed-but-inactive: no greet yet, not registered anywhere new.
  EXPECT_EQ(mh.cell(), world_.cell(1));
  EXPECT_FALSE(mh.registered());
  EXPECT_TRUE(world_.mss(0).is_local(MhId(0)));  // old registration lingers
  // Re-activation greets from the new cell and completes the hand-off.
  mh.reactivate();
  world_.run_to_quiescence();
  EXPECT_TRUE(mh.registered());
  EXPECT_TRUE(world_.mss(1).is_local(MhId(0)));
  EXPECT_FALSE(world_.mss(0).is_local(MhId(0)));
}

TEST_F(MobileHostUnitTest, ReactivateDuringTravelGreetsOnArrival) {
  auto& mh = world_.mh(0);
  mh.power_on(world_.cell(0));
  world_.run_for(Duration::millis(100));
  mh.migrate(world_.cell(2), Duration::millis(500));
  world_.simulator().schedule(Duration::millis(100), [&] { mh.power_off(); });
  world_.simulator().schedule(Duration::millis(200), [&] { mh.reactivate(); });
  world_.run_to_quiescence();
  EXPECT_TRUE(mh.registered());
  EXPECT_EQ(mh.resp_mss(), common::MssId(2));
}

TEST_F(MobileHostUnitTest, RequestAfterLeaveIsRejected) {
  auto& mh = world_.mh(0);
  mh.power_on(world_.cell(0));
  world_.run_for(Duration::millis(100));
  mh.leave();
  EXPECT_THROW(mh.issue_request(world_.server_address(0), "q"),
               common::InvariantViolation);
}

TEST_F(MobileHostUnitTest, CanLeaveReflectsPendingWork) {
  auto& mh = world_.mh(0);
  mh.power_on(world_.cell(0));
  world_.run_for(Duration::millis(100));
  EXPECT_TRUE(mh.can_leave());
  mh.issue_request(world_.server_address(0), "q");
  EXPECT_FALSE(mh.can_leave());
  world_.run_to_quiescence();
  EXPECT_TRUE(mh.can_leave());
}

}  // namespace
}  // namespace rdp
