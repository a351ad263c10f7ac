// Mss-level behaviour probed through state inspection and crafted message
// injection: the RKpR flag life-cycle, the rkpr_tracks_request hardening
// (deterministic duplicate-Ack regression), the Ack-priority rule,
// tombstones after hand-off, and defensive handling of unknown/stale
// messages.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/metrics.h"
#include "harness/world.h"
#include "tests/trace_util.h"

namespace rdp {
namespace {

using common::Duration;
using common::MhId;
using common::MssId;

class MssUnitTest : public ::testing::Test {
 protected:
  MssUnitTest() {
    auto config = testutil::deterministic_config(3, 1, 1);
    // Direct wired network (no causal wrapper) so tests can inject crafted
    // wired messages with world_.wired().send().
    config.causal_order = false;
    config.server.base_service_time = Duration::millis(200);
    world_ = std::make_unique<harness::World>(config);
    world_->observers().add(&metrics_);
  }

  void at(Duration delay, std::function<void()> fn) {
    world_->simulator().schedule(delay, std::move(fn));
  }

  std::unique_ptr<harness::World> world_;
  harness::MetricsCollector metrics_;
};

TEST_F(MssUnitTest, RkprLifecycleOnSingleRequest) {
  auto& mh = world_->mh(0);
  mh.power_on(world_->cell(0));
  at(Duration::millis(100),
     [&] { mh.issue_request(world_->server_address(0), "q"); });

  // t=330: the result (due at the proxy at t=330) has just been forwarded
  // with del-pref; RKpR must be set before the Mh's Ack returns (t=370).
  world_->simulator().run_until(common::SimTime::from_micros(340'000));
  {
    const core::Pref* pref = world_->mss(0).pref_of(MhId(0));
    ASSERT_NE(pref, nullptr);
    EXPECT_TRUE(pref->rkpr);
    EXPECT_EQ(pref->rkpr_request, core::RequestId(MhId(0), 1));
    EXPECT_EQ(pref->rkpr_seq, 1u);
  }
  world_->run_to_quiescence();
  const core::Pref* pref = world_->mss(0).pref_of(MhId(0));
  ASSERT_NE(pref, nullptr);
  EXPECT_FALSE(pref->has_proxy());
  EXPECT_FALSE(pref->rkpr);
}

TEST_F(MssUnitTest, ForgedDuplicateAckCannotTearDownPrefWithHardening) {
  // Two requests: r1 completes first; r2's del-pref then arms RKpR.  A
  // duplicate Ack for r1 injected while RKpR refers to r2 must NOT trigger
  // del-proxy when rkpr_tracks_request is on.
  auto& mh = world_->mh(0);
  const auto slow =
      testutil::add_server_with_service_time(*world_, Duration::millis(800));
  mh.power_on(world_->cell(0));
  at(Duration::millis(100),
     [&] { mh.issue_request(world_->server_address(0), "r1"); });
  at(Duration::millis(100), [&] { mh.issue_request(slow, "r2"); });

  // r1 completes ~370 ms; r2's result is forwarded (del-pref) at ~930 ms.
  // Inject the duplicate r1 Ack at 940 ms, before the genuine r2 Ack
  // (~970 ms) arrives.
  at(Duration::millis(940), [&] {
    ASSERT_TRUE(world_->mss(0).pref_of(MhId(0))->rkpr);
    world_->wireless().uplink(
        MhId(0),
        net::make_message<core::MsgUplinkAck>(core::RequestId(MhId(0), 1), 1));
  });
  world_->run_to_quiescence();

  // With the hardening: the forged Ack did not match (r2, seq 1), so the
  // proxy survived until the genuine Ack completed the handshake cleanly.
  EXPECT_EQ(metrics_.results_delivered, 2u);
  EXPECT_EQ(metrics_.delproxy_with_pending, 0u);
  EXPECT_EQ(metrics_.proxies_deleted, 1u);
  EXPECT_EQ(world_->mss(0).proxy_count(), 0u);
}

TEST(MssUnitNoFixture, ForgedDuplicateAckTripsPaperFormulation) {
  // Same scenario with rkpr_tracks_request = false (the paper's wording):
  // the duplicate Ack completes the del-proxy handshake while r2 is still
  // pending — only the safety guard + restore handshake save the request.
  auto config = testutil::deterministic_config(3, 1, 1);
  config.causal_order = false;
  config.server.base_service_time = Duration::millis(200);
  config.rdp.rkpr_tracks_request = false;
  harness::World world(config);
  harness::MetricsCollector metrics;
  world.observers().add(&metrics);
  const auto slow =
      testutil::add_server_with_service_time(world, Duration::millis(800));

  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  auto& sim = world.simulator();
  sim.schedule(Duration::millis(100),
               [&] { mh.issue_request(world.server_address(0), "r1"); });
  sim.schedule(Duration::millis(100), [&] { mh.issue_request(slow, "r2"); });
  sim.schedule(Duration::millis(940), [&] {
    world.wireless().uplink(
        MhId(0),
        net::make_message<core::MsgUplinkAck>(core::RequestId(MhId(0), 1), 1));
  });
  world.run_to_quiescence();

  // The anomaly fired...
  EXPECT_EQ(metrics.delproxy_with_pending, 1u);
  // ...but the restore handshake still delivered everything.
  EXPECT_EQ(metrics.results_delivered, 2u);
  EXPECT_EQ(world.counters().get("mss.prefs_restored"), 1u);
  EXPECT_EQ(metrics.requests_lost, 0u);
}

TEST_F(MssUnitTest, TombstoneAfterHandoffAndStaleAckDrop) {
  auto& mh = world_->mh(0);
  const auto slow =
      testutil::add_server_with_service_time(*world_, Duration::seconds(5));
  mh.power_on(world_->cell(0));
  at(Duration::millis(100), [&] { mh.issue_request(slow, "q"); });
  at(Duration::millis(500),
     [&] { mh.migrate(world_->cell(1), Duration::millis(50)); });
  at(Duration::seconds(1), [&] {
    // Hand-off done: the old Mss no longer knows the Mh...
    EXPECT_FALSE(world_->mss(0).is_local(MhId(0)));
    EXPECT_EQ(world_->mss(0).pref_of(MhId(0)), nullptr);
    EXPECT_TRUE(world_->mss(1).is_local(MhId(0)));
    // ...and ignores a stale Ack physically arriving in its cell (§3.1:
    // "it will ignore all future Ack messages from this Mh").  Emulate by
    // placing the Mh back without greeting.
    world_->wireless().place_mh(MhId(0), world_->cell(0));
    world_->wireless().uplink(
        MhId(0),
        net::make_message<core::MsgUplinkAck>(core::RequestId(MhId(0), 1), 1));
    world_->simulator().schedule(Duration::millis(50), [&] {
      world_->wireless().place_mh(MhId(0), world_->cell(1));
    });
  });
  world_->run_for(Duration::seconds(2));
  EXPECT_EQ(world_->counters().get("mss.stale_ack_dropped"), 1u);
}

// §3.1's priority rule, isolated: the Mh's uplink Ack and a dereg for the
// same Mh fall due at the old Mss at the same instant, and the dereg was
// scheduled first.  With zero jitter and the wired latency (30 ms) above
// the wireless one (10 ms): the dereg is sent at t = 1 s, a crafted result
// goes over the radio at 1.010 s, the Mh's Ack leaves at 1.020 s, and both
// are due at Mss0 at 1.030 s.  Returns what Mss0 handled, in order: "ack"
// (relayed to the proxy), "dereg" (the deregAck it sent) or "stale-ack".
std::vector<std::string> ack_and_dereg_order(bool ack_priority) {
  auto config = testutil::deterministic_config(2, 1, 0);
  config.causal_order = false;
  config.wired.base_latency = Duration::millis(30);
  config.wireless.base_latency = Duration::millis(10);
  config.rdp.ack_priority = ack_priority;
  harness::World world(config);

  struct Recorder final : core::RdpObserver {
    std::vector<std::string>* order;
    common::SimTime* at;
    [[nodiscard]] std::uint32_t hook_mask() const override {
      return core::hook_bit(core::Hook::kAckForwarded) |
             core::hook_bit(core::Hook::kStaleAckDropped);
    }
    void on_event(const core::Event& e) override {
      order->push_back(e.kind == core::Hook::kAckForwarded ? "ack"
                                                           : "stale-ack");
      *at = e.at;
    }
  };
  std::vector<std::string> order;
  common::SimTime ack_at;
  Recorder recorder;
  recorder.order = &order;
  recorder.at = &ack_at;
  world.observers().add(&recorder);
  common::SimTime dereg_at;
  world.wired().add_send_observer([&](const net::Envelope& envelope) {
    if (std::string(envelope.payload->name()) == "deregAck") {
      order.push_back("dereg");
      dereg_at = envelope.sent_at;
    }
  });

  // A pending request with a proxy at Mss0; its real result is far off.
  const auto slow =
      testutil::add_server_with_service_time(world, Duration::seconds(30));
  auto& mh = world.mh(0);
  mh.power_on(world.cell(0));
  auto& sim = world.simulator();
  sim.schedule(Duration::millis(100), [&] { mh.issue_request(slow, "q"); });
  sim.schedule(Duration::seconds(1), [&] {
    world.transport().send(
        world.mss(1).address(), world.mss(0).address(),
        net::make_message<core::MsgDereg>(MhId(0), MssId(1)));
  });
  sim.schedule(Duration::millis(1010), [&] {
    world.wireless().downlink(
        world.cell(0), MhId(0),
        net::make_message<core::MsgDownlinkResult>(
            core::RequestId(MhId(0), 1), 1, /*final=*/false, "partial", 1));
  });
  world.run_for(Duration::millis(1100));
  EXPECT_EQ(ack_at, common::SimTime::from_micros(1'030'000));
  EXPECT_EQ(dereg_at, ack_at);
  return order;
}

TEST(MssAckPriority, AckBeforeSameInstantDeregOnlyWithTheFlag) {
  EXPECT_EQ(ack_and_dereg_order(true),
            (std::vector<std::string>{"ack", "dereg"}));
  EXPECT_EQ(ack_and_dereg_order(false),
            (std::vector<std::string>{"dereg", "stale-ack"}));
}

TEST_F(MssUnitTest, DeregForUnknownMhAnswersNullPref) {
  // Mss1 never heard of Mh0 but receives a dereg naming Mss2 as requester;
  // it must answer with a null pref (so Mss2 can register the Mh fresh)
  // instead of deadlocking the hand-off.
  world_->wired().send(
      world_->mss(2).address(), world_->mss(1).address(),
      net::make_message<core::MsgDereg>(MhId(0), MssId(2)));
  world_->run_to_quiescence();
  EXPECT_EQ(world_->counters().get("mss.dereg_unknown_mh"), 1u);
  // Mss2 had no pending hand-off, so the deregAck is counted unexpected.
  EXPECT_EQ(world_->counters().get("mss.unexpected_deregack"), 1u);
}

TEST_F(MssUnitTest, RequestWhileUnregisteredNeverReachesTheWire) {
  auto& mh = world_->mh(0);
  mh.power_on(world_->cell(0));
  // Issue before the registrationAck can possibly have arrived.
  mh.issue_request(world_->server_address(0), "early");
  EXPECT_FALSE(mh.registered());
  world_->run_to_quiescence();
  // Exactly one request was relayed, after registration.
  EXPECT_EQ(world_->counters().get("mss.requests_relayed"), 1u);
  EXPECT_EQ(metrics_.results_delivered, 1u);
}

TEST_F(MssUnitTest, ReactivationInSameCellSkipsHandoff) {
  auto& mh = world_->mh(0);
  mh.power_on(world_->cell(0));
  at(Duration::millis(500), [&] { mh.power_off(); });
  at(Duration::seconds(1), [&] { mh.reactivate(); });
  world_->run_to_quiescence();
  EXPECT_EQ(metrics_.handoffs, 0u);
  EXPECT_EQ(world_->counters().get("mss.greets_reactivate"), 1u);
  EXPECT_TRUE(mh.registered());
}

TEST_F(MssUnitTest, LeaveRemovesAllMhState) {
  auto& mh = world_->mh(0);
  mh.power_on(world_->cell(0));
  at(Duration::millis(200),
     [&] { mh.issue_request(world_->server_address(0), "q"); });
  world_->run_to_quiescence();
  at(Duration::zero(), [&] { mh.leave(); });
  world_->run_to_quiescence();
  EXPECT_FALSE(world_->mss(0).is_local(MhId(0)));
  EXPECT_EQ(world_->mss(0).pref_of(MhId(0)), nullptr);
  EXPECT_EQ(world_->counters().get("mss.leaves"), 1u);
}

}  // namespace
}  // namespace rdp
