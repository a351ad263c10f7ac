#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "net/shard_router.h"
#include "net/wired.h"
#include "net/wireless.h"
#include "sim/simulator.h"

namespace rdp::net {
namespace {

using common::CellId;
using common::Duration;
using common::MhId;
using common::MssId;
using common::NodeAddress;
using common::Rng;

// ---------------------------------------------------------------------------
// Both modes.  Each network has one transmission path, which the sharded
// kernel runs in shard mode: keyed loss/latency draws and arrivals handed to
// a ShardRouter.  The cases defined with NET_TEST run in both modes, on the
// single kernel as <Fixture>.<Case> and in shard mode as
// <Fixture>.<Case>/ShardMode; the fixture takes the mode as its parameter.
// They are registered with RegisterTest rather than TEST_P so that the
// single-kernel run of a case keeps the case's plain name.
// ---------------------------------------------------------------------------

enum class Mode { kSingleKernel, kShardMode };

constexpr std::uint64_t kDrawSeed = 0x5eed;

// Shard mode on one simulator: every routed arrival is scheduled locally at
// its arrives_at, where ShardedWorld would post it to the owning shard.
class LoopbackRouter final : public ShardRouter {
 public:
  explicit LoopbackRouter(sim::Simulator& simulator) : simulator_(simulator) {}

  WiredNetwork* wired = nullptr;
  WirelessChannel* wireless = nullptr;

  void route_wired(Envelope envelope, sim::EventPriority priority,
                   std::uint64_t, std::uint64_t) override {
    const common::SimTime at = envelope.arrives_at;
    simulator_.schedule_at(
        at, [this, envelope] { wired->deliver_injected(envelope); },
        priority);
  }

  void route_wireless(WirelessFrame frame, std::uint64_t,
                      std::uint64_t) override {
    const common::SimTime at = frame.arrives_at;
    const sim::EventPriority priority = frame.priority;
    simulator_.schedule_at(
        at,
        [this, frame = std::move(frame)] {
          if (frame.uplink) {
            wireless->deliver_injected_uplink(frame.mh, frame.cell,
                                              frame.payload);
          } else {
            wireless->deliver_injected_downlink(frame.cell, frame.mh,
                                                frame.payload);
          }
        },
        priority);
  }

 private:
  sim::Simulator& simulator_;
};

template <typename Case>
bool register_in_both_modes(const char* fixture, const char* name,
                            const char* file, int line) {
  for (const Mode mode : {Mode::kSingleKernel, Mode::kShardMode}) {
    const std::string test = mode == Mode::kSingleKernel
                                 ? std::string(name)
                                 : std::string(name) + "/ShardMode";
    ::testing::RegisterTest(
        fixture, test.c_str(), nullptr, nullptr, file, line,
        [mode]() -> typename Case::Fixture* { return new Case(mode); });
  }
  return true;
}

// Like TEST_F, but registers the case once per Mode.
#define NET_TEST(Fixture_, Case_)                                         \
  class Fixture_##_##Case_ final : public Fixture_ {                     \
   public:                                                               \
    using Fixture = Fixture_;                                            \
    explicit Fixture_##_##Case_(Mode mode) : Fixture_(mode) {}           \
    void TestBody() override;                                            \
  };                                                                     \
  const bool Fixture_##_##Case_##_registered =                           \
      register_in_both_modes<Fixture_##_##Case_>(#Fixture_, #Case_,      \
                                                 __FILE__, __LINE__);    \
  void Fixture_##_##Case_::TestBody()

struct TestMsg final : MessageBase {
  int value;
  explicit TestMsg(int v) : value(v) {}
  [[nodiscard]] const char* name() const override { return "test"; }
  // 100 B on the wire.
  [[nodiscard]] std::size_t encoded_size() const override {
    return 100 - net::kFrameHeader;
  }
};

struct Recorder final : Endpoint {
  std::vector<Envelope> received;
  void on_message(const Envelope& envelope) override {
    received.push_back(envelope);
  }
  [[nodiscard]] int value_at(std::size_t i) const {
    return message_cast<TestMsg>(received.at(i).payload)->value;
  }
};

class WiredTest : public ::testing::Test {
 public:
  explicit WiredTest(Mode mode = Mode::kSingleKernel)
      : mode_(mode), router_(sim_) {}

 protected:
  // The network under test, in this run's mode.
  WiredNetwork& make_net(Rng rng, WiredConfig config) {
    WiredNetwork& net = net_.emplace(sim_, rng, config);
    if (mode_ == Mode::kShardMode) {
      net.enable_shard_mode(&router_, kDrawSeed);
      router_.wired = &net;
    }
    return net;
  }

  const Mode mode_;
  sim::Simulator sim_;
  LoopbackRouter router_;
  std::optional<WiredNetwork> net_;
};

NET_TEST(WiredTest, DeliversWithLatencyInBounds) {
  WiredConfig config;
  config.base_latency = Duration::millis(5);
  config.jitter = Duration::millis(10);
  WiredNetwork& net = make_net(Rng(1), config);
  Recorder a, b;
  net.attach(NodeAddress(0), &a);
  net.attach(NodeAddress(1), &b);

  for (int i = 0; i < 100; ++i) {
    net.send(NodeAddress(0), NodeAddress(1), make_message<TestMsg>(i));
  }
  sim_.run();
  ASSERT_EQ(b.received.size(), 100u);
  for (const auto& envelope : b.received) {
    const Duration latency = envelope.arrives_at - envelope.sent_at;
    EXPECT_GE(latency, Duration::millis(5));
    EXPECT_LE(latency, Duration::millis(15) + Duration::micros(200));
  }
}

NET_TEST(WiredTest, PerLinkFifo) {
  WiredConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::millis(50);  // heavy jitter tries to reorder
  WiredNetwork& net = make_net(Rng(7), config);
  Recorder receiver;
  net.attach(NodeAddress(0), &receiver);
  net.attach(NodeAddress(1), &receiver);

  for (int i = 0; i < 200; ++i) {
    net.send(NodeAddress(1), NodeAddress(0), make_message<TestMsg>(i));
  }
  sim_.run();
  ASSERT_EQ(receiver.received.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(receiver.value_at(i), static_cast<int>(i));
  }
}

NET_TEST(WiredTest, CrossLinkMessagesMayInterleaveButEachLinkStaysOrdered) {
  WiredConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::millis(30);
  WiredNetwork& net = make_net(Rng(11), config);
  Recorder receiver;
  Recorder unused;
  net.attach(NodeAddress(9), &receiver);
  net.attach(NodeAddress(1), &unused);
  net.attach(NodeAddress(2), &unused);

  // Values 0..99 from node 1, 100..199 from node 2.
  for (int i = 0; i < 100; ++i) {
    net.send(NodeAddress(1), NodeAddress(9), make_message<TestMsg>(i));
    net.send(NodeAddress(2), NodeAddress(9), make_message<TestMsg>(100 + i));
  }
  sim_.run();
  ASSERT_EQ(receiver.received.size(), 200u);
  int last_1 = -1, last_2 = 99;
  for (std::size_t i = 0; i < receiver.received.size(); ++i) {
    const int v = receiver.value_at(i);
    if (v < 100) {
      EXPECT_GT(v, last_1);
      last_1 = v;
    } else {
      EXPECT_GT(v, last_2);
      last_2 = v;
    }
  }
}

// --- fault-injection seam (src/fault rides on this hook; single kernel) ----

TEST_F(WiredTest, FaultHookDropLeavesSurvivorsInFifoOrder) {
  WiredConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::zero();
  WiredNetwork net(sim_, Rng(3), config);
  Recorder receiver;
  Recorder sender;
  net.attach(NodeAddress(0), &receiver);
  net.attach(NodeAddress(1), &sender);

  int nth = 0;
  net.set_fault_hook([&](NodeAddress, NodeAddress, const PayloadPtr&) {
    FaultDecision decision;
    decision.drop = (++nth % 3 == 0);  // lose every third message
    return decision;
  });
  for (int i = 0; i < 30; ++i) {
    net.send(NodeAddress(1), NodeAddress(0), make_message<TestMsg>(i));
  }
  sim_.run();

  EXPECT_EQ(net.faults_dropped(), 10u);
  EXPECT_EQ(net.messages_sent(), 30u);  // accounting sees pre-fault traffic
  ASSERT_EQ(receiver.received.size(), 20u);
  for (std::size_t i = 1; i < receiver.received.size(); ++i) {
    EXPECT_LT(receiver.value_at(i - 1), receiver.value_at(i));
  }
}

TEST_F(WiredTest, FaultHookDuplicationKeepsOriginalsFifoAndCountsCopies) {
  WiredConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::zero();
  WiredNetwork net(sim_, Rng(3), config);
  Recorder receiver;
  Recorder sender;
  net.attach(NodeAddress(0), &receiver);
  net.attach(NodeAddress(1), &sender);

  net.set_fault_hook([](NodeAddress, NodeAddress, const PayloadPtr&) {
    FaultDecision decision;
    decision.duplicates = 1;
    return decision;
  });
  for (int i = 0; i < 50; ++i) {
    net.send(NodeAddress(1), NodeAddress(0), make_message<TestMsg>(i));
  }
  sim_.run();

  EXPECT_EQ(net.faults_duplicated(), 50u);
  ASSERT_EQ(receiver.received.size(), 100u);
  // Every message arrived exactly twice...
  std::vector<int> copies(50, 0);
  for (std::size_t i = 0; i < receiver.received.size(); ++i) {
    copies.at(static_cast<std::size_t>(receiver.value_at(i)))++;
  }
  for (int count : copies) EXPECT_EQ(count, 2);
  // ...and the per-link FIFO clamp still orders the first arrivals: the
  // first time each value shows up, values are strictly increasing.
  int last_first = -1;
  std::vector<bool> seen(50, false);
  for (std::size_t i = 0; i < receiver.received.size(); ++i) {
    const int v = receiver.value_at(i);
    if (seen.at(static_cast<std::size_t>(v))) continue;
    seen.at(static_cast<std::size_t>(v)) = true;
    EXPECT_GT(v, last_first);
    last_first = v;
  }
}

TEST_F(WiredTest, FaultHookReorderDelayBypassesFifoClamp) {
  WiredConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::zero();
  WiredNetwork net(sim_, Rng(3), config);
  Recorder receiver;
  Recorder sender;
  net.attach(NodeAddress(0), &receiver);
  net.attach(NodeAddress(1), &sender);

  // A deterministically decreasing extra delay inverts the send order
  // outright — impossible under the FIFO clamp, so this proves the
  // reordered copies escape it (bounded reorder, FaultPlan::Degrade).
  int nth = 0;
  net.set_fault_hook([&](NodeAddress, NodeAddress, const PayloadPtr&) {
    FaultDecision decision;
    decision.extra_delay = Duration::millis(5 - nth++);
    return decision;
  });
  for (int i = 0; i < 5; ++i) {
    net.send(NodeAddress(1), NodeAddress(0), make_message<TestMsg>(i));
  }
  sim_.run();

  EXPECT_EQ(net.faults_reordered(), 5u);
  ASSERT_EQ(receiver.received.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(receiver.value_at(i), static_cast<int>(4 - i));
  }
}

TEST_F(WiredTest, ClearingFaultHookRestoresCleanDelivery) {
  WiredConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::zero();
  WiredNetwork net(sim_, Rng(3), config);
  Recorder receiver;
  Recorder sender;
  net.attach(NodeAddress(0), &receiver);
  net.attach(NodeAddress(1), &sender);

  net.set_fault_hook([](NodeAddress, NodeAddress, const PayloadPtr&) {
    FaultDecision decision;
    decision.drop = true;
    return decision;
  });
  net.send(NodeAddress(1), NodeAddress(0), make_message<TestMsg>(0));
  net.set_fault_hook(nullptr);  // FaultInjector's destructor does this
  net.send(NodeAddress(1), NodeAddress(0), make_message<TestMsg>(1));
  sim_.run();

  EXPECT_EQ(net.faults_dropped(), 1u);
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_EQ(receiver.value_at(0), 1);
}

TEST_F(WiredTest, ShardModeRefusesAFaultHook) {
  WiredNetwork net(sim_, Rng(3), WiredConfig{});
  net.enable_shard_mode(&router_, kDrawSeed);
  const auto pass = [](NodeAddress, NodeAddress, const PayloadPtr&) {
    return FaultDecision{};
  };
  EXPECT_THROW(net.set_fault_hook(pass), common::InvariantViolation);
  net.set_fault_hook(nullptr);  // clearing stays allowed
}

NET_TEST(WiredTest, CountsMessagesAndBytes) {
  WiredNetwork& net = make_net(Rng(1), WiredConfig{});
  Recorder receiver;
  net.attach(NodeAddress(0), &receiver);
  net.attach(NodeAddress(1), &receiver);
  net.send(NodeAddress(0), NodeAddress(1), make_message<TestMsg>(1));
  net.send(NodeAddress(0), NodeAddress(1), make_message<TestMsg>(2));
  sim_.run();
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 200u);
}

NET_TEST(WiredTest, ObserverSeesEverySend) {
  WiredNetwork& net = make_net(Rng(1), WiredConfig{});
  Recorder receiver;
  net.attach(NodeAddress(0), &receiver);
  net.attach(NodeAddress(1), &receiver);
  std::vector<std::string> names;
  net.add_send_observer(
      [&](const Envelope& envelope) { names.push_back(envelope.payload->name()); });
  net.send(NodeAddress(0), NodeAddress(1), make_message<TestMsg>(1));
  sim_.run();
  EXPECT_EQ(names, std::vector<std::string>{"test"});
}

NET_TEST(WiredTest, RejectsDoubleAttach) {
  WiredNetwork& net = make_net(Rng(1), WiredConfig{});
  Recorder receiver;
  net.attach(NodeAddress(0), &receiver);
  EXPECT_THROW(net.attach(NodeAddress(0), &receiver),
               common::InvariantViolation);
}

// ---------------------------------------------------------------------------
// Wireless channel.
// ---------------------------------------------------------------------------

struct MhRecorder final : DownlinkReceiver {
  std::vector<PayloadPtr> received;
  void on_downlink(CellId, const PayloadPtr& payload) override {
    received.push_back(payload);
  }
};

struct MssRecorder final : UplinkReceiver {
  std::vector<std::pair<MhId, PayloadPtr>> received;
  void on_uplink(MhId from, const PayloadPtr& payload) override {
    received.emplace_back(from, payload);
  }
};

class WirelessTest : public ::testing::Test {
 public:
  explicit WirelessTest(Mode mode = Mode::kSingleKernel)
      : mode_(mode), router_(sim_), mirror_(1) {
    make_channel(Rng(3), make_config());
  }

 protected:
  static WirelessConfig make_config() {
    WirelessConfig config;
    config.base_latency = Duration::millis(20);
    config.jitter = Duration::zero();
    return config;
  }

  // (Re)builds the channel under test in this run's mode, with cells 0 and
  // 1 and Mh 0 registered.
  void make_channel(Rng rng, WirelessConfig config) {
    WirelessChannel& channel = channel_.emplace(sim_, rng, config);
    if (mode_ == Mode::kShardMode) {
      channel.enable_shard_mode(&router_, kDrawSeed, mirror_);
      router_.wireless = &channel;
    }
    channel.register_cell(CellId(0), MssId(0), &mss0_);
    channel.register_cell(CellId(1), MssId(1), &mss1_);
    channel.register_mh(MhId(0), &mh_);
  }

  // Mh state changes.  Each is followed by the mirror write ShardedWorld
  // makes at a window barrier (the channel records no change on the single
  // kernel).
  void place_mh(MhId mh, CellId cell) {
    channel_->place_mh(mh, cell);
    sync_mirror();
  }
  void detach_mh(MhId mh) {
    channel_->detach_mh(mh);
    sync_mirror();
  }
  void set_mh_active(MhId mh, bool active) {
    channel_->set_mh_active(mh, active);
    sync_mirror();
  }
  void sync_mirror() {
    for (const auto& [mh, state] : channel_->take_state_deltas()) {
      mirror_.at(mh.value()) = state;
    }
  }

  const Mode mode_;
  sim::Simulator sim_;
  LoopbackRouter router_;
  std::vector<MhSnapshot> mirror_;
  std::optional<WirelessChannel> channel_;
  MssRecorder mss0_, mss1_;
  MhRecorder mh_;
};

NET_TEST(WirelessTest, UplinkReachesCellMss) {
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), true);
  channel_->uplink(MhId(0), make_message<TestMsg>(42));
  sim_.run();
  ASSERT_EQ(mss0_.received.size(), 1u);
  EXPECT_EQ(mss0_.received[0].first, MhId(0));
  EXPECT_TRUE(mss1_.received.empty());
  EXPECT_EQ(sim_.now().count_micros(), 20'000);
}

NET_TEST(WirelessTest, UplinkFollowsPlacement) {
  place_mh(MhId(0), CellId(1));
  set_mh_active(MhId(0), true);
  channel_->uplink(MhId(0), make_message<TestMsg>(1));
  sim_.run();
  EXPECT_TRUE(mss0_.received.empty());
  EXPECT_EQ(mss1_.received.size(), 1u);
}

NET_TEST(WirelessTest, UplinkWhileInactiveIsAContractViolation) {
  place_mh(MhId(0), CellId(0));
  EXPECT_THROW(channel_->uplink(MhId(0), make_message<TestMsg>(1)),
               common::InvariantViolation);
}

NET_TEST(WirelessTest, DownlinkDeliversToActiveMhInCell) {
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), true);
  channel_->downlink(CellId(0), MhId(0), make_message<TestMsg>(5));
  sim_.run();
  ASSERT_EQ(mh_.received.size(), 1u);
  EXPECT_EQ(channel_->downlink_dropped(), 0u);
}

NET_TEST(WirelessTest, DownlinkDroppedWhenInactive) {
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), false);
  channel_->downlink(CellId(0), MhId(0), make_message<TestMsg>(5));
  sim_.run();
  EXPECT_TRUE(mh_.received.empty());
  EXPECT_EQ(channel_->downlink_dropped(), 1u);
  EXPECT_EQ(channel_->drops_for(DropReason::kInactive), 1u);
}

NET_TEST(WirelessTest, DownlinkDroppedWhenMhInOtherCell) {
  place_mh(MhId(0), CellId(1));
  set_mh_active(MhId(0), true);
  channel_->downlink(CellId(0), MhId(0), make_message<TestMsg>(5));
  sim_.run();
  EXPECT_TRUE(mh_.received.empty());
  EXPECT_EQ(channel_->drops_for(DropReason::kNotInCell), 1u);
}

NET_TEST(WirelessTest, DownlinkDroppedWhenMhDetached) {
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), true);
  detach_mh(MhId(0));
  channel_->downlink(CellId(0), MhId(0), make_message<TestMsg>(5));
  sim_.run();
  EXPECT_TRUE(mh_.received.empty());
  EXPECT_EQ(channel_->drops_for(DropReason::kNotInCell), 1u);
}

NET_TEST(WirelessTest, DownlinkDroppedWhenMhMovesMidFlight) {
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), true);
  channel_->downlink(CellId(0), MhId(0), make_message<TestMsg>(5));
  // The frame takes 20 ms; the Mh leaves the cell at 10 ms.
  sim_.schedule(Duration::millis(10),
                [&] { place_mh(MhId(0), CellId(1)); });
  sim_.run();
  EXPECT_TRUE(mh_.received.empty());
  EXPECT_EQ(channel_->drops_for(DropReason::kNotInCell), 1u);
}

NET_TEST(WirelessTest, DownlinkDroppedWhenMhDeactivatesMidFlight) {
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), true);
  channel_->downlink(CellId(0), MhId(0), make_message<TestMsg>(5));
  sim_.schedule(Duration::millis(10),
                [&] { set_mh_active(MhId(0), false); });
  sim_.run();
  EXPECT_TRUE(mh_.received.empty());
  EXPECT_EQ(channel_->drops_for(DropReason::kInactive), 1u);
}

// The loss cases share the channel fixture under their own suite name.
using WirelessLoss = WirelessTest;

NET_TEST(WirelessLoss, LossRateRoughlyMatchesConfig) {
  WirelessConfig config;
  config.base_latency = Duration::millis(1);
  config.jitter = Duration::zero();
  config.downlink_loss = 0.25;
  make_channel(Rng(5), config);
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), true);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    channel_->downlink(CellId(0), MhId(0), make_message<TestMsg>(i));
  }
  sim_.run();
  const double loss_rate =
      static_cast<double>(channel_->downlink_dropped()) / n;
  EXPECT_NEAR(loss_rate, 0.25, 0.02);
  EXPECT_EQ(mh_.received.size(), n - channel_->downlink_dropped());
}

NET_TEST(WirelessLoss, UplinkLossCounts) {
  WirelessConfig config;
  config.uplink_loss = 0.5;
  make_channel(Rng(9), config);
  place_mh(MhId(0), CellId(0));
  set_mh_active(MhId(0), true);
  for (int i = 0; i < 2000; ++i) {
    channel_->uplink(MhId(0), make_message<TestMsg>(i));
  }
  sim_.run();
  EXPECT_NEAR(static_cast<double>(channel_->uplink_dropped()) / 2000, 0.5,
              0.05);
  EXPECT_EQ(mss0_.received.size(), 2000 - channel_->uplink_dropped());
}

}  // namespace
}  // namespace rdp::net
