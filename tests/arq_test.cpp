// Uplink ARQ unit tests (PROTOCOL.md §11).
//
// Pure-arithmetic suites (ArqRttEstimator, ArqCongestion) exercise the
// Jacobson/Karels estimator and the AIMD window on fixed traces with no
// simulator at all.  The ArqChannel suite wires a real ArqSender and
// ArqReceiver across a WirelessChannel on a bare simulation kernel — no
// World, no Mss, no proxies — and drives loss with a deterministic drop
// filter or hand-crafted acks.
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arq/congestion.h"
#include "arq/receiver.h"
#include "arq/rtt_estimator.h"
#include "arq/sender.h"
#include "core/config.h"
#include "core/events.h"
#include "core/messages.h"
#include "net/message.h"
#include "net/wireless.h"
#include "sim/simulator.h"
#include "stats/counters.h"

namespace rdp {
namespace {

using common::Duration;
using common::MhId;
using common::RequestId;

// --- RTT estimator (Jacobson/Karels + Karn backoff) -------------------------

arq::RttEstimator::Params default_params() {
  arq::RttEstimator::Params params;
  params.initial_rto = Duration::millis(250);
  params.min_rto = Duration::millis(100);
  params.max_rto = Duration::seconds(5);
  return params;
}

TEST(ArqRttEstimator, FirstSampleInitializesPerRfc6298) {
  arq::RttEstimator est(default_params());
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.rto(), Duration::millis(250));  // initial_rto before samples

  est.sample(Duration::millis(200));
  EXPECT_TRUE(est.has_sample());
  EXPECT_EQ(est.srtt(), Duration::millis(200));
  EXPECT_EQ(est.rttvar(), Duration::millis(100));  // R/2
  EXPECT_EQ(est.rto(), Duration::millis(600));     // SRTT + 4*RTTVAR
}

TEST(ArqRttEstimator, ConvergesOnFixedTrace) {
  arq::RttEstimator est(default_params());
  // A steady 200ms path: SRTT pins to 200ms and RTTVAR decays toward zero,
  // so RTO descends from 600ms toward SRTT.
  for (int i = 0; i < 64; ++i) est.sample(Duration::millis(200));
  EXPECT_EQ(est.srtt(), Duration::millis(200));
  EXPECT_LT(est.rttvar(), Duration::millis(1));
  EXPECT_GE(est.rto(), Duration::millis(200));
  EXPECT_LT(est.rto(), Duration::millis(210));

  // A jittery trace keeps RTTVAR (and thus the RTO margin) open.
  arq::RttEstimator jittery(default_params());
  for (int i = 0; i < 64; ++i) {
    jittery.sample(Duration::millis(i % 2 == 0 ? 150 : 250));
  }
  EXPECT_GT(jittery.rttvar(), Duration::millis(20));
  EXPECT_GT(jittery.rto(), jittery.srtt() + Duration::millis(80));
}

TEST(ArqRttEstimator, BackoffDoublesAndClampsAtMax) {
  arq::RttEstimator est(default_params());
  est.sample(Duration::millis(200));  // RTO = 600ms
  est.backoff();
  EXPECT_EQ(est.rto(), Duration::millis(1200));
  est.backoff();
  EXPECT_EQ(est.rto(), Duration::millis(2400));
  est.backoff();
  EXPECT_EQ(est.rto(), Duration::millis(4800));
  // Clamp: never beyond max_rto, and further backoffs stop accumulating
  // shift once the clamp is hit.
  for (int i = 0; i < 50; ++i) est.backoff();
  EXPECT_EQ(est.rto(), Duration::seconds(5));
  EXPECT_LE(est.backoff_level(), 5);
}

TEST(ArqRttEstimator, MinRtoClampsSharpPaths) {
  arq::RttEstimator est(default_params());
  for (int i = 0; i < 64; ++i) est.sample(Duration::millis(10));
  EXPECT_EQ(est.rto(), Duration::millis(100));  // min_rto floor
}

TEST(ArqRttEstimator, SampleClearsBackoff) {
  // Karn's complement: the backed-off RTO persists across retransmissions
  // (the caller feeds no ambiguous samples) until a clean first-transmission
  // sample arrives, which resets the shift.
  arq::RttEstimator est(default_params());
  est.sample(Duration::millis(200));
  est.backoff();
  est.backoff();
  EXPECT_EQ(est.backoff_level(), 2);
  EXPECT_EQ(est.rto(), Duration::millis(2400));
  est.sample(Duration::millis(200));
  EXPECT_EQ(est.backoff_level(), 0);
  EXPECT_LT(est.rto(), Duration::millis(600));
}

// --- AIMD congestion window -------------------------------------------------

TEST(ArqCongestion, AdditiveIncreaseReachesCap) {
  arq::AimdWindow cwnd(8, 1.0, 0.5);
  EXPECT_EQ(cwnd.window(), 1);
  // cwnd += 1/cwnd per ack: sub-linear growth, monotone, capped at 8.
  int previous = cwnd.window();
  for (int i = 0; i < 200; ++i) {
    cwnd.on_ack();
    EXPECT_GE(cwnd.window(), previous);
    previous = cwnd.window();
  }
  EXPECT_EQ(cwnd.window(), 8);
  cwnd.on_ack();
  EXPECT_DOUBLE_EQ(cwnd.cwnd(), 8.0);  // cap, not beyond
}

TEST(ArqCongestion, LossHalvesAndFloorsAtOne) {
  arq::AimdWindow cwnd(8, 1.0, 0.5);
  for (int i = 0; i < 200; ++i) cwnd.on_ack();
  EXPECT_EQ(cwnd.window(), 8);
  cwnd.on_loss();
  EXPECT_EQ(cwnd.window(), 4);
  cwnd.on_loss();
  EXPECT_EQ(cwnd.window(), 2);
  for (int i = 0; i < 10; ++i) cwnd.on_loss();
  EXPECT_EQ(cwnd.window(), 1);  // floor, never zero
  EXPECT_DOUBLE_EQ(cwnd.cwnd(), 1.0);
  cwnd.reset();
  EXPECT_EQ(cwnd.window(), 1);
}

// --- sender/receiver across a bare wireless channel --------------------------

struct TestMhRadio final : net::DownlinkReceiver {
  arq::ArqSender* sender = nullptr;
  std::uint64_t acks = 0;
  std::uint64_t other = 0;
  void on_downlink(common::CellId, const net::PayloadPtr& payload) override {
    if (const auto* ack = net::message_cast<core::MsgArqAck>(payload)) {
      ++acks;
      if (sender != nullptr) sender->on_ack(*ack);
    } else {
      ++other;
    }
  }
};

struct TestMssRadio final : net::UplinkReceiver {
  arq::ArqReceiver* receiver = nullptr;
  std::vector<std::uint32_t> delivered;  // result_seq of inner MsgUplinkAck
  std::uint64_t plain = 0;
  void on_uplink(common::MhId from, const net::PayloadPtr& payload) override {
    if (receiver != nullptr &&
        receiver->on_uplink(from, payload,
                            [this](common::MhId,
                                   const net::PayloadPtr& inner) {
                              const auto* app =
                                  net::message_cast<core::MsgUplinkAck>(inner);
                              ASSERT_NE(app, nullptr);
                              delivered.push_back(app->result_seq);
                            })) {
      return;
    }
    ++plain;
  }
};

class ArqChannelTest : public ::testing::Test {
 protected:
  ArqChannelTest() : wireless_(simulator_, common::Rng(42), radio_config()) {
    wireless_.register_cell(cell_, common::MssId(0), &mss_);
    wireless_.register_mh(mh_, &mh_radio_);
    wireless_.place_mh(mh_, cell_);
    wireless_.set_mh_active(mh_, true);
  }

  static net::WirelessConfig radio_config() {
    net::WirelessConfig config;
    config.base_latency = Duration::millis(20);
    config.jitter = Duration::zero();  // deterministic timing
    return config;
  }

  void build(core::ArqMode mode) {
    config_.mode = mode;
    sender_ = std::make_unique<arq::ArqSender>(simulator_, wireless_, config_,
                                               observer_, counters_, mh_);
    receiver_ = std::make_unique<arq::ArqReceiver>(
        simulator_, wireless_, observer_, counters_, cell_);
    mh_radio_.sender = sender_.get();
    mss_.receiver = receiver_.get();
  }

  net::PayloadPtr app(std::uint32_t n) {
    return net::make_message<core::MsgUplinkAck>(RequestId(mh_, n), n);
  }

  sim::Simulator simulator_;
  net::WirelessChannel wireless_;
  stats::CounterRegistry counters_;
  core::RdpObserver observer_;  // no-op sink
  core::ArqConfig config_;
  common::CellId cell_{0};
  common::MhId mh_{7};
  TestMhRadio mh_radio_;
  TestMssRadio mss_;
  std::unique_ptr<arq::ArqSender> sender_;
  std::unique_ptr<arq::ArqReceiver> receiver_;
};

TEST_F(ArqChannelTest, StopAndWaitDeliversInOrder) {
  build(core::ArqMode::kStopAndWait);
  sender_->enqueue(app(0), sim::EventPriority::kNormal);
  sender_->enqueue(app(1), sim::EventPriority::kNormal);
  sender_->enqueue(app(2), sim::EventPriority::kNormal);
  EXPECT_EQ(sender_->queued(), 3u);  // closed channel queues
  EXPECT_EQ(sender_->in_flight(), 0u);

  sender_->open();
  EXPECT_EQ(sender_->epoch(), 1u);
  EXPECT_EQ(sender_->window_limit(), 1u);  // stop-and-wait
  EXPECT_EQ(sender_->in_flight(), 1u);
  simulator_.run();

  EXPECT_EQ(mss_.delivered, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(sender_->idle());
  EXPECT_EQ(counters_.get("arq.frames_sent"), 3u);
  EXPECT_EQ(counters_.get("arq.frames_delivered"), 3u);
  EXPECT_EQ(counters_.get("arq.acks_sent"), 3u);
  EXPECT_EQ(counters_.get("arq.retransmits"), 0u);
  EXPECT_TRUE(sender_->estimator().has_sample());
  EXPECT_EQ(sender_->estimator().srtt(), Duration::millis(40));  // 2x 20ms
}

TEST_F(ArqChannelTest, LostFrameRetransmittedAfterRtoKarnSkipsSample) {
  build(core::ArqMode::kStopAndWait);
  bool dropped = false;
  wireless_.set_drop_filter(
      [&](common::MhId, const net::PayloadPtr& payload, bool uplink) {
        if (!uplink || dropped) return false;
        const auto* frame =
            dynamic_cast<const core::MsgArqData*>(payload.get());
        if (frame != nullptr && frame->attempt == 1) {
          dropped = true;
          return true;
        }
        return false;
      });
  sender_->open();
  sender_->enqueue(app(0), sim::EventPriority::kNormal);
  simulator_.run();

  EXPECT_TRUE(dropped);
  EXPECT_EQ(mss_.delivered, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(counters_.get("arq.rto_backoffs"), 1u);
  EXPECT_EQ(counters_.get("arq.retransmits"), 1u);
  // Karn's rule: the ack of a retransmitted frame is ambiguous, so the
  // estimator saw no sample and the backed-off RTO persists.
  EXPECT_FALSE(sender_->estimator().has_sample());
  EXPECT_EQ(sender_->estimator().backoff_level(), 1);
}

TEST_F(ArqChannelTest, LostAckCausesDuplicateWhichReceiverDrops) {
  build(core::ArqMode::kStopAndWait);
  bool dropped = false;
  wireless_.set_drop_filter(
      [&](common::MhId, const net::PayloadPtr& payload, bool uplink) {
        if (uplink || dropped) return false;
        if (dynamic_cast<const core::MsgArqAck*>(payload.get()) != nullptr) {
          dropped = true;
          return true;
        }
        return false;
      });
  sender_->open();
  sender_->enqueue(app(0), sim::EventPriority::kNormal);
  simulator_.run();

  EXPECT_TRUE(dropped);
  // Delivered to the protocol exactly once; the retransmission was absorbed
  // as a duplicate and re-acked.
  EXPECT_EQ(mss_.delivered, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(counters_.get("arq.frames_delivered"), 1u);
  EXPECT_EQ(counters_.get("arq.duplicates_dropped"), 1u);
  EXPECT_EQ(counters_.get("arq.acks_sent"), 2u);
  EXPECT_TRUE(sender_->idle());
}

TEST_F(ArqChannelTest, SlidingWindowGrowsWithAcks) {
  build(core::ArqMode::kSlidingWindow);
  sender_->open();
  for (std::uint32_t i = 0; i < 10; ++i) {
    sender_->enqueue(app(i), sim::EventPriority::kNormal);
  }
  // cwnd starts at 1: only one frame admitted before the first ack.
  EXPECT_EQ(sender_->in_flight(), 1u);
  simulator_.run();
  EXPECT_EQ(mss_.delivered,
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  // AIMD grew past stop-and-wait while draining the backlog.
  EXPECT_GT(sender_->congestion().window(), 1);
  EXPECT_EQ(counters_.get("arq.retransmits"), 0u);
}

TEST_F(ArqChannelTest, SackGapTriggersFastRetransmit) {
  build(core::ArqMode::kSlidingWindow);
  // Drive the sender with hand-crafted acks (no receiver in the loop).
  mss_.receiver = nullptr;
  sender_->open();
  for (std::uint32_t i = 0; i < 8; ++i) {
    sender_->enqueue(app(i), sim::EventPriority::kNormal);
  }
  const std::uint32_t epoch = sender_->epoch();
  // Grow the window: cumulative acks for seq 0 and 1.
  sender_->on_ack(core::MsgArqAck(epoch, 1, 0));
  sender_->on_ack(core::MsgArqAck(epoch, 2, 0));
  ASSERT_GE(sender_->in_flight(), 2u);  // seq 2 and 3 in flight

  // Three acks reporting "seq 3 arrived, seq 2 still missing".
  sender_->on_ack(core::MsgArqAck(epoch, 2, 0b1));
  sender_->on_ack(core::MsgArqAck(epoch, 2, 0b1));
  EXPECT_EQ(counters_.get("arq.fast_retransmits"), 0u);
  const double cwnd_before = sender_->congestion().cwnd();
  sender_->on_ack(core::MsgArqAck(epoch, 2, 0b1));
  EXPECT_EQ(counters_.get("arq.fast_retransmits"), 1u);
  // The loss event halved the window.
  EXPECT_DOUBLE_EQ(sender_->congestion().cwnd(), cwnd_before * 0.5);

  // The retransmission fills the gap; a cumulative ack drains it.
  sender_->on_ack(core::MsgArqAck(epoch, 4, 0));
  EXPECT_EQ(counters_.get("arq.stale_acks"), 0u);
}

TEST_F(ArqChannelTest, ReopenBumpsEpochAndRenumbersBacklog) {
  build(core::ArqMode::kSlidingWindow);
  sender_->open();
  sender_->enqueue(app(0), sim::EventPriority::kNormal);
  simulator_.run();
  ASSERT_EQ(mss_.delivered, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(sender_->epoch(), 1u);

  // Radio goes away (migration); work submitted meanwhile queues.
  sender_->pause();
  sender_->enqueue(app(1), sim::EventPriority::kNormal);
  sender_->enqueue(app(2), sim::EventPriority::kNormal);
  EXPECT_EQ(sender_->queued(), 2u);

  // Re-registration: fresh epoch, backlog renumbered from seq 0; the
  // receiver resets its channel on the higher epoch.
  sender_->open();
  EXPECT_EQ(sender_->epoch(), 2u);
  simulator_.run();
  EXPECT_EQ(mss_.delivered, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(counters_.get("arq.stale_frames"), 0u);
  EXPECT_TRUE(sender_->idle());
}

TEST_F(ArqChannelTest, StaleEpochAckIgnored) {
  build(core::ArqMode::kSlidingWindow);
  sender_->open();
  mss_.receiver = nullptr;  // no acks from the far end
  sender_->enqueue(app(0), sim::EventPriority::kNormal);
  ASSERT_EQ(sender_->in_flight(), 1u);
  sender_->on_ack(core::MsgArqAck(0, 1, 0));  // epoch 0 != current epoch 1
  EXPECT_EQ(counters_.get("arq.stale_acks"), 1u);
  EXPECT_EQ(sender_->in_flight(), 1u);  // nothing acked
}

TEST_F(ArqChannelTest, NonArqUplinkPassesThrough) {
  build(core::ArqMode::kStopAndWait);
  wireless_.uplink(mh_, net::make_message<core::MsgJoin>(),
                   sim::EventPriority::kNormal);
  simulator_.run();
  EXPECT_EQ(mss_.plain, 1u);
  EXPECT_TRUE(mss_.delivered.empty());
  EXPECT_EQ(receiver_->channels(), 0u);
}

// --- receiver alone: two Mhs' frames fed straight in ------------------------

struct AckRecorder final : net::DownlinkReceiver {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> acks;
  void on_downlink(common::CellId, const net::PayloadPtr& payload) override {
    const auto* ack = net::message_cast<core::MsgArqAck>(payload);
    ASSERT_NE(ack, nullptr);
    acks.emplace_back(ack->epoch, ack->cum_next, ack->sack);
  }
};

struct SilentMss final : net::UplinkReceiver {
  void on_uplink(common::MhId, const net::PayloadPtr&) override {}
};

// Pins what the receiver releases and every ack it sends, frame by frame,
// for two Mhs whose frames interleave: out of order, duplicates both
// buffered and below the cumulative point, a seq past the 64-bit SACK map,
// a stale epoch and a new epoch that discards a buffered frame.
TEST(ArqReceiverTest, InterleavedMhsPinReleasesAndAcks) {
  using Ack = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;
  sim::Simulator simulator;
  net::WirelessConfig radio;
  radio.base_latency = Duration::millis(20);
  radio.jitter = Duration::zero();
  net::WirelessChannel wireless(simulator, common::Rng(42), radio);
  const common::CellId cell(0);
  SilentMss mss;
  wireless.register_cell(cell, common::MssId(0), &mss);
  const MhId a(7);
  const MhId b(8);
  AckRecorder a_radio;
  AckRecorder b_radio;
  for (const auto& [mh, radio_end] :
       {std::pair{a, &a_radio}, std::pair{b, &b_radio}}) {
    wireless.register_mh(mh, radio_end);
    wireless.place_mh(mh, cell);
    wireless.set_mh_active(mh, true);
  }
  stats::CounterRegistry counters;
  core::RdpObserver observer;
  arq::ArqReceiver receiver(simulator, wireless, observer, counters, cell);

  // Each inner message is tagged 100 * epoch + seq, so a release names the
  // frame it came from.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> released;
  const auto feed = [&](MhId mh, std::uint32_t epoch, std::uint32_t seq) {
    const std::uint32_t tag = 100 * epoch + seq;
    const bool handled = receiver.on_uplink(
        mh,
        net::make_message<core::MsgArqData>(
            epoch, seq, 1,
            net::make_message<core::MsgUplinkAck>(RequestId(mh, tag), tag)),
        [&](MhId from, const net::PayloadPtr& inner) {
          const auto* app = net::message_cast<core::MsgUplinkAck>(inner);
          ASSERT_NE(app, nullptr);
          released.emplace_back(from.value(), app->result_seq);
        });
    EXPECT_TRUE(handled);
    simulator.run();
  };

  feed(a, 1, 1);   // hole at 0: buffered
  feed(b, 1, 0);   // released at once
  feed(a, 1, 3);   // buffered {1, 3}
  feed(a, 1, 1);   // duplicate of a buffered frame
  feed(b, 1, 2);   // buffered {2}
  feed(a, 1, 0);   // fills the hole: 0 and 1 released, 3 stays
  feed(a, 1, 0);   // duplicate below the cumulative point
  feed(b, 2, 0);   // new epoch: buffered 2 discarded, 0 released
  feed(b, 1, 1);   // stale epoch: dropped, not acked
  feed(a, 1, 2);   // 2 and 3 released
  feed(a, 1, 70);  // beyond the SACK map: buffered, no bit
  feed(a, 1, 5);   // buffered {5, 70}
  feed(a, 2, 1);   // new epoch with a hole: buffered {1}
  feed(a, 2, 0);   // 0 and 1 released

  EXPECT_EQ(released,
            (std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                {8, 100}, {7, 100}, {7, 101}, {8, 200}, {7, 102}, {7, 103},
                {7, 200}, {7, 201}}));
  EXPECT_EQ(a_radio.acks, (std::vector<Ack>{{1, 0, 0b1},
                                            {1, 0, 0b101},
                                            {1, 0, 0b101},
                                            {1, 2, 0b1},
                                            {1, 2, 0b1},
                                            {1, 4, 0},
                                            {1, 4, 0},
                                            {1, 4, 0b1},
                                            {2, 0, 0b1},
                                            {2, 2, 0}}));
  EXPECT_EQ(b_radio.acks, (std::vector<Ack>{{1, 1, 0}, {1, 1, 0b1}, {2, 1, 0}}));
  EXPECT_EQ(counters.get("arq.frames_delivered"), 8u);
  EXPECT_EQ(counters.get("arq.duplicates_dropped"), 2u);
  EXPECT_EQ(counters.get("arq.stale_frames"), 1u);
  EXPECT_EQ(counters.get("arq.acks_sent"), 13u);
  EXPECT_EQ(receiver.channels(), 2u);
  receiver.clear();
  EXPECT_EQ(receiver.channels(), 0u);
}

}  // namespace
}  // namespace rdp
