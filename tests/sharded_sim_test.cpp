// Kernel-level tests for the sharded lockstep simulator: reaction-bound
// window math, canonical injection ordering, thread-count invariance,
// cross-shard cancellation, and the lookahead-violation check.
#include "sim/sharded_simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "net/shard_router.h"

namespace rdp::sim {
namespace {

using common::Duration;
using common::SimTime;

ShardedSimulator::Options opts(int shards, int threads,
                               Duration lookahead = Duration::millis(1)) {
  ShardedSimulator::Options o;
  o.shards = shards;
  o.threads = threads;
  o.lookahead = lookahead;
  return o;
}

TEST(ShardedSim, SingleShardMatchesPlainSimulator) {
  Simulator plain;
  ShardedSimulator sharded(opts(1, 1));

  std::vector<int> a, b;
  for (int i = 0; i < 5; ++i) {
    plain.schedule(Duration::millis(10 * (5 - i)), [&a, i] { a.push_back(i); });
    sharded.shard(0).schedule(Duration::millis(10 * (5 - i)),
                              [&b, i] { b.push_back(i); });
  }
  plain.run_until(SimTime::zero() + Duration::seconds(1));
  sharded.run_until(SimTime::zero() + Duration::seconds(1));

  EXPECT_EQ(a, b);
  EXPECT_EQ(sharded.executed_events(), 5u);
  EXPECT_EQ(sharded.now(), SimTime::zero() + Duration::seconds(1));
  EXPECT_EQ(sharded.shard(0).now(), sharded.now());
}

TEST(ShardedSim, CrossShardInjectionsArriveInCanonicalOrder) {
  // Two source shards each post into shard 0 at the same arrival time.
  // The merge must order by (at, priority, stream_key, stream_seq), never
  // by source shard.
  std::vector<std::string> order;
  for (int swap = 0; swap < 2; ++swap) {
    ShardedSimulator sharded(opts(3, 1));
    order.clear();
    const SimTime at = SimTime::zero() + Duration::millis(5);
    auto make = [&](std::uint64_t key, std::uint64_t seq, EventPriority prio,
                    std::string label) {
      ShardInjection inj;
      inj.at = at;
      inj.priority = prio;
      inj.stream_key = key;
      inj.stream_seq = seq;
      inj.run = [&order, label = std::move(label)] { order.push_back(label); };
      return inj;
    };
    // Post from shards 1 and 2 in either order; the result must not change.
    const int first = swap == 0 ? 1 : 2;
    const int second = swap == 0 ? 2 : 1;
    sharded.shard(first).schedule(Duration::zero(), [&, first] {
      sharded.post(first, 0, make(7, 0, EventPriority::kNormal, "k7s0"));
      sharded.post(first, 0, make(7, 1, EventPriority::kNormal, "k7s1"));
    });
    sharded.shard(second).schedule(Duration::zero(), [&, second] {
      sharded.post(second, 0, make(3, 0, EventPriority::kNormal, "k3s0"));
      sharded.post(second, 0, make(9, 0, EventPriority::kAck, "ack"));
    });
    sharded.run();
    EXPECT_EQ(order, (std::vector<std::string>{"ack", "k3s0", "k7s0", "k7s1"}))
        << "swap=" << swap;
  }
}

TEST(ShardedSim, ThreadCountDoesNotChangeResults) {
  // A ping-pong chain across 4 shards, run with 1 worker and with 4.  The
  // observable is the per-shard execution log (own shard's events in own
  // order, with timestamps) — shards run concurrently within a window, so a
  // global interleaving across shards is not part of the contract, but each
  // shard's own sequence must be bit-identical for every thread count.
  auto run = [](int threads) {
    ShardedSimulator sharded(opts(4, threads, Duration::millis(2)));
    std::array<std::vector<std::string>, 4> logs;
    // Each shard bounces a token to the next shard ten times.
    struct Bounce {
      ShardedSimulator* sim;
      std::array<std::vector<std::string>, 4>* logs;
      void operator()(int src, int hop) const {
        (*logs)[src].push_back(
            "hop" + std::to_string(hop) + "@" +
            std::to_string(
                (sim->shard(src).now() - SimTime::zero()).count_micros()));
        if (hop >= 10) return;
        const int dst = (src + 1) % 4;
        ShardInjection inj;
        inj.at = sim->shard(src).now() + Duration::millis(2);
        inj.stream_key = static_cast<std::uint64_t>(src);
        inj.stream_seq = static_cast<std::uint64_t>(hop);
        auto self = *this;
        inj.run = [self, dst, hop] { self(dst, hop + 1); };
        sim->post(src, dst, std::move(inj));
      }
    };
    Bounce bounce{&sharded, &logs};
    for (int s = 0; s < 4; ++s) {
      sharded.shard(s).schedule(Duration::millis(s), [bounce, s] {
        bounce(s, 0);
      });
    }
    sharded.run();
    return logs;
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(one, four);
  std::size_t total = 0;
  for (const auto& log : one) total += log.size();
  EXPECT_EQ(total, 44u);  // 4 chains x 11 hops
}

TEST(ShardedSim, WindowsFenceAtReactionBoundsAndSkipEmptyStretches) {
  ShardedSimulator sharded(opts(2, 1, Duration::millis(10)));
  std::vector<std::int64_t> fences;
  sharded.set_barrier_hook([&fences](SimTime fence) {
    fences.push_back((fence - SimTime::zero()).count_micros());
  });
  // One event at t=3ms, then a long gap to t=95ms.
  sharded.shard(0).schedule(Duration::millis(3), [] {});
  sharded.shard(1).schedule(Duration::millis(95), [] {});
  sharded.run_until(SimTime::zero() + Duration::millis(100));
  // The window end is min over pending events of (at + bound); untagged
  // events carry the global lookahead as their bound.  First window fences
  // at 3ms+10ms; the second is clamped by the run_until bound (exclusive,
  // so events at exactly 100ms would still run).  The empty stretch in
  // between produces no barriers at all.
  EXPECT_EQ(fences, (std::vector<std::int64_t>{13000, 100001}));
  EXPECT_EQ(sharded.windows_run(), 2u);
  EXPECT_EQ(fences.size(), sharded.windows_run());
  EXPECT_EQ(sharded.observer_barriers_run(), sharded.windows_run());
  EXPECT_EQ(sharded.now(), SimTime::zero() + Duration::millis(100));
}

TEST(ShardedSim, ReactionBoundsWidenWindowsBeyondGlobalLookahead) {
  // Events tagged with a large reaction bound (their cascades cannot cause
  // any arrival sooner than at + bound) let the kernel fence far past the
  // global lookahead, merging what would otherwise be several windows.
  ShardedSimulator sharded(opts(2, 1, Duration::millis(1)));
  std::vector<std::int64_t> fences;
  sharded.set_barrier_hook([&fences](SimTime fence) {
    fences.push_back((fence - SimTime::zero()).count_micros());
  });
  int ran = 0;
  sharded.shard(0).schedule_bounded(Duration::millis(2), Duration::millis(20),
                                    [&ran] { ++ran; });
  sharded.shard(1).schedule_bounded(Duration::millis(5), Duration::millis(20),
                                    [&ran] { ++ran; });
  sharded.shard(0).schedule(Duration::millis(30), [&ran] { ++ran; });
  sharded.run();
  EXPECT_EQ(ran, 3);
  // min(2+20, 5+20, 30+1) = 22ms: both bounded events share one window
  // where a fixed 1ms lookahead would have fenced twice before 5ms.
  EXPECT_EQ(fences, (std::vector<std::int64_t>{22000, 31000}));
  EXPECT_EQ(sharded.windows_run(), 2u);
  EXPECT_EQ(fences.size(), sharded.windows_run());
  EXPECT_EQ(sharded.observer_barriers_run(), sharded.windows_run());
}

TEST(ShardedSim, FenceScheduleIsPartitionInvariant) {
  // The fence sequence depends only on the global multiset of
  // (at, reaction bound) pairs, never on which shard owns an event — the
  // property the harness's byte-identical-across-shard-counts contract
  // rests on.
  auto fences_for = [](int shards) {
    ShardedSimulator sharded(opts(shards, 1, Duration::millis(1)));
    std::vector<std::int64_t> fences;
    sharded.set_barrier_hook([&fences](SimTime fence) {
      fences.push_back((fence - SimTime::zero()).count_micros());
    });
    // Same global event multiset however it is spread over shards.
    for (int i = 0; i < 6; ++i) {
      sharded.shard(i % shards).schedule_bounded(
          Duration::millis(1 + 3 * i),
          i % 2 == 0 ? Duration::millis(8) : Duration::zero(), [] {});
    }
    sharded.run();
    // The barrier hook fires once per window.
    EXPECT_EQ(fences.size(), sharded.windows_run());
    EXPECT_EQ(sharded.observer_barriers_run(), sharded.windows_run());
    return fences;
  };
  const auto one = fences_for(1);
  EXPECT_EQ(one, fences_for(2));
  EXPECT_EQ(one, fences_for(4));
  EXPECT_GE(one.size(), 2u);
}

TEST(ShardedSim, RunUntilBoundMidWindowIsExact) {
  ShardedSimulator sharded(opts(2, 1, Duration::millis(10)));
  int ran = 0;
  sharded.shard(0).schedule(Duration::millis(4), [&ran] { ++ran; });
  sharded.shard(1).schedule(Duration::millis(6), [&ran] { ++ran; });
  // Bound falls inside the first window: both events execute, clocks stop
  // exactly at the bound.
  sharded.run_until(SimTime::zero() + Duration::millis(7));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sharded.shard(0).now(), SimTime::zero() + Duration::millis(7));
  EXPECT_EQ(sharded.shard(1).now(), SimTime::zero() + Duration::millis(7));
  // Resuming later still works and stays aligned.
  sharded.shard(0).schedule(Duration::millis(5), [&ran] { ++ran; });
  sharded.run_until(SimTime::zero() + Duration::millis(20));
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sharded.now(), SimTime::zero() + Duration::millis(20));
}

TEST(ShardedSim, CrossShardCancelViaInjection) {
  // Shard 1 owns a timer; shard 0 "cancels" it by posting an injection that
  // runs on shard 1 before the timer fires (the pattern the protocol layers
  // use: cancellation is itself a message, so it obeys the lookahead).
  ShardedSimulator sharded(opts(2, 2, Duration::millis(1)));
  bool fired = false;
  auto handle = std::make_shared<TimerHandle>();
  sharded.shard(1).schedule(Duration::zero(), [&sharded, &fired, handle] {
    *handle = sharded.shard(1).schedule(Duration::millis(10),
                                        [&fired] { fired = true; });
  });
  sharded.shard(0).schedule(Duration::millis(2), [&sharded, handle] {
    ShardInjection inj;
    inj.at = sharded.shard(0).now() + Duration::millis(1);
    inj.run = [handle] { handle->cancel(); };
    sharded.post(0, 1, std::move(inj));
  });
  sharded.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sharded.pending_events(), 0u);
}

TEST(ShardedSim, LookaheadViolationIsDetected) {
  ShardedSimulator sharded(opts(2, 1, Duration::millis(5)));
  sharded.shard(0).schedule(Duration::millis(1), [&sharded] {
    ShardInjection inj;
    // Arrival inside the current window: breaks the conservative contract.
    inj.at = sharded.shard(0).now() + Duration::micros(10);
    inj.run = [] {};
    sharded.post(0, 1, std::move(inj));
  });
  EXPECT_THROW(sharded.run(), common::InvariantViolation);
}

TEST(ShardedSim, KeyedDrawsAreDeterministicAndWellDistributed) {
  // The net layer's keyed hash draws must be pure functions of
  // (seed, key, counter) and roughly uniform.
  const std::uint64_t seed = 0xfeedfaceu;
  EXPECT_EQ(net::shard_draw(seed, 1, 2), net::shard_draw(seed, 1, 2));
  EXPECT_NE(net::shard_draw(seed, 1, 2), net::shard_draw(seed, 1, 3));
  EXPECT_NE(net::shard_draw(seed, 1, 2), net::shard_draw(seed, 2, 2));
  EXPECT_NE(net::shard_draw(seed, 1, 2), net::shard_draw(seed + 1, 1, 2));
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = net::shard_draw_unit(seed, 42, i);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
  bool saw_hi = false;
  for (int i = 0; i < 100; ++i) {
    const auto v = net::shard_draw_int(seed, 7, i, 10);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 10);  // inclusive, matching Rng::uniform_int(0, hi)
    saw_hi = saw_hi || v == 10;
  }
  EXPECT_TRUE(saw_hi);
}

TEST(ShardedSim, StreamKeysAreDistinctAcrossDirections) {
  const auto wired = net::wired_stream_key(common::NodeAddress(1),
                                           common::NodeAddress(2));
  const auto up = net::uplink_stream_key(common::MhId(1), common::CellId(2));
  const auto down = net::downlink_stream_key(common::CellId(1),
                                             common::MhId(2));
  EXPECT_NE(wired, up);
  EXPECT_NE(wired, down);
  EXPECT_NE(up, down);
  EXPECT_NE(net::uplink_stream_key(common::MhId(1), common::CellId(2)),
            net::uplink_stream_key(common::MhId(2), common::CellId(1)));
}

}  // namespace
}  // namespace rdp::sim
