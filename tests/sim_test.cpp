#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "sim/simulator.h"

namespace rdp::sim {
namespace {

using common::Duration;
using common::SimTime;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
  sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::millis(30));
}

TEST(Simulator, TiesBrokenByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Duration::millis(10), [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, PriorityOutranksInsertionOrderAtSameTime) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule(Duration::millis(10), [&] { order.push_back("normal"); },
               EventPriority::kNormal);
  sim.schedule(Duration::millis(10), [&] { order.push_back("ack"); },
               EventPriority::kAck);
  sim.schedule(Duration::millis(10), [&] { order.push_back("low"); },
               EventPriority::kLow);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"ack", "normal", "low"}));
}

TEST(Simulator, PriorityDoesNotOverrideTime) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule(Duration::millis(5), [&] { order.push_back("early-low"); },
               EventPriority::kLow);
  sim.schedule(Duration::millis(10), [&] { order.push_back("late-ack"); },
               EventPriority::kAck);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early-low", "late-ack"}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(10), [&] {
    order.push_back(1);
    sim.schedule(Duration::millis(10), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().count_micros(), 20'000);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule(Duration::millis(5), [&] {
    sim.schedule(Duration::zero(), [&] {
      ran = true;
      EXPECT_EQ(sim.now().count_micros(), 5000);
    });
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  TimerHandle handle = sim.schedule(Duration::millis(10), [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int runs = 0;
  TimerHandle handle = sim.schedule(Duration::millis(1), [&] { ++runs; });
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or affect anything
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, DoubleCancelIsIdempotent) {
  Simulator sim;
  bool ran = false;
  TimerHandle handle = sim.schedule(Duration::millis(5), [&] { ran = true; });
  handle.cancel();
  handle.cancel();  // second cancel must be a no-op
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
  handle.cancel();  // and a third, after the queue drained
}

TEST(Simulator, CancelInsideCallbackPreventsSameTimeEvent) {
  Simulator sim;
  bool other_ran = false;
  // Both events at the same instant; A is inserted first so it fires first
  // and cancels B while the kernel is mid-timestep.
  TimerHandle other;
  sim.schedule(Duration::millis(10), [&] { other.cancel(); });
  other = sim.schedule(Duration::millis(10), [&] { other_ran = true; });
  sim.run();
  EXPECT_FALSE(other_ran);
  EXPECT_FALSE(other.pending());
}

TEST(Simulator, CallbackCancellingItsOwnHandleIsSafe) {
  Simulator sim;
  int runs = 0;
  TimerHandle handle;
  handle = sim.schedule(Duration::millis(1), [&] {
    ++runs;
    handle.cancel();  // cancelling the currently-firing event is a no-op
  });
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, CancelInsideCallbackThenRescheduleFires) {
  Simulator sim;
  std::vector<int> order;
  TimerHandle later;
  later = sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.schedule(Duration::millis(10), [&] {
    order.push_back(1);
    later.cancel();
    later = sim.schedule(Duration::millis(5), [&] { order.push_back(3); });
  });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);  // replacement fired at 15 ms, original never did
}

TEST(Simulator, DefaultHandleIsInert) {
  TimerHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();
}

TEST(Simulator, RunUntilAdvancesClockToBoundary) {
  Simulator sim;
  int runs = 0;
  sim.schedule(Duration::millis(10), [&] { ++runs; });
  sim.schedule(Duration::millis(30), [&] { ++runs; });
  const std::size_t executed =
      sim.run_until(SimTime::zero() + Duration::millis(20));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.now().count_micros(), 20'000);
  sim.run();
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  int runs = 0;
  sim.schedule(Duration::millis(20), [&] { ++runs; });
  sim.run_until(SimTime::zero() + Duration::millis(20));
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int runs = 0;
  sim.schedule(Duration::millis(1), [&] {
    ++runs;
    sim.stop();
  });
  sim.schedule(Duration::millis(2), [&] { ++runs; });
  sim.run();
  EXPECT_EQ(runs, 1);
  sim.run();  // resumes
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  int runs = 0;
  sim.schedule(Duration::millis(1), [&] { ++runs; });
  sim.schedule(Duration::millis(2), [&] { ++runs; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, RejectsSchedulingIntoThePast) {
  Simulator sim;
  sim.schedule(Duration::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::zero(), [] {}),
               common::InvariantViolation);
}

TEST(Simulator, CountsExecutedAndPending) {
  Simulator sim;
  sim.schedule(Duration::millis(1), [] {});
  sim.schedule(Duration::millis(2), [] {});
  auto cancelled = sim.schedule(Duration::millis(3), [] {});
  cancelled.cancel();
  // Cancellation is accounted eagerly; the queue tombstone is invisible.
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelledEventsDoNotInflatePendingCount) {
  // Regression: lazy cancellation used to leave cancelled handles counted in
  // pending_events() until the queue happened to pop their tombstones, which
  // skewed quiesce detection (a "pending" count that could never fire).
  Simulator sim;
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule(Duration::millis(100 + i), [] {}));
  }
  for (auto& h : handles) h.cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.next_event_time(), std::nullopt);
  // A cancelled-then-fired generation must not resurrect the count either:
  // reuse the slots and let the replacements run.
  sim.schedule(Duration::millis(1), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, RunUntilDoesNotExecutePastBoundAcrossTombstones) {
  // Regression: run_until used to gate on the raw queue top, so a cancelled
  // tombstone inside the bound let the *next* live event execute even when
  // it lay beyond the bound.
  Simulator sim;
  bool late_ran = false;
  auto early = sim.schedule(Duration::millis(5), [] {});
  sim.schedule(Duration::millis(50), [&] { late_ran = true; });
  early.cancel();
  const std::size_t executed =
      sim.run_until(SimTime::zero() + Duration::millis(10));
  EXPECT_EQ(executed, 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.now().count_micros(), 10'000);
  sim.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, HandleStaysDistinctAcrossSlotReuse) {
  // A handle from a released slot must stay inert even after the slot is
  // reused by a new event (generation check).
  Simulator sim;
  bool second_ran = false;
  auto first = sim.schedule(Duration::millis(1), [] {});
  first.cancel();
  auto second = sim.schedule(Duration::millis(2), [&] { second_ran = true; });
  EXPECT_FALSE(first.pending());
  EXPECT_TRUE(second.pending());
  first.cancel();  // stale generation: must not cancel the replacement
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_TRUE(second_ran);
}

TEST(Simulator, ManyEventsKeepRelativeOrderAcrossTimes) {
  Simulator sim;
  std::vector<int> order;
  // Interleave insertions at two times; per-time insertion order must hold.
  for (int i = 0; i < 50; ++i) {
    sim.schedule(Duration::millis(i % 2 == 0 ? 10 : 20),
                 [&, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 1; i < 25; ++i) {
    EXPECT_LT(order[i - 1], order[i]);  // evens ascending
  }
  for (std::size_t i = 26; i < 50; ++i) {
    EXPECT_LT(order[i - 1], order[i]);  // odds ascending
  }
}

// --- two-tier queue: differential test against a brute-force reference ---

constexpr std::int64_t kWidthUs = Simulator::kBucketWidth.count_micros();
constexpr std::int64_t kSpanUs = kWidthUs * Simulator::kRingBuckets;
constexpr std::int64_t kDefaultBoundUs = 1000;

// Drives a Simulator and a reference model — an ordered set of the live
// (at, priority, seq) records, each with its reaction bound — through the
// same seeded mix of operations, and checks every answer against it.
class QueueDifferential {
 public:
  QueueDifferential(std::uint64_t seed, bool track)
      : rng_(seed), track_(track) {
    if (track_) sim_.set_reaction_tracking(Duration::micros(kDefaultBoundUs));
  }

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const int op = static_cast<int>(uniform(0, 99));
      if (op < 35) {
        schedule_one();
      } else if (op < 50) {
        cancel_one();
      } else if (op < 62) {
        run_until(now_us() + span());
      } else if (op < 67) {
        run_until(interesting_time());
      } else if (op < 77) {
        step();
      } else if (op < 87) {
        check_next_event();
      } else {
        check_next_constraint();
      }
      ASSERT_EQ(sim_.pending_events(), live_.size());
    }
    // Drain; a callback's stop() ends a run() early.
    while (!order_.empty() && !::testing::Test::HasFailure()) sim_.run();
    EXPECT_TRUE(live_.empty());
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_EQ(sim_.next_event_time(), std::nullopt);
    EXPECT_EQ(sim_.next_constraint_time(), std::nullopt);
    // The mix must have carried the clock around the ring several times.
    EXPECT_GT(now_us(), 3 * kSpanUs);
  }

 private:
  using Key = std::tuple<std::int64_t, int, std::uint64_t>;  // at, prio, seq
  struct Live {
    TimerHandle handle;
    Key key;
    std::int64_t deadline_us;
    std::size_t index;  // in ids_
  };

  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }
  std::int64_t now_us() const { return sim_.now().count_micros(); }

  // A run_until step: from in-flight gaps to jumps over the whole ring.
  std::int64_t span() {
    switch (uniform(0, 3)) {
      case 0: return uniform(0, 100);
      case 1: return uniform(0, 2 * kWidthUs);
      case 2: return uniform(0, kSpanUs / 4);
      default: return uniform(0, 2 * kSpanUs);
    }
  }

  // A bucket edge (either side, or on it) or a live event's exact time.
  std::int64_t interesting_time() {
    if (!ids_.empty() && uniform(0, 1) == 0) {
      return std::get<0>(live_.at(pick_live()).key);
    }
    const std::int64_t edge = (now_us() / kWidthUs + uniform(1, 3)) * kWidthUs;
    return std::max(now_us(), edge + uniform(-2, 2));
  }

  std::int64_t pick_at() {
    const std::int64_t now = now_us();
    switch (uniform(0, 7)) {
      case 0: return now;
      case 1: return now + uniform(0, 200);
      case 2: return now + uniform(0, 2 * kWidthUs);
      case 3: {
        const std::int64_t edge = (now / kWidthUs + uniform(1, 4)) * kWidthUs;
        return std::max(now, edge + uniform(-2, 2));
      }
      case 4:
        // Equal time as a live event, near or far, at any priority.
        if (!ids_.empty()) return std::get<0>(live_.at(pick_live()).key);
        return now;
      case 5: return now + uniform(0, kSpanUs);
      case 6: return now + kSpanUs + uniform(-2 * kWidthUs, 2 * kWidthUs);
      default: return now + uniform(kSpanUs, 4 * kSpanUs);  // overflow
    }
  }

  std::uint32_t pick_live() {
    return ids_[static_cast<std::size_t>(
        uniform(0, static_cast<std::int64_t>(ids_.size()) - 1))];
  }

  void schedule_one() {
    const std::int64_t at = pick_at();
    const auto priority = static_cast<EventPriority>(uniform(0, 2));
    const std::int64_t bound =
        uniform(0, 2) == 0 ? 0 : uniform(1, 3 * kWidthUs);
    const std::uint32_t id = next_id_++;
    const TimerHandle handle = sim_.schedule_at_bounded(
        SimTime::from_micros(at), Duration::micros(bound),
        [this, id] { fire(id); }, priority);
    const std::int64_t deadline = at + (bound > 0 ? bound : kDefaultBoundUs);
    const Key key{at, static_cast<int>(priority), next_seq_++};
    live_.emplace(id, Live{handle, key, deadline, ids_.size()});
    ids_.push_back(id);
    order_.emplace(key, id);
    deadlines_.insert(deadline);
  }

  void forget(std::uint32_t id) {
    const Live& live = live_.at(id);
    order_.erase(live.key);
    deadlines_.erase(deadlines_.find(live.deadline_us));
    const std::uint32_t moved = ids_.back();
    ids_[live.index] = moved;
    live_.at(moved).index = live.index;
    ids_.pop_back();
    live_.erase(id);
  }

  void cancel_one() {
    if (ids_.empty()) return;
    const std::uint32_t id = pick_live();
    TimerHandle handle = live_.at(id).handle;
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    forget(id);
  }

  void fire(std::uint32_t id) {
    ASSERT_FALSE(order_.empty());
    const auto& [key, expected] = *order_.begin();
    ASSERT_EQ(id, expected) << "fired out of (at, priority, seq) order";
    EXPECT_EQ(now_us(), std::get<0>(key));
    TimerHandle self = live_.at(id).handle;
    forget(id);
    ++fired_;
    EXPECT_FALSE(self.pending());
    // Callbacks cancel, schedule and re-arm too, as protocol timers do.
    const std::int64_t action = uniform(0, 99);
    if (action < 25) {
      cancel_one();
    } else if (action < 50) {
      schedule_one();
    } else if (action < 60) {
      cancel_one();
      schedule_one();
    } else if (action < 63) {
      self.cancel();  // already fired: a no-op
    } else if (action < 65) {
      sim_.stop();
      stopped_ = true;
    }
  }

  void run_until(std::int64_t until) {
    const std::size_t before = fired_;
    stopped_ = false;
    const std::size_t ran = sim_.run_until(SimTime::from_micros(until));
    EXPECT_EQ(ran, fired_ - before);
    if (stopped_) return;
    EXPECT_EQ(now_us(), until);
    if (!order_.empty()) {
      EXPECT_GT(std::get<0>(order_.begin()->first), until);
    }
  }

  void step() {
    const std::size_t before = fired_;
    EXPECT_EQ(sim_.step(), !order_.empty() || before != fired_);
    EXPECT_LE(fired_, before + 1);
  }

  void check_next_event() {
    const auto next = sim_.next_event_time();
    if (order_.empty()) {
      EXPECT_EQ(next, std::nullopt);
    } else {
      ASSERT_TRUE(next.has_value());
      EXPECT_EQ(next->count_micros(), std::get<0>(order_.begin()->first));
    }
  }

  void check_next_constraint() {
    const auto next = sim_.next_constraint_time();
    if (!track_ || deadlines_.empty()) {
      EXPECT_EQ(next, std::nullopt);
    } else {
      ASSERT_TRUE(next.has_value());
      EXPECT_EQ(next->count_micros(), *deadlines_.begin());
    }
  }

  std::mt19937_64 rng_;
  bool track_;
  Simulator sim_;
  std::map<Key, std::uint32_t> order_;
  std::unordered_map<std::uint32_t, Live> live_;
  std::vector<std::uint32_t> ids_;
  std::multiset<std::int64_t> deadlines_;
  std::uint32_t next_id_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t fired_ = 0;
  bool stopped_ = false;
};

TEST(SimulatorQueue, MatchesReferenceWithoutTracking) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    QueueDifferential(seed, /*track=*/false).run(20'000);
  }
}

TEST(SimulatorQueue, MatchesReferenceWithReactionTracking) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    QueueDifferential(seed, /*track=*/true).run(20'000);
  }
}

TEST(SimulatorQueue, EqualTimeEventsKeepPriorityAcrossABucketMove) {
  // Five events at one far instant: three scheduled while its bucket is in
  // the far tier, two after next_event_time() moved it into the near heap.
  Simulator sim;
  const SimTime t = SimTime::from_micros(10 * kWidthUs + 5);
  std::vector<char> order;
  const auto at = [&](char name, EventPriority priority) {
    sim.schedule_at(t, [&order, name] { order.push_back(name); }, priority);
  };
  at('a', EventPriority::kNormal);
  at('b', EventPriority::kLow);
  at('e', EventPriority::kAck);
  ASSERT_EQ(sim.next_event_time(), t);
  at('c', EventPriority::kAck);
  at('d', EventPriority::kNormal);
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'e', 'c', 'a', 'd', 'b'}));
}

}  // namespace
}  // namespace rdp::sim
