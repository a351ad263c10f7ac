// Discrete-event simulation kernel.
//
// The simulator owns virtual time.  Events are (time, priority, sequence)
// triples with a callback; ties on time are broken first by priority class,
// then by insertion order, which makes every run fully deterministic.
//
// The priority class exists to model the paper's scheduling rule from
// Section 3.1: "At each Mss, higher priority is given to forwarding Ack
// messages (from Mhs to Mss_p) than to engaging in any new Hand-off
// transactions."  The network layers schedule Ack deliveries at
// EventPriority::kAck so that, when an Ack and a dereg become deliverable at
// the same instant, the Ack is handled first.  Benchmarks ablate this rule
// by scheduling everything at kNormal.
//
// Storage layout: callbacks live in a slab of generation-counted slots and
// the queue holds plain-old-data event records that reference them.
// Scheduling an event allocates nothing beyond amortized slab/queue growth,
// and a TimerHandle is a 16-byte value (slot index + generation) instead of
// a shared_ptr control block.  A slot's generation is bumped every time the
// slot is released — on cancel and on fire alike — so stale handles and
// queue tombstones are recognized by a single integer compare.
//
// The queue has two tiers (a calendar-style split; Brown, "Calendar
// Queues", CACM 31(10), 1988), so its cost follows the events due soon, not
// the hosts' far-off timers:
//   - the near tier, a heap ordered by (time, priority, sequence), holds the
//     events due before the *horizon*, a bucket boundary at most one bucket
//     past now (further only after a query had to look ahead);
//   - the far tier holds the rest in buckets kBucketWidth wide: a ring of
//     kRingBuckets buckets, and an overflow list for events beyond the
//     ring's span that the ring takes in as its span moves on.
// A far event is appended to its bucket in O(1), and a far cancel removes
// it at once (the live slot's next_free holds its index), so the far tier
// holds no tombstones.  Buckets move into the near heap one at a time, and
// only when the near heap cannot answer a query alone: run_until's bound,
// next_event_time() or next_constraint_time().  An emptied or moved bucket
// passes its storage on to the next bucket that needs some (up to a bound
// on the idle storage), so a far push rarely allocates.  Records keep their sequence numbers, so the order of
// execution does not depend on when a bucket moved.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/callback.h"

namespace rdp::obs::prof {
class Accumulator;
}

namespace rdp::sim {

using common::Duration;
using common::SimTime;

// Move-only callable with a 64-byte inline buffer; big enough for the
// protocol's usual captures — including a full net::Envelope (src, dst,
// payload pointer, three timestamps) as captured by the wired delivery
// path — so the schedule hot path performs no heap allocation.
using Callback = SmallFn<void(), 64>;

enum class EventPriority : int {
  kAck = 0,     // Ack forwarding outranks everything else (paper §3.1).
  kNormal = 1,  // Regular message deliveries and timers.
  kLow = 2,     // Background/bookkeeping work.
};

class Simulator;

// Handle for a scheduled event; allows cancellation.  A copyable value —
// (simulator, slot, generation) — whose liveness is checked against the
// slab, so default-constructed and stale handles are inert.
class TimerHandle {
 public:
  TimerHandle() = default;

  // True if the event has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const;

  // Cancel the event if still pending.  Safe to call repeatedly.
  void cancel();

 private:
  friend class Simulator;
  TimerHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedule `cb` to run `delay` from now.  Delay must be non-negative.
  TimerHandle schedule(Duration delay, Callback cb,
                       EventPriority priority = EventPriority::kNormal);

  // Schedule `cb` at absolute time `at` (>= now()).
  TimerHandle schedule_at(SimTime at, Callback cb,
                          EventPriority priority = EventPriority::kNormal);

  // --- reaction bounds (sharded kernel lookahead; PROTOCOL.md §10) -------
  //
  // The sharded kernel's window width is limited by how soon any pending
  // event's *cascade* (the event plus everything it transitively runs
  // within the same shard before the next barrier) could emit a cross-
  // shard message.  `reaction_bound` is a per-event lower bound on that:
  // a send made by the event's cascade arrives no earlier than the event's
  // own time plus the bound.  Zero means "use the tracker's default" (the
  // global minimum latency, always sound).  Bounds are advisory for the
  // window schedule only — they never change what runs or when, and with
  // tracking disabled (the single-kernel default) they are ignored
  // entirely, so tagged call sites behave identically under both kernels.
  TimerHandle schedule_bounded(Duration delay, Duration reaction_bound,
                               Callback cb,
                               EventPriority priority = EventPriority::kNormal);
  TimerHandle schedule_at_bounded(
      SimTime at, Duration reaction_bound, Callback cb,
      EventPriority priority = EventPriority::kNormal);

  // Arm constraint tracking: every subsequently scheduled event contributes
  // (at + bound) to next_constraint_time(), taking `default_bound` where no
  // explicit reaction bound was given.  Must be enabled before the first
  // schedule to make the constraint view complete; the sharded kernel does
  // so at construction.
  void set_reaction_tracking(Duration default_bound);

  // Earliest (at + reaction bound) over all live pending events, i.e. the
  // soonest instant at which any cascade of the current pending set could
  // make a cross-shard send arrive.  nullopt when nothing is pending (or
  // tracking is off).  Exact, though only near-tier events are tracked:
  // every far event is due at or past the horizon and every bound is
  // positive, so a near minimum at or before the horizon is the minimum,
  // and while it lies past the horizon the next bucket moves in.  Stale
  // records are purged lazily.
  [[nodiscard]] std::optional<SimTime> next_constraint_time() const;

  // Run until the event queue drains or stop() is called.
  void run();

  // Run events with time <= `until`; afterwards now() == `until` unless the
  // queue drained earlier or stop() was called.  Returns the number of
  // events executed.
  std::size_t run_until(SimTime until);

  // Execute the single next event.  Returns false if the queue is empty.
  bool step();

  // Make run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t executed_events() const { return executed_; }
  // Exact count of scheduled-but-not-yet-fired events.  Cancellation is
  // accounted eagerly (the queue tombstone left behind is not counted), so
  // this is safe to use for quiesce detection.
  [[nodiscard]] std::size_t pending_events() const { return live_pending_; }

  // Time of the next live event, if any (used by the sharded kernel to
  // skip empty lockstep windows).  Exact: cancelled tombstones are purged,
  // not reported, and when the near heap is empty the earliest nonempty
  // far bucket moves in.
  [[nodiscard]] std::optional<SimTime> next_event_time() const;

  // Profiling (docs/PROTOCOL.md §13): while non-null, run()/run_until()/
  // step() install `acc` as the calling thread's probe accumulator for the
  // duration of the call, so dispatch and everything under it is charged to
  // this kernel's tree — per shard, even when one worker thread runs
  // several shards.  Purely observational; never affects the schedule.
  void set_prof_accumulator(obs::prof::Accumulator* acc) { prof_acc_ = acc; }

  // Far-tier geometry (fixed; see the header comment).  The ring spans
  // kRingBuckets * kBucketWidth, about 134 s.
  static constexpr int kBucketShift = 16;
  static constexpr Duration kBucketWidth =
      Duration::micros(std::int64_t{1} << kBucketShift);
  static constexpr std::int64_t kRingBuckets = 2048;

 private:
  friend class TimerHandle;

  // Slab slot holding a scheduled callback.  `gen` is bumped on every
  // release, so (slot, gen) pairs held by queue records and TimerHandles
  // match the slab iff that incarnation is still armed.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    // Free: the next free slot.  Live in the far tier: the event's index
    // in its far list.
    std::uint32_t next_free = kNoSlot;
    // Live in the far tier: its ring bucket, or kOverflow.  kNear otherwise.
    std::uint32_t far_list = kNear;
  };

  // One record type for both tiers.  `order` packs (priority, sequence)
  // into one integer, so (at, order) sorts as (at, priority, sequence).
  struct Event {
    SimTime at;
    std::uint64_t order;
    std::uint32_t slot;
    std::uint32_t gen;
    std::int64_t deadline_us;  // at + reaction bound; 0 untracked
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.order > b.order;
    }
  };

  // Constraint-heap record: the (slot, gen) pair identifies the event
  // incarnation, so records whose event fired or was cancelled are
  // recognized as stale by the same integer compare the event queue uses
  // for its tombstones, and popped lazily.
  struct Constraint {
    std::int64_t deadline_us;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct ConstraintOrder {
    bool operator()(const Constraint& a, const Constraint& b) const {
      return a.deadline_us > b.deadline_us;
    }
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kNear = 0xffffffffu;
  static constexpr std::uint32_t kOverflow = 0xfffffffeu;
  static constexpr std::int64_t kNoLimit = INT64_MAX;

  [[nodiscard]] static std::int64_t bucket_of(std::int64_t us) {
    return us >> kBucketShift;
  }
  [[nodiscard]] bool slot_live(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  std::uint32_t acquire_slot(Callback cb);
  // Bumps the generation and returns the slot to the free list.  The
  // callback is moved out (fire) or destroyed (cancel) by the caller /
  // here respectively.
  void release_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  void push_near(const Event& event) {
    near_.push(event);
    if (track_constraints_) {
      constraints_.push(Constraint{event.deadline_us, event.slot, event.gen});
    }
  }
  void push_far(const Event& event);
  // A spare list's storage (empty, keeping its capacity), or an empty list.
  std::vector<Event> take_list();
  // Empties `list`, keeping its storage for take_list() while the spares
  // have room (kSpareRecords) and freeing it otherwise.
  void retire_list(std::vector<Event>& list);
  // Moves the earliest nonempty far bucket into the near heap if it is
  // bucket `last` or earlier; otherwise advances the horizon past `last`
  // (kNoLimit: leaves it) and returns false.
  bool pull_bucket(std::int64_t last);
  // Moves the horizon to bucket `bucket`; every far bucket before it must
  // be empty.  When the ring's remaining span falls below half the ring,
  // the span moves on and the overflow events it now covers join the ring.
  void set_horizon(std::int64_t bucket);

  // Pop queue records whose slot generation no longer matches (cancelled
  // incarnations).  Afterwards the top, if any, is a live event.
  void skip_tombstones() {
    while (!near_.empty() && slots_[near_.top().slot].gen != near_.top().gen) {
      near_.pop();
    }
  }
  // Makes the near heap's top the earliest live event, moving in the first
  // nonempty far bucket when the near heap is empty and that bucket is
  // `last` or earlier.  False when no such event exists.
  bool settle_near(std::int64_t last) {
    skip_tombstones();
    return !near_.empty() || pull_bucket(last);
  }
  bool execute_next();

  std::priority_queue<Event, std::vector<Event>, EventOrder> near_;
  std::priority_queue<Constraint, std::vector<Constraint>, ConstraintOrder>
      constraints_;
  // Far tier.  Bucket b holds the events due in [b, b + 1) * kBucketWidth;
  // buckets [horizon_bucket_, ring_end_) sit in ring_[b % kRingBuckets]
  // (allocated on first use) and later ones in overflow_.
  std::vector<std::vector<Event>> ring_;
  std::vector<Event> overflow_;
  // Storage of emptied far lists, handed to the next list that needs some.
  // It holds kSpareRecords records (512 KiB) at most: when many large
  // buckets pass the horizon while few lists fill up, the rest is freed
  // rather than held for the rest of the run.
  static constexpr std::size_t kSpareRecords = 16384;
  std::vector<std::vector<Event>> spare_lists_;
  std::size_t spare_records_ = 0;  // capacity of the spare lists
  std::int64_t horizon_bucket_ = 1;
  std::int64_t ring_end_ = 1 + kRingBuckets;
  std::int64_t overflow_floor_ = kNoLimit;  // <= every overflow bucket
  std::size_t ring_events_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t live_pending_ = 0;
  bool stopped_ = false;
  bool track_constraints_ = false;
  std::int64_t default_bound_us_ = 0;
  obs::prof::Accumulator* prof_acc_ = nullptr;
};

}  // namespace rdp::sim
