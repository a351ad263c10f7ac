// Sharded discrete-event kernel: conservative time-windowed parallel DES.
//
// A ShardedSimulator owns N single-threaded Simulator shards, each driving a
// disjoint set of cells/Mss (the harness assigns entities to shards by
// cell).  Shards advance in lockstep windows, where a window may run every
// event strictly before the earliest instant any pending event's cascade
// could make a cross-shard message arrive.  Each pending event carries a
// *reaction bound* (see Simulator::schedule_bounded): a lower bound on the
// latency of any send its same-shard cascade can make, defaulting to the
// global minimum cross-shard latency (the classic lookahead, always sound)
// and widened at call sites whose cascades can only use slower channels
// (e.g. a mobile host's timers can only ever uplink over the wireless
// channel).  The window fence is min over pending events of (at + bound) —
// per-traffic lookahead instead of one global constant — so windows batch
// far more events and the barrier count drops by an order of magnitude.
// Within a window the shards share nothing and can run on separate threads.
//
// Cross-shard traffic never touches another shard's event queue directly.
// Senders post ShardInjection records into per-(src,dst) outboxes; at the
// window barrier the main thread gathers each destination's records from
// all sources, sorts them by the canonical (arrival time, priority,
// stream key, stream sequence) key, and only then schedules them into the
// destination shard.  Because the key is derived from the logical message
// stream — never from which shard or thread produced the record — the
// schedule order, and therefore every tie-break downstream, is identical
// for every shard count and thread count: runs are bit-reproducible.
//
// The fence rule depends only on the (time, bound) pairs of the pending
// events — never on which shard holds an event, because every send
// (intra-shard included) goes through post() and every timer lives in its
// owner's shard for any partitioning — so the barrier sequence, where the
// barrier hook merges observer buffers and syncs the wireless mirror, is
// partition-invariant and runs stay bit-reproducible across shard and
// thread counts.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/time.h"
#include "sim/callback.h"
#include "sim/simulator.h"

namespace rdp::sim {

// A cross-shard delivery, buffered until the next window barrier.
//
// `stream_key` identifies the logical message stream (e.g. one wired link,
// or one (mh, cell) wireless direction) and `stream_seq` the message's
// position in it; together with (at, priority) they form a total order that
// does not depend on the partitioning.  Posters own their streams' sequence
// counters, so no two records ever carry the same full key.
struct ShardInjection {
  SimTime at;
  EventPriority priority = EventPriority::kNormal;
  std::uint64_t stream_key = 0;
  std::uint64_t stream_seq = 0;
  // Reaction bound for the scheduled arrival event (see
  // Simulator::schedule_bounded); zero takes the kernel's default (the
  // global lookahead).  A wireless downlink arrival, for example, wakes a
  // mobile host whose cascade can only uplink, so it carries the wireless
  // base latency and widens the window schedule accordingly.
  Duration reaction_bound = Duration::zero();
  Callback run;
};

class ShardedSimulator {
 public:
  struct Options {
    int shards = 1;
    // Worker threads for window execution; 0 picks
    // min(shards, hardware_concurrency), 1 runs windows inline on the
    // calling thread.  The thread count never affects results.
    int threads = 1;
    // Minimum cross-shard latency; every post() must arrive at least this
    // far after the moment it is posted.  Must be positive.
    Duration lookahead = Duration::millis(1);
  };

  explicit ShardedSimulator(const Options& options);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] Duration lookahead() const {
    return Duration::micros(lookahead_us_);
  }
  [[nodiscard]] Simulator& shard(int i) { return *shards_[i]; }
  [[nodiscard]] const Simulator& shard(int i) const { return *shards_[i]; }

  // The bound reached by the last run_until (all shard clocks sit here
  // between runs).
  [[nodiscard]] SimTime now() const { return now_; }

  // Buffer a delivery on shard `dst` at `injection.at`.  Must be called
  // from `src`'s window execution (or between windows from the driving
  // thread); the arrival must respect the lookahead, which is enforced at
  // the barrier.  Intra-shard sends (src == dst) take the same path so that
  // ordering is identical across partitionings.
  void post(int src, int dst, ShardInjection injection);

  // The barrier hook runs single-threaded at every window fence, after the
  // mailboxes have been drained into the shards; the argument is the fence
  // time (every event strictly before it has executed).  The harness sets
  // it once, to apply churn, sync the wireless mirror and merge the
  // per-shard tap buffers.
  using BarrierHook = SmallFn<void(SimTime), 64>;
  void set_barrier_hook(BarrierHook hook);

  // Run all shards through `until` inclusive; afterwards every shard's
  // clock (and now()) equals `until`.  Returns events executed.
  std::size_t run_until(SimTime until);

  // Run until every shard quiesces and no injections remain.
  std::size_t run();

  [[nodiscard]] std::size_t executed_events() const;
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  // Barrier-hook firings, which the benchmark reports as its observer
  // barriers: one per window.
  [[nodiscard]] std::uint64_t observer_barriers_run() const {
    return windows_run();
  }

  // --- profiling (docs/PROTOCOL.md §13) ---------------------------------
  // Wall-clock accounting collected only while enabled: per-shard busy
  // time inside windows, barrier stall (window wall-clock minus the
  // shard's own busy slice — with fewer cores than shards this is the
  // serialization tax itself), log2 histograms of barrier-to-barrier
  // sim-time advance and per-destination outbox drain size, and a bounded
  // sample of per-window records for the Chrome trace.  Reading the wall
  // clock never influences the schedule: results are bit-identical with
  // profiling on or off.
  struct ProfStats {
    std::vector<std::uint64_t> busy_ns;   // per shard, summed over windows
    std::vector<std::uint64_t> stall_ns;  // per shard, summed over windows
    std::uint64_t windows = 0;
    // Bucket i counts windows whose fence advanced [2^i, 2^(i+1)) sim-µs
    // since the previous barrier (empty-window skips widen this).
    std::array<std::uint64_t, 32> window_width_us_log2{};
    // Bucket i counts barriers where one destination shard received
    // [2^i, 2^(i+1)) injections.
    std::array<std::uint64_t, 32> outbox_drain_log2{};
    struct Window {
      int shard = 0;
      std::int64_t begin_us = 0;
      std::int64_t end_us = 0;
      std::uint64_t busy_ns = 0;
      std::uint64_t stall_ns = 0;
    };
    std::vector<Window> windows_sample;  // first kMaxWindowRecords windows
    bool windows_truncated = false;
  };
  void set_profiling(bool enabled);
  [[nodiscard]] const ProfStats& prof_stats() const { return prof_; }

 private:
  static constexpr std::size_t kMaxWindowRecords = 16384;
  // Earliest pending event across all shards (mailboxes are empty between
  // windows, so this is the global minimum).
  [[nodiscard]] std::optional<std::int64_t> min_next_event_us() const;
  // Earliest (at + reaction bound) across all shards: the first instant a
  // cross-shard send from any pending cascade could arrive, i.e. the widest
  // sound fence for the next window.
  [[nodiscard]] std::optional<std::int64_t> min_next_constraint_us() const;

  // Execute one window: every shard runs run_until(bound), in parallel when
  // the pool is active.  Returns events executed in the window.
  std::size_t run_window(SimTime bound);
  // Sort every outbox by the canonical key and schedule the injections into
  // their destination shards, checking each against the fence.
  void inject_outboxes(std::int64_t fence_us);
  // inject_outboxes, then the barrier hook.
  void barrier(std::int64_t fence_us);
  // Deliveries posted from outside a run (e.g. a host powered on before the
  // first run_until) sit in the outboxes where the window-placement logic
  // cannot see them; fold them into the shard queues before running.
  void drain_pending_posts();

  void worker_main(int worker_index);

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::int64_t lookahead_us_;
  std::int64_t fence_us_ = 0;  // every event < fence has executed
  SimTime now_ = SimTime::zero();
  std::uint64_t windows_ = 0;

  // outboxes_[src * shards + dst]; written only by src's worker during a
  // window, drained only at barriers.
  std::vector<std::vector<ShardInjection>> outboxes_;
  std::vector<ShardInjection> sort_scratch_;
  BarrierHook barrier_hook_;

  // Worker pool (only when threads_ > 1).  Workers own a static slice of
  // shards (worker w runs shards w, w+threads, ...).  All coordination goes
  // through one mutex + generation counter, which also provides the
  // happens-before edges that make shard state visible across the barrier.
  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t window_generation_ = 0;
  int workers_done_ = 0;
  bool shutdown_ = false;
  SimTime window_bound_;
  std::vector<std::size_t> window_counts_;
  std::vector<std::exception_ptr> window_errors_;

  // Profiling state.  window_busy_ns_ is written per shard index by the
  // worker running that shard and read by the coordinator after the
  // done_cv_ handshake, which provides the happens-before edge.
  bool profiling_ = false;
  ProfStats prof_;
  std::vector<std::uint64_t> window_busy_ns_;
  std::int64_t last_window_end_us_ = 0;
};

}  // namespace rdp::sim
