#include "sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/check.h"
#include "obs/perf_probe.h"

namespace rdp::sim {
namespace {

[[nodiscard]] std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] std::size_t log2_bucket(std::uint64_t value) {
  std::size_t bucket = 0;
  while (value > 1 && bucket < 31) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace

ShardedSimulator::ShardedSimulator(const Options& options) {
  RDP_CHECK(options.shards >= 1, "need at least one shard");
  lookahead_us_ = options.lookahead.count_micros();
  RDP_CHECK(lookahead_us_ > 0, "lookahead must be positive");

  shards_.reserve(static_cast<std::size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
    // Every event contributes a window constraint; untagged events take the
    // global lookahead as their (always sound) reaction bound.
    shards_.back()->set_reaction_tracking(options.lookahead);
  }
  outboxes_.resize(static_cast<std::size_t>(options.shards) *
                   static_cast<std::size_t>(options.shards));
  window_counts_.resize(shards_.size(), 0);
  window_errors_.resize(shards_.size());

  int threads = options.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = static_cast<int>(hw == 0 ? 1 : hw);
  }
  threads_ = std::max(1, std::min(threads, options.shards));
  if (threads_ > 1) {
    workers_.reserve(static_cast<std::size_t>(threads_));
    for (int w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }
}

void ShardedSimulator::post(int src, int dst, ShardInjection injection) {
  RDP_CHECK(src >= 0 && src < shards(), "bad source shard");
  RDP_CHECK(dst >= 0 && dst < shards(), "bad destination shard");
  RDP_CHECK(static_cast<bool>(injection.run), "injection needs a callback");
  outboxes_[static_cast<std::size_t>(src) * shards_.size() +
            static_cast<std::size_t>(dst)]
      .push_back(std::move(injection));
}

void ShardedSimulator::set_barrier_hook(BarrierHook hook) {
  RDP_CHECK(!barrier_hook_, "the barrier hook is set once");
  barrier_hook_ = std::move(hook);
}

void ShardedSimulator::set_profiling(bool enabled) {
  profiling_ = enabled;
  if (enabled) {
    prof_.busy_ns.assign(shards_.size(), 0);
    prof_.stall_ns.assign(shards_.size(), 0);
    window_busy_ns_.assign(shards_.size(), 0);
  }
}

std::optional<std::int64_t> ShardedSimulator::min_next_event_us() const {
  std::optional<std::int64_t> min;
  for (const auto& shard : shards_) {
    const auto next = shard->next_event_time();
    if (!next) continue;
    const std::int64_t us = next->count_micros();
    if (!min || us < *min) min = us;
  }
  return min;
}

std::optional<std::int64_t> ShardedSimulator::min_next_constraint_us() const {
  std::optional<std::int64_t> min;
  for (const auto& shard : shards_) {
    const auto next = shard->next_constraint_time();
    if (!next) continue;
    const std::int64_t us = next->count_micros();
    if (!min || us < *min) min = us;
  }
  return min;
}

std::size_t ShardedSimulator::run_window(SimTime bound) {
  ++windows_;
  const std::uint64_t wall_begin = profiling_ ? wall_now_ns() : 0;
  std::size_t executed = 0;
  if (threads_ <= 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (profiling_) {
        const std::uint64_t t0 = wall_now_ns();
        executed += shards_[s]->run_until(bound);
        window_busy_ns_[s] = wall_now_ns() - t0;
      } else {
        executed += shards_[s]->run_until(bound);
      }
    }
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      window_bound_ = bound;
      workers_done_ = 0;
      ++window_generation_;
    }
    work_cv_.notify_all();
    {
      // Charged to the coordinator's probe tree: the time this thread sat
      // waiting on the slowest worker.
      RDP_PROF_SCOPE(kBarrierWait);
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return workers_done_ == threads_; });
    }

    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (window_errors_[s]) {
        // Rethrow the lowest-index shard's failure; later shards' errors (if
        // any) are dropped with it, same as a sequential run would surface.
        std::exception_ptr error = std::exchange(window_errors_[s], nullptr);
        for (auto& other : window_errors_) other = nullptr;
        std::rethrow_exception(error);
      }
      executed += window_counts_[s];
    }
  }

  if (profiling_) {
    const std::uint64_t wall = wall_now_ns() - wall_begin;
    const std::int64_t end_us = bound.count_micros() + 1;
    const std::uint64_t advance_us = static_cast<std::uint64_t>(
        end_us > last_window_end_us_ ? end_us - last_window_end_us_ : 0);
    prof_.window_width_us_log2[log2_bucket(advance_us)] += 1;
    ++prof_.windows;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::uint64_t busy = window_busy_ns_[s];
      const std::uint64_t stall = wall > busy ? wall - busy : 0;
      prof_.busy_ns[s] += busy;
      prof_.stall_ns[s] += stall;
      if (prof_.windows_sample.size() < kMaxWindowRecords) {
        // fence_us_ still holds this window's (post-jump) start here; the
        // caller advances it only after run_window returns.
        prof_.windows_sample.push_back(ProfStats::Window{
            static_cast<int>(s), fence_us_, end_us, busy, stall});
      } else {
        prof_.windows_truncated = true;
      }
    }
    last_window_end_us_ = end_us;
  }
  return executed;
}

void ShardedSimulator::worker_main(int worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    SimTime bound;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || window_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = window_generation_;
      bound = window_bound_;
    }
    for (int s = worker_index; s < shards(); s += threads_) {
      const std::uint64_t t0 = profiling_ ? wall_now_ns() : 0;
      try {
        window_counts_[static_cast<std::size_t>(s)] =
            shards_[static_cast<std::size_t>(s)]->run_until(bound);
      } catch (...) {
        window_counts_[static_cast<std::size_t>(s)] = 0;
        window_errors_[static_cast<std::size_t>(s)] = std::current_exception();
      }
      if (profiling_) {
        window_busy_ns_[static_cast<std::size_t>(s)] = wall_now_ns() - t0;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void ShardedSimulator::inject_outboxes(std::int64_t fence_us) {
  RDP_PROF_SCOPE(kOutboxDrain);
  const int n = shards();
  const SimTime fence = SimTime::from_micros(fence_us);
  for (int dst = 0; dst < n; ++dst) {
    // Batch the drain: size the scratch once, then move whole boxes in.
    std::size_t total = 0;
    for (int src = 0; src < n; ++src) {
      total += outboxes_[static_cast<std::size_t>(src) * shards_.size() +
                         static_cast<std::size_t>(dst)]
                   .size();
    }
    if (total == 0) continue;
    sort_scratch_.clear();
    sort_scratch_.reserve(total);
    for (int src = 0; src < n; ++src) {
      auto& box = outboxes_[static_cast<std::size_t>(src) * shards_.size() +
                            static_cast<std::size_t>(dst)];
      sort_scratch_.insert(sort_scratch_.end(),
                           std::make_move_iterator(box.begin()),
                           std::make_move_iterator(box.end()));
      box.clear();
    }
    if (profiling_) {
      prof_.outbox_drain_log2[log2_bucket(sort_scratch_.size())] += 1;
    }
    std::sort(sort_scratch_.begin(), sort_scratch_.end(),
              [](const ShardInjection& a, const ShardInjection& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.priority != b.priority) return a.priority < b.priority;
                if (a.stream_key != b.stream_key)
                  return a.stream_key < b.stream_key;
                return a.stream_seq < b.stream_seq;
              });
    for (auto& injection : sort_scratch_) {
      RDP_CHECK(injection.at >= fence,
                "injection arrives inside the closed window: lookahead "
                "violated");
      shards_[static_cast<std::size_t>(dst)]->schedule_at_bounded(
          injection.at, injection.reaction_bound, std::move(injection.run),
          injection.priority);
    }
  }
}

void ShardedSimulator::barrier(std::int64_t fence_us) {
  inject_outboxes(fence_us);
  if (barrier_hook_) barrier_hook_(SimTime::from_micros(fence_us));
}

void ShardedSimulator::drain_pending_posts() {
  for (const auto& box : outboxes_) {
    if (!box.empty()) {
      // Anything posted since the last barrier was posted at or after the
      // fence, so injecting against the current fence is safe.
      inject_outboxes(fence_us_);
      return;
    }
  }
}

std::size_t ShardedSimulator::run_windows(std::optional<std::int64_t> end_us) {
  drain_pending_posts();
  std::size_t executed = 0;
  for (;;) {
    const auto next = min_next_event_us();
    if (!next || (end_us && *next > *end_us)) break;
    // Jump over any empty stretch (profiling reads fence_us_ as the window
    // start), then fence at the earliest instant a cross-shard send from
    // any pending cascade could arrive.  min(at + bound) > min(at) because
    // every bound is positive, so the window always contains the next
    // event and the loop makes progress.  Both rules depend only on the
    // (time, bound) pairs of the pending events — partition-invariant.
    if (*next > fence_us_) fence_us_ = *next;
    const auto constraint = min_next_constraint_us();
    RDP_CHECK(constraint.has_value(), "pending event without a constraint");
    const std::int64_t window_end =
        end_us ? std::min(*constraint, *end_us + 1) : *constraint;
    executed += run_window(SimTime::from_micros(window_end - 1));
    fence_us_ = window_end;
    barrier(fence_us_);
  }
  return executed;
}

std::size_t ShardedSimulator::run_until(SimTime until) {
  RDP_CHECK(until >= now_, "cannot run into the past");
  const std::int64_t end_us = until.count_micros();
  const std::size_t executed = run_windows(end_us);
  // Advance every clock to the bound (no events in between by now).
  for (auto& shard : shards_) shard->run_until(until);
  if (fence_us_ <= end_us) fence_us_ = end_us + 1;
  now_ = until;
  return executed;
}

std::size_t ShardedSimulator::run() {
  const std::size_t executed = run_windows(std::nullopt);
  SimTime latest = now_;
  for (const auto& shard : shards_) latest = std::max(latest, shard->now());
  now_ = latest;
  return executed;
}

std::size_t ShardedSimulator::executed_events() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->executed_events();
  return total;
}

std::size_t ShardedSimulator::pending_events() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_events();
  return total;
}

}  // namespace rdp::sim
