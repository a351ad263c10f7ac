// Instrumentation profiler: management, merging, rollup and export for the
// probe layer in obs/perf_probe.h (docs/PROTOCOL.md §13).
//
// A Profiler owns one prof::Accumulator per shard (index == shard; single
// kernel runs use index 0) plus one "control" accumulator for the driving
// thread, which runs the window barriers: outbox drains, observer-buffer
// replay, the analyzer tap.  After the run — the worker pool's join/barrier
// edges make every tree safe to read — rollup() merges the per-shard trees
// into one, derives self time (inclusive minus children's inclusive) and
// aggregates per domain.
//
// Exports, all derived from the same rollup:
//   * export_metrics():   rdp.prof.* gauges into a MetricsRegistry, so the
//                         existing CSV/JSON paths (and their error-path
//                         contract) carry the attribution tables.
//   * write_folded():     collapsed-stack format, one "a;b;c <self-ns>"
//                         line per path — feed to flamegraph.pl.
//   * emit_trace_spans(): per-shard window busy spans (with stall args)
//                         appended to the PR 2 SpanTracer Chrome trace on a
//                         dedicated "profiler" process track.
//
// Allocation tracking: enable_alloc_tracking() arms a global operator
// new hook (profiler.cc) that charges count + bytes to the calling
// thread's active probe node.  At most one Profiler may arm it at a time.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/perf_probe.h"

namespace rdp::sim {
class ShardedSimulator;
}

namespace rdp::obs {

class MetricsRegistry;
class SpanTracer;

// One merged attribution row (aggregated over every path a domain appears
// in).  Times are nanoseconds after tick calibration.
struct ProfDomainRow {
  int domain = 0;
  std::string name;
  std::uint64_t self_ns = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t count = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
};

struct ProfShardRow {
  int shard = 0;
  std::uint64_t busy_ns = 0;   // inside Simulator::run_until over all windows
  std::uint64_t stall_ns = 0;  // window wall minus busy: barrier stall
};

struct ProfileReport {
  // Per-domain rows sorted by self time, descending.
  std::vector<ProfDomainRow> domains;
  std::uint64_t total_self_ns = 0;
  // Fraction of total_self_ns covered by the top 10 rows (1.0 when there
  // are fewer rows).
  double top10_share = 0;
  std::uint64_t total_alloc_count = 0;
  std::uint64_t total_alloc_bytes = 0;

  // Sharded-kernel stats (empty for single-kernel runs).
  std::vector<ProfShardRow> shards;
  std::uint64_t windows = 0;  // kernel windows (fences run)
  // log2-bucketed histograms: bucket i counts values in [2^i, 2^(i+1)).
  std::array<std::uint64_t, 32> window_width_us_log2{};
  std::array<std::uint64_t, 32> outbox_drain_log2{};
};

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // The accumulator for shard `index` (created on first use).  Index
  // control() is reserved for the driving thread.
  prof::Accumulator* accumulator(int index);
  prof::Accumulator* control() { return accumulator(kControlIndex); }

  // Arm the global allocation hook for this profiler's lifetime.
  void enable_alloc_tracking();

  // Pull per-window busy/stall totals, histograms and window records from a
  // finished sharded run (sim::ShardedSimulator::prof_stats()).
  void ingest_shard_stats(const sim::ShardedSimulator& sharded);

  // Merge + rollup.  Safe to call repeatedly; reads the accumulators as
  // they stand.
  [[nodiscard]] ProfileReport report() const;

  // Collapsed-stack flamegraph export; false when the path cannot be
  // opened or the write fails.
  bool write_folded(const std::string& path) const;

  // rdp.prof.* gauges/histograms into `registry` (see PROTOCOL.md §13 for
  // the schema).
  void export_metrics(MetricsRegistry& registry) const;

  // Append per-shard window spans to `tracer`'s "profiler" track.
  void emit_trace_spans(SpanTracer& tracer) const;

  // Human-readable attribution name for a domain id ("kernel",
  // "hook:result_delivered", ...).
  static std::string domain_label(int domain);

  // Calibrated wall nanoseconds per prof tick (1.0 under a fake tick
  // source installed via prof::set_tick_source).
  static double ns_per_tick();

 private:
  static constexpr int kControlIndex = 1 << 20;  // far above any shard count

  struct WindowRecord {
    int shard = 0;
    std::int64_t begin_us = 0;
    std::int64_t end_us = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t stall_ns = 0;
  };

  // index -> accumulator; sparse (control index is large), so a flat pair
  // list.
  mutable std::vector<std::pair<int, std::unique_ptr<prof::Accumulator>>>
      accumulators_;
  bool alloc_tracking_ = false;

  std::vector<ProfShardRow> shard_rows_;
  std::uint64_t windows_ = 0;
  std::array<std::uint64_t, 32> window_width_us_log2_{};
  std::array<std::uint64_t, 32> outbox_drain_log2_{};
  std::vector<WindowRecord> window_records_;
};

}  // namespace rdp::obs
