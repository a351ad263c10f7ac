#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>

#include "obs/event_names.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "sim/sharded_simulator.h"

namespace rdp::obs {
namespace {

// Allocation-hook arming flag.  Relaxed is enough: the hook only reads the
// calling thread's own tls_accumulator, and arming happens before any
// instrumented run starts (the run's thread-pool handoff provides the
// ordering).
std::atomic<bool> g_alloc_tracking{false};

}  // namespace

Profiler::Profiler() = default;

Profiler::~Profiler() {
  if (alloc_tracking_) g_alloc_tracking.store(false, std::memory_order_relaxed);
}

prof::Accumulator* Profiler::accumulator(int index) {
  for (auto& [id, acc] : accumulators_) {
    if (id == index) return acc.get();
  }
  accumulators_.emplace_back(index, std::make_unique<prof::Accumulator>());
  return accumulators_.back().second.get();
}

void Profiler::enable_alloc_tracking() {
  alloc_tracking_ = true;
  g_alloc_tracking.store(true, std::memory_order_relaxed);
}

void Profiler::ingest_shard_stats(const sim::ShardedSimulator& sharded) {
  const sim::ShardedSimulator::ProfStats& stats = sharded.prof_stats();
  shard_rows_.clear();
  for (std::size_t i = 0; i < stats.busy_ns.size(); ++i) {
    ProfShardRow row;
    row.shard = static_cast<int>(i);
    row.busy_ns = stats.busy_ns[i];
    row.stall_ns = stats.stall_ns[i];
    shard_rows_.push_back(row);
  }
  windows_ = stats.windows;
  window_width_us_log2_ = stats.window_width_us_log2;
  outbox_drain_log2_ = stats.outbox_drain_log2;
  window_records_.clear();
  window_records_.reserve(stats.windows_sample.size());
  for (const sim::ShardedSimulator::ProfStats::Window& w :
       stats.windows_sample) {
    WindowRecord record;
    record.shard = w.shard;
    record.begin_us = w.begin_us;
    record.end_us = w.end_us;
    record.busy_ns = w.busy_ns;
    record.stall_ns = w.stall_ns;
    window_records_.push_back(record);
  }
}

std::string Profiler::domain_label(int domain) {
  if (domain < static_cast<int>(prof::Domain::kCount)) {
    return domain_name(static_cast<std::size_t>(domain));
  }
  return std::string("hook:") +
         hook_name(static_cast<std::size_t>(
             domain - static_cast<int>(prof::Domain::kCount)));
}

double Profiler::ns_per_tick() {
  if (prof::g_tick != &prof::default_tick) return 1.0;
#if defined(RDP_PROF_HAS_RDTSC)
  // Calibrate the TSC against steady_clock once; ~2 ms of spin gives a
  // ratio good to well under 1%.
  static const double ratio = [] {
    const auto wall0 = std::chrono::steady_clock::now();
    const std::uint64_t tick0 = prof::default_tick();
    while (std::chrono::steady_clock::now() - wall0 <
           std::chrono::milliseconds(2)) {
    }
    const std::uint64_t tick1 = prof::default_tick();
    const auto wall1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(wall1 - wall0).count();
    return tick1 > tick0 ? ns / static_cast<double>(tick1 - tick0) : 1.0;
  }();
  return ratio;
#else
  using Period = std::chrono::steady_clock::period;
  return 1e9 * static_cast<double>(Period::num) /
         static_cast<double>(Period::den);
#endif
}

namespace {

// Merge `src` (subtree at src_node) into `dst` under dst_parent, summing
// counters path-by-path.  Deterministic: children are visited in creation
// order, and find_or_add_child keeps first-seen order stable.
void merge_subtree(const prof::Accumulator& src, std::int32_t src_node,
                   prof::Accumulator& dst, std::int32_t dst_node) {
  const std::vector<prof::PathNode>& nodes = src.nodes();
  for (std::int32_t child = nodes[src_node].first_child; child >= 0;
       child = nodes[child].next_sibling) {
    const std::int32_t merged =
        dst.find_or_add_child(dst_node, nodes[child].domain);
    prof::PathNode& out = dst.nodes()[merged];
    out.count += nodes[child].count;
    out.ticks += nodes[child].ticks;
    out.alloc_count += nodes[child].alloc_count;
    out.alloc_bytes += nodes[child].alloc_bytes;
    merge_subtree(src, child, dst, merged);
  }
}

// Self ticks of a node: inclusive minus the children's inclusive, clamped
// (a child's rdtsc window can slightly overhang its parent's).
[[nodiscard]] std::uint64_t self_ticks(const std::vector<prof::PathNode>& nodes,
                                       std::int32_t index) {
  std::uint64_t children = 0;
  for (std::int32_t child = nodes[index].first_child; child >= 0;
       child = nodes[child].next_sibling) {
    children += nodes[child].ticks;
  }
  const std::uint64_t incl = nodes[index].ticks;
  return incl > children ? incl - children : 0;
}

void write_folded_subtree(std::ostream& os,
                          const std::vector<prof::PathNode>& nodes,
                          std::int32_t index, const std::string& prefix,
                          double nspt) {
  const std::string frame =
      index == 0 ? std::string("rdp")
                 : prefix + ";" + Profiler::domain_label(nodes[index].domain);
  const auto self_ns = static_cast<std::uint64_t>(
      static_cast<double>(self_ticks(nodes, index)) * nspt);
  if (self_ns > 0) os << frame << " " << self_ns << "\n";
  // Children in ascending domain order so the output is stable across
  // first-visit order differences.
  std::vector<std::int32_t> children;
  for (std::int32_t child = nodes[index].first_child; child >= 0;
       child = nodes[child].next_sibling) {
    children.push_back(child);
  }
  std::sort(children.begin(), children.end(),
            [&](std::int32_t a, std::int32_t b) {
              return nodes[a].domain < nodes[b].domain;
            });
  for (const std::int32_t child : children) {
    write_folded_subtree(os, nodes, child, frame, nspt);
  }
}

}  // namespace

ProfileReport Profiler::report() const {
  // Merge every accumulator (shards in index order, control last) into one
  // tree.
  std::vector<std::pair<int, const prof::Accumulator*>> sources;
  for (const auto& [id, acc] : accumulators_) {
    sources.emplace_back(id, acc.get());
  }
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  prof::Accumulator merged;
  for (const auto& [id, acc] : sources) {
    merge_subtree(*acc, 0, merged, 0);
  }

  const double nspt = ns_per_tick();
  std::vector<ProfDomainRow> rows(prof::kDomainIdCount);
  const std::vector<prof::PathNode>& nodes = merged.nodes();
  for (std::int32_t i = 1; i < static_cast<std::int32_t>(nodes.size()); ++i) {
    const prof::PathNode& node = nodes[i];
    if (node.domain < 0 || node.domain >= prof::kDomainIdCount) continue;
    ProfDomainRow& row = rows[static_cast<std::size_t>(node.domain)];
    row.self_ns += static_cast<std::uint64_t>(
        static_cast<double>(self_ticks(nodes, i)) * nspt);
    row.incl_ns +=
        static_cast<std::uint64_t>(static_cast<double>(node.ticks) * nspt);
    row.count += node.count;
    row.alloc_count += node.alloc_count;
    row.alloc_bytes += node.alloc_bytes;
  }

  ProfileReport out;
  for (int d = 0; d < prof::kDomainIdCount; ++d) {
    ProfDomainRow& row = rows[static_cast<std::size_t>(d)];
    if (row.count == 0 && row.alloc_count == 0) continue;
    row.domain = d;
    row.name = domain_label(d);
    out.total_self_ns += row.self_ns;
    out.total_alloc_count += row.alloc_count;
    out.total_alloc_bytes += row.alloc_bytes;
    out.domains.push_back(std::move(row));
  }
  std::stable_sort(out.domains.begin(), out.domains.end(),
                   [](const ProfDomainRow& a, const ProfDomainRow& b) {
                     return a.self_ns > b.self_ns;
                   });
  std::uint64_t top10 = 0;
  for (std::size_t i = 0; i < out.domains.size() && i < 10; ++i) {
    top10 += out.domains[i].self_ns;
  }
  out.top10_share = out.total_self_ns > 0
                        ? static_cast<double>(top10) /
                              static_cast<double>(out.total_self_ns)
                        : 1.0;

  out.shards = shard_rows_;
  out.windows = windows_;
  out.window_width_us_log2 = window_width_us_log2_;
  out.outbox_drain_log2 = outbox_drain_log2_;
  return out;
}

bool Profiler::write_folded(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<std::pair<int, const prof::Accumulator*>> sources;
  for (const auto& [id, acc] : accumulators_) {
    sources.emplace_back(id, acc.get());
  }
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  prof::Accumulator merged;
  for (const auto& [id, acc] : sources) {
    merge_subtree(*acc, 0, merged, 0);
  }
  write_folded_subtree(out, merged.nodes(), 0, "", ns_per_tick());
  return static_cast<bool>(out);
}

void Profiler::export_metrics(MetricsRegistry& registry) const {
  const ProfileReport rep = report();
  for (const ProfDomainRow& row : rep.domains) {
    const Labels labels = {{"domain", row.name}};
    registry.gauge("rdp.prof.self_ns", labels)
        .set(static_cast<double>(row.self_ns));
    registry.gauge("rdp.prof.incl_ns", labels)
        .set(static_cast<double>(row.incl_ns));
    registry.gauge("rdp.prof.count", labels)
        .set(static_cast<double>(row.count));
    if (row.alloc_count > 0) {
      registry.gauge("rdp.prof.alloc_count", labels)
          .set(static_cast<double>(row.alloc_count));
      registry.gauge("rdp.prof.alloc_bytes", labels)
          .set(static_cast<double>(row.alloc_bytes));
    }
  }
  registry.gauge("rdp.prof.total_self_ns")
      .set(static_cast<double>(rep.total_self_ns));
  registry.gauge("rdp.prof.top10_share").set(rep.top10_share);
  for (const ProfShardRow& row : rep.shards) {
    const Labels labels = {{"shard", std::to_string(row.shard)}};
    registry.gauge("rdp.prof.shard.busy_ns", labels)
        .set(static_cast<double>(row.busy_ns));
    registry.gauge("rdp.prof.shard.stall_ns", labels)
        .set(static_cast<double>(row.stall_ns));
  }
  if (rep.windows > 0) {
    registry.gauge("rdp.prof.windows").set(static_cast<double>(rep.windows));
    for (std::size_t i = 0; i < rep.window_width_us_log2.size(); ++i) {
      if (rep.window_width_us_log2[i] == 0) continue;
      registry
          .gauge("rdp.prof.window_width_us_log2",
                 {{"bucket", std::to_string(i)}})
          .set(static_cast<double>(rep.window_width_us_log2[i]));
    }
    for (std::size_t i = 0; i < rep.outbox_drain_log2.size(); ++i) {
      if (rep.outbox_drain_log2[i] == 0) continue;
      registry
          .gauge("rdp.prof.outbox_drain_log2",
                 {{"bucket", std::to_string(i)}})
          .set(static_cast<double>(rep.outbox_drain_log2[i]));
    }
  }
}

void Profiler::emit_trace_spans(SpanTracer& tracer) const {
  for (const WindowRecord& record : window_records_) {
    SpanTracer::ExternalSpan span;
    span.track = "profiler";
    span.tid = record.shard;
    span.name = "window";
    span.begin = common::SimTime::from_micros(record.begin_us);
    span.end = common::SimTime::from_micros(record.end_us);
    span.args.emplace_back("busy_ns", std::to_string(record.busy_ns));
    span.args.emplace_back("stall_ns", std::to_string(record.stall_ns));
    tracer.add_external_span(std::move(span));
  }
}

}  // namespace rdp::obs

// --- global allocation hook -------------------------------------------------
//
// Compiled in only with RDP_PROFILE; armed only while a Profiler with
// enable_alloc_tracking() is alive, and charging only threads that have an
// active accumulator — so the steady-state cost for everyone else is one
// relaxed atomic load per allocation.  All forms forward to malloc/free
// (what the default operator new does), so mixing with code compiled
// against the default operators is safe.
//
// Under ASan/TSan the replacement is compiled out: the sanitizers' own
// new/delete interceptors provide the alloc/dealloc type checks CI relies
// on, and the hook would shadow them.  Alloc attribution reads zero there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RDP_PROF_NO_ALLOC_HOOK 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RDP_PROF_NO_ALLOC_HOOK 1
#endif
#endif

#if defined(RDP_PROFILE) && !defined(RDP_PROF_NO_ALLOC_HOOK)

namespace {

inline void rdp_prof_charge(std::size_t size) {
  if (!rdp::obs::g_alloc_tracking.load(std::memory_order_relaxed)) return;
  rdp::obs::prof::Accumulator* acc = rdp::obs::prof::tls_accumulator;
  if (acc != nullptr) acc->charge_alloc(size);
}

inline void* rdp_prof_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  rdp_prof_charge(size);
  return p;
}

inline void* rdp_prof_alloc_aligned(std::size_t size, std::size_t align) {
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  rdp_prof_charge(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return rdp_prof_alloc(size); }
void* operator new[](std::size_t size) { return rdp_prof_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) rdp_prof_charge(size);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return rdp_prof_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return rdp_prof_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p != nullptr) rdp_prof_charge(size);
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return operator new(size, align, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // RDP_PROFILE
