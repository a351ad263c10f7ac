// Dependency-free probe layer for the instrumentation profiler
// (docs/PROTOCOL.md §13).
//
// This header is the one piece of the profiler that the rest of the stack
// includes — sim, net, causal, core, arq, replication all place probes, and
// none of them may depend on rdp_obs — so it uses nothing beyond the
// standard library and defines everything inline.  Management, merging,
// rollup and export live in obs/profiler.{h,cc}.
//
// Model: a probe names a *domain* (a coarse subsystem: kernel dispatch, the
// wired network, one observer hook kind, ...).  At runtime the active
// probes on a thread form a stack, and the profiler accumulates time into a
// tree of domain *paths* — "kernel → net.wired → codec.encode" is a
// different node than "kernel → analyzer → codec.encode" — which is exactly
// the shape a collapsed-stack flamegraph wants.  Each thread (in practice:
// each shard, since a shard is single-threaded within a window and handed
// off with a happens-before edge at the barrier) owns an Accumulator;
// nothing here takes a lock or touches shared state.
//
// Determinism contract: probes read the wall clock and write only profiler
// state.  No simulation decision ever depends on a probe, so results are
// bit-identical with profiling on, off, or compiled out.
//
// Compile-out: RDP_PROF_SCOPE expands to nothing unless RDP_PROFILE is
// defined (CMake option, default ON).  With RDP_PROFILE defined but no
// accumulator installed on the thread (the default at runtime), a probe is
// one thread-local load and a predictable branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(RDP_PROFILE) && (defined(__x86_64__) || defined(_M_X64))
#include <x86intrin.h>
#define RDP_PROF_HAS_RDTSC 1
#else
#include <chrono>
#endif

namespace rdp::obs::prof {

// Static profiler domains.  Keep obs/event_names.h `kDomainNames` in sync —
// a static_assert there makes a missing name a compile error.
enum class Domain : int {
  kRoot = 0,      // implicit top of every stack
  kKernel,        // sim::Simulator event dispatch
  kTimerSlab,     // slab slot acquire/release + queue push, bucket moves
  kNetWired,      // net::WiredNetwork send/deliver
  kNetWireless,   // net::WirelessChannel uplink/downlink/deliver
  kCausal,        // causal::CausalLayer send/deliver/buffering
  kArq,           // arq sender/receiver paths
  kCore,          // Mss / server / Mh protocol handlers (wired + radio)
  kReplication,   // replication delta shipping / promotion
  kMembership,    // membership probing / departure / ring repair
  kHookFanout,    // barrier-time observer-buffer replay (ShardTapMerger)
  kAnalyzer,      // analyzer wire tap + self-decode
  kLedger,        // cost ledger byte/energy accounting
  kCodecEncode,   // core codec encode
  kCodecDecode,   // core codec decode
  kOutboxDrain,   // sharded kernel: canonical sort + injection at barriers
  kBarrierWait,   // sharded kernel: time a shard sat stalled at the barrier
  kCount,
};

// Per-HookKind domains follow the static block: domain id
// (int)Domain::kCount + hook_index.  The count is mirrored here (instead of
// including core/events.h) to keep this header dependency-free;
// obs/event_names.h static_asserts it against core::RdpObserver::kHookCount.
inline constexpr int kHookDomainCount = 28;
inline constexpr int kDomainIdCount =
    static_cast<int>(Domain::kCount) + kHookDomainCount;

[[nodiscard]] constexpr int domain_id(Domain d) { return static_cast<int>(d); }
[[nodiscard]] constexpr int hook_domain(int hook_index) {
  return static_cast<int>(Domain::kCount) + hook_index;
}

// Raw timestamp.  On x86-64 with profiling compiled in this is rdtsc
// (~7 ns, monotonic-enough on any invariant-TSC host, which is every host
// this repo targets); elsewhere steady_clock.  Tests inject a fake via
// set_tick_source to make rollup arithmetic exact.  Values are opaque
// "ticks"; obs/profiler.cc calibrates ticks-per-ns once at export.
using TickFn = std::uint64_t (*)();

[[nodiscard]] inline std::uint64_t default_tick() {
#if defined(RDP_PROF_HAS_RDTSC)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline TickFn g_tick = &default_tick;
inline void set_tick_source(TickFn fn) { g_tick = fn ? fn : &default_tick; }

// One node of the domain-path tree.  `ticks` is *inclusive* (the probe's
// whole scope, children included); self time is derived at rollup as
// inclusive minus the children's inclusive.  Allocation counts are charged
// to the node active when operator new runs (obs/profiler.cc installs the
// hook).
struct PathNode {
  std::int32_t parent = -1;
  std::int32_t domain = 0;
  std::int32_t first_child = -1;
  std::int32_t next_sibling = -1;
  std::uint64_t count = 0;
  std::uint64_t ticks = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
};

// A per-thread (per-shard) accumulation tree.  Node 0 is the root.  The
// structure is tiny — one node per distinct path, a few dozen in practice —
// so child lookup is a linear sibling scan.
class Accumulator {
 public:
  Accumulator() { nodes_.push_back(PathNode{}); }

  // Child of `parent` for `domain`, created on first visit.
  std::int32_t find_or_add_child(std::int32_t parent, int domain) {
    std::int32_t child = nodes_[parent].first_child;
    while (child >= 0) {
      if (nodes_[child].domain == domain) return child;
      child = nodes_[child].next_sibling;
    }
    child = static_cast<std::int32_t>(nodes_.size());
    PathNode node;
    node.parent = parent;
    node.domain = domain;
    node.next_sibling = nodes_[parent].first_child;
    nodes_.push_back(node);  // may reallocate: take refs after this line
    nodes_[parent].first_child = child;
    return child;
  }

  // Descend from the current node into `domain` (creating the child on
  // first visit) and make it current.  Returns the node index.
  std::int32_t enter(int domain) {
    current_ = find_or_add_child(current_, domain);
    return current_;
  }

  void exit_to(std::int32_t parent) { current_ = parent; }

  [[nodiscard]] std::int32_t current() const { return current_; }
  [[nodiscard]] const std::vector<PathNode>& nodes() const { return nodes_; }
  [[nodiscard]] std::vector<PathNode>& nodes() { return nodes_; }

  void charge_alloc(std::size_t bytes) {
    PathNode& node = nodes_[current_];
    node.alloc_count += 1;
    node.alloc_bytes += bytes;
  }

  // Add `n` to the current node's invocation count.  Lets batch-shaped
  // scopes (one probe around N logical operations, e.g. the barrier-time
  // hook replay) report per-operation counts instead of per-batch.
  void add_count(std::uint64_t n) { nodes_[current_].count += n; }

 private:
  std::vector<PathNode> nodes_;
  std::int32_t current_ = 0;
};

// The accumulator the current thread charges probes (and allocations) to;
// null — the default — makes every probe a no-op.  sim::Simulator installs
// a shard's accumulator for the duration of its run_until slice, so worker
// threads that execute several shards charge each shard's work to that
// shard's own tree, and the window barrier's happens-before edge makes the
// trees safe to merge single-threaded afterwards.
inline thread_local Accumulator* tls_accumulator = nullptr;

[[nodiscard]] inline Accumulator* exchange_accumulator(Accumulator* next) {
  Accumulator* prev = tls_accumulator;
  tls_accumulator = next;
  return prev;
}

// RAII probe: descend into `domain` on entry, charge elapsed inclusive
// ticks and pop on exit.  Cheap enough for per-event hot paths when armed;
// one TLS load + branch when not.
//
// The NoCount variant charges time but not an invocation — for batch
// scopes that report their true operation count via Accumulator::
// add_count (e.g. the hook-replay flush charges one count per replayed
// record, not one per barrier).
struct NoCountTag {};
inline constexpr NoCountTag kNoCount{};

class ScopedProbe {
 public:
  explicit ScopedProbe(int domain) {
    Accumulator* acc = tls_accumulator;
    if (acc == nullptr) return;
    acc_ = acc;
    parent_ = acc->current();
    node_ = acc->enter(domain);
    start_ = g_tick();
  }
  ScopedProbe(int domain, NoCountTag) : ScopedProbe(domain) {
    count_delta_ = 0;
  }
  ~ScopedProbe() {
    if (acc_ == nullptr) return;
    const std::uint64_t end = g_tick();
    PathNode& node = acc_->nodes()[node_];
    node.count += count_delta_;
    node.ticks += end - start_;
    acc_->exit_to(parent_);
  }
  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;

 private:
  Accumulator* acc_ = nullptr;
  std::int32_t parent_ = 0;
  std::int32_t node_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t count_delta_ = 1;
};

}  // namespace rdp::obs::prof

#if defined(RDP_PROFILE)
#define RDP_PROF_CONCAT_(a, b) a##b
#define RDP_PROF_CONCAT(a, b) RDP_PROF_CONCAT_(a, b)
// Time the rest of the enclosing scope under a static Domain.
#define RDP_PROF_SCOPE(domain)                                       \
  ::rdp::obs::prof::ScopedProbe RDP_PROF_CONCAT(rdp_prof_scope_,     \
                                                __LINE__) {          \
    ::rdp::obs::prof::domain_id(::rdp::obs::prof::Domain::domain)    \
  }
// Time the rest of the enclosing scope under the per-HookKind domain for
// observer hook `hook_index` (core::RdpObserver hook order).
#define RDP_PROF_HOOK_SCOPE(hook_index)                              \
  ::rdp::obs::prof::ScopedProbe RDP_PROF_CONCAT(rdp_prof_scope_,     \
                                                __LINE__) {          \
    ::rdp::obs::prof::hook_domain(hook_index)                        \
  }
// Like RDP_PROF_SCOPE but contributes no invocation count; pair with
// RDP_PROF_ADD_COUNT to report the scope's true operation count.
#define RDP_PROF_SCOPE_NOCOUNT(domain)                               \
  ::rdp::obs::prof::ScopedProbe RDP_PROF_CONCAT(rdp_prof_scope_,     \
                                                __LINE__) {          \
    ::rdp::obs::prof::domain_id(::rdp::obs::prof::Domain::domain),   \
        ::rdp::obs::prof::kNoCount                                   \
  }
// Add `n` invocations to the innermost active probe's node.
#define RDP_PROF_ADD_COUNT(n)                                        \
  do {                                                               \
    if (::rdp::obs::prof::tls_accumulator != nullptr)                \
      ::rdp::obs::prof::tls_accumulator->add_count(n);               \
  } while (0)
#else
#define RDP_PROF_SCOPE(domain) ((void)0)
#define RDP_PROF_HOOK_SCOPE(hook_index) ((void)0)
#define RDP_PROF_SCOPE_NOCOUNT(domain) ((void)0)
#define RDP_PROF_ADD_COUNT(n) ((void)0)
#endif
