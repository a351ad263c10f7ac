// Size-class slab pool for hot-path heap objects (messages, most of all).
//
// The steady-state wireless delivery path allocates a handful of small,
// short-lived objects per event — payload + shared_ptr control block being
// the unavoidable ones — and general-purpose malloc was the single largest
// per-event cost at scale.  This pool carves never-freed slabs into fixed
// size classes and recycles blocks through per-thread magazines:
//
//   * allocate: pop from the thread's magazine (no lock, no syscall); an
//     empty magazine refills a batch from the global depot under a mutex;
//     an empty depot carves a fresh 64 KiB slab.
//   * deallocate: push onto the freeing thread's magazine; an overfull
//     magazine flushes half back to the depot, so blocks freed on a
//     different thread than they were allocated on circulate freely.
//
// Slabs are intentionally leaked (the depot lives until process exit):
// the pool backs objects that can outlive any subsystem, and returning
// address space to the OS buys nothing for a batch simulator.
//
// Determinism contract: the pool affects only WHERE objects live, never
// any simulation decision, so results are bit-identical with the pool in
// use or bypassed.  Under ASan/TSan the pool passes straight through to
// operator new/delete — pooling would blind the sanitizers to
// use-after-free and data races on recycled blocks (same detection dance
// as RDP_PROF_NO_ALLOC_HOOK in obs/profiler.cc).
#pragma once

#include <cstddef>
#include <mutex>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RDP_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RDP_POOL_PASSTHROUGH 1
#endif
#endif

namespace rdp::common::pool {

// Every class size is a multiple of 16, so any block is 16-aligned as long
// as slabs are (operator new guarantees max_align_t).  Requests above the
// largest class — or needing stronger alignment — fall through to plain
// operator new.  The classes above 512 B serve the causal layer's
// piggyback buffers (causal/causal_layer.h).
inline constexpr std::size_t kClassSizes[] = {
    32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096};
inline constexpr int kClassCount =
    static_cast<int>(sizeof(kClassSizes) / sizeof(kClassSizes[0]));
inline constexpr std::size_t kMaxPooled = kClassSizes[kClassCount - 1];
inline constexpr std::size_t kMaxAlign = 16;
inline constexpr std::size_t kSlabBytes = 64 * 1024;
inline constexpr std::size_t kMagazineCap = 64;
inline constexpr std::size_t kRefillBatch = 32;

[[nodiscard]] constexpr int class_of(std::size_t bytes) {
  for (int c = 0; c < kClassCount; ++c) {
    if (bytes <= kClassSizes[c]) return c;
  }
  return -1;
}

#if !defined(RDP_POOL_PASSTHROUGH)

// Global free lists, shared by all threads.  Touched only on magazine
// refill/flush (once per kRefillBatch operations), so the mutex is cold.
struct Depot {
  std::mutex mu;
  std::vector<void*> free_blocks[kClassCount];
};

inline Depot& depot() {
  static Depot* d = new Depot;  // leaked: outlives TLS magazine destructors
  return *d;
}

// Per-thread block caches.  On thread exit everything drains back to the
// depot, so short-lived threads (tests spin up worker pools repeatedly)
// don't strand blocks.
struct Magazine {
  std::vector<void*> free_blocks[kClassCount];

  ~Magazine() {
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    for (int c = 0; c < kClassCount; ++c) {
      auto& mine = free_blocks[c];
      d.free_blocks[c].insert(d.free_blocks[c].end(), mine.begin(),
                              mine.end());
    }
  }
};

inline Magazine& magazine() {
  thread_local Magazine m;
  return m;
}

inline void refill(int cls, std::vector<void*>& mag) {
  Depot& d = depot();
  {
    std::lock_guard<std::mutex> lock(d.mu);
    auto& global = d.free_blocks[cls];
    const std::size_t take =
        global.size() < kRefillBatch ? global.size() : kRefillBatch;
    if (take > 0) {
      mag.insert(mag.end(), global.end() - static_cast<std::ptrdiff_t>(take),
                 global.end());
      global.resize(global.size() - take);
      return;
    }
  }
  // Depot dry: carve a fresh slab, keep one refill batch here and park the
  // rest in the depot.  The slab pointer itself is never stored — blocks
  // circulate forever.
  const std::size_t block = kClassSizes[cls];
  char* slab = static_cast<char*>(::operator new(kSlabBytes));
  std::size_t off = 0;
  for (std::size_t i = 0; i < kRefillBatch && off + block <= kSlabBytes;
       ++i, off += block) {
    mag.push_back(slab + off);
  }
  std::lock_guard<std::mutex> lock(d.mu);
  for (; off + block <= kSlabBytes; off += block) {
    d.free_blocks[cls].push_back(slab + off);
  }
}

#endif  // !RDP_POOL_PASSTHROUGH

inline void* allocate(std::size_t bytes) {
#if defined(RDP_POOL_PASSTHROUGH)
  return ::operator new(bytes);
#else
  const int cls = class_of(bytes);
  if (cls < 0) return ::operator new(bytes);
  auto& mag = magazine().free_blocks[cls];
  if (mag.empty()) refill(cls, mag);
  void* p = mag.back();
  mag.pop_back();
  return p;
#endif
}

inline void deallocate(void* p, [[maybe_unused]] std::size_t bytes) {
#if defined(RDP_POOL_PASSTHROUGH)
  ::operator delete(p);
#else
  const int cls = class_of(bytes);
  if (cls < 0) {
    ::operator delete(p);
    return;
  }
  auto& mag = magazine().free_blocks[cls];
  mag.push_back(p);
  if (mag.size() > kMagazineCap) {
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    const std::size_t keep = kMagazineCap / 2;
    d.free_blocks[cls].insert(d.free_blocks[cls].end(), mag.begin() + keep,
                              mag.end());
    mag.resize(keep);
  }
#endif
}

}  // namespace rdp::common::pool

namespace rdp::common {

// Minimal std allocator over the pool, for std::allocate_shared — the
// payload and its control block land in one pooled block.  Over-aligned
// types bypass the pool (blocks guarantee 16 bytes only).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(google-explicit-*)

  [[nodiscard]] T* allocate(std::size_t n) {
    if (alignof(T) > pool::kMaxAlign) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    }
    return static_cast<T*>(pool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    if (alignof(T) > pool::kMaxAlign) {
      ::operator delete(p, std::align_val_t(alignof(T)));
      return;
    }
    pool::deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }
};

}  // namespace rdp::common
