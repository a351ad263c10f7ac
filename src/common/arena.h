// Bump arena with epoch reset.
//
// allocate() bumps a cursor through a chain of fixed-size blocks; reset()
// rewinds the cursor to the first block WITHOUT freeing anything, so after
// the first few epochs have grown the chain to its high-water mark, every
// later epoch allocates nothing from the system.  The intended shape is
// per-epoch scratch whose lifetime ends at a known barrier — e.g. a
// shard's window-scoped buffers, reset when the window's records have been
// merged — not long-lived objects (nothing is ever destructed; the arena
// hands out raw bytes).
//
// Not thread-safe: one arena per owning thread/shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace rdp::common {

class BumpArena {
 public:
  explicit BumpArena(std::size_t block_bytes = 64 * 1024)
      : block_bytes_(block_bytes) {}

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  // Aligned raw bytes valid until the next reset().  Requests larger than
  // the block size get a dedicated oversize block (kept and reused across
  // epochs like any other block).
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    for (;; ++block_, offset_ = 0) {
      if (block_ == blocks_.size()) {
        // Chain a fresh block sized for the request.  Blocks are only
        // max-aligned, so an over-aligned request reserves room to pad.
        const std::size_t pad =
            align > alignof(std::max_align_t) ? align - 1 : 0;
        const std::size_t size =
            bytes + pad > block_bytes_ ? bytes + pad : block_bytes_;
        Block b;
        b.data.reset(static_cast<char*>(::operator new(
            size, std::align_val_t(alignof(std::max_align_t)))));
        b.size = size;
        blocks_.push_back(std::move(b));
      }
      Block& b = blocks_[block_];
      const std::uintptr_t base =
          reinterpret_cast<std::uintptr_t>(b.data.get());
      const std::uintptr_t aligned = (base + offset_ + align - 1) & ~(align - 1);
      const std::size_t new_offset = (aligned - base) + bytes;
      if (new_offset <= b.size) {
        offset_ = new_offset;
        return reinterpret_cast<void*>(aligned);
      }
    }
  }

  // Typed convenience: uninitialized storage for `n` objects of T.
  template <typename T>
  [[nodiscard]] T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  // Epoch reset: every previously returned pointer is invalid, every block
  // is retained.  O(1).
  void reset() {
    block_ = 0;
    offset_ = 0;
  }

  [[nodiscard]] std::size_t blocks() const { return blocks_.size(); }
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct AlignedDelete {
    void operator()(char* p) const {
      ::operator delete(p, std::align_val_t(alignof(std::max_align_t)));
    }
  };
  struct Block {
    std::unique_ptr<char, AlignedDelete> data;
    std::size_t size = 0;
  };

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // index of the block the cursor is in
  std::size_t offset_ = 0;  // bytes used in blocks_[block_]
};

}  // namespace rdp::common
