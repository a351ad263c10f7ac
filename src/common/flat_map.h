// Open-addressing hash map from a 64-bit key to a small value.
//
// Linear probing over a power-of-two table kept at most half full.  find()
// and updates of present keys never allocate; an insert allocates only when
// the table doubles, so over a long run the per-insert cost is amortized
// to nothing.  Built for bookkeeping that only grows during a run (seen
// request ids, per-request timestamps, type and name caches), so there is
// no erase.  Keys are packed ids (RequestId::packed()) or addresses; the
// all-ones key is reserved to mark empty slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace rdp::common {

// Value type of a FlatMap used as a set; takes no space in a slot.
struct NoValue {};

template <typename V>
class FlatMap {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  [[nodiscard]] const V* find(std::uint64_t key) const {
    if (slots_.empty() || key == kEmpty) return nullptr;
    const Slot& slot = slots_[probe(key)];
    return slot.key == key ? &slot.value : nullptr;
  }
  [[nodiscard]] V* find(std::uint64_t key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != nullptr;
  }

  // The value stored for `key`, default-constructed and inserted when
  // absent; `.second` tells whether it was inserted.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    RDP_CHECK(key != kEmpty, "the all-ones FlatMap key is reserved");
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = slots_[probe(key)];
    if (slot.key == key) return {&slot.value, false};
    slot.key = key;
    ++size_;
    return {&slot.value, true};
  }
  // Set-style insert: true when `key` was not present yet.
  bool insert(std::uint64_t key) { return try_emplace(key).second; }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    [[no_unique_address]] V value{};
  };

  static std::uint64_t mix(std::uint64_t key) {
    // splitmix64 finalizer: spreads sequential ids and aligned addresses.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    return key ^ (key >> 31);
  }

  // Index of the slot holding `key`, or of the empty slot where it would
  // go.  The table must be allocated (and is never full).
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (slots_[i].key != kEmpty && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) slots_[probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace rdp::common
