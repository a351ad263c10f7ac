// Open-addressing hash map from a 64-bit key to a small value.
//
// Linear probing over a power-of-two table kept at most half full.  find(),
// erase(), clear() and updates of present keys never allocate; an insert
// allocates only when the table doubles, so over a long run the per-insert
// cost is amortized to nothing.  erase() shifts the rest of the key's
// probe run back into the hole (no tombstones), and clear() keeps the
// table.  Entries move when the table grows and on erase, so a pointer
// from find() or try_emplace() must not be held across an insert or an
// erase on the same map.  Keys are packed ids (RequestId::packed()),
// MhId values or addresses; the all-ones key is reserved to mark empty
// slots.
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
  [[nodiscard]] std::size_t size() const { return size_; }

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

  // Removes `key`; false when it was absent.
  bool erase(std::uint64_t key) {
    if (slots_.empty() || key == kEmpty) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key != key) return false;
    // Backward shift: an entry later in the run moves into the hole when
    // the hole lies between its home slot and where it sits.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; slots_[i].key != kEmpty;
         i = (i + 1) & mask) {
      const std::size_t home = mix(slots_[i].key) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Removes every key; the table keeps its size.
  void clear() {
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

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
    // Start small: some maps (one duplicate filter per mobile host) number
    // in the hundreds of thousands and mostly hold a key or two.
    std::vector<Slot> old(slots_.empty() ? 4 : 2 * slots_.size());
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.key != kEmpty) slots_[probe(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace rdp::common
