// Vector clocks for the causal tests (the causal layer keeps its own
// SENT/DELIV state).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace rdp::causal {

class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t n) : counts_(n, 0) {}

  [[nodiscard]] std::size_t size() const { return counts_.size(); }

  void ensure_size(std::size_t n) {
    if (counts_.size() < n) counts_.resize(n, 0);
  }

  [[nodiscard]] std::uint64_t at(std::size_t i) const {
    return i < counts_.size() ? counts_[i] : 0;
  }

  void tick(std::size_t i) {
    ensure_size(i + 1);
    ++counts_[i];
  }

  void merge(const VectorClock& other) {
    ensure_size(other.size());
    for (std::size_t i = 0; i < other.size(); ++i) {
      counts_[i] = std::max(counts_[i], other.counts_[i]);
    }
  }

  // True if *this happened-before `other` (strictly less on at least one
  // component, less-or-equal on all).
  [[nodiscard]] bool happens_before(const VectorClock& other) const {
    bool strictly_less = false;
    const std::size_t n = std::max(size(), other.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (at(i) > other.at(i)) return false;
      if (at(i) < other.at(i)) strictly_less = true;
    }
    return strictly_less;
  }

  [[nodiscard]] bool concurrent_with(const VectorClock& other) const {
    return !happens_before(other) && !other.happens_before(*this) &&
           !(*this == other);
  }

  friend bool operator==(const VectorClock& a, const VectorClock& b) {
    const std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a.at(i) != b.at(i)) return false;
    }
    return true;
  }

  [[nodiscard]] std::string str() const {
    std::string out = "[";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(counts_[i]);
    }
    return out + "]";
  }

 private:
  std::vector<std::uint64_t> counts_;
};

}  // namespace rdp::causal
