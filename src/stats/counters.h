// Counter registry and keyed tallies for experiment metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flat_map.h"

namespace rdp::stats {

// A named-counter registry.  Uses std::map so snapshots iterate in a
// deterministic order (important for golden-output tests).
class CounterRegistry {
 public:
  CounterRegistry() = default;
  // A copy shares no cache entries: they point into the source's map.
  CounterRegistry(const CounterRegistry& other) : counters_(other.counters_) {}
  CounterRegistry& operator=(const CounterRegistry& other) {
    counters_ = other.counters_;
    by_literal_ = {};
    return *this;
  }
  CounterRegistry(CounterRegistry&&) = default;
  CounterRegistry& operator=(CounterRegistry&&) = default;

  void increment(const std::string& name, std::uint64_t by = 1) {
    counters_[name] += by;
  }
  // The hot path for `increment("literal")`: the counter's address is
  // cached by the name's pointer, so a repeat costs one hash probe and
  // builds no string.  `name` must be a string literal (or otherwise
  // outlive the registry and never change).
  void increment(const char* name, std::uint64_t by = 1) {
    const auto key = reinterpret_cast<std::uintptr_t>(name);
    auto [counter, fresh] = by_literal_.try_emplace(key);
    if (fresh) *counter = &counters_[name];
    **counter += by;
  }

  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }

  void reset() {
    counters_.clear();
    by_literal_ = {};
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  common::FlatMap<std::uint64_t*> by_literal_;
};

// Per-key tally, e.g. proxies hosted per Mss for the load-balance study.
template <typename Key>
class Tally {
 public:
  void add(const Key& key, std::uint64_t by = 1) { counts_[key] += by; }

  [[nodiscard]] std::uint64_t get(const Key& key) const {
    auto it = counts_.find(key);
    return it == counts_.end() ? 0 : it->second;
  }

  [[nodiscard]] const std::map<Key, std::uint64_t>& all() const {
    return counts_;
  }

  [[nodiscard]] std::vector<double> values() const {
    std::vector<double> out;
    out.reserve(counts_.size());
    for (const auto& [key, count] : counts_) {
      out.push_back(static_cast<double>(count));
    }
    return out;
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& [key, count] : counts_) sum += count;
    return sum;
  }

  void reset() { counts_.clear(); }

 private:
  std::map<Key, std::uint64_t> counts_;
};

}  // namespace rdp::stats
