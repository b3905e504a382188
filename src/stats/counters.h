// Counter registry and keyed tallies for experiment metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rdp::stats {

// A named-counter registry.  Uses std::map so snapshots iterate in a
// deterministic order (important for golden-output tests), with a
// transparent comparator so bumping an existing counter looks it up by
// string_view and allocates nothing; only a counter's first increment
// copies its name.
class CounterRegistry {
 public:
  using Map = std::map<std::string, std::uint64_t, std::less<>>;

  void increment(std::string_view name, std::uint64_t by = 1) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      counters_.emplace(std::string(name), by);
    } else {
      it->second += by;
    }
  }

  [[nodiscard]] std::uint64_t get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  [[nodiscard]] const Map& all() const { return counters_; }

  void reset() { counters_.clear(); }

 private:
  Map counters_;
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
