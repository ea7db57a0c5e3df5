#include "src/core/heap_profiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <utility>

namespace unifab {

ShardedTemperatureProfiler::ShardedTemperatureProfiler(const ProfilerConfig& config,
                                                       double ewma_alpha)
    : config_(config), ewma_alpha_(ewma_alpha) {
  assert(config_.shards > 0);
  shards_.resize(static_cast<std::size_t>(config_.shards));
}

void ShardedTemperatureProfiler::OnAllocate(std::uint64_t id) {
  Shard& shard = ShardOf(id);
  const std::size_t slot = SlotOf(id);
  if (slot >= shard.slots.size()) {
    shard.slots.resize(slot + 1);
  }
  Entry& entry = shard.slots[slot];
  if (!entry.live) {
    entry = Entry{0.0, 0, /*live=*/true};
    ++shard.live;
  }
}

void ShardedTemperatureProfiler::OnFree(std::uint64_t id) {
  if (Entry* entry = Find(id)) {
    *entry = Entry{};
    --ShardOf(id).live;
  }
}

void ShardedTemperatureProfiler::OnAccess(std::uint64_t id) {
  if (Entry* entry = Find(id)) {
    ++entry->pending;
  }
}

const ShardedTemperatureProfiler::Entry* ShardedTemperatureProfiler::Find(
    std::uint64_t id) const {
  const Shard& shard = shards_[id % shards_.size()];
  const std::size_t slot = SlotOf(id);
  return slot < shard.slots.size() && shard.slots[slot].live ? &shard.slots[slot] : nullptr;
}

namespace {

using Candidate = ShardedTemperatureProfiler::Candidate;

// Total candidate order: `Before` on temperature, then ascending id.
template <typename Before>
struct ByTemperatureThenId {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return a.temperature != b.temperature ? Before{}(a.temperature, b.temperature)
                                          : a.id < b.id;
  }
};

// `run` holds one shard's qualifying entries in ascending id order. Leaves
// exactly its first `k` under ByTemperatureThenId<Before>, sorted: every
// entry strictly before the k-th temperature, then the lowest-id ties at
// it. Linear apart from sorting the strictly-before part.
template <typename Before>
void KeepFirst(std::vector<Candidate>& run, std::size_t k, std::vector<double>& temps,
               std::vector<Candidate>& kept) {
  const std::size_t n = std::min(k, run.size());
  if (n == 0) {
    run.clear();
    return;
  }
  temps.clear();
  for (const Candidate& c : run) {
    temps.push_back(c.temperature);
  }
  const auto nth = temps.begin() + static_cast<std::ptrdiff_t>(n - 1);
  std::nth_element(temps.begin(), nth, temps.end(), Before{});
  const double cut = *nth;
  kept.clear();
  for (const Candidate& c : run) {
    if (Before{}(c.temperature, cut)) {
      kept.push_back(c);
    }
  }
  std::sort(kept.begin(), kept.end(), ByTemperatureThenId<Before>{});
  for (auto it = run.begin(); it != run.end() && kept.size() < n; ++it) {
    if (it->temperature == cut) {
      kept.push_back(*it);
    }
  }
  run.swap(kept);
}

// Merges the consecutive sorted runs of `v` that end at `ends` in place.
template <typename Before>
void MergeRuns(std::vector<Candidate>& v, std::vector<std::size_t> ends) {
  ends.insert(ends.begin(), 0);
  while (ends.size() > 2) {
    std::vector<std::size_t> merged = {0};
    for (std::size_t i = 2; i < ends.size(); i += 2) {
      std::inplace_merge(v.begin() + static_cast<std::ptrdiff_t>(ends[i - 2]),
                         v.begin() + static_cast<std::ptrdiff_t>(ends[i - 1]),
                         v.begin() + static_cast<std::ptrdiff_t>(ends[i]),
                         ByTemperatureThenId<Before>{});
      merged.push_back(ends[i]);
    }
    if (ends.size() % 2 == 0) {
      merged.push_back(ends.back());  // odd run count: the last run waits a round
    }
    ends.swap(merged);
  }
}

}  // namespace

std::vector<ShardedTemperatureProfiler::Candidate> ShardedTemperatureProfiler::FoldEpoch(
    std::uint64_t elapsed, double hot_threshold, double cold_threshold) {
  ++folds_;
  epoch_temperature_.Clear();
  const double idle_decay =
      std::pow(1.0 - ewma_alpha_, static_cast<double>(elapsed > 0 ? elapsed - 1 : 0));
  const std::size_t k = config_.max_candidates_per_shard;
  const std::uint64_t stride = shards_.size();

  std::vector<Candidate> hot;
  std::vector<Candidate> cold;
  std::vector<std::size_t> hot_ends;
  std::vector<std::size_t> cold_ends;
  std::vector<Candidate> shard_hot;
  std::vector<Candidate> shard_cold;
  std::vector<double> temps;
  std::vector<Candidate> kept;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shard_hot.clear();
    shard_cold.clear();
    std::uint64_t id = s;
    for (Entry& entry : shards_[s].slots) {
      if (entry.live) {
        if (elapsed > 1) {
          entry.temperature *= idle_decay;
        }
        entry.temperature = ewma_alpha_ * static_cast<double>(entry.pending) +
                            (1.0 - ewma_alpha_) * entry.temperature;
        entry.pending = 0;
        epoch_temperature_.Add(entry.temperature);
        // An entry can qualify both ways when the thresholds overlap
        // (promote_threshold < demote_threshold); the policy re-filters, so
        // report it in both directions like the legacy full snapshot did.
        if (entry.temperature >= hot_threshold) {
          shard_hot.push_back(Candidate{id, entry.temperature});
        }
        if (entry.temperature <= cold_threshold) {
          shard_cold.push_back(Candidate{id, entry.temperature});
        }
      }
      id += stride;
    }
    KeepFirst<std::greater<double>>(shard_hot, k, temps, kept);
    KeepFirst<std::less<double>>(shard_cold, k, temps, kept);
    hot.insert(hot.end(), shard_hot.begin(), shard_hot.end());
    cold.insert(cold.end(), shard_cold.begin(), shard_cold.end());
    hot_ends.push_back(hot.size());
    cold_ends.push_back(cold.size());
  }

  // Each shard's run is already in the total (temperature, id) order, so
  // merging them gives exactly the order one global sort would.
  MergeRuns<std::greater<double>>(hot, std::move(hot_ends));
  MergeRuns<std::less<double>>(cold, std::move(cold_ends));
  hot_candidates_ += hot.size();
  cold_candidates_ += cold.size();

  // Hot entries first, then cold ones not already listed hot. An entry can
  // be listed both ways only when the thresholds overlap (promote <=
  // demote), and then only if it clears the hot threshold, so only such
  // entries search the hot ids.
  std::vector<std::uint64_t> hot_ids;
  if (hot_threshold <= cold_threshold) {
    for (const Candidate& c : hot) {
      hot_ids.push_back(c.id);
    }
    std::sort(hot_ids.begin(), hot_ids.end());
  }
  std::vector<Candidate> merged = std::move(hot);
  merged.reserve(merged.size() + cold.size());
  for (const Candidate& c : cold) {
    if (c.temperature >= hot_threshold &&
        std::binary_search(hot_ids.begin(), hot_ids.end(), c.id)) {
      continue;
    }
    merged.push_back(c);
  }
  return merged;
}

double ShardedTemperatureProfiler::TemperatureOf(std::uint64_t id) const {
  const Entry* entry = Find(id);
  return entry == nullptr ? 0.0 : entry->temperature;
}

std::uint64_t ShardedTemperatureProfiler::PendingAccesses(std::uint64_t id) const {
  const Entry* entry = Find(id);
  return entry == nullptr ? 0 : entry->pending;
}

std::size_t ShardedTemperatureProfiler::entries() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.live;
  }
  return n;
}

void ShardedTemperatureProfiler::BindMetrics(MetricGroup& group, const std::string& prefix) {
  group.AddCounterFn(prefix + "folds", [this] { return folds_; });
  group.AddCounterFn(prefix + "hot_candidates", [this] { return hot_candidates_; });
  group.AddCounterFn(prefix + "cold_candidates", [this] { return cold_candidates_; });
  group.AddGaugeFn(prefix + "entries", [this] { return static_cast<double>(entries()); });
  group.AddSummaryFn(prefix + "epoch_temperature", [this] { return &epoch_temperature_; });
  for (int s = 0; s < num_shards(); ++s) {
    group.AddGaugeFn(prefix + "shard" + std::to_string(s) + "/entries",
                     [this, s] { return static_cast<double>(ShardEntries(s)); });
  }
}

}  // namespace unifab
