// ShardedTemperatureProfiler::FoldEpoch against a reference: the original
// algorithm (full sort by (temperature, id), truncation per shard, one
// global sort, set dedup) run over an independent id -> (temperature,
// pending) model. The fold must reproduce it exactly — candidate ids and
// temperatures, counters, entry counts and the epoch-temperature summary —
// across shard counts, candidate bounds, threshold overlaps and EWMA
// weights, under allocate/free churn, access counts that tie many entries
// across the k-th cut, and catch-up folds.

#include "src/core/heap_profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace unifab {
namespace {

using Candidate = ShardedTemperatureProfiler::Candidate;

struct ModelEntry {
  double temperature = 0.0;
  std::uint64_t pending = 0;
};

using Model = std::map<std::uint64_t, ModelEntry>;

struct ReferenceFold {
  std::vector<Candidate> candidates;
  std::uint64_t hot = 0;   // before dedup
  std::uint64_t cold = 0;  // before dedup
  Summary temperature;
};

ReferenceFold FoldReference(Model& model, std::size_t shards, std::size_t k, double alpha,
                            std::uint64_t elapsed, double hot_threshold,
                            double cold_threshold) {
  const double idle_decay =
      std::pow(1.0 - alpha, static_cast<double>(elapsed > 0 ? elapsed - 1 : 0));
  const auto hotter = [](const Candidate& a, const Candidate& b) {
    return a.temperature != b.temperature ? a.temperature > b.temperature : a.id < b.id;
  };
  const auto colder = [](const Candidate& a, const Candidate& b) {
    return a.temperature != b.temperature ? a.temperature < b.temperature : a.id < b.id;
  };

  ReferenceFold out;
  std::vector<std::vector<Candidate>> shard_hot(shards);
  std::vector<std::vector<Candidate>> shard_cold(shards);
  for (auto& [id, e] : model) {
    if (elapsed > 1) {
      e.temperature *= idle_decay;
    }
    e.temperature = alpha * static_cast<double>(e.pending) + (1.0 - alpha) * e.temperature;
    e.pending = 0;
    out.temperature.Add(e.temperature);
    if (e.temperature >= hot_threshold) {
      shard_hot[id % shards].push_back(Candidate{id, e.temperature});
    }
    if (e.temperature <= cold_threshold) {
      shard_cold[id % shards].push_back(Candidate{id, e.temperature});
    }
  }
  std::vector<Candidate> hot;
  std::vector<Candidate> cold;
  for (std::size_t s = 0; s < shards; ++s) {
    std::sort(shard_hot[s].begin(), shard_hot[s].end(), hotter);
    std::sort(shard_cold[s].begin(), shard_cold[s].end(), colder);
    shard_hot[s].resize(std::min(shard_hot[s].size(), k));
    shard_cold[s].resize(std::min(shard_cold[s].size(), k));
    hot.insert(hot.end(), shard_hot[s].begin(), shard_hot[s].end());
    cold.insert(cold.end(), shard_cold[s].begin(), shard_cold[s].end());
  }
  std::sort(hot.begin(), hot.end(), hotter);
  std::sort(cold.begin(), cold.end(), colder);
  out.hot = hot.size();
  out.cold = cold.size();
  std::set<std::uint64_t> seen;
  for (const std::vector<Candidate>* list : {&hot, &cold}) {
    for (const Candidate& c : *list) {
      if (seen.insert(c.id).second) {
        out.candidates.push_back(c);
      }
    }
  }
  return out;
}

struct Thresholds {
  double hot;
  double cold;
  const char* name;
};

constexpr Thresholds kThresholds[] = {
    {4.0, 0.5, "hot4_cold0p5"},  // heap defaults: disjoint
    {0.4, 0.5, "hot0p4_cold0p5"},  // overlap: [0.4, 0.5] qualifies both ways
    {1.0, 1.0, "hot1_cold1"},      // overlap at exactly 1.0
    {0.0, 0.0, "hot0_cold0"},      // everything hot, untouched entries both ways
};

struct Alpha {
  double value;
  const char* name;
};

constexpr Alpha kAlphas[] = {{0.3, "a0p3"}, {0.5, "a0p5"}, {1.0, "a1"}};

// (shards, max_candidates_per_shard, thresholds index, alpha index)
using FoldParam = std::tuple<int, std::size_t, std::size_t, std::size_t>;

class FoldEpochReferenceTest : public ::testing::TestWithParam<FoldParam> {};

TEST_P(FoldEpochReferenceTest, MatchesFullSortReference) {
  const auto [shards, k, threshold_index, alpha_index] = GetParam();
  const Thresholds& th = kThresholds[threshold_index];
  const double alpha = kAlphas[alpha_index].value;
  const auto nshards = static_cast<std::size_t>(shards);

  ShardedTemperatureProfiler prof(ProfilerConfig{shards, k}, alpha);
  Model model;
  std::mt19937_64 rng(20231017);
  // Few distinct access counts, so entries born in the same round with the
  // same class share a history exactly and tie on temperature; class 0 is
  // never touched and ties at 0.0 forever.
  constexpr std::uint64_t kCounts[] = {0, 1, 2, 3, 8};
  const auto access_count = [&kCounts](std::uint64_t id, int round) -> std::uint64_t {
    const std::uint64_t cls = (id * 2654435761u >> 5) % 4;
    return cls == 0 ? 0 : kCounts[(cls + static_cast<std::uint64_t>(round)) % 5];
  };

  std::uint64_t next_id = 1;
  std::uint64_t hot_total = 0;
  std::uint64_t cold_total = 0;
  constexpr std::uint64_t kFarId = std::uint64_t{1} << 40;
  for (int round = 0; round < 18; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int born = 12 + static_cast<int>(rng() % 24);
    for (int i = 0; i < born; ++i) {
      prof.OnAllocate(next_id);
      model.emplace(next_id, ModelEntry{});
      ++next_id;
    }
    std::vector<std::uint64_t> doomed;
    for (const auto& [id, e] : model) {
      if (rng() % 10 == 0) {
        doomed.push_back(id);
      }
    }
    for (const std::uint64_t id : doomed) {
      prof.OnFree(id);
      model.erase(id);
      prof.OnAccess(id);  // a freed id is ignored
    }
    if (!model.empty()) {
      // Re-announcing a live id keeps its state.
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng() % model.size()));
      prof.OnAllocate(it->first);
    }
    for (auto& [id, e] : model) {
      const std::uint64_t n = access_count(id, round);
      for (std::uint64_t a = 0; a < n; ++a) {
        prof.OnAccess(id);
      }
      e.pending += n;
    }
    prof.OnAccess(kFarId);  // unknown ids are ignored
    prof.OnFree(kFarId);
    for (const auto& [id, e] : model) {
      ASSERT_EQ(prof.PendingAccesses(id), e.pending) << "id " << id;
    }

    const std::uint64_t elapsed = round % 3 == 2 ? 3 : 1;
    const ReferenceFold ref =
        FoldReference(model, nshards, k, alpha, elapsed, th.hot, th.cold);
    const std::vector<Candidate> got = prof.FoldEpoch(elapsed, th.hot, th.cold);
    hot_total += ref.hot;
    cold_total += ref.cold;

    ASSERT_EQ(got.size(), ref.candidates.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, ref.candidates[i].id) << "candidate " << i;
      ASSERT_EQ(got[i].temperature, ref.candidates[i].temperature) << "candidate " << i;
    }
    EXPECT_EQ(prof.hot_candidates(), hot_total);
    EXPECT_EQ(prof.cold_candidates(), cold_total);
    EXPECT_EQ(prof.folds(), static_cast<std::uint64_t>(round + 1));
    EXPECT_EQ(prof.entries(), model.size());
    std::vector<std::size_t> per_shard(nshards, 0);
    for (const auto& [id, e] : model) {
      ++per_shard[id % nshards];
      ASSERT_EQ(prof.TemperatureOf(id), e.temperature) << "id " << id;
      ASSERT_EQ(prof.PendingAccesses(id), 0u) << "id " << id;
    }
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(prof.ShardEntries(s), per_shard[static_cast<std::size_t>(s)]) << "shard " << s;
    }
    EXPECT_EQ(prof.TemperatureOf(kFarId), 0.0);

    const Summary& summary = prof.epoch_temperature();
    ASSERT_EQ(summary.Count(), ref.temperature.Count());
    for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
      EXPECT_EQ(summary.Percentile(p), ref.temperature.Percentile(p)) << "p" << p;
    }
    // The sum runs in a different order than the reference's.
    EXPECT_NEAR(summary.Mean(), ref.temperature.Mean(),
                1e-12 * std::max(1.0, std::abs(ref.temperature.Mean())));
  }
}

std::string FoldParamName(const ::testing::TestParamInfo<FoldParam>& info) {
  const auto [shards, k, threshold_index, alpha_index] = info.param;
  return "shards" + std::to_string(shards) + "_k" + std::to_string(k) + "_" +
         kThresholds[threshold_index].name + "_" + kAlphas[alpha_index].name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FoldEpochReferenceTest,
                         ::testing::Combine(::testing::Values(1, 3, 8, 32),
                                            ::testing::Values(std::size_t{0}, std::size_t{1},
                                                              std::size_t{5},
                                                              std::size_t{4096}),
                                            ::testing::Values(std::size_t{0}, std::size_t{1},
                                                              std::size_t{2}, std::size_t{3}),
                                            ::testing::Values(std::size_t{0}, std::size_t{1},
                                                              std::size_t{2})),
                         FoldParamName);

}  // namespace
}  // namespace unifab
