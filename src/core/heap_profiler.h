// Sharded per-object temperature profiler for the unified heap.
//
// The heap's original epoch pass snapshotted every live object into one
// vector and handed it to the migration policy — O(n) copies and an O(n
// log n) policy sort per epoch, which does not survive millions of
// objects. This profiler shards the per-object EWMA state by object id,
// folds each shard independently (a pure multiply for untouched entries),
// and hands the policy only a bounded, deterministically merged candidate
// list: the per-shard top promote/demote candidates, merged across shards
// in (temperature, id) order. The shard count is a profiling parameter,
// fixed by configuration, so fold results (and hence run digests) depend
// only on it and the access stream.
//
// Storage. Object id `id` lives in shard `id % shards`, at slot `id /
// shards` of that shard's slot vector; a freed slot stays as a tombstone.
// The heap hands out ids from a monotonic counter and never reuses one, so
// memory is O(ids ever allocated): 24 B per id here (plus the heap's own
// object slot). The heap's in-repo churn (iTask snapshots, MIMO frames) is
// around 10^3 allocations per run, so tombstones stay negligible.
//
// The fold is one linear pass. Each shard is scanned in ascending id, so a
// shard's hot and cold qualifiers come out already ordered by id, which is
// the tie-break of the (temperature, id) order. Keeping the first
// max_candidates_per_shard of them then needs only the k-th temperature
// (nth_element): entries strictly before it are sorted (usually few — on a
// large heap most cold entries were never touched and tie at 0.0), the
// lowest-id ties fill the rest, and the per-shard runs are merged, not
// re-sorted. The result is exactly what a full sort would give.
//
// The epoch-temperature summary is rebuilt from scratch at every fold and
// each live entry contributes exactly one sample; empty shards contribute
// nothing (per-shard summaries merged additively would double-count the
// re-anchoring sentinel an empty shard has to emit — the bug class this
// rewrite retires). Samples are added shard by shard in ascending id, so
// the summary's mean is summed in that fixed order.

#ifndef SRC_CORE_HEAP_PROFILER_H_
#define SRC_CORE_HEAP_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

struct ProfilerConfig {
  int shards = 8;  // fixed profiling partition
  // Per shard and per direction (hot/cold), at most this many candidates
  // survive a fold. Large enough that small/medium heaps behave exactly
  // like the unbounded legacy snapshot.
  std::size_t max_candidates_per_shard = 4096;
};

class ShardedTemperatureProfiler {
 public:
  struct Candidate {
    std::uint64_t id = 0;
    double temperature = 0.0;
  };

  ShardedTemperatureProfiler(const ProfilerConfig& config, double ewma_alpha);

  // Storage grows to the largest id allocated, so ids must be dense (the
  // heap's are). Re-allocating a live id keeps its state; freeing or
  // accessing an unknown id does nothing.
  void OnAllocate(std::uint64_t id);
  void OnFree(std::uint64_t id);
  void OnAccess(std::uint64_t id);

  // Closes `elapsed` epochs: every entry decays through the elapsed-1 idle
  // epochs, then folds its pending access count (the activity that
  // triggered the catch-up lands in the newest epoch). Never-touched
  // entries decay like any other — an idle object cannot stay warm forever.
  // Returns the merged candidate list: hot entries (temperature >=
  // hot_threshold, hottest first) followed by cold entries (temperature <=
  // cold_threshold, coldest first), deduplicated, each shard contributing
  // at most max_candidates_per_shard per direction. Ties break on id, so
  // the list is identical across runs and worker counts.
  std::vector<Candidate> FoldEpoch(std::uint64_t elapsed, double hot_threshold,
                                   double cold_threshold);

  // Exact between folds (folding is eager); 0 for unknown ids.
  double TemperatureOf(std::uint64_t id) const;
  std::uint64_t PendingAccesses(std::uint64_t id) const;

  std::size_t entries() const;
  std::size_t ShardEntries(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].live;
  }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::uint64_t folds() const { return folds_; }
  std::uint64_t hot_candidates() const { return hot_candidates_; }
  std::uint64_t cold_candidates() const { return cold_candidates_; }
  // One sample per live entry, rebuilt at the latest fold.
  const Summary& epoch_temperature() const { return epoch_temperature_; }

  // Registers the profiler's instruments under `group` with `prefix`
  // (e.g. the owning heap's group, prefix "profiler/").
  void BindMetrics(MetricGroup& group, const std::string& prefix);

 private:
  struct Entry {
    double temperature = 0.0;
    std::uint64_t pending = 0;  // accesses in the open epoch
    bool live = false;          // false: never allocated, or freed
  };

  struct Shard {
    std::vector<Entry> slots;  // slot i holds id i * shards + shard index
    std::size_t live = 0;
  };

  Shard& ShardOf(std::uint64_t id) { return shards_[id % shards_.size()]; }
  std::size_t SlotOf(std::uint64_t id) const { return id / shards_.size(); }
  // The live entry for `id`, or nullptr.
  const Entry* Find(std::uint64_t id) const;
  Entry* Find(std::uint64_t id) {
    return const_cast<Entry*>(std::as_const(*this).Find(id));
  }

  ProfilerConfig config_;
  double ewma_alpha_;
  std::vector<Shard> shards_;
  std::uint64_t folds_ = 0;
  std::uint64_t hot_candidates_ = 0;   // cumulative, across folds
  std::uint64_t cold_candidates_ = 0;  // cumulative, across folds
  Summary epoch_temperature_;
};

}  // namespace unifab

#endif  // SRC_CORE_HEAP_PROFILER_H_
