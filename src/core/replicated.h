// Node replication over fabric-attached CC-NUMA memory (paper DP#2: "node
// replication … would benefit fabric-attached CC-NUMA memory nodes", and
// §5's promise of data structures specially optimized for certain node
// types).
//
// NodeReplicated<State, Op> keeps one State replica per host and funnels
// every mutation through a shared operation log that lives on the CC-NUMA
// node. Writers serialize on the log tail block (the directory's
// write-invalidate protocol provides the lock-free serialization); readers
// first sync — replaying any log entries they have not applied — and then
// serve from their local replica. On read-mostly workloads the tail block
// stays Shared in every port cache, so reads cost a port-cache hit instead
// of a cross-fabric round trip.
//
// The log is conceptually a sequence of 64B blocks:
//   log_base + 0        : tail index (how many ops exist)
//   log_base + 64 * (i+1): the i-th operation record
// Functional op payloads ride a host-side shadow (like UnifiedHeap's
// shadow); all timing comes from the port accesses.
//
// NodeReplicated and the CentralizedShared baseline below run on
// CoherentPorts, whether the directory behind them is a CC-NUMA node
// (CcNumaDirectory()) or the runtime's bounded coherent window.
// bench_coherent_window races NodeReplicated against CohPtr on the latter
// to locate the hardware-coherence crossover.

#ifndef SRC_CORE_REPLICATED_H_
#define SRC_CORE_REPLICATED_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/mem/coherent.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

struct ReplicatedStats {
  std::uint64_t ops_executed = 0;
  std::uint64_t reads = 0;
  std::uint64_t entries_replayed = 0;
  std::uint64_t sync_fetches = 0;  // tail reads that missed (invalidated)
  std::uint64_t sync_races = 0;    // entry fetches whose index another sync applied first
  Summary op_latency_ns;
  Summary read_latency_ns;

  void BindTo(MetricGroup& group, const std::string& prefix = "") const {
    group.AddCounterFn(prefix + "ops_executed", [this] { return ops_executed; });
    group.AddCounterFn(prefix + "reads", [this] { return reads; });
    group.AddCounterFn(prefix + "entries_replayed", [this] { return entries_replayed; });
    group.AddCounterFn(prefix + "sync_fetches", [this] { return sync_fetches; });
    group.AddCounterFn(prefix + "sync_races", [this] { return sync_races; });
    group.AddSummaryFn(prefix + "op_latency_ns", [this] { return &op_latency_ns; });
    group.AddSummaryFn(prefix + "read_latency_ns", [this] { return &read_latency_ns; });
  }
};

template <typename State, typename Op>
class NodeReplicated {
 public:
  using ApplyFn = std::function<void(State&, const Op&)>;

  // `log_base` must point at an unused region of the memory node's address
  // space; `capacity` bounds the number of ops the log can hold.
  NodeReplicated(Engine* engine, std::uint64_t log_base, std::size_t capacity, ApplyFn apply)
      : engine_(engine), log_base_(log_base), capacity_(capacity), apply_(std::move(apply)) {
    metrics_ = MetricGroup(&engine_->metrics(), "core/replicated");
    stats_.BindTo(metrics_);
  }

  // Registers a host's coherent port; returns the replica index.
  int AddReplica(CoherentPort* port, State initial = State{}) {
    replicas_.push_back(Replica{port, std::move(initial), 0, 0});
    return static_cast<int>(replicas_.size()) - 1;
  }

  // Executes a mutating operation from replica `r`. Completion fires when
  // the op is durably in the log and applied locally.
  void Execute(int r, Op op, std::function<void()> done = nullptr) {
    const Tick t0 = engine_->Now();
    // Acquire the tail block in M (serializes concurrent writers through
    // the directory), bump it, then write the entry block.
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    rep.port->Write(TailAddr(), [this, r, op = std::move(op), t0,
                                 done = std::move(done)]() mutable {
      assert(log_.size() < capacity_ && "replication log full");
      const std::uint64_t index = log_.size();
      log_.push_back(op);
      Replica& rep2 = replicas_[static_cast<std::size_t>(r)];
      rep2.port->Write(EntryAddr(index), [this, r, t0, done = std::move(done)] {
        Replica& rep3 = replicas_[static_cast<std::size_t>(r)];
        // Writers are implicitly synced through their own append.
        Replay(rep3, log_.size());
        ++stats_.ops_executed;
        stats_.op_latency_ns.Add(ToNs(engine_->Now() - t0));
        if (done) {
          done();
        }
      });
    });
  }

  // Reads the structure at replica `r`: sync with the log, then serve the
  // local state.
  void Read(int r, std::function<void(const State&)> done) {
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    const Tick t0 = engine_->Now();
    const bool had_tail = rep.port->HoldsBlock(TailAddr());
    // Read the tail: a port-cache hit when no writer invalidated it.
    rep.port->Read(TailAddr(), [this, r, t0, had_tail, done = std::move(done)]() mutable {
      if (!had_tail) {
        ++stats_.sync_fetches;
      }
      // Snapshot the tail now; entries appended after this point belong to
      // the next read's sync.
      SyncEntries(r, log_.size(), [this, r, t0, done = std::move(done)] {
        Replica& rep3 = replicas_[static_cast<std::size_t>(r)];
        ++stats_.reads;
        stats_.read_latency_ns.Add(ToNs(engine_->Now() - t0));
        done(rep3.state);
      });
    });
  }

  const State& UnsafePeek(int r) const { return replicas_[static_cast<std::size_t>(r)].state; }
  std::uint64_t LogSize() const { return log_.size(); }
  std::uint64_t Synced(int r) const { return replicas_[static_cast<std::size_t>(r)].synced; }
  const ReplicatedStats& stats() const { return stats_; }

 private:
  struct Replica {
    CoherentPort* port;
    State state;
    std::uint64_t synced;  // log entries applied to `state`
    // Independently maintained copy of the replay position. Replay checks
    // the two against each other so any future out-of-order or duplicate
    // application trips immediately instead of silently corrupting `state`.
    std::uint64_t replay_cursor;
  };

  std::uint64_t TailAddr() const { return log_base_; }
  std::uint64_t EntryAddr(std::uint64_t i) const { return log_base_ + 64 * (i + 1); }

  void Replay(Replica& rep, std::uint64_t upto) {
    while (rep.synced < upto) {
      assert(rep.synced == rep.replay_cursor && "replay cursor must advance monotonically");
      apply_(rep.state, log_[rep.synced]);
      ++rep.synced;
      ++rep.replay_cursor;
      ++stats_.entries_replayed;
    }
  }

  // Fetches entry blocks through the port until the replica has applied
  // [0, upto). The next index to fetch is re-read from the replica at every
  // step: with several reads (or a read racing the replica's own append) in
  // flight, an index captured before the fetch can be stale by the time the
  // block arrives — applying from it would replay an entry twice or out of
  // order. The stale-fetch case is counted, applied exactly once, and the
  // cursor assert in Replay enforces the ordering.
  void SyncEntries(int r, std::uint64_t upto, std::function<void()> done) {
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    const std::uint64_t from = rep.synced;
    if (from >= upto) {
      done();
      return;
    }
    rep.port->Read(EntryAddr(from), [this, r, from, upto, done = std::move(done)]() mutable {
      Replica& rep2 = replicas_[static_cast<std::size_t>(r)];
      if (rep2.synced == from) {
        Replay(rep2, from + 1);
      } else {
        // Another sync (or this replica's own append) already applied this
        // index while the fetch was in flight.
        ++stats_.sync_races;
      }
      SyncEntries(r, upto, std::move(done));
    });
  }

  Engine* engine_;
  std::uint64_t log_base_;
  std::size_t capacity_;
  ApplyFn apply_;
  std::vector<Replica> replicas_;
  std::deque<Op> log_;  // host-side shadow of the op records
  ReplicatedStats stats_;
  MetricGroup metrics_;
};

// The baseline a type-unconscious port uses: a single shared copy on the
// CC-NUMA node; every read scans the whole structure (`state_blocks` 64B
// coherence blocks) and every write dirties its first block. This is what
// node replication's operation log avoids: readers replay compact ops
// instead of re-fetching invalidated state.
template <typename State, typename Op>
class CentralizedShared {
 public:
  using ApplyFn = std::function<void(State&, const Op&)>;

  CentralizedShared(Engine* engine, std::uint64_t addr, ApplyFn apply,
                    std::uint32_t state_blocks = 1)
      : engine_(engine), addr_(addr), apply_(std::move(apply)), state_blocks_(state_blocks) {
    metrics_ = MetricGroup(&engine_->metrics(), "core/centralized");
    stats_.BindTo(metrics_);
  }

  int AddHost(CoherentPort* port) {
    ports_.push_back(port);
    return static_cast<int>(ports_.size()) - 1;
  }

  void Execute(int h, Op op, std::function<void()> done = nullptr) {
    ports_[static_cast<std::size_t>(h)]->Write(
        addr_, std::function<void()>([this, op = std::move(op), done = std::move(done)] {
          apply_(state_, op);
          ++stats_.ops_executed;
          if (done) {
            done();
          }
        }));
  }

  void Read(int h, std::function<void(const State&)> done) {
    const Tick t0 = engine_->Now();
    ReadBlocks(h, 0, t0, std::move(done));
  }

  const ReplicatedStats& stats() const { return stats_; }

 private:
  void ReadBlocks(int h, std::uint32_t i, Tick t0, std::function<void(const State&)> done) {
    if (i >= state_blocks_) {
      ++stats_.reads;
      stats_.read_latency_ns.Add(ToNs(engine_->Now() - t0));
      done(state_);
      return;
    }
    ports_[static_cast<std::size_t>(h)]->Read(
        addr_ + static_cast<std::uint64_t>(i) * 64,
        std::function<void()>([this, h, i, t0, done = std::move(done)]() mutable {
          ReadBlocks(h, i + 1, t0, std::move(done));
        }));
  }

  Engine* engine_;
  std::uint64_t addr_;
  ApplyFn apply_;
  std::uint32_t state_blocks_;
  std::vector<CoherentPort*> ports_;
  State state_{};
  ReplicatedStats stats_;
  MetricGroup metrics_;
};

}  // namespace unifab

#endif  // SRC_CORE_REPLICATED_H_
