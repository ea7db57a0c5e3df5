// Hardware-coherent fabric memory: the CC-NUMA memory node (paper §3
// Difference #2) and the CXL.cache-style coherent window (DP#2).
//
// A CoherentDirectory lives at a FAM chassis's memory expander and every
// host owns a CoherentPort (a block cache in its FHA). The protocol is MSI
// with a blocking home directory: the home serializes transactions per
// block and requesters never talk to each other directly. All protocol
// traffic travels as CXL.cache-channel messages over the simulated fabric,
// so coherence costs are real fabric costs.
//
// The directory runs an HDM-DB-style snoop filter: tracking is bounded
// both per block (at most `max_sharers` sharers, recall-on-overflow) and in
// total (at most `max_tracked_blocks` filter entries, back-invalidation of
// the LRU victim when the filter is full). The back-invalidation channel
// (CohOp::kBackInval / kBackInvalAck, CXL BISnp/BIRsp) is the price of the
// bound: the device can evict a filter entry only by first invalidating
// every cached copy. A CC-NUMA node is the same directory with the bounds
// lifted and the deadlines off (CcNumaDirectory() in src/topo/presets.h).
//
// Partial failure is first-class: every transaction carries a deadline on
// both sides. The directory never grants on a timed-out handshake — it
// Nacks the requester terminally and keeps unacknowledged sharers tracked —
// and a port whose transaction times out fails its waiters with ok=false
// and conservatively drops its local copy. A failed write is therefore
// never observable: grants commit directory state before data moves, and
// the host-side shadow is only updated on a successful completion.

#ifndef SRC_MEM_COHERENT_H_
#define SRC_MEM_COHERENT_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fabric/dispatch.h"
#include "src/mem/cache.h"
#include "src/mem/expander.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

enum class CohOp : std::uint8_t {
  kGetS,          // port -> home: read miss
  kGetM,          // port -> home: write miss or S->M upgrade
  kPutM,          // port -> home: dirty eviction writeback
  kPutS,          // port -> home: clean eviction notice
  kData,          // home -> port: shared data grant
  kDataM,         // home -> port: exclusive data grant
  kInv,           // home -> port: invalidate your copy
  kInvAck,        // port -> home
  kRecall,        // home -> owner: give the block back (downgrade or invalidate)
  kRecallResp,    // owner -> home
  kBackInval,     // home -> port: snoop-filter capacity eviction (CXL BISnp)
  kBackInvalAck,  // port -> home: BIRsp, carries writeback data when dirty
  kNack,          // home -> port: transaction aborted terminally (fault path)
};

const char* CohOpName(CohOp op);

struct CohMsg {
  CohOp op = CohOp::kGetS;
  std::uint64_t block = 0;
  int requester = -1;      // host index at the directory
  bool downgrade = false;  // kRecall: true = owner keeps an S copy
  bool was_dirty = false;  // kRecallResp: owner had modified data
  bool was_present = false;
};

struct CoherentConfig {
  std::uint32_t block_bytes = 64;
  CacheConfig port_cache{64 * 1024, 64, 8};
  Tick port_hit_latency = FromNs(15.0);
  Tick directory_latency = FromNs(25.0);
  std::uint32_t ctrl_msg_bytes = 16;
  // Snoop-filter bounds. The directory holds at most `max_tracked_blocks`
  // entries; a full filter back-invalidates its LRU idle entry to admit a
  // new block. Each entry tracks at most `max_sharers` sharers; an
  // overflowing GetS recalls the oldest sharer first.
  std::uint32_t max_tracked_blocks = 4096;
  std::uint32_t max_sharers = 8;
  // Directory-side watchdog on an in-flight handshake (inv/recall/BI acks);
  // expiry aborts the transaction with a Nack. 0 disables.
  Tick ack_deadline = FromUs(250.0);
  // Port-side watchdog on an outstanding miss; expiry fails the waiters
  // terminally (ok=false). 0 disables.
  Tick txn_deadline = FromUs(500.0);
};

struct CoherentDirStats {
  std::uint64_t gets = 0;
  std::uint64_t getm = 0;
  std::uint64_t putm = 0;
  std::uint64_t puts = 0;
  std::uint64_t recalls = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t queued_requests = 0;
  std::uint64_t back_invals_sent = 0;
  std::uint64_t back_inval_acks = 0;        // includes implicit (crossing Put*) acks
  std::uint64_t back_inval_acks_stale = 0;  // late acks after a timeout charged them
  std::uint64_t back_inval_timeouts = 0;
  std::uint64_t sharer_recalls = 0;    // per-block sharer-vector overflow
  std::uint64_t filter_evictions = 0;  // filter entries reclaimed via back-inval
  std::uint64_t filter_parked = 0;     // requests that waited for a filter slot
  std::uint64_t nacks_sent = 0;
  std::uint64_t txn_aborts = 0;  // directory-side deadline expiries
  std::uint64_t stale_acks = 0;
  std::uint64_t implicit_evict_acks = 0;

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

struct CoherentPortStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t invalidations_received = 0;
  std::uint64_t recalls_received = 0;
  std::uint64_t back_invals_received = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t txn_timeouts = 0;
  std::uint64_t txn_failures = 0;  // waiters failed (nack + timeout)
  Summary miss_latency_ns;

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

class CoherentDirectory;

// Host-side coherent port. Read/Write complete when the block is usable in
// the required state in the port cache. Completions carry an `ok` flag:
// false means the transaction failed terminally (directory Nack or port
// deadline) and the local copy was conservatively dropped. The void
// overloads serve callers that ignore `ok` (NodeReplicated).
class CoherentPort {
 public:
  CoherentPort(Engine* engine, const CoherentConfig& config, MessageDispatcher* dispatcher,
               CoherentDirectory* home, std::string name);

  void Read(std::uint64_t addr, std::function<void(bool ok)> done = nullptr);
  void Write(std::uint64_t addr, std::function<void(bool ok)> done = nullptr);
  void Read(std::uint64_t addr, std::function<void()> done) {
    Read(addr, [done = std::move(done)](bool) {
      if (done) {
        done();
      }
    });
  }
  void Write(std::uint64_t addr, std::function<void()> done) {
    Write(addr, [done = std::move(done)](bool) {
      if (done) {
        done();
      }
    });
  }

  bool HoldsBlock(std::uint64_t addr) const { return cache_.Contains(addr); }
  bool HoldsModified(std::uint64_t addr) const { return cache_.IsDirty(addr); }

  const CoherentPortStats& stats() const { return stats_; }
  int host_index() const { return host_index_; }
  PbrId fabric_id() const { return dispatcher_->adapter()->id(); }
  const std::string& name() const { return name_; }

 private:
  friend class CoherentDirectory;
  friend class AuditTestPeer;

  struct PendingTxn {
    bool wants_m = false;
    Tick started_at = 0;
    std::vector<std::function<void(bool)>> waiters;
    EventId deadline = kInvalidEventId;
  };

  void HandleMessage(const FabricMessage& msg);
  void OnGrant(const CohMsg& msg);
  void OnInv(const CohMsg& msg);
  void OnRecall(const CohMsg& msg);
  void OnBackInval(const CohMsg& msg);
  void OnNack(const CohMsg& msg);
  void OnTxnTimeout(std::uint64_t block);
  void FailTxn(std::uint64_t block, bool drop_line);
  void SendToHome(CohOp op, std::uint64_t block, bool with_data);
  void StartMiss(std::uint64_t block, bool wants_m, std::function<void(bool)> done);
  void EvictIfNeeded(std::uint64_t block, bool dirty);

  Engine* engine_;
  CoherentConfig config_;
  MessageDispatcher* dispatcher_;
  CoherentDirectory* home_;
  std::string name_;
  int host_index_ = -1;
  SetAssocCache cache_;
  std::unordered_map<std::uint64_t, PendingTxn> pending_;
  CoherentPortStats stats_;
  MetricGroup metrics_;
};

// Memory-side snoop-filter directory, colocated with a MemoryExpander.
// Backing data moves through MemoryExpander::WindowAccess so device stats
// and DRAM timing stay honest.
class CoherentDirectory {
 public:
  CoherentDirectory(Engine* engine, const CoherentConfig& config, MessageDispatcher* dispatcher,
                    MemoryExpander* expander, std::string name);

  int RegisterPort(CoherentPort* port);

  const CoherentDirStats& stats() const { return stats_; }
  PbrId fabric_id() const { return dispatcher_->adapter()->id(); }
  const CoherentConfig& config() const { return config_; }

  // Introspection for tests.
  enum class BlockState { kUncached, kShared, kModified };
  BlockState StateOf(std::uint64_t block) const;
  std::size_t SharerCount(std::uint64_t block) const;
  int OwnerOf(std::uint64_t block) const;
  std::size_t TrackedBlocks() const { return blocks_.size(); }
  std::size_t ParkedRequests() const { return filter_wait_.size(); }
  std::uint64_t BiOutstanding() const;

 private:
  friend class CoherentPort;
  friend class AuditTestPeer;

  struct Entry {
    BlockState state = BlockState::kUncached;
    std::vector<int> sharers;  // insertion order: front = oldest = recall victim
    int owner = -1;
    bool busy = false;
    bool evicting = false;  // filter eviction (back-invalidation) in progress
    std::deque<CohMsg> pending;
    std::set<int> inv_waiting;
    std::set<int> bi_waiting;
    int recall_from = -1;
    CohMsg active;
    std::uint64_t lru = 0;
    EventId deadline = kInvalidEventId;
  };

  void HandleMessage(const FabricMessage& msg);
  void Process(const CohMsg& msg);
  void Admit(const CohMsg& msg);
  void StartTxn(Entry& e, std::uint64_t block, const CohMsg& msg);
  void ServeGetS(Entry& e, std::uint64_t block, const CohMsg& msg);
  void ServeGetM(Entry& e, std::uint64_t block, const CohMsg& msg);
  void Grant(std::uint64_t block, int requester, bool exclusive);
  void FinishTxn(Entry& e, std::uint64_t block);
  void SendToPort(int host, CohOp op, std::uint64_t block, bool with_data,
                  bool downgrade = false);
  void SendBackInval(Entry& e, std::uint64_t block, int host);
  // A back-invalidation target answered (explicit ack or crossing Put*).
  void BiSatisfied(std::uint64_t block, int responder);
  void StartFilterEviction();
  void FinishEviction(std::uint64_t block);
  void PumpFilterWait();
  void OnDirTimeout(std::uint64_t block);
  void ArmDeadline(Entry& e, std::uint64_t block);
  void RemoveSharer(Entry& e, int host);
  void MaybeReclaim(std::uint64_t block);

  Engine* engine_;
  CoherentConfig config_;
  MessageDispatcher* dispatcher_;
  MemoryExpander* expander_;
  std::string name_;
  std::vector<CoherentPort*> ports_;
  std::map<std::uint64_t, Entry> blocks_;  // ordered: deterministic victim scan
  std::deque<CohMsg> filter_wait_;         // requests parked for a filter slot
  std::size_t filter_released_ = 0;        // parked requests on their way back to Admit
  bool evict_in_progress_ = false;
  std::uint64_t lru_clock_ = 0;
  CoherentDirStats stats_;
  MetricGroup metrics_;
  AuditScope audit_;  // declared last: checks read the state above
};

// Bump allocator + host-side shadow over a coherent window carved from a
// MemoryExpander (CreateCoherentWindow). Addresses handed out are in the
// same (fabric-virtual) space the ports use; `base` is that space's window
// start (e.g. Cluster::FamBase(0) + expander window base).
class CoherentWindow {
 public:
  CoherentWindow(CoherentDirectory* directory, std::uint64_t base, std::uint64_t size)
      : directory_(directory), base_(base), size_(size), shadow_(size, 0) {}

  // Allocates `bytes` rounded up to whole coherence blocks; returns the
  // fabric-virtual address.
  std::uint64_t Allocate(std::uint64_t bytes);

  std::uint8_t* Shadow(std::uint64_t addr) {
    assert(addr >= base_ && addr < base_ + size_);
    return shadow_.data() + (addr - base_);
  }

  CoherentDirectory* directory() const { return directory_; }
  std::uint64_t base() const { return base_; }
  std::uint64_t size() const { return size_; }
  std::uint64_t BytesAllocated() const { return cursor_; }
  std::uint32_t block_bytes() const { return directory_->config().block_bytes; }

 private:
  CoherentDirectory* directory_;
  std::uint64_t base_;
  std::uint64_t size_;
  std::uint64_t cursor_ = 0;
  std::vector<std::uint8_t> shadow_;
};

}  // namespace unifab

#endif  // SRC_MEM_COHERENT_H_
