// Coherent shared-memory window (CXL.cache-style) tests: the bounded
// snoop-filter directory, back-invalidation, partial-failure semantics,
// CohPtr, and node replication over the CoherentPort substrate.

#include "src/mem/coherent.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/cohptr.h"
#include "src/core/replicated.h"
#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/topo/presets.h"

namespace unifab {

// Test-only corruption/introspection hook (same pattern as
// fabric_switch_mem_test.cc): seeds deliberate violations of the new audit
// checks and puts the state back afterwards.
class AuditTestPeer {
 public:
  static CoherentDirStats& DirStats(CoherentDirectory& d) { return d.stats_; }
  static void InsertDummyBlock(CoherentDirectory& d, std::uint64_t block) { d.blocks_[block]; }
  static void EraseBlock(CoherentDirectory& d, std::uint64_t block) { d.blocks_.erase(block); }
};

namespace {

bool AnyPathEndsWith(const std::vector<InvariantViolation>& violations,
                     const std::string& suffix) {
  for (const auto& v : violations) {
    if (v.path.size() >= suffix.size() &&
        v.path.compare(v.path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return true;
    }
  }
  return false;
}

// Three hosts + a coherent window on one FAM expander behind one switch.
struct Rig {
  explicit Rig(CoherentConfig cfg = CoherentConfig{}) : fabric(&engine, 41) {
    auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "fam");
    expander = std::make_unique<MemoryExpander>(&engine, dram.get(), "exp");
    const std::uint64_t win_base = expander->CreateCoherentWindow(kWindowBytes);
    AdapterConfig fea_cfg = OmegaEndpointAdapter();
    fea_cfg.request_proc_latency = FromNs(50);
    auto* fea = fabric.AddEndpointAdapter(fea_cfg, "fea", expander.get());
    fabric.Connect(sw, fea, OmegaLink());
    fea_dispatch = std::make_unique<MessageDispatcher>(fea);
    dir = std::make_unique<CoherentDirectory>(&engine, cfg, fea_dispatch.get(), expander.get(),
                                              "dir");
    window = std::make_unique<CoherentWindow>(dir.get(), win_base, kWindowBytes);
    for (int i = 0; i < 3; ++i) {
      AdapterConfig fha = OmegaHostAdapter();
      fha.request_proc_latency = FromNs(50);
      fha.response_proc_latency = FromNs(50);
      auto* adapter = fabric.AddHostAdapter(fha, "h" + std::to_string(i));
      host_link[i] = fabric.Connect(sw, adapter, OmegaLink());
      dispatch[i] = std::make_unique<MessageDispatcher>(adapter);
      port[i] = std::make_unique<CoherentPort>(&engine, cfg, dispatch[i].get(), dir.get(),
                                               "p" + std::to_string(i));
    }
    fabric.ConfigureRouting();
  }

  static constexpr std::uint64_t kWindowBytes = 1ULL << 16;

  Engine engine;
  FabricInterconnect fabric;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<MemoryExpander> expander;
  std::unique_ptr<MessageDispatcher> fea_dispatch;
  std::unique_ptr<CoherentDirectory> dir;
  std::unique_ptr<CoherentWindow> window;
  Link* host_link[3] = {nullptr, nullptr, nullptr};
  std::unique_ptr<MessageDispatcher> dispatch[3];
  std::unique_ptr<CoherentPort> port[3];
};

// ------------------------- basic MSI protocol -----------------------------

TEST(CoherentWindowTest, ReadMissThenHit) {
  Rig rig;
  const std::uint64_t addr = rig.window->Allocate(64);
  bool ok1 = false;
  rig.port[0]->Read(addr, [&](bool ok) { ok1 = ok; });
  rig.engine.Run();
  EXPECT_TRUE(ok1);
  EXPECT_EQ(rig.port[0]->stats().read_misses, 1u);
  EXPECT_EQ(rig.dir->StateOf(addr), CoherentDirectory::BlockState::kShared);
  EXPECT_EQ(rig.dir->SharerCount(addr), 1u);

  bool ok2 = false;
  rig.port[0]->Read(addr, [&](bool ok) { ok2 = ok; });
  rig.engine.Run();
  EXPECT_TRUE(ok2);
  EXPECT_EQ(rig.port[0]->stats().read_hits, 1u);
  EXPECT_GT(rig.expander->stats().window_reads, 0u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CoherentWindowTest, WriteInvalidatesAllSharers) {
  Rig rig;
  const std::uint64_t addr = rig.window->Allocate(64);
  for (int i = 0; i < 2; ++i) {
    rig.port[i]->Read(addr);
    rig.engine.Run();
  }
  EXPECT_EQ(rig.dir->SharerCount(addr), 2u);

  bool wrote = false;
  rig.port[2]->Write(addr, [&](bool ok) { wrote = ok; });
  rig.engine.Run();
  EXPECT_TRUE(wrote);
  EXPECT_EQ(rig.dir->StateOf(addr), CoherentDirectory::BlockState::kModified);
  EXPECT_EQ(rig.dir->OwnerOf(addr), 2);
  EXPECT_FALSE(rig.port[0]->HoldsBlock(addr));
  EXPECT_FALSE(rig.port[1]->HoldsBlock(addr));
  EXPECT_EQ(rig.port[0]->stats().invalidations_received, 1u);
  EXPECT_EQ(rig.dir->stats().invalidations, 2u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CoherentWindowTest, ReadOfModifiedRecallsAndDowngradesOwner) {
  Rig rig;
  const std::uint64_t addr = rig.window->Allocate(64);
  rig.port[0]->Write(addr);
  rig.engine.Run();
  EXPECT_EQ(rig.dir->OwnerOf(addr), 0);

  bool read_ok = false;
  rig.port[1]->Read(addr, [&](bool ok) { read_ok = ok; });
  rig.engine.Run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(rig.dir->stats().recalls, 1u);
  EXPECT_EQ(rig.port[0]->stats().recalls_received, 1u);
  EXPECT_EQ(rig.dir->StateOf(addr), CoherentDirectory::BlockState::kShared);
  // The downgraded owner keeps an S copy alongside the new reader.
  EXPECT_EQ(rig.dir->SharerCount(addr), 2u);
  EXPECT_TRUE(rig.port[0]->HoldsBlock(addr));
  EXPECT_FALSE(rig.port[0]->HoldsModified(addr));
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

// ----------------------- bounded snoop filter -----------------------------

TEST(CoherentWindowTest, SharerOverflowRecallsOldestSharer) {
  CoherentConfig cfg;
  cfg.max_sharers = 2;
  Rig rig(cfg);
  const std::uint64_t addr = rig.window->Allocate(64);
  int oks = 0;
  for (int i = 0; i < 3; ++i) {
    rig.port[i]->Read(addr, [&](bool ok) { oks += ok ? 1 : 0; });
    rig.engine.Run();
  }
  EXPECT_EQ(oks, 3);
  EXPECT_EQ(rig.dir->stats().sharer_recalls, 1u);
  EXPECT_EQ(rig.dir->stats().back_invals_sent, 1u);
  EXPECT_EQ(rig.dir->stats().back_inval_acks, 1u);
  EXPECT_LE(rig.dir->SharerCount(addr), 2u);
  // Port 0 was the oldest sharer: its copy was back-invalidated to make room.
  EXPECT_FALSE(rig.port[0]->HoldsBlock(addr));
  EXPECT_EQ(rig.port[0]->stats().back_invals_received, 1u);
  EXPECT_TRUE(rig.port[2]->HoldsBlock(addr));
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CoherentWindowTest, FullFilterBackInvalidatesLruEntry) {
  CoherentConfig cfg;
  cfg.max_tracked_blocks = 2;
  Rig rig(cfg);
  const std::uint64_t a = rig.window->Allocate(64);
  const std::uint64_t b = rig.window->Allocate(64);
  const std::uint64_t c = rig.window->Allocate(64);
  int oks = 0;
  auto count = [&](bool ok) { oks += ok ? 1 : 0; };
  rig.port[0]->Read(a, std::function<void(bool)>(count));
  rig.engine.Run();
  rig.port[0]->Read(b, std::function<void(bool)>(count));
  rig.engine.Run();
  // Third distinct block: the filter is full, so the LRU entry (a) must be
  // back-invalidated before c is admitted.
  rig.port[0]->Read(c, std::function<void(bool)>(count));
  rig.engine.Run();

  EXPECT_EQ(oks, 3);
  EXPECT_GE(rig.dir->stats().filter_evictions, 1u);
  EXPECT_EQ(rig.dir->stats().filter_parked, 1u);
  EXPECT_LE(rig.dir->TrackedBlocks(), 2u);
  EXPECT_FALSE(rig.port[0]->HoldsBlock(a));  // victim of the back-invalidation
  EXPECT_TRUE(rig.port[0]->HoldsBlock(c));
  EXPECT_EQ(rig.dir->ParkedRequests(), 0u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CoherentWindowTest, FilterStaysBoundedUnderManyBlocks) {
  CoherentConfig cfg;
  cfg.max_tracked_blocks = 4;
  Rig rig(cfg);
  int oks = 0;
  for (int round = 0; round < 3; ++round) {
    for (int blk = 0; blk < 8; ++blk) {
      rig.port[blk % 3]->Read(static_cast<std::uint64_t>(blk) * 64,
                              std::function<void(bool)>([&](bool ok) { oks += ok ? 1 : 0; }));
      rig.engine.Run();
      EXPECT_LE(rig.dir->TrackedBlocks(), 4u);
    }
  }
  EXPECT_EQ(oks, 3 * 8);
  EXPECT_GT(rig.dir->stats().filter_evictions, 0u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

// ------------------------- failure semantics ------------------------------

TEST(CoherentWindowTest, DirectoryDeadlineNacksRequesterTerminally) {
  CoherentConfig cfg;
  cfg.ack_deadline = FromUs(5.0);
  Rig rig(cfg);
  const std::uint64_t addr = rig.window->Allocate(64);
  rig.port[0]->Write(addr);
  rig.engine.Run();
  EXPECT_TRUE(rig.port[0]->HoldsModified(addr));

  // Owner's link dies; a later writer's recall can never be answered.
  rig.host_link[0]->Fail();
  bool done = false;
  bool ok = true;
  rig.port[1]->Write(addr, [&](bool k) {
    done = true;
    ok = k;
  });
  rig.engine.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.dir->stats().txn_aborts, 1u);
  EXPECT_EQ(rig.dir->stats().nacks_sent, 1u);
  EXPECT_EQ(rig.port[1]->stats().nacks_received, 1u);
  EXPECT_EQ(rig.port[1]->stats().txn_failures, 1u);
  // The directory still tracks the unreachable owner: it never granted the
  // block, so no stale Modified copy can be exposed to a later reader.
  EXPECT_EQ(rig.dir->OwnerOf(addr), 0);
  EXPECT_FALSE(rig.port[1]->HoldsBlock(addr));
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CoherentWindowTest, PortDeadlineFailsWaitersWhenFabricIsDead) {
  CoherentConfig cfg;
  cfg.txn_deadline = FromUs(5.0);
  cfg.ack_deadline = 0;  // isolate the port-side watchdog
  Rig rig(cfg);
  rig.host_link[0]->Fail();
  bool done = false;
  bool ok = true;
  rig.port[0]->Read(rig.window->Allocate(64), [&](bool k) {
    done = true;
    ok = k;
  });
  rig.engine.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.port[0]->stats().txn_timeouts, 1u);
  EXPECT_EQ(rig.port[0]->stats().txn_failures, 1u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CoherentWindowTest, SpoofedInvAckIsCountedStaleAndIgnored) {
  Rig rig;
  const std::uint64_t addr = rig.window->Allocate(64);
  rig.port[0]->Read(addr);
  rig.engine.Run();

  // A rogue ack from a port the directory is not waiting on must not corrupt
  // the sharer bookkeeping (the CC-NUMA bug class this layer hardens against).
  auto spoof = std::make_shared<CohMsg>();
  spoof->op = CohOp::kInvAck;
  spoof->block = addr;
  spoof->requester = 2;
  rig.dispatch[2]->Send(rig.dir->fabric_id(), kSvcCoherent,
                        static_cast<std::uint64_t>(CohOp::kInvAck), 16, spoof, Channel::kCache);
  rig.engine.Run();
  EXPECT_EQ(rig.dir->stats().stale_acks, 1u);
  EXPECT_EQ(rig.dir->SharerCount(addr), 1u);
  EXPECT_EQ(rig.dir->StateOf(addr), CoherentDirectory::BlockState::kShared);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

// --------------------------- audit seeding --------------------------------

TEST(CoherentWindowTest, AuditCatchesSeededBackInvalAckLeak) {
  Rig rig;
  rig.port[0]->Read(rig.window->Allocate(64));
  rig.engine.Run();
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  CoherentDirStats& stats = AuditTestPeer::DirStats(*rig.dir);
  ++stats.back_invals_sent;  // a BI that can never be acked or written off
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(),
                              "mem/coherent/back_inval_acks_conserved"));
  --stats.back_invals_sent;
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CoherentWindowTest, AuditCatchesSeededFilterOverflow) {
  CoherentConfig cfg;
  cfg.max_tracked_blocks = 2;
  Rig rig(cfg);
  rig.port[0]->Read(rig.window->Allocate(64));
  rig.port[0]->Read(rig.window->Allocate(64));
  rig.engine.Run();
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  AuditTestPeer::InsertDummyBlock(*rig.dir, 0xdead000);
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(), "mem/coherent/filter_bounded"));
  AuditTestPeer::EraseBlock(*rig.dir, 0xdead000);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

// ------------------------------ CohPtr ------------------------------------

struct Wide {
  std::int64_t value = 0;
  std::uint8_t pad[120] = {};
};

TEST(CohPtrTest, WriteOnOneHostReadOnAnother) {
  Rig rig;
  auto p = CohPtr<Wide>::Make(rig.window.get());
  EXPECT_EQ(p.blocks(), 2u);

  Wide w;
  w.value = 7;
  bool wrote = false;
  p.Write(rig.port[0].get(), w, [&](bool ok) { wrote = ok; });
  rig.engine.Run();
  EXPECT_TRUE(wrote);

  std::int64_t got = -1;
  bool read_ok = false;
  p.Read(rig.port[1].get(), [&](const Wide& v, bool ok) {
    got = v.value;
    read_ok = ok;
  });
  rig.engine.Run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(got, 7);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CohPtrTest, PartialStoreAcquiresOnlyCoveredBlocks) {
  Rig rig;
  auto p = CohPtr<Wide>::Make(rig.window.get());
  // Warm both blocks Shared at port 1.
  bool warm = false;
  p.Read(rig.port[1].get(), [&](const Wide&, bool) { warm = true; });
  rig.engine.Run();
  ASSERT_TRUE(warm);

  // An 8-byte store at offset 0 covers only the first coherence block.
  const std::int64_t v = 42;
  bool stored = false;
  p.Store(rig.port[1].get(), 0, sizeof(v), &v, [&](bool ok) { stored = ok; });
  rig.engine.Run();
  EXPECT_TRUE(stored);
  EXPECT_TRUE(rig.port[1]->HoldsModified(p.addr()));
  EXPECT_FALSE(rig.port[1]->HoldsModified(p.addr() + 64));
  EXPECT_EQ(rig.dir->StateOf(p.addr()), CoherentDirectory::BlockState::kModified);
  EXPECT_EQ(rig.dir->StateOf(p.addr() + 64), CoherentDirectory::BlockState::kShared);
  EXPECT_EQ(p.Peek().value, 42);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CohPtrTest, UpdatesFromAllHostsSerializeThroughDirectory) {
  Rig rig;
  auto p = CohPtr<Wide>::Make(rig.window.get());
  int completions = 0;
  for (int round = 0; round < 4; ++round) {
    for (int h = 0; h < 3; ++h) {
      p.Update(rig.port[h].get(), [](Wide& w) { ++w.value; },
               [&](bool ok) { completions += ok ? 1 : 0; });
      rig.engine.Run();
    }
  }
  EXPECT_EQ(completions, 12);
  EXPECT_EQ(p.Peek().value, 12);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(CohPtrTest, FailedWriteIsNeverObservable) {
  CoherentConfig cfg;
  cfg.txn_deadline = FromUs(5.0);
  cfg.ack_deadline = 0;
  Rig rig(cfg);
  auto p = CohPtr<Wide>::Make(rig.window.get());
  Wide init;
  init.value = 5;
  p.Poke(init);

  rig.host_link[2]->Fail();
  Wide w;
  w.value = 999;
  bool done = false;
  bool ok = true;
  p.Write(rig.port[2].get(), w, [&](bool k) {
    done = true;
    ok = k;
  });
  rig.engine.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  // The shadow still holds the last committed value: the failed write never
  // became visible.
  EXPECT_EQ(p.Peek().value, 5);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

// ------------------- node replication over CoherentPort -------------------

struct Counter {
  std::int64_t value = 0;
};
struct AddOp {
  std::int64_t delta;
};

TEST(CoherentReplicatedTest, NodeReplicatedConvergesOverCoherentPorts) {
  Rig rig;
  const std::uint64_t log_base = rig.window->Allocate(64 * 64);
  NodeReplicated<Counter, AddOp> nr(
      &rig.engine, log_base, 63, [](Counter& c, const AddOp& op) { c.value += op.delta; });
  int reps[3];
  for (int i = 0; i < 3; ++i) {
    reps[i] = nr.AddReplica(rig.port[static_cast<std::size_t>(i)].get());
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      nr.Execute(reps[i], AddOp{i + 1});
    }
  }
  rig.engine.Run();
  for (int i = 0; i < 3; ++i) {
    std::int64_t got = -1;
    nr.Read(reps[i], [&](const Counter& c) { got = c.value; });
    rig.engine.Run();
    EXPECT_EQ(got, 4 * (1 + 2 + 3)) << "replica " << i;
  }
  EXPECT_EQ(nr.LogSize(), 12u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

}  // namespace
}  // namespace unifab
