// Randomized property tests: drive each stateful subsystem with a random
// operation stream, run to quiescence, and check its structural invariants.
// Failures print the seed, so any counterexample replays deterministically.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/baseline/policies.h"
#include "src/core/runtime.h"
#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/coherent.h"
#include "src/mem/coma.h"
#include "src/mem/dram.h"
#include "src/mem/expander.h"
#include "src/sim/random.h"
#include "src/topo/faults.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

// ---------------------- coherence protocol fuzz --------------------------

struct CohRig {
  CohRig(int hosts, const CoherentConfig& cfg) : fabric(&engine, 71) {
    auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "fam");
    expander = std::make_unique<MemoryExpander>(&engine, dram.get(), "exp");
    expander->CreateCoherentWindow(dram->config().capacity_bytes);
    AdapterConfig fea_cfg = OmegaEndpointAdapter();
    fea_cfg.request_proc_latency = FromNs(50);
    auto* fea = fabric.AddEndpointAdapter(fea_cfg, "fea", expander.get());
    fabric.Connect(sw, fea, OmegaLink());
    fea_dispatch = std::make_unique<MessageDispatcher>(fea);
    dir = std::make_unique<CoherentDirectory>(&engine, cfg, fea_dispatch.get(), expander.get(),
                                              "dir");
    for (int i = 0; i < hosts; ++i) {
      AdapterConfig fha = OmegaHostAdapter();
      fha.request_proc_latency = FromNs(50);
      fha.response_proc_latency = FromNs(50);
      auto* adapter = fabric.AddHostAdapter(fha, "h" + std::to_string(i));
      fabric.Connect(sw, adapter, OmegaLink());
      dispatch.push_back(std::make_unique<MessageDispatcher>(adapter));
      ports.push_back(std::make_unique<CoherentPort>(&engine, cfg, dispatch.back().get(),
                                                     dir.get(), "p" + std::to_string(i)));
    }
    fabric.ConfigureRouting();
  }

  Engine engine;
  FabricInterconnect fabric;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<MemoryExpander> expander;
  std::unique_ptr<MessageDispatcher> fea_dispatch;
  std::unique_ptr<CoherentDirectory> dir;
  std::vector<std::unique_ptr<MessageDispatcher>> dispatch;
  std::vector<std::unique_ptr<CoherentPort>> ports;
};

// One fuzz input: a directory configuration and an op-stream seed.
struct CohFuzzCase {
  CoherentConfig config;
  std::uint64_t seed;
};

// ctest names each case after its printed parameter. Printing the seed alone
// keeps the names `<instantiation>/CcNumaFuzzTest.<test>/<seed>`; the
// instantiation prefix names the config.
void PrintTo(const CohFuzzCase& c, std::ostream* os) { *os << c.seed; }

std::vector<CohFuzzCase> CohFuzzCases(const CoherentConfig& config) {
  std::vector<CohFuzzCase> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    cases.push_back({config, seed});
  }
  return cases;
}

// The CC-NUMA node with a tiny port cache: lots of evictions.
CoherentConfig CcNumaFuzzConfig() {
  CoherentConfig cfg = CcNumaDirectory();
  cfg.port_cache = CacheConfig{4096, 64, 2};
  return cfg;
}

// The same stream against a snoop filter a third the size of the working
// set, with two sharers per block and the default deadlines armed: filter
// evictions, parked requests and sharer recalls on every seed.
CoherentConfig BoundedFuzzConfig() {
  CoherentConfig cfg;
  cfg.port_cache = CacheConfig{4096, 64, 2};
  cfg.max_tracked_blocks = 8;
  cfg.max_sharers = 2;
  return cfg;
}

class CcNumaFuzzTest : public ::testing::TestWithParam<CohFuzzCase> {};

TEST_P(CcNumaFuzzTest, QuiescentStateSatisfiesProtocolInvariants) {
  const std::uint64_t seed = GetParam().seed;
  SCOPED_TRACE("seed=" + std::to_string(seed));
  CohRig rig(3, GetParam().config);
  Rng rng(seed);

  constexpr int kBlocks = 24;
  int completions = 0;
  int failures = 0;
  constexpr int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    const int host = static_cast<int>(rng.NextBelow(3));
    const std::uint64_t block = rng.NextBelow(kBlocks) * 64;
    const bool write = rng.NextBool(0.4);
    // Random submission times interleave transactions heavily.
    rig.engine.Schedule(FromNs(100) * rng.NextBelow(400), [&, host, block, write] {
      auto done = [&](bool ok) { ++(ok ? completions : failures); };
      if (write) {
        rig.ports[static_cast<std::size_t>(host)]->Write(block, done);
      } else {
        rig.ports[static_cast<std::size_t>(host)]->Read(block, done);
      }
    });
  }
  rig.engine.Run();
  // Nothing wedged: on a healthy fabric every op succeeds, no request is
  // left parked for a filter slot, and every audit check holds.
  EXPECT_EQ(completions, kOps);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(rig.dir->ParkedRequests(), 0u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  // Invariants at quiescence, for every block:
  for (int b = 0; b < kBlocks; ++b) {
    const std::uint64_t block = static_cast<std::uint64_t>(b) * 64;
    int holders = 0;
    int modified_holders = 0;
    for (const auto& port : rig.ports) {
      if (port->HoldsBlock(block)) {
        ++holders;
        if (port->HoldsModified(block)) {
          ++modified_holders;
        }
      }
    }
    const auto state = rig.dir->StateOf(block);
    switch (state) {
      case CoherentDirectory::BlockState::kModified:
        // Exactly one M copy exists, and no S copies next to it.
        EXPECT_EQ(modified_holders, 1) << "block " << b;
        EXPECT_EQ(holders, 1) << "block " << b;
        break;
      case CoherentDirectory::BlockState::kShared:
        EXPECT_EQ(modified_holders, 0) << "block " << b;
        EXPECT_GE(holders, 1) << "block " << b;
        // The directory may conservatively remember more sharers than
        // currently hold the block (silent-ish eviction windows), never
        // fewer.
        EXPECT_GE(rig.dir->SharerCount(block), static_cast<std::size_t>(holders))
            << "block " << b;
        break;
      case CoherentDirectory::BlockState::kUncached:
        EXPECT_EQ(holders, 0) << "block " << b;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcNumaFuzzTest,
                         ::testing::ValuesIn(CohFuzzCases(CcNumaFuzzConfig())));
// Regression for DESIGN.md §13 bug 11: a full filter used to strand parked
// requests behind free slots until the ports' deadlines failed them.
INSTANTIATE_TEST_SUITE_P(BoundedFilter, CcNumaFuzzTest,
                         ::testing::ValuesIn(CohFuzzCases(BoundedFuzzConfig())));

// ------------------------------ COMA fuzz --------------------------------

class ComaFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComaFuzzTest, CopiesNeverVanishAndWritesLeaveOneCopy) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Engine engine;
  ComaConfig cfg;
  cfg.num_nodes = 4;
  cfg.blocks_per_node = 16;
  ComaSystem coma(&engine, cfg);
  Rng rng(seed);

  constexpr int kBlocks = 40;  // total capacity 64 > blocks: injection works
  for (int b = 0; b < kBlocks; ++b) {
    coma.SeedBlock(static_cast<int>(rng.NextBelow(4)), static_cast<std::uint64_t>(b) * 64);
  }

  int completions = 0;
  constexpr int kOps = 300;
  for (int i = 0; i < kOps; ++i) {
    const int node = static_cast<int>(rng.NextBelow(4));
    const std::uint64_t block = rng.NextBelow(kBlocks) * 64;
    if (rng.NextBool(0.3)) {
      coma.Write(node, block, [&] { ++completions; });
    } else {
      coma.Read(node, block, [&] { ++completions; });
    }
    engine.Run();  // serialize ops: COMA state transitions are synchronous

    // Invariants after every op.
    ASSERT_GE(coma.CopyCount(block), 1) << "op " << i;
    for (int n = 0; n < 4; ++n) {
      ASSERT_LE(coma.NodeOccupancy(n), cfg.blocks_per_node);
    }
  }
  EXPECT_EQ(completions, kOps);

  // Every seeded block still exists somewhere.
  for (int b = 0; b < kBlocks; ++b) {
    EXPECT_GE(coma.CopyCount(static_cast<std::uint64_t>(b) * 64), 1) << "block " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComaFuzzTest, ::testing::Values(2u, 4u, 6u, 10u, 12u));

// ------------------------------ Heap fuzz --------------------------------

class HeapFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapFuzzTest, AccountingStaysConsistentUnderRandomOps) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig ccfg;
  ccfg.num_hosts = 1;
  ccfg.num_fams = 1;
  ccfg.num_faas = 0;
  Cluster cluster(ccfg);
  RuntimeOptions opts;
  opts.heap_local_bytes = 256 * 1024;  // small: allocation pressure
  opts.heap.migration_enabled = true;
  opts.heap.promote_threshold = 0.4;
  UniFabricRuntime runtime(&cluster, opts);
  UnifiedHeap* heap = runtime.heap(0);

  Rng rng(seed);
  std::vector<ObjectId> live;
  const std::uint32_t kSizes[] = {64, 256, 1024, 4096, 65536};

  for (int i = 0; i < 500; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.4 || live.empty()) {
      const ObjectId id = heap->Allocate(kSizes[rng.NextBelow(5)],
                                         rng.NextBool(0.5) ? 0 : 1);
      if (id != kInvalidObject) {
        live.push_back(id);
      }
    } else if (roll < 0.6) {
      const std::size_t idx = rng.NextBelow(live.size());
      heap->Free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    } else if (roll < 0.9) {
      heap->Read(live[rng.NextBelow(live.size())], nullptr);
    } else {
      const ObjectId id = live[rng.NextBelow(live.size())];
      const int dst = heap->TierOf(id) == 0 ? 1 : 0;
      heap->Migrate(id, dst, nullptr);
    }
    if (i % 50 == 0) {
      cluster.engine().Run();
      heap->RunEpoch();
    }
  }
  cluster.engine().Run();

  // Invariant 1: live object spans never overlap within a tier.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> spans(
      static_cast<std::size_t>(heap->num_tiers()));
  for (const ObjectId id : live) {
    const ObjectInfo info = heap->Info(id);
    ASSERT_NE(info.id, kInvalidObject);
    spans[static_cast<std::size_t>(info.tier)].emplace_back(info.addr, info.addr + info.size);
  }
  for (auto& tier_spans : spans) {
    std::sort(tier_spans.begin(), tier_spans.end());
    for (std::size_t i = 1; i < tier_spans.size(); ++i) {
      EXPECT_LE(tier_spans[i - 1].second, tier_spans[i].first);
    }
  }

  // Invariant 2: per-tier used bytes >= sum of live size classes there and
  // never exceeds capacity.
  for (int t = 0; t < heap->num_tiers(); ++t) {
    EXPECT_LE(heap->TierUsed(t), heap->Tier(t).capacity);
  }

  // Invariant 3: stats balance.
  EXPECT_EQ(heap->stats().allocations - heap->stats().frees, live.size());
  EXPECT_EQ(heap->live_objects(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFuzzTest, ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------- Switch-mem translation fuzz -----------------------
//
// Random resolves racing random migration commits against the switch-resident
// memory agent. The protocol contract: every resolved translation is exactly
// one placement the range has ever had (old or new, never a torn mix of
// fields), commits serialized per range always succeed, and at quiescence no
// invalidation is in flight and every cached entry matches the agent's
// authoritative map.

class SwitchMemChurnFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchMemChurnFuzzTest, ResolveSeesOldOrNewTranslationNeverTorn) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig ccfg;
  ccfg.num_hosts = 1;
  ccfg.num_fams = 2;
  ccfg.num_faas = 0;
  ccfg.seed = seed;
  Cluster cluster(ccfg);
  RuntimeOptions opts;
  opts.heap.migration_enabled = false;
  opts.switch_mem = true;
  UniFabricRuntime runtime(&cluster, opts);
  SwitchMemClient* client = runtime.switch_mem_client(0);
  Rng rng(seed * 31 + 3);

  // A handful of ranges, each with its full placement history: every version
  // ever committed, recorded at commit-issue time (the agent applies commits
  // before acking, so a resolve may legally see the new version early).
  struct RangeState {
    Translation current;
    std::vector<Translation> history;
    bool commit_in_flight = false;
    bool released = false;
  };
  constexpr std::uint64_t kBase = 1ULL << 55;  // clear of the heap's va space
  const PbrId nodes[2] = {cluster.fam(0)->id(), cluster.fam(1)->id()};
  std::vector<RangeState> ranges;
  for (int r = 0; r < 6; ++r) {
    RangeState st;
    st.current.vbase = kBase + static_cast<std::uint64_t>(r) * 4096;
    st.current.bytes = 4096;
    st.current.node = nodes[r % 2];
    st.current.addr = 0x10000u + static_cast<std::uint64_t>(r) * 4096;
    st.current.version = 0;
    client->RegisterRange(st.current.vbase, st.current.bytes, st.current.node,
                          st.current.addr);
    st.history.push_back(st.current);
    ranges.push_back(st);
  }

  int resolves_ok = 0;
  int commits_ok = 0;
  for (int i = 0; i < 400; ++i) {
    auto& st = ranges[rng.NextBelow(ranges.size())];
    if (st.released) {
      continue;
    }
    if (rng.NextBool(0.8)) {
      const std::uint64_t vaddr = st.current.vbase + rng.NextBelow(st.current.bytes);
      client->Resolve(vaddr, [&st, &resolves_ok](const Translation& x, bool ok) {
        if (!ok) {
          return;  // released underneath the resolve: a legal fault
        }
        ++resolves_ok;
        bool known = false;
        for (const Translation& h : st.history) {
          if (x.version == h.version && x.node == h.node && x.addr == h.addr &&
              x.vbase == h.vbase && x.bytes == h.bytes) {
            known = true;
            break;
          }
        }
        EXPECT_TRUE(known) << "torn translation: vbase=" << x.vbase
                           << " version=" << x.version << " addr=" << x.addr;
      });
    } else if (!st.commit_in_flight) {
      // Migrate the range to a fresh placement. Commits are serialized per
      // range (the heap's migrating flag does the same), so each must land.
      Translation next = st.current;
      next.node = nodes[rng.NextBelow(2)];
      next.addr = 0x400000u + static_cast<std::uint64_t>(i) * 4096;
      next.version = st.current.version + 1;
      st.current = next;
      st.history.push_back(next);
      st.commit_in_flight = true;
      client->Commit(next, [&st, &commits_ok](bool ok) {
        EXPECT_TRUE(ok);
        st.commit_in_flight = false;
        ++commits_ok;
      });
    }
    if (i % 40 == 0) {
      cluster.engine().Run();
    }
  }
  cluster.engine().Run();

  EXPECT_GT(resolves_ok, 0);
  EXPECT_GT(commits_ok, 0);
  SwitchMemAgent* agent = runtime.switch_mem_agent();
  EXPECT_EQ(agent->pending_invalidations(), 0u);

  // Post-quiescence: every cached entry equals the authoritative placement.
  client->cache()->ForEach([&](const Translation& cached) {
    const Translation truth = agent->Lookup(cached.vbase);
    EXPECT_EQ(cached.version, truth.version) << "vbase " << cached.vbase;
    EXPECT_EQ(cached.addr, truth.addr);
    EXPECT_EQ(cached.node, truth.node);
  });
  EXPECT_TRUE(cluster.engine().audit().Sweep().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchMemChurnFuzzTest,
                         ::testing::Values(5u, 15u, 25u, 35u, 45u));

// -------------------------- Fabric traffic fuzz --------------------------

class FabricFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricFuzzTest, RandomTrafficAlwaysDrainsAndConserves) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.num_fams = 2;
  cfg.num_faas = 1;
  cfg.num_switches = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  Rng rng(seed * 7 + 1);

  int submitted = 0;
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    const int host = static_cast<int>(rng.NextBelow(3));
    const int fam = static_cast<int>(rng.NextBelow(2));
    MemRequest req;
    req.type = rng.NextBool(0.5) ? MemRequest::Type::kRead : MemRequest::Type::kWrite;
    req.addr = rng.NextBelow(1 << 28);
    const std::uint32_t sizes[] = {64, 256, 4096, 16384};
    req.bytes = sizes[rng.NextBelow(4)];
    ++submitted;
    cluster.engine().Schedule(FromNs(50) * rng.NextBelow(2000), [&, host, fam, req] {
      cluster.host(host)->fha()->Submit(cluster.fam(fam)->id(), req, [&] { ++completed; });
    });
  }
  cluster.engine().Run();
  EXPECT_EQ(completed, submitted);

  // Conservation: every adapter finished with empty outstanding tables.
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(cluster.host(h)->fha()->Outstanding(), 0u);
    EXPECT_EQ(cluster.host(h)->fha()->QueuedRequests(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricFuzzTest, ::testing::Values(100u, 200u, 300u, 400u));

// -------------------------- Fault campaign fuzz ---------------------------
//
// Random eTrans traffic under a random (but always-healing) fault campaign.
// The recovery contract: every observed future reaches a terminal state (ok
// or aborted, never wedged), and at quiescence every fabric link accounts
// for each accepted flit as either delivered or dropped-by-failure.

class FaultCampaignFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultCampaignFuzzTest, NoWedgedFuturesAndFlitsConserved) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.num_fams = 2;
  cfg.num_faas = 0;
  cfg.num_switches = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  UniFabricRuntime runtime(&cluster, RuntimeOptions{});
  Rng rng(seed * 13 + 5);

  FaultScheduler faults(&cluster.engine(), &cluster.fabric());
  std::string plan;
  for (int f = 0; f < 2; ++f) {
    const std::string name = "fam" + std::to_string(f);
    faults.RegisterLink(name, cluster.fabric().LinkTo(cluster.fam(f)->id()));
    // One or two outages per link; every outage heals well before the
    // traffic's retry budget runs out, and nothing stays down at the end.
    const int cycles = 1 + static_cast<int>(rng.NextBelow(2));
    for (int c = 0; c < cycles; ++c) {
      const std::uint64_t down_at = 50 + c * 1200 + rng.NextBelow(700);
      const std::uint64_t up_at = down_at + 100 + rng.NextBelow(300);
      plan += "fail " + name + " @" + std::to_string(down_at) + "\n";
      plan += "recover " + name + " @" + std::to_string(up_at) + "\n";
    }
  }
  const FaultPlan parsed = FaultPlan::Parse(plan);
  ASSERT_TRUE(parsed.ok());
  faults.Schedule(parsed);

  // Random host->FAM transfers across the campaign window. Only ownership
  // modes whose futures are *supposed* to resolve participate (kExecutor is
  // fire-and-forget toward the initiator by design).
  std::vector<TransferFuture> futures;
  constexpr int kTransfers = 40;
  for (int i = 0; i < kTransfers; ++i) {
    const int host = static_cast<int>(rng.NextBelow(2));
    const int fam = static_cast<int>(rng.NextBelow(2));
    ETransDescriptor d;
    const std::uint64_t bytes = 4096u << rng.NextBelow(4);  // 4K..32K
    d.src = {Segment{cluster.host(host)->id(), rng.NextBelow(1 << 24), bytes}};
    d.dst = {Segment{cluster.fam(fam)->id(), rng.NextBelow(1 << 24), bytes}};
    d.ownership = Ownership::kInitiator;
    d.immediate = rng.NextBool(0.5);
    d.attributes.throttled = rng.NextBool(0.4);
    cluster.engine().Schedule(FromUs(1.0) * rng.NextBelow(2500), [&, host, d] {
      futures.push_back(runtime.etrans()->Submit(runtime.host_agent(host), d));
    });
  }
  cluster.engine().Run();

  // No wedged futures: each one is terminal — completed or aborted.
  ASSERT_EQ(futures.size(), static_cast<std::size_t>(kTransfers));
  int resolved_ok = 0;
  for (const TransferFuture& f : futures) {
    ASSERT_TRUE(f.Ready());
    if (f.Value().ok) {
      ++resolved_ok;
      EXPECT_EQ(f.Value().status, TransferStatus::kOk);
    } else {
      EXPECT_EQ(f.Value().status, TransferStatus::kAborted);
    }
  }
  // The campaign always heals, so traffic is never extinguished entirely.
  EXPECT_GT(resolved_ok, 0);

  // Flit conservation at quiescence, per link direction.
  for (const auto& link : cluster.fabric().links()) {
    for (int side = 0; side < 2; ++side) {
      const LinkStats& s = link->stats(side);
      EXPECT_EQ(s.flits_accepted, s.flits_delivered + s.dropped_on_fail)
          << link->name() << " side " << side;
    }
  }

  // Both MSHR pools drained (nothing stranded by the black-hole windows).
  for (int h = 0; h < 2; ++h) {
    EXPECT_EQ(cluster.host(h)->fha()->Outstanding(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultCampaignFuzzTest,
                         ::testing::Values(7u, 17u, 27u, 37u, 47u, 57u));

}  // namespace
}  // namespace unifab
