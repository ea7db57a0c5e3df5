// Cluster construction sweeps and component smoke tests: every generated
// topology must be fully routable and serve remote traffic, across host /
// chassis / switch counts.

#include "src/topo/cluster.h"

#include <gtest/gtest.h>

#include <tuple>

#include "src/fabric/registry.h"
#include "src/mem/memnode.h"
#include "src/topo/accelerator.h"

namespace unifab {
namespace {

using Shape = std::tuple<int, int, int, int>;  // hosts, fams, faas, switches

class ClusterShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ClusterShapeTest, EveryHostReachesEveryChassis) {
  const auto [hosts, fams, faas, switches] = GetParam();
  ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_fams = fams;
  cfg.num_faas = faas;
  cfg.num_switches = switches;
  Cluster cluster(cfg);

  for (int h = 0; h < hosts; ++h) {
    for (int f = 0; f < fams; ++f) {
      EXPECT_GT(cluster.fabric().HopCount(cluster.host(h)->id(), cluster.fam(f)->id()), 0);
    }
    for (int a = 0; a < faas; ++a) {
      EXPECT_GT(cluster.fabric().HopCount(cluster.host(h)->id(), cluster.faa(a)->id()), 0);
    }
  }
}

TEST_P(ClusterShapeTest, RemoteReadWorksFromEveryHostToEveryFam) {
  const auto [hosts, fams, faas, switches] = GetParam();
  ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_fams = fams;
  cfg.num_faas = faas;
  cfg.num_switches = switches;
  Cluster cluster(cfg);

  int done = 0;
  int expected = 0;
  for (int h = 0; h < hosts; ++h) {
    for (int f = 0; f < fams; ++f) {
      ++expected;
      cluster.host(h)->core(0)->Access(cluster.FamBase(f), false, [&done] { ++done; });
    }
  }
  cluster.engine().Run();
  EXPECT_EQ(done, expected);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ClusterShapeTest,
                         ::testing::Values(Shape{1, 1, 0, 1}, Shape{2, 1, 1, 1},
                                           Shape{4, 2, 2, 1}, Shape{2, 2, 1, 2},
                                           Shape{3, 3, 3, 3}, Shape{8, 4, 2, 2}));

TEST(ClusterTest, FamBasesAreDisjoint) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.num_fams = 3;
  cfg.num_faas = 0;
  Cluster cluster(cfg);
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      const std::uint64_t a = cluster.FamBase(i);
      const std::uint64_t b = cluster.FamBase(j);
      EXPECT_GE(b > a ? b - a : a - b, cfg.fam_stride);
    }
  }
}

TEST(ClusterTest, PbrIdsAreUniqueAcrossComponents) {
  ClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.num_fams = 2;
  cfg.num_faas = 2;
  Cluster cluster(cfg);
  std::set<PbrId> ids;
  for (int h = 0; h < 3; ++h) {
    ids.insert(cluster.host(h)->id());
  }
  for (int f = 0; f < 2; ++f) {
    ids.insert(cluster.fam(f)->id());
  }
  for (int a = 0; a < 2; ++a) {
    ids.insert(cluster.faa(a)->id());
  }
  EXPECT_EQ(ids.size(), 7u);
}

// ---------------------------- Accelerator --------------------------------

TEST(AcceleratorTest, ParallelEnginesOverlapKernels) {
  Engine engine;
  AcceleratorConfig cfg;
  cfg.num_engines = 2;
  cfg.context_switch_latency = FromNs(100);
  cfg.kernel_launch_overhead = FromNs(100);
  Accelerator acc(&engine, cfg, "a");

  int done = 0;
  for (int i = 0; i < 4; ++i) {
    acc.Execute(FromUs(10), [&] { ++done; });
  }
  EXPECT_EQ(acc.EnginesBusy(), 2);
  EXPECT_EQ(acc.QueuedKernels(), 2u);
  engine.Run();
  EXPECT_EQ(done, 4);
  // 4 kernels, 2 engines -> 2 waves of ~10.2 us.
  EXPECT_NEAR(ToUs(engine.Now()), 20.4, 0.5);
}

TEST(AcceleratorTest, FailDropsEverythingSilently) {
  Engine engine;
  Accelerator acc(&engine, AcceleratorConfig{}, "a");
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    acc.Execute(FromUs(10), [&] { ++done; });
  }
  acc.Fail();
  engine.Run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(acc.stats().kernels_dropped, 6u);
  // Work submitted while failed is dropped too.
  acc.Execute(FromUs(1), [&] { ++done; });
  engine.Run();
  EXPECT_EQ(done, 0);

  acc.Recover();
  acc.Execute(FromUs(1), [&] { ++done; });
  engine.Run();
  EXPECT_EQ(done, 1);
}

TEST(AcceleratorTest, QueueDepthBoundsBacklog) {
  Engine engine;
  AcceleratorConfig cfg;
  cfg.num_engines = 1;
  cfg.queue_depth = 2;
  Accelerator acc(&engine, cfg, "a");
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    acc.Execute(FromUs(1), [&] { ++done; });
  }
  engine.Run();
  // 1 running + 2 queued admitted at each drain step; with synchronous
  // submission only 3 are admitted before overflow.
  EXPECT_EQ(done, 3);
  EXPECT_EQ(acc.stats().kernels_dropped, 7u);
}

// ------------------------------ Registry ---------------------------------

TEST(RegistryTest, ContainsTheFourPaperFabrics) {
  ASSERT_EQ(CommodityFabrics().size(), 4u);
  EXPECT_NE(FindFabric("CXL"), nullptr);
  EXPECT_NE(FindFabric("Gen-Z"), nullptr);
  EXPECT_NE(FindFabric("CCIX"), nullptr);
  EXPECT_NE(FindFabric("CAPI/OpenCAPI"), nullptr);
  EXPECT_EQ(FindFabric("Ethernet"), nullptr);
}

TEST(RegistryTest, MergedFabricsAreFlagged) {
  EXPECT_TRUE(FindFabric("Gen-Z")->merged_into_cxl);
  EXPECT_TRUE(FindFabric("CAPI/OpenCAPI")->merged_into_cxl);
  EXPECT_FALSE(FindFabric("CXL")->merged_into_cxl);
}

TEST(RegistryTest, TableRendersEveryRow) {
  const std::string table = FabricTableToString();
  for (const auto& spec : CommodityFabrics()) {
    EXPECT_NE(table.find(spec.interconnect), std::string::npos);
  }
}

// ------------------------------ Memnode ----------------------------------

TEST(MemnodeTest, NamesAndDescriptions) {
  EXPECT_STREQ(MemoryNodeTypeName(MemoryNodeType::kCpuLessNuma), "CPU-less-NUMA");
  EXPECT_STREQ(MemoryNodeTypeName(MemoryNodeType::kComa), "COMA");
  MemoryNodeCaps caps;
  caps.type = MemoryNodeType::kCcNuma;
  caps.capacity_bytes = 64ULL << 20;
  caps.hardware_coherent = true;
  const std::string s = CapsToString(caps);
  EXPECT_NE(s.find("CC-NUMA"), std::string::npos);
  EXPECT_NE(s.find("64MiB"), std::string::npos);
  EXPECT_NE(s.find("hw"), std::string::npos);
}

}  // namespace
}  // namespace unifab
