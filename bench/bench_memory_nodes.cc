// N1: §3 Difference #2 — the eclectic memory-node types. Characterizes the
// four fabric-attached node flavors under single-owner and shared access so
// the unified heap's placement cost model (DP#2) has measured inputs:
//   * CPU-less NUMA expander (CXL Type 3),
//   * CC-NUMA with a hardware directory,
//   * non-CC NUMA with software coherence,
//   * COMA attraction memory.

#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/coherent.h"
#include "src/mem/coma.h"
#include "src/mem/expander.h"
#include "src/mem/noncc.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

// Measures one async op's latency in ns.
template <typename F>
double Measure(Engine& engine, F&& op) {
  const Tick t0 = engine.Now();
  bool done = false;
  op([&] { done = true; });
  engine.Run();
  return done ? ToNs(engine.Now() - t0) : -1.0;
}

BenchReport* g_report = nullptr;

void Row(const char* node, const char* op, double ns, const char* note) {
  std::printf("%-16s %-30s %10.1f   %s\n", node, op, ns, note);
  if (g_report != nullptr) {
    std::string key = std::string(node) + "/" + op;
    for (char& c : key) {
      if (c == ' ') {
        c = '_';
      }
    }
    g_report->Note(key, ns);
  }
}

// Shared fixture: two hosts + FAM directory node on one switch. The whole
// node is one coherent window.
struct CoherentRig {
  Engine engine;
  FabricInterconnect fabric{&engine, 21};
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<MemoryExpander> expander;
  std::unique_ptr<MessageDispatcher> fea_dispatch;
  std::unique_ptr<CoherentDirectory> dir;
  std::unique_ptr<MessageDispatcher> host_dispatch[2];
  std::unique_ptr<CoherentPort> port[2];

  CoherentRig() {
    auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "fam");
    expander = std::make_unique<MemoryExpander>(&engine, dram.get(), "exp");
    expander->CreateCoherentWindow(dram->config().capacity_bytes);
    AdapterConfig fea_cfg = OmegaEndpointAdapter();
    fea_cfg.request_proc_latency = FromNs(50);
    auto* fea = fabric.AddEndpointAdapter(fea_cfg, "fea", expander.get());
    fabric.Connect(sw, fea, OmegaLink());
    fea_dispatch = std::make_unique<MessageDispatcher>(fea);

    const CoherentConfig cfg = CcNumaDirectory();
    dir = std::make_unique<CoherentDirectory>(&engine, cfg, fea_dispatch.get(), expander.get(),
                                              "dir");
    for (int i = 0; i < 2; ++i) {
      AdapterConfig fha = OmegaHostAdapter();
      fha.request_proc_latency = FromNs(50);
      fha.response_proc_latency = FromNs(50);
      auto* adapter = fabric.AddHostAdapter(fha, "h" + std::to_string(i));
      fabric.Connect(sw, adapter, OmegaLink());
      host_dispatch[i] = std::make_unique<MessageDispatcher>(adapter);
      port[i] = std::make_unique<CoherentPort>(&engine, cfg, host_dispatch[i].get(), dir.get(),
                                               "p" + std::to_string(i));
    }
    fabric.ConfigureRouting();
  }
};

void CpuLessNuma() {
  // Plain expander access == Table 2 remote row; shared mode adds the
  // device-side serialization cost under conflicting access.
  Engine engine;
  DramDevice dram(&engine, OmegaLocalDram(), "d");
  MemoryExpander exp(&engine, &dram, "exp");
  exp.CreateSharedRegion(1 << 20);

  const double solo = Measure(engine, [&](auto done) { exp.HandleRead(0, 64, done); });
  Row("CPU-less NUMA", "device read (no fabric)", solo, "plus ~1513 ns fabric path = Table 2");

  // Conflicting same-line writes from two hosts: second serializes.
  Tick first = 0;
  Tick second = 0;
  exp.HandleWrite(64, 64, [&] { first = engine.Now(); });
  exp.HandleWrite(64, 64, [&] { second = engine.Now(); });
  engine.Run();
  Row("CPU-less NUMA", "shared-line conflict penalty", ToNs(second - first),
      "FEA serializes; no processor on the node");
}

void CcNuma() {
  {
    CoherentRig rig;
    const double miss =
        Measure(rig.engine, [&](auto done) { rig.port[0]->Read(0x1000, done); });
    Row("CC-NUMA", "read miss (uncached block)", miss, "GetS -> home -> Data");
    const double hit =
        Measure(rig.engine, [&](auto done) { rig.port[0]->Read(0x1000, done); });
    Row("CC-NUMA", "read hit (S in port cache)", hit, "hardware coherence is free on hits");
  }
  {
    CoherentRig rig;
    rig.port[0]->Read(0x2000);
    rig.port[1]->Read(0x2000);
    rig.engine.Run();
    const double upgrade =
        Measure(rig.engine, [&](auto done) { rig.port[0]->Write(0x2000, done); });
    Row("CC-NUMA", "S->M upgrade (1 sharer inval)", upgrade, "GetM + Inv + InvAck + DataM");
  }
  {
    CoherentRig rig;
    rig.port[0]->Write(0x3000);
    rig.engine.Run();
    Summary pingpong;
    for (int round = 0; round < 6; ++round) {
      pingpong.Add(Measure(rig.engine, [&](auto done) {
        rig.port[round % 2]->Write(0x3000, done);
      }));
    }
    Row("CC-NUMA", "write ping-pong (recall path)", pingpong.Mean(),
        "ownership bounces host<->host via home");
  }
}

void NonCc() {
  Engine engine;
  FabricInterconnect fabric(&engine, 31);
  auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
  DramDevice dram(&engine, OmegaLocalDram(), "fam");
  auto* fea = fabric.AddEndpointAdapter(OmegaEndpointAdapter(), "fea", &dram);
  fabric.Connect(sw, fea, OmegaLink());
  auto* fha = fabric.AddHostAdapter(OmegaHostAdapter(), "h0");
  fabric.Connect(sw, fha, OmegaLink());
  SharedStateOracle oracle;
  NonCcPort port(&engine, NonCcConfig{}, fha, fea->id(), &oracle, "p0");
  fabric.ConfigureRouting();

  const double miss = Measure(engine, [&](auto done) {
    port.Read(0, [done](bool) { done(); });
  });
  Row("non-CC NUMA", "read miss (fetch)", miss, "same path as expander; software manages");
  const double hit = Measure(engine, [&](auto done) {
    port.Read(0, [done](bool) { done(); });
  });
  Row("non-CC NUMA", "read hit (software cache)", hit, "cheap, but may be stale");
  const double write = Measure(engine, [&](auto done) { port.Write(0, done); });
  Row("non-CC NUMA", "write (buffered local)", write, "remote unaware until flush");
  const double flush = Measure(engine, [&](auto done) { port.FlushBlock(0, done); });
  Row("non-CC NUMA", "explicit flush", flush, "software pays coherence on demand");
}

void Coma() {
  Engine engine;
  ComaConfig cfg;
  cfg.num_nodes = 8;
  cfg.blocks_per_node = 512;
  ComaSystem coma(&engine, cfg);
  coma.SeedBlock(1, 0x0);    // sibling of node 0
  coma.SeedBlock(7, 0x40);   // farthest subtree from node 0

  const double near_miss =
      Measure(engine, [&](auto done) { coma.Read(0, 0x0, done); });
  Row("COMA", "read miss, sibling holder", near_miss, "replicates; 2 directory hops");
  const double hit = Measure(engine, [&](auto done) { coma.Read(0, 0x0, done); });
  Row("COMA", "attraction-memory hit", hit, "block migrated toward its user");
  const double far_miss =
      Measure(engine, [&](auto done) { coma.Read(0, 0x40, done); });
  Row("COMA", "read miss, far holder", far_miss, "6 directory hops up+down the tree");
  const double write_mig =
      Measure(engine, [&](auto done) { coma.Write(2, 0x0, done); });
  Row("COMA", "write (migrate + invalidate)", write_mig,
      "kills replicas; block moves to writer");
}

}  // namespace
}  // namespace unifab

int main() {
  using namespace unifab;
  PrintHeader("N1", "§3 Difference #2 (memory node types)",
              "measured access characteristics of the four fabric memory-node flavors");
  std::printf("%-16s %-30s %10s   %s\n", "node type", "operation", "ns", "notes");
  std::printf("%s\n", std::string(100, '-').c_str());
  BenchReport report("memory_nodes");
  g_report = &report;
  CpuLessNuma();
  CcNuma();
  NonCc();
  Coma();
  g_report = nullptr;
  report.WriteJson();
  std::printf("\n(these are the placement-cost inputs DP#2's heap uses: hardware coherence "
              "buys transparent sharing at recall/invalidate cost; software coherence is "
              "cheap but unsafe; COMA chases locality automatically)\n");
  PrintFooter();
  return 0;
}
