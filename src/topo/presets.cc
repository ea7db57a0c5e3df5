#include "src/topo/presets.h"

#include <limits>

namespace unifab {

HierarchyConfig OmegaHostHierarchy() {
  HierarchyConfig cfg;
  cfg.l1 = CacheConfig{32 * 1024, 64, 8};
  cfg.l2 = CacheConfig{1 * 1024 * 1024, 64, 16};
  cfg.has_llc = false;  // the Omega host is a small ARM complex: L1 + L2
  cfg.l1_latency = FromNs(5.4);
  cfg.l2_latency = FromNs(8.2);     // 5.4 + 8.2 = 13.6 ns L2 hit
  cfg.mem_ctrl_latency = FromNs(35.6);
  cfg.l1_interval = FromNs(2.8);    // 357 MOPS
  cfg.l2_interval = FromNs(6.9);    // 145 MOPS
  cfg.mshrs = 4;                    // local: 4/111.7ns ~ 35 MOPS; remote: 4/1575ns ~ 2.5 MOPS
  return cfg;
}

DramConfig OmegaLocalDram() {
  DramConfig cfg;
  cfg.capacity_bytes = 16ULL << 30;
  cfg.num_banks = 16;
  cfg.access_latency = FromNs(60.0);
  cfg.bandwidth_gbps = 25.6;  // 64B transfer ~ 2.5 ns
  // Local 64B read: 5.4 + 8.2 + 35.6 + 60 + 2.5 = 111.7 ns.
  return cfg;
}

AdapterConfig OmegaHostAdapter() {
  AdapterConfig cfg;
  cfg.request_proc_latency = FromNs(400.0);   // FPGA-based FHA protocol conversion
  cfg.response_proc_latency = FromNs(365.0);
  cfg.max_outstanding = 16;
  cfg.flit_mode = FlitMode::k68B;
  return cfg;
}

AdapterConfig OmegaEndpointAdapter() {
  AdapterConfig cfg;
  cfg.request_proc_latency = FromNs(350.0);
  cfg.response_proc_latency = FromNs(50.0);
  cfg.max_outstanding = 64;
  cfg.flit_mode = FlitMode::k68B;
  return cfg;
}

LinkConfig OmegaLink() {
  LinkConfig cfg;
  cfg.gigatransfers_per_sec = 32.0;  // CXL 2.0
  cfg.lanes = 16;                    // 64 GB/s; a 68B flit serializes in ~1.06 ns
  cfg.flit_mode = FlitMode::k68B;
  cfg.propagation = FromNs(50.0);    // cable + retimers per traversal
  cfg.credits_per_vc = 8;
  cfg.credit_return_latency = FromNs(50.0);
  cfg.tx_queue_depth = 64;
  return cfg;
}

SwitchConfig FabrexSwitch() {
  SwitchConfig cfg;
  cfg.port_latency = FromNs(90.0);  // FabreX quotes <100 ns non-blocking
  cfg.virtual_output_queues = true;
  cfg.arbitration = SwitchArbitration::kRoundRobin;
  cfg.credit_alloc = CreditAllocPolicy::kStatic;
  return cfg;
}

// Unloaded 64B remote read budget through one switch:
//   13.6 (L1+L2 probes) + 400 (FHA req) + 4 x (1.06 + 50) (two links, both
//   directions) + 2 x 90 (switch) + 350 (FEA) + 60 + 2.5 (rDIMM) + 365
//   (FHA resp) ~ 1575 ns.

CoherentConfig CcNumaDirectory() {
  CoherentConfig cfg;
  cfg.port_cache = CacheConfig{256 * 1024, 64, 8};
  cfg.max_tracked_blocks = std::numeric_limits<std::uint32_t>::max();
  cfg.max_sharers = std::numeric_limits<std::uint32_t>::max();
  cfg.ack_deadline = 0;
  cfg.txn_deadline = 0;
  return cfg;
}

HostConfig OmegaHost() {
  HostConfig cfg;
  cfg.num_cores = 4;
  cfg.hierarchy = OmegaHostHierarchy();
  cfg.local_dram = OmegaLocalDram();
  cfg.fha = OmegaHostAdapter();
  return cfg;
}

FamChassisConfig OmegaFam() {
  FamChassisConfig cfg;
  cfg.rdimm = OmegaLocalDram();
  cfg.rdimm.capacity_bytes = 64ULL << 30;  // six E3.S modules per chassis
  cfg.fea = OmegaEndpointAdapter();
  return cfg;
}

FaaChassisConfig OmegaFaa() {
  FaaChassisConfig cfg;
  cfg.accelerator = AcceleratorConfig{};
  cfg.scratch = OmegaLocalDram();
  cfg.scratch.capacity_bytes = 8ULL << 30;
  cfg.fea = OmegaEndpointAdapter();
  return cfg;
}

}  // namespace unifab
