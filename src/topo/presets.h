// Calibrated configuration presets.
//
// OmegaTestbed*() presets are tuned so the simulated composable
// infrastructure reproduces the measurements the paper reports from the
// IntelliProp Omega Fabric testbed (Table 2) and the GigaIO FabreX numbers
// quoted in §3 Difference #3. See EXPERIMENTS.md for the calibration table.

#ifndef SRC_TOPO_PRESETS_H_
#define SRC_TOPO_PRESETS_H_

#include "src/fabric/link.h"
#include "src/fabric/switch.h"
#include "src/mem/coherent.h"
#include "src/mem/dram.h"
#include "src/mem/hierarchy.h"
#include "src/topo/chassis.h"
#include "src/topo/host.h"

namespace unifab {

// Host core + caches matching Table 2's local rows:
//   L1 hit 5.4 ns / 357 MOPS, L2 hit 13.6 ns / 143 MOPS,
//   local DRAM 111.7 ns / ~30 MOPS (MLP-bound, 4 MSHRs).
HierarchyConfig OmegaHostHierarchy();

// Local DIMM behind the host memory controller.
DramConfig OmegaLocalDram();

// FHA/FEA processing latencies tuned so an unloaded 64B remote read through
// one switch lands at ~1575 ns (Table 2 remote row).
AdapterConfig OmegaHostAdapter();
AdapterConfig OmegaEndpointAdapter();

// CXL 2.0-like x16 link.
LinkConfig OmegaLink();

// FabreX-like switch: <100 ns per-port latency.
SwitchConfig FabrexSwitch();

// Fabric-attached CC-NUMA memory node (§3 Difference #2): the coherent
// directory with a 256 KiB / 8-way port cache, an unbounded full-map
// filter and no deadlines.
CoherentConfig CcNumaDirectory();

// Bundles.
HostConfig OmegaHost();
FamChassisConfig OmegaFam();
FaaChassisConfig OmegaFaa();

}  // namespace unifab

#endif  // SRC_TOPO_PRESETS_H_
