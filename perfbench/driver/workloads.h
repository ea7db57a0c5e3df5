// The benchmark's workloads: topology, population and a seeded open-loop
// op schedule for each. See perfbench/README.md for why each one exists.
//
// A schedule is generated entirely from the seed before any simulator
// object is built, so the program under test receives only these inputs.
// Every op carries the simulated tick it is due at; the driver fires it at
// exactly that tick and times it from there.

#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/sim/time.h"
#include "src/topo/cluster.h"

namespace perfbench {

using unifab::Tick;

enum class OpKind : std::uint8_t {
  kGoldETrans,   // tenant_storm foreground: guaranteed-class host->FAM eTrans
  kStormETrans,  // tenant_storm background: best-effort bursts
  kHeapRead,     // heap_zipf foreground
  kHeapWrite,    // heap_zipf foreground
  kAllReduce,    // pod_allreduce foreground: cross-pod AllReduce
  kBgETrans,     // pod_allreduce background: intra-pod host->FAM eTrans
};
inline constexpr int kNumOpKinds = 6;

const char* OpKindName(OpKind kind);
bool IsForeground(OpKind kind);

struct Op {
  Tick due = 0;
  OpKind kind = OpKind::kGoldETrans;
  std::uint32_t src = 0;    // eTrans: tenant id; heap: host; AllReduce: rotation slot
  std::uint32_t dst = 0;    // eTrans: FAM index; heap: object index
  std::uint32_t bytes = 0;  // payload the op moves when it completes
};

enum class WorkloadId { kTenantStorm, kHeapZipf, kPodAllReduce };

struct Workload {
  WorkloadId id;
  const char* name;
  double limit_us;  // foreground latency limit (perfbench/README.md)
  Tick horizon;     // arrivals are due in [0, horizon)
};

// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

// The op schedule for `seed`, sorted by due tick (ties keep stream order).
std::vector<Op> MakeSchedule(const Workload& w, std::uint64_t seed);

unifab::ClusterConfig ClusterFor(const Workload& w);
unifab::RuntimeOptions RuntimeFor(const Workload& w);

// tenant_storm: every tenant's lease ask, and the guaranteed class's
// per-tenant budget (E-TEN's storm leg).
inline constexpr double kTenantRequestMbps = 4000.0;

// heap_zipf population: objects per host heap and their size.
inline constexpr std::uint32_t kHeapObjects = 131072;
inline constexpr std::uint32_t kHeapObjectBytes = 256;

// pod_allreduce: AllReduce groups take one FAA per pod; slot k uses every
// pod's k-th FAA, and consecutive AllReduces rotate through the slots.
inline constexpr int kPodFaas = 4;

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
