// Pod: the cluster-of-clusters building block for hierarchical scale-out
// (DESIGN.md §11, DFabric in PAPERS.md).
//
// A pod is one CXL island — its own PBR domain — containing hosts, FAM
// chassis, FAA chassis, and gateway/leaf switches. Pods are joined by
// Ethernet BridgeLinks between their gateway switches: a single trunk for
// two pods, a ring for three or more so routing has a redundant inter-pod
// path to fail over to. `Cluster` builds pods when
// `ClusterConfig::num_pods > 1`; the flat accessors (host(i), fam(i), ...)
// keep working over the concatenated per-pod component lists, so the
// runtime stack needs no changes to span pods.

#ifndef SRC_TOPO_POD_H_
#define SRC_TOPO_POD_H_

#include <cstdint>
#include <vector>

namespace unifab {

class FabricSwitch;

// Contents of one pod. When ClusterConfig::num_pods > 1, every pod is
// stamped from this (the flat top-level counts are ignored).
struct PodConfig {
  int num_hosts = 2;
  int num_fams = 1;
  int num_faas = 1;
  int num_switches = 1;  // chained linearly inside the pod
};

// A view over one pod of a hierarchical Cluster: global component indices
// (usable with Cluster::host(i) etc.) plus the gateway switch bridges
// attach to. Owned and populated by Cluster.
struct Pod {
  int index = 0;  // == the PBR domain of every component in the pod
  std::vector<int> hosts;
  std::vector<int> fams;
  std::vector<int> faas;
  std::vector<int> switches;
  FabricSwitch* gateway = nullptr;
};

}  // namespace unifab

#endif  // SRC_TOPO_POD_H_
