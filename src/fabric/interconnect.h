// FabricInterconnect: owns the switches, adapters, and links of one memory
// fabric and plays the role of the central fabric manager (paper §2.1): it
// discovers the topology, assigns 12-bit PBR ids, and fills every switch's
// routing table (exact PBR routes inside a domain, HBR default routes toward
// foreign domains).

#ifndef SRC_FABRIC_INTERCONNECT_H_
#define SRC_FABRIC_INTERCONNECT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fabric/adapter.h"
#include "src/fabric/bridge.h"
#include "src/fabric/flit.h"
#include "src/fabric/link.h"
#include "src/fabric/switch.h"
#include "src/sim/engine.h"

namespace unifab {

class FabricInterconnect {
 public:
  // `seed` feeds per-link error-injection RNGs.
  FabricInterconnect(Engine* engine, std::uint64_t seed);

  FabricInterconnect(const FabricInterconnect&) = delete;
  FabricInterconnect& operator=(const FabricInterconnect&) = delete;

  // --- Topology construction -------------------------------------------

  FabricSwitch* AddSwitch(const SwitchConfig& config, const std::string& name,
                          std::uint16_t domain = 0);

  // Adapters get PBR ids assigned sequentially within their domain.
  HostAdapter* AddHostAdapter(const AdapterConfig& config, const std::string& name,
                              std::uint16_t domain = 0);
  EndpointAdapter* AddEndpointAdapter(const AdapterConfig& config, const std::string& name,
                                      FabricTarget* target, std::uint16_t domain = 0);

  // Wires two components with a full-duplex link. Switch-to-switch links
  // crossing domains are HBR links; everything else is PBR.
  Link* Connect(FabricSwitch* a, FabricSwitch* b, const LinkConfig& config);
  Link* Connect(FabricSwitch* sw, AdapterBase* adapter, const LinkConfig& config);
  // Switchless point-to-point attachment (e.g. a CXL 1.1 direct-attach
  // memory expander).
  Link* ConnectDirect(AdapterBase* a, AdapterBase* b, const LinkConfig& config);
  // Wires two pod gateway switches with an Ethernet bridge (DESIGN.md §11):
  // its own flow-control window, frame loss with retransmit, microsecond
  // propagation. Bridges between pods are HBR links like any cross-domain
  // switch trunk; routing and faults treat them as links.
  BridgeLink* ConnectBridge(FabricSwitch* a, FabricSwitch* b, const BridgeConfig& config);

  // --- Fabric-manager duties -------------------------------------------

  // Runs discovery and fills all routing tables. Must be called after the
  // topology is wired and before traffic flows; may be called again after
  // topology changes. Failed links are treated as absent, so calling this
  // after Link::Fail() re-routes around the failure (when redundant paths
  // exist). Existing tables are rebuilt from scratch.
  void ConfigureRouting();

  // --- Lookup / introspection ------------------------------------------

  AdapterBase* AdapterById(PbrId id) const;
  // The (single) link wired to an adapter's fabric port; nullptr when the
  // adapter is unknown or unwired. Fault campaigns use this to fail the edge
  // an endpoint hangs off without threading Link pointers through topology
  // construction.
  Link* LinkTo(PbrId adapter_id) const;
  const std::vector<std::unique_ptr<FabricSwitch>>& switches() const { return switches_; }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  std::size_t num_adapters() const { return adapters_.size(); }
  std::size_t num_links() const { return links_.size(); }
  std::size_t num_hbr_links() const { return hbr_links_; }
  std::size_t num_bridge_links() const { return bridge_links_; }

  // Number of switch hops between two adapters (after ConfigureRouting);
  // -1 when unreachable.
  int HopCount(PbrId from, PbrId to) const;

  // Human-readable topology dump used by the Figure-1 bench.
  std::string TopologyToString() const;

  Engine* engine() const { return engine_; }

 private:
  // Graph node: either a switch (adapter == nullptr) or an adapter.
  struct Edge {
    int peer;    // node index at the far end
    int port;    // port index on THIS node
    Link* link;  // the physical link (may be failed)
  };

  struct Node {
    FabricSwitch* sw = nullptr;
    AdapterBase* adapter = nullptr;
    std::uint16_t domain = 0;
    std::vector<Edge> edges;
  };

  int NodeIndexOf(const void* component) const;
  int AddNode(FabricSwitch* sw, AdapterBase* adapter, std::uint16_t domain);
  void AddEdge(int a, int port_a, int b, int port_b, Link* link);
  PbrId AllocatePbrId(std::uint16_t domain);

  Engine* engine_;
  std::uint64_t seed_;
  std::uint64_t link_counter_ = 0;

  std::vector<std::unique_ptr<FabricSwitch>> switches_;
  std::vector<std::unique_ptr<AdapterBase>> adapters_;
  std::vector<std::unique_ptr<Link>> links_;

  std::vector<Node> nodes_;
  std::unordered_map<const void*, int> node_index_;
  std::unordered_map<PbrId, AdapterBase*> by_id_;
  std::unordered_map<std::uint16_t, std::uint16_t> next_port_in_domain_;
  std::size_t hbr_links_ = 0;
  std::size_t bridge_links_ = 0;
  bool routed_ = false;
};

}  // namespace unifab

#endif  // SRC_FABRIC_INTERCONNECT_H_
