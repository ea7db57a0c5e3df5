#include "src/fabric/interconnect.h"

#include <cassert>
#include <deque>
#include <sstream>

namespace unifab {

FabricInterconnect::FabricInterconnect(Engine* engine, std::uint64_t seed)
    : engine_(engine), seed_(seed) {}

int FabricInterconnect::AddNode(FabricSwitch* sw, AdapterBase* adapter, std::uint16_t domain) {
  const int idx = static_cast<int>(nodes_.size());
  Node n;
  n.sw = sw;
  n.adapter = adapter;
  n.domain = domain;
  nodes_.push_back(std::move(n));
  node_index_[sw != nullptr ? static_cast<const void*>(sw) : static_cast<const void*>(adapter)] =
      idx;
  return idx;
}

int FabricInterconnect::NodeIndexOf(const void* component) const {
  auto it = node_index_.find(component);
  assert(it != node_index_.end() && "component not part of this fabric");
  return it->second;
}

PbrId FabricInterconnect::AllocatePbrId(std::uint16_t domain) {
  std::uint16_t& next = next_port_in_domain_[domain];
  assert(next <= kPbrIdMask && "domain PBR space exhausted (4096 edge ports)");
  return MakePbrId(domain, next++);
}

FabricSwitch* FabricInterconnect::AddSwitch(const SwitchConfig& config, const std::string& name,
                                            std::uint16_t domain) {
  switches_.push_back(std::make_unique<FabricSwitch>(engine_, config, name));
  FabricSwitch* sw = switches_.back().get();
  AddNode(sw, nullptr, domain);
  routed_ = false;
  return sw;
}

HostAdapter* FabricInterconnect::AddHostAdapter(const AdapterConfig& config,
                                                const std::string& name, std::uint16_t domain) {
  const PbrId id = AllocatePbrId(domain);
  auto adapter = std::make_unique<HostAdapter>(engine_, config, id, name);
  HostAdapter* raw = adapter.get();
  adapters_.push_back(std::move(adapter));
  AddNode(nullptr, raw, domain);
  by_id_[id] = raw;
  routed_ = false;
  return raw;
}

EndpointAdapter* FabricInterconnect::AddEndpointAdapter(const AdapterConfig& config,
                                                        const std::string& name,
                                                        FabricTarget* target,
                                                        std::uint16_t domain) {
  const PbrId id = AllocatePbrId(domain);
  auto adapter = std::make_unique<EndpointAdapter>(engine_, config, id, name, target);
  EndpointAdapter* raw = adapter.get();
  adapters_.push_back(std::move(adapter));
  AddNode(nullptr, raw, domain);
  by_id_[id] = raw;
  routed_ = false;
  return raw;
}

void FabricInterconnect::AddEdge(int a, int port_a, int b, int port_b, Link* link) {
  nodes_[a].edges.push_back(Edge{b, port_a, link});
  nodes_[b].edges.push_back(Edge{a, port_b, link});
}

Link* FabricInterconnect::Connect(FabricSwitch* a, FabricSwitch* b, const LinkConfig& config) {
  links_.push_back(std::make_unique<Link>(engine_, config, seed_ + ++link_counter_,
                                          a->name() + "<->" + b->name()));
  Link* link = links_.back().get();
  const int pa = a->AttachPort(&link->end(0));
  const int pb = b->AttachPort(&link->end(1));
  const int na = NodeIndexOf(a);
  const int nb = NodeIndexOf(b);
  AddEdge(na, pa, nb, pb, link);
  if (nodes_[na].domain != nodes_[nb].domain) {
    ++hbr_links_;
  }
  routed_ = false;
  return link;
}

BridgeLink* FabricInterconnect::ConnectBridge(FabricSwitch* a, FabricSwitch* b,
                                              const BridgeConfig& config) {
  links_.push_back(std::make_unique<BridgeLink>(engine_, config, seed_ + ++link_counter_,
                                                a->name() + "<~>" + b->name()));
  auto* link = static_cast<BridgeLink*>(links_.back().get());
  const int pa = a->AttachPort(&link->end(0));
  const int pb = b->AttachPort(&link->end(1));
  const int na = NodeIndexOf(a);
  const int nb = NodeIndexOf(b);
  AddEdge(na, pa, nb, pb, link);
  if (nodes_[na].domain != nodes_[nb].domain) {
    ++hbr_links_;
  }
  ++bridge_links_;
  routed_ = false;
  return link;
}

Link* FabricInterconnect::Connect(FabricSwitch* sw, AdapterBase* adapter,
                                  const LinkConfig& config) {
  links_.push_back(std::make_unique<Link>(engine_, config, seed_ + ++link_counter_,
                                          sw->name() + "<->" + adapter->name()));
  Link* link = links_.back().get();
  const int ps = sw->AttachPort(&link->end(0));
  adapter->AttachLink(&link->end(1));
  const int ns = NodeIndexOf(sw);
  const int na = NodeIndexOf(adapter);
  AddEdge(ns, ps, na, 0, link);
  routed_ = false;
  return link;
}

Link* FabricInterconnect::ConnectDirect(AdapterBase* a, AdapterBase* b, const LinkConfig& config) {
  links_.push_back(std::make_unique<Link>(engine_, config, seed_ + ++link_counter_,
                                          a->name() + "<->" + b->name()));
  Link* link = links_.back().get();
  a->AttachLink(&link->end(0));
  b->AttachLink(&link->end(1));
  const int na = NodeIndexOf(a);
  const int nb = NodeIndexOf(b);
  AddEdge(na, 0, nb, 0, link);
  routed_ = false;
  return link;
}

void FabricInterconnect::ConfigureRouting() {
  // Rebuild from scratch so stale routes (e.g. over a failed link) vanish.
  for (const auto& node : nodes_) {
    if (node.sw != nullptr) {
      node.sw->ClearRoutes();
    }
  }
  // BFS from every adapter; at each switch along the way, record the port
  // that leads back toward the adapter. Failed links are invisible.
  for (const auto& node : nodes_) {
    if (node.adapter == nullptr) {
      continue;
    }
    const PbrId dst = node.adapter->id();
    const int start = NodeIndexOf(node.adapter);

    std::vector<int> prev(nodes_.size(), -1);        // predecessor node
    std::vector<int> prev_port(nodes_.size(), -1);   // port on THIS node toward dst
    std::vector<bool> seen(nodes_.size(), false);
    std::deque<int> frontier;
    frontier.push_back(start);
    seen[start] = true;

    while (!frontier.empty()) {
      const int cur = frontier.front();
      frontier.pop_front();
      for (const auto& edge : nodes_[cur].edges) {
        if (seen[edge.peer] || edge.link->failed()) {
          continue;
        }
        seen[edge.peer] = true;
        prev[edge.peer] = cur;
        // Find the port on `peer` that connects back to `cur` over a live
        // link.
        for (const auto& back : nodes_[edge.peer].edges) {
          if (back.peer == cur && !back.link->failed()) {
            prev_port[edge.peer] = back.port;
            break;
          }
        }
        frontier.push_back(edge.peer);
      }
    }

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].sw != nullptr && seen[i] && prev_port[i] >= 0) {
        nodes_[i].sw->SetRoute(dst, prev_port[i]);
      }
    }
  }

  // HBR default routes: each switch points its default at the port leading
  // to the nearest foreign-domain node, if any.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].sw == nullptr) {
      continue;
    }
    for (const auto& edge : nodes_[i].edges) {
      if (!edge.link->failed() && nodes_[edge.peer].domain != nodes_[i].domain) {
        nodes_[i].sw->SetDefaultRoute(edge.port);
        break;
      }
    }
  }
  routed_ = true;
}

AdapterBase* FabricInterconnect::AdapterById(PbrId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

Link* FabricInterconnect::LinkTo(PbrId adapter_id) const {
  const AdapterBase* adapter = AdapterById(adapter_id);
  if (adapter == nullptr) {
    return nullptr;
  }
  const Node& node = nodes_[static_cast<std::size_t>(NodeIndexOf(adapter))];
  return node.edges.empty() ? nullptr : node.edges.front().link;
}

int FabricInterconnect::HopCount(PbrId from, PbrId to) const {
  const AdapterBase* a = AdapterById(from);
  const AdapterBase* b = AdapterById(to);
  if (a == nullptr || b == nullptr) {
    return -1;
  }
  const int start = NodeIndexOf(a);
  const int goal = NodeIndexOf(b);
  std::vector<int> dist(nodes_.size(), -1);
  std::deque<int> frontier;
  frontier.push_back(start);
  dist[start] = 0;
  while (!frontier.empty()) {
    const int cur = frontier.front();
    frontier.pop_front();
    if (cur == goal) {
      return dist[cur];
    }
    for (const auto& edge : nodes_[cur].edges) {
      if (dist[edge.peer] < 0 && !edge.link->failed()) {
        dist[edge.peer] = dist[cur] + 1;
        frontier.push_back(edge.peer);
      }
    }
  }
  return -1;
}

std::string FabricInterconnect::TopologyToString() const {
  std::ostringstream out;
  out << "fabric: " << switches_.size() << " switch(es), " << adapters_.size() << " adapter(s), "
      << links_.size() << " link(s), " << hbr_links_ << " HBR link(s)\n";
  for (const auto& node : nodes_) {
    if (node.sw != nullptr) {
      out << "  [FS ] " << node.sw->name() << " (domain " << node.domain << ", "
          << node.sw->num_ports() << " ports)\n";
    } else {
      out << "  [" << (dynamic_cast<HostAdapter*>(node.adapter) != nullptr ? "FHA" : "FEA")
          << "] " << node.adapter->name() << " (PBR " << node.adapter->id() << ", domain "
          << node.domain << ")\n";
    }
  }
  for (const auto& link : links_) {
    out << "  link " << link->name() << " (" << link->config().gigatransfers_per_sec << " GT/s x"
        << link->config().lanes << ")\n";
  }
  return out.str();
}

}  // namespace unifab
