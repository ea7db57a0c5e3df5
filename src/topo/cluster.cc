#include "src/topo/cluster.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace unifab {

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  fabric_ = std::make_unique<FabricInterconnect>(&engine_, config.seed);

  if (config.num_pods > 1) {
    BuildPods();
  } else {
    BuildFlat();
  }

  fabric_->ConfigureRouting();

  // Publish every FAM chassis into every host's address map, and teach each
  // chassis where its window sits so the device decodes chassis-relative
  // offsets.
  for (int f = 0; f < num_fams(); ++f) {
    fams_[static_cast<std::size_t>(f)]->expander()->SetAddressBase(FamBase(f));
  }
  for (int h = 0; h < num_hosts(); ++h) {
    for (int f = 0; f < num_fams(); ++f) {
      hosts_[static_cast<std::size_t>(h)]->MapRemote(
          FamBase(f), fams_[static_cast<std::size_t>(f)]->dram()->config().capacity_bytes,
          fams_[static_cast<std::size_t>(f)]->id());
    }
  }
}

void Cluster::BuildFlat() {
  const ClusterConfig& config = config_;

  for (int i = 0; i < config.num_switches; ++i) {
    switches_.push_back(fabric_->AddSwitch(config.sw, "fs" + std::to_string(i)));
    if (i > 0) {
      fabric_->Connect(switches_[static_cast<std::size_t>(i - 1)],
                       switches_[static_cast<std::size_t>(i)], config.link);
    }
  }

  auto switch_for = [&](int idx) {
    return switches_[static_cast<std::size_t>(idx % config.num_switches)];
  };

  int attach = 0;
  for (int i = 0; i < config.num_hosts; ++i) {
    hosts_.push_back(std::make_unique<HostServer>(&engine(), fabric_.get(), config.host,
                                                  "host" + std::to_string(i)));
    fabric_->Connect(switch_for(attach++), hosts_.back()->fha(), config.link);
  }
  for (int i = 0; i < config.num_fams; ++i) {
    fams_.push_back(std::make_unique<FamChassis>(&engine(), fabric_.get(), config.fam,
                                                 "fam" + std::to_string(i)));
    fabric_->Connect(switch_for(attach++), fams_.back()->fea(), config.link);
  }
  for (int i = 0; i < config.num_faas; ++i) {
    faas_.push_back(std::make_unique<FaaChassis>(&engine(), fabric_.get(), config.faa,
                                                 "faa" + std::to_string(i)));
    fabric_->Connect(switch_for(attach++), faas_.back()->fea(), config.link);
  }
}

void Cluster::BuildPods() {
  const ClusterConfig& config = config_;
  const int num_pods = config.num_pods;
  if (num_pods > kMaxFabricDomains) {
    std::fprintf(stderr,
                 "[unifab] cluster: num_pods=%d exceeds the %d-domain PBR id space\n",
                 num_pods, kMaxFabricDomains);
    std::abort();
  }
  const PodConfig& pc = config.pod;

  // Pod p is PBR domain p, holding its own switches, hosts, FAM and FAA
  // chassis. Everything that leaves a pod rides the Ethernet bridges wired
  // below.
  for (int p = 0; p < num_pods; ++p) {
    const auto domain = static_cast<std::uint16_t>(p);
    const std::string prefix = "p" + std::to_string(p) + "/";

    Pod pod;
    pod.index = p;
    std::vector<FabricSwitch*> pod_switches;
    for (int s = 0; s < pc.num_switches; ++s) {
      FabricSwitch* sw = fabric_->AddSwitch(config.sw, prefix + "fs" + std::to_string(s), domain);
      if (s > 0) {
        fabric_->Connect(pod_switches.back(), sw, config.link);
      }
      pod.switches.push_back(static_cast<int>(switches_.size()));
      switches_.push_back(sw);
      pod_switches.push_back(sw);
    }
    pod.gateway = pod_switches.front();

    auto switch_for = [&](int idx) {
      return pod_switches[static_cast<std::size_t>(idx) % pod_switches.size()];
    };
    int attach = 0;
    for (int h = 0; h < pc.num_hosts; ++h) {
      pod.hosts.push_back(static_cast<int>(hosts_.size()));
      hosts_.push_back(std::make_unique<HostServer>(&engine(), fabric_.get(), config.host,
                                                    prefix + "host" + std::to_string(h), domain));
      fabric_->Connect(switch_for(attach++), hosts_.back()->fha(), config.link);
    }
    for (int f = 0; f < pc.num_fams; ++f) {
      pod.fams.push_back(static_cast<int>(fams_.size()));
      fams_.push_back(std::make_unique<FamChassis>(&engine(), fabric_.get(), config.fam,
                                                   prefix + "fam" + std::to_string(f), domain));
      fabric_->Connect(switch_for(attach++), fams_.back()->fea(), config.link);
    }
    for (int a = 0; a < pc.num_faas; ++a) {
      pod.faas.push_back(static_cast<int>(faas_.size()));
      faas_.push_back(std::make_unique<FaaChassis>(&engine(), fabric_.get(), config.faa,
                                                   prefix + "faa" + std::to_string(a), domain));
      fabric_->Connect(switch_for(attach++), faas_.back()->fea(), config.link);
    }
    pods_.push_back(std::move(pod));
  }

  // Ethernet bridges between pod gateways: one trunk for 2 pods, a ring
  // for 3+ (the ring gives ConfigureRouting a redundant inter-pod path to
  // fail over to when a bridge flaps).
  for (int p = 0; p < num_pods; ++p) {
    const int q = (p + 1) % num_pods;
    if (num_pods == 2 && p == 1) {
      break;  // two pods: a single trunk, not a doubled pair
    }
    bridges_.push_back(
        fabric_->ConnectBridge(pods_[static_cast<std::size_t>(p)].gateway,
                               pods_[static_cast<std::size_t>(q)].gateway, config.bridge));
  }
}

ClusterConfig DFabricPodCluster(int num_pods, const PodConfig& pod) {
  ClusterConfig config;
  config.num_pods = num_pods;
  config.pod = pod;
  return config;
}

HostAdapter* Cluster::AttachControlAdapter(const AdapterConfig& config, const std::string& name,
                                           int sw) {
  HostAdapter* adapter = fabric_->AddHostAdapter(config, name);
  fabric_->Connect(fabric_switch(sw), adapter, config_.link);
  fabric_->ConfigureRouting();
  return adapter;
}

}  // namespace unifab
