#include "perfbench/driver/workloads.h"

#include <algorithm>

#include "src/sim/random.h"

namespace perfbench {
namespace {

using unifab::DeriveStream;
using unifab::FromMs;
using unifab::FromNs;
using unifab::FromUs;
using unifab::Rng;

// tenant_storm: E-TEN's isolation storm (bench_multi_tenant.cc).
constexpr std::uint32_t kGoldTenants = 64;
constexpr double kGoldRateOpsPerSec = 5000.0;
constexpr std::uint32_t kGoldBytes = 16384;
constexpr std::uint32_t kStormTenants = 1024;
constexpr double kStormRateOpsPerSec = 10000.0;
constexpr std::uint32_t kStormBurst = 8;
constexpr std::uint32_t kStormBytes = 8192;

// heap_zipf: per host, zipf 0.9 over the host's objects, 3 reads : 1 write.
constexpr int kHeapHosts = 2;
constexpr double kHeapGapUs = 2.0;  // 0.5 ops/us per host
constexpr double kHeapSkew = 0.9;
constexpr double kHeapReadShare = 0.75;

// pod_allreduce: 8 pods of 2 hosts, 2 FAMs and 4 FAAs.
constexpr int kPods = 8;
constexpr int kPodHosts = 2;
constexpr int kPodFams = 2;
constexpr double kAllReduceRateOpsPerSec = 5000.0;
constexpr std::uint32_t kAllReduceBytes = 16384;
constexpr double kBgRateOpsPerSec = 1000.0;  // per host
constexpr std::uint32_t kBgBytes = 4096;

constexpr Workload kWorkloads[] = {
    {WorkloadId::kTenantStorm, "tenant_storm", 400.0, FromUs(250.0)},
    {WorkloadId::kHeapZipf, "heap_zipf", 10.0, FromMs(20.0)},
    {WorkloadId::kPodAllReduce, "pod_allreduce", 250.0, FromMs(10.0)},
};

// `count` arrival ticks drawn uniformly over [0, horizon), ascending: a
// Poisson process conditioned on its count. Fixing the count keeps the
// amount of offered work the same for every seed; the seed still decides
// when each op arrives and what it touches.
std::vector<Tick> Arrivals(Rng& rng, double count, Tick horizon) {
  std::vector<Tick> ticks(static_cast<std::size_t>(count + 0.5));
  for (Tick& t : ticks) {
    t = rng.NextBelow(horizon);
  }
  std::sort(ticks.begin(), ticks.end());
  return ticks;
}

double Expected(double rate_ops_per_s, Tick horizon) {
  return rate_ops_per_s * unifab::ToSec(horizon);
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kGoldETrans:
      return "gold_etrans";
    case OpKind::kStormETrans:
      return "storm_etrans";
    case OpKind::kHeapRead:
      return "heap_read";
    case OpKind::kHeapWrite:
      return "heap_write";
    case OpKind::kAllReduce:
      return "allreduce";
    case OpKind::kBgETrans:
      return "bg_etrans";
  }
  return "?";
}

bool IsForeground(OpKind kind) {
  return kind == OpKind::kGoldETrans || kind == OpKind::kHeapRead ||
         kind == OpKind::kHeapWrite || kind == OpKind::kAllReduce;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<Op> MakeSchedule(const Workload& w, std::uint64_t seed) {
  std::vector<Op> ops;
  const Tick h = w.horizon;
  switch (w.id) {
    case WorkloadId::kTenantStorm: {
      // Tenant ids follow TenantEngine's numbering, gold first from 1. The
      // 64 gold tenants' Poisson streams merge into one stream whose ops
      // pick a tenant uniformly; likewise the storm tenants' burst starts.
      Rng gold(DeriveStream(seed, 1));
      for (Tick t : Arrivals(gold, Expected(kGoldTenants * kGoldRateOpsPerSec, h), h)) {
        const auto id = static_cast<std::uint32_t>(1 + gold.NextBelow(kGoldTenants));
        ops.push_back(Op{t, OpKind::kGoldETrans, id, id % 2, kGoldBytes});
      }
      Rng storm(DeriveStream(seed, 2));
      const double bursts = Expected(kStormTenants * kStormRateOpsPerSec / kStormBurst, h);
      for (Tick t : Arrivals(storm, bursts, h)) {
        const auto id = static_cast<std::uint32_t>(1 + kGoldTenants + storm.NextBelow(kStormTenants));
        for (std::uint32_t i = 0; i < kStormBurst; ++i) {
          ops.push_back(Op{t + i * FromNs(100.0), OpKind::kStormETrans, id, id % 2, kStormBytes});
        }
      }
      break;
    }
    case WorkloadId::kHeapZipf:
      for (int host = 0; host < kHeapHosts; ++host) {
        Rng rng(DeriveStream(seed, 1 + host));
        unifab::ZipfGenerator zipf(DeriveStream(seed, 101 + host), kHeapSkew, kHeapObjects);
        for (Tick t : Arrivals(rng, Expected(1e6 / kHeapGapUs, h), h)) {
          const bool read = rng.NextDouble() < kHeapReadShare;
          ops.push_back(Op{t, read ? OpKind::kHeapRead : OpKind::kHeapWrite,
                           static_cast<std::uint32_t>(host), static_cast<std::uint32_t>(zipf.Next()),
                           kHeapObjectBytes});
        }
      }
      break;
    case WorkloadId::kPodAllReduce: {
      Rng fg(DeriveStream(seed, 1));
      std::uint32_t slot = 0;
      for (Tick t : Arrivals(fg, Expected(kAllReduceRateOpsPerSec, h), h)) {
        ops.push_back(Op{t, OpKind::kAllReduce, slot++ % kPodFaas, 0, kAllReduceBytes});
      }
      for (int host = 0; host < kPods * kPodHosts; ++host) {
        Rng bg(DeriveStream(seed, 100 + host));
        for (Tick t : Arrivals(bg, Expected(kBgRateOpsPerSec, h), h)) {
          ops.push_back(Op{t, OpKind::kBgETrans, static_cast<std::uint32_t>(host),
                           static_cast<std::uint32_t>(host % kPodFams), kBgBytes});
        }
      }
      break;
    }
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.due < b.due; });
  return ops;
}

unifab::ClusterConfig ClusterFor(const Workload& w) {
  unifab::ClusterConfig cfg;
  switch (w.id) {
    case WorkloadId::kTenantStorm:
      cfg.num_hosts = 4;
      cfg.num_fams = 2;
      cfg.num_faas = 1;
      cfg.num_switches = 2;
      break;
    case WorkloadId::kHeapZipf:
      cfg.num_hosts = kHeapHosts;
      cfg.num_fams = 2;
      cfg.num_faas = 0;
      cfg.num_switches = 1;
      break;
    case WorkloadId::kPodAllReduce: {
      unifab::PodConfig pod;
      pod.num_hosts = kPodHosts;
      pod.num_fams = kPodFams;
      pod.num_faas = kPodFaas;
      cfg = unifab::DFabricPodCluster(kPods, pod);
      break;
    }
  }
  return cfg;
}

unifab::RuntimeOptions RuntimeFor(const Workload& w) {
  unifab::RuntimeOptions opts;
  switch (w.id) {
    case WorkloadId::kTenantStorm:
      // E-TEN's per-tenant guaranteed budget: one full-rate transfer.
      opts.arbiter.qos[static_cast<int>(unifab::QosClass::kGuaranteed)].tenant_budget_mbps =
          kTenantRequestMbps;
      break;
    case WorkloadId::kHeapZipf:
      opts.heap_local_bytes = 2ULL << 20;
      opts.heap.epoch_length = FromMs(1.0);
      opts.heap.migration_enabled = true;
      break;
    case WorkloadId::kPodAllReduce:
      break;
  }
  return opts;
}

}  // namespace perfbench
