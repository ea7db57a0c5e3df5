// ufbench: the open-loop driver behind perfbench/run.py.
//
// Runs one workload's seeded op schedule on fresh clusters, repeatedly,
// until a host-time budget is spent. Each repetition builds the cluster and
// the runtime, populates them, fires every op at its due tick through the
// runtime's public calls (ETransEngine::Submit, UnifiedHeap::Read/Write,
// CollectiveEngine::AllReduce), runs the engine to quiescence and checks
// the outcome. Host time is taken around the two constructors, the
// population and Engine::Run, and inside the run at every op arrival and
// completion and through the drain, so that run.py can take each stretch of
// the run at its fastest repetition. With --trace 1 one more repetition records
// host-clock spans and per-call issue times, then probes ConfigureRouting
// and RunEpoch once its run has drained.
//
// Everything observed goes to one JSON document (--out); run.py derives the
// metrics from it.
//
//   ufbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/driver/workloads.h"
#include "src/core/runtime.h"
#include "src/sim/audit.h"
#include "src/sim/metrics.h"
#include "src/sim/sharded_engine.h"
#include "src/topo/cluster.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using unifab::Cluster;
using unifab::ObjectId;
using unifab::UniFabricRuntime;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double UsSinceStart(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t CurrentRssBytes() {
  unsigned long size = 0;
  unsigned long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    if (std::fscanf(f, "%lu %lu", &size, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<std::uint64_t>(resident) * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t PeakRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // ru_maxrss is in KiB
}

// A host-clock span. `parent` indexes the same list; -1 marks a root.
struct HostSpan {
  std::string name;
  int parent = -1;
  double start_us = 0.0;  // since process start
  double dur_us = 0.0;
};

struct RepResult {
  double cluster_s = 0.0;
  double runtime_s = 0.0;
  double populate_s = 0.0;
  double run_s = 0.0;
  std::uint64_t cluster_rss_bytes = 0;
  std::uint64_t events = 0;
  Tick sim_end = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t double_completions = 0;
  std::uint64_t alloc_failures = 0;
  Tick max_lateness = 0;  // largest |fire tick - due tick| over all arrivals
  // Host seconds per stretch of Engine::Run: kSegments stretches of
  // simulated time, then the drain in stretches of kDrainMarkEvery events.
  std::vector<double> segment_s;
  std::vector<std::string> violations;
  std::uint64_t outcome_digest = 0;
  std::uint64_t registry_digest = 0;
};

// Host-side observations only the traced repetition makes.
struct TraceData {
  std::vector<HostSpan> spans;
  double issue_ns[kNumOpKinds] = {};
  std::uint64_t issue_calls[kNumOpKinds] = {};
  std::uint64_t heap_ops = 0;
  std::uint64_t tier0_at_issue = 0;
  std::vector<double> route_build_us;  // one per ConfigureRouting probe call
  std::vector<double> epoch_host_ms;   // one per heap's RunEpoch probe
  std::uint64_t heap_epochs = 0;
  std::uint64_t profiler_entries = 0;
  std::string registry;
};

enum : std::uint8_t { kPending = 0, kOk = 1, kFailed = 2 };

// Stretches of simulated time each repetition's Engine::Run is cut into:
// a few milliseconds of host time each, short enough that a stretch often
// falls between two bursts of another tenant's load.
constexpr int kSegments = 256;

// Events per stretch of the drain, the part of the run after the last op
// completed, where no op boundary falls.
constexpr std::uint64_t kDrainMarkEvery = 1 << 16;

// Marks the host time every kDrainMarkEvery fired events. A repetition
// installs it on every shard only once its last op has completed: until
// then the engine pays one untaken branch per event for the unset sink, and
// during the drain a virtual call.
class DrainMarker : public unifab::EventTraceSink {
 public:
  void OnSchedule(Tick, Tick, std::uint64_t) override {}
  void OnFire(Tick, std::uint64_t) override {
    if (++fired_ % kDrainMarkEvery == 0) {
      marks_.push_back(Clock::now());
    }
  }
  const std::vector<Clock::time_point>& marks() const { return marks_; }

 private:
  std::uint64_t fired_ = 0;
  std::vector<Clock::time_point> marks_;
};

// One repetition: a fresh cluster and runtime driven through the schedule.
class Rep {
 public:
  Rep(const Workload& w, const std::vector<Op>& ops, TraceData* trace)
      : w_(w), ops_(ops), trace_(trace), end_(ops.size(), 0), state_(ops.size(), kPending) {
    marks_.reserve(2 * ops.size());
  }

  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  void Setup() {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t rss0 = CurrentRssBytes();
    cluster_ = std::make_unique<Cluster>(ClusterFor(w_));
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t rss1 = CurrentRssBytes();
    result_.cluster_rss_bytes = rss1 > rss0 ? rss1 - rss0 : 0;
    runtime_ = std::make_unique<UniFabricRuntime>(cluster_.get(), RuntimeFor(w_));
    const Clock::time_point t2 = Clock::now();
    Populate();
    const Clock::time_point t3 = Clock::now();
    result_.cluster_s = Seconds(t0, t1);
    result_.runtime_s = Seconds(t1, t2);
    result_.populate_s = Seconds(t2, t3);
    if (trace_ != nullptr) {
      const int setup = AddSpan("setup", -1, t0, t3);
      AddSpan("setup.cluster", setup, t0, t1);
      AddSpan("setup.runtime", setup, t1, t2);
      AddSpan("setup.populate", setup, t2, t3);
    }
  }

  void Run() {
    unifab::Engine& engine = cluster_->engine();
    if (!ops_.empty()) {
      engine.ScheduleAt(ops_[0].due, [this] { Arrive(0); });
    }
    const Clock::time_point t0 = Clock::now();
    engine.Run();
    const Clock::time_point t1 = Clock::now();
    result_.run_s = Seconds(t0, t1);
    if (trace_ != nullptr) {
      AddSpan("run", -1, t0, t1);
    }
    Check();
    CutSegments(t0, t1);
  }

  // Host time of the two rebuild paths, measured after the run drained so
  // the probes cannot change it.
  void Probe() {
    const int routes = AddSpan("probe.configure_routing", -1, Clock::now(), Clock::now());
    for (int k = 0; k < 9; ++k) {
      const Clock::time_point t0 = Clock::now();
      cluster_->fabric().ConfigureRouting();
      const Clock::time_point t1 = Clock::now();
      trace_->route_build_us.push_back(Seconds(t0, t1) * 1e6);
      AddSpan("ConfigureRouting", routes, t0, t1);
    }
    CloseSpan(routes);
    const int epochs = AddSpan("probe.run_epoch", -1, Clock::now(), Clock::now());
    for (int h = 0; h < cluster_->num_hosts(); ++h) {
      unifab::UnifiedHeap* heap = runtime_->heap(h);
      trace_->heap_epochs += heap->stats().epochs;
      trace_->profiler_entries += heap->profiler().entries();
      const Clock::time_point t0 = Clock::now();
      heap->RunEpoch();
      const Clock::time_point t1 = Clock::now();
      trace_->epoch_host_ms.push_back(Seconds(t0, t1) * 1e3);
      AddSpan("RunEpoch", epochs, t0, t1);
    }
    CloseSpan(epochs);
  }

  const RepResult& result() const { return result_; }
  const std::vector<Tick>& end() const { return end_; }
  const std::vector<std::uint8_t>& state() const { return state_; }
  std::string RegistrySnapshot() const { return cluster_->engine().metrics().SnapshotJson(); }
  unifab::ShardedEngine& sharded() { return cluster_->sharded(); }
  std::vector<std::string> BridgeNames() const {
    std::vector<std::string> names;
    for (const unifab::BridgeLink* b : cluster_->bridges()) {
      names.push_back(b->name());
    }
    return names;
  }

 private:
  int AddSpan(const char* name, int parent, Clock::time_point t0, Clock::time_point t1) {
    trace_->spans.push_back(HostSpan{name, parent, UsSinceStart(t0),
                                     std::chrono::duration<double, std::micro>(t1 - t0).count()});
    return static_cast<int>(trace_->spans.size()) - 1;
  }

  void CloseSpan(int idx) {
    HostSpan& s = trace_->spans[static_cast<std::size_t>(idx)];
    s.dur_us = UsSinceStart(Clock::now()) - s.start_us;
  }

  void Populate() {
    switch (w_.id) {
      case WorkloadId::kTenantStorm:
        break;
      case WorkloadId::kHeapZipf:
        objects_.resize(static_cast<std::size_t>(cluster_->num_hosts()));
        for (int h = 0; h < cluster_->num_hosts(); ++h) {
          unifab::UnifiedHeap* heap = runtime_->heap(h);
          std::vector<ObjectId>& objs = objects_[static_cast<std::size_t>(h)];
          objs.reserve(kHeapObjects);
          for (std::uint32_t i = 0; i < kHeapObjects; ++i) {
            // Spread over the FAM tiers (1..num_fams); tier 0 starts empty.
            const int tier = 1 + static_cast<int>(i % static_cast<std::uint32_t>(cluster_->num_fams()));
            const ObjectId id = heap->Allocate(kHeapObjectBytes, tier);
            result_.alloc_failures += id == unifab::kInvalidObject ? 1 : 0;
            objs.push_back(id);
          }
        }
        break;
      case WorkloadId::kPodAllReduce:
        groups_.resize(kPodFaas);
        host_pod_.resize(static_cast<std::size_t>(cluster_->num_hosts()));
        for (int p = 0; p < cluster_->num_pods(); ++p) {
          const unifab::Pod& pod = cluster_->pod(p);
          for (int k = 0; k < kPodFaas; ++k) {
            groups_[static_cast<std::size_t>(k)].members.push_back(unifab::CollectiveMember{
                cluster_->faa(pod.faas[static_cast<std::size_t>(k)])->id(), 1ULL << 20});
          }
          for (int h : pod.hosts) {
            host_pod_[static_cast<std::size_t>(h)] = p;
          }
        }
        break;
    }
  }

  // Splits [t0, t1] at op boundaries (arrivals and completions, in the
  // order they fired): stretch k ends at the last boundary before the first
  // one past k/kSegments of the simulated span. The drain after the last
  // boundary is split at the DrainMarker's marks. Boundaries and events
  // repeat exactly from one repetition to the next, so stretch k holds the
  // same simulated work in every repetition.
  void CutSegments(Clock::time_point t0, Clock::time_point t1) {
    const Tick span = result_.sim_end;
    result_.segment_s.clear();
    Clock::time_point prev = t0;
    std::size_t m = 0;
    for (int k = 1; k <= kSegments; ++k) {
      const Tick cut = static_cast<Tick>(static_cast<double>(span) * k / kSegments);
      while (m < marks_.size() && marks_[m].first <= cut) {
        ++m;
      }
      const Clock::time_point at = m == 0 ? t0 : marks_[m - 1].second;
      result_.segment_s.push_back(Seconds(prev, at));
      prev = at;
    }
    for (const Clock::time_point at : drain_.marks()) {
      result_.segment_s.push_back(Seconds(prev, at));
      prev = at;
    }
    result_.segment_s.push_back(Seconds(prev, t1));
  }

  void Arrive(std::size_t i) {
    unifab::Engine& engine = cluster_->engine();
    const Op& op = ops_[i];
    const Tick now = engine.Now();
    marks_.emplace_back(now, Clock::now());
    result_.max_lateness = std::max(result_.max_lateness, now > op.due ? now - op.due : op.due - now);
    ++result_.issued;
    if (trace_ == nullptr) {
      Issue(op, i);
    } else {
      if (op.kind == OpKind::kHeapRead || op.kind == OpKind::kHeapWrite) {
        ++trace_->heap_ops;
        const ObjectId id = objects_[op.src][op.dst];
        trace_->tier0_at_issue += runtime_->heap(static_cast<int>(op.src))->TierOf(id) == 0 ? 1 : 0;
      }
      const Clock::time_point t0 = Clock::now();
      Issue(op, i);
      const Clock::time_point t1 = Clock::now();
      const auto k = static_cast<std::size_t>(op.kind);
      trace_->issue_ns[k] += std::chrono::duration<double, std::nano>(t1 - t0).count();
      ++trace_->issue_calls[k];
    }
    if (i + 1 < ops_.size()) {
      engine.ScheduleAt(ops_[i + 1].due, [this, i] { Arrive(i + 1); });
    }
  }

  void Issue(const Op& op, std::size_t i) {
    switch (op.kind) {
      case OpKind::kGoldETrans:
      case OpKind::kStormETrans: {
        // Tenant placement and buffer slots follow TenantEngine.
        const int host = static_cast<int>(op.src % static_cast<std::uint32_t>(cluster_->num_hosts()));
        const bool gold = op.kind == OpKind::kGoldETrans;
        SubmitETrans(i, host, static_cast<int>(op.dst), op.src, kTenantRequestMbps,
                     gold ? unifab::QosClass::kGuaranteed : unifab::QosClass::kBestEffort,
                     op.bytes);
        break;
      }
      case OpKind::kBgETrans: {
        const unifab::Pod& pod = cluster_->pod(host_pod_[op.src]);
        SubmitETrans(i, static_cast<int>(op.src), pod.fams[op.dst], 1 + op.src,
                     unifab::ETransAttributes{}.request_mbps, unifab::QosClass::kBestEffort,
                     op.bytes);
        break;
      }
      case OpKind::kHeapRead:
      case OpKind::kHeapWrite: {
        unifab::UnifiedHeap* heap = runtime_->heap(static_cast<int>(op.src));
        const ObjectId id = objects_[op.src][op.dst];
        auto done = [this, i] { Complete(i, true); };
        if (op.kind == OpKind::kHeapRead) {
          heap->Read(id, std::move(done));
        } else {
          heap->Write(id, std::move(done));
        }
        break;
      }
      case OpKind::kAllReduce:
        runtime_->collect()
            ->AllReduce(groups_[op.src], op.bytes)
            .Then([this, i](const unifab::CollectiveResult& r) { Complete(i, r.ok); });
        break;
    }
  }

  void SubmitETrans(std::size_t i, int host, int fam, std::uint32_t tenant, double request_mbps,
                    unifab::QosClass qos, std::uint32_t bytes) {
    unifab::ETransDescriptor d;
    const std::uint64_t slot = (static_cast<std::uint64_t>(tenant) % 4096) << 16;
    d.src = {unifab::Segment{cluster_->host(host)->id(), slot, bytes}};
    d.dst = {unifab::Segment{cluster_->fam(fam)->id(), slot, bytes}};
    d.attributes.request_mbps = request_mbps;
    d.attributes.tenant = tenant;
    d.attributes.qos = qos;
    runtime_->etrans()
        ->Submit(runtime_->host_agent(host), d)
        .Then([this, i](const unifab::TransferResult& r) { Complete(i, r.ok); });
  }

  void Complete(std::size_t i, bool ok) {
    if (state_[i] != kPending) {
      ++result_.double_completions;
      return;
    }
    const unifab::Engine* shard = unifab::Engine::CurrentShard();
    end_[i] = shard != nullptr ? shard->Now() : cluster_->engine().Now();
    marks_.emplace_back(end_[i], Clock::now());
    state_[i] = ok ? kOk : kFailed;
    ++(ok ? result_.completed : result_.failed);
    if (result_.completed + result_.failed == ops_.size()) {
      unifab::ShardedEngine& sharded = cluster_->sharded();
      for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        sharded.shard(s).SetTraceSink(&drain_);
      }
    }
  }

  void Check() {
    result_.in_flight = static_cast<std::uint64_t>(std::count(state_.begin(), state_.end(), kPending));
    for (const unifab::InvariantViolation& v : cluster_->engine().audit().Sweep()) {
      result_.violations.push_back(v.path + ": " + v.message);
    }
    result_.events = cluster_->sharded().TotalFired();
    result_.sim_end = cluster_->sharded().Now();
    unifab::RunDigest outcome;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      outcome.Fold(end_[i]);
      outcome.Fold(state_[i]);
    }
    result_.outcome_digest = outcome.value();
    result_.registry_digest = std::hash<std::string>{}(RegistrySnapshot());
  }

  const Workload& w_;
  const std::vector<Op>& ops_;
  TraceData* trace_;  // nullptr for an untraced repetition
  std::vector<Tick> end_;
  std::vector<std::uint8_t> state_;
  std::vector<std::pair<Tick, Clock::time_point>> marks_;  // op boundaries, in firing order
  DrainMarker drain_;  // before cluster_: outlives the shards it is installed on
  RepResult result_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<UniFabricRuntime> runtime_;  // after cluster_: destroyed first
  std::vector<std::vector<ObjectId>> objects_;           // heap_zipf, per host
  std::vector<unifab::CollectiveGroup> groups_;          // pod_allreduce, per slot
  std::vector<int> host_pod_;                            // pod_allreduce, per host
};

// One unloaded 64 B remote load on bench_fig1_topology's cluster, the
// simulator's calibration point against the paper's Table 2 (1575 ns).
double UnloadedRemoteLoadNs() {
  unifab::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.num_fams = 2;
  cfg.num_faas = 1;
  cfg.num_switches = 2;
  Cluster cluster(cfg);
  const Tick t0 = cluster.engine().Now();
  bool done = false;
  cluster.host(0)->core(0)->Access(cluster.FamBase(0), /*is_write=*/false, [&done] { done = true; });
  cluster.engine().Run();
  return done ? unifab::ToNs(cluster.engine().Now() - t0) : -1.0;
}

// --- JSON output --------------------------------------------------------

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(std::uint64_t v) { return std::to_string(v); }

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

template <typename T, typename F>
std::string Array(const std::vector<T>& v, F render) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ",") + render(v[i]);
  }
  return out + "]";
}

std::string RepJson(const RepResult& r, bool traced) {
  std::string out = "{";
  out += "\"traced\":" + std::string(traced ? "true" : "false");
  out += ",\"cluster_s\":" + Num(r.cluster_s);
  out += ",\"runtime_s\":" + Num(r.runtime_s);
  out += ",\"populate_s\":" + Num(r.populate_s);
  out += ",\"run_s\":" + Num(r.run_s);
  out += ",\"cluster_rss_bytes\":" + Num(r.cluster_rss_bytes);
  out += ",\"events\":" + Num(r.events);
  out += ",\"sim_end_ps\":" + Num(r.sim_end);
  out += ",\"issued\":" + Num(r.issued);
  out += ",\"completed\":" + Num(r.completed);
  out += ",\"failed\":" + Num(r.failed);
  out += ",\"in_flight\":" + Num(r.in_flight);
  out += ",\"double_completions\":" + Num(r.double_completions);
  out += ",\"alloc_failures\":" + Num(r.alloc_failures);
  out += ",\"max_lateness_ps\":" + Num(r.max_lateness);
  out += ",\"segment_s\":" + Array(r.segment_s, [](double v) { return Num(v); });
  out += ",\"violations\":" + Array(r.violations, Str);
  out += ",\"outcome_digest\":" + Num(r.outcome_digest);
  out += ",\"registry_digest\":" + Num(r.registry_digest);
  return out + "}";
}

std::string TraceJson(const TraceData& t) {
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const HostSpan& s = t.spans[i];
    out += (i == 0 ? "{" : ",{") + std::string("\"name\":") + Str(s.name) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"start_us\":" + Num(s.start_us) +
           ",\"dur_us\":" + Num(s.dur_us) + "}";
  }
  out += "],\"issue\":{";
  for (int k = 0; k < kNumOpKinds; ++k) {
    out += (k == 0 ? "" : ",") + Str(OpKindName(static_cast<OpKind>(k))) +
           ":{\"host_ns\":" + Num(t.issue_ns[k]) + ",\"calls\":" + Num(t.issue_calls[k]) + "}";
  }
  out += "},\"heap_ops\":" + Num(t.heap_ops);
  out += ",\"tier0_at_issue\":" + Num(t.tier0_at_issue);
  out += ",\"route_build_us\":" + Array(t.route_build_us, [](double v) { return Num(v); });
  out += ",\"epoch_host_ms\":" + Array(t.epoch_host_ms, [](double v) { return Num(v); });
  out += ",\"heap_epochs\":" + Num(t.heap_epochs);
  out += ",\"profiler_entries\":" + Num(t.profiler_entries);
  out += ",\"registry\":" + t.registry;
  return out + "}";
}

bool EnvSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

int Usage() {
  std::fprintf(stderr,
               "usage: ufbench --workload tenant_storm|heap_zipf|pod_allreduce --seed N "
               "--seconds S --trace 0|1 --out FILE\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string out_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      traced = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || out_path.empty() || argc % 2 == 0) {
    return Usage();
  }

  // Timings mean nothing from an unoptimized or instrumented build, or with
  // the per-event auditor or a non-default worker pool switched on.
  bool optimized = true;
  bool sanitized = false;
#ifndef __OPTIMIZE__
  optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (!optimized || sanitized || build_type == "Debug") {
    std::fprintf(stderr, "ufbench: refusing to time a %s%s build\n", build_type.c_str(),
                 sanitized ? " sanitizer" : "");
    return 3;
  }
  if (EnvSet("UNIFAB_AUDIT") || EnvSet("UNIFAB_SHARDS")) {
    std::fprintf(stderr, "ufbench: unset UNIFAB_AUDIT and UNIFAB_SHARDS before timing\n");
    return 3;
  }

  const std::vector<Op> ops = MakeSchedule(*w, seed);
  const double remote_load_ns = UnloadedRemoteLoadNs();

  std::vector<std::string> reps;
  std::vector<Tick> end;
  std::vector<std::uint8_t> state;
  std::vector<std::string> bridges;
  std::uint32_t workers = 0;
  std::size_t shards = 0;
  Tick lookahead = 0;
  constexpr int kMinReps = 3;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < kMinReps || Seconds(start, Clock::now()) < seconds; ++r) {
    {
      Rep rep(*w, ops, nullptr);
      rep.Setup();
      rep.Run();
      reps.push_back(RepJson(rep.result(), false));
      if (r == 0) {
        end = rep.end();
        state = rep.state();
        bridges = rep.BridgeNames();
        workers = rep.sharded().workers();
        shards = rep.sharded().num_shards();
        lookahead = rep.sharded().lookahead();
      }
    }
    // Hand the torn-down cluster's pages back to the kernel, so every
    // repetition's setup starts from a cold heap like a user's first run.
    malloc_trim(0);
  }
  const std::uint64_t peak_rss = PeakRssBytes();

  TraceData trace;
  if (traced) {
    Rep rep(*w, ops, &trace);
    rep.Setup();
    rep.Run();
    rep.Probe();
    trace.registry = rep.RegistrySnapshot();
    reps.push_back(RepJson(rep.result(), true));
  }

  std::string json = "{";
  json += "\"workload\":" + Str(w->name);
  json += ",\"seed\":" + Num(seed);
  json += ",\"limit_us\":" + Num(w->limit_us);
  json += ",\"horizon_ps\":" + Num(w->horizon);
  json += ",\"build\":{\"type\":" + Str(build_type) + ",\"optimized\":" +
          (optimized ? "true" : "false") + ",\"sanitized\":" + (sanitized ? "true" : "false") + "}";
  json += ",\"engine\":{\"workers\":" + Num(std::uint64_t{workers}) + ",\"shards\":" +
          Num(std::uint64_t{shards}) + ",\"lookahead_ps\":" + Num(lookahead) +
          ",\"nproc\":" + Num(std::uint64_t{std::thread::hardware_concurrency()}) + "}";
  json += ",\"bridges\":" + Array(bridges, Str);
  json += ",\"remote_load_ns\":" + Num(remote_load_ns);
  json += ",\"peak_rss_bytes\":" + Num(peak_rss);
  json += ",\"kinds\":" + Array(std::vector<int>{0, 1, 2, 3, 4, 5}, [](int k) {
            return Str(OpKindName(static_cast<OpKind>(k)));
          });
  json += ",\"foreground\":" + Array(std::vector<int>{0, 1, 2, 3, 4, 5}, [](int k) {
            return std::string(IsForeground(static_cast<OpKind>(k)) ? "true" : "false");
          });
  json += ",\"ops\":{\"due_ps\":" + Array(ops, [](const Op& op) { return Num(op.due); });
  json += ",\"kind\":" + Array(ops, [](const Op& op) { return std::to_string(static_cast<int>(op.kind)); });
  json += ",\"bytes\":" + Array(ops, [](const Op& op) { return std::to_string(op.bytes); });
  json += ",\"end_ps\":" + Array(end, [](Tick t) { return Num(t); });
  json += ",\"state\":" + Array(state, [](std::uint8_t s) { return std::to_string(s); }) + "}";
  json += ",\"reps\":" + Array(reps, [](const std::string& s) { return s; });
  if (traced) {
    json += ",\"trace\":" + TraceJson(trace);
  }
  json += "}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr || std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "ufbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
