// E-HOT: engine hot-path throughput proof for the calendar event queue and
// batched flit pipeline. Re-runs the bench_engine_micro workloads (plus a
// cancellation-heavy one and a fig1-topology closed-loop traffic run) under
// wall-clock timing and compares against the pre-overhaul binary-heap
// baseline measured on this container, emitting events/sec, wall-clock and
// peak RSS to BENCH_engine_hotpath.json. Every host-time-derived number
// (wall ms, events/sec, speedups, peak RSS) goes to the report's non-golden
// "perf" section, so two runs' "results" (constants and event counts) diff
// empty; the speedup ratios are what scripts/check.sh gates on (via
// --enforce).

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/engine.h"
#include "src/topo/cluster.h"

namespace {

using namespace unifab;

// Pre-overhaul reference throughput: this exact binary built against the
// commit preceding this change (binary-heap-of-std::function EventQueue,
// one flit per link wakeup), median of 3 runs on the dev container.
// Single-CPU box; run-to-run noise is roughly +/-15%, which the 2x
// acceptance bar clears comfortably on the queue-bound workloads. The
// equivalent google-benchmark numbers from the pre-overhaul
// bench_engine_micro were 23.4M/s (ScheduleFire) and 5.08M/s
// (DeepQueue/16384), consistent with these.
struct PrePrBaseline {
  double schedule_fire_eps;
  double deep_queue_eps;
  double cancel_churn_eps;
  double fig1_closed_loop_wall_ms;
};
constexpr PrePrBaseline kBaseline = {
    /*schedule_fire_eps=*/21.8e6,
    /*deep_queue_eps=*/4.69e6,
    /*cancel_churn_eps=*/1.77e6,
    /*fig1_closed_loop_wall_ms=*/158.0,
};

double WallSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Workload 1 — schedule/fire ping-pong: one live event at a time, the
// pure per-event overhead floor (mirrors BM_EngineScheduleFire).
double RunScheduleFire(std::uint64_t n, std::uint64_t* fired_out) {
  Engine e;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    e.Schedule(1, [&sink] { ++sink; });
    e.Step(1);
  }
  const double wall = WallSeconds(t0);
  *fired_out = sink;
  return wall;
}

// Workload 2 — deep queue: 16384 events resident with clustered ticks
// (mirrors BM_EngineDeepQueue/16384), refilled for `rounds` rounds.
double RunDeepQueue(std::uint64_t depth, std::uint64_t rounds, std::uint64_t* fired_out) {
  Engine e;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::uint64_t i = 0; i < depth; ++i) {
      e.Schedule(1 + i % 97, [&sink] { ++sink; });
    }
    e.Run();
  }
  const double wall = WallSeconds(t0);
  *fired_out = sink;
  return wall;
}

// Workload 3 — cancellation churn: every fired event cancels a far-future
// timeout, the MSHR/retry-timer pattern. Exercises Cancel plus the eager
// record-reclaim path; half of all pushed events never fire.
double RunCancelChurn(std::uint64_t batch, std::uint64_t rounds, std::uint64_t* fired_out) {
  Engine e;
  std::uint64_t fired = 0;
  std::vector<EventId> timeouts(batch);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::uint64_t i = 0; i < batch; ++i) {
      timeouts[i] = e.Schedule(1'000'000, [] {});
    }
    for (std::uint64_t i = 0; i < batch; ++i) {
      const EventId id = timeouts[i];
      e.Schedule(1 + i % 13, [&e, &fired, id] {
        e.Cancel(id);
        ++fired;
      });
    }
    e.Step(batch);  // fires exactly the cancellers; timeouts are all dead
  }
  const double wall = WallSeconds(t0);
  *fired_out = fired;
  return wall;
}

// Workload 4 — fig1 topology under closed-loop load: every core of every
// host keeps one remote FAM access in flight until it has completed
// `per_core` of them. This is the full flit pipeline (caches, adapters,
// links, switches, credits), so it measures the batched link service, not
// just the queue.
struct CoreDriver {
  MemoryHierarchy* core = nullptr;
  std::uint64_t base = 0;
  std::uint64_t done = 0;
  std::uint64_t target = 0;

  void IssueNext() {
    if (done == target) {
      return;
    }
    const std::uint64_t addr = base + (done * 64) % (1ULL << 20);
    core->Access(addr, /*is_write=*/(done % 4) == 3, [this] {
      ++done;
      IssueNext();
    });
  }
};

double RunFig1ClosedLoop(std::uint64_t per_core, std::uint64_t* fired_out,
                         std::uint64_t* loads_out) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.num_fams = 2;
  cfg.num_faas = 1;
  cfg.num_switches = 2;
  Cluster cluster(cfg);

  std::vector<CoreDriver> drivers;
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    for (int c = 0; c < cluster.host(h)->num_cores(); ++c) {
      CoreDriver d;
      d.core = cluster.host(h)->core(c);
      d.base = cluster.FamBase((h + c) % cluster.num_fams());
      d.target = per_core;
      drivers.push_back(d);
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (CoreDriver& d : drivers) {
    d.IssueNext();
  }
  cluster.engine().Run();
  const double wall = WallSeconds(t0);

  std::uint64_t loads = 0;
  for (const CoreDriver& d : drivers) {
    loads += d.done;
  }
  *fired_out = cluster.engine().TotalFired();
  *loads_out = loads;
  return wall;
}

void Report(BenchReport* report, const char* name, double wall, std::uint64_t fired,
            double baseline_eps, double* speedup_out) {
  const double eps = wall > 0.0 ? static_cast<double>(fired) / wall : 0.0;
  std::printf("  %-18s %12" PRIu64 " events  %8.1f ms  %10.2f M events/s", name, fired,
              wall * 1e3, eps / 1e6);
  report->Note(std::string(name) + "/events", fired);
  report->Perf(std::string(name) + "/wall_ms", wall * 1e3);
  report->Perf(std::string(name) + "/events_per_sec", eps);
  if (baseline_eps > 0.0) {
    const double speedup = eps / baseline_eps;
    std::printf("  %5.2fx over %.2f M/s baseline", speedup, baseline_eps / 1e6);
    report->Note(std::string(name) + "/baseline_events_per_sec", baseline_eps);
    report->Perf(std::string(name) + "/speedup", speedup);
    if (speedup_out != nullptr) {
      *speedup_out = speedup;
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool enforce = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce") == 0) {
      enforce = true;
    }
  }

  PrintHeader("E-HOT", "Engine hot path",
              "Calendar event queue + batched flit service vs the pre-overhaul "
              "binary-heap baseline (events/sec, wall-clock, peak RSS)");

  BenchReport report("engine_hotpath");
  std::uint64_t fired = 0;
  double sf_speedup = 0.0;
  double dq_speedup = 0.0;

  std::printf("workloads:\n");
  double wall = RunScheduleFire(4'000'000, &fired);
  Report(&report, "schedule_fire", wall, fired, kBaseline.schedule_fire_eps, &sf_speedup);

  wall = RunDeepQueue(16384, 128, &fired);
  Report(&report, "deep_queue", wall, fired, kBaseline.deep_queue_eps, &dq_speedup);

  wall = RunCancelChurn(1024, 512, &fired);
  Report(&report, "cancel_churn", wall, fired, kBaseline.cancel_churn_eps, nullptr);

  std::uint64_t loads = 0;
  wall = RunFig1ClosedLoop(2000, &fired, &loads);
  Report(&report, "fig1_closed_loop", wall, fired, 0.0, nullptr);
  report.Note("fig1_closed_loop/loads_completed", loads);
  if (kBaseline.fig1_closed_loop_wall_ms > 0.0) {
    report.Note("fig1_closed_loop/baseline_wall_ms", kBaseline.fig1_closed_loop_wall_ms);
    report.Perf("fig1_closed_loop/wall_speedup", kBaseline.fig1_closed_loop_wall_ms / (wall * 1e3));
    std::printf("  fig1 closed loop: %" PRIu64 " loads, %.2fx wall-clock vs %.1f ms baseline\n",
                loads, kBaseline.fig1_closed_loop_wall_ms / (wall * 1e3),
                kBaseline.fig1_closed_loop_wall_ms);
  }

  // Pre-overhaul bench_engine_micro (google-benchmark) reference points,
  // recorded here so the acceptance comparison lives in one artifact.
  report.Note("bench_engine_micro_prepr/schedule_fire_eps", 23.4e6);
  report.Note("bench_engine_micro_prepr/deep_queue_16384_eps", 5.08e6);
  report.Note("bench_engine_micro_prepr/deep_queue_1024_eps", 8.9e6);

  const double rss = PeakRssMb();
  report.Perf("peak_rss_mb", rss);
  std::printf("peak RSS: %.1f MiB\n", rss);

  report.WriteJson();
  PrintFooter();

  if (enforce) {
    // Acceptance bar: the queue-bound workload must hold at least 2x over
    // the recorded pre-overhaul baseline. deep_queue is the stable gate
    // (measured ~5x with large margin); schedule_fire is reported but not
    // gated because single-event ping-pong is the noisiest workload on a
    // loaded single-CPU box.
    if (dq_speedup < 2.0) {
      std::fprintf(stderr, "FAIL: deep_queue speedup %.2fx < 2.0x required\n", dq_speedup);
      return 1;
    }
    std::printf("enforce: deep_queue %.2fx >= 2.0x (schedule_fire %.2fx, informational)\n",
                dq_speedup, sf_speedup);
  }
  return 0;
}
