// E-TEN: multi-tenant scenario engine with QoS-aware arbitration.
//
// Two experiments over the declarative ScenarioSpec DSL:
//
//  1. Scale sweep — mixed guaranteed/burstable/best-effort populations at
//     1k, 10k, and 100k tenants driving eTrans/heap/collective/FAA traffic
//     through one runtime. Per class the bench reports issued/completed/
//     failed and completion p99, and *asserts* (exit code) the per-class
//     SLOs written in the scenario plus exactly-once terminal accounting
//     (issued == completed + failed, nothing in flight at quiescence).
//
//  2. Isolation — a fixed guaranteed population measured alone, then again
//     under a 16x best-effort burst storm. Guaranteed-class preemption and
//     weighted sharing in the arbiter must hold the guaranteed p99 within
//     a recorded bound of its quiet baseline; the bench fails otherwise.
//
// Everything is deterministic DES: the JSON report is golden-gated and must
// be bit-identical run to run, audited or not.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/runtime.h"
#include "src/sim/scenario.h"
#include "src/topo/cluster.h"

namespace unifab {
namespace {

// Guaranteed p99 under the best-effort storm may exceed the quiet baseline
// by at most this much (the recorded isolation bound).
constexpr double kIsolationMarginUs = 400.0;

struct ClassOutcome {
  std::string name;
  QosClass qos;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double p99_us = 0.0;
  double slo_p99_us = 0.0;
};

struct Outcome {
  std::vector<ClassOutcome> classes;
  std::uint64_t in_flight = 0;
  bool conserved = false;
  ArbiterQosStats qos;
};

Outcome Run(const std::string& scenario_text) {
  ClusterConfig ccfg;
  ccfg.num_hosts = 4;
  ccfg.num_fams = 2;
  ccfg.num_faas = 1;
  ccfg.num_switches = 2;
  Cluster cluster(ccfg);

  RuntimeOptions opts;
  // Give guaranteed tenants a per-tenant credit budget: one concurrent
  // full-rate transfer's worth. The audit's tenant_budget_ceiling check
  // rides along under UNIFAB_AUDIT=1.
  opts.arbiter.qos[static_cast<int>(QosClass::kGuaranteed)].tenant_budget_mbps = 4000.0;
  UniFabricRuntime runtime(&cluster, opts);

  const ScenarioSpec spec = ScenarioSpec::Parse(scenario_text);
  if (!spec.errors.empty()) {
    for (const auto& e : spec.errors) {
      std::fprintf(stderr, "scenario error: %s\n", e.c_str());
    }
    std::exit(2);
  }
  TenantEngine* tenants = runtime.AttachTenants(spec);
  tenants->Start();
  cluster.engine().Run();  // arrivals stop at the horizon; run drains the rest

  Outcome out;
  for (std::size_t c = 0; c < tenants->num_classes(); ++c) {
    const TenantClassStats& s = tenants->class_stats(c);
    ClassOutcome co;
    co.name = spec.classes[c].name;
    co.qos = spec.classes[c].qos;
    co.issued = s.issued;
    co.completed = s.completed;
    co.failed = s.failed;
    co.p99_us = s.latency_us.P99();
    co.slo_p99_us = spec.classes[c].slo_p99_us;
    out.classes.push_back(co);
  }
  out.in_flight = tenants->in_flight();
  out.conserved =
      out.in_flight == 0 && tenants->issued() == tenants->completed() + tenants->failed();
  out.qos = runtime.arbiter()->qos_stats();
  return out;
}

double P99Of(const Outcome& out, const std::string& cls) {
  for (const auto& c : out.classes) {
    if (c.name == cls) {
      return c.p99_us;
    }
  }
  return 0.0;
}

const char* kGoldClass =
    "class name=gold qos=guaranteed tenants=64 arrival=poisson rate_ops_s=5000 "
    "bytes=16384 request_mbps=4000 mix=etrans:1 slo_p99_us=400\n";

}  // namespace
}  // namespace unifab

int main() {
  using namespace unifab;
  PrintHeader("E-TEN", "multi-tenant QoS sweep + isolation",
              "scenario-driven tenant populations vs per-class SLOs and a "
              "best-effort storm vs the guaranteed-class isolation bound");

  struct Leg {
    std::string name;
    std::string spec;
  };
  // The sweep scales population x10 per leg while shrinking per-tenant rate
  // and payload so event counts stay tractable; classes keep the 1/9/90
  // guaranteed/burstable/best-effort split throughout.
  const std::vector<Leg> sweep = {
      {"mix_1k",
       "scenario mix_1k\nseed 101\nhorizon_us 2000\n"
       "class name=gold qos=guaranteed tenants=10 arrival=poisson rate_ops_s=2000 "
       "bytes=16384 request_mbps=4000 mix=etrans:2,heap_read:1,faa:1 "
       "slo_p99_us=100\n"
       "class name=silver qos=burstable tenants=90 arrival=poisson rate_ops_s=2000 "
       "bytes=8192 mix=heap_read:2,heap_write:1,etrans:1 slo_p99_us=100\n"
       "class name=bronze qos=best_effort tenants=900 arrival=bursty burst=4 "
       "rate_ops_s=1000 bytes=4096 mix=heap_read:1\n"},
      {"mix_10k",
       "scenario mix_10k\nseed 102\nhorizon_us 600\n"
       "class name=gold qos=guaranteed tenants=100 arrival=poisson rate_ops_s=2000 "
       "bytes=8192 request_mbps=2000 mix=etrans:1,heap_read:1 slo_p99_us=600\n"
       "class name=silver qos=burstable tenants=900 arrival=poisson rate_ops_s=2000 "
       "bytes=1024 mix=heap_read:1,heap_write:1 slo_p99_us=600\n"
       "class name=bronze qos=best_effort tenants=9000 arrival=poisson "
       "rate_ops_s=1000 bytes=1024 mix=heap_read:1\n"},
      {"mix_100k",
       "scenario mix_100k\nseed 103\nhorizon_us 2000\n"
       "class name=gold qos=guaranteed tenants=1000 arrival=poisson "
       "rate_ops_s=1000 bytes=4096 request_mbps=2000 mix=etrans:1,heap_read:3 "
       "slo_p99_us=600\n"
       "class name=silver qos=burstable tenants=9000 arrival=poisson "
       "rate_ops_s=500 bytes=256 mix=heap_read:1,heap_write:1 slo_p99_us=600\n"
       "class name=bronze qos=best_effort tenants=90000 arrival=poisson "
       "rate_ops_s=200 bytes=256 mix=heap_read:1\n"},
  };

  BenchReport report("multi_tenant");
  int failures = 0;

  std::printf("%-10s %-8s %-12s %-9s %-9s %-8s %-10s %-10s %-5s\n", "scenario", "class",
              "qos", "issued", "complete", "failed", "p99 us", "slo us", "ok");
  for (const Leg& leg : sweep) {
    const Outcome out = Run(leg.spec);
    if (!out.conserved) {
      std::fprintf(stderr, "FAIL %s: completions not conserved (in_flight=%llu)\n",
                   leg.name.c_str(), static_cast<unsigned long long>(out.in_flight));
      ++failures;
    }
    for (const ClassOutcome& c : out.classes) {
      const bool slo_ok = c.slo_p99_us <= 0.0 || c.p99_us <= c.slo_p99_us;
      if (!slo_ok) {
        ++failures;
      }
      std::printf("%-10s %-8s %-12s %-9llu %-9llu %-8llu %-10.1f %-10.1f %-5s\n",
                  leg.name.c_str(), c.name.c_str(), QosClassName(c.qos),
                  static_cast<unsigned long long>(c.issued),
                  static_cast<unsigned long long>(c.completed),
                  static_cast<unsigned long long>(c.failed), c.p99_us, c.slo_p99_us,
                  slo_ok ? "yes" : "NO");
      const std::string k = leg.name + "/" + c.name;
      report.Note(k + "/issued", c.issued);
      report.Note(k + "/completed", c.completed);
      report.Note(k + "/failed", c.failed);
      report.Note(k + "/p99_us", c.p99_us);
      report.Note(k + "/slo_ok", std::uint64_t{slo_ok ? 1u : 0u});
    }
    report.Note(leg.name + "/conserved", std::uint64_t{out.conserved ? 1u : 0u});
    report.Note(leg.name + "/preemptions", out.qos.preemptions);
    report.Note(leg.name + "/budget_clamps", out.qos.budget_clamps);
    report.Note(leg.name + "/grants_guaranteed",
                out.qos.grants[static_cast<int>(QosClass::kGuaranteed)]);
    report.Note(leg.name + "/grants_best_effort",
                out.qos.grants[static_cast<int>(QosClass::kBestEffort)]);
  }

  // Isolation: the same guaranteed population, quiet vs under a best-effort
  // burst storm. Preemption + weighted shares must keep the guaranteed p99
  // within kIsolationMarginUs of its baseline.
  const std::string base_spec =
      std::string("scenario iso_base\nseed 7\nhorizon_us 1000\n") + kGoldClass;
  const std::string storm_spec =
      std::string("scenario iso_storm\nseed 7\nhorizon_us 1000\n") + kGoldClass +
      "class name=storm qos=best_effort tenants=1024 arrival=bursty burst=8 "
      "rate_ops_s=10000 bytes=8192 request_mbps=4000 mix=etrans:1\n";
  const Outcome base = Run(base_spec);
  const Outcome storm = Run(storm_spec);
  const double base_p99 = P99Of(base, "gold");
  const double storm_p99 = P99Of(storm, "gold");
  const bool isolated = storm_p99 <= base_p99 + kIsolationMarginUs;
  if (!isolated || !base.conserved || !storm.conserved) {
    ++failures;
  }
  std::printf("\nisolation: gold p99 %.1f us quiet -> %.1f us under storm "
              "(bound +%.0f us) %s; storm preemptions=%llu\n",
              base_p99, storm_p99, kIsolationMarginUs, isolated ? "OK" : "VIOLATED",
              static_cast<unsigned long long>(storm.qos.preemptions));
  report.Note("isolation/base_p99_us", base_p99);
  report.Note("isolation/storm_p99_us", storm_p99);
  report.Note("isolation/margin_us", kIsolationMarginUs);
  report.Note("isolation/ok", std::uint64_t{isolated ? 1u : 0u});
  report.Note("isolation/storm_preemptions", storm.qos.preemptions);
  report.Note("isolation/storm_grants_guaranteed",
              storm.qos.grants[static_cast<int>(QosClass::kGuaranteed)]);
  report.Note("isolation/storm_grants_best_effort",
              storm.qos.grants[static_cast<int>(QosClass::kBestEffort)]);
  report.Note("failures", std::uint64_t{static_cast<std::uint64_t>(failures)});

  report.WriteJson();
  PrintFooter();
  return failures == 0 ? 0 : 1;
}
