#include "src/sim/engine.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace unifab {

namespace {

// Default sweep granularity when UNIFAB_AUDIT=1 asks for "on": frequent
// enough to pin a violation to a small window of events, cheap enough that
// audited test runs stay fast.
constexpr std::uint64_t kDefaultAuditCadence = 256;

std::uint64_t AuditCadenceFromEnv() {
  const char* env = std::getenv("UNIFAB_AUDIT");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || v == 0) {
    return 0;
  }
  return v == 1 ? kDefaultAuditCadence : static_cast<std::uint64_t>(v);
}

}  // namespace

Engine::Engine() : audit_cadence_(AuditCadenceFromEnv()) {
  metrics_.AddGaugeFn("sim/engine/now_ns", [this] { return ToNs(now_); });
  metrics_.AddCounterFn("sim/engine/events_fired", [this] { return fired_; });
  metrics_.AddCounterFn("sim/engine/events_pending",
                        [this] { return static_cast<std::uint64_t>(queue_.Size()); });
  metrics_.AddCounterFn("sim/engine/late_schedules", [this] { return late_schedules_; });
  // The queue's pooled-record accounting is the engine's own conservation
  // law; everything else registers through components' AuditScopes.
  auditor_.Register("sim/engine/event_queue/record_conservation", [this]() -> std::string {
    const std::size_t allocated = queue_.AllocatedRecords();
    const std::size_t free_records = queue_.FreeRecords();
    const std::size_t live = queue_.Size();
    if (allocated - free_records != live) {
      return "allocated(" + std::to_string(allocated) + ") - free(" +
             std::to_string(free_records) + ") != pending(" + std::to_string(live) + ")";
    }
    return {};
  });
  // A late schedule means a stale callback computed a firing time behind the
  // clock; the clamp in ScheduleAt keeps tick order intact but the intent
  // was wrong, so audited runs must fail.
  auditor_.Register("sim/engine/late_schedules", [this]() -> std::string {
    if (late_schedules_ != 0) {
      return std::to_string(late_schedules_) +
             " event(s) scheduled into the past (clamped to Now())";
    }
    return {};
  });
}

Engine::~Engine() {
  if (!audit_enabled_ever_) {
    return;
  }
  // stderr, not the metrics snapshot: golden BENCH_*.json stay bit-for-bit
  // identical whether or not a run was audited.
  std::fprintf(stderr, "[unifab-audit] digest=%016" PRIx64 " events=%" PRIu64 "\n",
               digest_.value(), fired_);
}

void Engine::SetAuditCadence(std::uint64_t every_n_events) {
  audit_cadence_ = every_n_events;
  events_since_audit_ = 0;
}

void Engine::AuditNow() {
  const auto violations = auditor_.Sweep();
  if (violations.empty()) {
    return;
  }
  for (const auto& v : violations) {
    std::fprintf(stderr, "[unifab-audit] INVARIANT VIOLATION at t=%" PRIu64 "ps %s: %s\n",
                 now_, v.path.c_str(), v.message.c_str());
  }
  std::abort();
}

void Engine::FireNext() {
  auto [when, id, fn] = queue_.Pop();
  assert(when >= now_);
  now_ = when;
  ++fired_;
  if (trace_ != nullptr) {
    trace_->OnFire(when, id);
  }
  if (fn) {
    fn();  // null callbacks are legal no-ops (completion-less operations)
  }
  if (audit_cadence_ != 0) {
    audit_enabled_ever_ = true;
    digest_.Fold(when);
    digest_.Fold(id);
    if (++events_since_audit_ >= audit_cadence_) {
      events_since_audit_ = 0;
      AuditNow();
    }
  }
}

std::size_t Engine::Run() {
  std::size_t n = 0;
  while (!queue_.Empty()) {
    FireNext();
    ++n;
  }
  return n;
}

std::size_t Engine::RunUntil(Tick deadline) {
  std::size_t n = 0;
  while (!queue_.Empty() && queue_.NextTime() <= deadline) {
    FireNext();
    ++n;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

std::size_t Engine::Step(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && !queue_.Empty()) {
    FireNext();
    ++n;
  }
  return n;
}

}  // namespace unifab
