// The discrete-event simulation engine that drives every UniFabric model.
//
// An Engine is single-threaded and deterministic: all hardware components
// (links, switches, caches, accelerators) are passive objects that schedule
// callbacks on one Engine. Running the engine to quiescence advances
// simulated time; wall-clock time never appears anywhere in the models. A
// Cluster puts every component of the fabric on one Engine (DESIGN.md §6e).

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/sim/audit.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"

namespace unifab {

class Engine {
 public:
  Engine();
  ~Engine();  // reports the run digest (stderr) when auditing was enabled

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current simulated time.
  Tick Now() const { return now_; }

  // Schedules `fn` to run `delay` ticks from now. Accepts any `void()`
  // callable; small captures are stored inline in the queue's record pool.
  template <typename F>
  EventId Schedule(Tick delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at an absolute time. A past `when` is clamped to Now()
  // and counted in the sim/engine/late_schedules metric — a nonzero count is
  // an InvariantAuditor violation (a stale callback tried to corrupt tick
  // ordering), but the clamp keeps release builds from silently firing
  // events behind the clock.
  template <typename F>
  EventId ScheduleAt(Tick when, F&& fn) {
    if (when < now_) {
      when = now_;
      ++late_schedules_;
    }
    const EventId id = queue_.Push(when, std::forward<F>(fn));
    if (trace_ != nullptr) {
      trace_->OnSchedule(now_, when, id);
    }
    return id;
  }

  // Cancels a previously scheduled event. Safe to call after the event fired
  // (returns false).
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs events until the queue drains. Returns the number of events fired.
  std::size_t Run();

  // Runs events with firing time <= `deadline`, then sets Now() == deadline.
  // Returns the number of events fired.
  std::size_t RunUntil(Tick deadline);

  // Convenience: RunUntil(Now() + duration).
  std::size_t RunFor(Tick duration) { return RunUntil(now_ + duration); }

  // Fires at most `max_events` events. Returns the number fired (may be less
  // if the queue drains first).
  std::size_t Step(std::size_t max_events);

  bool Idle() const { return queue_.Empty(); }
  std::size_t PendingEvents() const { return queue_.Size(); }
  std::uint64_t TotalFired() const { return fired_; }

  // The central telemetry registry every component of this simulation
  // registers its instruments with.
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  // The invariant auditor every component registers its conservation checks
  // with (via AuditScope), mirroring the metrics registry.
  InvariantAuditor& audit() { return auditor_; }
  const InvariantAuditor& audit() const { return auditor_; }

  // Order-sensitive digest over (tick, event id) of every fired event while
  // auditing is enabled; identical workloads must produce identical values.
  const RunDigest& digest() const { return digest_; }

  // Sweep the auditor every `every_n_events` fired events and fold fired
  // events into the digest. 0 disables both (the default unless the
  // UNIFAB_AUDIT environment variable asked otherwise at construction:
  // unset/"0" = off, "1" = on at the default cadence, ">1" = that cadence).
  void SetAuditCadence(std::uint64_t every_n_events);
  std::uint64_t audit_cadence() const { return audit_cadence_; }

  // Runs one sweep now; on any violation prints every component-path
  // message to stderr and aborts (fail fast: the state is already wrong and
  // everything computed from here on would be garbage).
  void AuditNow();

  // Optional per-event sim-time tracing; pass nullptr to disable. An unset
  // sink costs one pointer test per Schedule/fire.
  void SetTraceSink(EventTraceSink* sink) { trace_ = sink; }
  EventTraceSink* trace_sink() const { return trace_; }

  // Always nullptr: there are no engine shards. Kept only for the benchmark
  // driver (perfbench/driver/main.cc), which falls back to the cluster's
  // engine clock when this returns nullptr.
  static Engine* CurrentShard() { return nullptr; }

  std::uint64_t late_schedules() const { return late_schedules_; }

 private:
  friend class AuditTestPeer;

  void FireNext();

  MetricRegistry metrics_;  // first member: components register during setup
  InvariantAuditor auditor_;  // likewise registered into during setup
  EventQueue queue_;
  Tick now_ = 0;
  std::uint64_t fired_ = 0;
  EventTraceSink* trace_ = nullptr;
  RunDigest digest_;
  std::uint64_t audit_cadence_ = 0;  // 0 = auditing off
  std::uint64_t events_since_audit_ = 0;
  bool audit_enabled_ever_ = false;  // a digest was accumulated; report it
  std::uint64_t late_schedules_ = 0;
};

}  // namespace unifab

#endif  // SRC_SIM_ENGINE_H_
