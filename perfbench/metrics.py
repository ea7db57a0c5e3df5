"""Metrics, correctness checks and span arithmetic for the UniFabric benchmark.

Pure functions over the raw JSON document ufbench writes (see
driver/main.cc); run.py prints what these return. Simulated times come from
the model's clock (ticks are picoseconds), host times from the driver's
steady clock.
"""

import math
import re
import statistics

# A failed foreground op counts at this multiple of the workload's latency
# limit, and completed ops are clipped to the same ceiling, so a percentile
# is never taken over survivors only.
CEILING_FACTOR = 10.0

# Candidate tail percentiles, highest first. The tail is the highest one
# with at least TAIL_MIN_BEYOND issued ops above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

PS_PER_US = 1e6


def _rank(n, p):
    # The epsilon keeps float noise in p * n (99.9 * 20000) off the next rank.
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


def nearest_rank(sorted_values, p):
    """Nearest-rank percentile of an ascending list: the ceil(p% * n)-th value."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def ops_beyond(n, p):
    """How many of n samples rank strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of n samples beyond it.

    Falls back to the median when n is too small for any rung.
    """
    for p in TAIL_LADDER:
        if ops_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def ceiling_latencies(latencies_us, ok_flags, limit_us):
    """Latencies with every failed op at the ceiling and the rest clipped to it."""
    ceiling = CEILING_FACTOR * limit_us
    return [min(lat, ceiling) if ok else ceiling for lat, ok in zip(latencies_us, ok_flags)]


def foreground_latency(latencies_us, ok_flags, limit_us):
    """p50, tail and SLO ratio over every issued foreground op (failures at the ceiling)."""
    values = sorted(ceiling_latencies(latencies_us, ok_flags, limit_us))
    n = len(values)
    p = tail_percentile(n)
    within = sum(1 for lat, ok in zip(latencies_us, ok_flags) if ok and lat <= limit_us)
    return {
        "n": n,
        "p50_us": nearest_rank(values, 50.0),
        "tail_us": nearest_rank(values, p),
        "tail_pct": p,
        "tail_beyond": ops_beyond(n, p),
        "slo_ratio": within / n,
        "ceiling_us": CEILING_FACTOR * limit_us,
    }


def span_self_times(spans):
    """Self time of each span: its duration minus the union of its children's intervals.

    `spans` is a list of dicts with start_us, dur_us and parent (an index into
    the list, -1 for roots). Children are clipped to their parent's interval.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_us"], s["start_us"] + s["dur_us"]
        covered = 0.0
        cursor = lo
        for c in sorted(children[i], key=lambda k: spans[k]["start_us"]):
            c_lo = max(spans[c]["start_us"], cursor)
            c_hi = min(spans[c]["start_us"] + spans[c]["dur_us"], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                cursor = c_hi
        out.append(max(0.0, s["dur_us"] - covered))
    return out


def untraced_reps(raw):
    return [r for r in raw["reps"] if not r["traced"]]


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def fastest_run_s(reps):
    """Host seconds of Engine::Run, each stretch of it taken at its fastest.

    The driver cuts every repetition's run into the same stretches of
    simulated work (`segment_s`, host seconds per stretch; see
    driver/main.cc). Every repetition simulates the identical schedule, so
    other tenants of the machine can only add time to a stretch, and they do
    so in bursts from tens of milliseconds to tens of seconds that move a
    median, or even the fastest whole repetition, by a quarter from one run
    to the next. The sum over stretches of each one's fastest repetition is
    the steadiest estimate of what the simulator itself costs.
    """
    return sum(min(stretch) for stretch in zip(*(r["segment_s"] for r in reps)))


def op_outcomes(raw):
    """Per-op (foreground, ok, latency us, bytes) from the first repetition."""
    ops = raw["ops"]
    fg = raw["foreground"]
    return [(fg[kind], state == 1, (end - due) / PS_PER_US, nbytes)
            for due, end, state, kind, nbytes in zip(ops["due_ps"], ops["end_ps"], ops["state"], ops["kind"],
                                                     ops["bytes"])]


def end_to_end(raw):
    """The workload's end-to-end metrics: name -> (value, unit), plus detail for printing."""
    reps = untraced_reps(raw)
    outcomes = op_outcomes(raw)
    fg = [o for o in outcomes if o[0]]
    lat = foreground_latency([o[2] for o in fg], [o[1] for o in fg], raw["limit_us"])
    issued = len(outcomes)
    failed = sum(1 for o in outcomes if not o[1])
    horizon_s = raw["horizon_ps"] / 1e12
    good_bytes = sum(o[3] for o in outcomes if o[1])
    metrics = {
        "setup_s": (statistics.median(r["cluster_s"] + r["runtime_s"] + r["populate_s"] for r in reps), "s"),
        "run_s": (fastest_run_s(reps), "s"),
        "peak_rss_mb": (raw["peak_rss_bytes"] / 1e6, "MB"),
        "fg_p50_us": (lat["p50_us"], "us"),
        "fg_tail_us": (lat["tail_us"], "us"),
        "fg_slo_ratio": (lat["slo_ratio"], "ratio"),
        "fail_ratio": (failed / issued, "ratio"),
        "goodput_mbps": (good_bytes / horizon_s / 1e6, "MB/s"),
    }
    detail = {"latency": lat, "ops_issued": issued, "ops_failed": failed, "reps": len(reps)}
    return metrics, detail


def check(raw):
    """Correctness violations as (repetition index, message); empty when every repetition is sound.

    Each repetition must issue every scheduled op exactly at its due tick,
    end with nothing in flight and a clean audit sweep, and reproduce the
    first repetition's simulated outputs bit for bit (the traced one too).
    """
    errors = []
    n_ops = len(raw["ops"]["due_ps"])
    first = raw["reps"][0]
    for i, r in enumerate(raw["reps"]):
        if r["issued"] != n_ops:
            errors.append((i, "issued %d of %d scheduled ops" % (r["issued"], n_ops)))
        if r["issued"] != r["completed"] + r["failed"] or r["in_flight"] != 0:
            errors.append((i, "issued %d != completed %d + failed %d (in flight %d)"
                           % (r["issued"], r["completed"], r["failed"], r["in_flight"])))
        if r["double_completions"]:
            errors.append((i, "%d ops completed twice" % r["double_completions"]))
        if r["alloc_failures"]:
            errors.append((i, "%d heap allocations failed" % r["alloc_failures"]))
        if r["max_lateness_ps"] != 0:
            errors.append((i, "an arrival fired %d ps off its due tick" % r["max_lateness_ps"]))
        errors += [(i, "audit: " + v) for v in r["violations"]]
        for key in ("outcome_digest", "registry_digest", "events", "sim_end_ps"):
            if r[key] != first[key]:
                errors.append((i, "%s differs from rep 0 (%s vs %s)" % (key, r[key], first[key])))
        if len(r["segment_s"]) != len(first["segment_s"]):
            errors.append((i, "%d run stretches, rep 0 has %d" % (len(r["segment_s"]), len(first["segment_s"]))))
    return errors


# --- per-layer metrics ----------------------------------------------------------------


def _component_values(registry, pattern):
    """Values of every registry path matching `pattern` (a regex over the full path)."""
    rx = re.compile(pattern)
    return [v for k, v in registry.items() if rx.fullmatch(k)]


def _sum(registry, pattern):
    return sum(_component_values(registry, pattern))


def _summary_max(registry, pattern, field):
    vals = [v.get(field, 0.0) for v in _component_values(registry, pattern) if v.get("count", 0)]
    return max(vals) if vals else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw):
    """Per-layer metrics of the traced repetition: name -> (value, unit)."""
    reps = untraced_reps(raw)
    traced = [r for r in raw["reps"] if r["traced"]][0]
    t = raw["trace"]
    reg = t["registry"]
    run_s = fastest_run_s(reps)
    events = traced["events"]
    sim_ns = traced["sim_end_ps"] / 1e3
    bridges = set(raw["bridges"])

    links = {}
    for key, value in reg.items():
        m = re.fullmatch(r"fabric/link/(.+)/tx[01]/(\w+)", key)
        if m:
            kind = "bridge" if m.group(1) in bridges else "link"
            links.setdefault((kind, m.group(2)), []).append(value)

    def link_sum(kind, stat):
        return sum(links.get((kind, stat), []))

    def issue_ns(kinds):
        ns = sum(t["issue"][k]["host_ns"] for k in kinds)
        calls = sum(t["issue"][k]["calls"] for k in kinds)
        return _ratio(ns, calls)

    etrans = r"recovery/etrans/%s"
    agents = r"core/etrans/agent/.+/%s"
    arbiter_qos = r"core/arbiter/qos/%s"
    heap = r"core/heap(#\d+)?/%s"
    collect = r"core/collect/%s"
    l1_hits = _sum(reg, r"mem/hierarchy/.+/l1/hits")
    l1_acc = l1_hits + _sum(reg, r"mem/hierarchy/.+/l1/misses")
    l2_hits = _sum(reg, r"mem/hierarchy/.+/l2/hits")
    l2_acc = l2_hits + _sum(reg, r"mem/hierarchy/.+/l2/misses")
    recovered = _sum(reg, etrans % "jobs_recovered")
    aborted = _sum(reg, etrans % "jobs_aborted")
    reroutes = _sum(reg, etrans % "reroutes")
    route_us = statistics.median(t["route_build_us"])
    epoch_ms = statistics.median(t["epoch_host_ms"]) if t["epoch_host_ms"] else 0.0
    windows = reg.get("sim/engine/windows", 0)

    m = {
        "sim.events": (events, "count"),
        "sim.host_ns_per_event": (_ratio(run_s * 1e9, events), "ns"),
        "sim.sim_ms": (traced["sim_end_ps"] / 1e9, "ms"),
        "sim.events_per_window": (_ratio(events, windows), "count"),
        "sim.cross_event_share": (_ratio(reg.get("sim/engine/cross_events", 0), events), "ratio"),
        "sim.trace_overhead_s": (traced["run_s"] - median_of(reps, "run_s"), "s"),
        "topo.cluster_build_s": (median_of(reps, "cluster_s"), "s"),
        "topo.cluster_rss_mb": (median_of(reps, "cluster_rss_bytes") / 1e6, "MB"),
        "core.runtime_build_s": (median_of(reps, "runtime_s"), "s"),
        "core.populate_s": (median_of(reps, "populate_s"), "s"),
        "fabric.link.flits": (link_sum("link", "flits_delivered"), "count"),
        "fabric.link.busy_max": (_ratio(max(links.get(("link", "busy_time_ns"), [0.0])), sim_ns), "ratio"),
        "fabric.link.credit_stalls": (link_sum("link", "credit_stalls"), "count"),
        "fabric.link.replays": (link_sum("link", "replays"), "count"),
        "fabric.switch.flits": (_sum(reg, r"fabric/switch/.+/flits_forwarded"), "count"),
        "fabric.switch.queueing_p99_ns": (_summary_max(reg, r"fabric/switch/.+/queueing_ns", "p99"), "ns"),
        "fabric.switch.hol_blocked": (_sum(reg, r"fabric/switch/.+/hol_blocked_events"), "count"),
        "fabric.adapter.txn_p50_ns": (_summary_max(reg, r"fabric/adapter/.+/txn_latency_ns", "p50"), "ns"),
        "fabric.adapter.txn_p99_ns": (_summary_max(reg, r"fabric/adapter/.+/txn_latency_ns", "p99"), "ns"),
        "fabric.adapter.mshr_timeouts": (_sum(reg, r"fabric/adapter/.+/mshr_timeouts"), "count"),
        "fabric.adapter.mshr_failures": (_sum(reg, r"fabric/adapter/.+/mshr_failures"), "count"),
        "fabric.bridge.flits": (link_sum("bridge", "flits_delivered"), "count"),
        "fabric.bridge.replays": (link_sum("bridge", "replays"), "count"),
        "fabric.bridge.drops": (link_sum("bridge", "dropped_on_fail"), "count"),
        "fabric.route_build_us": (route_us, "us"),
        "fabric.route_build_share": (_ratio(route_us * reroutes, run_s * 1e6), "ratio"),
        "mem.l1_hit_ratio": (_ratio(l1_hits, l1_acc), "ratio"),
        "mem.l1_accesses": (l1_acc, "count"),
        "mem.l2_hit_ratio": (_ratio(l2_hits, l2_acc), "ratio"),
        "mem.l2_accesses": (l2_acc, "count"),
        "mem.remote_accesses": (_sum(reg, r"mem/hierarchy/.+/remote_mem_accesses"), "count"),
        "mem.access_p99_ns": (_summary_max(reg, r"mem/hierarchy/.+/access_latency_ns", "p99"), "ns"),
        "mem.dram_queue_full": (_sum(reg, r"mem/dram/.+/queue_full_rejects"), "count"),
        "core.etrans.submitted": (_sum(reg, r"core/etrans/engine/(immediate|delegated)_transfers"), "count"),
        "core.etrans.attempt_failures": (_sum(reg, etrans % "attempt_failures"), "count"),
        "core.etrans.retries": (_sum(reg, etrans % "retries"), "count"),
        "core.etrans.reroutes": (reroutes, "count"),
        "core.etrans.recovered": (recovered, "count"),
        "core.etrans.aborted": (aborted, "count"),
        "core.etrans.retry_yield": (_ratio(recovered, recovered + aborted), "ratio"),
        "core.etrans.lease_denials": (_sum(reg, agents % "lease_denials"), "count"),
        "core.etrans.throttle_waits": (_sum(reg, agents % "throttle_waits"), "count"),
        "core.etrans.jobs_timed_out": (_sum(reg, agents % "jobs_timed_out"), "count"),
        "core.etrans.submit_host_ns": (issue_ns(("gold_etrans", "storm_etrans", "bg_etrans")), "ns"),
        "core.arbiter.reservations": (reg.get("core/arbiter/reservations", 0), "count"),
        "core.arbiter.rejections": (reg.get("core/arbiter/rejections", 0), "count"),
        "core.arbiter.preemptions": (_sum(reg, arbiter_qos % "preemptions"), "count"),
        "core.arbiter.grants_guaranteed": (_sum(reg, arbiter_qos % "grants_guaranteed"), "count"),
        "core.arbiter.grants_best_effort": (_sum(reg, arbiter_qos % "grants_best_effort"), "count"),
        "core.arbiter.budget_clamps": (_sum(reg, arbiter_qos % "budget_clamps"), "count"),
        "core.arbiter.client_timeouts": (_sum(reg, r"core/arbiter/client/.+/timeouts"), "count"),
        "core.arbiter.late_grants": (_sum(reg, r"core/arbiter/client/.+/late_grants"), "count"),
        "core.heap.ops": (_sum(reg, heap % "(reads|writes)"), "count"),
        "core.heap.promotions": (_sum(reg, heap % "promotions"), "count"),
        "core.heap.demotions": (_sum(reg, heap % "demotions"), "count"),
        "core.heap.bytes_migrated": (_sum(reg, heap % "bytes_migrated"), "bytes"),
        "core.heap.migrations_failed": (_sum(reg, heap % "migrations_failed"), "count"),
        "core.heap.tier0_share": (_ratio(t["tier0_at_issue"], t["heap_ops"]), "ratio"),
        "core.heap.epochs": (t["heap_epochs"], "count"),
        "core.heap.profiler_entries": (t["profiler_entries"], "count"),
        "core.heap.epoch_host_ms": (epoch_ms, "ms"),
        "core.heap.epoch_share": (_ratio(t["heap_epochs"] * epoch_ms / 1e3, run_s), "ratio"),
        "core.heap.issue_host_ns": (issue_ns(("heap_read", "heap_write")), "ns"),
        "core.collect.started": (reg.get(collect % "collectives_started", 0), "count"),
        "core.collect.completed": (reg.get(collect % "collectives_completed", 0), "count"),
        "core.collect.failed": (reg.get(collect % "collectives_failed", 0), "count"),
        "core.collect.queued": (reg.get(collect % "collectives_queued", 0), "count"),
        "core.collect.rejected": (reg.get(collect % "collectives_rejected", 0), "count"),
        "core.collect.step_retries": (reg.get(collect % "step_retries", 0), "count"),
        "core.collect.transfer_failures": (reg.get(collect % "transfer_failures", 0), "count"),
        "core.collect.reserve_denials": (reg.get(collect % "reserve_denials", 0), "count"),
        "core.collect.algo_hier": (reg.get(collect % "algo_hier", 0), "count"),
        "core.collect.straggler_p99_us": (_summary_max(reg, collect % "straggler_us", "p99"), "us"),
        "core.collect.admit_wait_p99_us": (_summary_max(reg, collect % "admit_wait_us", "p99"), "us"),
    }
    return m
