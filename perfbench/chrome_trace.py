"""Chrome trace-event JSON for one traced benchmark run.

Two processes keep the clocks apart, so Perfetto (ui.perfetto.dev, offline)
or chrome://tracing never mixes them on one axis:
  pid 1 "host clock": setup, run and probe spans from the driver, in host
        microseconds since the driver started; each carries its self time.
  pid 2 "simulated time": one async slice per issued op, from its due tick
        to its completion, in simulated microseconds, one track per op kind.
"""

import json

from metrics import PS_PER_US, span_self_times

HOST_PID = 1
SIM_PID = 2


def _meta(pid, tid, kind, name):
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind, "args": {"name": name}}


def build(raw):
    """The trace as a dict: {"traceEvents": [...], "displayTimeUnit": "ns"}."""
    spans = raw["trace"]["spans"]
    events = [
        _meta(HOST_PID, 0, "process_name", "host clock (driver)"),
        _meta(HOST_PID, 1, "thread_name", "driver"),
        _meta(SIM_PID, 0, "process_name", "simulated time (%s, seed %d)" % (raw["workload"], raw["seed"])),
    ]
    for span, self_us in zip(spans, span_self_times(spans)):
        events.append({"ph": "X", "pid": HOST_PID, "tid": 1, "name": span["name"], "cat": "host",
                       "ts": span["start_us"], "dur": span["dur_us"], "args": {"self_us": self_us}})
    ops = raw["ops"]
    for kind, name in enumerate(raw["kinds"]):
        events.append(_meta(SIM_PID, kind + 1, "thread_name", name))
    for op_id, (due, end, state, kind) in enumerate(zip(ops["due_ps"], ops["end_ps"], ops["state"], ops["kind"])):
        name = raw["kinds"][kind]
        common = {"pid": SIM_PID, "tid": kind + 1, "cat": name, "name": name, "id": op_id}
        events.append(dict(common, ph="b", ts=due / PS_PER_US, args={"op": op_id, "ok": state == 1}))
        events.append(dict(common, ph="e", ts=end / PS_PER_US))
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write(path, raw):
    with open(path, "w") as f:
        json.dump(build(raw), f, separators=(",", ":"))
