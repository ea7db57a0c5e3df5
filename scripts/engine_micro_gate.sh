#!/usr/bin/env bash
# Engine hot-path gate: this tree's bench_engine_micro against the parent
# commit's, on the same machine in the same job. An absolute events/sec
# floor measures the machine as much as the code, so this builds
# bench_engine_micro from HEAD^ (exported with git archive, same build type
# as build/) and runs the two binaries in alternating paired rounds. Each
# round yields one change/parent items-per-second ratio per benchmark; the
# gate fails when, for any benchmark, the median of those ratios is below
# 0.8. Load from other tenants on a shared host comes in phases of seconds;
# pairing cancels the phases both sides of a round share, and the median
# discards the rounds a phase split. HEAD^ is the baseline, so run this on
# a committed change, after scripts/check.sh (or a plain cmake build) has
# built build/bench/bench_engine_micro. Run from anywhere.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
ROUNDS=13
MIN_TIME=0.1  # seconds per benchmark per run: 13 short rounds, not 3 long ones
BUDGET=0.8

echo "=== bench: engine micro events/sec against HEAD^ (${ROUNDS} paired rounds) ==="
if ! parent_rev="$(git -C "${ROOT}" rev-parse --verify --quiet 'HEAD^')"; then
  echo "FAIL: HEAD^ is missing; the engine-micro gate needs the parent commit" \
       "(check out at least 2 commits of history)" >&2
  exit 1
fi
micro_dir="$(mktemp -d)"
trap 'rm -rf "${micro_dir}"' EXIT
mkdir "${micro_dir}/src"
git -C "${ROOT}" archive "${parent_rev}" | tar -x -C "${micro_dir}/src"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "${ROOT}/build/CMakeCache.txt")"
echo "    parent ${parent_rev} (${build_type:-default} build type)"
cmake -B "${micro_dir}/build" -S "${micro_dir}/src" -DCMAKE_BUILD_TYPE="${build_type}" > /dev/null
cmake --build "${micro_dir}/build" --target bench_engine_micro -j "${JOBS}" > /dev/null
run_micro() {
  (cd "$1" && ./bench_engine_micro \
      --benchmark_filter='BM_EngineScheduleFire|BM_EngineDeepQueue' \
      --benchmark_min_time="${MIN_TIME}" --benchmark_format=json > "$2")
}
for round in $(seq 1 "${ROUNDS}"); do
  run_micro "${micro_dir}/build/bench" "${micro_dir}/parent.${round}.json"
  run_micro "${ROOT}/build/bench" "${micro_dir}/change.${round}.json"
done
python3 - "${micro_dir}" "${ROUNDS}" "${BUDGET}" <<'EOF'
import json, statistics, sys

out_dir, rounds, budget = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

def rates(path):
    # The binary appends its own BenchReport lines after the google-benchmark
    # JSON object; parse just the leading object.
    data, _ = json.JSONDecoder().raw_decode(open(path).read())
    return {b["name"]: b["items_per_second"] for b in data["benchmarks"]}

ratios, parent_rates = {}, {}
for r in range(1, rounds + 1):
    parent = rates("%s/parent.%d.json" % (out_dir, r))
    change = rates("%s/change.%d.json" % (out_dir, r))
    for name, base in parent.items():
        ratios.setdefault(name, []).append(change.get(name, 0.0) / base)
        parent_rates.setdefault(name, []).append(base)
if not ratios:
    sys.exit("FAIL: the parent's bench_engine_micro reported no results")
failed = False
for name, rs in ratios.items():
    median = statistics.median(rs)
    print("    %-28s median ratio %.3f  (rounds %.2f-%.2f, parent median %.0f events/s)"
          % (name, median, min(rs), max(rs), statistics.median(parent_rates[name])))
    if median < budget:
        print("FAIL: %s median change/parent ratio %.3f < %.2f" % (name, median, budget),
              file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
EOF
