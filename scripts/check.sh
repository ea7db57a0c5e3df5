#!/usr/bin/env bash
# Tier-1 verification: build + ctest across a matrix — the normal build
# (suite re-run under UNIFAB_AUDIT=1 and again under UNIFAB_SHARDS=4 worker
# threads), an AddressSanitizer/UBSan build (UNIFAB_SANITIZE=ON), and a
# ThreadSanitizer build (UNIFAB_SANITIZE=thread) running the concurrency
# subset — plus the deterministic golden-JSON diffs (non-golden "perf"
# sections stripped) and the engine hot-path throughput gates. Run from
# anywhere.
#
# --audit additionally gates determinism: the full test suite re-runs with
# UNIFAB_AUDIT=1 (invariant sweeps + run digests on), each audited bench
# must still match its golden bit-for-bit, two back-to-back audited runs
# must print identical [unifab-audit] digest lines, and an audited run with
# UNIFAB_SHARDS=4 worker threads must reproduce those digest lines (and the
# golden) bit-for-bit — the sharded-engine determinism contract.
#
# Golden pairs are auto-discovered: dropping bench/golden/BENCH_<x>.json
# into the tree gates bench_<x> in both the plain and audited passes with
# no script edits.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
AUDIT=0
[[ "${1:-}" == "--audit" ]] && AUDIT=1

# Digest-determinism-checked benches that write no golden JSON.
AUDIT_EXTRA="bench_fig1_topology"

# Worker-thread count for the sharded-determinism leg: the same tests and
# benches must be bit-identical with 1 worker and with this many.
SHARDS=4

run_pass() {
  local build_dir="$1"
  shift
  echo "=== configure: ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S "${ROOT}" "$@"
  echo "=== build: ${build_dir} ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ctest: ${build_dir} ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# Prints "<bench binary> <golden path>" per checked-in golden:
# bench/golden/BENCH_foo.json gates the bench_foo binary.
golden_pairs() {
  local golden
  for golden in "${ROOT}"/bench/golden/BENCH_*.json; do
    echo "bench_$(basename "${golden}" .json | sed 's/^BENCH_//') ${golden}"
  done
}

# The report's "perf" section holds wall-clock-derived numbers (calibrated
# iteration counts, elapsed seconds) and is exempt from golden diffs. It is
# a flat object (no nested braces) by BenchReport contract.
strip_perf() {
  sed -E 's/,"perf":\{[^}]*\}//' "$1"
}

# Golden diff with the non-golden perf section stripped from both sides.
diff_golden() {
  local golden="$1" generated="$2"
  diff -u --label "${golden}" --label "${generated}" \
      <(strip_perf "${golden}") <(strip_perf "${generated}")
}

# Regenerates a bench's JSON (optionally under UNIFAB_AUDIT=1) and diffs it
# against the checked-in golden bit-for-bit (minus the perf section).
check_golden() {
  local bin="$1" golden="$2" audit="${3:-0}"
  local label="golden"
  [[ "${audit}" == "1" ]] && label="golden under UNIFAB_AUDIT=1"
  echo "=== bench: ${bin} ${label} ==="
  (cd "${ROOT}/build/bench" && UNIFAB_AUDIT="${audit}" "./${bin}" > /dev/null)
  diff_golden "${golden}" "${ROOT}/build/bench/$(basename "${golden}")"
}

# Two back-to-back audited runs of a bench must print bit-identical
# non-empty [unifab-audit] digest lines (stderr; never in the report JSON).
check_digests() {
  local bin="$1"
  local audit_dir="${ROOT}/build/bench/audit"
  mkdir -p "${audit_dir}"
  echo "=== audit: ${bin} digest determinism ==="
  local run
  for run in 1 2; do
    (cd "${ROOT}/build/bench" && UNIFAB_AUDIT=1 "./${bin}" \
        > "${audit_dir}/${bin}.run${run}.out" 2> "${audit_dir}/${bin}.run${run}.err")
    grep '^\[unifab-audit\] digest=' "${audit_dir}/${bin}.run${run}.err" \
        > "${audit_dir}/${bin}.run${run}.digest"
  done
  if [[ ! -s "${audit_dir}/${bin}.run1.digest" ]]; then
    echo "FAIL: ${bin} printed no [unifab-audit] digest lines" >&2
    exit 1
  fi
  diff -u "${audit_dir}/${bin}.run1.digest" "${audit_dir}/${bin}.run2.digest"
  sed 's/^/    /' "${audit_dir}/${bin}.run1.digest"
}

# The sharded-determinism gate: an audited run with ${SHARDS} worker threads
# must print the exact digest lines of the 1-worker runs above (the domain
# partition is fixed by the topology, so worker count must not be able to
# reorder anything observable).
check_shard_digests() {
  local bin="$1"
  local audit_dir="${ROOT}/build/bench/audit"
  echo "=== audit: ${bin} digest determinism at UNIFAB_SHARDS=${SHARDS} ==="
  (cd "${ROOT}/build/bench" && UNIFAB_AUDIT=1 UNIFAB_SHARDS="${SHARDS}" "./${bin}" \
      > "${audit_dir}/${bin}.shards.out" 2> "${audit_dir}/${bin}.shards.err")
  grep '^\[unifab-audit\] digest=' "${audit_dir}/${bin}.shards.err" \
      > "${audit_dir}/${bin}.shards.digest"
  diff -u "${audit_dir}/${bin}.run1.digest" "${audit_dir}/${bin}.shards.digest"
}

run_pass "${ROOT}/build"

# The whole suite must also hold with invariant auditing on: every sweep
# clean, and (because audit sweeps are read-only) identical behavior.
echo "=== ctest: ${ROOT}/build (UNIFAB_AUDIT=1) ==="
UNIFAB_AUDIT=1 ctest --test-dir "${ROOT}/build" --output-on-failure -j "${JOBS}"

# ...and with the sharded engine's worker pool actually running windows in
# parallel (${SHARDS} worker threads; the default passes above ran with 1).
echo "=== ctest: ${ROOT}/build (UNIFAB_SHARDS=${SHARDS}) ==="
UNIFAB_SHARDS="${SHARDS}" ctest --test-dir "${ROOT}/build" --output-on-failure -j "${JOBS}"

# Golden regression gate: every checked-in bench/golden/BENCH_<x>.json is
# produced by a fully deterministic bench_<x> binary.
while read -r bin golden; do
  check_golden "${bin}" "${golden}"
done < <(golden_pairs)

if [[ "${AUDIT}" == "1" ]]; then
  while read -r bin golden; do
    check_digests "${bin}"
    # Audit sweeps are read-only, so the audited run's JSON (written during
    # the digest check above) must still reproduce the golden.
    echo "=== audit: ${bin} golden under UNIFAB_AUDIT=1 ==="
    diff_golden "${golden}" "${ROOT}/build/bench/$(basename "${golden}")"
    # Worker threads must change neither the digests nor the report.
    check_shard_digests "${bin}"
    echo "=== audit: ${bin} golden under UNIFAB_SHARDS=${SHARDS} ==="
    diff_golden "${golden}" "${ROOT}/build/bench/$(basename "${golden}")"
  done < <(golden_pairs)
  for bin in ${AUDIT_EXTRA}; do
    check_digests "${bin}"
    check_shard_digests "${bin}"
  done
fi

# Hot-path throughput gate #1: the calendar-queue workloads must hold >= 2x
# over the recorded pre-overhaul baseline (enforced inside the bench).
echo "=== bench: engine hotpath (enforce >= 2x) ==="
(cd "${ROOT}/build/bench" && ./bench_engine_hotpath --enforce)

# Hot-path throughput gate #2: bench_engine_micro against the parent commit.
# An absolute events/sec floor measures the machine as much as the code, so
# this builds bench_engine_micro from HEAD^ (exported with git archive, same
# build type) and runs the parent's and this tree's binaries back to back on
# the same machine. Each median of 3 repetitions must hold >= 0.8x the
# parent's. HEAD^ is the baseline, so run this on a committed change.
echo "=== bench: engine micro events/sec against HEAD^ ==="
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
      --benchmark_format=json > "$2")
}
# One repetition at a time, alternating binaries: load from other tenants on
# a shared host comes in phases of seconds and must hit both sides alike.
for rep in 1 2 3; do
  run_micro "${micro_dir}/build/bench" "${micro_dir}/parent.${rep}.json"
  run_micro "${ROOT}/build/bench" "${micro_dir}/change.${rep}.json"
done
python3 - "${micro_dir}" <<'EOF'
import glob, json, statistics, sys

def medians(side):
    runs = {}
    for path in glob.glob("%s/%s.*.json" % (sys.argv[1], side)):
        # The binary appends its own BenchReport lines after the
        # google-benchmark JSON object; parse just the leading object.
        data, _ = json.JSONDecoder().raw_decode(open(path).read())
        for b in data["benchmarks"]:
            runs.setdefault(b["name"], []).append(b["items_per_second"])
    return {name: statistics.median(v) for name, v in runs.items()}

parent, change = medians("parent"), medians("change")
if not parent:
    sys.exit("FAIL: the parent's bench_engine_micro reported no results")
failed = False
for name, base in parent.items():
    got = change.get(name, 0.0)
    print("    %-28s %12.0f events/s  parent %12.0f  %.2fx" % (name, got, base, got / base))
    if got < 0.8 * base:
        print("FAIL: %s fell below 0.8x the parent's median" % name, file=sys.stderr)
        failed = True
sys.exit(1 if failed else 0)
EOF

run_pass "${ROOT}/build-asan" -DUNIFAB_SANITIZE=ON

# ThreadSanitizer leg: the sharded engine's worker pool, cross-shard
# mailboxes, and Link boundary protocol must be race-free when windows run
# on real threads. Full TSan ctest is too slow for the container, so this
# leg runs the concurrency-exercising subset with ${SHARDS} worker threads.
echo "=== configure: ${ROOT}/build-tsan (UNIFAB_SANITIZE=thread) ==="
cmake -B "${ROOT}/build-tsan" -S "${ROOT}" -DUNIFAB_SANITIZE=thread
echo "=== build: ${ROOT}/build-tsan ==="
cmake --build "${ROOT}/build-tsan" -j "${JOBS}"
echo "=== ctest: ${ROOT}/build-tsan (UNIFAB_SHARDS=${SHARDS}, concurrency subset) ==="
UNIFAB_SHARDS="${SHARDS}" ctest --test-dir "${ROOT}/build-tsan" --output-on-failure \
    -j "${JOBS}" -R 'Sharded|ShardCancel|FabricFuzz|FaultCampaign|Cluster|Collect|Failover|Contention|ETrans|Heap|SwitchMem|TranslationCache|Coherent|CcNuma|Tenant|Scenario|FabricArbiterQos|Pod|Bridge|Ofi'

echo "=== all checks passed ==="
