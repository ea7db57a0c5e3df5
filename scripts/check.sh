#!/usr/bin/env bash
# Tier-1 verification: build + ctest across a matrix — the normal build
# (suite re-run under UNIFAB_AUDIT=1) and an AddressSanitizer/UBSan build
# (UNIFAB_SANITIZE=ON) — plus the deterministic golden-JSON diffs
# (non-golden "perf" sections stripped) and the engine hot-path throughput
# gates. Run from anywhere.
#
# --audit additionally gates determinism: each audited bench must still
# match its golden bit-for-bit, and two back-to-back audited runs must
# print identical [unifab-audit] digest lines.
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

run_pass "${ROOT}/build"

# The whole suite must also hold with invariant auditing on: every sweep
# clean, and (because audit sweeps are read-only) identical behavior.
echo "=== ctest: ${ROOT}/build (UNIFAB_AUDIT=1) ==="
UNIFAB_AUDIT=1 ctest --test-dir "${ROOT}/build" --output-on-failure -j "${JOBS}"

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
  done < <(golden_pairs)
  for bin in ${AUDIT_EXTRA}; do
    check_digests "${bin}"
  done
fi

# Hot-path throughput gate #1: the calendar-queue workloads must hold >= 2x
# over the recorded pre-overhaul baseline (enforced inside the bench).
echo "=== bench: engine hotpath (enforce >= 2x) ==="
(cd "${ROOT}/build/bench" && ./bench_engine_hotpath --enforce)

# Hot-path throughput gate #2: bench_engine_micro against the parent commit
# (paired rounds; see the script).
"${ROOT}/scripts/engine_micro_gate.sh"

run_pass "${ROOT}/build-asan" -DUNIFAB_SANITIZE=ON

echo "=== all checks passed ==="
