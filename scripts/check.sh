#!/usr/bin/env bash
# Full local verification matrix: plain, ASan, UBSan, and -march=native
# builds with the complete test suite (which includes the ctlint
# secret-hygiene pass and its self-test), all with warnings-as-errors,
# plus a benchmark smoke run that emits google-benchmark JSON, validates
# it with scripts/bench_regress.py --check-schema, and diffs it against
# the committed BENCH_baseline.json. This is the command to run before
# pushing; CI runs the same matrix.
#
# Usage:
#   scripts/check.sh            # plain + address + undefined + native
#   scripts/check.sh plain      # one configuration only
#   scripts/check.sh address    # full suite, so every label (io, fleet,
#                               # fuzz, ...) runs under ASan; rerun one
#                               # label from the same tree without a
#                               # rebuild: ctest --test-dir
#                               # build-check/address -L io
#   scripts/check.sh undefined
#   scripts/check.sh native     # -DNEUROPULS_NATIVE=ON (lane kernels get
#                               # the host ISA; ctest re-asserts lane/scalar
#                               # bit-identity under FMA contraction)
#   scripts/check.sh chaos      # fault-injection and abuse sweep: runs
#                               # the ctest label `chaos` (tests/chaos:
#                               # faulty links, flood storms, replay and
#                               # half-open exhaustion) under BOTH ASan and
#                               # UBSan, in the address and undefined
#                               # trees (built first if absent) —
#                               # held-frame queues, retry/backoff loops,
#                               # corrupted-blob parsing, and
#                               # shedding/eviction of session lifetimes
#                               # are exactly where lifetime and UB bugs
#                               # would hide
#   scripts/check.sh tsan       # concurrency sweep: one ThreadSanitizer
#                               # tree, then ctest -L concurrency (sharded
#                               # CrpDatabase stress, SessionEngine
#                               # determinism, reactor alloc/park-wake
#                               # suites) under NEUROPULS_THREADS=1 (serial
#                               # fallback / degenerate reactor) and =4
#                               # (real steal and park/wake traffic) — the
#                               # shard locks and the reactor are the only
#                               # cross-thread surfaces in the stack, and
#                               # those two widths are where scheduler
#                               # bugs live
#   scripts/check.sh lint       # static-analysis flavor: ctlint (all
#                               # passes, empty-baseline gate) + fixture
#                               # self-test, bench_regress schema
#                               # self-check (and its duplicate-row,
#                               # time_unit and cross-host checks),
#                               # clang-tidy over the exported
#                               # compile database, and a Clang
#                               # -Wthread-safety -Werror build of the
#                               # whole tree. The clang-tidy and Clang
#                               # steps skip LOUDLY when no clang is on
#                               # PATH (the GCC-only container); ctlint
#                               # and the schema check always gate
#
#   scripts/check.sh --list-flavors   # print the flavor names and exit
#
# Environment:
#   NEUROPULS_BENCH_THRESHOLD   allowed fractional throughput drop vs
#                               BENCH_baseline.json in the smoke compare
#                               (default 0.5 — smoke runs are short and
#                               noisy; use scripts/bench_regress.py with
#                               its default 0.10 threshold on full-length
#                               runs for real regression gating)
#
# Build trees and their logs land under build-check/ (gitignored), one
# tree per configuration: the label sweeps (chaos, tsan) reuse the tree
# of their sanitizer, so `address` then `chaos` builds ASan once.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Flavor catalog, one per line: name, then a short "what it sweeps".
# Kept as data so --list-flavors and the unknown-config error stay in
# sync with the dispatch below by construction.
FLAVORS=(
  "plain       full suite, no sanitizer"
  "address     full suite under AddressSanitizer"
  "undefined   full suite under UBSan"
  "native      full suite with -DNEUROPULS_NATIVE=ON (host-ISA lane kernels)"
  "chaos       ctest -L chaos in the ASan AND UBSan trees (fault injection, floods)"
  "tsan        ctest -L concurrency under TSan at NEUROPULS_THREADS=1 and =4"
  "lint        ctlint + fixtures + bench schema + clang-tidy/thread-safety"
)

list_flavors() {
  echo "check.sh flavors (default run: plain address undefined native lint):"
  local entry
  for entry in "${FLAVORS[@]}"; do
    echo "  ${entry}"
  done
}

for arg in "$@"; do
  if [ "${arg}" = "--list-flavors" ] || [ "${arg}" = "-l" ]; then
    list_flavors
    exit 0
  fi
done

CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(plain address undefined native lint)
fi

mkdir -p build-check

run_config() {
  local config="$1"
  local label="${2:-}"   # optional ctest -L label (chaos/tsan flavors)
  local build_dir="build-check/${config}"
  local sanitize=""
  local native="OFF"
  if [ "${config}" = "native" ]; then
    native="ON"
  elif [ "${config}" != "plain" ]; then
    sanitize="${config}"
  fi

  echo "==> [${config}] configure (${build_dir}, NEUROPULS_SANITIZE='${sanitize}', NEUROPULS_NATIVE=${native}, NEUROPULS_WERROR=ON)"
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNEUROPULS_SANITIZE="${sanitize}" \
    -DNEUROPULS_NATIVE="${native}" \
    -DNEUROPULS_WERROR=ON \
    > "${build_dir}.configure.log" 2>&1 || {
      tail -n 40 "${build_dir}.configure.log"; return 1; }

  echo "==> [${config}] build"
  cmake --build "${build_dir}" -j "${JOBS}" \
    > "${build_dir}.build.log" 2>&1 || {
      tail -n 40 "${build_dir}.build.log"; return 1; }

  if [ -n "${label}" ]; then
    echo "==> [${config}] ctest -L ${label}"
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
      -L "${label}"
  else
    echo "==> [${config}] ctest (unit + property + ctlint_src + ctlint_selftest)"
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
  fi
}

# The lint flavor: every static gate in one place. Builds only the
# ctlint host tool (plus the compile database from the configure step),
# so it is cheap enough to run on every invocation alongside the full
# matrix.
run_lint_flavor() {
  local build_dir="build-check/lint"

  echo "==> [lint] configure (${build_dir})"
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNEUROPULS_WERROR=ON \
    > "${build_dir}.configure.log" 2>&1 || {
      tail -n 40 "${build_dir}.configure.log"; return 1; }

  echo "==> [lint] build ctlint"
  cmake --build "${build_dir}" -j "${JOBS}" --target ctlint \
    > "${build_dir}.build.log" 2>&1 || {
      tail -n 40 "${build_dir}.build.log"; return 1; }

  echo "==> [lint] ctlint source pass (secret + concurrency rules, empty-baseline gate)"
  "${build_dir}/tools/ctlint/ctlint" \
    --baseline tools/ctlint/baseline.txt src

  echo "==> [lint] ctlint fixture self-test"
  "${build_dir}/tools/ctlint/ctlint" --self-test tools/ctlint/fixtures

  echo "==> [lint] bench_regress schema self-check (BENCH_baseline.json)"
  python3 scripts/bench_regress.py --check-schema BENCH_baseline.json

  echo "==> [lint] bench_regress negative self-check (one row duplicated)"
  local dup_json="${build_dir}/BENCH_duplicate_row.json"
  python3 - BENCH_baseline.json "${dup_json}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1], encoding="utf-8"))
doc["benchmarks"].append(doc["benchmarks"][0])
json.dump(doc, open(sys.argv[2], "w", encoding="utf-8"))
PY
  if python3 scripts/bench_regress.py --check-schema "${dup_json}" \
      > /dev/null 2>&1; then
    echo "==> [lint] FAILED: --check-schema accepted a duplicated row" >&2
    return 1
  fi

  echo "==> [lint] bench_regress time_unit self-check (2 ms row = 500/s)"
  PYTHONDONTWRITEBYTECODE=1 python3 - <<'PY' || return 1
import sys
sys.path.insert(0, "scripts")
from bench_regress import throughput
rate = throughput({"name": "BM_Synthetic", "real_time": 2, "time_unit": "ms"})
if abs(rate - 500.0) > 1e-9:
    sys.exit(f"==> [lint] FAILED: 2 ms per iteration read as {rate}/s")
PY

  echo "==> [lint] bench_regress cross-host self-check (num_cpus differs: exit 2)"
  local host_json="${build_dir}/BENCH_other_host.json"
  python3 - BENCH_baseline.json "${host_json}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1], encoding="utf-8"))
doc["context"]["num_cpus"] = doc["context"].get("num_cpus", 1) + 1
json.dump(doc, open(sys.argv[2], "w", encoding="utf-8"))
PY
  local host_status=0
  python3 scripts/bench_regress.py BENCH_baseline.json "${host_json}" \
    > /dev/null 2>&1 || host_status=$?
  if [ "${host_status}" -ne 2 ]; then
    echo "==> [lint] FAILED: a cross-host compare exited ${host_status}, not 2" >&2
    return 1
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [lint] clang-tidy (compile database: ${build_dir})"
    # shellcheck disable=SC2046
    clang-tidy -p "${build_dir}" --quiet \
      $(find src -name '*.cpp' | sort)
  else
    echo "==> [lint] SKIPPED clang-tidy: not on PATH (install LLVM to enable)"
  fi

  if command -v clang++ >/dev/null 2>&1; then
    echo "==> [lint] Clang -Wthread-safety -Werror build"
    local clang_dir="build-check/lint-clang"
    cmake -B "${clang_dir}" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DNEUROPULS_WERROR=ON \
      -DNEUROPULS_THREAD_SAFETY=ON \
      > "${clang_dir}.configure.log" 2>&1 || {
        tail -n 40 "${clang_dir}.configure.log"; return 1; }
    cmake --build "${clang_dir}" -j "${JOBS}" \
      > "${clang_dir}.build.log" 2>&1 || {
        tail -n 40 "${clang_dir}.build.log"; return 1; }
    echo "==> [lint] ctest (negative-compile harness + full suite under Clang)"
    ctest --test-dir "${clang_dir}" --output-on-failure -j "${JOBS}"
  else
    echo "==> [lint] SKIPPED Clang thread-safety build: clang++ not on PATH"
    echo "           (GCC compiles the NP_ annotations as no-ops; the"
    echo "            capability analysis needs Clang)"
  fi
}

FULL_CONFIGS=()
for config in "${CONFIGS[@]}"; do
  case "${config}" in
    plain|address|undefined|native)
      run_config "${config}"
      FULL_CONFIGS+=("${config}")
      ;;
    chaos)
      run_config address chaos
      run_config undefined chaos
      ;;
    tsan)
      # One TSan build tree, swept at two pool widths: the second
      # run_config call reuses the build and only re-runs ctest.
      NEUROPULS_THREADS=1 run_config thread concurrency
      NEUROPULS_THREADS=4 run_config thread concurrency
      ;;
    lint)
      run_lint_flavor
      ;;
    *)
      echo "unknown config '${config}'" >&2
      list_flavors >&2
      exit 2
      ;;
  esac
done

# The bench smoke + standalone ctlint tail needs a full-matrix build tree;
# a chaos-/tsan-only invocation has none, and that is fine — those are the
# targeted sanitizer sweeps, not the pre-push gate.
if [ ${#FULL_CONFIGS[@]} -eq 0 ]; then
  echo "==> flavor-only run: skipping bench smoke + standalone ctlint"
  echo "==> all checks passed"
  exit 0
fi

# The bench smoke times binaries, so it runs from the first
# non-sanitizer tree this invocation built (plain or native): sanitizer
# binaries are several times slower and would read as regressions
# against BENCH_baseline.json. ctlint is a host tool; any tree serves.
BENCH_TREE=""
for config in "${FULL_CONFIGS[@]}"; do
  if [ "${config}" = "plain" ] || [ "${config}" = "native" ]; then
    BENCH_TREE="build-check/${config}"
    break
  fi
done
LINT_TREE="${BENCH_TREE:-build-check/${FULL_CONFIGS[0]}}"

# Benchmark smoke pass: run the hot-path benchmark binaries just long
# enough to emit JSON, validate the schema, and diff throughput against
# the committed pre-PR baseline. The threshold is deliberately loose
# (smoke iterations are noisy); it catches order-of-magnitude cliffs, not
# single-digit drift. The single-evaluation photonic cases ride along
# with the batch ones: both run through the same lane-block evaluator.
run_bench_smoke() {
  local smoke_dir="${BENCH_TREE}/bench-smoke"
  local filter='PhotonicEvaluate$|PhotonicEvaluateNoiseless$|PhotonicNoiselessBatch|PhotonicEvaluateBatch|VerifierModelSweep|ServerSessions|CrpStoreMixedOps|CrpStoreGroupCommit|CrpStoreFsyncPerOp|CrpStoreRecovery'
  mkdir -p "${smoke_dir}"
  local bench bench_bin
  for bench in bench_puf_quality bench_system_level bench_server bench_crp_store_recovery; do
    bench_bin="${BENCH_TREE}/bench/${bench}"
    if [ ! -x "${bench_bin}" ]; then
      echo "==> bench smoke: ${bench_bin} missing" >&2
      return 1
    fi
    echo "==> bench smoke: ${bench} (${BENCH_TREE})"
    "${bench_bin}" \
      --benchmark_min_time=0.01 \
      --benchmark_filter="${filter}" \
      --benchmark_out="${smoke_dir}/BENCH_${bench}.json" \
      --benchmark_out_format=json \
      > /dev/null
  done

  echo "==> bench smoke: schema check"
  python3 scripts/bench_regress.py --check-schema "${smoke_dir}"/BENCH_*.json

  echo "==> bench smoke: merge + compare vs BENCH_baseline.json"
  python3 scripts/bench_regress.py --merge "${smoke_dir}/BENCH_smoke.json" \
    "${smoke_dir}/BENCH_bench_puf_quality.json" \
    "${smoke_dir}/BENCH_bench_system_level.json" \
    "${smoke_dir}/BENCH_bench_server.json" \
    "${smoke_dir}/BENCH_bench_crp_store_recovery.json"
  # --allow-missing: the smoke filter deliberately runs a subset of the
  # baseline's cases; a full-length run should compare WITHOUT it so a
  # vanished case fails loudly. No --cross-host: a baseline recorded on
  # another kind of host fails the compare by name (exit 2) instead of
  # reading as a regression.
  python3 scripts/bench_regress.py \
    --threshold "${NEUROPULS_BENCH_THRESHOLD:-0.5}" \
    --allow-missing \
    BENCH_baseline.json "${smoke_dir}/BENCH_smoke.json"
}

if [ -n "${BENCH_TREE}" ]; then
  run_bench_smoke
else
  echo "==> bench smoke: SKIPPED — only sanitizer trees were built" \
       "(${FULL_CONFIGS[*]}); their timings are not comparable with" \
       "BENCH_baseline.json (add plain or native to run it)"
fi

# Standalone ctlint invocation against the tree (redundant with the ctest
# case, but handy when iterating on lint annotations without a rebuild).
echo "==> ctlint source pass (standalone, ${LINT_TREE})"
"${LINT_TREE}/tools/ctlint/ctlint" --baseline tools/ctlint/baseline.txt src

echo "==> all checks passed"
