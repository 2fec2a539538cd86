#!/usr/bin/env bash
# The tier-1 verify recipe, executable (and what .github/workflows/ci.yml
# runs on every push/PR): lint -> configure -> build -> ctest twice
# (1-thread and 8-thread driver configs via the NIPO_TEST_THREADS env
# var), a perf-smoke run of the simulator-throughput, workload,
# SIMD-kernel, and compressed-storage-scan benches (their correctness
# gates assert counter, kernel, and plain-vs-encoded bit-identity), a
# build of the repo benchmark (nipobench/) and a short run of each of its
# workloads, one multi-gate perf-regression check against the committed
# trajectory anchors, then the concurrency tests again under
# ThreadSanitizer and the full suite under ASan+UBSan.
#
# Opt-outs (all default on): NIPO_LINT=0, NIPO_PERF_SMOKE=0 (also skips
# the gate), NIPO_PERF_GATE=0, NIPO_TSAN=0, NIPO_ASAN=0.
# NIPO_SIMD=OFF builds without the AVX2 kernels (scalar fallback only;
# the CI matrix runs one such leg), drops the SIMD-kernel perf gates,
# whose anchor records AVX2 throughput and speedup, and gates
# sim_throughput against the anchor a scalar build recorded.
# Usage: ci/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
NIPO_SIMD="${NIPO_SIMD:-ON}"

# Lint: the repo ships .clang-format; every source tree file must be
# formatting-clean. Skipped with a notice where clang-format is not
# installed (the hosted CI installs it, so PRs cannot merge unformatted).
if [[ "${NIPO_LINT:-1}" == "1" ]]; then
  if command -v clang-format >/dev/null; then
    echo "== lint: clang-format --dry-run -Werror =="
    find src tests bench examples \( -name '*.cc' -o -name '*.h' \) -print0 \
      | xargs -0 clang-format --dry-run -Werror
  else
    echo "== lint: clang-format not installed, skipping =="
  fi

  # Storage-access lint: executors and query references must scan through
  # the ColumnView API (src/storage/column_view.h), never by downcasting
  # to Column<T> — raw access bypasses zone maps, encoded-byte PMU
  # booking, and the encodings-off bit-identity guarantee (DESIGN.md
  # Section 10). bench/ and tests/ may still use typed columns to build
  # fixtures; the executor tree and the Q6 reference oracle may not.
  echo "== lint: no raw column access outside storage =="
  if grep -RnE 'AsColumn<|->values\(\)|\.values\(\)|GetTypedColumn<|->data\(\)' \
      src/exec src/tpch/q6.cc; then
    echo "lint: raw Column<T> access in the executor/reference tree" >&2
    echo "lint: scan through ColumnView instead (storage/column_view.h)" >&2
    exit 1
  fi

  # Reachability lint: every header under src/ must be included by some
  # library, bench, example or repo-benchmark file other than its own .cc.
  # A module that only its tests reach is code no workload runs; delete it
  # instead of keeping it compiled.
  echo "== lint: every src/ header is reached outside its tests =="
  unreached=0
  while IFS= read -r header; do
    users=$(grep -RlF --include='*.h' --include='*.cc' \
        "#include \"${header#src/}\"" src bench examples nipobench \
        | grep -vxF "${header%.h}.cc" || true)
    if [[ -z "$users" ]]; then
      echo "lint: $header is included only by its own .cc or by tests" >&2
      unreached=1
    fi
  done < <(find src -name '*.h' | sort)
  if [[ "$unreached" != 0 ]]; then
    exit 1
  fi
fi

cmake -B "$BUILD_DIR" -S . -DNIPO_SIMD="$NIPO_SIMD"
cmake --build "$BUILD_DIR" -j "$(nproc)"
for threads in 1 8; do
  echo "== ctest with NIPO_TEST_THREADS=$threads =="
  (cd "$BUILD_DIR" && NIPO_TEST_THREADS=$threads \
      ctest --output-on-failure -j "$(nproc)")
done

# Perf smoke: quick runs of the trajectory benches. Each binary
# NIPO_CHECK-fails if any configuration's counters or kernel outputs
# diverge (scalar-vs-batched reporting, solo-vs-concurrent, and
# AVX2-vs-scalar kernels respectively), so this doubles as an end-to-end
# bit-identity gate. Smoke artifacts go into the build dir — the
# *committed* repo-root BENCH_*.json files are the full-run trajectory
# anchors (EXPERIMENTS.md "Perf trajectory") and must only be refreshed
# by a deliberate non---quick run.
if [[ "${NIPO_PERF_SMOKE:-1}" == "1" ]]; then
  # sim_throughput reads wall-clock simulation throughput; one quick run
  # under host load read 0.49x its anchor, so the gate judges the
  # per-config median of three runs, as for simd_kernels below.
  SIM_SMOKES=()
  for run in 1 2 3; do
    echo "== perf smoke: sim_throughput (run $run of 3) =="
    "$BUILD_DIR"/bench/sim_throughput --quick \
        --json="$BUILD_DIR"/BENCH_sim_throughput.$run.json
    SIM_SMOKES+=("$BUILD_DIR"/BENCH_sim_throughput.$run.json)
  done
  echo "== perf smoke: workload_throughput =="
  "$BUILD_DIR"/bench/workload_throughput --quick \
      --json="$BUILD_DIR"/BENCH_workload_throughput.json
  echo "== perf smoke: workload_contention =="
  "$BUILD_DIR"/bench/workload_contention --quick \
      --json="$BUILD_DIR"/BENCH_workload_contention.json
  echo "== perf smoke: service_latency =="
  "$BUILD_DIR"/bench/service_latency --quick \
      --json="$BUILD_DIR"/BENCH_service_latency.json
  echo "== perf smoke: service_faults =="
  "$BUILD_DIR"/bench/service_faults --quick \
      --json="$BUILD_DIR"/BENCH_service_faults.json
  # simd_kernels reads wall-clock kernel throughput, which is bimodal on
  # small shared VMs (a low mode near half the anchor); three runs let the
  # gate judge the per-config median instead of one draw.
  SIMD_SMOKES=()
  for run in 1 2 3; do
    echo "== perf smoke: simd_kernels (run $run of 3) =="
    "$BUILD_DIR"/bench/simd_kernels --quick \
        --json="$BUILD_DIR"/BENCH_simd_kernels.$run.json
    SIMD_SMOKES+=("$BUILD_DIR"/BENCH_simd_kernels.$run.json)
  done
  echo "== perf smoke: storage_scan =="
  "$BUILD_DIR"/bench/storage_scan --quick \
      --json="$BUILD_DIR"/BENCH_storage_scan.json

  # The repo benchmark (nipobench/, declared by BENCHMARK.json) is its own
  # CMake project over src/, so no build above compiles it: a library API
  # change that breaks it would otherwise go unseen. Build it as it stands
  # and run each workload briefly; nipo_bench exits non-zero when its
  # correctness checks fail.
  echo "== nipobench smoke: build =="
  cmake -S nipobench -B "$BUILD_DIR-nipobench" -DCMAKE_BUILD_TYPE=Release \
      -DNIPO_SIMD="$NIPO_SIMD"
  cmake --build "$BUILD_DIR-nipobench" -j "$(nproc)" --target nipo_bench
  for workload in scan_plain scan_encoded join_sharded service; do
    echo "== nipobench smoke: $workload =="
    "$BUILD_DIR-nipobench"/nipo_bench --workload="$workload" --seed=1 \
        --seconds=0.5
  done

  # Perf-regression gate, one invocation over every (anchor, metric)
  # pair: smoke throughput must stay within a generous factor of the
  # committed anchors (see ci/perf_gate.py). The sim_throughput gate
  # judges the median of its three smoke runs. The workload-throughput and
  # workload-contention gates read simulated queries/sec, one config per
  # admission setting. The SIMD-kernel gate judges the median of its
  # three smoke runs. The service-latency gate
  # metric is open-loop throughput at the lowest swept rate — p99 tails
  # are load-shape measurements, not simulator-health ones. The
  # service-faults gate metric is goodput at fault rate zero — the
  # fault-free service baseline; the faulty points of that bench grade
  # retry/shedding policy, which its internal gates already pin. The
  # SIMD kernels have two gates: absolute AVX2 throughput, and the
  # same-run speedup over the scalar kernel, which cancels most of the
  # host state that makes the absolute rate bimodal (a build that loses
  # its AVX2 path reads about 1x against the anchor's 2.4-2.7x). Both are
  # dropped under NIPO_SIMD=OFF: the scalar-only build reaches neither.
  # The sim_throughput anchor depends on the build too: its kernels and
  # cache walks run scalar under NIPO_SIMD=OFF, so that leg is gated
  # against BENCH_sim_throughput_scalar.json, recorded by a scalar build.
  if [[ "${NIPO_PERF_GATE:-1}" == "1" ]]; then
    if command -v python3 >/dev/null; then
      echo "== perf gate: smoke vs committed anchors =="
      SIM_ANCHOR=BENCH_sim_throughput.json
      if [[ "$NIPO_SIMD" == "OFF" ]]; then
        SIM_ANCHOR=BENCH_sim_throughput_scalar.json
      fi
      SIM_SMOKE_LIST=$(IFS=,; echo "${SIM_SMOKES[*]}")
      GATES=(
        --gate "$SIM_ANCHOR:$SIM_SMOKE_LIST"
        --gate "BENCH_workload_throughput.json:$BUILD_DIR/BENCH_workload_throughput.json:sim_queries_per_sec"
        --gate "BENCH_workload_contention.json:$BUILD_DIR/BENCH_workload_contention.json:sim_queries_per_sec"
        --gate "BENCH_service_latency.json:$BUILD_DIR/BENCH_service_latency.json:sim_queries_per_sec"
        --gate "BENCH_service_faults.json:$BUILD_DIR/BENCH_service_faults.json:sim_goodput_qps"
        --gate "BENCH_storage_scan.json:$BUILD_DIR/BENCH_storage_scan.json:sim_tuples_per_sec"
      )
      if [[ "$NIPO_SIMD" != "OFF" ]]; then
        SIMD_SMOKE_LIST=$(IFS=,; echo "${SIMD_SMOKES[*]}")
        GATES+=(--gate "BENCH_simd_kernels.json:$SIMD_SMOKE_LIST:tuples_per_sec_simd")
        GATES+=(--gate "BENCH_simd_kernels.json:$SIMD_SMOKE_LIST:speedup_vs_scalar")
      fi
      python3 ci/perf_gate.py --min-ratio "${NIPO_PERF_GATE_MIN:-0.5}" \
          "${GATES[@]}"
    else
      echo "== perf gate: python3 not installed, skipping =="
    fi
  fi
fi

# ThreadSanitizer pass over the concurrency tests: the sharded parallel
# driver's worker threads (parallel_driver_test broadcasts an evaluation
# order that four workers apply at morsel boundaries), the sharded
# driver's error-abort flag, which one worker raises when its executor
# latches a data error and every other worker reads at its next morsel
# boundary (service_faults_test's FkOutOfRangeFailsParallelEntryPoints
# runs it at eight workers), and the SIMD kernel layer, whose forced-level override
# is process-global state the executors read. The workload, contention and
# service-mode suites run on one host thread (the workload driver's
# event loop), so they cannot race; they stay on the list to catch any
# thread a later change adds to that path. Tests only (no
# benches/examples) keeps the second build tree small.
if [[ "${NIPO_TSAN:-1}" == "1" ]]; then
  echo "== ThreadSanitizer build: concurrency tests =="
  cmake -B "$BUILD_DIR-tsan" -S . -DNIPO_TSAN=ON -DNIPO_SIMD="$NIPO_SIMD" \
      -DNIPO_BUILD_BENCHES=OFF -DNIPO_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR-tsan" -j "$(nproc)" \
      --target parallel_driver_test workload_driver_test \
      workload_contention_test service_mode_test service_faults_test \
      simd_kernels_test
  (cd "$BUILD_DIR-tsan" && NIPO_TEST_THREADS=8 \
      ctest -R 'parallel_driver_test|workload_driver_test|workload_contention_test|service_mode_test|service_faults_test|simd_kernels_test' \
      --output-on-failure)
fi

# AddressSanitizer+UBSan pass over the full test suite (fail-fast:
# -fno-sanitize-recover promotes every UBSan finding to an abort).
if [[ "${NIPO_ASAN:-1}" == "1" ]]; then
  echo "== ASan+UBSan build: full test suite =="
  cmake -B "$BUILD_DIR-asan" -S . -DNIPO_ASAN=ON -DNIPO_SIMD="$NIPO_SIMD" \
      -DNIPO_BUILD_BENCHES=OFF -DNIPO_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR-asan" -j "$(nproc)"
  (cd "$BUILD_DIR-asan" && NIPO_TEST_THREADS=8 \
      ctest --output-on-failure -j "$(nproc)")
fi
