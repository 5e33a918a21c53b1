#!/usr/bin/env bash
# Pre-merge correctness gate: configure + build + ctest under each analysis
# preset. Exits non-zero on the first compiler warning (-Werror), sanitizer
# finding (-fno-sanitize-recover=all turns every report into a test
# failure), clang-tidy diagnostic, or test failure.
#
# Usage:
#   tools/check.sh             # default + asan + ubsan + tsan
#                              # (+ tidy / thread-safety when clang is
#                              # installed; SKIPPED lines otherwise)
#   tools/check.sh asan ubsan  # just the named presets
#
# Environment:
#   JOBS=N               build parallelism (default: nproc)
#   SELF_CHECK_SEEDS=N   extra randomized sweep size per sanitizer (default 40)
#   SELF_CHECK_ECO_OPS=N random ECO edits per sweep case, each cross-checked
#                        against a cold re-solve (default 3)

set -u -o pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
SELF_CHECK_SEEDS="${SELF_CHECK_SEEDS:-40}"
SELF_CHECK_ECO_OPS="${SELF_CHECK_ECO_OPS:-3}"

# Sanitizer runtime policy: abort on the first finding so ctest sees it.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:abort_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:abort_on_error=1:second_deadlock_stack=1"

if [[ $# -gt 0 ]]; then
  presets=("$@")
else
  presets=(default asan ubsan tsan)
  if command -v clang-tidy > /dev/null 2>&1; then
    presets+=(tidy)
  else
    echo "SKIPPED (clang-tidy not installed): tidy preset"
  fi
  # Clang's -Wthread-safety analysis needs the annotated build compiled by
  # clang itself; gcc accepts the attributes as no-ops but runs no analysis.
  if command -v clang++ > /dev/null 2>&1; then
    presets+=(thread-safety)
  else
    echo "SKIPPED (clang not installed): thread-safety preset"
  fi
fi

failed=()
for preset in "${presets[@]}"; do
  echo "==== [$preset] configure ===="
  if ! cmake --preset "$preset" > "/tmp/lubt-check-$preset-configure.log" 2>&1; then
    tail -40 "/tmp/lubt-check-$preset-configure.log"
    failed+=("$preset (configure)")
    continue
  fi
  echo "==== [$preset] build ===="
  if ! cmake --build --preset "$preset" -j "$JOBS" \
       > "/tmp/lubt-check-$preset-build.log" 2>&1; then
    grep -E "error|warning" "/tmp/lubt-check-$preset-build.log" | head -50
    tail -10 "/tmp/lubt-check-$preset-build.log"
    failed+=("$preset (build)")
    continue
  fi
  echo "==== [$preset] ctest ===="
  # tsan is 5-15x slower, so its gate is the concurrency-relevant slice:
  # the runtime subsystem tests, batch determinism, and the concurrent
  # tool drivers — everything that actually multithreads.
  ctest_args=()
  if [[ "$preset" == "tsan" ]]; then
    ctest_args=(-R "runtime|Batch|Determinism|self_check|lubt_batch|Eco|Serve|Search")
  fi
  if ! ctest --preset "$preset" "${ctest_args[@]}" \
       > "/tmp/lubt-check-$preset-test.log" 2>&1; then
    # Re-print the failing tests with their output.
    grep -E "Failed|Timeout|\*\*\*" "/tmp/lubt-check-$preset-test.log" | head -30
    failed+=("$preset (ctest)")
    continue
  fi
  tail -3 "/tmp/lubt-check-$preset-test.log" | sed "s/^/[$preset] /"

  # Sanitizer presets additionally run a wider randomized sweep than the
  # quick slice registered under ctest. tsan runs it in parallel so the
  # sweep exercises genuinely concurrent solves.
  if [[ "$preset" == "asan" || "$preset" == "ubsan" || "$preset" == "tsan" ]]; then
    sweep_jobs=1
    [[ "$preset" == "tsan" ]] && sweep_jobs=4
    echo "==== [$preset] self_check --seeds $SELF_CHECK_SEEDS --eco-ops $SELF_CHECK_ECO_OPS --jobs $sweep_jobs ===="
    if ! "./build-$preset/tools/self_check" --seeds "$SELF_CHECK_SEEDS" \
         --eco-ops "$SELF_CHECK_ECO_OPS" --jobs "$sweep_jobs" --quiet; then
      failed+=("$preset (self_check)")
      continue
    fi
  fi

  # Engine agreement gates: lp_scaling --smoke solves fixed instances with
  # cold and warm-started lazy rounds and fails on any objective
  # disagreement; separation_scaling --smoke additionally demands the
  # octant SoA separation oracle return bitwise-identical rows to the
  # brute-force scan (serial and threaded) and the grid-soa NN-merge match
  # the scan backend node for node; eco_scaling --smoke replays fixed edit
  # streams and fails unless every incremental re-solve matches a cold
  # solve of the edited instance. Skipped for tsan (single-threaded here;
  # the slow tsan build is reserved for the concurrency slice above, whose
  # self_check sweep already drives the octant oracle and the eco engine
  # with --jobs workers).
  # Static contract gate: lubt_lint must report zero findings over the
  # real tree (unchecked Result access, nondeterminism sources, unordered
  # iteration, float ==, missing finite-boundary checks, include hygiene).
  # Same invocation as the lubt_lint_tree ctest; repeated here so a direct
  # `check.sh default` run prints the findings on the console.
  if [[ "$preset" == "default" ]]; then
    echo "==== [$preset] lubt_lint src tools bench ===="
    if ! "./build-$preset/tools/lubt_lint" src tools bench; then
      failed+=("$preset (lubt_lint)")
      continue
    fi

    # 16k-sink envelope gates (default preset only: sanitizer builds are
    # not timings). lp_scaling --kernel refactors the 4096/16384-sink
    # normal equations supernodal vs simplicial (both serial) and enforces
    # the >= 1.1x speedup floor at >= 4096 sinks plus Solve() equivalence;
    # separation_scaling --big runs the sampled 16k protocol (SoA vs
    # round-0 brute force) with bitwise row agreement and its own speedup
    # floor. BIG_SINKS overrides the separation size (e.g. 4096 for a quick
    # local loop).
    # A failed timing floor is recorded but does not skip the gates after
    # it: on a loaded host the kernel speedup can miss its floor while
    # every correctness gate below still has something to say.
    echo "==== [$preset] lp_scaling --kernel (16k factor gate) ===="
    if "./build-$preset/bench/lp_scaling" --kernel \
         > "/tmp/lubt-check-$preset-lp-kernel.log" 2>&1; then
      tail -4 "/tmp/lubt-check-$preset-lp-kernel.log" | sed "s/^/[$preset] /"
    else
      tail -20 "/tmp/lubt-check-$preset-lp-kernel.log"
      failed+=("$preset (lp_scaling --kernel)")
    fi
    echo "==== [$preset] separation_scaling --big ${BIG_SINKS:-16384} (16k SoA gate) ===="
    if ! "./build-$preset/bench/separation_scaling" --big "${BIG_SINKS:-16384}" \
         > "/tmp/lubt-check-$preset-sep-big.log" 2>&1; then
      tail -20 "/tmp/lubt-check-$preset-sep-big.log"
      failed+=("$preset (separation_scaling --big)")
      continue
    fi
    tail -2 "/tmp/lubt-check-$preset-sep-big.log" | sed "s/^/[$preset] /"

    # Committed bench artifacts must exist and be non-empty: the scaling
    # curves quoted in EXPERIMENTS.md are regenerated by running the full
    # benches from the repo root, and a missing JSON means a curve was
    # silently dropped from a refresh.
    echo "==== [$preset] bench artifacts present ===="
    for artifact in BENCH_lp.json BENCH_sep.json BENCH_eco.json BENCH_serve.json BENCH_topo.json; do
      if [[ ! -s "$artifact" ]]; then
        echo "missing bench artifact: $artifact (run the full bench to regenerate)"
        failed+=("$preset ($artifact missing)")
        continue 2
      fi
    done
    echo "[$preset] all bench artifacts present"

    # The end-to-end benchmark (perfbench/) builds src/ on its own; its
    # smoke test builds it and runs every workload at a tiny size, so a
    # change that breaks the benchmark build or its output checks fails
    # here rather than only when the benchmark is next run.
    echo "==== [$preset] perfbench smoke_test ===="
    if ! python3 perfbench/smoke_test.py \
         > "/tmp/lubt-check-$preset-perfbench-smoke.log" 2>&1; then
      tail -20 "/tmp/lubt-check-$preset-perfbench-smoke.log"
      failed+=("$preset (perfbench smoke_test)")
      continue
    fi
    tail -1 "/tmp/lubt-check-$preset-perfbench-smoke.log" | sed "s/^/[$preset] /"
  fi

  # serve_load --smoke drives a real unix-socket server with concurrent
  # clients and a cache budget below the session count, gating on every
  # response succeeding AND on the stats showing actual evict/restore
  # cycles — the server stack's end-to-end smoke.
  if [[ "$preset" == "default" || "$preset" == "asan" || "$preset" == "ubsan" ]]; then
    for smoke in lp_scaling separation_scaling eco_scaling serve_load topo_search; do
      echo "==== [$preset] $smoke --smoke ===="
      if ! "./build-$preset/bench/$smoke" --smoke \
           > "/tmp/lubt-check-$preset-$smoke-smoke.log" 2>&1; then
        tail -20 "/tmp/lubt-check-$preset-$smoke-smoke.log"
        failed+=("$preset ($smoke)")
        continue 2
      fi
      tail -1 "/tmp/lubt-check-$preset-$smoke-smoke.log" | sed "s/^/[$preset] /"
    done
  fi
done

echo
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "check.sh: FAILED: ${failed[*]}"
  exit 1
fi
echo "check.sh: all presets clean (${presets[*]})"
