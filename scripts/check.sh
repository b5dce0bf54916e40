#!/usr/bin/env bash
# Correctness gate: repo lint + lint self-test + sanitizer-clean test
# suite + gating static analysis.
#
#   scripts/check.sh              # lint, then ctest under asan-ubsan
#   scripts/check.sh tsan         # same under ThreadSanitizer
#   scripts/check.sh debug        # plain Debug build (HYGNN_DCHECK on)
#
# Static analysis gates (both fail the script):
#   * scripts/tidy.py — clang-tidy against the frozen baseline in
#     scripts/tidy_baseline.json; new findings fail. Skipped with a
#     notice when clang-tidy is not installed (CI runs it with
#     --require).
#   * a clang++ build of src/ with -Werror=thread-safety, exercising
#     the HYGNN_GUARDED_BY annotations. Skipped when clang++ is not
#     installed (CI runs it unconditionally).
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET="${1:-asan-ubsan}"
JOBS="${JOBS:-$(nproc)}"

echo "== lint =="
python3 scripts/lint.py

echo "== lint self-test =="
python3 tests/lint_test.py

# Re-configuring an already-configured tree costs several seconds and
# changes nothing unless the CMake inputs moved; `cmake --build` re-runs
# the generator itself when they did. Only configure from scratch.
configure_if_needed() {
  local preset="$1"; shift
  if [[ -f "build-${preset}/compile_commands.json" ]]; then
    echo "(build-${preset} already configured)"
  else
    cmake --preset "${preset}" "$@" >/dev/null
  fi
}

echo "== configure (${PRESET}) =="
configure_if_needed "${PRESET}"

echo "== build (${PRESET}) =="
cmake --build --preset "${PRESET}" -j "${JOBS}"

echo "== test (${PRESET}) =="
ctest --preset "${PRESET}" -j "${JOBS}"

# The thread-pool kernels, the serving engine (batched PairScorer
# chunks score on pool workers; serve::Server batches requests across
# submitter and scorer-worker threads), the obs layer (kernel-timer
# slot table aggregates spans from pool workers with relaxed atomics),
# and the tape executor (kernels run on pool workers; exec-stats
# counters and the held-buffer list are shared) are the
# concurrent code in the repo, so their tests always get a
# ThreadSanitizer pass, whatever preset the main suite ran under.
# Binaries are run directly (not via ctest) so a targeted build
# suffices.
if [[ "${PRESET}" != "tsan" ]]; then
  echo "== threaded tests (tsan) =="
  configure_if_needed tsan
  cmake --build --preset tsan -j "${JOBS}" \
    --target thread_pool_test kernels_test serve_test server_test \
    server_chaos_test server_swap_test obs_test tape_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/thread_pool_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/kernels_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/serve_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/server_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/server_chaos_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/server_swap_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/obs_test
  HYGNN_NUM_THREADS=4 build-tsan/tests/tape_test
fi

# Durability tests (fault-injected crash-consistency + bit-identical
# resume) always run under AddressSanitizer/UBSan: a torn-write bug is
# most likely to show up as a heap overrun or uninitialized read while
# parsing a truncated file, which asan catches and a plain build may
# not. When the main suite already ran under asan-ubsan this is covered
# by ctest above.
if [[ "${PRESET}" != "asan-ubsan" ]]; then
  echo "== durability tests (asan-ubsan) =="
  configure_if_needed asan-ubsan
  cmake --build --preset asan-ubsan -j "${JOBS}" \
    --target fs_fault_test checkpoint_test obs_test
  build-asan-ubsan/tests/fs_fault_test
  build-asan-ubsan/tests/checkpoint_test
  build-asan-ubsan/tests/obs_test
fi

echo "== clang-tidy (gating, baseline in scripts/tidy_baseline.json) =="
python3 scripts/tidy.py --build-dir "build-${PRESET}"

# Thread Safety Analysis needs clang to compile the annotated sources;
# the flags are wired in CMakeLists.txt and only light up for clang.
# Building the libraries is enough — TSA is a compile-time analysis.
if command -v clang++ >/dev/null 2>&1; then
  echo "== thread-safety analysis (clang -Werror=thread-safety) =="
  if [[ ! -f build-clang-tsa/CMakeCache.txt ]]; then
    cmake -B build-clang-tsa -S . \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DHYGNN_NATIVE_ARCH=OFF >/dev/null
  fi
  cmake --build build-clang-tsa -j "${JOBS}"
else
  echo "== clang++ not found; skipping thread-safety analysis build =="
fi

echo "check.sh: OK (${PRESET})"
