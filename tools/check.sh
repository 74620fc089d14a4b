#!/usr/bin/env bash
# Pre-merge gate for the pimhe repo.
#
# Runs, in order:
#   1. plain build + full ctest (the tier-1 verify, includes the
#      checker-enabled conflict tests in tests/test_checker.cpp),
#   2. the same under AddressSanitizer,
#   3. the same under UndefinedBehaviorSanitizer,
#   4. a ThreadSanitizer build running the concurrency-sensitive
#      suites (labels `stress` and `differential`, which include the
#      async-pipeline differential tests) with PIMHE_HOST_THREADS=16
#      to exercise the host-parallel engine and the pipelined launch
#      worker,
#   4b. the compiled-kernel fast-path leg: the differential suites
#      rerun under PIMHE_EXEC_MODE=shadow on the ASan build (every
#      fast kernel double-checked against the interpreter under
#      memory sanitizing) and under PIMHE_EXEC_MODE=fast on the plain
#      build (the mode the scaling benches ship with),
#   5. clang-format --dry-run -Werror over src/pim/ (if installed),
#   6. a clang-tidy build (if installed).
#
# The CLI contract (pim_prove and pim_certify sweeps and every
# --inject kind, pim_certify --calibrate, the pim_profile smokes and
# bench_compare's exit codes) is ctest's `unit`-labelled tool tests in
# tools/CMakeLists.txt, so every ctest leg above runs it. Likewise the
# staging gates (abl_pipeline_overlap and abl_resident_reuse, the
# async and sync staging paths end to end) are `unit_stress` ctests in
# bench/CMakeLists.txt, so the quick tier, every sanitizer leg and the
# TSan leg at 16 host threads all run them.
#
# All compiled legs build with -DPIMHE_WERROR=ON (warnings are errors)
# and export compile_commands.json for clang tooling.
#
# Sanitizer and clang steps degrade gracefully when the toolchain
# lacks the binaries, so the script is safe to run anywhere; the
# plain build + ctest step is always mandatory.
#
# Usage: tools/check.sh [--quick]
#   --quick  the plain build, its full ctest (every label: unit,
#            differential and stress, so the noise-soundness fuzz and
#            its runPlan leg, the fast-path and width differentials and
#            the parallel-engine suite all run) and the fast-mode
#            differential rerun; skips only the sanitizer legs (ASan
#            with its shadow-mode rerun, UBSan and TSan)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

# Every compiled leg is warning-clean and exports compile_commands.json.
COMMON_FLAGS=(-DPIMHE_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)

run_config() {
    local name=$1
    shift
    local dir="build-check-${name}"
    mkdir -p "${dir}"
    echo "=== [${name}] cmake configure ==="
    cmake -B "${dir}" -S . "${COMMON_FLAGS[@]}" "$@" \
        > "${dir}/cmake.log" 2>&1 || {
        cat "${dir}/cmake.log"
        return 1
    }
    echo "=== [${name}] build ==="
    cmake --build "${dir}" -j "${JOBS}"
    echo "=== [${name}] ctest (all) ==="
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_config plain
# Fast-path leg, part 1: rerun the differential suites in pure fast
# mode on the plain build. Launch sites that construct their DpuSets
# with ExecMode::Auto resolve to the env override, so the whole BFV
# differential fuzz re-executes through the compiled fast kernels
# (shadow-grid tests pin their own modes and are unaffected).
echo "=== [plain] ctest -L differential (PIMHE_EXEC_MODE=fast) ==="
PIMHE_EXEC_MODE=fast ctest --test-dir build-check-plain \
    --output-on-failure -j "${JOBS}" -L differential
if [[ "${QUICK}" == "0" ]]; then
    run_config asan -DPIMHE_SANITIZE=address
    # Fast-path leg, part 2: the same suites in shadow mode under
    # ASan — every launch runs interpreter AND fast body and panics on
    # any divergence, with the fast path's host loops sanitized.
    echo "=== [asan] ctest -L differential (PIMHE_EXEC_MODE=shadow) ==="
    PIMHE_EXEC_MODE=shadow ctest --test-dir build-check-asan \
        --output-on-failure -j "${JOBS}" -L differential
    run_config ubsan -DPIMHE_SANITIZE=undefined

    # ThreadSanitizer leg: run the parallel-engine stress tests and
    # the differential fuzz (both drive DpuSet launches across host
    # threads) at a forced 16 host threads so data races in the
    # execution engine surface even on small machines.
    dir="build-check-tsan"
    mkdir -p "${dir}"
    echo "=== [tsan] cmake configure ==="
    cmake -B "${dir}" -S . -DPIMHE_SANITIZE=thread \
        > "${dir}/cmake.log" 2>&1 || {
        cat "${dir}/cmake.log"
        exit 1
    }
    echo "=== [tsan] build ==="
    cmake --build "${dir}" -j "${JOBS}" \
        --target stress_differential_suites
    # tests/CMakeLists.txt makes that target depend on every suite
    # whose label matches 'stress|differential': the async-pipeline
    # suite (unit_differential) runs the pipelined engine's
    # caller-thread/worker handoff under TSan with the host pool
    # forced wide, and the resident suite and the two staging gates
    # (unit_stress) do the same for the host-pool stage/collect behind
    # every staged op and every cache upload and download.
    echo "=== [tsan] ctest -L 'stress|differential' (16 threads) ==="
    PIMHE_HOST_THREADS=16 ctest --test-dir "${dir}" \
        --output-on-failure -j "${JOBS}" -L 'stress|differential'
fi

if command -v clang-format > /dev/null 2>&1; then
    echo "=== clang-format (src/pim) ==="
    clang-format --dry-run -Werror src/pim/*.h src/pim/*.cpp
else
    echo "=== clang-format not installed; skipping format check ==="
fi

if command -v clang-tidy > /dev/null 2>&1; then
    echo "=== clang-tidy build ==="
    run_config tidy -DPIMHE_ENABLE_CLANG_TIDY=ON
else
    echo "=== clang-tidy not installed; skipping tidy build ==="
fi

echo "=== all checks passed ==="
