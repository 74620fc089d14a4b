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
#   5. the pim_prove static sweep: every kernel registry plan must
#      pass the launch verifier's budgets and the symbolic race prover
#      at every tasklet count it admits, the parameter sets and NTT
#      primes must meet their interval obligations, the plan scenarios
#      must pass, and every declared checker suppression must be
#      discharged, while every seeded violation class (budgets,
#      parameters, races, lifetimes, unresolved suppressions) must
#      exit nonzero,
#   6b. the pim_certify plan-certification sweep: the shipped kernel x
#      parameter grid must certify (noise budget + capacity + cost)
#      and every injected violation class must be rejected,
#   7. clang-format --dry-run -Werror over src/pim/ (if installed),
#   8. a clang-tidy build (if installed).
#
# All compiled legs build with -DPIMHE_WERROR=ON (warnings are errors)
# and export compile_commands.json for clang tooling.
#
# Sanitizer and clang steps degrade gracefully when the toolchain
# lacks the binaries, so the script is safe to run anywhere; the
# plain build + ctest step is always mandatory.
#
# Usage: tools/check.sh [--quick]
#   --quick  plain build + `ctest -L unit` only: skips the sanitizer
#            matrix and the slower differential/stress suites (see
#            the ctest labels set in tests/CMakeLists.txt)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

# Every compiled leg is warning-clean and exports compile_commands.json.
COMMON_FLAGS=(-DPIMHE_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)

# Static pre-launch verification: the registry sweep must pass the
# launch gate's budgets and race proof at every tasklet count (exit 0)
# and the seeded violations must be caught (exit nonzero), keeping
# both directions of the verifier and the prover honest.
run_pim_prove() {
    local dir=$1
    local bin="${dir}/tools-build/pim_prove"
    echo "=== [${dir}] pim_prove sweep ==="
    "${bin}"
    echo "=== [${dir}] pim_prove --inject all (must fail) ==="
    if "${bin}" --inject all > /dev/null; then
        echo "pim_prove did not flag injected violations" >&2
        return 1
    fi
    echo "injected violations correctly rejected"
}

# Static HE-plan certifier: the shipped plan grid must certify against
# every parameter set (exit 0) and each injected violation class —
# over-deep mul chain, budget-exact boundary, bad plain modulus,
# too-wide reduce fan-in, stale cost-model fits — must be rejected
# with a witness (exit nonzero), keeping both directions of the
# certifier honest. The calibration sweep then executes the certified
# plans on the simulator and demands the predicted-vs-measured drift
# stays inside the band (exit 0).
run_pim_certify() {
    local dir=$1
    local bin="${dir}/tools-build/pim_certify"
    echo "=== [${dir}] pim_certify sweep ==="
    "${bin}"
    for kind in over-deep boundary bad-t reduce-wide stale-fit all; do
        echo "=== [${dir}] pim_certify --inject ${kind} (must fail) ==="
        if "${bin}" --inject "${kind}" > /dev/null; then
            echo "pim_certify did not reject --inject ${kind}" >&2
            return 1
        fi
    done
    echo "injected certification violations correctly rejected"
    echo "=== [${dir}] pim_certify --calibrate (must pass) ==="
    "${bin}" --calibrate \
        --calib-out "${dir}/pim_calib_report.json" > /dev/null
    test -s "${dir}/pim_calib_report.json"
    echo "calibration sweep inside the drift band"
}

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
    echo "=== [${name}] ctest ==="
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

if [[ "${QUICK}" == "1" ]]; then
    # Quick tier: plain build, unit-labelled tests only.
    dir="build-check-plain"
    mkdir -p "${dir}"
    echo "=== [plain] cmake configure ==="
    cmake -B "${dir}" -S . "${COMMON_FLAGS[@]}" \
        > "${dir}/cmake.log" 2>&1 || {
        cat "${dir}/cmake.log"
        exit 1
    }
    echo "=== [plain] build ==="
    cmake --build "${dir}" -j "${JOBS}"
    echo "=== [plain] ctest -L unit ==="
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L unit
    run_pim_prove "${dir}"
    run_pim_certify "${dir}"
else
    run_config plain
    run_pim_prove build-check-plain
    run_pim_certify build-check-plain
    # Fast-path leg, part 1: rerun the differential suites in pure
    # fast mode on the plain build. Launch sites that construct their
    # DpuSets with ExecMode::Auto resolve to the env override, so the
    # whole BFV differential fuzz re-executes through the compiled
    # fast kernels (shadow-grid tests pin their own modes and are
    # unaffected).
    echo "=== [plain] ctest -L differential (PIMHE_EXEC_MODE=fast) ==="
    PIMHE_EXEC_MODE=fast ctest --test-dir build-check-plain \
        --output-on-failure -j "${JOBS}" -L differential
    run_config asan -DPIMHE_SANITIZE=address
    # The resident-reuse ablation drives the arena allocator, the
    # eviction path, and the plan-verifier event stream end to end;
    # run it under ASan so lifetime bugs in that stack surface here.
    echo "=== [asan] abl_resident_reuse ==="
    ./build-check-asan/bench/abl_resident_reuse > /dev/null
    # Fast-path leg, part 2: the same suites in shadow mode under
    # ASan — every launch runs interpreter AND fast body and panics on
    # any divergence, with the fast path's host loops sanitized.
    echo "=== [asan] ctest -L differential (PIMHE_EXEC_MODE=shadow) ==="
    PIMHE_EXEC_MODE=shadow ctest --test-dir build-check-asan \
        --output-on-failure -j "${JOBS}" -L differential
    run_config ubsan -DPIMHE_SANITIZE=undefined
    # The certifier's saturating 512-bit walk and the cost model's
    # double arithmetic are exactly the code UBSan watches best; run
    # both certifier directions on the sanitized build too.
    run_pim_certify build-check-ubsan

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
    # forced wide, and the resident suite (unit_stress) does the same
    # for the host-pool stage/collect behind every cache upload and
    # download.
    echo "=== [tsan] ctest -L 'stress|differential' (16 threads) ==="
    PIMHE_HOST_THREADS=16 ctest --test-dir "${dir}" \
        --output-on-failure -j "${JOBS}" -L 'stress|differential'
fi

# Pipeline observability smoke: the async launch engine must emit a
# schema-valid Chrome trace whose bus lane overlaps the kernel lane
# (the tool exits nonzero when the overlap or the spans are missing).
run_pipeline_smoke() {
    local dir=$1
    echo "=== [${dir}] pim_profile --pipeline smoke ==="
    local out="${dir}/pipeline-smoke"
    mkdir -p "${out}"
    "${dir}/tools-build/pim_profile" --pipeline --smoke \
        --out "${out}" > /dev/null
    test -s "${out}/pim_profile_pipeline_trace.json"
    echo "pipeline trace contains overlapping transfer/kernel spans"
}
run_pipeline_smoke "build-check-plain"

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
