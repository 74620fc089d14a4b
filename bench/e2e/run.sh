#!/usr/bin/env bash
# End-to-end PIM-HE benchmark: build, run, compare. See README.md.
#
#   bench/e2e/run.sh                      all workloads, untraced + traced
#   bench/e2e/run.sh --smoke              5 queries each, every self-check
#   bench/e2e/run.sh --repeat 5 --out D   five untraced runs per workload
#   bench/e2e/run.sh --compare A B        verdict per metric x workload
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last line is JSON
#
# Builds into build-e2e/ at the repository root and writes results
# under build-e2e/results/. Exits non-zero on a build failure, a failed
# query, a closure violation or a worse metric.
set -u -o pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
HERE="$ROOT/bench/e2e"
BUILD="$ROOT/build-e2e"
BIN="$BUILD/e2e_bench"
WORKLOADS="mean variance vec_add vec_mul_stream"

die() { echo "run.sh: $*" >&2; exit 1; }

build() {
    mkdir -p "$BUILD" || die "cannot create $BUILD"
    local log="$BUILD/build.log"
    if [ ! -f "$BUILD/Makefile" ]; then
        cmake -S "$HERE" -B "$BUILD" >"$log" 2>&1 ||
            { tail -n 20 "$log" >&2; die "configure failed"; }
    fi
    cmake --build "$BUILD" --target e2e_bench -j "$(nproc)" >>"$log" 2>&1 ||
        { tail -n 40 "$log" >&2; die "build failed"; }
}

# Single-run mode: one workload, one run, arguments passed through.
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        build
        out="$BUILD/results/single"
        mkdir -p "$out" || die "cannot create $out"
        exec "$BIN" "$@" --result "$out/last.json"
    fi
done

mode=run
seed=1
seconds=""
repeat=1
out="$BUILD/results/latest"
inject=()
while [ $# -gt 0 ]; do
    case "$1" in
      --compare)
        [ $# -eq 3 ] || die "usage: run.sh --compare RESULTS_A RESULTS_B"
        exec python3 "$HERE/results.py" compare "$2" "$3" \
            --benchmark "$ROOT/BENCHMARK.json" ;;
      --smoke) mode=smoke; shift ;;
      --seed) seed="$2"; shift 2 ;;
      --seconds) seconds="$2"; shift 2 ;;
      --repeat) repeat="$2"; shift 2 ;;
      --out) out="$2"; shift 2 ;;
      --inject-mismatch) inject=(--inject-mismatch); shift ;;
      *) die "unknown argument $1" ;;
    esac
done
if [ -z "$seconds" ]; then
    seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
        "$ROOT/BENCHMARK.json")" || die "cannot read run_seconds"
fi

build
mkdir -p "$out" || die "cannot create $out"
length=(--seconds "$seconds")
[ "$mode" = smoke ] && length=(--queries 5 --setups 1)

status=0
# One process per run; $1 = workload, $2 = trace flag, $3 = result file.
run_one() {
    "$BIN" --workload "$1" --seed "$seed" --trace "$2" "${length[@]}" \
        "${inject[@]}" --result "$3" >"${3%.json}.out"
    local rc=$?
    # Every line but the final JSON one: "workload metric value unit".
    sed '$d' "${3%.json}.out"
    if [ $rc -ne 0 ]; then
        status=1
        if [ $rc -gt 128 ] || ! tail -n 1 "${3%.json}.out" | grep -q '^{'; then
            # Aborted: every unfinished query counts as failed.
            echo "$1 fail_ratio 1 fraction (process died, status $rc)"
        fi
    fi
}

for r in $(seq 1 "$repeat"); do
    for w in $WORKLOADS; do
        run_one "$w" 0 "$out/$w.e2e.r$r.json"
    done
done
for w in $WORKLOADS; do
    run_one "$w" 1 "$out/$w.trace.json"
done

python3 "$HERE/results.py" overhead "$out" || status=1
if [ "$mode" = smoke ]; then
    python3 "$HERE/results.py" keys "$out" \
        --benchmark "$ROOT/BENCHMARK.json" || status=1
fi
echo "results in $out"
exit $status
