#!/usr/bin/env python3
"""Read the result files bench/e2e/run.sh writes.

  results.py compare A B --benchmark BENCHMARK.json
      For every end-to-end metric x workload, compare the medians of
      result sets A (parent) and B (change) against the metric's bound:
      same / worse / better, or unresolved when the spread within a set
      is wider than the bound and the runs of B do not all beat A.
      Every modelled and count metric must also read the same in both
      sets. Exits 1 on a worse metric or a mismatch.
  results.py overhead DIR
      Tracing overhead per workload: traced host_ms_p50 over the median
      untraced one, minus 1.
  results.py keys DIR --benchmark BENCHMARK.json
      Check that the last stdout line of every run names exactly the
      metrics BENCHMARK.json lists for its mode.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Modelled values of the async stream are differences of cumulative
# pipeline cursors, so they may differ in the last few bits.
MODELLED_RTOL = 1e-9


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") == "pimhe-e2e/v1":
            doc["path"] = path
            runs.append(doc)
    if not runs:
        sys.exit(f"results.py: no result files in {directory}")
    return runs


def spread(values):
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(args):
    with open(args.benchmark) as f:
        bench = json.load(f)
    sets = [load(args.a), load(args.b)]
    workloads = sorted({r["workload"] for r in sets[0] + sets[1]})
    failed = False

    print(f"{'workload':<15} {'metric':<12} {'median A':>12} "
          f"{'median B':>12} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s
                     if r["workload"] == w and not r["trace"]
                     and m["name"] in r["metrics"]] for s in sets]
            if not vals[0] or not vals[1]:
                print(f"{w:<15} {m['name']:<12} missing in a result set")
                failed = True
                continue
            a, b = (statistics.median(v) for v in vals)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (b - a) / a
            s = max(spread(vals[0]), spread(vals[1]))
            if s > m["bound"]:
                b_wins = all(sign * (y - x) < 0
                             for x in vals[0] for y in vals[1])
                verdict = "better" if b_wins else "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
                failed = True
            elif worse_by < -m["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{w:<15} {m['name']:<12} {a:>12.4f} {b:>12.4f} "
                  f"{(b - a) / a:>+8.2%} {s:>7.2%} {m['bound']:>6.0%}  "
                  f"{verdict} (n={len(vals[0])}/{len(vals[1])})")

    # Modelled and count metrics are deterministic: they must agree
    # across every run of both sets, whatever the seed.
    mismatches = 0
    for w in workloads:
        before = mismatches
        ref = {}
        for r in sets[0] + sets[1]:
            if r["workload"] != w:
                continue
            for name, m in r["metrics"].items():
                if m["clock"] not in ("modelled", "count"):
                    continue
                v = m["value"]
                if name not in ref:
                    ref[name] = (v, r["path"])
                    continue
                v0, p0 = ref[name]
                tol = MODELLED_RTOL * abs(v0) if m["clock"] == "modelled" else 0
                if abs(v - v0) > tol:
                    mismatches += 1
                    print(f"MISMATCH {w} {name}: {v0} ({p0}) vs {v} ({r['path']})")
        print(f"{w:<15} {len(ref)} modelled/count metrics identical"
              if mismatches == before else
              f"{w:<15} {mismatches - before} modelled/count mismatches")
    return 1 if failed or mismatches else 0


def overhead(args):
    runs = load(args.dir)
    for w in sorted({r["workload"] for r in runs}):
        plain = [r["metrics"]["host_ms_p50"]["value"] for r in runs
                 if r["workload"] == w and not r["trace"]]
        traced = [r["metrics"]["host_ms_p50"]["value"] for r in runs
                  if r["workload"] == w and r["trace"]]
        if plain and traced:
            ratio = statistics.median(traced) / statistics.median(plain) - 1
            print(f"{w} trace_overhead {ratio * 100:.2f} %")
    return 0


def keys(args):
    with open(args.benchmark) as f:
        bench = json.load(f)
    want = {False: {m["name"] for m in bench["end_to_end"]},
            True: {m["name"] for m in bench["per_layer"]}}
    bad = 0
    for r in load(args.dir):
        with open(r["path"][: -len(".json")] + ".out") as f:
            line = json.loads(f.read().splitlines()[-1])
        got = set(line["metrics"])
        if got != want[r["trace"]] or set(line) != {
                "correct", "attempted", "failed", "metrics"}:
            bad += 1
            print(f"{r['path']}: last line metrics differ from BENCHMARK.json:"
                  f" missing {sorted(want[r['trace']] - got)},"
                  f" extra {sorted(got - want[r['trace']])}")
    print("last-line keys match BENCHMARK.json" if not bad else
          f"{bad} run(s) with mismatched last-line keys")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--benchmark", required=True)
    o = sub.add_parser("overhead")
    o.add_argument("dir")
    k = sub.add_parser("keys")
    k.add_argument("dir")
    k.add_argument("--benchmark", required=True)
    args = p.parse_args()
    return {"compare": compare, "overhead": overhead, "keys": keys}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
