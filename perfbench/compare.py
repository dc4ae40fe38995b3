#!/usr/bin/env python3
"""Compare two sets of benchmark run records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are run records written by perfbench/run.py (files under
.bench_out/ named <workload>-seed<N>-trace<T>.json) or directories of
them. For every workload and trace mode present on both sides it prints
each metric's median per side and the change, and marks an end-to-end
metric that got worse by more than its bound in BENCHMARK.json.

Records taken on different core counts measure different machines: the
comparison refuses them (exit 2). Exit 1 when a bound is exceeded.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*-trace[01].json"))) \
        if os.path.isdir(path) else [path]
    records = []
    for f in files:
        with open(f) as fh:
            records.append(json.load(fh))
    return records


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def medians(records, workload, trace):
    vals = {}
    for r in records:
        if r["workload"] != workload or r["trace"] != trace:
            continue
        section = r["end_to_end"] if trace == 0 else r["per_layer"]
        for name, m in section.items():
            vals.setdefault(name, []).append(m["value"])
    return {k: statistics.median(v) for k, v in vals.items()}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    cores = {r["host"]["nproc"] for r in base + new}
    if len(cores) > 1:
        print("refusing to compare: records come from hosts with %s cores"
              % " and ".join(str(c) for c in sorted(cores)), file=sys.stderr)
        return 2
    spec = bounds()
    worse = False
    keys = sorted({(r["workload"], r["trace"]) for r in base} &
                  {(r["workload"], r["trace"]) for r in new})
    for workload, trace in keys:
        b, n = medians(base, workload, trace), medians(new, workload, trace)
        print("== %s (trace %d)" % (workload, trace))
        for name in sorted(b.keys() & n.keys()):
            change = (n[name] - b[name]) / b[name] if b[name] else 0.0
            flag = ""
            m = spec.get(name)
            if m is not None:
                loss = change if m["better"] == "lower" else -change
                if loss > m["bound"]:
                    flag = "  WORSE than bound %.2f" % m["bound"]
                    worse = True
            print("  %-32s %14.6g %14.6g %+8.1f%%%s"
                  % (name, b[name], n[name], 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
