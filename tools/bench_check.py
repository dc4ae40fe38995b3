#!/usr/bin/env python3
"""Guard against bench throughput regressions.

Compares a fresh bench JSON-lines file against a committed baseline
(e.g. BENCH_scheduler.json at HEAD) and fails if any matched record's
throughput dropped by more than the threshold:

    bench_check.py BASELINE FRESH [--threshold 0.30]

Records match on their identity fields — everything except the
throughput metrics and the run-volatile fields (iteration counts,
wall times, percentiles), so a CURARE_BENCH_SMOKE run still lines up
against a full-length baseline. Only the "higher is better" throughput
metrics are compared:

    mops            (bench_queue)
    throughput_rps  (bench_serve, bench_obs serve sweep)
    evals_per_s     (bench_obs eval sweep)
    mcons           (bench_heap allocator A/B)

Records present in only one file are reported but not fatal — sweeps
legitimately grow and smoke mode legitimately shrinks them. Exit codes:
0 ok, 1 regression found, 2 bad invocation or unparseable input, or
records from hosts with different core counts.

Host facts: a record may carry "cores" and "build_type" (bench_queue
and bench_server_scaling stamp both). They are not part of a record's
identity, but when a matched pair of records both carry "cores" and the
counts differ, the check refuses to compare anything: a baseline from a
1-core host says nothing about a 4-core run. Records without host facts
are compared as before.

Besides the drift check, both files are held to the scheduler's
*ratio gates* (the acceptance bars of the work-stealing queue rework,
kept here so they are enforced forever, not just the week they landed):

  * queue_ab: at every matched (workload, threads, chains, sites)
    sweep point, ws mops must not fall below mutex mops;
  * queue_ab: the acceptance cell (spawn_chain, 8 threads, 1 site)
    must show ws >= 1.5x mutex;
  * server_scaling: utilization must stay above collapse level and
    wall time must stay flat across the sweep (a spinning-server
    regression shows up as 10x wall inflation past S=16);
  * eval_ab (bench_eval): at every (workload, n) point the vm engine
    must not fall below the tree engine, both engines must report the
    *identical* "result" string (a riding differential check), and the
    acceptance cell (arith_loop) must show vm >= 5x tree;
  * heap_ab (bench_heap): the bump allocator's Mcons must not fall
    below the seed mutexed-shard heap at any thread count;
  * heap_quota (bench_heap): per-request memory accounting must keep
    >= 0.97x of the unmetered single-thread allocation throughput;
  * gc_pause (bench_heap): the p95 stop-the-world pause stays under an
    absolute 50 ms ceiling;
  * serve_coldstart (bench_serve): cloning sessions from the captured
    image must be >= 5x faster than re-evaluating the prelude;
  * serve_restructure_cache (bench_serve): a cache hit must answer
    with >= 10x less restructure time than the miss that seeded it.

The committed baseline is judged strictly; the fresh run gets a noise
allowance (--gate-slack, default 0.85) so a loaded CI host does not
flap, while a genuine inversion still fails.
"""

import argparse
import json
import sys

# Higher-is-better metrics eligible for the regression check.
METRICS = ("mops", "throughput_rps", "evals_per_s", "mcons")

# Fields that vary run to run without changing what was measured.
VOLATILE = frozenset(
    METRICS
    + (
        "secs",
        "reps",
        "wall_s",
        "wall_ms",
        "ops",
        "requests",
        "iters",
        "invocations",
        "samples",
        "overhead_pct",
        "p50_ms",
        "p99_ms",
        "mean_admission_ms",
        "mean_eval_ms",
        "rejected",
        "transport_errors",
        "head_ns_mean",
        "tail_ns_mean",
        "utilization",
        "max_queue",
        "notify_suppressed",
        "sleeps",
        "model_T",
        "sim_T",
        # bench_heap: smoke mode shrinks the allocation counts and the
        # pause sweep, and every pause statistic is run-volatile.
        "conses",
        "mcons_off",
        "mcons_on",
        "overhead_ratio",
        "bump_serial_ns",
        "cells_per_block",
        "shard_1t_ns",
        "bump_1t_ns",
        "collections",
        "garbage_conses",
        "survivors",
        "threshold_bytes",
        "min_ns",
        "p50_ns",
        "p95_ns",
        "max_ns",
        "reclaimed_objects",
        "reclaimed_bytes",
        # bench_serve runaway mix
        "clipped",
        # bench_serve warm start (lower-is-better costs: compared by
        # the coldstart/cache ratio gates, not the drift check)
        "mean_setup_ms",
        "mean_restructure_ms",
    )
)

# Host facts (see module docstring): never part of a record's identity.
HOST_FACTS = frozenset(("cores", "build_type"))

# Ratio gates (see module docstring). Slack 1.0 = judge strictly.
ACCEPTANCE_RATIO = 1.5  # ws vs mutex, spawn_chain, 8 threads, 1 site
UTILIZATION_FLOOR = 0.04  # server_scaling collapse level (1-core host)
WALL_FLATNESS = 5.0  # max wall_ms(S) / wall_ms(S_min) across the sweep
EVAL_ACCEPTANCE_RATIO = 5.0  # vm vs tree on the arith_loop workload
QUOTA_OVERHEAD_FLOOR = 0.97  # heap_quota: accounting costs <= 3%
PAUSE_P95_CEILING_NS = 50e6  # gc_pause: p95 stop-the-world <= 50 ms
COLDSTART_RATIO = 5.0  # image clone vs per-session prelude re-eval
CACHE_HIT_RATIO = 10.0  # restructure_ns: miss vs cache hit


def check_gates(recs, label, slack):
    """Return a list of gate-violation strings for one file's records."""
    problems = []
    # queue_ab: per-point ws-vs-mutex floor + the acceptance cell.
    cells = {}
    for r in recs:
        if r.get("bench") != "queue_ab":
            continue
        point = (r.get("workload"), r.get("threads"), r.get("chains"),
                 r.get("sites"))
        cells.setdefault(point, {})[r.get("impl")] = float(r["mops"])
    acceptance_seen = False
    for point, by_impl in sorted(cells.items()):
        ws, mx = by_impl.get("ws"), by_impl.get("mutex")
        if ws is None or mx is None or mx <= 0:
            continue
        name = "workload=%s threads=%s chains=%s sites=%s" % point
        if ws < mx * slack:
            problems.append(
                f"{label}: ws below mutex at {name}: "
                f"{ws:.3f} < {mx:.3f} * {slack:.2f}"
            )
        if point[0] == "spawn_chain" and point[1] == 8 and point[3] == 1:
            acceptance_seen = True
            bar = ACCEPTANCE_RATIO * slack
            if ws < mx * bar:
                problems.append(
                    f"{label}: acceptance cell ws/mutex = {ws / mx:.2f}x "
                    f"< {bar:.2f}x ({name})"
                )
    if cells and not acceptance_seen:
        problems.append(
            f"{label}: queue_ab records present but the acceptance cell "
            "(spawn_chain, threads=8, sites=1) is missing"
        )
    # eval_ab: per-point vm-vs-tree floor, result identity, and the
    # arith_loop acceptance cell.
    eval_cells = {}
    for r in recs:
        if r.get("bench") != "eval_ab":
            continue
        point = (r.get("workload"), r.get("n"))
        eval_cells.setdefault(point, {})[r.get("engine")] = r
    eval_acceptance_seen = False
    for point, by_engine in sorted(eval_cells.items()):
        tree, vm = by_engine.get("tree"), by_engine.get("vm")
        if tree is None or vm is None:
            continue
        name = "workload=%s n=%s" % point
        if tree.get("result") != vm.get("result"):
            problems.append(
                f"{label}: engines disagree at {name}: "
                f"tree={tree.get('result')!r} vm={vm.get('result')!r}"
            )
        tv, vv = float(tree["evals_per_s"]), float(vm["evals_per_s"])
        if tv <= 0:
            continue
        if vv < tv * slack:
            problems.append(
                f"{label}: vm below tree at {name}: "
                f"{vv:.1f} < {tv:.1f} * {slack:.2f}"
            )
        if point[0] == "arith_loop":
            eval_acceptance_seen = True
            bar = EVAL_ACCEPTANCE_RATIO * slack
            if vv < tv * bar:
                problems.append(
                    f"{label}: eval acceptance cell vm/tree = "
                    f"{vv / tv:.2f}x < {bar:.2f}x ({name})"
                )
    if eval_cells and not eval_acceptance_seen:
        problems.append(
            f"{label}: eval_ab records present but the acceptance cell "
            "(arith_loop, both engines) is missing"
        )
    # heap_ab: the bump allocator must not fall below the seed shard
    # heap at any matched thread count (the GC rework's reason to
    # exist, kept enforced forever like the queue gates above).
    heap_cells = {}
    for r in recs:
        if r.get("bench") != "heap_ab":
            continue
        heap_cells.setdefault(int(r.get("threads", 0)), {})[
            r.get("impl")
        ] = float(r["mcons"])
    for threads, by_impl in sorted(heap_cells.items()):
        shard, bump = by_impl.get("shard"), by_impl.get("bump")
        if shard is None or bump is None or shard <= 0:
            continue
        if bump < shard * slack:
            problems.append(
                f"{label}: bump allocator below shard heap at "
                f"threads={threads}: {bump:.2f} < {shard:.2f} * "
                f"{slack:.2f} Mcons"
            )
    # heap_quota: per-request accounting must stay within 3% of the
    # unmetered fast path (the resource-governance acceptance bar).
    for r in recs:
        if r.get("bench") != "heap_quota":
            continue
        ratio = float(r.get("overhead_ratio", 0.0))
        bar = QUOTA_OVERHEAD_FLOOR * slack
        if ratio < bar:
            problems.append(
                f"{label}: quota accounting overhead ratio {ratio:.3f} "
                f"below {bar:.3f} (threads={r.get('threads')})"
            )
    # gc_pause: the p95 stop-the-world pause has an absolute ceiling.
    for r in recs:
        if r.get("bench") != "gc_pause":
            continue
        p95 = float(r.get("p95_ns", 0.0))
        if p95 > PAUSE_P95_CEILING_NS / slack:
            problems.append(
                f"{label}: gc_pause p95 {p95 / 1e6:.2f} ms above the "
                f"{PAUSE_P95_CEILING_NS / slack / 1e6:.0f} ms ceiling"
            )
    # serve_coldstart: cloning the session image must beat re-evaluating
    # the prelude by the warm-start acceptance ratio (DESIGN.md §15).
    cold_modes = {
        r.get("mode"): float(r.get("mean_setup_ms", 0.0))
        for r in recs
        if r.get("bench") == "serve_coldstart"
    }
    if cold_modes:
        prelude_ms = cold_modes.get("prelude")
        image_ms = cold_modes.get("image")
        if prelude_ms is None or image_ms is None:
            problems.append(
                f"{label}: serve_coldstart records present but a mode "
                "row (prelude/image) is missing"
            )
        elif image_ms > 0:
            bar = COLDSTART_RATIO * slack
            if prelude_ms < image_ms * bar:
                problems.append(
                    f"{label}: serve_coldstart image speedup "
                    f"{prelude_ms / image_ms:.2f}x below {bar:.2f}x "
                    f"(prelude {prelude_ms:.3f} ms, image "
                    f"{image_ms:.3f} ms)"
                )
    # serve_restructure_cache: a hit must answer with at least the
    # acceptance ratio less restructure_ns than the miss that seeded it.
    cache_modes = {
        r.get("mode"): float(r.get("mean_restructure_ms", 0.0))
        for r in recs
        if r.get("bench") == "serve_restructure_cache"
    }
    if cache_modes:
        miss_ms = cache_modes.get("miss")
        hit_ms = cache_modes.get("hit")
        if miss_ms is None or hit_ms is None:
            problems.append(
                f"{label}: serve_restructure_cache records present but "
                "a mode row (miss/hit) is missing"
            )
        elif hit_ms > 0:
            bar = CACHE_HIT_RATIO * slack
            if miss_ms < hit_ms * bar:
                problems.append(
                    f"{label}: restructure cache hit speedup "
                    f"{miss_ms / hit_ms:.2f}x below {bar:.2f}x "
                    f"(miss {miss_ms:.3f} ms, hit {hit_ms:.3f} ms)"
                )
    # server_scaling: collapse guards.
    scaling = [r for r in recs if r.get("bench") == "server_scaling"]
    if scaling:
        walls = {int(r["S"]): float(r["wall_ms"]) for r in scaling}
        base = walls[min(walls)]
        for r in sorted(scaling, key=lambda r: int(r["S"])):
            s = int(r["S"])
            util = float(r.get("utilization", 0.0))
            if util < UTILIZATION_FLOOR * slack:
                problems.append(
                    f"{label}: server_scaling S={s} utilization "
                    f"{util:.4f} below collapse floor "
                    f"{UTILIZATION_FLOOR * slack:.4f}"
                )
            if base > 0 and walls[s] > base * WALL_FLATNESS / slack:
                problems.append(
                    f"{label}: server_scaling S={s} wall {walls[s]:.2f}ms "
                    f"is {walls[s] / base:.1f}x the S={min(walls)} wall "
                    f"(flatness bar {WALL_FLATNESS / slack:.1f}x)"
                )
    return problems


def load(path):
    recs = []
    try:
        with open(path) as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    recs.append(json.loads(line))
                except json.JSONDecodeError as e:
                    sys.exit(f"bench_check: {path}:{n}: bad JSON: {e}")
    except OSError as e:
        sys.exit(f"bench_check: cannot read {path}: {e}")
    return recs


def identity(rec):
    return tuple(
        sorted(
            (k, v)
            for k, v in rec.items()
            if k not in VOLATILE and k not in HOST_FACTS
        )
    )


def core_mismatches(base, fresh):
    """Matched record pairs that both carry "cores" and disagree."""
    return [
        (key, base[key]["cores"], fresh[key]["cores"])
        for key in sorted(base)
        if key in fresh
        and "cores" in base[key]
        and "cores" in fresh[key]
        and base[key]["cores"] != fresh[key]["cores"]
    ]


def index(recs, path):
    by_id = {}
    for rec in recs:
        key = identity(rec)
        if key in by_id:
            # Same sweep point twice (e.g. a re-run appended instead of
            # truncating): keep the last record, matching reader habits.
            print(f"bench_check: note: duplicate record in {path}: {dict(key)}")
        by_id[key] = rec
    return by_id


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional throughput drop (default 0.30)",
    )
    ap.add_argument(
        "--gate-slack",
        type=float,
        default=0.85,
        help="noise allowance applied to the ratio gates on the fresh "
        "file (default 0.85; the baseline is always judged at 1.0)",
    )
    args = ap.parse_args()
    if not 0 < args.threshold < 1:
        ap.error("--threshold must be in (0, 1)")
    if not 0 < args.gate_slack <= 1:
        ap.error("--gate-slack must be in (0, 1]")

    base_recs = load(args.baseline)
    fresh_recs = load(args.fresh)
    base = index(base_recs, args.baseline)
    fresh = index(fresh_recs, args.fresh)

    mismatched = core_mismatches(base, fresh)
    if mismatched:
        key, bc, fc = mismatched[0]
        label = ", ".join(f"{k}={v}" for k, v in key)
        print(
            f"bench_check: refusing to compare records from hosts with "
            f"different core counts: {len(mismatched)} matched record(s) "
            f"differ, e.g. baseline cores={bc} vs fresh cores={fc} "
            f"[{label}]. Re-baseline on a host with the fresh run's core "
            f"count.",
            file=sys.stderr,
        )
        return 2

    gate_problems = check_gates(base_recs, "baseline", 1.0)
    gate_problems += check_gates(fresh_recs, "fresh", args.gate_slack)

    compared = 0
    regressions = []
    for key, b in sorted(base.items()):
        f = fresh.get(key)
        if f is None:
            continue
        for metric in METRICS:
            if metric not in b or metric not in f:
                continue
            bv, fv = float(b[metric]), float(f[metric])
            if bv <= 0:
                continue
            compared += 1
            drop = (bv - fv) / bv
            marker = "REGRESSION" if drop > args.threshold else "ok"
            label = ", ".join(f"{k}={v}" for k, v in key)
            print(
                f"  {marker:>10}  {metric}: {bv:.3f} -> {fv:.3f} "
                f"({-drop * 100:+.1f}%)  [{label}]"
            )
            if drop > args.threshold:
                regressions.append((key, metric, bv, fv))

    only_base = len([k for k in base if k not in fresh])
    only_fresh = len([k for k in fresh if k not in base])
    print(
        f"bench_check: {compared} metric(s) compared, "
        f"{only_base} baseline-only record(s), "
        f"{only_fresh} fresh-only record(s)"
    )
    if compared == 0:
        # A guard that silently compares nothing is worse than no guard.
        sys.exit(
            "bench_check: no comparable records — baseline and fresh "
            "files share no sweep points with a throughput metric"
        )
    for p in gate_problems:
        print(f"  GATE  {p}")
    if regressions or gate_problems:
        if regressions:
            print(
                f"bench_check: FAIL — {len(regressions)} metric(s) dropped "
                f"more than {args.threshold * 100:.0f}%"
            )
        if gate_problems:
            print(
                f"bench_check: FAIL — {len(gate_problems)} ratio-gate "
                "violation(s)"
            )
        return 1
    print("bench_check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
