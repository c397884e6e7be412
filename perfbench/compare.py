#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of untraced runs, one file
per run, named <workload>-<k>.txt; run k of the parent and run k of the
change form a pair (make them alternate which side runs first). For every
workload and every end-to-end metric (the gated ones in BENCHMARK.json
plus the workload's named metrics) the rules are:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile spread
  unresolved  the parent's interquartile spread exceeds the metric's
              bound, unless every change run reads better than every
              parent run
  regressed   the change's median is worse than the parent's by more
              than the bound
  within      otherwise

A workload also fails when any run is incorrect or the change fails a
larger share of operations than the parent. One row is printed per
workload; the exit code is 1 when any workload regressed or failed.
"""
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_run(path):
    """(result, detail) from one run's output: the last line is the result
    JSON, the line before it the run record with the named metrics."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) >= 2 and lines[-2].startswith("{") else {}
    return result, detail


def load_side(directory):
    """{workload: [(result, detail), ...]} ordered by run index."""
    runs = {}
    for name in os.listdir(directory):
        stem, ext = os.path.splitext(name)
        workload, _, k = stem.rpartition("-")
        if ext != ".txt" or not workload or not k.isdigit():
            continue
        runs.setdefault(workload, []).append((int(k), load_run(os.path.join(directory, name))))
    return {w: [r for _, r in sorted(v)] for w, v in runs.items()}


def spread(values):
    """Interquartile distance, as statistics.quantiles(n=4) gives it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better, bound):
    """Applies the rules to paired samples of one metric on one workload.
    Returns (verdict, relative change of the median, relative parent spread)."""
    sign = 1.0 if better == "lower" else -1.0  # positive delta = worse
    mp, mc = statistics.median(parent), statistics.median(change)
    iqr = spread(parent)
    rel_spread = iqr / abs(mp) if mp else float("inf")
    delta = sign * (mc - mp) / abs(mp) if mp else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if wins >= WIN_SHARE * len(parent) and abs(mc - mp) > iqr and delta < 0:
        return "gain", delta, rel_spread
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if rel_spread > bound and not all_better:
        return "unresolved", delta, rel_spread
    if delta > bound:
        return "regressed", delta, rel_spread
    return "within", delta, rel_spread


def metric_series(runs, bench):
    """{metric: (values, better, bound)} over one side's runs of a workload."""
    series = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
        series[m["name"]] = (values, m["better"], m["bound"])
    for name in runs[0][1].get("named", {}):
        named = [d["named"][name] for _, d in runs]
        series[name] = ([n["value"] for n in named], named[0]["better"], named[0]["bound"])
    return series


def fail_share(runs):
    attempted = sum(r["attempted"] for r, _ in runs)
    return sum(r["failed"] for r, _ in runs) / attempted if attempted else 0.0


def compare_workload(parent_runs, change_runs, bench):
    """(ok, row text) for one workload."""
    n = min(len(parent_runs), len(change_runs))
    if n < MIN_PAIRS:
        return False, f"only {n} pairs; at least {MIN_PAIRS} are needed"
    parent_runs, change_runs = parent_runs[:n], change_runs[:n]
    ok = True
    cells = []
    if not all(r["correct"] for r, _ in parent_runs + change_runs):
        ok = False
        cells.append("INCORRECT run")
    fp, fc = fail_share(parent_runs), fail_share(change_runs)
    if fc > fp:
        ok = False
        cells.append(f"MORE FAILURES ({fc:.4g} vs {fp:.4g})")
    ps, cs = metric_series(parent_runs, bench), metric_series(change_runs, bench)
    for name, (pv, better, bound) in ps.items():
        if name not in cs:
            continue
        v, delta, rel = verdict(pv, cs[name][0], better, bound)
        if v == "regressed":
            ok = False
        cells.append(f"{name} {v} (median {delta:+.1%}, +=worse; spread {rel:.1%}; bound {bound:.0%})")
    return ok, "; ".join(cells)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load_side(argv[0]), load_side(argv[1])
    all_ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload}: no runs")
            all_ok = False
            continue
        ok, row = compare_workload(parent[workload], change[workload], bench)
        all_ok = all_ok and ok
        print(f"{workload}: {'ok' if ok else 'FAIL'}: {row}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
