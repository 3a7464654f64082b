#!/usr/bin/env python3
"""Compares result sets of the end-to-end benchmark.

A result set is a JSONL file written by `run.py --save FILE`: one full
result per run (every metric, the workload, the seed and the trace mode).

    python3 perfbench/compare.py SET
        Steadiness of one set: per workload and metric, the median, the
        quartiles and the spread (q3 - q1) / median. A spread above the
        metric's bound is flagged FAIL, one above a third of it WARN.

    python3 perfbench/compare.py BASE CANDIDATE
        Per workload and metric, the median and quartiles of each side and
        the change of the median. A metric whose candidate median is worse
        than the base median by more than its bound is flagged WORSE; one
        whose spread on either side exceeds its bound is UNRESOLVED, unless
        every candidate run is better than every base run.

Quartiles are Python's statistics.quantiles(values, n=4). Bounds and
directions come from BENCHMARK.json; --all also lists the metrics it does
not declare (per-layer metrics have no bound). Runs are grouped by
(workload, trace), so comparing a traced set with an untraced one shows
the tracing overhead on the end-to-end metrics. Exits 1 when anything is
flagged FAIL or WORSE.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"] and r["metrics"][name]["value"] is not None]


def spec_metrics(spec, include_all, runs):
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if include_all:
        extra = sorted({n for r in runs for n in r["metrics"]} - set(names))
        names += extra
    return names, declared


def steadiness(groups, spec, include_all):
    bad = False
    for (workload, trace), runs in sorted(groups.items()):
        print("== %s (trace %d): %d runs, seeds %s" % (
            workload, trace, len(runs), sorted(r["seed"] for r in runs)))
        names, declared = spec_metrics(spec, include_all, runs)
        for name in names:
            vals = metric_values(runs, name)
            if not vals:
                continue
            med, q1, q3, spread = summary(vals)
            bound = declared.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, bad = "FAIL", True
                elif spread > bound / 3:
                    flag = "WARN"
            print("  %-30s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f"
                  "%s  %s" % (name, med, q1, q3, spread,
                              "  bound %.3f" % bound if bound else "", flag))
    return bad


def versus(base, cand, spec, include_all):
    bad = False
    for key in sorted(set(base) & set(cand)):
        workload, trace = key
        b_runs, c_runs = base[key], cand[key]
        print("== %s (trace %d): base %d runs, candidate %d runs" % (
            workload, trace, len(b_runs), len(c_runs)))
        names, declared = spec_metrics(spec, include_all, b_runs + c_runs)
        for name in names:
            bv, cv = metric_values(b_runs, name), metric_values(c_runs, name)
            if not bv or not cv:
                continue
            bm, bq1, bq3, bs = summary(bv)
            cm, cq1, cq3, cs = summary(cv)
            change = (cm - bm) / abs(bm) if bm else 0.0
            m = declared.get(name, {})
            bound, better = m.get("bound"), m.get("better", "lower")
            worse = change > 0 if better == "lower" else change < 0
            flag = ""
            if bound is not None:
                all_better = (max(cv) < min(bv) if better == "lower"
                              else min(cv) > max(bv))
                if worse and abs(change) > bound:
                    flag, bad = "WORSE", True
                elif max(bs, cs) > bound and not all_better:
                    flag = "UNRESOLVED"
            print("  %-30s base %11.5g [%11.5g, %11.5g]  cand %11.5g "
                  "[%11.5g, %11.5g]  %+7.2f%%  %s" % (
                      name, bm, bq1, bq3, cm, cq1, cq3, 100 * change, flag))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="one or two JSONL result sets")
    ap.add_argument("--all", action="store_true",
                    help="also list metrics BENCHMARK.json does not declare")
    ap.add_argument("--spec", default=os.path.join(HERE, "..",
                                                   "BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two result sets")
    with open(args.spec) as f:
        spec = json.load(f)
    groups = [load(p) for p in args.sets]
    if len(groups) == 1:
        bad = steadiness(groups[0], spec, args.all)
    else:
        bad = versus(groups[0], groups[1], spec, args.all)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
