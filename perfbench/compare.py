#!/usr/bin/env python3
"""Compares two sets of session-replay runs (standard library only).

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the saved stdout of run.py runs, one file per run,
named <workload>.<anything> (e.g. read_disk.seed3.txt); the last line of
each file is the run's result JSON. Runs of one directory must all have
the same --trace setting.

With one directory, prints per workload x metric the median, the
quartiles and the spread (inter-quartile range / median), and flags a
spread above a third of the metric's BENCHMARK.json bound ("noisy") or
above the bound ("unresolved").

With two, prints per workload x metric each side's median and quartiles
and the change of the medians, and a verdict for every metric with a
bound: "unresolved" when either side's spread exceeds the bound,
"regressed" or "improved" when the medians differ by more than the bound,
"same" otherwise. Exits 1 when anything regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: {metric: [values]}} plus failed-run counts."""
    runs, incorrect = {}, {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines or not lines[-1].startswith("{"):
            print("skipping %s: no result line" % path, file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        workload = name.split(".", 1)[0]
        if not result["correct"] or result["failed"]:
            incorrect[workload] = incorrect.get(workload, 0) + 1
        per_metric = runs.setdefault(workload, {})
        for metric, m in result["metrics"].items():
            per_metric.setdefault(metric, []).append(float(m["value"]))
    return runs, incorrect


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def metric_specs():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = {m["name"]: m for m in spec["per_layer"]}
    specs.update({m["name"]: m for m in spec["end_to_end"]})
    return specs


def show_one(runs, incorrect, specs):
    print("%-13s %-36s %4s %12s %12s %12s %7s %6s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound",
        "verdict"))
    for workload in sorted(runs):
        for metric, values in runs[workload].items():
            q1, q2, q3 = quartiles(values)
            bound = specs.get(metric, {}).get("bound")
            s = spread(values)
            verdict = "-"
            if bound is not None:
                verdict = ("unresolved" if s > bound else
                           "noisy" if s > bound / 3 else "steady")
            print("%-13s %-36s %4d %12.6g %12.6g %12.6g %6.1f%% %6s  %s" % (
                workload, metric, len(values), q1, q2, q3, 100 * s,
                "-" if bound is None else "%.0f%%" % (100 * bound), verdict))
        if incorrect.get(workload):
            print("%-13s %d run(s) incorrect or with failed ops" % (
                workload, incorrect[workload]))


def show_two(base, new, specs):
    regressed = False
    print("%-13s %-36s %26s %26s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "verdict"))
    for workload in sorted(set(base) & set(new)):
        for metric in base[workload]:
            if metric not in new[workload]:
                continue
            b, n = base[workload][metric], new[workload][metric]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            m = specs.get(metric, {})
            verdict = "-"
            if "bound" in m:
                worse = -change if m["better"] == "higher" else change
                if max(spread(b), spread(n)) > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict, regressed = "REGRESSED", True
                elif -worse > m["bound"]:
                    verdict = "improved"
                else:
                    verdict = "same"
            print("%-13s %-36s %26s %26s %+7.1f%%  %s" % (
                workload, metric,
                "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
                "%.5g [%.5g, %.5g]" % (nq[1], nq[0], nq[2]),
                100 * change, verdict))
    return 1 if regressed else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    specs = metric_specs()
    base, base_bad = load_runs(argv[1])
    if len(argv) == 2:
        show_one(base, base_bad, specs)
        return 0
    new, new_bad = load_runs(argv[2])
    for side, bad in (("base", base_bad), ("new", new_bad)):
        for workload, count in sorted(bad.items()):
            print("%s: %s has %d incorrect run(s)" % (side, workload, count))
    return show_two(base, new, specs)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
