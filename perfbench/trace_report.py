#!/usr/bin/env python3
"""Turns a session_replay span file into per-layer self times.

    python3 perfbench/trace_report.py <spans.tsv>

The span file (tab-separated, one header line) holds, per traced run:

  layer  name             id              parent        meaning
  setup  setup            setup:<k>       -             one set-up repeat
  setup  tune|bulk_load|  setup:<k>:step  setup:<k>     one set-up step
         server_start|warmup
  pass   untraced|traced  pass:<p>:<s>    -             a session's wall time
  gen    session kind     sess:<s>:<c>    -             a connection's session
  net    op class         op:<id>         sess:<s>:<c>  client round trip
  lsm    op class         eng:<id>        op:<id>       direct engine call

Spans are written depth first: every span follows its parent and the
parent's earlier children, so the file is read in one pass with only the
open ancestors in memory. A span's self time is the part of its duration
its children do not cover; a child covers at most its parent's duration.
The engine span is the logical child of the client op with the same id:
the identical request replayed in process against a copy of the
deployment, so it covers min(engine, round trip) of that op. So net self
time is the wire, the event loop and the protocol; gen self time is the
load generator's own work and its barrier waits. The three layers must
add up to the client-side wall time (the gen spans) within TOLERANCE.
Engine time that did not fit inside its round trip (an engine stall the
wire pass did not see) is reported on its own as trace.engine_excess_frac.
"""

import array
import collections
import json
import math
import statistics
import sys

TOLERANCE = 0.05  # |sum of layer self times - client wall time| / wall


def percentile(values, p):
    """Nearest-rank percentile, as session_replay computes it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(p * len(ordered))))
    return ordered[rank - 1]


def _rows(path):
    with open(path) as f:
        next(f)  # header
        for line in f:
            layer, name, sid, parent, _conn, start, end = line.rstrip(
                "\n").split("\t")
            yield layer, name, sid, parent, int(end) - int(start)


def analyse(path):
    """Per-layer self times, the add-up check and the tracing overhead."""
    layer_self_ns = collections.Counter()
    net_self_us = collections.defaultdict(lambda: array.array("d"))
    engine_us = collections.defaultdict(lambda: array.array("d"))
    pass_ns = collections.Counter()
    setup_s = collections.defaultdict(list)
    totals = {"wall": 0, "excess": 0}

    def close(span):
        layer, name, attributed, dur, covered = span[1:]
        own = max(0, attributed - covered)
        if layer == "pass":
            pass_ns[name] += dur
        elif layer == "setup":
            if name != "setup":
                setup_s[name].append(dur / 1e9)
        else:
            layer_self_ns[layer] += own
            if layer == "gen":
                totals["wall"] += attributed
            elif layer == "net":
                net_self_us[name].append(own / 1e3)
            else:
                engine_us[name].append(dur / 1e3)

    stack = []  # open spans: [id, layer, name, attributed, duration, covered]
    for layer, name, sid, parent, dur in _rows(path):
        while stack and stack[-1][0] != parent:
            close(stack.pop())
        attributed = dur
        if stack:
            cap = stack[-1][3]
            totals["excess"] += max(0, dur - cap)
            attributed = min(dur, cap)
            stack[-1][5] += attributed
        elif parent != "-":
            raise ValueError("span %s does not follow its parent %s" % (
                sid, parent))
        stack.append([sid, layer, name, attributed, dur, 0])
    while stack:
        close(stack.pop())

    wall_ns = totals["wall"]
    layer_sum = sum(layer_self_ns[layer] for layer in ("gen", "net", "lsm"))
    err = abs(layer_sum - wall_ns) / wall_ns if wall_ns else float("inf")
    overhead = (pass_ns["traced"] / pass_ns["untraced"] - 1.0
                if pass_ns["untraced"] else 0.0)

    metrics, samples = {}, {}
    for key, names in (("get", ("get_empty", "get_nonempty")),
                       ("put", ("put",)), ("scan", ("scan",))):
        values = [v for n in names for v in net_self_us[n]]
        name = "net.%s_self_us_p50" % key
        metrics[name], samples[name] = percentile(values, 0.5), len(values)
    for cls in ("get_empty", "get_nonempty", "scan", "put"):
        for p, tag in ((0.5, "p50"), (0.99, "p99")):
            name = "lsm.%s_us_%s" % (cls, tag)
            metrics[name] = percentile(engine_us[cls], p)
            samples[name] = len(engine_us[cls])
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.layer_sum_err_frac"] = err
    metrics["trace.engine_excess_frac"] = (totals["excess"] / wall_ns
                                           if wall_ns else 0.0)
    return {
        "metrics": metrics,
        "samples": samples,
        "layer_self_s": {k: v / 1e9 for k, v in layer_self_ns.items()},
        "wall_s": wall_ns / 1e9,
        "adds_up": err <= TOLERANCE,
        "pass_s": {k: v / 1e9 for k, v in pass_ns.items()},
        "setup_s": {k: statistics.median(v) for k, v in setup_s.items()},
    }


def format_report(rep):
    lines = ["per-layer self time over %.3f s of client-side wall time "
             "(all connections):" % rep["wall_s"]]
    for layer, what in (("gen", "load generator + barriers"),
                        ("net", "wire + event loop + protocol"),
                        ("lsm", "engine (direct call)")):
        s = rep["layer_self_s"].get(layer, 0.0)
        share = s / rep["wall_s"] if rep["wall_s"] else 0.0
        lines.append("  %-4s %-30s %9.3f s  %5.1f%%" % (layer, what, s,
                                                        100 * share))
    m = rep["metrics"]
    lines.append("  layers add up to the wall time within %.2f%% "
                 "(tolerance %.0f%%): %s" % (
                     100 * m["trace.layer_sum_err_frac"], 100 * TOLERANCE,
                     "ok" if rep["adds_up"] else "FAILED"))
    lines.append("  engine time outside its round trip (not attributed): "
                 "%.2f%% of the wall time" % (
                     100 * m["trace.engine_excess_frac"]))
    lines.append("per-op self time (us), p50 / p99 of the engine call, p50 "
                 "of the wire:")
    for cls in ("get_empty", "get_nonempty", "scan", "put"):
        wire = {"get_empty": "get", "get_nonempty": "get"}.get(cls, cls)
        lines.append("  %-13s lsm %8.2f / %8.2f   net %8.2f   (n=%d)" % (
            cls, m["lsm.%s_us_p50" % cls], m["lsm.%s_us_p99" % cls],
            m["net.%s_self_us_p50" % wire], rep["samples"]["lsm.%s_us_p50"
                                                           % cls]))
    lines.append("set-up steps (median over repeats): " + ", ".join(
        "%s %.3f s" % kv for kv in rep["setup_s"].items()))
    lines.append("tracing overhead: traced wire pass %.3f s vs untraced "
                 "%.3f s of session wall time (%+.1f%%)" % (
                     rep["pass_s"].get("traced", 0.0),
                     rep["pass_s"].get("untraced", 0.0),
                     100 * m["trace.overhead_frac"]))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rep = analyse(argv[1])
    print(format_report(rep))
    print(json.dumps(rep["metrics"]))
    return 0 if rep["adds_up"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
