"""wulffkit benchmark: time to a verified identity, with its accuracy alongside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.
Workloads: annulus, pointwise, dual-scan, cli (see README.md).

--trace 0 prints the end-to-end metrics: wall_s (median time of one pass
of the workload's fixed work; on pointwise and dual-scan in reference
seconds, each unit of work rescaled by a pure-Python kernel timed just
before and after it), setup_s (median
over fresh interpreters of import plus input building), peak_rss_mb,
error_digits and tolerance_digits.  --trace 1 alternates untraced and traced passes and
prints the per-layer metrics, with the tracing overhead.  Either way the
last line of standard output is one JSON object; a summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
from common import digits, median

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "error_digits": "digits", "tolerance_digits": "digits"}
ESTIMATE_TARGETS = ("disk", "ellipse", "chord")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s") or ".check_s." in name:
        return "s"
    if ".estimate_over_error." in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("annulus", "pointwise", "dual-scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not common.program_present():
        print(f"wulffkit sources not found under {common.SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    import workloads
    wl = workloads.WORKLOADS[args.workload]
    fresh = args.workload == "cli"      # passes run in child interpreters

    setups, imports = common.measure_setup(args.workload, args.seed)
    common.add_src_to_path()
    inp = wl.build(args.seed)
    refs = wl.references(inp)

    reports, rss, raw = [], [], []
    watch = common.Stopwatch(wl.NORMALIZE)

    def one_pass(trace_sums=None):
        """One pass; returns its time in reference seconds and its output."""
        watch.reset()
        if fresh:
            out = wl.run_pass(inp, watch, trace_sums)
            rss.append(out["rss_mb"])
        else:
            out = wl.run_pass(inp, watch)
        raw.append(watch.raw)
        reports.append(wl.check(inp, refs, out))
        return watch.normalized, out

    if not fresh:
        one_pass()                      # warm-up: lazy imports, allocator, caches

    if args.trace:
        metrics = traced_run(args, one_pass, fresh, imports, reports)
    else:
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            times.append(one_pass()[0])
        values = {
            "wall_s": median(times),
            "setup_s": median(setups),
            "peak_rss_mb": max(rss) if fresh else common.peak_rss_mb_self(),
            "error_digits": digits(e for r in reports for e in r.rel_errors),
            "tolerance_digits": digits(b for r in reports for b in r.bars),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{args.workload}: {len(times)} timed passes (reference s): "
              + " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
        print(f"{args.workload}: raw seconds of every pass: "
              + " ".join(f"{t:.4f}" for t in raw), file=sys.stderr)

    problems = [p for r in reports for p in r.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.ops for r in reports),
                      "failed": sum(r.failed for r in reports),
                      "metrics": metrics}))
    return 0


def traced_run(args, one_pass, fresh, imports, reports) -> dict:
    """Untraced and traced passes alternate, so the overhead is measured
    under the same conditions; per-layer counts are per traced pass."""
    import tracer as tr
    tracer = tr.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < args.seconds:
        if fresh:                           # copy 1 plain, copy 2 traced
            _, out = one_pass(tracer.sums)
            plain.append(out["copy_s"][0])
            traced.append(out["copy_s"][1])
        elif len(plain) <= len(traced):
            plain.append(one_pass()[0])
        else:
            with tracer:
                traced.append(one_pass()[0])
    values = tr.layer_metrics(tracer.sums, len(traced))
    values.update(tr.norm_batch_rates(args.seed))
    for case in ESTIMATE_TARGETS:
        found = [r.extra[f"estimate_over_error.{case}"] for r in reports
                 if f"estimate_over_error.{case}" in r.extra]
        values[f"quadrature.estimate_over_error.{case}"] = min(found) if found else 0.0
    values["cli.import_s"] = median(imports)
    values["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}


if __name__ == "__main__":
    sys.exit(main())
