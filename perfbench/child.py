"""One workload sample in a fresh interpreter: run it, check its output, report.

    PYTHONPATH=src python3 perfbench/child.py WORKLOAD SEED [--mode plain|trace|alloc]

Run from the root of a checkout.  Prints one JSON object: wall_s (first call
into robinpsi until the output is checked), peak_rss_mb (ru_maxrss of this
process), cpu_s, and the (label, ok) output checks.  In trace mode the layer
metrics and spans of layers.Tracer are added, plus robin.segment_s, which
times one untraced 2^22-integer robin_scan window after the workload.  In
alloc mode the layer metrics come from a tracer that also tracks allocation
peaks; only its layers.ALLOC_METRICS are meant to be read.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

import robinpsi
import robinpsi.cli

import layers
import spec

SEGMENT_STOP = 10**7
SEGMENT_WIDTH = 1 << 22


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = robinpsi.cli.main(argv)
    return code, out.getvalue()


# Runners look robinpsi functions up at call time, so an installed tracer sees them.
def run_crossover(p):
    code, text = _cli(["table1", "--t-min", str(p["t_min"]), "--t-max", str(p["t_max"])])
    return spec.check_crossover(code, text)


def run_scan(p):
    code, text = _cli(["robin-scan", "--from", str(p["start"]), "--to", str(p["stop"])])
    return spec.check_scan(code, text)


def run_tfree(p):
    table = robinpsi.build_table(p["table_limit"])
    reports = [robinpsi.verify_tfree_robin(t, p["limit"], table) for t in spec.TFREE_TS]
    champions = robinpsi.champion_scan(p["limit"], spec.CHAMPION_T)
    return spec.check_tfree(reports, champions)


def run_sweeps(p):
    code, text = _cli(["verify-bounds", "--n-max", str(p["n_max"]), "--t-max", str(p["t_max"])])
    return spec.check_sweeps(code, text, p["n_max"], p["t_max"])


RUNNERS = {"crossover": run_crossover, "scan": run_scan, "tfree": run_tfree, "sweeps": run_sweeps}


def segment_probe() -> tuple[float, list[tuple[str, bool]]]:
    """Seconds for robin_scan over one full segment ending at 1e7, which holds no violator."""
    table = robinpsi.build_table(math.isqrt(SEGMENT_STOP) + 1)
    start = time.perf_counter()
    found = robinpsi.robin_scan(SEGMENT_STOP - SEGMENT_WIDTH + 1, SEGMENT_STOP, table)
    return time.perf_counter() - start, [("segment probe finds no violator", found == [])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(RUNNERS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--mode", choices=("plain", "trace", "alloc"), default="plain")
    args = parser.parse_args()
    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(robinpsi.__file__).startswith(src):
        print(f"robinpsi was imported from {robinpsi.__file__}, not from {src}", file=sys.stderr)
        return 2
    params = spec.inputs(args.workload, args.seed)
    tracer = None if args.mode == "plain" else layers.Tracer(track_alloc=args.mode == "alloc")
    if tracer:
        tracer.install(robinpsi)
    start = time.perf_counter()
    checks = RUNNERS[args.workload](params)
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
    if args.mode == "trace":
        result["layers"]["robin.segment_s"], segment_checks = segment_probe()
        checks += segment_checks
    result["checks"] = checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
