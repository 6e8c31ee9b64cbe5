"""robinpsi benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; robinpsi is imported from ./src, nothing is
installed.  Load is a closed loop with one client: one single-threaded
workload process at a time, started only after the previous one ended.  Every
sample runs in a fresh interpreter, so each pays cold caches as a CLI
invocation does.

--trace 0 prints the end-to-end metrics: setup_s, the median of one probe
per sample topped up to SETUP_PROBES, each a fresh interpreter timed from
spawn through `import robinpsi, robinpsi.cli`; the median wall_s and
peak_rss_mb of as many workload samples as fit in S seconds (at least
MIN_SAMPLES); and pass_rate, the share of output checks that passed.
setup_s and wall_s are reference-normalised: the speed of a shared host
swings by half within seconds, so every probe and sample is bracketed by a
fixed pure-Python loop timed in this process, and its time is scaled by
REFERENCE_NOMINAL_S over the mean of the two loop times around it.
--trace 1 repeats, as often as fits in S seconds and at least once, a plain
sample, a traced sample and an allocation-tracking sample, and prints the
medians of the per-layer metrics with proc.wall_s, the plain sample's raw
wall time, and trace.overhead_s, traced minus plain raw wall time; the
spans of the last traced sample go to perfbench/out/.  The last line of
stdout is one JSON object; see perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import spec

SETUP_PROBES = 9
MIN_SAMPLES = 2
REFERENCE_LOOPS = 3_000_000
REFERENCE_NOMINAL_S = 0.32  # the reference loop's median time on the baseline machine
DEADLINE_S = 170.0  # every child is killed once the run has lasted this long
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBE = (
    "import sys, time\n"
    "import robinpsi, robinpsi.cli\n"
    "print(time.monotonic() - float(sys.argv[1]))\n"
)


class ChildFailed(Exception):
    pass


def reference_seconds() -> float:
    """Seconds for a fixed pure-Python integer loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        src = os.path.abspath("src")
        path = os.environ.get("PYTHONPATH")
        # a fixed hash seed gives every sample the same str hashes, so the same dict layouts
        self.env = dict(
            os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), PYTHONHASHSEED="0"
        )
        self.attempted = 0
        self.failed = 0
        self.last_reference = 0.0
        self.references: list[float] = []

    def normalised(self, seconds: float) -> float:
        """Scales a time just measured by REFERENCE_NOMINAL_S over the mean of the
        reference loop timed before it (the last call) and after it (now)."""
        before, after = self.last_reference, reference_seconds()
        self.last_reference = after
        self.references.append(after)
        return seconds * REFERENCE_NOMINAL_S / ((before + after) / 2)

    def _python(self, args: list[str]) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("run deadline reached")
        try:
            proc = subprocess.run(
                [sys.executable, *args], env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"killed after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc.stdout.strip().splitlines()[-1]

    def setup_seconds(self) -> float:
        return float(self._python(["-c", SETUP_PROBE, repr(time.monotonic())]))

    def sample(self, mode: str) -> dict | None:
        """One workload process; its checks count toward attempted/failed."""
        try:
            result = json.loads(self._python([CHILD, self.workload, str(self.seed), "--mode", mode]))
        except ChildFailed as exc:
            print(f"{self.workload} {mode} sample failed: {exc}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        for label, ok in result["checks"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"{self.workload} {mode} check failed: {label}", file=sys.stderr)
        return result


def _repeat(seconds: float, minimum: int, step) -> list:
    """Calls step() at least `minimum` times, then again only while one more call,
    as long as the longest so far, still ends within `seconds`; keeps the results."""
    out = []
    start = time.monotonic()
    longest = 0.0
    while True:
        begun = time.monotonic()
        result = step()
        if result is None:
            return out
        out.append(result)
        now = time.monotonic()
        longest = max(longest, now - begun)
        if len(out) >= minimum and now - start + longest > seconds:
            return out


def end_to_end(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    runner.setup_seconds()  # not counted: the first import in a checkout writes bytecode
    runner.last_reference = reference_seconds()
    raw_setup: list[float] = []
    setup: list[float] = []
    walls: list[float] = []

    def probe():
        raw_setup.append(runner.setup_seconds())
        setup.append(runner.normalised(raw_setup[-1]))

    def step():
        # one set-up probe per sample spreads the probes over the run's whole span
        probe()
        sample = runner.sample("plain")
        if sample:
            walls.append(runner.normalised(sample["wall_s"]))
        return sample

    samples = _repeat(seconds, MIN_SAMPLES, step)
    if not samples:
        raise ChildFailed("no workload sample completed")
    while len(setup) < SETUP_PROBES:
        probe()
    raw = [s["wall_s"] for s in samples]
    print(
        f"{runner.workload} seed={runner.seed}: {len(samples)} samples, raw wall_s "
        f"min {min(raw):.4f} median {statistics.median(raw):.4f} max {max(raw):.4f}; "
        f"normalised {statistics.median(walls):.4f}; setup_s median of {len(setup)} probes, "
        f"raw {statistics.median(raw_setup):.4f} normalised {statistics.median(setup):.4f}; "
        f"reference loop median {statistics.median(runner.references):.4f} s"
    )
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "pass_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def traced(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    def triple():
        plain = runner.sample("plain")
        trace = plain and runner.sample("trace")
        alloc = trace and runner.sample("alloc")
        return alloc and (plain, trace, alloc)

    triples = _repeat(seconds, 1, triple)
    if not triples:
        raise ChildFailed("no traced sample completed")
    rows = []
    for plain, trace, alloc in triples:
        row = dict(trace["layers"])
        row.update({name: alloc["layers"][name] for name in layers.ALLOC_METRICS})
        row["proc.cpu_s"] = plain["cpu_s"]
        row["proc.wall_s"] = plain["wall_s"]
        row["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
        rows.append(row)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{runner.workload}-seed{runner.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "size"], "spans": triples[-1][1]["spans"]}, fh)
    print(f"{runner.workload} seed={runner.seed}: {len(rows)} traced samples; spans in {path}")
    return {
        name: (statistics.median(r[name] for r in rows), unit)
        for name, unit in layers.PER_LAYER_UNITS.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "robinpsi", "__init__.py")):
        print("perfbench: run from the root of a robinpsi checkout (no src/robinpsi here)", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        metrics = (traced if args.trace else end_to_end)(runner, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
