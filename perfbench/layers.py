"""Layer tracing for the benchmark's traced run, applied from outside the package.

`Tracer.install` wraps public functions at each robinpsi module boundary.  The
wrapper replaces the function in every loaded robinpsi module that holds it
(modules import each other's functions by name), and `Tracer.uninstall` puts
the originals back.  Coarse boundaries record spans (name, start, end, parent
index); fine-grained ones, called up to millions of times per run (criterion,
cursor_advance, theta, nth_prime), only count calls.  Everything stays in
memory until `metrics()` and `spans` are read at the end of the run.

tracemalloc slows allocation-heavy Python code several-fold (the 2^25 sieve of
`table1` about tenfold), so allocation peaks come from a separate run made
with `track_alloc=True`, whose span times are not used.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from functools import wraps

MB = 1 << 20
ALLOC_METRICS = ("primes.peak_alloc_mb", "robin.peak_alloc_mb")
# Every per-layer metric a traced run reports, with its unit; robin.segment_s
# is filled in by child.py (segment probe) and the proc.* and trace.* metrics
# by run.py (run-level metrics).
PER_LAYER_UNITS = {
    "primes.build_table_s": "s",
    "primes.build_table_calls": "count",
    "primes.sieve_limit": "count",
    "primes.regrow_waste": "ratio",
    "primes.peak_alloc_mb": "MB",
    "primes.theta_calls": "count",
    "primes.nth_prime_calls": "count",
    "bounds.crossover_s": "s",
    "bounds.criterion_calls": "count",
    "bounds.criterion_band": "count",
    "bounds.zeta_s": "s",
    "bounds.suite.mertens_product_s": "s",
    "bounds.suite.zeta_tail_product_s": "s",
    "bounds.suite.log_substitution_s": "s",
    "bounds.suite.psi_ratio_bound_s": "s",
    "bounds.rechecked": "count",
    "primorial.cursor_s": "s",
    "primorial.cursor_steps": "count",
    "primorial.champion_s": "s",
    "primorial.champion_n_per_s": "1/s",
    "multiplicative.spf_s": "s",
    "multiplicative.bridge_s": "s",
    "multiplicative.bridge_checked": "count",
    "multiplicative.bridge_n_per_s": "1/s",
    "robin.scan_s": "s",
    "robin.scan_n_per_s": "1/s",
    "robin.segment_s": "s",
    "robin.peak_alloc_mb": "MB",
    "robin.tfree_s": "s",
    "cli.self_s": "s",
    "tabular.emit_s": "s",
    "proc.cpu_s": "s",
    "proc.wall_s": "s",
    "trace.overhead_s": "s",
}

SUITES = {
    "mertens_bound_suite": "mertens_product",
    "zeta_tail_bound_suite": "zeta_tail_product",
    "log_substitution_suite": "log_substitution",
    "psi_ratio_bound_suite": "psi_ratio_bound",
}


def _sizer(fn, size):
    """Work size of a call to fn: size(bound arguments), or 0 where fn's signature no longer fits."""
    signature = inspect.signature(fn)

    def read(args, kwargs):
        try:
            return size(signature.bind(*args, **kwargs).arguments)
        except (TypeError, KeyError):
            return 0

    return read


def _limit(arguments):
    return arguments["limit"]


class _CountingMpmath:
    """Stand-in for the mpmath module inside robinpsi.bounds that counts every
    high-precision context entered, i.e. every margin re-derived in mpmath."""

    def __init__(self, module, counts: Counter):
        self._module = module
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._module, name)

    def workdps(self, *args, **kwargs):
        self._counts["bounds.rechecked"] += 1
        return self._module.workdps(*args, **kwargs)


class Tracer:
    def __init__(self, track_alloc: bool = False) -> None:
        self.track_alloc = track_alloc
        self.spans: list[list] = []  # [name, start, end, parent index or -1, work size]
        self.counts: Counter = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.peak_mb: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, size])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def alloc_peak(self, metric: str):
        """Records under `metric` the tracemalloc peak of the block above the level at entry.

        A tracked call nested in another is left to the outer one, whose peak covers it.
        """
        if tracemalloc.is_tracing():
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_mb[metric] = max(self.peak_mb[metric], peak / MB)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, name, size=None, alloc=None, observe=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            work = size(args, kwargs) if size else 0
            with self.span(name, work):
                with self.alloc_peak(alloc) if alloc and self.track_alloc else contextlib.nullcontext():
                    result = fn(*args, **kwargs)
            if observe:
                observe(result)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _criterion(self, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            counts["bounds.criterion_calls"] += 1
            if getattr(report, "precision_critical", False):
                counts["bounds.criterion_band"] += 1
            return report

        return wrapper

    def _timed_count(self, fn, name, timer):
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[timer] += clock() - start

        return wrapper

    def _cold_zeta(self, fn):
        """Spans only the first call per t: zeta is cached and criterion calls it every time."""
        seen: set = set()

        @wraps(fn)
        def wrapper(t):
            if t in seen:
                return fn(t)
            seen.add(t)
            with self.span("bounds.zeta"):
                return fn(t)

        return wrapper

    def _count_bridge(self, report):
        self.counts["multiplicative.bridge_checked"] += getattr(report, "checked", 0)

    # -- install ----------------------------------------------------------

    def _boundaries(self, rp):
        """(module, function name, wrapper factory) for every traced boundary."""
        out = [
            (rp.primes, "build_table", lambda fn: self._spanned(
                fn, "primes.build_table", size=_sizer(fn, _limit), alloc="primes.peak_alloc_mb")),
            (rp.primes, "theta", lambda fn: self._counted(fn, "primes.theta_calls")),
            (rp.primes, "nth_prime", lambda fn: self._counted(fn, "primes.nth_prime_calls")),
            (rp.bounds, "find_crossover_index", lambda fn: self._spanned(fn, "bounds.find_crossover_index")),
            (rp.bounds, "criterion", self._criterion),
            (rp.bounds, "zeta", self._cold_zeta),
            (rp.primorial, "cursor_advance", lambda fn: self._timed_count(
                fn, "primorial.cursor_steps", "primorial.cursor_s")),
            (rp.primorial, "champion_scan", lambda fn: self._spanned(
                fn, "primorial.champion_scan", size=_sizer(fn, _limit))),
            (rp.multiplicative, "smallest_prime_factors", lambda fn: self._spanned(
                fn, "multiplicative.smallest_prime_factors")),
            (rp.multiplicative, "verify_sigma_le_psi", lambda fn: self._spanned(
                fn, "multiplicative.verify_sigma_le_psi", size=_sizer(fn, _limit),
                observe=self._count_bridge)),
            (rp.robin, "robin_scan", lambda fn: self._spanned(
                fn, "robin.robin_scan", size=_sizer(fn, lambda a: a["stop"] - a["start"] + 1),
                alloc="robin.peak_alloc_mb")),
            (rp.robin, "verify_tfree_robin", lambda fn: self._spanned(fn, "robin.verify_tfree_robin")),
            (rp.cli, "main", lambda fn: self._spanned(fn, "cli.main")),
            (rp.tabular, "rows_to_csv", lambda fn: self._spanned(fn, "tabular.emit")),
            (rp.tabular, "rows_to_json", lambda fn: self._spanned(fn, "tabular.emit")),
        ]
        for fn_name, suite in SUITES.items():
            out.append((rp.bounds, fn_name, lambda fn, suite=suite: self._spanned(fn, f"bounds.suite.{suite}")))
        return out

    def install(self, package) -> None:
        """Wraps every boundary of `package` (robinpsi, with robinpsi.cli imported).

        A boundary the package no longer has is skipped, and its metrics read 0.
        """
        prefix = package.__name__ + "."
        modules = [
            m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(prefix)
        ]
        for module, fn_name, make in self._boundaries(package):
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            wrapper = make(original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._patch(vars(m), key, wrapper)
        if hasattr(package.bounds, "mpmath"):
            self._patch(vars(package.bounds), "mpmath", _CountingMpmath(package.bounds.mpmath, self.counts))

    def _patch(self, namespace: dict, key: str, value) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    # -- metrics ----------------------------------------------------------

    def _total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def _sizes(self, name: str) -> list[int]:
        return [s[4] for s in self.spans if s[0] == name]

    def _self_time(self, name: str) -> float:
        """Duration of every `name` span minus the time its child spans cover."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans) if s[0] == name)

    def metrics(self) -> dict[str, float]:
        limits = self._sizes("primes.build_table")
        champion_s = self._total("primorial.champion_scan")
        bridge_s = self._total("multiplicative.verify_sigma_le_psi")
        scan_s = self._total("robin.robin_scan")
        out = {
            "primes.build_table_s": self._total("primes.build_table"),
            "primes.build_table_calls": len(limits),
            "primes.sieve_limit": max(limits, default=0),
            "primes.regrow_waste": 1.0 - max(limits) / sum(limits) if limits else 0.0,
            "primes.peak_alloc_mb": self.peak_mb["primes.peak_alloc_mb"],
            "primes.theta_calls": self.counts["primes.theta_calls"],
            "primes.nth_prime_calls": self.counts["primes.nth_prime_calls"],
            "bounds.crossover_s": self._total("bounds.find_crossover_index"),
            "bounds.criterion_calls": self.counts["bounds.criterion_calls"],
            "bounds.criterion_band": self.counts["bounds.criterion_band"],
            "bounds.zeta_s": self._total("bounds.zeta"),
        }
        for suite in SUITES.values():
            out[f"bounds.suite.{suite}_s"] = self._total(f"bounds.suite.{suite}")
        out.update({
            "bounds.rechecked": self.counts["bounds.rechecked"],
            "primorial.cursor_s": self.seconds["primorial.cursor_s"],
            "primorial.cursor_steps": self.counts["primorial.cursor_steps"],
            "primorial.champion_s": champion_s,
            "primorial.champion_n_per_s": _rate(self._sizes("primorial.champion_scan"), champion_s),
            "multiplicative.spf_s": self._total("multiplicative.smallest_prime_factors"),
            "multiplicative.bridge_s": bridge_s,
            "multiplicative.bridge_checked": self.counts["multiplicative.bridge_checked"],
            "multiplicative.bridge_n_per_s": _rate(
                self._sizes("multiplicative.verify_sigma_le_psi"), bridge_s),
            "robin.scan_s": scan_s,
            "robin.scan_n_per_s": _rate(self._sizes("robin.robin_scan"), scan_s),
            "robin.peak_alloc_mb": self.peak_mb["robin.peak_alloc_mb"],
            "robin.tfree_s": self._total("robin.verify_tfree_robin"),
            "cli.self_s": self._self_time("cli.main"),
            "tabular.emit_s": self._total("tabular.emit"),
        })
        return out


def _rate(sizes: list[int], seconds: float) -> float:
    return sum(sizes) / seconds if seconds > 0 else 0.0
