"""Per-integer Robin verdicts, segmented range scans, and the t-free pipeline.

The inequality under test is sigma(n) < e^gamma * n * log log n for n >= 5041.
A scan takes its range window by window from `multiplicative.sweep`, never
by per-integer factorization: the kernel sums log(sigma(p^e)/p^e) over the
marked prime powers of each n, the window's gap bounds what its larger
prime factors add, and `_window_violators` screens the sum of the two, an
upper bound on log(sigma(n)/n), and decides each n the screen keeps from
its exact sigma.  The t-free pipeline checks
the bridge (c) first, which needs no sweep and bounds the range before any
sieving, then scans for (a), once per table and scan limit for every t.
A verdict's float margin within n * 1e-9 of zero, and R_t(N_n1) within 1e-9
of e^gamma, are re-decided at 60 significant digits by the same formula over
m = mpmath (_threshold, bounds.primorial_ratio) before being trusted.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .bounds import EXP_GAMMA, PRECISION_BAND, const, exact_log, find_crossover_index
from .bounds import primorial_ratio
from .multiplicative import (
    BridgeReport,
    factorize,
    is_t_free,
    sigma,
    sweep,
    verify_sigma_le_psi,
)
from .primes import PrimeTable, at_60_digits, mpmath  # noqa: F401, the handle bounds holds
from . import primorial

RELATIVE_BAND = 1e-9
_FLOOR_BLOCK = 1024  # n per floor when the window's one floor clears nothing


@dataclass(frozen=True)
class RobinVerdict:
    """sigma(n) against the threshold e^gamma * n * log log n."""

    n: int
    sigma: int
    threshold: float
    holds: bool
    margin: float
    precision_critical: bool


def _threshold(m, n):
    """e^gamma n log log n."""
    return const(m, EXP_GAMMA) * n * m.log(m.log(n))


def _verdict_from_sigma(n: int, sig: int) -> RobinVerdict:
    threshold = _threshold(math, n)
    margin = threshold - sig
    critical = abs(margin) < n * RELATIVE_BAND
    if critical:
        margin = at_60_digits(lambda m, x, s: _threshold(m, x) - s, lambda: (n, sig))
    return RobinVerdict(
        n=n,
        sigma=sig,
        threshold=threshold,
        holds=margin > 0.0,
        margin=margin,
        precision_critical=critical,
    )


def _sigma_weight(p, k: int) -> np.ndarray:
    """log(sigma(p^k)/p^k) - log(sigma(p^(k-1))/p^(k-1)) = log1p(1/(p + ... + p^k))
    of each p, in float64, within 8 ulp for p^k < 2^53."""
    q = np.asarray(p, dtype=np.float64)
    return np.log1p((q - 1.0) / (q * (q**k - 1.0)))


def _sigma_total(p) -> np.ndarray:
    """log(p/(p-1)), the limit of log(sigma(p^k)/p^k) as k grows, which the
    sum of _sigma_weight(p, k) over k = 1..e stays below for every e; it
    falls as p grows."""
    return -np.log1p(-1.0 / np.asarray(p, dtype=np.float64))


def _window_violators(lo: int, upper: np.ndarray, table: PrimeTable) -> list[RobinVerdict]:
    """The violators among the n >= 3 of the window from lo, ascending, upper
    holding an upper bound on log(sigma(n)/n) of each n in it, within 1e-13.

    With c = e^gamma log log n, a violator has sigma(n) >= c n, and an n the
    verdict puts in its band has sigma(n) > (c - RELATIVE_BAND) n.  So an n
    with exp(upper) < c - 2 RELATIVE_BAND is cleared: sigma(n) < c n by more
    than RELATIVE_BAND n, past every float error here (below 1e-13 c n).
    The window's least c, at its first n, clears most n at once, in log
    space.  Where it clears none, as in a sweep's first window, where log
    log n climbs fastest, the least c of each block of _FLOOR_BLOCK n does
    instead.  Each n left is screened with its own c, and each n still left
    is decided from its exact sigma, factorized with primes from table."""
    first = max(lo, 3)  # the threshold needs log log n > 0
    upper = upper[first - lo :]
    least = EXP_GAMMA * math.log(math.log(first)) - 2.0 * RELATIVE_BAND
    near = np.flatnonzero(upper >= (math.log(least) if least > 0.0 else -math.inf))
    if near.size == upper.size and least > 0.0:
        floor = np.arange(first, first + upper.size, _FLOOR_BLOCK, dtype=np.float64)
        floor = np.log(EXP_GAMMA * np.log(np.log(floor)) - 2.0 * RELATIVE_BAND)
        near = np.flatnonzero(upper >= np.repeat(floor, _FLOOR_BLOCK)[: upper.size])
    # c - 2 RELATIVE_BAND of each n left, formed in place
    line = (first + near).astype(np.float64)  # exact below 2^53
    line = np.log(np.log(line, out=line), out=line)
    line *= EXP_GAMMA
    line -= 2.0 * RELATIVE_BAND
    near = near[np.exp(upper[near]) >= line]
    violators = []
    for n in (first + near).tolist():
        verdict = _verdict_from_sigma(n, sigma(factorize(n, table)))
        if not verdict.holds:
            violators.append(verdict)
    return violators


def robin_scan(start: int, stop: int, table: PrimeTable) -> list[RobinVerdict]:
    """Every violator of the inequality in [start, stop], ascending."""
    if start < 3:
        raise ValueError(f"scan domain starts at 3, got {start}")
    if stop < start:
        raise ValueError(f"empty scan range [{start}, {stop}]")
    out: list[RobinVerdict] = []
    for lo, acc, gap in sweep(start, stop, table, _sigma_weight, _sigma_total):
        acc += gap  # the prime factors the kernel leaves unmarked
        out += _window_violators(lo, acc, table)
    return out


@dataclass(frozen=True)
class TfreeTheoremReport:
    """Desk-scale evidence for the t-free Robin statement, three branches:

    (a) every t-free violator found in [3, scan_limit] is <= 5040, the range
        settled by exhaustive verification;
    (b) the crossover index exists and R_t at that primorial is < e^gamma,
        the float ratio (within ~1e-12) re-decided at 60 digits when it lies
        within PRECISION_BAND of e^gamma;
    (c) sigma(n) <= psi_t(n) exactly on every t-free n in range.
    """

    t: int
    scan_limit: int
    passed: bool
    witness: int | None
    violators_found: int
    max_violator: int | None
    tfree_violators_above_5040: tuple[int, ...]
    crossover_index: int
    ratio_at_crossover: float
    bridge: BridgeReport


# Branch (a)'s violators per table and scan limit: the scan does not depend on t
_SCANS: "weakref.WeakKeyDictionary[PrimeTable, dict[int, tuple[RobinVerdict, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def verify_tfree_robin(t: int, scan_limit: int, table: PrimeTable) -> TfreeTheoremReport:
    """Run all three branches: (c) first, whose budget check raises before
    any sieving, then (a), a scan of [3, scan_limit] with primes from table,
    kept with the table for the next t, then (b); any falsification is
    reported with a witness integer rather than raised."""
    if t not in (6, 7):
        raise ValueError(f"the pipeline is stated for t in {{6, 7}}, got {t}")
    if scan_limit < 5041:
        raise ValueError(f"scan limit must reach past 5040, got {scan_limit}")
    bridge = verify_sigma_le_psi(scan_limit, t)
    branch_c = bridge.violation is None

    kept = _SCANS.setdefault(table, {})
    if scan_limit not in kept:
        kept[scan_limit] = tuple(robin_scan(3, scan_limit, table))
    violators = kept[scan_limit]
    above = tuple(
        v.n for v in violators if v.n > 5040 and is_t_free(factorize(v.n, table), t)
    )
    branch_a = not above

    n1 = find_crossover_index(t, table)
    log_ratio = primorial.log_psi_ratio_prefix(table, t, n1)[n1]
    ratio = primorial_ratio(math, log_ratio, table.theta_upto(n1)[n1])
    margin = EXP_GAMMA - ratio
    if abs(margin) < PRECISION_BAND:
        margin = at_60_digits(
            lambda m, lr, theta: const(m, EXP_GAMMA) - primorial_ratio(m, lr, theta),
            lambda: (exact_log(table, "psi_ratio", n1, t), exact_log(table, "primorial", n1)),
        )
    branch_b = margin > 0.0

    witness: int | None = None
    if above:
        witness = above[0]
    elif not branch_c:
        witness = bridge.violation
    return TfreeTheoremReport(
        t=t,
        scan_limit=scan_limit,
        passed=branch_a and branch_b and branch_c,
        witness=witness,
        violators_found=len(violators),
        max_violator=max((v.n for v in violators), default=None),
        tfree_violators_above_5040=above,
        crossover_index=n1,
        ratio_at_crossover=ratio,
        bridge=bridge,
    )
