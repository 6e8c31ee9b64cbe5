"""Per-integer Robin verdicts, segmented range scans, and the t-free pipeline.

The inequality under test is sigma(n) < e^gamma * n * log log n for n >= 5041.
A scan takes its range window by window from `multiplicative.sweep`, never
by per-integer factorization: `_window_sigma` multiplies each window's
sigma up in int64 from the peeling kernel's events, and `_window_violators`
screens it and decides what the screen keeps.  The t-free pipeline checks
the bridge (c) first, which needs no sweep and bounds the range before any
sieving, then scans for (a).
Any verdict whose float margin is within n * 1e-9 of zero is recomputed at 60
significant digits before being trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import EXP_GAMMA, PRECISION_BAND, find_crossover_index, psi_ratio_mp
from .multiplicative import (
    BridgeReport,
    factorize,
    is_t_free,
    sweep,
    verify_sigma_le_psi,
)
from .primes import PrimeTable, mpmath
from . import primorial

RELATIVE_BAND = 1e-9

VERDICT_FIELDS = ("n", "sigma", "threshold", "margin")


@dataclass(frozen=True)
class RobinVerdict:
    """sigma(n) against the threshold e^gamma * n * log log n."""

    n: int
    sigma: int
    threshold: float
    holds: bool
    margin: float
    precision_critical: bool


def _verdict_from_sigma(n: int, sig: int) -> RobinVerdict:
    threshold = EXP_GAMMA * n * math.log(math.log(n))
    margin = threshold - sig
    critical = abs(margin) < n * RELATIVE_BAND
    if critical:
        with mpmath.workdps(60):
            hp = mpmath.exp(mpmath.euler) * n * mpmath.log(mpmath.log(n)) - sig
            margin = float(hp)
    return RobinVerdict(
        n=n,
        sigma=sig,
        threshold=threshold,
        holds=margin > 0.0,
        margin=margin,
        precision_critical=critical,
    )


def _window_sigma(lo: int, hi: int, events) -> np.ndarray:
    """int64 sigma(n) of each n in the window [lo, hi), exact up to 2^50,
    from the window's kernel events.

    The k-th strided event of a base prime p turns the factor sigma(p^(k-1))
    of each n it reaches into sigma(p^k), Python ints, by an exact division
    and a product; array events multiply in with np.multiply.at, so an n hit
    by several batched primes takes each factor in turn."""
    sig = np.ones(hi - lo, dtype=np.int64)
    for p, where, exp in events:
        if isinstance(p, int):
            if exp == 1:
                sig[where] *= p + 1
                continue
            # sigma(p^k) = p sigma(p^(k-1)) + 1, and both factors divide sigma(n) < 2^53
            below = (p**exp - 1) // (p - 1)
            view = sig[where]
            view //= below
            view *= below * p + 1
            continue
        # sigma(p^e) = (...(p + 1) p + 1 ...) p + 1 for batched primes and
        # cofactors; every step stays below sigma(n) < 2^53
        local = p + 1
        deep = np.flatnonzero(exp >= 2)
        k = 2
        while deep.size:
            local[deep] = local[deep] * p[deep] + 1
            k += 1
            deep = deep[exp[deep] >= k]
        np.multiply.at(sig, where, local)
    return sig


def _window_violators(lo: int, hi: int, sig: np.ndarray) -> list[RobinVerdict]:
    """The violators among the n >= 3 of the window [lo, hi), ascending,
    sig holding sigma(n) of each n in it."""
    first = max(lo, 3)  # the threshold needs log log n > 0
    sig = sig[first - lo :]
    # Every n here has log log n >= log log first.  So an n with sigma(n) < c n
    # has a true margin above 2 RELATIVE_BAND n, and its float margin, within
    # 1e-14 n of that, is never flagged: only the other n take the formula.
    c = EXP_GAMMA * math.log(math.log(first)) - 2.0 * RELATIVE_BAND
    # As sigma(n) > n, a c <= 1 clears nothing, and the window stays whole.
    ns = np.arange(first, hi, dtype=np.float64)  # exact below 2^53
    keep = None
    if c > 1.0:
        keep = np.flatnonzero(sig >= c * ns)
        sig = sig[keep]  # frees the window's sigma before ns is gathered
        ns = ns[keep]
    # margins = e^gamma * n * log log n - sigma(n), formed in place in that
    # operation order, so no temporary outlives its step
    margins = EXP_GAMMA * ns
    loglog = np.log(ns)
    margins *= np.log(loglog, out=loglog)
    del loglog
    margins -= sig
    flagged = margins <= 0.0
    ns *= RELATIVE_BAND
    flagged |= np.abs(margins, out=margins) < ns
    violators = []
    for i in np.flatnonzero(flagged).tolist():
        n = first + (i if keep is None else int(keep[i]))
        verdict = _verdict_from_sigma(n, int(sig[i]))
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
    for lo, hi, events in sweep(start, stop, table):
        out += _window_violators(lo, hi, _window_sigma(lo, hi, events))
    return out


def violators_to_rows(verdicts: list[RobinVerdict]) -> list[dict[str, object]]:
    return [
        {"n": v.n, "sigma": v.sigma, "threshold": v.threshold, "margin": v.margin}
        for v in verdicts
    ]


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


def _ratio_margin_mp(t: int, n: int, table: PrimeTable) -> float:
    """e^gamma - R_t(N_n) at 60 digits, R_t(N_n) = (psi_t(N_n)/N_n) / log log N_n."""
    with mpmath.workdps(60):
        ratio, lln = psi_ratio_mp(t, n, table)
        return float(mpmath.exp(mpmath.euler) - ratio / lln)


def verify_tfree_robin(t: int, scan_limit: int, table: PrimeTable) -> TfreeTheoremReport:
    """Run all three branches: (c) first, whose budget check raises before
    any sieving, then (a), a scan of [3, scan_limit] with primes from table,
    then (b); any falsification is reported with a witness integer rather
    than raised."""
    if t not in (6, 7):
        raise ValueError(f"the pipeline is stated for t in {{6, 7}}, got {t}")
    if scan_limit < 5041:
        raise ValueError(f"scan limit must reach past 5040, got {scan_limit}")
    bridge = verify_sigma_le_psi(scan_limit, t)
    branch_c = bridge.violation is None

    violators = robin_scan(3, scan_limit, table)
    above = tuple(
        v.n for v in violators if v.n > 5040 and is_t_free(factorize(v.n, table), t)
    )
    branch_a = not above

    n1 = find_crossover_index(t, table)
    log_ratio = primorial.log_psi_ratio_prefix(table, t, n1)[n1]
    ratio = math.exp(log_ratio) / math.log(table.theta_prefix[n1])
    margin = EXP_GAMMA - ratio
    if abs(margin) < PRECISION_BAND:
        margin = _ratio_margin_mp(t, n1, table)
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
