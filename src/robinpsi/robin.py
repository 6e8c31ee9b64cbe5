"""Per-integer Robin verdicts, segmented range scans, and the t-free pipeline.

The inequality under test is sigma(n) < e^gamma * n * log log n for n >= 5041.
sigma over a scan range is an int64 fold of the prime-power peeling kernel,
run by the window loop `multiplicative.sweep`, never per-integer
factorization; the t-free pipeline hands that loop the sigma fold and the
bridge fold together, so branches (a) and (c) share one kernel pass.  Any
verdict whose float margin is within n * 1e-9 of zero is recomputed at 60
significant digits before being trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import EXP_GAMMA, PRECISION_BAND, find_crossover_index, psi_ratio_mp
from .multiplicative import (
    MAX_SCAN_STOP,
    BridgeFold,
    BridgeReport,
    factorize,
    is_t_free,
    sweep,
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


def _sigma_powers(p: int) -> np.ndarray:
    """sigma(p^e) for e = 0, 1, ... while p^e <= 2^50, as int64."""
    out = [1]
    pe = p
    while pe <= MAX_SCAN_STOP:
        out.append(out[-1] + pe)
        pe *= p
    return np.array(out, dtype=np.int64)


class _RobinFold:
    """The sweep fold of the Robin scans: int64 sigma(n) of each window, exact
    up to 2^50, then the violators among its n >= 3, ascending."""

    def __init__(self) -> None:
        self.violators: list[RobinVerdict] = []
        self.local: dict[int, np.ndarray] = {}  # p -> sigma(p^e) for p^e <= 2^50, once per sweep

    def open(self, lo: int, hi: int) -> None:
        self.sig = np.ones(hi - lo, dtype=np.int64)

    def add(self, p: int | np.ndarray, where: slice | np.ndarray, exp: np.ndarray) -> None:
        if isinstance(p, int):
            if p not in self.local:
                self.local[p] = _sigma_powers(p)
            self.sig[where] *= self.local[p][exp]
            return
        # sigma(p^e) = (...(p + 1) p + 1 ...) p + 1 for batched primes and
        # cofactors; every step stays below sigma(n) < 2^53
        local = p + 1
        deep = np.flatnonzero(exp >= 2)
        k = 2
        while deep.size:
            local[deep] = local[deep] * p[deep] + 1
            k += 1
            deep = deep[exp[deep] >= k]
        self.sig[where] *= local

    def close(self, lo: int, hi: int) -> bool:
        first = max(lo, 3)  # the threshold needs log log n > 0
        sig = self.sig[first - lo :]
        del self.sig
        # margins = e^gamma * n * log log n - sigma(n), formed in place in that
        # operation order, so no full-window temporary outlives its step
        ns = np.arange(first, hi, dtype=np.float64)
        margins = EXP_GAMMA * ns
        loglog = np.log(ns)
        margins *= np.log(loglog, out=loglog)
        del loglog
        margins -= sig
        flagged = margins <= 0.0
        ns *= RELATIVE_BAND
        flagged |= np.abs(margins, out=margins) < ns
        for i in np.flatnonzero(flagged).tolist():
            verdict = _verdict_from_sigma(first + i, int(sig[i]))
            if not verdict.holds:
                self.violators.append(verdict)
        return False


def robin_scan(start: int, stop: int, table: PrimeTable) -> list[RobinVerdict]:
    """Every violator of the inequality in [start, stop], ascending."""
    if start < 3:
        raise ValueError(f"scan domain starts at 3, got {start}")
    if stop < start:
        raise ValueError(f"empty scan range [{start}, {stop}]")
    robin = _RobinFold()
    sweep(start, stop, [robin], table)
    return robin.violators


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
    """Run all three branches, (a) and (c) in one sweep over [1, scan_limit]
    with primes from table; any falsification is reported with a witness
    integer rather than raised."""
    if t not in (6, 7):
        raise ValueError(f"the pipeline is stated for t in {{6, 7}}, got {t}")
    if scan_limit < 5041:
        raise ValueError(f"scan limit must reach past 5040, got {scan_limit}")
    bridge_fold, robin = BridgeFold(t), _RobinFold()
    sweep(1, scan_limit, [bridge_fold, robin], table)  # one kernel pass for (a) and (c)
    violators = robin.violators
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

    bridge = bridge_fold.report(scan_limit)
    branch_c = bridge.violation is None

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
