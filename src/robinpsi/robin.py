"""Per-integer Robin verdicts, segmented range scans, and the t-free pipeline.

The inequality under test is sigma(n) < e^gamma * n * log log n for n >= 5041.
sigma over a scan range is folded from the prime-power peeling kernel on
fixed-size segments, never from per-integer factorization.  Any verdict whose
float margin is within n * 1e-9 of zero is recomputed at 60 significant
digits before being trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .bounds import EXP_GAMMA, find_crossover_index
from .errors import CoverageError
from .multiplicative import (
    DEFAULT_MAX_SPAN,
    SEGMENT_SIZE,
    BridgeReport,
    check_sweep,
    factorize,
    is_t_free,
    prime_power_events,
    sigma,
    verify_sigma_le_psi,
)
from .primes import PrimeTable
from . import primorial
from .tabular import rows_to_csv, rows_to_json

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


def robin_verdict(n: int, table: PrimeTable) -> RobinVerdict:
    """Exact sigma(n) against the threshold; defined for n >= 3 (log log n > 0)."""
    if n < 3:
        raise ValueError(f"threshold needs log log n > 0, so n >= 3; got {n}")
    return _verdict_from_sigma(n, sigma(factorize(n, table)))


def _sigma_segment(lo: int, hi: int, primes: list[int]) -> np.ndarray:
    """Exact sigma(n) for lo <= n < hi as int64, folded from the peeling kernel."""
    sig = np.ones(hi - lo, dtype=np.int64)
    for p, off, exp in prime_power_events(lo, hi, primes):
        if np.ndim(p):  # cofactor primes, exponent 1
            sig[off] *= p + 1
        else:
            local = [(p ** (e + 1) - 1) // (p - 1) for e in range(int(exp.max()) + 1)]
            sig[off] *= np.array(local, dtype=np.int64)[exp]
    return sig


def robin_scan(
    start: int, stop: int, table: PrimeTable, max_span: int = DEFAULT_MAX_SPAN
) -> list[RobinVerdict]:
    """Every violator of the inequality in [start, stop], ascending."""
    if start < 3:
        raise ValueError(f"scan domain starts at 3, got {start}")
    if stop < start:
        raise ValueError(f"empty scan range [{start}, {stop}]")
    check_sweep(start, stop, max_span)
    root = math.isqrt(stop)
    if table.limit < root:
        raise CoverageError(
            f"sigma sieve needs primes to sqrt({stop}) = {root}, "
            f"table stops at {table.limit}; enlarge the sieve"
        )
    out: list[RobinVerdict] = []
    for lo in range(start, stop + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, stop + 1)
        sig = _sigma_segment(lo, hi, table.primes)
        ns = np.arange(lo, hi, dtype=np.float64)
        thresholds = EXP_GAMMA * ns * np.log(np.log(ns))
        margins = thresholds - sig
        flagged = np.flatnonzero((margins <= 0.0) | (np.abs(margins) < ns * RELATIVE_BAND))
        for i in flagged.tolist():
            verdict = _verdict_from_sigma(lo + i, int(sig[i]))
            if not verdict.holds:
                out.append(verdict)
        del sig, ns, thresholds, margins, flagged  # free this window before the next
    return out


def violators_to_rows(verdicts: list[RobinVerdict]) -> list[dict[str, object]]:
    return [
        {"n": v.n, "sigma": v.sigma, "threshold": v.threshold, "margin": v.margin}
        for v in verdicts
    ]


def violators_to_csv(verdicts: list[RobinVerdict]) -> str:
    return rows_to_csv(violators_to_rows(verdicts), VERDICT_FIELDS)


def violators_to_json(verdicts: list[RobinVerdict]) -> str:
    return rows_to_json(violators_to_rows(verdicts), VERDICT_FIELDS)


@dataclass(frozen=True)
class TfreeTheoremReport:
    """Desk-scale evidence for the t-free Robin statement, three branches:

    (a) every t-free violator found in [3, scan_limit] is <= 5040, the range
        settled by exhaustive verification;
    (b) the crossover index exists and R_t at that primorial is < e^gamma;
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


def verify_tfree_robin(t: int, scan_limit: int, table: PrimeTable) -> TfreeTheoremReport:
    """Run all three branches; any falsification is reported with a witness
    integer rather than raised."""
    if t not in (6, 7):
        raise ValueError(f"the pipeline is stated for t in {{6, 7}}, got {t}")
    if scan_limit < 5041:
        raise ValueError(f"scan limit must reach past 5040, got {scan_limit}")
    violators = robin_scan(3, scan_limit, table)
    above = tuple(
        v.n for v in violators if v.n > 5040 and is_t_free(factorize(v.n, table), t)
    )
    branch_a = not above

    n1 = find_crossover_index(t, table)
    log_ratio = primorial.log_psi_ratio_prefix(table, t, n1)[n1]
    ratio = math.exp(log_ratio) / math.log(table.theta_prefix[n1])
    branch_b = ratio < EXP_GAMMA

    bridge = verify_sigma_le_psi(scan_limit, t)
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
