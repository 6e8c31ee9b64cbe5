"""Primorial cursor in log space, exact champion scans, and the reduction step.

N_n = p_1 p_2 ... p_n.  The cursor carries log N_n and log(psi_t(N_n)/N_n)
for a fixed set of exponents t, each with its own Neumaier compensation term
so a 10^4-step march keeps ~1e-12 absolute accuracy.  Champion scans and the
reduction check screen whole ranges with a float log psi_t(n)/n from the
peeling kernel, then re-decide every n within LOG_RATIO_BAND of the line
exactly (champions) or at 60 digits (reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .errors import CoverageError
from .multiplicative import SEGMENT_SIZE, factorize, prime_power_events, psi_over_n
from .primes import PrimeTable, build_table

# log psi_t(n)/n is a sum over the at most 15 distinct primes of n < 2^63 of
# terms below log 2, each within a few ulp, and the sum stays below 2: its float
# error is under 1e-14, as is that of log log log n.  Anything a screen puts
# within this band of the line is re-decided, never trusted.
LOG_RATIO_BAND = 1e-9


@dataclass(frozen=True)
class PrimorialPoint:
    """State at primorial index n: p_n, log N_n, per-t log psi ratios.

    p is 1 at n = 0 (empty product).  The *_sum / *_carry pairs are the
    compensated-summation state; read log_N and log_psi_ratio instead.
    """

    n: int
    p: int
    log_N_sum: float = field(repr=False, default=0.0)
    log_N_carry: float = field(repr=False, default=0.0)
    ratio_sums: dict[int, float] = field(repr=False, default_factory=dict)
    ratio_carries: dict[int, float] = field(repr=False, default_factory=dict)

    @property
    def log_N(self) -> float:
        return self.log_N_sum + self.log_N_carry

    @property
    def log_psi_ratio(self) -> dict[int, float]:
        return {t: s + self.ratio_carries[t] for t, s in self.ratio_sums.items()}


def start_point(ts: tuple[int, ...] | set[int] = ()) -> PrimorialPoint:
    """Cursor at n = 0 tracking log(psi_t/N) for each t in ts."""
    for t in ts:
        if t < 2:
            raise ValueError(f"tracked exponents must be >= 2, got {t}")
    zeros = {t: 0.0 for t in ts}
    return PrimorialPoint(n=0, p=1, ratio_sums=dict(zeros), ratio_carries=dict(zeros))


def _neumaier(total: float, carry: float, x: float) -> tuple[float, float]:
    s = total + x
    if abs(total) >= abs(x):
        carry += (total - s) + x
    else:
        carry += (x - s) + total
    return s, carry


def cursor_advance(
    point: PrimorialPoint, table: PrimeTable, ts: tuple[int, ...] | set[int] = ()
) -> PrimorialPoint:
    """Advance to index n + 1, extending every tracked accumulator.

    New exponents in ts can only be added at n = 0; afterwards the tracked
    set is fixed (a late addition would silently miss earlier factors).
    """
    tracked = set(point.ratio_sums)
    extra = set(ts) - tracked
    if extra:
        if point.n > 0:
            raise ValueError(f"cannot start tracking {sorted(extra)} at index {point.n}")
        for t in extra:
            if t < 2:
                raise ValueError(f"tracked exponents must be >= 2, got {t}")
        tracked |= extra
    k = point.n + 1
    if k > len(table.primes):
        raise CoverageError(
            f"table holds {len(table.primes)} primes, cannot advance to index {k}; enlarge the sieve"
        )
    p = table.primes[k - 1]
    log_n_sum, log_n_carry = _neumaier(point.log_N_sum, point.log_N_carry, math.log(p))
    sums: dict[int, float] = {}
    carries: dict[int, float] = {}
    for t in tracked:
        s0 = point.ratio_sums.get(t, 0.0)
        c0 = point.ratio_carries.get(t, 0.0)
        # log(1 + 1/p + ... + 1/p^(t-1)) = log1p((p^(t-1) - 1) / (p^(t-1) (p - 1)))
        q = p ** (t - 1)
        x = math.log1p((q - 1) / (q * (p - 1)))
        sums[t], carries[t] = _neumaier(s0, c0, x)
    return PrimorialPoint(
        n=k,
        p=p,
        log_N_sum=log_n_sum,
        log_N_carry=log_n_carry,
        ratio_sums=sums,
        ratio_carries=carries,
    )


def robin_ratio(point: PrimorialPoint, t: int) -> float:
    """R_t(N_n) = psi_t(N_n) / (N_n log log N_n); needs n >= 2 so the log is positive."""
    if point.n < 2:
        raise ValueError(f"normalized ratio needs n >= 2, got n = {point.n}")
    if t not in point.ratio_sums:
        raise KeyError(f"exponent {t} is not tracked by this cursor")
    ratio = point.ratio_sums[t] + point.ratio_carries[t]
    return math.exp(ratio) / math.log(point.log_N)


def _log_psi_ratios(lo: int, hi: int, t: int, primes: list[int]) -> np.ndarray:
    """log(psi_t(n)/n) for lo <= n < hi in float64: the sum over primes p | n
    of log(1 + 1/p + ... + 1/p^(t-1)) = log1p((1 - p^(1-t)) / (p - 1))."""
    out = np.zeros(hi - lo)
    for p, off, _ in prime_power_events(lo, hi, primes):
        q = np.asarray(p, dtype=np.float64)
        out[off] += np.log1p((1.0 - q ** (1 - t)) / (q - 1.0))
    return out


def champion_scan(limit: int, t: int, mode: str = "strict") -> list[int]:
    """Left-to-right maxima of m -> psi_t(m)/m on [1, limit], decided exactly.

    strict: a champion must exceed every earlier value; weak: ties count too.
    A float screen keeps every m within LOG_RATIO_BAND of the maximum so far
    in its window, which includes every m attaining the exact maximum so far;
    each is compared as an exact rational against the last champion.
    """
    if limit < 1:
        raise ValueError(f"scan needs limit >= 1, got {limit}")
    if t < 2:
        raise ValueError(f"scan needs t >= 2, got {t}")
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")
    strict = mode == "strict"
    table = build_table(math.isqrt(limit) + 1)
    out: list[int] = []
    best = Fraction(0)
    for lo in range(1, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        logs = _log_psi_ratios(lo, hi, t, table.primes)
        near = logs >= np.maximum.accumulate(logs) - LOG_RATIO_BAND
        for i in np.flatnonzero(near).tolist():
            m = lo + i
            r = psi_over_n(factorize(m, table), t)
            if r > best or (r == best and not strict):
                out.append(m)
                best = r
    return out


def primorials_up_to(limit: int) -> list[int]:
    """[1, 2, 6, 30, ...] up to limit."""
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    # theta(p) >= p log(2) / 2 for every prime p, so the largest prime factor
    # of a primorial <= limit is at most 2 log2(limit), and by Bertrand the
    # next prime is at most twice that.
    primes = build_table(4 * limit.bit_length() + 4).primes
    out = [1]
    for p in primes:
        if out[-1] * p > limit:
            break
        out.append(out[-1] * p)
    return out


def reduction_check(limit: int, t: int) -> bool:
    """True iff R_t(m) < R_t(N_k) for every non-primorial m in [6, limit],
    where N_k is the largest primorial <= m and R_t(m) = psi_t(m)/(m log log m).

    A float screen in log space clears every m below log R_t(N_k) by more
    than LOG_RATIO_BAND; the rest are re-decided at 60 digits from the exact
    rational psi_t(m)/m.
    """
    if limit < 6:
        raise ValueError(f"reduction check needs limit >= 6, got {limit}")
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    table = build_table(math.isqrt(limit) + 1)

    def log_r(lo: int, hi: int) -> np.ndarray:
        ns = np.arange(lo, hi, dtype=np.float64)
        return _log_psi_ratios(lo, hi, t, table.primes) - np.log(np.log(np.log(ns)))

    def ratio_60(m: int) -> mpmath.mpf:
        r = psi_over_n(factorize(m, table), t)
        with mpmath.workdps(60):
            return mpmath.mpf(r.numerator) / r.denominator / mpmath.log(mpmath.log(m))

    prims = primorials_up_to(limit)
    for n_k, n_next in zip(prims[2:], prims[3:] + [limit + 1]):
        line = log_r(n_k, n_k + 1)[0] - LOG_RATIO_BAND
        for lo in range(n_k + 1, n_next, SEGMENT_SIZE):
            hi = min(lo + SEGMENT_SIZE, n_next)
            for i in np.flatnonzero(log_r(lo, hi) >= line).tolist():
                if ratio_60(lo + i) >= ratio_60(n_k):
                    return False
    return True
