"""Explicit zeta values, partial Euler products, the crossover criterion,
and the bound suites behind the verification CLI.

The constant 1.1253 couples two explicit bounds.  The partial Euler product
satisfies prod_{p <= x} (1 - 1/p)^-1 <= e^gamma (log x + 1/log x) for x >= 2,
and for n >= 2263 (p_n >= 20000) the log-shift bound
log p_n < log log N_n + 0.1253 / log p_n lets log p_n be replaced by
log log N_n, turning the 1/log p_n slack into (1 + 0.1253)/log p_n.  The
resulting crossover criterion reads exp(2/p_n) * f(n) < zeta(t) with
f(n) = 1 + 1.1253 / (log p_n * log log N_n).

Each float formula, the criterion's left side less 1 and every bound's margin,
is written once over m = math or numpy: libm scalars where a value is printed
or decided, numpy over a whole range to screen it.  A screen states beta, a
bound on its distance to the libm value at each index, and libm runs only at
the indices that the estimate +- beta cannot decide.  criterion decides one
index from libm, re-deciding at 60 digits a margin within its own error bound
of zero; find_crossover_index bisects these certified decisions, as the left
side falls with n, and admissible_t scans them over t.  The four suites hand
their columns, one per t, to one sweep, _sweep: any |margin| below 1e-9 is
precision-critical and is re-derived at 60 significant digits, from products
of exact integers with one rounding per factor, kept per table and extended
from one recheck to the next, before it is trusted; a range without points
reports SKIPPED.  zeta(2) is pinned to its series' output rather than summed
on each run.
"""

from __future__ import annotations

import math
import random
import sys
import weakref
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import primorial
from .errors import CoverageError
from .primes import (
    PrimeTable,
    compensated_prefix,
    libm_map,
    mpmath,
    nth_prime_bound,
    require_primes,
)

# Compiled-in constants, 18 significant digits.
EULER_GAMMA = 0.577215664901532861
EXP_GAMMA = 1.78107241799019799

CRITERION_FLOOR = 2263  # least n with p_n >= 20000 (p_2263 = 20011)
LOG_SHIFT = 0.1253
MERTENS_SHIFT = 1.1253  # 1 + LOG_SHIFT, see module docstring
PRECISION_BAND = 1e-9
CONFIRM = 100  # indices past n1 that must satisfy the criterion too
MERTENS_CAP = 10**6  # largest x of the Mertens product sweep

_ZETA_TAIL_TARGET = 1e-15
_ZETA_CHUNK = 1 << 22


@dataclass(frozen=True)
class ZetaValue:
    """zeta(t) with a rigorous absolute error bound on the value field.

    excess holds zeta(t) - 1 summed directly, so it keeps full relative
    precision even when value rounds to 1.0 (t >= 53 in binary64); its own
    error is strictly smaller than abs_error_bound, which also covers the
    rounding of value = 1.0 + excess.
    """

    t: int
    value: float
    abs_error_bound: float
    excess: float


# What _zeta_series(2) returns, as float.hex.  Its 2.2e7 terms take about
# 0.2 s and 32 MB; no closed form has these bits (numpy's power, which the
# series sums, is not correctly rounded), and printed digits of `ratio --t 2`
# and the zeta tail suite depend on them.  A test re-runs the series.
_ZETA_2 = ZetaValue(
    t=2,
    value=float.fromhex("0x1.a51a6625307d4p+0"),
    abs_error_bound=float.fromhex("0x1.f4a3ef04b4024p-49"),
    excess=float.fromhex("0x1.4a34cc4a60fa7p-1"),
)


@lru_cache(maxsize=None)
def zeta(t: int) -> ZetaValue:
    """zeta(t) from _zeta_series(t); for t = 2, that series' pinned output."""
    return _ZETA_2 if t == 2 else _zeta_series(t)


def _zeta_series(t: int) -> ZetaValue:
    """zeta(t) by direct series with an integral-bracketed tail.

    sum_{n > M} n^-t lies between the integrals of u^-t over [M+1, inf) and
    [M, inf); the bracket midpoint is added to the partial sum and half the
    bracket width, below 1e-15 by choice of M, goes into the error bound.
    """
    if t < 2:
        raise ValueError(f"zeta series cutoff needs integer t >= 2, got {t}")
    m = max(16, math.ceil((0.5 / _ZETA_TAIL_TARGET) ** (1.0 / t)))
    parts = []
    lo = 2
    while lo <= m:
        hi = min(lo + _ZETA_CHUNK, m + 1)
        block = np.arange(lo, hi, dtype=np.float64)
        parts.append(float(np.power(block, -float(t), out=block).sum()))
        del block  # one chunk alive at a time
        lo = hi
    partial = math.fsum(parts)
    tail_hi = float(m) ** (1 - t) / (t - 1)
    tail_lo = float(m + 1) ** (1 - t) / (t - 1)
    excess = partial + 0.5 * (tail_hi + tail_lo)
    # pairwise chunk sums err within ~log2(chunk) units of roundoff of the sum;
    # the 1.0 + excess rounding adds up to half an ulp of the value itself
    err = (
        0.5 * (tail_hi - tail_lo)
        + 16.0 * sys.float_info.epsilon * excess
        + 0.5 * sys.float_info.epsilon * (1.0 + excess)
    )
    return ZetaValue(t=t, value=1.0 + excess, abs_error_bound=err, excess=excess)


def _lhs_excess(m, p, theta):
    """exp(2/p) * f - 1 = expm1(2/p) * (1 + c) + c, c = 1.1253 / (log p *
    log theta), from a prime p and theta = theta(p) = log N_n, with m = math
    for floats or m = numpy for arrays."""
    c = MERTENS_SHIFT / (m.log(p) * m.log(theta))
    return m.expm1(2.0 / p) * (1.0 + c) + c


def _criterion_lhs_at(n: int, table: PrimeTable) -> float:
    """exp(2/p_n) * f(n) - 1 from libm scalars."""
    require_primes(table, n)
    return _lhs_excess(math, int(table.primes[n - 1]), table.theta_prefix[n])


# |_criterion_lhs_at - exact left side less 1| <= _LHS_ERROR * _criterion_lhs_at
# for n >= 2, with libm within 1 ulp per call.  The compensated theta(p_n) is
# within 2 2^-52 of itself, so log theta is within 2 2^-52 + 1 ulp, under
# 4.5 2^-52 of itself as log theta >= log log 6 > 0.58; log p adds 1 ulp,
# 1.0 + 0.1253 lies 2u from 1.1253, and the product and quotient 2u, so c is
# within 8 2^-52; expm1(2/p) within 2.4 2^-52.  Every term is positive, so
# with the last three roundings the left side is within 13 2^-52; 64 allowed.
_LHS_ERROR = 2.0**-46


def _criterion_lhs_bound(x):
    """Upper bound on the left side less 1 at a prime x >= 41, floats or
    arrays: theta(x) at its lower bound x (1 - 1/log x)."""
    return _lhs_excess(np, x, x - x / np.log(x))


def _dusart_reach(x: float, k: int) -> float:
    """An upper bound on the k-th prime above x: k steps y -> y (1 + 1/(25
    log^2 y)) from y = max(x, 396738).  Dusart (2010): for y >= 396738 there
    is a prime in (y, y (1 + 1/(25 log^2 y))], so the k intervals hold k
    distinct primes above x.  The factor 1 + 2^-20 on each step's length
    absorbs its float rounding up to the largest float."""
    y = max(x, 396738.0)
    for _ in range(k):
        y *= 1.0 + (1.0 + 2.0**-20) / (25.0 * math.log(y) ** 2)
    return y


def crossover_reach(t: int) -> float:
    """Sieve limit covering index n1(t) + CONFIRM, with or without the search
    floor, and so for every t' <= t; math.inf once x overflows a float.

    Rosser and Schoenfeld (Illinois J. Math. 6, 1962): theta(x) > x (1 -
    1/log x) for x >= 41, pi(x) < 1.25506 x / log x for x > 1.  The left side
    falls as p and theta(p) grow, so every prime p >= x passes once
    _criterion_lhs_bound(x) is below zeta(t) - 1 by a relative 1e-9 that
    absorbs float rounding; then n1 <= pi(x) + 1.  x is bisected geometrically.
    The limit is the smaller of two bounds on p_{n1 + CONFIRM}: one from pi(x)
    and nth_prime_bound, and _dusart_reach(x, CONFIRM + 1), which also covers
    the floor, as p_2263 = 20011 lies below its start.
    """
    target = zeta(t).excess / (1.0 + 1e-9)
    lo, x = 41.0, sys.float_info.max
    if _criterion_lhs_bound(x) >= target:
        return math.inf
    for _ in range(64):
        mid = math.sqrt(lo) * math.sqrt(x)
        lo, x = (lo, mid) if _criterion_lhs_bound(mid) < target else (mid, x)
    pi_x = int(1.25506 * x / math.log(x)) + 1  # + 1 absorbs rounding below an integer
    by_count = nth_prime_bound(max(pi_x + 1, CRITERION_FLOOR) + CONFIRM)
    return min(by_count, math.ceil(_dusart_reach(x, CONFIRM + 1)))


@dataclass(frozen=True)
class CriterionReport:
    t: int
    n: int
    p_n: int
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    precision_critical: bool


def criterion(t: int, n: int, table: PrimeTable) -> CriterionReport:
    """Crossover test exp(2/p_n) * f(n) < zeta(t), reported with its margin.

    Both sides are reduced by 1 before subtraction (_criterion_lhs_at on the
    left, the excess field on the right), so the margin keeps full
    significance even when the two sides agree to many digits.  satisfied is
    certified: the sign of the libm margin, or of the 60-digit one where the
    libm margin lies within its error bound, _LHS_ERROR and the zeta error, of
    zero.
    """
    z = zeta(t)
    if n < 2:
        raise ValueError(f"criterion needs n >= 2, got {n}")
    lhs_excess = _criterion_lhs_at(n, table)
    margin = z.excess - lhs_excess
    satisfied = margin > 0.0
    if abs(margin) <= _LHS_ERROR * lhs_excess + z.abs_error_bound:
        satisfied = _criterion_margin_mp(t, n, table) > 0.0
    return CriterionReport(
        t=t,
        n=n,
        p_n=int(table.primes[n - 1]),
        lhs=1.0 + lhs_excess,
        rhs=z.value,
        margin=margin,
        satisfied=satisfied,
        precision_critical=abs(margin) < PRECISION_BAND,
    )


def _criterion_margin_mp(t: int, n: int, table: PrimeTable) -> float:
    """zeta(t) - exp(2/p_n) * f(n) at 60 digits, log N_n from the primorial."""
    with mpmath.workdps(60):
        p_n = int(table.primes[n - 1])
        lp = mpmath.log(p_n)
        f = 1 + mpmath.mpf("1.1253") / (lp * _log_log_primorial(n, table))
        return float(mpmath.zeta(t) - mpmath.exp(mpmath.mpf(2) / p_n) * f)


def find_crossover_index(t: int, table: PrimeTable, floored: bool = False) -> int:
    """Least index n where the criterion holds (search floor 2263 if floored).

    The left side exp(2/p_n) * f(n) falls strictly with n: p_n and theta(p_n)
    = log N_n both grow, and log p_n and log theta(p_n) >= log log 6 stay
    positive.  So the indices where the criterion holds are a tail of the
    table, and once it holds at the last index, bisection over criterion's
    certified decisions finds the least one.  The next CONFIRM indices are
    confirmed too; running off the table either way raises CoverageError.
    """
    zeta(t)  # validates t, also when the table ends before the search starts
    start = CRITERION_FLOOR if floored else 2
    size = len(table.primes)
    if start > size or not criterion(t, size, table).satisfied:
        raise CoverageError(
            f"criterion for t={t} unsatisfied through index {size}; enlarge the sieve"
        )
    lo, hit = start, size
    while lo < hit:
        mid = (lo + hit) // 2
        if criterion(t, mid, table).satisfied:
            hit = mid
        else:
            lo = mid + 1
    if hit + CONFIRM > size:
        raise CoverageError(
            f"cannot confirm stability through index {hit + CONFIRM} "
            f"(table ends at {size}); enlarge the sieve"
        )
    for k in range(hit + 1, hit + CONFIRM + 1):
        if not criterion(t, k, table).satisfied:
            raise RuntimeError(f"criterion for t={t} holds at {hit} but fails again at {k}")
    return hit


def primorial_magnitude(n: int, table: PrimeTable) -> tuple[float, int]:
    """N_n as (mantissa, exponent10) with mantissa in [1, 10), via theta."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    require_primes(table, n)
    log10 = float(table.theta_prefix[n]) / math.log(10.0)
    exp10 = math.floor(log10)
    mant = 10.0 ** (log10 - exp10)
    if mant >= 10.0:  # guard the floor/pow rounding edge
        mant /= 10.0
        exp10 += 1
    return mant, exp10


# Each suite's margin is one formula of (m, ...) with m = math or numpy.  Its
# screen evaluates it in numpy over the whole range and states beta, a bound on
# the distance to the libm margin at each index; _sweep takes libm, m = math,
# only where the screen cannot decide.  Error model: numpy's power, expm1,
# log1p, log and exp are within 16 ulp of the exact value per call, libm's
# within 1; u = 2^-53.  On samples of the suites' inputs, against 200-bit
# values, numpy was within 0.63 ulp and libm within 0.51 (measured).  Where a
# margin reads a prefix sum, the screen sums numpy terms and adds that sum's
# error to beta; the libm prefix sums all terms up to the last index taken.


def _libm_at(formula, *columns) -> Callable[[np.ndarray], np.ndarray]:
    """_sweep's margins(idx): formula(math, columns[0][i], ...) at each i in idx."""
    return lambda idx: np.array([formula(math, *(c[i] for c in columns)) for i in idx.tolist()])


def _mertens_prefix(primes: np.ndarray) -> np.ndarray:
    """Compensated prefix sums of -log(1 - 1/p) over primes, libm terms."""
    return compensated_prefix(-libm_map(math.log1p, -1.0 / primes))


def _mertens_margin(m, x, log_product):
    """e^gamma (log x + 1/log x) - prod_{p <= x} (1 - 1/p)^-1 from the log of
    that product."""
    lx = m.log(x)
    return EXP_GAMMA * (lx + 1.0 / lx) - m.exp(log_product)


def _mertens_screen(x: np.ndarray, log_product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _mertens_margin at each x and beta.  log x differs from
    libm's by 17 ulp, 1/log x by 18, their sum and product with e^gamma by a
    few u more, under 2^-47 of G = e^gamma (log x + 1/log x); the exps of the
    shared libm log_product by 17 ulp of P; the subtraction and the sweep's
    comparisons with beta add under 4u |estimate|:
    beta = 2^-47 (G + P) + 2^-51 |estimate|."""
    est = _mertens_margin(np, x, log_product)
    lx = np.log(x)
    return est, 2.0**-47 * (EXP_GAMMA * (lx + 1.0 / lx) + np.exp(log_product)) + 2.0**-51 * np.abs(est)


def _zeta_tail_logs(t: int, n: int, table: PrimeTable) -> np.ndarray:
    """log prod_{p <= p_k} (1 - p^-t) for 1 <= k <= n, the libm log1p terms
    summed left to right without compensation, bit for bit the scalar loop
    `acc += log1p(-p^-t)`."""
    return np.cumsum(libm_map(lambda p: math.log1p(-float(p) ** (-t)), table.primes[:n]))


def _zeta_tail_margin(m, p, zeta_value, log_head):
    """exp(2/p_n) - zeta(t) prod_{p <= p_n} (1 - p^-t) from the log of that
    product, log_head."""
    return m.exp(2.0 / p) - zeta_value * m.exp(log_head)


def _zeta_tail_screen(
    t: int, primes: np.ndarray, growth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _zeta_tail_margin for 2 <= n <= len(primes), primes as
    float64 and growth = numpy exp(2/p_n), and beta.

    Each term log1p(-p^-t), p^-t <= 1/4, moves by at most 4/3 of the relative
    error of p^-t, so the two columns' terms, all negative, differ by under
    (16 (4/3 + 1) + 4/3 + 1) 2^-52 < 2^-46.4 of their size.  With A_k = |S_k|,
    S the compensated sums here (each within 2u A_k of its terms' exact sum),
    the libm column's plain cumsum is within u (1 + 2^-20) sum_{j <= k} A_j of
    its terms' exact sum, so the sums differ by at most delta_k = 2^-46 A_k +
    u (1 + 2^-20) sum_{j <= k} A_j + 2^-1000, the last for a p^-t that
    underflows.  The two exps and products with zeta(t) add under 2^-47 of
    P = zeta(t) exp(S), growth is within 17 ulp of libm's exp(2/p_n), and the
    subtraction and the sweep's comparisons with beta add under 4u |estimate|:
    beta = P (1.0002 delta + 2^-47) + 2^-47 growth + 2^-51 |estimate|.
    """
    acc = compensated_prefix(np.log1p(-(primes ** -float(t))))[1:]
    size = np.abs(acc)
    delta = 2.0**-46 * size + 2.0**-53 * (1.0 + 2.0**-20) * np.cumsum(size) + 2.0**-1000
    prod = zeta(t).value * np.exp(acc[1:])
    est = growth - prod
    beta = prod * (1.0002 * delta[1:] + 2.0**-47) + 2.0**-47 * growth + 2.0**-51 * np.abs(est)
    return est, beta


def _log_substitution_margin(m, p, theta):
    """log log N_n + 0.1253 / log p_n - log p_n from p_n and theta = log N_n."""
    lp = m.log(p)
    return m.log(theta) + LOG_SHIFT / lp - lp


def _log_substitution_screen(p: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _log_substitution_margin and beta.  The logs differ from
    libm's by 17 ulp each and 0.1253 / log p_n by 18 ulp of itself, below log
    log N_n; with the sums' roundings that is under 2^-46 (log log N_n +
    log p_n), and log log N_n <= log p_n + |estimate|:
    beta = 2^-45 (log p_n + |estimate|)."""
    est = _log_substitution_margin(np, p, theta)
    return est, 2.0**-45 * (np.log(p) + np.abs(est))


def _psi_ratio_scale(m, p, theta):
    """exp(gamma + 2/p_n) (log log N_n + 1.1253 / log p_n) from p_n and theta =
    log N_n, which divided by zeta(t) bounds psi_t(N_n)/N_n."""
    return m.exp(EULER_GAMMA + 2.0 / p) * (m.log(theta) + MERTENS_SHIFT / m.log(p))


def _psi_ratio_margin(m, p, theta, zeta_value, log_ratio):
    """The psi ratio bound less psi_t(N_n)/N_n, from log_ratio = log psi_t(N_n)/N_n."""
    return _psi_ratio_scale(m, p, theta) / zeta_value - m.exp(log_ratio)


def _psi_ratio_screen(
    t: int, primes: np.ndarray, scale: np.ndarray, n_min: int
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _psi_ratio_margin for n_min <= n <= len(primes), primes
    as float64 and scale = numpy _psi_ratio_scale at p_n_min.., and beta.

    The terms here are primorial.log_terms, plain numpy
    log1p((1 - p^(1-t)) / (p - 1)): p^(1-t) <= 1/2 is within 16 ulp, so
    1 - p^(1-t) and the quotient are within 17 2^-52 of the exact term, and
    17.5 2^-52 of the libm column's correctly rounded one.  log1p keeps that relative error and adds 17 ulp, and each
    compensated sum is within 2u of its terms' exact sum, so the sums L
    (here) and the libm column's differ by under 36.5 2^-52 L; the two exps
    add 17 ulp of R = exp(L).  The scales differ by under 37 2^-52 of
    themselves (17 ulp for the exp, 19 for log log N_n + 1.1253 / log p_n,
    and the product's rounding), and the bounds B by 38.  The subtraction
    and the sweep's comparisons with beta add under 4u |estimate|:
    beta = 2^-52 (42 B + R (37 L + 17)) + 2^-51 |estimate|.
    """
    logs = compensated_prefix(primorial.log_terms(primes, t))[n_min:]
    bound = scale / zeta(t).value
    ratio = np.exp(logs)
    est = bound - ratio
    return est, 2.0**-52 * (42.0 * bound + ratio * (37.0 * logs + 17.0)) + 2.0**-51 * np.abs(est)


def admissible_t(n: int, table: PrimeTable) -> int | None:
    """Largest t >= 2 whose criterion holds at index n; None if even t = 2 fails.

    Satisfaction is downward closed in t because zeta decreases, so an
    ascending scan stopping at the first failure is exact.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    t = 2
    while criterion(t, n, table).satisfied:
        t += 1
    return t - 1 if t > 2 else None


def ratio_curve(
    table: PrimeTable, t: int, n_max: int
) -> list[tuple[int, int, float, float, float]]:
    """Rows (n, p_n, R_t(N_n), e^gamma/zeta(t), deviation) for 2 <= n <= n_max.

    deviation = R_t(N_n) * zeta(t) / e^gamma - 1, the signed relative gap to
    the limit value.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    limit_value = EXP_GAMMA / zeta(t).value
    logs = primorial.log_psi_ratio_prefix(table, t, n_max).tolist()
    rows = []
    for n in range(2, n_max + 1):
        r = math.exp(logs[n]) / math.log(table.theta_prefix[n])
        rows.append((n, int(table.primes[n - 1]), r, limit_value, r / limit_value - 1.0))
    return rows


# ---------------------------------------------------------------------------
# Bound suites: exhaustive margin sweeps used by the CLI and the test gate.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    points: int
    worst_margin: float
    worst_at: str
    rechecked: int
    passed: bool
    skipped: bool = False


def _sweep(name: str, columns: Iterable, recheck: Callable, where: Callable) -> SuiteResult:
    """Worst margin over `columns`, triples (key, screen, margins) taken one at a time.

    screen() gives numpy estimates of a column's float margins and beta, a
    bound on |estimate - margin| at each index; margins(idx) gives the float
    margins at the indices idx.  Every margin inside PRECISION_BAND is
    replaced by recheck(key, i), its 60-digit value, before it is trusted.
    The worst point is the first minimum in column order, as a scalar `if
    margin < worst` loop picks it; where(key, i) names it.

    The margins are taken only where the screen cannot decide: wherever the
    estimate is within PRECISION_BAND + beta of zero, and wherever the
    estimate less beta lies below the worst so far and at or below every
    estimate plus beta.  Once taken, any index whose estimate less beta is
    at or below the least margin taken is taken too, until none is left; so
    every other index holds a margin above that least one, or at or above
    the worst so far, and is neither in the band nor the first minimum.  A
    column without such indices adds only its point count.  A sweep without
    points reports skipped.
    """
    worst = math.inf
    worst_at = ""
    points = rechecked = 0
    for key, screen, build in columns:
        est, beta = screen()
        lo = est - beta
        take = np.abs(est) < PRECISION_BAND + beta
        take |= (lo < worst) & (lo <= np.min(est + beta, initial=math.inf))
        taken = take.copy()
        margins = np.full(est.size, math.inf)
        while take.any():
            idx = np.flatnonzero(take)
            margins[idx] = build(idx)
            band = idx[np.abs(margins[idx]) < PRECISION_BAND].tolist()
            for i in band:
                margins[i] = recheck(key, i)
            rechecked += len(band)
            take = ~taken & (lo <= np.min(margins, initial=math.inf)) & (lo < worst)
            taken |= take
        if margins.size:
            i = int(np.argmin(margins))
            if margins[i] < worst:
                worst = float(margins[i])
                worst_at = where(key, i)
        points += margins.size
    return SuiteResult(
        name=name, points=points, worst_margin=worst, worst_at=worst_at,
        rechecked=rechecked, passed=worst > 0.0, skipped=points == 0,
    )


_PRODUCTS: "weakref.WeakKeyDictionary[PrimeTable, dict]" = weakref.WeakKeyDictionary()


def _prefix_products(
    table: PrimeTable, key: object, n: int, factors: Callable[[int], tuple[int, ...]]
) -> list[mpmath.mpf]:
    """For each slot of factors(p), the product of that exact integer over
    p_1..p_n at the working precision, one rounding per factor; call it inside
    the recheck's workdps context.

    The products are kept per table, key and precision.  A call with n at or
    past the kept index extends them; an earlier n rebuilds them from p_1.
    The same factors in the same order round to the same bits either way.
    """
    kept = _PRODUCTS.setdefault(table, {})
    slot = (key, mpmath.mp.prec)
    k, prods = kept.get(slot, (0, None))
    if prods is None or k > n:
        k, prods = 0, [mpmath.mpf(1) for _ in factors(2)]
    for p in table.primes[k:n].tolist():
        prods = [out * f for out, f in zip(prods, factors(p))]
    kept[slot] = (n, prods)
    return prods


def _log_log_primorial(n: int, table: PrimeTable) -> mpmath.mpf:
    """log log N_n at the working precision, from the one primorial product
    kept per table."""
    (primorial_n,) = _prefix_products(table, "primorial", n, lambda p: (p,))
    return mpmath.log(mpmath.log(primorial_n))


_SAMPLE_SEED = 20011


def mertens_bound_suite(
    table: PrimeTable, x_cap: int = MERTENS_CAP, samples: int = 500
) -> SuiteResult:
    """Margin sweep of e^gamma (log x + 1/log x) - prod_{p<=x} (1-1/p)^-1 > 0
    over a geometric grid plus seeded random x values up to x_cap."""
    cap = min(x_cap, table.limit)
    xs = {1 << k for k in range(1, cap.bit_length())}
    rng = random.Random(_SAMPLE_SEED)
    xs.update(rng.randint(2, cap) for _ in range(samples if cap >= 2 else 0))
    xs = sorted(xs)
    prefix = _mertens_prefix(table.primes[: np.searchsorted(table.primes, cap, side="right")])
    logs = prefix[np.searchsorted(table.primes, xs, side="right")]
    return _sweep(
        "mertens_product",
        [(
            None,
            partial(_mertens_screen, np.array(xs, dtype=np.float64), logs),
            _libm_at(_mertens_margin, xs, logs),
        )],
        lambda _, i: _mertens_margin_mp(xs[i], table),
        lambda _, i: f"x={xs[i]}",
    )


def _mertens_margin_mp(x: int, table: PrimeTable) -> float:
    n = int(np.searchsorted(table.primes, x, side="right"))
    with mpmath.workdps(60):
        num, den = _prefix_products(table, "mertens", n, lambda p: (p, p - 1))
        prod = num / den
        lx = mpmath.log(x)
        return float(mpmath.exp(mpmath.euler) * (lx + 1 / lx) - prod)


def zeta_tail_bound_suite(
    table: PrimeTable, ts: range | tuple[int, ...] = range(2, 11), n_max: int = 10**4
) -> SuiteResult:
    """Margin sweep of exp(2/p_n) - prod_{p > p_n} (1 - p^-t)^-1 > 0
    for each t and every 2 <= n <= n_max."""
    require_primes(table, n_max)
    return _sweep(
        "zeta_tail_product",
        _zeta_tail_columns(table, ts, n_max),
        lambda t, i: _zeta_tail_margin_mp(t, i + 2, table),
        lambda t, i: f"t={t},n={i + 2}",
    )


def _zeta_tail_columns(table: PrimeTable, ts: Iterable[int], n_max: int) -> Iterator[tuple]:
    """_sweep's (t, screen, margins) for each t, 2 <= n <= n_max."""
    primes = table.primes[:n_max].astype(np.float64)  # once per suite
    growth = np.exp(2.0 / primes[1:])
    for t in ts:
        yield (
            t,
            partial(_zeta_tail_screen, t, primes, growth),
            partial(_zeta_tail_margins, t, table, primes[1:]),
        )


def _zeta_tail_margins(t: int, table: PrimeTable, p: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """_zeta_tail_margin at p = p[idx] from libm, the log1p terms summed up to there."""
    zv = zeta(t).value
    logs = _zeta_tail_logs(t, int(idx[-1]) + 2, table)[1:]
    return _libm_at(lambda m, p_n, log_head: _zeta_tail_margin(m, p_n, zv, log_head), p, logs)(idx)


def _zeta_tail_margin_mp(t: int, n: int, table: PrimeTable) -> float:
    # prod_{p <= p_n} (1 - p^-t) = prod (p^t - 1) / prod p^t
    with mpmath.workdps(60):
        num, den = _prefix_products(table, ("zeta_tail", t), n, lambda p: (p**t - 1, p**t))
        head = num / den
        return float(mpmath.exp(mpmath.mpf(2) / int(table.primes[n - 1])) - mpmath.zeta(t) * head)


def log_substitution_suite(
    table: PrimeTable, n_min: int = CRITERION_FLOOR, n_max: int = 10**5
) -> SuiteResult:
    """Margin sweep of log log N_n + 0.1253/log p_n - log p_n > 0 on [n_min, n_max]."""
    if n_min < CRITERION_FLOOR:
        raise ValueError(f"hypothesis needs n >= {CRITERION_FLOOR}, got {n_min}")
    require_primes(table, n_max)
    p = table.primes[n_min - 1 : n_max].astype(np.float64)
    theta = table.theta_prefix[n_min : n_max + 1]
    return _sweep(
        "log_substitution",
        [(
            None,
            partial(_log_substitution_screen, p, theta),
            _libm_at(_log_substitution_margin, p, theta),
        )],
        lambda _, i: _log_substitution_margin_mp(n_min + i, table),
        lambda _, i: f"n={n_min + i}",
    )


def _log_substitution_margin_mp(n: int, table: PrimeTable) -> float:
    with mpmath.workdps(60):
        lln = _log_log_primorial(n, table)
        lp = mpmath.log(int(table.primes[n - 1]))
        return float(lln + mpmath.mpf("0.1253") / lp - lp)


def psi_ratio_bound_suite(
    table: PrimeTable,
    ts: tuple[int, ...] = (3, 4, 5, 6, 7),
    n_min: int = CRITERION_FLOOR,
    n_max: int = 10**5,
) -> SuiteResult:
    """Margin sweep of the certified psi-ratio bound minus the exact ratio
    exp(log psi_t(N_n)/N_n), per t, over [n_min, n_max]."""
    if n_min < CRITERION_FLOOR:
        raise ValueError(f"bound needs n >= {CRITERION_FLOOR}, got {n_min}")
    require_primes(table, n_max)
    return _sweep(
        "psi_ratio_bound",
        _psi_ratio_columns(table, ts, n_min, n_max),
        lambda t, i: _psi_ratio_margin_mp(t, n_min + i, table),
        lambda t, i: f"t={t},n={n_min + i}",
    )


def _psi_ratio_columns(
    table: PrimeTable, ts: Iterable[int], n_min: int, n_max: int
) -> Iterator[tuple]:
    """_sweep's (t, screen, margins) for each t, n_min <= n <= n_max."""
    primes = table.primes[:n_max].astype(np.float64)  # once per suite
    p = primes[n_min - 1 :]
    theta = table.theta_prefix[n_min : n_max + 1]
    scale = _psi_ratio_scale(np, p, theta)  # shared by every t
    for t in ts:
        yield (
            t,
            partial(_psi_ratio_screen, t, primes, scale, n_min),
            partial(_psi_ratio_margins, t, table, p, theta, n_min),
        )


def _psi_ratio_margins(
    t: int, table: PrimeTable, p: np.ndarray, theta: np.ndarray, n_min: int, idx: np.ndarray
) -> np.ndarray:
    """_psi_ratio_margin at n = n_min + idx from libm and log_psi_ratio_prefix
    up to there: its correctly rounded terms, libm log1p and compensated sum."""
    zv = zeta(t).value
    logs = primorial.log_psi_ratio_prefix(table, t, n_min + int(idx[-1]))[n_min:]
    return _libm_at(lambda m, p_n, th, lr: _psi_ratio_margin(m, p_n, th, zv, lr), p, theta, logs)(idx)


def psi_ratio_mp(t: int, n: int, table: PrimeTable) -> tuple[mpmath.mpf, mpmath.mpf]:
    """psi_t(N_n)/N_n and log log N_n at the working precision, from products
    of exact integers: psi_t(N_n)/N_n = prod (p^t - 1) / prod ((p - 1) p^(t-1))."""
    num, den = _prefix_products(
        table, ("psi_ratio", t), n, lambda p: (p**t - 1, (p - 1) * p ** (t - 1))
    )
    return num / den, _log_log_primorial(n, table)


def _psi_ratio_margin_mp(t: int, n: int, table: PrimeTable) -> float:
    with mpmath.workdps(60):
        ratio, lln = psi_ratio_mp(t, n, table)
        p_n = int(table.primes[n - 1])
        lp = mpmath.log(p_n)
        bound = (
            mpmath.exp(mpmath.euler + mpmath.mpf(2) / p_n)
            / mpmath.zeta(t)
            * (lln + mpmath.mpf("1.1253") / lp)
        )
        return float(bound - ratio)
