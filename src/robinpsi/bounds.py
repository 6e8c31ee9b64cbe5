"""Explicit zeta values, partial Euler products, the crossover criterion,
and the bound suites behind the verification CLI.

The constant 1.1253 couples two explicit bounds.  The partial Euler product
satisfies prod_{p <= x} (1 - 1/p)^-1 <= e^gamma (log x + 1/log x) for x >= 2,
and for n >= 2263 (p_n >= 20000) the log-shift bound
log p_n < log log N_n + 0.1253 / log p_n lets log p_n be replaced by
log log N_n, turning the 1/log p_n slack into (1 + 0.1253)/log p_n.  The
resulting crossover criterion reads exp(2/p_n) * f(n) < zeta(t) with
f(n) = 1 + 1.1253 / (log p_n * log log N_n).

Each formula, the criterion's left side less 1, every bound's margin and
R_t(N_n), is written once over m = math, numpy or mpmath: libm scalars where a
value is printed or decided, numpy over a whole range to screen it, mpmath at
60 digits (primes.at_60_digits) where neither decides.  const gives each its
constants: the compiled floats for math and numpy, gamma and the decimals at
the working precision for mpmath.  A screen states beta, a bound on its
distance to the libm value at each index, and libm runs only at the indices
that the estimate +- beta cannot decide.  criterion decides one index from
libm, re-deciding at 60 digits a margin within its own error bound of zero;
find_crossover_index gallops and then bisects over these certified
decisions, as the left side falls with n, and admissible_t scans them over t.
The four suites hand their columns to one sweep, _sweep: the zeta tail one
column per t, the psi ratio one column over (t, n), whose blocks share each
block's t-independent scale.  _sweep re-derives any |margin| below 1e-9 at
60 digits, from logs of exact products (exact_log); a range without points
reports SKIPPED.  zeta(2) is pinned to its series' output.
"""

from __future__ import annotations

import math
import random
import sys
import weakref
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import primorial
from .errors import CoverageError
from .primes import (
    PrimeTable,
    at_60_digits,
    blocks,
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
MERTENS_CAP = 10**6  # largest x of the Mertens product sweep

_AT_PRECISION = {  # each constant above at mpmath's working precision
    EULER_GAMMA: lambda m: +m.euler,
    EXP_GAMMA: lambda m: m.exp(m.euler),
    MERTENS_SHIFT: lambda m: m.mpf("1.1253"),  # the float lies 3.3e-17 below
    LOG_SHIFT: lambda m: m.mpf("0.1253"),
}


def const(m, x):
    """The constant x above in m's arithmetic: x itself for math or numpy,
    its _AT_PRECISION value for mpmath."""
    return x if m is math or m is np else _AT_PRECISION[x](m)


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
    log theta), from a prime p and theta = theta(p) = log N_n."""
    c = const(m, MERTENS_SHIFT) / (m.log(p) * m.log(theta))
    return m.expm1(2.0 / p) * (1.0 + c) + c


def _criterion_lhs_at(n: int, table: PrimeTable) -> float:
    """exp(2/p_n) * f(n) - 1 from libm scalars."""
    theta = table.theta_upto(n)[n]  # CoverageError past the table
    return _lhs_excess(math, int(table.primes[n - 1]), theta)


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


def _dusart_reach(x: float) -> float:
    """An upper bound on the first prime above x: y (1 + 1/(25 log^2 y)) at y =
    max(x, 396738).  Dusart (2010): for y >= 396738 there is a prime in (y, y
    (1 + 1/(25 log^2 y))].  The factor 1 + 2^-20 on the step's length absorbs
    its float rounding up to the largest float."""
    y = max(x, 396738.0)
    return y * (1.0 + (1.0 + 2.0**-20) / (25.0 * math.log(y) ** 2))


def crossover_reach(t: int) -> float:
    """Sieve limit covering p_n1(t), with or without the search floor, and so
    for every t' <= t; math.inf once x overflows a float.

    Rosser and Schoenfeld (Illinois J. Math. 6, 1962): theta(x) > x (1 -
    1/log x) for x >= 41, pi(x) < 1.25506 x / log x for x > 1.  The left side
    falls as p and theta(p) grow, so every prime p >= x passes once
    _criterion_lhs_bound(x) is below zeta(t) - 1 by a relative 1e-9 that
    absorbs float rounding; then n1 <= pi(x) + 1.  x is bisected geometrically.
    The limit is the smaller of two bounds on the first prime above x: one
    from pi(x) and nth_prime_bound, and _dusart_reach(x), which also covers
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
    by_count = nth_prime_bound(max(pi_x + 1, CRITERION_FLOOR))
    return min(by_count, math.ceil(_dusart_reach(x)))


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
    p_n = int(table.primes[n - 1])
    if abs(margin) <= _LHS_ERROR * lhs_excess + z.abs_error_bound:
        satisfied = at_60_digits(
            lambda m, p, theta, zeta_t: zeta_t - 1 - _lhs_excess(m, p, theta),
            lambda: (p_n, exact_log(table, "primorial", n), mpmath.zeta(t)),
        ) > 0.0
    return CriterionReport(
        t=t,
        n=n,
        p_n=p_n,
        lhs=1.0 + lhs_excess,
        rhs=z.value,
        margin=margin,
        satisfied=satisfied,
        precision_critical=abs(margin) < PRECISION_BAND,
    )


def find_crossover_index(t: int, table: PrimeTable, floored: bool = False) -> int:
    """Least index n where the criterion holds (search floor 2263 if floored).

    The left side exp(2/p_n) * f(n) falls strictly with n: p_n and theta(p_n)
    = log N_n both grow, and log p_n and log theta(p_n) >= log log 6 stay
    positive.  So the indices where the criterion holds are a tail of the
    table, and each past n1 holds by this lemma.  The search gallops over
    criterion's certified decisions, at start, 2 start, 4 start, ... and the
    table's last index, to the first that holds, then bisects the bracket
    above the last that failed; so it reads theta no further than about 2 n1.
    A table through whose end nothing holds raises CoverageError.
    """
    zeta(t)  # validates t, also when the table ends before the search starts
    start = CRITERION_FLOOR if floored else 2
    size = len(table.primes)
    unsatisfied = CoverageError(
        f"criterion for t={t} unsatisfied through index {size}; enlarge the sieve"
    )
    if start > size:
        raise unsatisfied
    lo, hit = start, start
    while not criterion(t, hit, table).satisfied:
        if hit == size:
            raise unsatisfied
        lo, hit = hit + 1, min(2 * hit, size)
    return lo + bisect_left(range(lo, hit), True, key=lambda n: criterion(t, n, table).satisfied)


def primorial_magnitude(n: int, table: PrimeTable) -> tuple[float, int]:
    """N_n as (mantissa, exponent10) with mantissa in [1, 10), via theta."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    log10 = float(table.theta_upto(n)[n]) / math.log(10.0)
    exp10 = math.floor(log10)
    mant = 10.0 ** (log10 - exp10)
    if mant >= 10.0:  # guard the floor/pow rounding edge
        mant /= 10.0
        exp10 += 1
    return mant, exp10


# Each suite's margin is one formula of (m, ...).  Its screen evaluates it in
# numpy over the range, block by block, and states beta, a bound on the
# distance to the libm margin at each index; _sweep takes libm only where the
# screen cannot decide, and mpmath in the band.  Error model: numpy's power, expm1,
# log1p, log and exp are within 16 ulp of the exact value per call, libm's
# within 1; u = 2^-53.  On samples of the suites' inputs, against 200-bit
# values, numpy was within 0.63 ulp and libm within 0.51 (measured).  Where a
# margin reads a prefix sum, the screen sums numpy terms and adds that sum's
# error to beta; the libm prefix sums all terms up to the last index taken.


def _libm(formula, *columns: np.ndarray) -> np.ndarray:
    """formula(math, columns[0][i], ...) for each i, the columns gathered at
    the indices a sweep takes."""
    rows = zip(*(c.tolist() for c in columns))
    return np.array([formula(math, *row) for row in rows], dtype=np.float64)


def _one_block(screen, *inputs) -> list[tuple]:
    """A column screen of a single block, screen(*inputs) at offset 0."""
    return [(0, *screen(*inputs))]


def _mertens_prefix(primes: np.ndarray) -> np.ndarray:
    """Compensated prefix sums of -log(1 - 1/p) over primes, libm terms."""
    return compensated_prefix(-libm_map(math.log1p, -1.0 / primes))


def _mertens_margin(m, x, log_product):
    """e^gamma (log x + 1/log x) - prod_{p <= x} (1 - 1/p)^-1 from the log of
    that product."""
    lx = m.log(x)
    return const(m, EXP_GAMMA) * (lx + 1.0 / lx) - m.exp(log_product)


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
    `acc += log1p(-p^-t)`: p^-t is libm's pow of p and -t as floats, float
    (-t).__rpow__ at each prime, and numpy's negation is exact."""
    powers = libm_map(float(-t).__rpow__, table.primes[:n].astype(np.float64))
    return np.cumsum(libm_map(math.log1p, np.negative(powers, out=powers)))


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
    return m.log(theta) + const(m, LOG_SHIFT) / lp - lp


def _log_substitution_screen(p: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _log_substitution_margin and beta.  The logs differ from
    libm's by 17 ulp each and 0.1253 / log p_n by 18 ulp of itself, below log
    log N_n; with the sums' roundings that is under 2^-46 (log log N_n +
    log p_n), and log log N_n <= log p_n + |estimate|:
    beta = 2^-45 (log p_n + |estimate|)."""
    est = _log_substitution_margin(np, p, theta)
    return est, 2.0**-45 * (np.log(p) + np.abs(est))


def _log_substitution_blocks(table: PrimeTable, n_min: int, n_max: int) -> Iterator[tuple]:
    """_sweep's blocks (offset, est, beta) of _log_substitution_screen over
    n_min <= n <= n_max, offset counted from n_min."""
    theta = table.theta_upto(n_max)
    for a, b in blocks(n_min, n_max + 1):
        p = table.primes[a - 1 : b - 1].astype(np.float64)
        yield (a - n_min, *_log_substitution_screen(p, theta[a:b]))


def _log_substitution_margins(table: PrimeTable, n_min: int, idx: np.ndarray) -> np.ndarray:
    """_log_substitution_margin from libm at n = n_min + idx."""
    n = n_min + idx
    p = table.primes[n - 1].astype(np.float64)
    return _libm(_log_substitution_margin, p, table.theta_upto(int(n[-1]))[n])


def _psi_ratio_scale(m, p, theta):
    """exp(gamma + 2/p_n) (log log N_n + 1.1253 / log p_n) from p_n and theta =
    log N_n, which divided by zeta(t) bounds psi_t(N_n)/N_n."""
    shift = const(m, MERTENS_SHIFT)
    return m.exp(const(m, EULER_GAMMA) + 2.0 / p) * (m.log(theta) + shift / m.log(p))


def _psi_ratio_margin(m, p, theta, zeta_value, log_ratio):
    """The psi ratio bound less psi_t(N_n)/N_n, from log_ratio = log psi_t(N_n)/N_n."""
    return _psi_ratio_scale(m, p, theta) / zeta_value - m.exp(log_ratio)


def _psi_ratio_screen(
    t: int, scale: np.ndarray, logs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _psi_ratio_margin from scale, numpy _psi_ratio_scale at
    each p = p_n and theta = log N_n, shared by every t, and logs, compensated
    prefix sums of numpy terms up to each n; and beta.

    The terms of logs are primorial.log_terms, plain numpy
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
    bound = scale / zeta(t).value
    ratio = np.exp(logs)
    est = bound - ratio
    return est, 2.0**-52 * (42.0 * bound + ratio * (37.0 * logs + 17.0)) + 2.0**-51 * np.abs(est)


def _psi_ratio_blocks(
    ts: tuple[int, ...], table: PrimeTable, n_min: int, n_max: int
) -> Iterator[tuple]:
    """_sweep's blocks (offset, est, beta) of _psi_ratio_screen over n_min <=
    n <= n_max for each t of ts, one column over (t, n): offset j size + n -
    n_min for the j-th t, size = n_max - n_min + 1.  One walk over the prime
    blocks forms each block's p, theta and scale once and screens it for
    every t.  Each t's terms are summed from n = 1, its compensated sum
    resumed from block to block; the blocks reaching n_min are screened from
    there."""
    theta = table.theta_upto(n_max)
    size = n_max - n_min + 1
    states = [[0.0, 0.0] for _ in ts]
    for a, b in blocks(0, n_max):  # the primes p_(a+1) .. p_b
        p = table.primes[a:b].astype(np.float64)
        k = max(n_min - 1 - a, 0)  # n = a + 1 + k is the block's first n >= n_min
        n = a + 1 + k
        scale = _psi_ratio_scale(np, p[k:], theta[n : b + 1])  # empty before n_min
        for j, (t, state) in enumerate(zip(ts, states)):
            logs = compensated_prefix(primorial.log_terms(p, t), state)[1:]
            if k < b - a:
                yield (j * size + n - n_min, *_psi_ratio_screen(t, scale, logs[k:]))


def _psi_ratio_margins(
    ts: tuple[int, ...], table: PrimeTable, n_min: int, n_max: int, idx: np.ndarray
) -> np.ndarray:
    """_psi_ratio_margin from libm at the indices idx of _psi_ratio_blocks'
    column, in any order.  Each t's pass of log_psi_ratio_prefix, its
    correctly rounded terms, libm log1p and compensated sum, runs block by
    block up to the largest n taken for that t, one t at a time, and keeps
    only the sums at the n taken."""
    j, n = np.divmod(idx, n_max - n_min + 1)
    n += n_min
    out = np.empty(idx.size)
    for k, t in enumerate(ts):
        at = np.flatnonzero(j == k)
        if at.size:
            nt = n[at]
            last = int(nt.max())
            logs = np.empty(nt.size)
            for a, sums in primorial.log_psi_ratio_blocks(table, t, last):
                here = np.flatnonzero((nt > a) & (nt <= a + sums.size))
                logs[here] = sums[nt[here] - a - 1]
            out[at] = _libm(
                _psi_ratio_margin,
                table.primes[nt - 1].astype(np.float64),
                table.theta_upto(last)[nt],
                np.full(nt.size, zeta(t).value),
                logs,
            )
    return out


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


def primorial_ratio(m, log_ratio, theta):
    """R_t(N_n) from log_ratio = log(psi_t(N_n)/N_n) and theta = log N_n."""
    return m.exp(log_ratio) / m.log(theta)


def ratio_curve(
    table: PrimeTable, t: int, n_max: int
) -> Iterator[tuple[int, int, float, float, float]]:
    """Rows (n, p_n, R_t(N_n), e^gamma/zeta(t), deviation) for 2 <= n <= n_max.

    deviation = R_t(N_n) * zeta(t) / e^gamma - 1, the signed relative gap to
    the limit value.  The checks and the prefix sums run on the call, which
    returns a generator that forms each row as it is read.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    limit_value = EXP_GAMMA / zeta(t).value
    logs = primorial.log_psi_ratio_prefix(table, t, n_max).tolist()
    theta = table.theta_upto(n_max).tolist()
    primes = table.primes[:n_max].tolist()

    def rows():
        for n in range(2, n_max + 1):
            r = primorial_ratio(math, logs[n], theta[n])
            yield n, primes[n - 1], r, limit_value, r / limit_value - 1.0

    return rows()


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


_NO_INDEX = np.zeros(0, dtype=np.int64)


def _screen_pass(screen: Callable, worst: float, cut: float | None) -> tuple:
    """One pass over a column's blocks: its point count, the least estimate
    plus beta, top, the indices in the band, and the candidates with their
    estimate less beta, lo: lo below worst and at or below cut, or where cut
    is None, at or below top so far."""
    size, top = 0, math.inf
    band, found, found_lo = [_NO_INDEX], [_NO_INDEX], [np.zeros(0)]
    for offset, est, beta in screen():
        lo = est - beta
        top = min(top, float(np.min(est + beta, initial=math.inf)))
        band.append(offset + np.flatnonzero(np.abs(est) < PRECISION_BAND + beta))
        keep = np.flatnonzero((lo < worst) & (lo <= (top if cut is None else cut)))
        found.append(offset + keep)
        found_lo.append(lo[keep])
        size += est.size
    return size, top, np.concatenate(band), np.concatenate(found), np.concatenate(found_lo)


def _sweep(name: str, columns: Iterable, recheck: Callable, where: Callable) -> SuiteResult:
    """Worst margin over `columns`, triples (key, screen, margins) taken one at a time.

    screen() yields a column's blocks (offset, est, beta): numpy estimates of
    the float margins at the indices offset, offset + 1, ..., and beta, a
    bound on |estimate - margin| at each; margins(idx) gives the float
    margins at the indices idx, ascending where the blocks' offsets are.
    Every margin inside PRECISION_BAND is replaced by recheck(key, i), its
    60-digit value, before it is trusted.  The worst point is the first minimum in column order, as a
    scalar `if margin < worst` loop picks it; where(key, i) names it.

    The margins are taken only where the screen cannot decide: wherever the
    estimate is within PRECISION_BAND + beta of zero, and wherever the
    estimate less beta, lo, lies below the worst so far and at or below
    every estimate plus beta.  Once taken, any index whose lo is at or below
    the least margin taken is taken too, until none is left; so every other
    index holds a margin above that least one, or at or above the worst so
    far, and is neither in the band nor the first minimum.

    A pass over the blocks keeps only the band, the least estimate plus beta,
    top, and the candidates: the indices whose lo is below the worst and at
    or below top so far, filtered against the final top.  The least margin
    taken is at most top, as the index where top falls is taken, so every
    later round takes candidates only; should a recheck lift it past top,
    one more pass collects the indices whose lo is at or below it.  Margins
    are kept only where taken.  A column without such indices adds only its
    point count.  A sweep without points reports skipped.
    """
    worst = math.inf
    worst_at = ""
    points = rechecked = 0
    for key, screen, build in columns:
        size, top, band, cand, cand_lo = _screen_pass(screen, worst, None)
        points += size
        keep = cand_lo <= top
        cand, cand_lo = cand[keep], cand_lo[keep]
        # the sorted union without np.unique, whose first call imports numpy.ma
        take = np.sort(np.concatenate((band, cand)))
        take = take[np.diff(take, prepend=-1) != 0]
        taken, margins = [_NO_INDEX], [np.zeros(0)]
        low = math.inf  # the least margin taken
        while take.size:
            got = build(take)
            in_band = np.flatnonzero(np.abs(got) < PRECISION_BAND).tolist()
            for j in in_band:
                got[j] = recheck(key, int(take[j]))
            rechecked += len(in_band)
            taken.append(take)
            margins.append(got)
            low = min(low, float(got.min()))
            if low > top:  # a recheck lifted it past top: the candidates may not reach it
                _, _, _, cand, cand_lo = _screen_pass(screen, worst, low)
                top = low
            take = cand[(cand_lo <= low) & ~np.isin(cand, np.concatenate(taken))]
        idx, got = np.concatenate(taken), np.concatenate(margins)
        if idx.size:
            order = np.argsort(idx)
            i = int(np.argmin(got[order]))
            if got[order[i]] < worst:
                worst = float(got[order[i]])
                worst_at = where(key, int(idx[order[i]]))
    return SuiteResult(
        name=name, points=points, worst_margin=worst, worst_at=worst_at,
        rechecked=rechecked, passed=worst > 0.0, skipped=points == 0,
    )


_PRODUCTS: "weakref.WeakKeyDictionary[PrimeTable, dict]" = weakref.WeakKeyDictionary()


# What a 60-digit recheck takes the log of: prod a(p) / prod b(p) over p_1..p_n
_FACTORS = {
    "primorial": lambda p, t: (p, 1),  # N_n
    "mertens": lambda p, t: (p, p - 1),  # prod (1 - 1/p)^-1
    "zeta_tail": lambda p, t: (p**t - 1, p**t),  # prod (1 - p^-t)
    "psi_ratio": lambda p, t: (p**t - 1, (p - 1) * p ** (t - 1)),  # psi_t(N_n)/N_n
}


def exact_log(table: PrimeTable, name: str, n: int, t: int = 0) -> mpmath.mpf:
    """log of the product _FACTORS[name] over p_1..p_n at the working
    precision, numerator and denominator each a product of exact integers
    with one rounding per factor; call it inside at_60_digits.

    The products are kept per table, name, t and precision.  A call with n
    at or past the kept index extends them; an earlier n rebuilds them from
    p_1.  The same factors in the same order round to the same bits either way.
    """
    kept = _PRODUCTS.setdefault(table, {})
    slot = (name, t, mpmath.mp.prec)
    k, num, den = kept.get(slot, (0, None, None))
    if num is None or k > n:
        k, num, den = 0, mpmath.mpf(1), mpmath.mpf(1)
    for p in table.primes[k:n].tolist():
        a, b = _FACTORS[name](p, t)
        num, den = num * a, den * b
    kept[slot] = (n, num, den)
    return mpmath.log(num / den)


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
    counts = np.searchsorted(table.primes, xs, side="right").tolist()  # pi(x)
    logs = prefix[counts]
    x = np.array(xs, dtype=np.float64)
    return _sweep(
        "mertens_product",
        [(
            None,
            partial(_one_block, _mertens_screen, x, logs),
            lambda idx: _libm(_mertens_margin, x[idx], logs[idx]),
        )],
        lambda _, i: at_60_digits(
            _mertens_margin, lambda: (xs[i], exact_log(table, "mertens", counts[i]))
        ),
        lambda _, i: f"x={xs[i]}",
    )


def zeta_tail_bound_suite(
    table: PrimeTable, ts: range | tuple[int, ...] = range(2, 11), n_max: int = 10**4
) -> SuiteResult:
    """Margin sweep of exp(2/p_n) - prod_{p > p_n} (1 - p^-t)^-1 > 0
    for each t and every 2 <= n <= n_max."""
    require_primes(table, n_max)
    return _sweep(
        "zeta_tail_product",
        _zeta_tail_columns(table, ts, n_max),
        lambda t, i: at_60_digits(_zeta_tail_margin, lambda: (
            int(table.primes[i + 1]), mpmath.zeta(t), exact_log(table, "zeta_tail", i + 2, t)
        )),
        lambda t, i: f"t={t},n={i + 2}",
    )


def _zeta_tail_columns(table: PrimeTable, ts: Iterable[int], n_max: int) -> Iterator[tuple]:
    """_sweep's (t, screen, margins) for each t, 2 <= n <= n_max."""
    primes = table.primes[:n_max].astype(np.float64)  # once per suite
    growth = np.exp(2.0 / primes[1:])
    for t in ts:
        yield (
            t,
            partial(_one_block, _zeta_tail_screen, t, primes, growth),
            partial(_zeta_tail_margins, t, table, primes[1:]),
        )


def _zeta_tail_margins(t: int, table: PrimeTable, p: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """_zeta_tail_margin at p = p[idx] from libm, the log1p terms summed up to there."""
    zv = zeta(t).value
    logs = _zeta_tail_logs(t, int(idx[-1]) + 2, table)[1:]
    return _libm(
        lambda m, p_n, log_head: _zeta_tail_margin(m, p_n, zv, log_head), p[idx], logs[idx]
    )


def log_substitution_suite(
    table: PrimeTable, n_min: int = CRITERION_FLOOR, n_max: int = 10**5
) -> SuiteResult:
    """Margin sweep of log log N_n + 0.1253/log p_n - log p_n > 0 on [n_min, n_max]."""
    if n_min < CRITERION_FLOOR:
        raise ValueError(f"hypothesis needs n >= {CRITERION_FLOOR}, got {n_min}")
    require_primes(table, n_max)
    return _sweep(
        "log_substitution",
        [(
            None,
            partial(_log_substitution_blocks, table, n_min, n_max),
            partial(_log_substitution_margins, table, n_min),
        )],
        lambda _, i: at_60_digits(_log_substitution_margin, lambda: (
            int(table.primes[n_min + i - 1]), exact_log(table, "primorial", n_min + i)
        )),
        lambda _, i: f"n={n_min + i}",
    )


def psi_ratio_bound_suite(
    table: PrimeTable,
    ts: tuple[int, ...] = (3, 4, 5, 6, 7),
    n_min: int = CRITERION_FLOOR,
    n_max: int = 10**5,
) -> SuiteResult:
    """Margin sweep of the certified psi-ratio bound minus the exact ratio
    exp(log psi_t(N_n)/N_n), per t, over [n_min, n_max]: one column, the t
    of ts in turn (_psi_ratio_blocks)."""
    if n_min < CRITERION_FLOOR:
        raise ValueError(f"bound needs n >= {CRITERION_FLOOR}, got {n_min}")
    require_primes(table, n_max)
    size = n_max - n_min + 1

    def recheck(_, i):
        t, n = ts[i // size], n_min + i % size
        return at_60_digits(_psi_ratio_margin, lambda: (
            int(table.primes[n - 1]), exact_log(table, "primorial", n),
            mpmath.zeta(t), exact_log(table, "psi_ratio", n, t),
        ))

    return _sweep(
        "psi_ratio_bound",
        [(
            None,
            partial(_psi_ratio_blocks, ts, table, n_min, n_max),
            partial(_psi_ratio_margins, ts, table, n_min, n_max),
        )],
        recheck,
        lambda _, i: f"t={ts[i // size]},n={n_min + i % size}",
    )
