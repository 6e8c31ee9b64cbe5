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
60 digits (primes.certify) where neither decides.  const gives each its
constants: the compiled floats for math and numpy, gamma and the decimals at
the working precision for mpmath.  A screen reads the libm inputs of its
formula and states beta, a bound on its distance to the libm value at each
index; libm runs only at the indices that the estimate +- beta cannot
decide, from the inputs the screen kept there.  criterion decides one
index from libm, re-deciding at 60 digits a margin within its own error
bound of zero; find_crossover_index gallops and then bisects over these
certified decisions, as the left side falls with n, and admissible_t scans
them over t.
The four suites hand their columns to one sweep, _sweep, the zeta tail and
psi ratio suites one column per t.  _sweep certifies every margin it takes
with the band 1e-9, at 60 digits from logs of exact products (exact_log); a
range without points reports SKIPPED.  The margins of both t-indexed suites
rise with t (the lemma above _zeta_tail_error), so once the least t's column is
screened, each later column whose certified floor lies above the worst so
far and the band is counted, not screened: a suite's points are every
index it certifies, by its screen or by the lemma.  zeta(2) and zeta(3) are
pinned to their series' output.
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
from itertools import islice

import numpy as np

from . import primorial
from .errors import CoverageError
from .primes import (
    PrimeTable,
    blocks,
    certify,
    libm_map,
    mpmath,
    nth_prime_bound,
    prefix_at,
    prefix_blocks,
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


# What _zeta_series(t) returns for t = 2 and 3, as float.hex.  The 2.2e7
# terms of t = 2 take about 0.2 s and 32 MB, the 79,371 of t = 3, which every
# `verify-bounds` reads, about 1 ms; no closed form has these bits (numpy's
# power, which the series sums, is not correctly rounded), and printed digits
# of `ratio` and the bound suites depend on them.  A test re-runs the series.
_PINNED_ZETAS = {
    2: ZetaValue(
        t=2,
        value=float.fromhex("0x1.a51a6625307d4p+0"),
        abs_error_bound=float.fromhex("0x1.f4a3ef04b4024p-49"),
        excess=float.fromhex("0x1.4a34cc4a60fa7p-1"),
    ),
    3: ZetaValue(
        t=3,
        value=float.fromhex("0x1.33ba004f00621p+0"),
        abs_error_bound=float.fromhex("0x1.0acb18ea84ca5p-49"),
        excess=float.fromhex("0x1.9dd002780310ap-3"),
    ),
}


@lru_cache(maxsize=None)
def zeta(t: int) -> ZetaValue:
    """zeta(t) from _zeta_series(t); for t = 2 and 3, that series' pinned output."""
    return _PINNED_ZETAS[t] if t in _PINNED_ZETAS else _zeta_series(t)


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
    certified with the band _LHS_ERROR of the left side plus the zeta error:
    the sign of the libm margin, or of the 60-digit one where that margin
    lies within the band, and then precision_critical is True.
    """
    z = zeta(t)
    if n < 2:
        raise ValueError(f"criterion needs n >= 2, got {n}")
    lhs_excess = _criterion_lhs_at(n, table)
    margin = z.excess - lhs_excess
    p_n = int(table.primes[n - 1])
    certified, rechecked = certify(
        margin,
        _LHS_ERROR * lhs_excess + z.abs_error_bound,
        lambda m, p, theta, zeta_t: zeta_t - 1 - _lhs_excess(m, p, theta),
        lambda: (p_n, exact_log(table, "primorial", n), mpmath.zeta(t)),
    )
    return CriterionReport(
        t=t,
        n=n,
        p_n=p_n,
        lhs=1.0 + lhs_excess,
        rhs=z.value,
        margin=margin,
        satisfied=certified > 0.0,
        precision_critical=rechecked,
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
# numpy over the range, block by block, from the formula's libm inputs: p_n,
# theta, zeta(t), x, and the libm prefix sums, formed once per screened
# column.  It states beta, a bound on the distance to the libm margin at each
# index, and hands the inputs on; _sweep evaluates the formula by libm from
# them where the screen cannot decide, and by mpmath in the band.  The two
# share every input, so beta covers only numpy's per-index operations.  Error
# model: numpy's power, expm1, log1p, log and exp are within 16 ulp of the
# exact value per call, libm's within 1; u = 2^-53.  On samples of the suites'
# inputs, against 200-bit values, numpy was within 0.63 ulp and libm within
# 0.51 (measured).


def _libm(formula, *columns: np.ndarray) -> np.ndarray:
    """formula(math, columns[0][i], ...) for each i, the inputs gathered at
    the indices a sweep takes."""
    rows = zip(*(c.tolist() for c in columns))
    return np.array([formula(math, *row) for row in rows], dtype=np.float64)


def _one_block(screen, *inputs) -> list[tuple]:
    """A column screen of a single block: screen(*inputs) at offset 0, and
    the inputs."""
    return [(0, *screen(*inputs), inputs)]


def _mertens_logs(p: np.ndarray) -> np.ndarray:
    """-log(1 - 1/p) from libm at each p, the terms of log prod (1 - 1/p)^-1."""
    return -libm_map(math.log1p, -1.0 / p)


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
    `acc += log1p(-p^-t)`: p^-t is libm's pow of p and -t as floats,
    math.pow(p, -t) at each prime, and numpy's negation is exact."""
    powers = libm_map(math.pow, table.primes[:n], -t)
    return np.cumsum(libm_map(math.log1p, np.negative(powers, out=powers)))


def _zeta_tail_margin(m, p, zeta_value, log_head):
    """exp(2/p_n) - zeta(t) prod_{p <= p_n} (1 - p^-t) from the log of that
    product, log_head."""
    return m.exp(2.0 / p) - zeta_value * m.exp(log_head)


def _zeta_tail_screen(
    p: np.ndarray, zeta_value: np.ndarray, log_head: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _zeta_tail_margin and beta from the margin's libm
    inputs, which _sweep gathers to evaluate the formula over: p = p_n,
    zeta(t) and log_head, the libm sums.  The exps of 2/p_n and of log_head
    differ from libm's by 17 ulp, so G = exp(2/p_n) and, with the product's
    rounding, P = zeta(t) exp(log_head) by under 2^-47 of themselves; the
    subtraction and the sweep's comparisons with beta add under 4u
    |estimate|: beta = 2^-47 (G + P) + 2^-51 |estimate|."""
    growth = np.exp(2.0 / p)
    prod = zeta_value * np.exp(log_head)
    est = growth - prod
    return est, 2.0**-47 * (growth + prod) + 2.0**-51 * np.abs(est)


def _zeta_tail_block(t: int, table: PrimeTable, n_max: int) -> list[tuple]:
    """The one block of column t over 2 <= n <= n_max, its libm log_head
    summed once."""
    p, log_head = table.primes[1:n_max], _zeta_tail_logs(t, n_max, table)[1:]
    return _one_block(_zeta_tail_screen, p, np.broadcast_to(zeta(t).value, p.size), log_head)


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
    """_sweep's blocks (offset, est, beta, inputs) of _log_substitution_screen
    over n_min <= n <= n_max, offset counted from n_min."""
    theta = table.theta_upto(n_max)
    for a, b in blocks(n_min, n_max + 1):
        inputs = (table.primes[a - 1 : b - 1], theta[a:b])
        yield (a - n_min, *_log_substitution_screen(*inputs), inputs)


def _psi_ratio_scale(m, p, theta):
    """exp(gamma + 2/p_n) (log log N_n + 1.1253 / log p_n) from p_n and theta =
    log N_n, which divided by zeta(t) bounds psi_t(N_n)/N_n."""
    shift = const(m, MERTENS_SHIFT)
    return m.exp(const(m, EULER_GAMMA) + 2.0 / p) * (m.log(theta) + shift / m.log(p))


def _psi_ratio_margin(m, p, theta, zeta_value, log_ratio):
    """The psi ratio bound less psi_t(N_n)/N_n, from log_ratio = log psi_t(N_n)/N_n."""
    return _psi_ratio_scale(m, p, theta) / zeta_value - m.exp(log_ratio)


def _psi_ratio_screen(
    p: np.ndarray, theta: np.ndarray, zeta_value: np.ndarray, logs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _psi_ratio_margin and beta from the margin's libm
    inputs, which _sweep gathers to evaluate the formula over: p = p_n,
    theta = log N_n, zeta(t) and logs, the compensated sums of
    primorial.psi_ratio_logs.  The scales differ from libm's by under 37
    2^-52 of themselves (17 ulp for the exp, 19 for log log N_n + 1.1253 /
    log p_n, and the product's rounding), and the bounds B by 38; the exps
    of logs by 17 ulp of R = exp(logs).  The subtraction and the sweep's
    comparisons with beta add under 4u |estimate|:
    beta = 2^-52 (42 B + 17 R) + 2^-51 |estimate|."""
    bound = _psi_ratio_scale(np, p, theta) / zeta_value
    ratio = np.exp(logs)
    est = bound - ratio
    return est, 2.0**-52 * (42.0 * bound + 17.0 * ratio) + 2.0**-51 * np.abs(est)


def _psi_ratio_blocks(t: int, table: PrimeTable, n_min: int, n_max: int) -> Iterator[tuple]:
    """_sweep's blocks (offset, est, beta, inputs) of _psi_ratio_screen over
    n_min <= n <= n_max, offset counted from n_min.  The walk sums the libm
    terms from n = 1; the blocks reaching n_min are screened from there."""
    theta = table.theta_upto(n_max)
    zeta_value = zeta(t).value
    for a, p, logs in prefix_blocks(table.primes[:n_max], partial(primorial.psi_ratio_logs, t=t)):
        k = max(n_min - 1 - a, 0)  # n = a + 1 + k is the block's first n >= n_min
        if k < p.size:
            n = a + 1 + k
            inputs = (
                p[k:], theta[n : a + 1 + p.size],
                np.broadcast_to(zeta_value, p.size - k), logs[k:],
            )
            yield (n - n_min, *_psi_ratio_screen(*inputs), inputs)


# The lemma behind the column floors.  With P(n) = prod_{p <= p_n} (1 - 1/p)^-1
# and U_t(n) = prod_{p > p_n} (1 - p^-t)^-1, which falls strictly as t grows,
# psi_t(N_n)/N_n = P(n) U_t(n) / zeta(t), so the exact margins read
#   psi ratio:  zeta(t) m_t(n) = S(n) - P(n) U_t(n), S the t-free scale,
#   zeta tail:  m_t(n) = exp(2/p_n) - U_t(n),
# and for t > t0: zeta(t) m_t(n) > zeta(t0) m_t0(n), and m_t(n) - m_t0(n) =
# U_t0(n) - U_t(n) is at least its first factor's difference, at q = p_(n+1):
# 1/(1 - q^-t0) - 1/(1 - q^-t) >= q^-t0 - q^-t >= g = q^-t0 (1 - 1/q), which
# falls as q grows, so any q >= p_(n_max+1) gives a g for every n <= n_max.
# A floor turns lo, a lower bound on every float margin of column t0, into
# one on column t's through E_t, a bound on |float margin - exact margin|.


def _zeta_tail_error(n_max: int, t: int) -> float:
    """E_t of the zeta tail margins, 2 <= n <= n_max, in the error model above.

    exp(2/p_n) is within 3u of G = exp(2/p_n) < 2.  Each term log1p(-p^-t),
    p^-t <= 1/4 within 2u, is within (4/3) 2u + 2u < 4.7u of itself; all are
    negative and every partial product of the (1 - p^-t) lies above
    1/zeta(t), so each exact sum A_n has |A_n| <= log zeta(t) and the terms'
    errors add under 4.7u log zeta(t).  The plain cumsum adds at most u (1 +
    2^-20) sum_{j <= n} |A_j| <= 1.01 u n log zeta(t), the term that
    dominates (a p^-t that underflows adds 2^-1074 more per term).  The exp
    and the product with zeta(t) add 3u of H = zeta(t) exp(A_n) <= zeta(t),
    zeta's own error at most abs_error_bound, as exp(A_n) <= 1, and the
    subtraction u |margin| < 2u.  In all, under u (8 + zeta(t) (3 + (4.7 +
    1.01 n) log zeta(t))) + abs_error_bound:
    E_t = 2^-50 zeta(t) (3 + n_max log zeta(t)) + abs_error_bound,
    whose slack of over 10u absorbs the floor's own roundings."""
    z = zeta(t)
    return 2.0**-50 * z.value * (3.0 + n_max * math.log1p(z.excess)) + z.abs_error_bound


def _zeta_tail_floor(n_max: int, t0: int, lo: float, t: int) -> float:
    """A lower bound on every float zeta tail margin of column t >= t0 for 2
    <= n <= n_max, from lo, one on column t0's: the exact m_t0 >= lo - E_t0,
    m_t >= m_t0 + g with g at q = nth_prime_bound(n_max + 1) >= p_(n_max+1)
    (0 for t = t0), and the float m_t >= m_t - E_t."""
    q = float(nth_prime_bound(n_max + 1))
    g = q**-t0 * (1.0 - 1.0 / q) if t > t0 else 0.0
    return lo + g - _zeta_tail_error(n_max, t0) - _zeta_tail_error(n_max, t)


def _psi_ratio_error(table: PrimeTable, n_min: int, n_max: int, t: int) -> float:
    """E_t of the psi ratio margins over [n_min, n_max], in the error model
    above, wherever the ratio R is at most smax = S(p_(n_min), log N_(n_max)),
    which bounds S = _psi_ratio_scale over the range, as exp(2/p) and 1/log
    p fall and log log N_n rises with n.

    S: the exp of gamma + 2/p_n is within 3.3u, log log N_n within 2.5u (the
    compensated sum of libm logs is within 4u of log N_n, and log log N_n >
    9.8), 1.1253 / log p_n within 3.3u, and the sum and product add 2u: 9u
    of S.  The bound B = S / zeta(t) <= S adds u, and zeta's own error at
    most abs_error_bound B, as zeta(t) >= 1.  Each term log1p(x) of L = log R,
    x correctly rounded, is within 3u of itself and the compensated sum 2u
    more, so L is within 5u L and R within u (5 L + 2) of itself.  The
    subtraction adds u (B + R).  With R, B <= smax, and smax > 17 over n >=
    2263, that is under u smax (14 + 5 log smax) + smax abs_error_bound:
    E_t = smax (2^-49 (1 + log smax) + abs_error_bound),
    its first term at least twice the u term; that slack absorbs the
    floor's own roundings."""
    smax = _psi_ratio_scale(math, int(table.primes[n_min - 1]), table.theta_upto(n_max)[n_max])
    return smax * (2.0**-49 * (1.0 + math.log(smax)) + zeta(t).abs_error_bound)


def _psi_ratio_floor(
    table: PrimeTable, n_min: int, n_max: int, t0: int, lo: float, t: int
) -> float:
    """A lower bound on every float psi ratio margin of column t >= t0 over
    [n_min, n_max], from lo, one on column t0's; -inf unless lo > E_t0.

    Where lo > 0, the float ratio of column t0 lies below its bound, so R <=
    smax and E_t0 holds: the exact m_t0 >= lo - E_t0 > 0.  Then m_t >= m_t0
    zeta(t0)/zeta(t) >= r (lo - E_t0) > 0, with r <= zeta(t0)/zeta(t) from
    both zetas' error bounds, so R < B <= smax in column t too, and the float
    m_t >= m_t - E_t.
    """
    e0 = _psi_ratio_error(table, n_min, n_max, t0)
    if lo <= e0:
        return -math.inf
    z0, z = zeta(t0), zeta(t)
    r = (z0.value - z0.abs_error_bound) / (z.value + z.abs_error_bound)
    return r * (lo - e0) - _psi_ratio_error(table, n_min, n_max, t)


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
    the limit value.  The checks and theta run on the call; the generator it
    returns walks the psi ratio sums and forms each row as it is read.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    limit_value = EXP_GAMMA / zeta(t).value
    theta = table.theta_upto(n_max)  # CoverageError before any row
    walk = prefix_blocks(table.primes[:n_max], partial(primorial.psi_ratio_logs, t=t))

    def rows():
        for a, p, logs in walk:
            cells = zip(p.tolist(), logs.tolist(), theta[a + 1 : a + 1 + p.size].tolist())
            for n, (p_n, log_ratio, theta_n) in enumerate(cells, start=a + 1):
                r = primorial_ratio(math, log_ratio, theta_n)
                yield n, p_n, r, limit_value, r / limit_value - 1.0

    return islice(rows(), 1, None)  # from n = 2


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
    less beta, the least estimate plus beta, top, and the indices kept, with
    their estimate less beta, lo, and their inputs.  Kept are the band, at
    lo = -inf, and the candidates: lo below worst and at or below cut, or
    where cut is None, at or below top so far."""
    size, least, top = 0, math.inf, math.inf
    kept, kept_lo, kept_inputs = [_NO_INDEX], [np.zeros(0)], []
    for offset, est, beta, inputs in screen():
        lo = est - beta
        least = min(least, float(np.min(lo, initial=math.inf)))
        top = min(top, float(np.min(est + beta, initial=math.inf)))
        band = np.abs(est) <= PRECISION_BAND + beta
        keep = np.flatnonzero(band | ((lo < worst) & (lo <= (top if cut is None else cut))))
        kept.append(offset + keep)
        kept_lo.append(np.where(band[keep], -math.inf, lo[keep]))
        kept_inputs.append([x[keep] for x in inputs])
        size += est.size
    gathered = [np.concatenate(x) for x in zip(*kept_inputs)]
    return size, least, top, np.concatenate(kept), np.concatenate(kept_lo), gathered


def _sweep(
    name: str,
    columns: Iterable,
    exact: Callable,
    where: Callable,
    floor: Callable | None = None,
) -> SuiteResult:
    """Worst margin over `columns`, triples (key, screen, formula) taken one at a time.

    screen() yields a column's blocks (offset, est, beta, inputs): numpy
    estimates of the float margins at the indices offset, offset + 1, ...,
    beta, a bound on |estimate - margin| at each, and the libm inputs, one
    array per argument of formula after m, each entry at its index.  The
    float margins are the formula over gathered inputs, formula(math, *row)
    at each index taken.  exact(key, i) gives the exact inputs of the margin
    at i, and each margin taken is certified with the band PRECISION_BAND,
    formula at 60 digits from them, before it is trusted; rechecked counts
    those decided at 60 digits.  The worst point is the first minimum in
    column order, as a scalar `if margin < worst` loop picks it; where(key,
    i) names it.

    The margins are taken only where the screen cannot decide: wherever the
    estimate is within PRECISION_BAND + beta of zero, and wherever the
    estimate less beta, lo, lies below the worst so far and at or below
    every estimate plus beta.  Once taken, any index whose lo is at or below
    the least margin taken is taken too, until none is left; so every other
    index holds a margin above that least one, or at or above the worst so
    far, and is neither in the band nor the first minimum.

    A pass over the blocks keeps only the band, the least estimate plus beta,
    top, and the candidates: the indices whose lo is below the worst and at
    or below top so far, filtered against the final top; it keeps their
    inputs too.  The least margin taken is at most top, as the index where
    top falls is taken, so every later round takes candidates only; should
    a recheck lift it past top, one more pass collects the indices whose lo
    is at or below it.  Margins are kept only where taken.  A column without
    such indices adds only its point count.  A sweep without points reports
    skipped.

    floor, where given, is a lemma over columns keyed by t, all of one
    point count: floor(t0, lo, t) bounds every float margin of column t >=
    t0 from below, lo being the least lo of column t0, the least key.  Once
    column t0 is screened, each later column whose floor lies above both the
    worst so far and PRECISION_BAND holds no margin in the band and none
    below the worst, so it is not screened: it adds its point count, and the
    result is the full sweep's.
    """
    columns = list(columns)
    t0 = min((key for key, _, _ in columns), default=None) if floor else None
    base = None  # the point count and least lo of column t0, once screened
    worst = math.inf
    worst_at = ""
    points = rechecked = 0
    for key, screen, formula in columns:
        if base and floor(t0, base[1], key) > max(worst, PRECISION_BAND):
            points += base[0]
            continue
        size, least, top, kept, lo, inputs = _screen_pass(screen, worst, None)
        if floor and key == t0 and size and not base:
            base = size, least
        points += size
        pick = lo <= top  # the band and the candidates below the final top
        taken, margins = [_NO_INDEX], [np.zeros(0)]
        low = math.inf  # the least margin taken
        while pick.any():
            take = kept[pick]
            got = _libm(formula, *(x[pick] for x in inputs))
            # certify's band and comparison: only these can be rechecked
            for j in np.flatnonzero(np.abs(got) <= PRECISION_BAND).tolist():
                got[j], flag = certify(
                    float(got[j]), PRECISION_BAND, formula, partial(exact, key, int(take[j]))
                )
                rechecked += flag
            taken.append(take)
            margins.append(got)
            low = min(low, float(got.min()))
            if low > top:  # a recheck lifted it past top: the candidates may not reach it
                *_, kept, lo, inputs = _screen_pass(screen, worst, low)
                top = low
            pick = (lo <= low) & ~np.isin(kept, np.concatenate(taken))
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
    with one rounding per factor; call it from the inputs of certify.

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
    counts = np.searchsorted(table.primes, xs, side="right").tolist()  # pi(x)
    logs = prefix_at(table.primes, _mertens_logs, counts)
    x = np.array(xs, dtype=np.float64)
    return _sweep(
        "mertens_product",
        [(None, partial(_one_block, _mertens_screen, x, logs), _mertens_margin)],
        lambda _, i: (xs[i], exact_log(table, "mertens", counts[i])),
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
        [(t, partial(_zeta_tail_block, t, table, n_max), _zeta_tail_margin) for t in ts],
        lambda t, i: (
            int(table.primes[i + 1]), mpmath.zeta(t), exact_log(table, "zeta_tail", i + 2, t)
        ),
        lambda t, i: f"t={t},n={i + 2}",
        floor=partial(_zeta_tail_floor, n_max),
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
        [(None, partial(_log_substitution_blocks, table, n_min, n_max), _log_substitution_margin)],
        lambda _, i: (int(table.primes[n_min + i - 1]), exact_log(table, "primorial", n_min + i)),
        lambda _, i: f"n={n_min + i}",
    )


def psi_ratio_bound_suite(
    table: PrimeTable,
    ts: tuple[int, ...] = (3, 4, 5, 6, 7),
    n_min: int = CRITERION_FLOOR,
    n_max: int = 10**5,
) -> SuiteResult:
    """Margin sweep of the certified psi-ratio bound minus the exact ratio
    exp(log psi_t(N_n)/N_n), for each t and every n_min <= n <= n_max."""
    if n_min < CRITERION_FLOOR:
        raise ValueError(f"bound needs n >= {CRITERION_FLOOR}, got {n_min}")
    require_primes(table, n_max)
    return _sweep(
        "psi_ratio_bound",
        [(t, partial(_psi_ratio_blocks, t, table, n_min, n_max), _psi_ratio_margin) for t in ts],
        lambda t, i: (
            int(table.primes[n_min + i - 1]), exact_log(table, "primorial", n_min + i),
            mpmath.zeta(t), exact_log(table, "psi_ratio", n_min + i, t),
        ),
        lambda t, i: f"t={t},n={n_min + i}",
        floor=partial(_psi_ratio_floor, table, n_min, n_max),
    )
