"""Explicit zeta values, partial Euler products, the crossover criterion,
and the bound suites behind the verification CLI.

The constant 1.1253 couples two explicit bounds.  The partial Euler product
satisfies prod_{p <= x} (1 - 1/p)^-1 <= e^gamma (log x + 1/log x) for x >= 2,
and for n >= 2263 (p_n >= 20000) the log-shift bound
log p_n < log log N_n + 0.1253 / log p_n lets log p_n be replaced by
log log N_n, turning the 1/log p_n slack into (1 + 0.1253)/log p_n.  The
resulting crossover criterion reads exp(2/p_n) * f(n) < zeta(t) with
f(n) = 1 + 1.1253 / (log p_n * log log N_n).

The criterion's left side, less 1, is one array per prime table, read by
find_crossover_index; criterion and admissible_t form the same value at one
index from the same scalar formula.  Each bound's float formula is likewise
one array function of libm calls, read by its suite.  The four suites hand
their margin columns, one per t, to one sweep, _sweep: any |margin| below 1e-9
is precision-critical and is re-derived at 60 significant digits, from
products of exact integers with one rounding per factor, kept per table and
extended from one recheck to the next, before it is trusted; a range without
points reports SKIPPED.  In the two suites with a column per t, each column
after the first has a numpy screen with a stated bound on its distance to the
libm margins, and the libm column is built only where the screen cannot rule
out the worst point or a point in the band.  zeta(2) is pinned to its series'
output rather than summed on each run.
"""

from __future__ import annotations

import math
import random
import sys
import weakref
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial

import mpmath
import numpy as np

from . import primorial
from .errors import CoverageError
from .primes import PrimeTable, compensated_prefix, libm_map, nth_prime_bound, require_primes

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


def _per_table(build: Callable[[PrimeTable], np.ndarray]) -> Callable[[PrimeTable], np.ndarray]:
    """build(table), computed once per table and dropped with the table."""
    cache: "weakref.WeakKeyDictionary[PrimeTable, np.ndarray]" = weakref.WeakKeyDictionary()

    def cached(table: PrimeTable) -> np.ndarray:
        if table not in cache:
            cache[table] = build(table)
        return cache[table]

    return cached


def _lhs_excess(expm1_2p, log_p, log_theta):
    """exp(2/p) * f - 1 = expm1(2/p) * (1 + c) + c, c = 1.1253 / (log p *
    log theta(p)), from expm1(2/p), log p and log theta(p) as floats or arrays."""
    c = MERTENS_SHIFT / (log_p * log_theta)
    return expm1_2p * (1.0 + c) + c


def _criterion_lhs_at(n: int, table: PrimeTable) -> float:
    """_criterion_lhs(table)[n - 1] from scalars, without building the array."""
    require_primes(table, n)
    p = table.primes[n - 1]
    return _lhs_excess(math.expm1(2.0 / p), math.log(p), math.log(table.theta_prefix[n]))


@_per_table
def _criterion_lhs(table: PrimeTable) -> np.ndarray:
    """exp(2/p_n) * f(n) - 1 at index n - 1, in the scalar operation order."""
    return _lhs_excess(
        libm_map(lambda p: math.expm1(2.0 / p), table.primes),
        libm_map(math.log, table.primes),
        libm_map(math.log, table.theta_prefix[1:]),
    )


def _criterion_lhs_bound(x):
    """Upper bound on _criterion_lhs at a prime x >= 41, floats or arrays:
    theta(x) at its lower bound x (1 - 1/log x)."""
    lx = np.log(x)
    return _lhs_excess(np.expm1(2.0 / x), lx, np.log(x - x / lx))


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
    significance even when the two sides agree to many digits.
    """
    z = zeta(t)
    if n < 2:
        raise ValueError(f"criterion needs n >= 2, got {n}")
    lhs_excess = _criterion_lhs_at(n, table)
    margin = z.excess - lhs_excess
    return CriterionReport(
        t=t,
        n=n,
        p_n=table.primes[n - 1],
        lhs=1.0 + lhs_excess,
        rhs=z.value,
        margin=margin,
        satisfied=margin > 0.0,
        precision_critical=abs(margin) < PRECISION_BAND,
    )


def find_crossover_index(t: int, table: PrimeTable, floored: bool = False) -> int:
    """Least index n where the criterion holds (search floor 2263 if floored).

    Confirms the criterion stays satisfied for the next CONFIRM indices;
    running off the table either way raises CoverageError.
    """
    excess = zeta(t).excess  # validates t
    start = CRITERION_FLOOR if floored else 2
    size = len(table.primes)
    # margin > 0 exactly when lhs < excess: float subtraction is 0 only on equality
    satisfied = _criterion_lhs(table)[start - 1 :] < excess
    if not satisfied.any():
        raise CoverageError(
            f"criterion for t={t} unsatisfied through index {size}; enlarge the sieve"
        )
    i = int(np.argmax(satisfied))
    hit = start + i
    if hit + CONFIRM > size:
        raise CoverageError(
            f"cannot confirm stability through index {hit + CONFIRM} "
            f"(table ends at {size}); enlarge the sieve"
        )
    after = satisfied[i + 1 : i + CONFIRM + 1]
    if not after.all():
        k = hit + 1 + int(np.argmin(after))
        raise RuntimeError(f"criterion for t={t} holds at {hit} but fails again at {k}")
    return hit


def primorial_magnitude(n: int, table: PrimeTable) -> tuple[float, int]:
    """N_n as (mantissa, exponent10) with mantissa in [1, 10), via theta."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    require_primes(table, n)
    log10 = table.theta_prefix[n] / math.log(10.0)
    exp10 = math.floor(log10)
    mant = 10.0 ** (log10 - exp10)
    if mant >= 10.0:  # guard the floor/pow rounding edge
        mant /= 10.0
        exp10 += 1
    return mant, exp10


@_per_table
def _mertens_prefix(table: PrimeTable) -> np.ndarray:
    return compensated_prefix(libm_map(lambda p: -math.log1p(-1.0 / p), table.primes))


def _mertens_products(xs: list[int], table: PrimeTable) -> np.ndarray:
    """prod_{p <= x} (1 - 1/p)^-1 for each x in xs, accumulated in log space."""
    prefix = _mertens_prefix(table)
    return libm_map(lambda x: math.exp(prefix[bisect_right(table.primes, x)]), xs)


def _zeta_tail_products(t: int, n: int, table: PrimeTable) -> np.ndarray:
    """zeta(t) * prod_{p <= p_k} (1 - p^-t) for 1 <= k <= n.  The log1p terms
    are summed left to right without compensation, bit for bit the scalar
    loop `acc += log1p(-p^-t)`."""
    zv = zeta(t).value
    acc = np.cumsum(libm_map(lambda p: math.log1p(-float(p) ** (-t)), table.primes[:n]))
    return zv * libm_map(math.exp, acc.tolist())


# The column screens: numpy estimates of a suite's libm margins with a bound
# beta on their distance.  Error model: numpy's power, log1p and exp are within
# 16 ulp of the exact value per call, libm's within 1; u = 2^-53.  On samples
# of the suites' inputs, against 200-bit values, numpy was within 0.63 ulp and
# libm within 0.51 (measured).


def _zeta_tail_screen(
    t: int, primes: np.ndarray, growth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of growth - _zeta_tail_products(t, n, table)[1:], n =
    len(primes), primes as float64, and beta >= |estimate - margin| at each
    index.

    Each term log1p(-p^-t), p^-t <= 1/4, moves by at most 4/3 of the relative
    error of p^-t, so the two columns' terms, all negative, differ by under
    (16 (4/3 + 1) + 4/3 + 1) 2^-52 < 2^-46.4 of their size.  With A_k = |S_k|,
    S the compensated sums here (each within 2u A_k of its terms' exact sum),
    the libm column's plain cumsum is within u (1 + 2^-20) sum_{j <= k} A_j of
    its terms' exact sum, so the sums differ by at most delta_k = 2^-46 A_k +
    u (1 + 2^-20) sum_{j <= k} A_j + 2^-1000, the last for a p^-t that
    underflows.  The two exps and products with zeta(t) add under 2^-47 of
    P = zeta(t) exp(S), and both subtractions from the shared growth and the
    sweep's comparisons with beta under 4u |estimate|:
    beta = P (1.0002 delta + 2^-47) + 2^-51 |estimate|.
    """
    acc = compensated_prefix(np.log1p(-(primes ** -float(t))))[1:]
    size = np.abs(acc)
    delta = 2.0**-46 * size + 2.0**-53 * (1.0 + 2.0**-20) * np.cumsum(size) + 2.0**-1000
    prod = zeta(t).value * np.exp(acc[1:])
    est = growth - prod
    return est, prod * (1.0002 * delta[1:] + 2.0**-47) + 2.0**-51 * np.abs(est)


def _log_substitution_margins(table: PrimeTable, n_min: int, n_max: int) -> np.ndarray:
    """log log N_n + 0.1253 / log p_n - log p_n for n_min <= n <= n_max."""
    lp = libm_map(math.log, table.primes[n_min - 1 : n_max])
    return libm_map(math.log, table.theta_prefix[n_min : n_max + 1]) + LOG_SHIFT / lp - lp


def _psi_ratio_scales(table: PrimeTable, n_min: int, n_max: int) -> np.ndarray:
    """exp(gamma + 2/p_n) (log log N_n + 1.1253 / log p_n) for n_min <= n <= n_max,
    which divided by zeta(t) bounds psi_t(N_n)/N_n."""
    primes = table.primes[n_min - 1 : n_max]
    lln = libm_map(math.log, table.theta_prefix[n_min : n_max + 1])
    lp = libm_map(math.log, primes)
    return libm_map(lambda p: math.exp(EULER_GAMMA + 2.0 / p), primes) * (
        lln + MERTENS_SHIFT / lp
    )


def _psi_ratio_margins(terms: np.ndarray, bound: np.ndarray, n_min: int) -> np.ndarray:
    """bound - psi_t(N_n)/N_n for n_min <= n <= len(terms), from the
    _psi_ratio_terms of p_1..p_n, bit for bit the exp of log_psi_ratio_prefix."""
    logs = compensated_prefix(libm_map(math.log1p, terms.tolist()))[n_min:]
    return bound - libm_map(math.exp, logs.tolist())


def _psi_ratio_screen(
    terms: np.ndarray, bound: np.ndarray, n_min: int
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of _psi_ratio_margins(terms, bound, n_min) and beta >=
    |estimate - margin|, under the error model of _zeta_tail_screen.

    Both columns read the same terms and bound.  Their log1p terms, all
    positive, differ by at most 17 2^-52 of their size, and each compensated
    sum is within 2u of its terms' exact sum, so the sums L (here) and the
    libm column's differ by under 19.01 2^-52 L.  The two exps add under
    17.01 2^-52 of R = exp(L), and the subtractions from bound and the sweep's
    comparisons with beta under 4u |estimate|:
    beta = 2^-47 R (L + 1) + 2^-51 |estimate|.
    """
    logs = compensated_prefix(np.log1p(terms))[n_min:]
    ratio = np.exp(logs)
    est = bound - ratio
    return est, 2.0**-47 * ratio * (logs + 1.0) + 2.0**-51 * np.abs(est)


def admissible_t(n: int, table: PrimeTable) -> int | None:
    """Largest t >= 2 whose criterion holds at index n; None if even t = 2 fails.

    Satisfaction is downward closed in t because zeta decreases, so an
    ascending scan stopping at the first failure is exact.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lhs = _criterion_lhs_at(n, table)
    t = 2
    while zeta(t).excess > lhs:
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
        rows.append((n, table.primes[n - 1], r, limit_value, r / limit_value - 1.0))
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

    margins() builds a column's float margins.  Every margin inside
    PRECISION_BAND is replaced by recheck(key, i), its 60-digit value, before
    it is trusted.  The worst point is the first minimum in column order, as a
    scalar `if margin < worst` loop picks it; where(key, i) names it.

    screen() gives cheaper estimates of the same margins and beta, a bound on
    |estimate - margin| at each index.  Once a column has set the worst, a
    later one is built only where its screen leaves room for a margin below
    that worst or inside the band; else it adds only its point count, which
    leaves every field as building it would.  A suite's first column is always
    built, so a one-column suite passes screen=None.  A sweep without points
    reports skipped.
    """
    worst = math.inf
    worst_at = ""
    points = rechecked = 0
    for key, screen, build in columns:
        if worst < math.inf:
            est, beta = screen()
            if not ((est - beta < worst).any() or (np.abs(est) < PRECISION_BAND + beta).any()):
                points += est.size
                continue
        margins = build()
        band = np.flatnonzero(np.abs(margins) < PRECISION_BAND).tolist()
        for i in band:
            margins[i] = recheck(key, i)
        if margins.size:
            i = int(np.argmin(margins))
            if margins[i] < worst:
                worst = float(margins[i])
                worst_at = where(key, i)
        points += margins.size
        rechecked += len(band)
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
    for p in table.primes[k:n]:
        prods = [out * f for out, f in zip(prods, factors(p))]
    kept[slot] = (n, prods)
    return prods


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
    lx = libm_map(math.log, xs)
    margins = EXP_GAMMA * (lx + 1.0 / lx) - _mertens_products(xs, table)
    return _sweep(
        "mertens_product",
        [(None, None, lambda: margins)],
        lambda _, i: _mertens_margin_mp(xs[i], table),
        lambda _, i: f"x={xs[i]}",
    )


def _mertens_margin_mp(x: int, table: PrimeTable) -> float:
    n = bisect_right(table.primes, x)
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
    primes = np.array(table.primes[:n_max], dtype=np.float64)  # once per suite
    growth = libm_map(lambda p: math.exp(2.0 / p), table.primes[1:n_max])
    for t in ts:
        yield (
            t,
            partial(_zeta_tail_screen, t, primes, growth),
            lambda t=t: growth - _zeta_tail_products(t, n_max, table)[1:],
        )


def _zeta_tail_margin_mp(t: int, n: int, table: PrimeTable) -> float:
    # prod_{p <= p_n} (1 - p^-t) = prod (p^t - 1) / prod p^t
    with mpmath.workdps(60):
        num, den = _prefix_products(table, ("zeta_tail", t), n, lambda p: (p**t - 1, p**t))
        head = num / den
        return float(mpmath.exp(mpmath.mpf(2) / table.primes[n - 1]) - mpmath.zeta(t) * head)


def log_substitution_suite(
    table: PrimeTable, n_min: int = CRITERION_FLOOR, n_max: int = 10**5
) -> SuiteResult:
    """Margin sweep of log log N_n + 0.1253/log p_n - log p_n > 0 on [n_min, n_max]."""
    if n_min < CRITERION_FLOOR:
        raise ValueError(f"hypothesis needs n >= {CRITERION_FLOOR}, got {n_min}")
    require_primes(table, n_max)
    return _sweep(
        "log_substitution",
        [(None, None, lambda: _log_substitution_margins(table, n_min, n_max))],
        lambda _, i: _log_substitution_margin_mp(n_min + i, table),
        lambda _, i: f"n={n_min + i}",
    )


def _log_substitution_margin_mp(n: int, table: PrimeTable) -> float:
    with mpmath.workdps(60):
        (primorial_n,) = _prefix_products(table, "primorial", n, lambda p: (p,))
        lln = mpmath.log(mpmath.log(primorial_n))
        lp = mpmath.log(table.primes[n - 1])
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
    scales = _psi_ratio_scales(table, n_min, n_max)
    primes = np.array(table.primes[:n_max], dtype=np.float64)  # once per suite
    for t in ts:
        terms, _ = primorial._psi_ratio_terms(primes, t)
        bound = scales / zeta(t).value
        yield (
            t,
            partial(_psi_ratio_screen, terms, bound, n_min),
            partial(_psi_ratio_margins, terms, bound, n_min),
        )


def psi_ratio_mp(t: int, n: int, table: PrimeTable) -> tuple[mpmath.mpf, mpmath.mpf]:
    """psi_t(N_n)/N_n and log log N_n at the working precision, from products
    of exact integers: psi_t(N_n)/N_n = prod (p^t - 1) / prod ((p - 1) p^(t-1))."""
    num, den, primorial_n = _prefix_products(
        table, ("psi_ratio", t), n, lambda p: (p**t - 1, (p - 1) * p ** (t - 1), p)
    )
    return num / den, mpmath.log(mpmath.log(primorial_n))


def _psi_ratio_margin_mp(t: int, n: int, table: PrimeTable) -> float:
    with mpmath.workdps(60):
        ratio, lln = psi_ratio_mp(t, n, table)
        p_n = table.primes[n - 1]
        lp = mpmath.log(p_n)
        bound = (
            mpmath.exp(mpmath.euler + mpmath.mpf(2) / p_n)
            / mpmath.zeta(t)
            * (lln + mpmath.mpf("1.1253") / lp)
        )
        return float(bound - ratio)
