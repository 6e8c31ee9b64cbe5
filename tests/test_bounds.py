"""Zeta machinery, crossover search, and the explicit-inequality sweeps."""

import dataclasses
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest

from robinpsi import (
    CoverageError,
    admissible_t,
    build_table,
    criterion,
    find_crossover_index,
    log_substitution_suite,
    mertens_bound_suite,
    primorial_magnitude,
    psi_ratio_bound_suite,
    ratio_curve,
    verify_tfree_robin,
    zeta,
    zeta_tail_bound_suite,
)
from robinpsi import bounds, primorial, robin
from robinpsi.bounds import (
    CRITERION_FLOOR,
    EULER_GAMMA,
    EXP_GAMMA,
    LOG_SHIFT,
    MERTENS_SHIFT,
)
from robinpsi.primes import (
    at_60_digits,
    compensated_prefix,
    libm_log,
    nth_prime_bound,
    prefix_at,
)

from conftest import factor_by_division, spy_60_digits

CROSSOVERS = [(3, 10), (4, 24), (5, 79), (6, 509), (7, 10596)]


def test_constants_match_high_precision():
    with mpmath.workdps(30):
        assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=0)
        assert EXP_GAMMA == pytest.approx(float(mpmath.exp(mpmath.euler)), abs=0)
    assert MERTENS_SHIFT == 1.0 + 0.1253


def test_zeta_closed_forms():
    assert zeta(2).value == pytest.approx(math.pi**2 / 6, abs=1e-14)
    assert zeta(4).value == pytest.approx(math.pi**4 / 90, abs=1e-14)
    assert zeta(6).value == pytest.approx(math.pi**6 / 945, abs=1e-14)


def test_zeta_error_bound_is_honest():
    with mpmath.workdps(30):
        for t in range(2, 41):
            z = zeta(t)
            err = abs(mpmath.mpf(z.value) - mpmath.zeta(t))
            assert err <= z.abs_error_bound
            assert z.abs_error_bound <= 1e-14
            assert z.value == 1.0 + z.excess


def test_zeta_excess_decreases():
    values = [zeta(t).excess for t in range(2, 30)]
    assert all(a > b > 0.0 for a, b in zip(values, values[1:]))


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1)


def test_zeta_2_is_the_series_output():
    # zeta(2) returns pinned bits; the series it stands for must still give them
    pinned, series = zeta(2), bounds._zeta_series(2)
    assert pinned.t == series.t == 2
    for field in ("value", "abs_error_bound", "excess"):
        assert getattr(pinned, field).hex() == getattr(series, field).hex()


def test_criterion_lhs_values(small_table):
    # lhs = exp(2/p_n) * f(n) with f(n) = 1 + 1.1253 / (log p_n * log log N_n)
    with mpmath.workdps(40):
        for n in (2, 10, 100, 2263):
            primes = small_table.primes[:n].tolist()
            theta = mpmath.fsum(mpmath.log(q) for q in primes)
            f = 1 + mpmath.mpf("1.1253") / (mpmath.log(primes[-1]) * mpmath.log(theta))
            ref = mpmath.exp(mpmath.mpf(2) / primes[-1]) * f
            assert criterion(3, n, small_table).lhs == pytest.approx(float(ref), rel=1e-13)
    rep = criterion(3, 10, small_table)
    assert rep.lhs / math.exp(2.0 / 29) == pytest.approx(1.1071956421011722, rel=1e-13)


def test_criterion_lhs_decreases(small_table):
    reports = [criterion(3, n, small_table) for n in range(2, 2000)]
    lhs = [r.lhs for r in reports]
    f = [r.lhs / math.exp(2.0 / r.p_n) for r in reports]
    assert all(a > b > 1.0 for a, b in zip(lhs, lhs[1:]))
    assert all(a > b > 1.0 for a, b in zip(f, f[1:]))


def test_criterion_flips_between_9_and_10(small_table):
    before = criterion(3, 9, small_table)
    after = criterion(3, 10, small_table)
    assert not before.satisfied
    assert after.satisfied
    # forty-digit reference: exp(2/p_n) * f(n) with p_9 = 23, p_10 = 29
    assert before.lhs == pytest.approx(1.2232852574089180, rel=1e-13)
    assert after.lhs == pytest.approx(1.1862485957291895, rel=1e-13)
    assert after.rhs == pytest.approx(1.2020569031595943, rel=1e-13)
    assert after.margin == pytest.approx(after.rhs - after.lhs, abs=1e-12)
    assert after.p_n == 29


def test_criterion_margin_sign_near_crossover(small_table):
    # the t = 7 crossover margin is ~6.5e-8; check its sign against mpmath
    rep = criterion(7, 10596, small_table)
    assert rep.satisfied
    assert not rep.precision_critical
    with mpmath.workdps(40):
        primes = small_table.primes[:10596].tolist()
        theta = mpmath.fsum(mpmath.log(q) for q in primes)
        p = mpmath.mpf(primes[-1])
        c = mpmath.mpf("1.1253") / (mpmath.log(p) * mpmath.log(theta))
        ref = mpmath.zeta(7) - mpmath.exp(2 / p) * (1 + c)
        assert ref > 0
        assert rep.margin == pytest.approx(float(ref), rel=1e-9)


def test_criterion_domain(small_table):
    with pytest.raises(ValueError):
        criterion(3, 1, small_table)


def test_index_readers_raise_coverage_error_past_the_table(small_table):
    size = len(small_table)
    criterion(3, size, small_table)
    primorial_magnitude(size, small_table)
    admissible_t(size, small_table)
    with pytest.raises(CoverageError):
        criterion(3, size + 1, small_table)
    with pytest.raises(CoverageError):
        primorial_magnitude(size + 1, small_table)
    with pytest.raises(CoverageError):
        admissible_t(size + 1, small_table)


@pytest.mark.parametrize("t,expected", CROSSOVERS)
def test_crossover_indices(small_table, t, expected):
    n1 = find_crossover_index(t, small_table)
    assert n1 == expected
    assert criterion(t, n1, small_table).satisfied
    assert not criterion(t, n1 - 1, small_table).satisfied
    # spot-check persistence past the crossover
    for n in (n1 + 1, n1 + 50, n1 + 100):
        assert criterion(t, n, small_table).satisfied


def test_crossover_unconstrained_t2(small_table):
    assert find_crossover_index(2, small_table) == 5


def test_crossover_floored_mode(small_table):
    assert find_crossover_index(2, small_table, floored=True) == CRITERION_FLOOR
    assert find_crossover_index(3, small_table, floored=True) == CRITERION_FLOOR
    assert find_crossover_index(7, small_table, floored=True) == 10596


def test_crossover_needs_coverage():
    tiny = build_table(1000)
    with pytest.raises(CoverageError):
        find_crossover_index(7, tiny)
    # 168 primes, none at or past the floor: an empty search, not a ValueError
    assert len(tiny) < CRITERION_FLOOR
    with pytest.raises(CoverageError, match="through index 168"):
        find_crossover_index(2, tiny, floored=True)
    # a table that ends 20 indices past the t = 3 crossover n = 10
    short = build_table(113)  # p_30 = 113
    assert find_crossover_index(3, short) == 10


@pytest.mark.parametrize("t,expected", CROSSOVERS)
def test_crossover_on_a_table_that_ends_at_n1(small_table, t, expected):
    # the tail past n1 holds by the lemma, so the search needs primes to
    # p_n1 and no further; one prime fewer leaves nothing that holds
    p_n1 = int(small_table.primes[expected - 1])
    assert find_crossover_index(t, build_table(p_n1)) == expected
    with pytest.raises(CoverageError, match=f"through index {expected - 1};"):
        find_crossover_index(t, build_table(p_n1 - 1))


# The scalar criterion formula and the linear search loop, kept as the oracle.
def _scalar_lhs_excess(n, table):
    p = int(table.primes[n - 1])
    lp = math.log(p)
    lln = math.log(table.theta_upto(len(table))[n])
    c = MERTENS_SHIFT / (lp * lln)
    return math.expm1(2.0 / p) * (1.0 + c) + c


def _scalar_margin(t, n, table):
    return zeta(t).excess - _scalar_lhs_excess(n, table)


def _scalar_crossover(t, table, floored, margin):
    start = CRITERION_FLOOR if floored else 2
    size = len(table.primes)
    hit = 0
    for n in range(start, size + 1):
        if margin(n) > 0.0:
            hit = n
            break
    if not hit:
        raise CoverageError(
            f"criterion for t={t} unsatisfied through index {size}; enlarge the sieve"
        )
    return hit


def _outcome(search):
    try:
        return search()
    except CoverageError as exc:
        return str(exc)


def _scalar_admissible_t(n, table):
    t = 2
    while _scalar_margin(t, n, table) > 0.0:
        t += 1
    return t - 1 if t > 2 else None


def _libm_lhs(table):
    """The scalar oracle's left side less 1 at every index n - 1, n >= 1."""
    return np.array([_scalar_lhs_excess(n, table) for n in range(1, len(table) + 1)])


@pytest.fixture(scope="module")
def table_2_21():
    table = build_table(1 << 21)
    return table, _libm_lhs(table)


def test_criterion_matches_scalar_oracle(table_2_21):
    table, libm = table_2_21
    size = len(table)
    oracle_lhs = [None] + libm.tolist()
    spots = [2, 3, 9, 10, CRITERION_FLOOR, size] + list(range(5, size, 997))
    for t in range(2, 11):
        excess = zeta(t).excess
        oracle = [None, None] + [excess - v for v in oracle_lhs[2:]]
        for n in spots:
            assert criterion(t, n, table).margin.hex() == oracle[n].hex()
        for floored in (False, True):
            expected = _outcome(lambda: _scalar_crossover(t, table, floored, oracle.__getitem__))
            assert _outcome(lambda: find_crossover_index(t, table, floored)) == expected
    assert [admissible_t(n, table) for n in spots] == [_scalar_admissible_t(n, table) for n in spots]


@pytest.fixture(scope="module")
def t8_table():
    """The one table `table1 --t-min 8 --t-max 8` sieves."""
    return build_table(bounds.crossover_reach(8))


@pytest.fixture(scope="module")
def t8_libm_lhs(t8_table):
    return t8_table, _libm_lhs(t8_table)


def test_crossover_reach_is_certified(t8_libm_lhs):
    table, libm = t8_libm_lhs
    primes = table.primes.astype(np.float64)
    big = primes >= 41
    p = primes[big]
    assert (table.theta_upto(len(table))[1:][big] > p * (1.0 - 1.0 / np.log(p))).all()
    assert (libm[big] <= bounds._criterion_lhs_bound(p)).all()
    assert bounds.crossover_reach(8) <= 1.75e7
    for t in range(2, 9):
        reach = bounds.crossover_reach(t)
        for floored in (False, True):
            n1 = find_crossover_index(t, table, floored)
            assert reach >= table.primes[n1 - 1]
    ts = range(2, 65)  # the CLI's t range; past t = 18 the crossover prime overflows a float
    assert [bounds.crossover_reach(t) == math.inf for t in ts] == [t > 18 for t in ts]


def test_dusart_reach_bounds_the_kth_prime_above_x(t8_table):
    # k = 1: the first prime above x, at every 1000th prime and at a few x
    # that are not primes
    primes = t8_table.primes.tolist()
    for x in (41, 396738, 10**6, 16_000_000, 16_408_319):
        assert primes[bisect_right(primes, x)] <= bounds._dusart_reach(x)
    for i in range(0, len(primes) - 1, 1000):
        assert primes[i + 1] <= bounds._dusart_reach(primes[i])


def test_criterion_matches_scalar_oracle_at_t8(t8_table):
    table = t8_table
    n1 = find_crossover_index(8, table)
    assert n1 == 1055642
    assert find_crossover_index(8, table, floored=True) == n1
    for n in range(n1 - 1000, n1 + 101):
        assert criterion(8, n, table).margin.hex() == _scalar_margin(8, n, table).hex()
    assert _scalar_margin(8, n1 - 1, table) <= 0.0 < _scalar_margin(8, n1, table)


def test_primorial_magnitude(small_table):
    assert primorial_magnitude(1, small_table) == (pytest.approx(2.0, rel=1e-12), 0)
    assert primorial_magnitude(4, small_table) == (pytest.approx(2.1, rel=1e-12), 2)
    mant, exp10 = primorial_magnitude(10, small_table)
    assert (mant, exp10) == (pytest.approx(6.46969323, rel=1e-9), 9)
    with pytest.raises(ValueError):
        primorial_magnitude(0, small_table)


def test_primorial_magnitude_large(small_table):
    mant, exp10 = primorial_magnitude(10596, small_table)
    assert exp10 == 48337
    assert mant == pytest.approx(2.4773, abs=5e-4)


def _mertens_products(xs, table):
    """prod_{p <= x} (1 - 1/p)^-1 for each x in xs, ascending, from the Mertens
    terms' walk up to max(xs)."""
    counts = [bisect_right(table.primes, x) for x in xs]
    return [math.exp(s) for s in prefix_at(table.primes, bounds._mertens_logs, counts).tolist()]


def test_mertens_partial_product_exact_prefix(small_table):
    at2, at29, at30 = _mertens_products([2, 29, 30], small_table)
    assert at2 == pytest.approx(2.0, rel=1e-14)
    # prod over p <= 29 as an exact rational: 6469693230 / 1021870080
    ref = Fraction(6469693230, 1021870080)
    assert at29 == pytest.approx(float(ref), rel=1e-12)
    # constant between consecutive primes
    assert at30 == at29


def test_mertens_partial_product_growth(table):
    values = _mertens_products([10**k for k in range(1, 7)], table)
    assert all(a < b for a, b in zip(values, values[1:]))
    # third Mertens theorem: the ratio to e^gamma log x is near 1 from above
    ratio = values[-1] / (math.exp(EULER_GAMMA) * math.log(10**6))
    assert 1.0 < ratio < 1.0005


def _zeta_tail_products(t, n, table):
    """zeta(t) * prod_{p <= p_k} (1 - p^-t) for 1 <= k <= n."""
    return [zeta(t).value * math.exp(x) for x in bounds._zeta_tail_logs(t, n, table)]


def test_zeta_tail_product_values(small_table):
    at2 = _zeta_tail_products(2, 2, small_table)[-1]
    assert at2 == pytest.approx(math.pi**2 / 9, rel=1e-13)
    with mpmath.workdps(40):
        for t, n in ((2, 7), (3, 50)):
            ref = mpmath.zeta(t)
            for p in small_table.primes[:n].tolist():
                ref *= 1 - mpmath.mpf(p) ** -t
            got = _zeta_tail_products(t, n, small_table)[-1]
            assert got == pytest.approx(float(ref), rel=1e-12)


def test_zeta_tail_product_decreases_to_one(small_table):
    products = _zeta_tail_products(3, 1000, small_table)
    values = [products[n - 1] for n in (2, 10, 100, 1000)]
    assert all(a > b > 1.0 for a, b in zip(values, values[1:]))


def test_log_substitution_check(small_table):
    for n in (CRITERION_FLOOR, 3000):
        p, theta = small_table.primes[n - 1], small_table.theta_upto(len(small_table))[n]
        assert bounds._log_substitution_margin(math, p, theta) > 0.0
    with pytest.raises(ValueError):
        log_substitution_suite(small_table, n_min=CRITERION_FLOOR - 1, n_max=3000)


def test_psi_ratio_upper_bound_dominates(small_table):
    (log_ratio,) = prefix_at(
        small_table.primes, partial(primorial.psi_ratio_logs, t=3), [CRITERION_FLOOR]
    )
    true_ratio = math.exp(log_ratio)
    p = small_table.primes[CRITERION_FLOOR - 1]
    theta = small_table.theta_upto(len(small_table))[CRITERION_FLOOR]
    scale = bounds._psi_ratio_scale(math, p, theta)
    assert scale / zeta(3).value > true_ratio
    with pytest.raises(ValueError):
        psi_ratio_bound_suite(small_table, n_min=CRITERION_FLOOR - 1, n_max=3000)


def test_admissible_t_values(small_table):
    expected = {9: 2, 10: 3, 100: 5, 1000: 6, 10_000: 6, 10_596: 7}
    got = {n: admissible_t(n, small_table) for n in expected}
    assert got == expected
    with pytest.raises(ValueError):
        admissible_t(1, small_table)


def test_zeta_excess_scaled_tail():
    with mpmath.workdps(40):
        ref = float((mpmath.zeta(10) - 1) * 2**10)
        assert zeta(10).excess * 2.0**10 == pytest.approx(ref, rel=1e-12)


def test_zeta_excess_scaled_decreases_toward_one():
    values = [zeta(t).excess * 2.0**t for t in range(4, 41)]
    assert all(a > b > 1.0 for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0 + 1e-6


def test_ratio_curve_shape(small_table):
    rows = list(ratio_curve(small_table, 2, 1000))
    assert rows[0][0] == 2
    assert rows[-1][0] == 1000
    limit_value = EXP_GAMMA / zeta(2).value
    for n, p_n, r, lim, dev in rows[:5] + rows[-5:]:
        assert lim == limit_value
        assert dev == pytest.approx(r / lim - 1.0, abs=1e-15)
    by_n = {row[0]: row[4] for row in rows}
    assert abs(by_n[1000]) < abs(by_n[100]) < abs(by_n[10])
    assert all(type(row[1]) is int for row in rows)  # p_n prints as a JSON integer
    # the checks run on the call, before any row is read
    with pytest.raises(ValueError):
        ratio_curve(small_table, 2, 1)
    with pytest.raises(CoverageError):
        ratio_curve(small_table, 2, len(small_table.primes) + 1)


def test_mertens_suite_reduced(small_table):
    result = mertens_bound_suite(small_table, x_cap=10**5, samples=60)
    assert result.passed
    assert not result.skipped
    assert result.points > 60
    assert result.worst_margin > 0


def test_mertens_suite_skips_without_points(small_table):
    for cap in (0, 1):
        result = mertens_bound_suite(small_table, x_cap=cap)
        assert (result.skipped, result.points, result.rechecked) == (True, 0, 0)
    result = mertens_bound_suite(small_table, x_cap=2, samples=3)
    assert (result.skipped, result.points, result.worst_at) == (False, 1, "x=2")


def test_zeta_tail_suite_reduced(small_table):
    result = zeta_tail_bound_suite(small_table, ts=range(2, 5), n_max=500)
    assert result.passed
    assert result.points == 3 * 499
    assert result.worst_margin > 0


def test_log_substitution_suite_reduced(small_table):
    result = log_substitution_suite(small_table, n_max=4000)
    assert result.passed
    assert result.points == 4000 - CRITERION_FLOOR + 1
    assert result.worst_margin > 0


def test_psi_ratio_suite_reduced(small_table):
    result = psi_ratio_bound_suite(small_table, ts=(3, 4), n_max=4000)
    assert result.passed
    assert result.points == 2 * (4000 - CRITERION_FLOOR + 1)
    assert result.worst_margin > 0


# reduced ranges for every suite, and the margin formula its 60-digit
# recheck runs; all of their margins lie below 10 (Mertens reaches about 1.8
# near x = 2)
REDUCED_SUITES = {
    "mertens_product": (
        lambda tab: mertens_bound_suite(tab, x_cap=10**4, samples=20), "_mertens_margin"),
    "zeta_tail_product": (
        lambda tab: zeta_tail_bound_suite(tab, ts=(5, 2, 3), n_max=150), "_zeta_tail_margin"),
    "log_substitution": (
        lambda tab: log_substitution_suite(tab, n_max=2400), "_log_substitution_margin"),
    "psi_ratio_bound": (
        lambda tab: psi_ratio_bound_suite(tab, ts=(4, 3), n_max=2400), "_psi_ratio_margin"),
}


@pytest.mark.parametrize("suite", sorted(REDUCED_SUITES))
def test_suite_rechecks_every_point_in_the_band(small_table, monkeypatch, suite):
    run, formula = REDUCED_SUITES[suite]
    plain = run(small_table)
    calls = spy_60_digits(monkeypatch, bounds)
    monkeypatch.setattr(bounds, "PRECISION_BAND", 10.0)
    forced = run(small_table)
    points = {inputs for _, inputs, _ in calls}
    assert plain.rechecked == 0
    assert forced.rechecked == forced.points == plain.points == len(calls) == len(points)
    assert {f for f, _, _ in calls} == {getattr(bounds, formula)}
    assert forced.worst_at == plain.worst_at
    assert forced.worst_margin == pytest.approx(plain.worst_margin, abs=1e-12)


def test_forced_band_builds_every_column(small_table, monkeypatch, built_columns):
    runs = [REDUCED_SUITES[name][0] for name in ("zeta_tail_product", "psi_ratio_bound")]
    for run in runs:
        run(small_table)
    # a first column always builds at its minimum; zeta tail t = 3 cannot beat
    # the t = 2 minimum, nor lie in the band, and its floor shows it unscreened
    assert built_columns == [
        ("zeta_tail_product", 5), ("zeta_tail_product", 2),
        ("psi_ratio_bound", 4), ("psi_ratio_bound", 3),
    ]
    built_columns.clear()
    monkeypatch.setattr(bounds, "PRECISION_BAND", 10.0)
    for run in runs:
        run(small_table)
    assert built_columns == [
        ("zeta_tail_product", 5), ("zeta_tail_product", 2), ("zeta_tail_product", 3),
        ("psi_ratio_bound", 4), ("psi_ratio_bound", 3),
    ]


@pytest.fixture(scope="module")
def verify_bounds_table():
    """The table `verify-bounds --n-max 100000` sieves."""
    return build_table(max(nth_prime_bound(10**5), bounds.MERTENS_CAP))


# the suites of `verify-bounds --n-max 100000 --t-max 10`, and their column keys
VERIFY_BOUNDS_SUITES = {
    "mertens": (mertens_bound_suite, [None]),
    "zeta_tail": (lambda tab: zeta_tail_bound_suite(tab, range(2, 11), 10**4), range(2, 11)),
    "log_substitution": (log_substitution_suite, [None]),
    "psi_ratio": (psi_ratio_bound_suite, range(3, 8)),
}


@pytest.mark.parametrize("suite", ["zeta_tail", "psi_ratio", "mertens", "log_substitution"])
def test_column_screens_stay_within_beta(verify_bounds_table, monkeypatch, suite):
    table = verify_bounds_table
    run, keys = VERIFY_BOUNDS_SUITES[suite]
    seen = []

    def check(name, columns, recheck, where, floor=None):
        for key, screen, margins in columns:
            for offset, est, beta in screen():
                libm = margins(offset + np.arange(est.size))
                assert (np.abs(est - libm) <= beta).all()
                assert beta.max() <= 1e-12
                seen.append(key)

    monkeypatch.setattr(bounds, "_sweep", check)
    run(table)
    assert list(dict.fromkeys(seen)) == list(keys)
    if suite == "psi_ratio":
        # the scales shared by every t, within 2^-46 of themselves as the screen assumes
        n = np.arange(CRITERION_FLOOR, 10**5 + 1)
        p = table.primes[n - 1].astype(np.float64)
        est = bounds._psi_ratio_scale(np, p, table.theta_upto(len(table))[n])
        primes, theta = table.primes.tolist(), table.theta_upto(len(table)).tolist()
        libm = [bounds._psi_ratio_scale(math, primes[k - 1], theta[k]) for k in n.tolist()]
        assert (np.abs(est - libm) <= 2.0**-46 * est).all()


# Bytes a suite may add to its peak per added index n.  No array spans a
# column: each is block-sized, or holds only the indices taken, and the libm
# psi ratio sums are read off the walk of primes.prefix_blocks a block at a
# time.  With whole-column temporaries the psi ratio suite added about 170
# bytes per n and the log substitution suite about 49; with the whole libm
# prefix, 8.
SUITE_BYTES_PER_INDEX = 2


@pytest.mark.parametrize("suite", [log_substitution_suite, psi_ratio_bound_suite])
def test_suite_memory_grows_by_at_most_one_prefix(table, suite):
    table.theta_upto(10**5)  # formed before the suites, as verify-bounds forms it
    suite(table, n_max=CRITERION_FLOOR + 100)  # zeta(t) and the imports, outside the trace
    peaks = []
    for n_max in (40_000, 100_000):
        tracemalloc.start()
        try:
            suite(table, n_max=n_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 60_000 < SUITE_BYTES_PER_INDEX


def test_criterion_libm_error_bound(small_table, monkeypatch):
    # the libm margin against its 60-digit value, within the bound that
    # decides when the 60-digit value is taken instead; an infinite bound
    # sends every index to the recheck, whose value the spy keeps
    bound = bounds._LHS_ERROR
    calls = spy_60_digits(monkeypatch, bounds)
    monkeypatch.setattr(bounds, "_LHS_ERROR", math.inf)
    for t in (2, 3, 7, 10):
        z = zeta(t)
        for n in (2, 3, 9, 10, 100, CRITERION_FLOOR, 10596, len(small_table)):
            lhs = bounds._criterion_lhs_at(n, small_table)
            report = criterion(t, n, small_table)
            _, (p_n, *_), exact = calls[-1]
            assert p_n == report.p_n
            assert abs(z.excess - lhs - exact) <= bound * lhs + z.abs_error_bound
    assert len(calls) == 4 * 8


@pytest.mark.parametrize("suite", sorted(REDUCED_SUITES))
def test_unscreened_suites_give_the_same_result(small_table, monkeypatch, suite):
    # with an infinite beta the sweep takes every libm margin; the result must not move
    run = REDUCED_SUITES[suite][0]
    plain = run(small_table)
    taken = []
    sweep = bounds._sweep

    def blind(screen):
        return [(offset, est, np.full_like(beta, np.inf)) for offset, est, beta in screen()]

    def margins(build, idx):
        taken.append(idx.size)
        return build(idx)

    def spy(name, columns, *rest, **kw):
        columns = ((key, partial(blind, s), partial(margins, m)) for key, s, m in columns)
        return sweep(name, columns, *rest, **kw)

    monkeypatch.setattr(bounds, "_sweep", spy)
    assert run(small_table) == plain
    assert sum(taken) == plain.points


def test_sweep_takes_more_margins_after_a_recheck_rises():
    # index 0 sets the least estimate plus beta but rechecks to 5; indices 1
    # and 2, left out at first, must then be taken; index 1 is the worst point
    est, beta = np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.1, 0.1])
    taken = []

    def margins(idx):
        taken.append(idx.tolist())
        return est[idx]

    result = bounds._sweep(
        "synthetic", [(None, lambda: [(0, est, beta)], margins)], lambda *_: 5.0, lambda _, i: f"i={i}"
    )
    assert taken == [[0], [1, 2]]
    assert (result.worst_margin, result.worst_at, result.rechecked) == (1.0, "i=1", 1)


def test_unscreened_crossover_search_gives_the_same_n1(monkeypatch):
    # the gallop and bisection against a linear scan of the certified decision
    # at every index; the calls follow n1 (or the table's end when nothing
    # holds), not the table's size
    table = build_table(1 << 15)
    size = len(table)

    def scan(t, floored):
        return _scalar_crossover(
            t, table, floored, lambda n: float(criterion(t, n, table).satisfied)
        )

    calls = []
    decide = bounds.criterion
    monkeypatch.setattr(bounds, "criterion", lambda *a: calls.append(a) or decide(*a))
    for t in range(2, 11):
        for floored in (False, True):
            expected = _outcome(lambda: scan(t, floored))
            calls.clear()
            assert _outcome(lambda: find_crossover_index(t, table, floored)) == expected
            reach = expected if isinstance(expected, int) else size
            assert len(calls) <= 2 * math.ceil(math.log2(reach))


def test_crossover_searches_form_theta_only_as_far_as_they_read(monkeypatch):
    # t = 6 and 7 on the 100730-prime table: the gallops stop at 512 and
    # 16384, so theta is formed through index 16384 and no further
    table = build_table(1_310_000)
    logged = []
    monkeypatch.setattr("robinpsi.primes.libm_log", lambda xs: logged.append(len(xs)) or libm_log(xs))
    calls = []
    decide = bounds.criterion
    monkeypatch.setattr(bounds, "criterion", lambda *a: calls.append(a[1]) or decide(*a))
    found = []
    for t in (6, 7):
        calls.clear()
        found.append((find_crossover_index(t, table), len(calls)))
    # 9 gallop probes and 8 bisection steps for t = 6, 14 and 13 for t = 7
    assert found == [(509, 17), (10596, 27)]
    assert sum(logged) == 16384 < len(table)


def test_criterion_rechecks_at_60_digits_within_the_libm_error(monkeypatch, small_table):
    calls = spy_60_digits(monkeypatch, bounds)
    monkeypatch.setattr(bounds, "_LHS_ERROR", math.inf)
    for n in (9, 10):
        report = criterion(3, n, small_table)
        assert report.satisfied == (report.margin > 0.0)
        assert calls[-1][2] == pytest.approx(report.margin, rel=1e-12)
    # (p_n, log N_n, zeta(3)) at n = 9 and 10
    theta = small_table.theta_upto(len(small_table))
    assert [tuple(map(float, inputs)) for _, inputs, _ in calls] == [
        (23, pytest.approx(theta[9]), pytest.approx(zeta(3).value)),
        (29, pytest.approx(theta[10]), pytest.approx(zeta(3).value)),
    ]
    # the whole search through the 60-digit path: the gallop to 16 and 3
    # steps bisecting [9, 16]
    tiny = build_table(1000)
    calls.clear()
    assert find_crossover_index(3, tiny) == 10
    probed = [2, 4, 8, 16, 12, 10, 9]
    assert [float(inputs[0]) for _, inputs, _ in calls] == [tiny.primes[n - 1] for n in probed]


def test_criterion_left_side_falls_by_more_than_its_error_bound(t8_libm_lhs):
    # the lemma the search rests on, over the whole t = 8 table: each libm
    # left side lies within _LHS_ERROR of itself of the exact one, so a drop
    # larger than both bounds means the exact left side falls at every n >= 2
    _, libm = t8_libm_lhs
    lhs, after = libm[1:-1], libm[2:]  # n = 2, ..., len - 1 and n + 1
    assert (lhs - after > bounds._LHS_ERROR * (lhs + after)).all()


def test_empty_ranges_report_skipped(small_table):
    for result in (
        zeta_tail_bound_suite(small_table, ts=(2, 3), n_max=1),
        log_substitution_suite(small_table, n_max=CRITERION_FLOOR - 1),
        psi_ratio_bound_suite(small_table, n_max=CRITERION_FLOOR - 1),
    ):
        assert (result.skipped, result.points, result.worst_at) == (True, 0, "")


# The scalar margin loops the suites had before they formed whole arrays, kept
# as oracles: each returns (worst margin, where) with the first minimum winning.
def _mertens_oracle(table, x_cap, samples):
    cap = min(x_cap, table.limit)
    xs = set()
    x = 2
    while x <= cap:
        xs.add(x)
        x *= 2
    rng = random.Random(20011)
    xs.update(rng.randint(2, cap) for _ in range(samples))
    primes = table.primes[: bisect_right(table.primes, cap)].tolist()
    prefix = compensated_prefix([-math.log1p(-1.0 / p) for p in primes])
    worst, worst_at = math.inf, ""
    for x in sorted(xs):
        lx = math.log(x)
        margin = EXP_GAMMA * (lx + 1.0 / lx) - math.exp(prefix[bisect_right(table.primes, x)])
        if margin < worst:
            worst, worst_at = margin, f"x={x}"
    return worst, worst_at


def _zeta_tail_oracle(table, ts, n_max):
    worst, worst_at = math.inf, ""
    for t in ts:
        zv = zeta(t).value
        acc = 0.0
        for n, p in enumerate(table.primes[:n_max].tolist(), start=1):
            acc += math.log1p(-float(p) ** (-t))
            if n < 2:
                continue
            margin = math.exp(2.0 / p) - zv * math.exp(acc)
            if margin < worst:
                worst, worst_at = margin, f"t={t},n={n}"
    return worst, worst_at


def _log_substitution_oracle(table, n_min, n_max):
    worst, worst_at = math.inf, ""
    for n in range(n_min, n_max + 1):
        lp = math.log(int(table.primes[n - 1]))
        margin = math.log(table.theta_upto(len(table))[n]) + 0.1253 / lp - lp
        if margin < worst:
            worst, worst_at = margin, f"n={n}"
    return worst, worst_at


def _psi_ratio_oracle(table, ts, n_min, n_max):
    worst, worst_at = math.inf, ""
    for t in ts:
        zv = zeta(t).value
        total = carry = 0.0
        for n, p in enumerate(table.primes[:n_max].tolist(), start=1):
            q = p ** (t - 1)
            x = math.log1p((q - 1) / (q * (p - 1)))
            s = total + x
            carry += (total - s) + x if abs(total) >= abs(x) else (x - s) + total
            total = s
            if n < n_min:
                continue
            lp = math.log(p)
            scale = math.exp(EULER_GAMMA + 2.0 / p) * (
                math.log(table.theta_upto(len(table))[n]) + MERTENS_SHIFT / lp
            )
            margin = scale / zv - math.exp(total + carry)
            if margin < worst:
                worst, worst_at = margin, f"t={t},n={n}"
    return worst, worst_at


@pytest.mark.parametrize(
    "suite,oracle",
    [
        (lambda tab: mertens_bound_suite(tab, x_cap=10**5, samples=300),
         lambda tab: _mertens_oracle(tab, 10**5, 300)),
        (lambda tab: zeta_tail_bound_suite(tab, ts=(7, 2, 10, 3), n_max=3000),
         lambda tab: _zeta_tail_oracle(tab, (7, 2, 10, 3), 3000)),
        (lambda tab: zeta_tail_bound_suite(tab, ts=(64, 40), n_max=300),
         lambda tab: _zeta_tail_oracle(tab, (64, 40), 300)),
        (lambda tab: log_substitution_suite(tab, n_min=2300, n_max=10596),
         lambda tab: _log_substitution_oracle(tab, 2300, 10596)),
        # the worst point lies in the second column, its floor skips the third
        (lambda tab: psi_ratio_bound_suite(tab, ts=(7, 3, 5), n_max=10596),
         lambda tab: _psi_ratio_oracle(tab, (7, 3, 5), CRITERION_FLOOR, 10596)),
        (lambda tab: psi_ratio_bound_suite(tab, ts=(7,), n_max=CRITERION_FLOOR),
         lambda tab: _psi_ratio_oracle(tab, (7,), CRITERION_FLOOR, CRITERION_FLOOR)),
    ],
    ids=[
        "mertens", "zeta_tail", "zeta_tail_large_t", "log_substitution", "psi_ratio",
        "psi_ratio_one_point",
    ],
)
def test_suite_matches_scalar_loop_bit_for_bit(small_table, suite, oracle):
    result = suite(small_table)
    worst, worst_at = oracle(small_table)
    assert result.rechecked == 0
    assert result.worst_margin.hex() == worst.hex()
    assert result.worst_at == worst_at


def test_psi_ratio_column_reports_the_first_t_of_a_tie(small_table, monkeypatch, built_columns):
    # with zeta(3) and the terms of t = 3 read for every t, the t = 5 and t = 4
    # columns tie at every n: no floor lies above the other's minimum, both
    # minima are taken and the first t of ts is reported
    alone = psi_ratio_bound_suite(small_table, ts=(3,), n_max=4000)
    zeta_3, terms, logs = zeta(3), primorial.log_terms, primorial.psi_ratio_logs
    monkeypatch.setattr(bounds, "zeta", lambda t: zeta_3)
    monkeypatch.setattr(primorial, "log_terms", lambda p, t: terms(p, 3))
    monkeypatch.setattr(primorial, "psi_ratio_logs", lambda p, t: logs(p, 3))
    n = alone.worst_at.split(",")[1]
    for ts in ((5, 4), (4, 5)):
        built_columns.clear()
        tied = psi_ratio_bound_suite(small_table, ts=ts, n_max=4000)
        assert tied.worst_margin.hex() == alone.worst_margin.hex()
        assert tied.worst_at == f"t={ts[0]},{n}"
        assert built_columns == [("psi_ratio_bound", t) for t in ts]


def test_margins_rise_with_t_within_their_error_bounds(small_table):
    # the lemma the floors rest on, apart from any skip: at every index, each
    # float margin of column t lies at or above the floor that column t0's
    # float margin at the same n gives; and E_t bounds |float - 60-digit| at
    # sampled n of every t, the columns the floors skip included
    table = small_table
    n_min, n_max = CRITERION_FLOOR, 10596
    idx = np.arange(n_max - n_min + 1)
    psi = {t: bounds._psi_ratio_margins(t, table, n_min, idx) for t in range(3, 11)}
    floor = partial(bounds._psi_ratio_floor, table, n_min, n_max)
    for t in range(4, 11):
        floors = np.array([floor(3, m, t) for m in psi[3].tolist()])
        assert (floors > 0.0).all() and (psi[t] >= floors).all()
    tail_max = 3000
    p = table.primes[:tail_max].astype(np.float64)[1:]
    tail = {
        t: bounds._zeta_tail_margins(t, table, p, np.arange(tail_max - 1)) for t in range(2, 65)
    }
    for t in range(3, 65):
        assert (tail[t] >= bounds._zeta_tail_floor(tail_max, 2, tail[2], t)).all()
    # the floors have room: the first factor's gap at p_3001 is about 1e-9
    assert min(bounds._zeta_tail_floor(tail_max, 2, 0.0, t) for t in range(3, 65)) > 1e-9

    with mpmath.workdps(60):
        zetas = {t: mpmath.zeta(t) for t in range(2, 65)}
    for t in range(3, 11):
        error = bounds._psi_ratio_error(table, n_min, n_max, t)
        for n in (n_min, n_max) if t == 3 else (n_min,):
            exact = at_60_digits(bounds._psi_ratio_margin, lambda: (
                int(table.primes[n - 1]), bounds.exact_log(table, "primorial", n),
                zetas[t], bounds.exact_log(table, "psi_ratio", n, t),
            ))
            assert abs(psi[t][n - n_min] - exact) <= error
    for t in range(2, 65):
        error = bounds._zeta_tail_error(tail_max, t)
        for n in (2, 2 + tail_max // t, tail_max) if t <= 3 else (2, 2 + tail_max // t):
            exact = at_60_digits(bounds._zeta_tail_margin, lambda: (
                int(table.primes[n - 1]), zetas[t], bounds.exact_log(table, "zeta_tail", n, t),
            ))
            assert abs(tail[t][n - 2] - exact) <= error


def _suite_screens(monkeypatch, run, floorless=False):
    """run()'s result and the key of every column whose screen runs, with
    the suite's floor, or with a floor of -inf that screens every column."""
    screened = []
    sweep = bounds._sweep

    def spy(name, columns, recheck, where, floor=None):
        logged = [
            (key, lambda key=key, screen=screen: screened.append(key) or screen(), margins)
            for key, screen, margins in columns
        ]
        floor = (lambda *_: -math.inf) if floorless else floor
        return sweep(name, logged, recheck, where, floor=floor)

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_sweep", spy)
        return run(), screened


def _fields(result):
    return (
        result.worst_margin.hex(), result.worst_at, result.rechecked, result.points,
        result.passed, result.skipped,
    )


FLOOR_TS = [(3, 4, 5, 6, 7), (7, 3, 5), (4, 3), (5, 2, 3), (64, 40), tuple(range(2, 65))]


@pytest.mark.parametrize(
    "case,ts",
    # a band of 10 rechecks every point at 60 digits: the short ts only
    [(case, ts) for case in ("plain", "negative", "band") for ts in FLOOR_TS
     if case != "band" or len(ts) <= 3],
    ids=lambda x: x if isinstance(x, str) else ",".join(map(str, x[:5])),
)
def test_floors_skip_only_what_full_screening_leaves_unchanged(small_table, monkeypatch, case, ts):
    # each suite with its floors against the same suite screening every
    # column: the same result, field for field.  With plain margins the psi
    # ratio columns after the least t go unscreened, and so do the zeta tail
    # ones where that t is 2: from t0 = 3 on, the first factor's gap q^-t0 is
    # below the cumsum's error.  Zeta values 1% too large (margins below
    # zero) or a band of 10 leave nothing to skip.
    real = bounds.zeta
    if case == "negative":
        monkeypatch.setattr(bounds, "zeta", lambda t: dataclasses.replace(
            real(t), value=1.01 * real(t).value, excess=1.01 * real(t).value - 1.0,
        ))
    if case == "band":
        monkeypatch.setattr(bounds, "PRECISION_BAND", 10.0)
    small = case == "band"
    runs = [
        (partial(zeta_tail_bound_suite, small_table, ts, 150 if small else 3000), min(ts) == 2),
        (partial(psi_ratio_bound_suite, small_table, ts, n_max=2300 if small else 4000), True),
    ]
    for run, skips in runs:
        got, screened = _suite_screens(monkeypatch, run)
        want, every = _suite_screens(monkeypatch, run, floorless=True)
        assert _fields(got) == _fields(want)
        assert every == list(ts)
        through_t0 = list(ts[: ts.index(min(ts)) + 1])
        assert screened == (through_t0 if case == "plain" and skips else every)
        assert got.passed == (case != "negative")


def test_suite_coverage_errors(small_table):
    with pytest.raises(CoverageError):
        log_substitution_suite(small_table, n_max=10**6)
    with pytest.raises(ValueError):
        log_substitution_suite(small_table, n_min=100, n_max=4000)


def test_extended_precision_rechecks_agree(small_table, monkeypatch):
    # every 60-digit recheck, taken where the code takes it, against 60-digit
    # references that take a logarithm of every prime
    primes = small_table.primes.tolist()

    def suite_recheck(suite):
        """The recheck(key, i) and where(key, i) that suite hands to _sweep."""
        with monkeypatch.context() as patch:
            patch.setattr(
                bounds, "_sweep", lambda name, columns, recheck, where, **_: (recheck, where)
            )
            return suite(small_table)

    recheck, where = suite_recheck(mertens_bound_suite)
    mertens = recheck(None, next(i for i in range(64) if where(None, i) == "x=1024"))
    recheck, _ = suite_recheck(partial(zeta_tail_bound_suite, n_max=100))
    tails = [recheck(t, 100 - 2) for t in (3, 10)]
    recheck, _ = suite_recheck(partial(log_substitution_suite, n_max=CRITERION_FLOOR))
    log_sub = recheck(None, 0)  # n = CRITERION_FLOOR
    recheck, where = suite_recheck(partial(psi_ratio_bound_suite, n_max=CRITERION_FLOOR))
    assert [where(t, 0) for t in (3, 7)] == [f"t={t},n={CRITERION_FLOOR}" for t in (3, 7)]
    psis = [recheck(t, 0) for t in (3, 7)]
    with monkeypatch.context() as patch:
        calls = spy_60_digits(patch, bounds)
        patch.setattr(bounds, "_LHS_ERROR", math.inf)
        for t, n in ((3, 10), (7, 10596)):
            criterion(t, n, small_table)
        criteria = [result for _, _, result in calls]
    with monkeypatch.context() as patch:
        calls = spy_60_digits(patch, robin)
        patch.setattr(robin, "PRECISION_BAND", 10.0)
        assert verify_tfree_robin(6, 5041, small_table).crossover_index == 509
        ((_, _, ratio_margin),) = calls
    sigmas = {n: math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factor_by_division(n))
              for n in (5040, 10080, 55440)}
    with monkeypatch.context() as patch:
        patch.setattr(robin, "RELATIVE_BAND", 1e9)
        verdicts = [robin._verdict_from_sigma(n, s).margin for n, s in sigmas.items()]

    def theta(n):
        return mpmath.fsum(mpmath.log(p) for p in primes[:n])

    def log_psi(t, ps):
        """log psi_t(n)/n for the primes ps of n."""
        return mpmath.fsum(
            mpmath.log(mpmath.fsum(mpmath.mpf(1) / p**j for j in range(t))) for p in ps
        )

    def zeta_tail(t, n):
        head = mpmath.exp(mpmath.fsum(mpmath.log(1 - mpmath.mpf(p) ** -t) for p in primes[:n]))
        return mpmath.exp(mpmath.mpf(2) / primes[n - 1]) - mpmath.zeta(t) * head

    def psi(t, n):
        lp = mpmath.log(primes[n - 1])
        bound = mpmath.exp(mpmath.euler + mpmath.mpf(2) / primes[n - 1]) / mpmath.zeta(t)
        return bound * (mpmath.log(theta(n)) + mpmath.mpf("1.1253") / lp) - mpmath.exp(
            log_psi(t, primes[:n])
        )

    def criterion_margin(t, n):
        p = mpmath.mpf(primes[n - 1])
        c = mpmath.mpf("1.1253") / (mpmath.log(p) * mpmath.log(theta(n)))
        return mpmath.zeta(t) - mpmath.exp(2 / p) * (1 + c)

    with mpmath.workdps(60):
        prod = mpmath.exp(-mpmath.fsum(
            mpmath.log(1 - mpmath.mpf(1) / p) for p in primes[: bisect_right(primes, 1024)]
        ))
        lx = mpmath.log(1024)
        ref_mertens = mpmath.exp(mpmath.euler) * (lx + 1 / lx) - prod
        lp = mpmath.log(primes[CRITERION_FLOOR - 1])
        ref_log_sub = mpmath.log(theta(CRITERION_FLOOR)) + mpmath.mpf("0.1253") / lp - lp
        # p^t passes 2^63 in the second case of each (541^10 and 20011^7)
        ref_tails = [zeta_tail(3, 100), zeta_tail(10, 100)]
        ref_psis = [psi(3, CRITERION_FLOOR), psi(7, CRITERION_FLOOR)]
        ref_criteria = [criterion_margin(3, 10), criterion_margin(7, 10596)]
        ref_ratio = mpmath.exp(mpmath.euler) - mpmath.exp(log_psi(6, primes[:509])) / mpmath.log(
            theta(509)
        )
        ref_verdicts = [
            mpmath.exp(mpmath.euler) * n * mpmath.log(mpmath.log(n)) - s for n, s in sigmas.items()
        ]
    pairs = [
        (mertens, ref_mertens), (log_sub, ref_log_sub), (ratio_margin, ref_ratio),
        *zip(tails, ref_tails), *zip(psis, ref_psis), *zip(criteria, ref_criteria),
        *zip(verdicts, ref_verdicts),
    ]
    for got, ref in pairs:
        assert got == pytest.approx(float(ref), rel=1e-15)
    assert min(ref_mertens, ref_log_sub, ref_ratio, *ref_tails, *ref_psis, *ref_criteria) > 0
    assert ref_verdicts[0] < 0 < ref_verdicts[1]  # 5040 violates, 10080 does not


def test_formula_constants_at_60_digits():
    # every formula reads its constants from m: at 60 digits gamma, e^gamma
    # and the decimals themselves, never the compiled floats (the float
    # 1.1253 lies 3.3e-17 below the decimal)
    mp = mpmath
    floats = (EULER_GAMMA, EXP_GAMMA, MERTENS_SHIFT, LOG_SHIFT)
    for m in (math, np):
        assert tuple(bounds.const(m, x) for x in floats) == floats
    with mp.workdps(60):
        assert tuple(bounds.const(mp, x) for x in floats) == (
            +mp.euler, mp.exp(mp.euler), mp.mpf("1.1253"), mp.mpf("0.1253")
        )
        p, theta, x = mp.mpf(20011), mp.mpf(20000), mp.mpf(1000)
        lp, lt, lx = mp.log(p), mp.log(theta), mp.log(x)
        pairs = [
            (bounds._lhs_excess(mp, p, theta),
             mp.exp(2 / p) * (1 + mp.mpf("1.1253") / (lp * lt)) - 1),
            (bounds._mertens_margin(mp, x, 1), mp.exp(mp.euler) * (lx + 1 / lx) - mp.e),
            (bounds._log_substitution_margin(mp, p, theta), lt + mp.mpf("0.1253") / lp - lp),
            (bounds._psi_ratio_scale(mp, p, theta),
             mp.exp(mp.euler + 2 / p) * (lt + mp.mpf("1.1253") / lp)),
            (robin._threshold(mp, x), mp.exp(mp.euler) * x * mp.log(lx)),
        ]
        for got, ref in pairs:
            assert abs(got - ref) <= mp.mpf(10) ** -55 * abs(ref)
