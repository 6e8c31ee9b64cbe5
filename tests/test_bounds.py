"""Zeta machinery, crossover search, and the explicit-inequality sweeps."""

import dataclasses
import math
import random
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
    log_psi_ratio_prefix,
    log_substitution_suite,
    mertens_bound_suite,
    primorial_magnitude,
    psi_ratio_bound_suite,
    ratio_curve,
    zeta,
    zeta_tail_bound_suite,
)
from robinpsi import bounds
from robinpsi.bounds import CONFIRM, CRITERION_FLOOR, EULER_GAMMA, EXP_GAMMA, MERTENS_SHIFT
from robinpsi.primes import nth_prime_bound

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
    # a hit without CONFIRM indices after it
    short = build_table(113)  # p_30 = 113, the t = 3 crossover is n = 10
    with pytest.raises(CoverageError, match="through index 110"):
        find_crossover_index(3, short)


# The scalar criterion formula and the linear search loop, kept as the oracle.
def _scalar_lhs_excess(n, table):
    p = int(table.primes[n - 1])
    lp = math.log(p)
    lln = math.log(table.theta_prefix[n])
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
    if hit + 100 > size:
        raise CoverageError(
            f"cannot confirm stability through index {hit + 100} "
            f"(table ends at {size}); enlarge the sieve"
        )
    for k in range(hit + 1, hit + 101):
        if not margin(k) > 0.0:
            raise RuntimeError(f"criterion for t={t} holds at {hit} but fails again at {k}")
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
    assert (table.theta_prefix[1:][big] > p * (1.0 - 1.0 / np.log(p))).all()
    assert (libm[big] <= bounds._criterion_lhs_bound(p)).all()
    assert bounds.crossover_reach(8) <= 1.75e7
    for t in range(2, 9):
        reach = bounds.crossover_reach(t)
        for floored in (False, True):
            n1 = find_crossover_index(t, table, floored)
            assert reach >= table.primes[n1 + CONFIRM - 1]
    ts = range(2, 65)  # the CLI's t range; past t = 18 the crossover prime overflows a float
    assert [bounds.crossover_reach(t) == math.inf for t in ts] == [t > 18 for t in ts]


def test_dusart_reach_bounds_the_kth_prime_above_x(t8_table):
    primes = t8_table.primes
    for x in (41, 396738, 10**6, 16_000_000, 16_408_319):
        i = bisect_right(primes, x)
        for k in (1, 2, 10, CONFIRM, CONFIRM + 1, 1000, 10**4):
            assert primes[i + k - 1] <= bounds._dusart_reach(x, k)


def test_crossover_reach_covers_confirm(monkeypatch):
    # with a long confirmation run the reach must cover it, not only n1
    monkeypatch.setattr(bounds, "CONFIRM", 10**5)
    table = build_table(int(bounds.crossover_reach(3)))
    assert find_crossover_index(3, table) == 10


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
    """prod_{p <= x} (1 - 1/p)^-1 for each x in xs, from the Mertens prefix up to max(xs)."""
    prefix = bounds._mertens_prefix(table.primes[: bisect_right(table.primes, max(xs))])
    return [math.exp(prefix[bisect_right(table.primes, x)]) for x in xs]


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
        p, theta = small_table.primes[n - 1], small_table.theta_prefix[n]
        assert bounds._log_substitution_margin(math, p, theta) > 0.0
    with pytest.raises(ValueError):
        log_substitution_suite(small_table, n_min=CRITERION_FLOOR - 1, n_max=3000)


def test_psi_ratio_upper_bound_dominates(small_table):
    true_ratio = math.exp(log_psi_ratio_prefix(small_table, 3, CRITERION_FLOOR)[-1])
    p, theta = small_table.primes[CRITERION_FLOOR - 1], small_table.theta_prefix[CRITERION_FLOOR]
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
    rows = ratio_curve(small_table, 2, 1000)
    assert rows[0][0] == 2
    assert rows[-1][0] == 1000
    limit_value = EXP_GAMMA / zeta(2).value
    for n, p_n, r, lim, dev in rows[:5] + rows[-5:]:
        assert lim == limit_value
        assert dev == pytest.approx(r / lim - 1.0, abs=1e-15)
    by_n = {row[0]: row[4] for row in rows}
    assert abs(by_n[1000]) < abs(by_n[100]) < abs(by_n[10])
    with pytest.raises(ValueError):
        ratio_curve(small_table, 2, 1)


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


# reduced ranges for every suite, and the 60-digit recheck each one calls;
# all of their margins lie below 10 (Mertens reaches about 1.8 near x = 2)
REDUCED_SUITES = {
    "mertens_product": (
        lambda tab: mertens_bound_suite(tab, x_cap=10**4, samples=20), "_mertens_margin_mp"),
    "zeta_tail_product": (
        lambda tab: zeta_tail_bound_suite(tab, ts=(5, 2, 3), n_max=150), "_zeta_tail_margin_mp"),
    "log_substitution": (
        lambda tab: log_substitution_suite(tab, n_max=2400), "_log_substitution_margin_mp"),
    "psi_ratio_bound": (
        lambda tab: psi_ratio_bound_suite(tab, ts=(4, 3), n_max=2400), "_psi_ratio_margin_mp"),
}


@pytest.mark.parametrize("suite", sorted(REDUCED_SUITES))
def test_suite_rechecks_every_point_in_the_band(small_table, monkeypatch, suite):
    run, recheck_name = REDUCED_SUITES[suite]
    plain = run(small_table)
    recheck = getattr(bounds, recheck_name)
    calls = []
    monkeypatch.setattr(bounds, recheck_name, lambda *a: calls.append(a) or recheck(*a))
    monkeypatch.setattr(bounds, "PRECISION_BAND", 10.0)
    forced = run(small_table)
    assert plain.rechecked == 0
    assert forced.rechecked == forced.points == plain.points == len(calls) == len(set(calls))
    assert forced.worst_at == plain.worst_at
    assert forced.worst_margin == pytest.approx(plain.worst_margin, abs=1e-12)


def test_forced_band_builds_every_column(small_table, monkeypatch, built_columns):
    runs = [REDUCED_SUITES[name][0] for name in ("zeta_tail_product", "psi_ratio_bound")]
    for run in runs:
        run(small_table)
    # t = 3 cannot beat the t = 2 minimum, nor lie in the band
    assert built_columns == [
        ("zeta_tail_product", 5), ("zeta_tail_product", 2), ("psi_ratio_bound", 4),
        ("psi_ratio_bound", 3),
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

    def check(name, columns, *_):
        for key, screen, margins in columns:
            est, beta = screen()
            libm = margins(np.arange(est.size))
            assert (np.abs(est - libm) <= beta).all()
            assert beta.max() <= 1e-12
            seen.append(key)

    monkeypatch.setattr(bounds, "_sweep", check)
    run(table)
    assert seen == list(keys)
    if suite == "psi_ratio":
        # the scales shared by every t, within 2^-46 of themselves as the screen assumes
        n = np.arange(CRITERION_FLOOR, 10**5 + 1)
        p = table.primes[n - 1].astype(np.float64)
        est = bounds._psi_ratio_scale(np, p, table.theta_prefix[n])
        primes, theta = table.primes.tolist(), table.theta_prefix.tolist()
        libm = [bounds._psi_ratio_scale(math, primes[k - 1], theta[k]) for k in n.tolist()]
        assert (np.abs(est - libm) <= 2.0**-46 * est).all()


def test_criterion_libm_error_bound(small_table):
    # the libm margin against its 60-digit value, within the bound that
    # decides when the 60-digit value is taken instead
    for t in (2, 3, 7, 10):
        z = zeta(t)
        for n in (2, 3, 9, 10, 100, CRITERION_FLOOR, 10596, len(small_table)):
            lhs = bounds._criterion_lhs_at(n, small_table)
            exact = bounds._criterion_margin_mp(t, n, small_table)
            assert abs(z.excess - lhs - exact) <= bounds._LHS_ERROR * lhs + z.abs_error_bound


@pytest.mark.parametrize("suite", sorted(REDUCED_SUITES))
def test_unscreened_suites_give_the_same_result(small_table, monkeypatch, suite):
    # with an infinite beta the sweep takes every libm margin; the result must not move
    run = REDUCED_SUITES[suite][0]
    plain = run(small_table)
    taken = []
    sweep = bounds._sweep

    def blind(screen):
        est, beta = screen()
        return est, np.full_like(beta, np.inf)

    def margins(build, idx):
        taken.append(idx.size)
        return build(idx)

    def spy(name, columns, *rest):
        columns = ((key, partial(blind, s), partial(margins, m)) for key, s, m in columns)
        return sweep(name, columns, *rest)

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
        "synthetic", [(None, lambda: (est, beta), margins)], lambda *_: 5.0, lambda _, i: f"i={i}"
    )
    assert taken == [[0], [1, 2]]
    assert (result.worst_margin, result.worst_at, result.rechecked) == (1.0, "i=1", 1)


def test_unscreened_crossover_search_gives_the_same_n1(monkeypatch):
    # the bisection against a linear scan of the certified decision at every index
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
            assert len(calls) <= 1 + math.ceil(math.log2(size)) + CONFIRM


def test_criterion_rechecks_at_60_digits_within_the_libm_error(monkeypatch, small_table):
    calls = []
    margin_mp = bounds._criterion_margin_mp
    monkeypatch.setattr(bounds, "_criterion_margin_mp", lambda *a: calls.append(a) or margin_mp(*a))
    monkeypatch.setattr(bounds, "_LHS_ERROR", math.inf)
    for n in (9, 10):
        report = criterion(3, n, small_table)
        assert report.satisfied == (report.margin > 0.0)
        assert margin_mp(3, n, small_table) == pytest.approx(report.margin, rel=1e-12)
    assert calls == [(3, 9, small_table), (3, 10, small_table)]
    # the whole search through the 60-digit path: the last index, 7 steps
    # bisecting [2, 168] and the CONFIRM indices after n1 = 10
    tiny = build_table(1000)
    calls.clear()
    assert find_crossover_index(3, tiny) == 10
    assert len(calls) == 1 + 7 + CONFIRM


def test_crossover_search_raises_when_the_criterion_fails_again(monkeypatch, small_table):
    decide = bounds.criterion

    def flaky(t, n, table):
        report = decide(t, n, table)
        # 47 lies in the CONFIRM window after n1 = 10, and the bisection does not probe it
        return dataclasses.replace(report, satisfied=False) if n == 47 else report

    monkeypatch.setattr(bounds, "criterion", flaky)
    with pytest.raises(RuntimeError) as err:
        find_crossover_index(3, small_table)
    assert str(err.value) == "criterion for t=3 holds at 10 but fails again at 47"


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
    prefix = bounds._mertens_prefix(table.primes[: bisect_right(table.primes, cap)])
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
        margin = math.log(table.theta_prefix[n]) + 0.1253 / lp - lp
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
                math.log(table.theta_prefix[n]) + MERTENS_SHIFT / lp
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
        # the worst point lies in the second column, the screens skip the third
        (lambda tab: psi_ratio_bound_suite(tab, ts=(7, 3, 5), n_max=10596),
         lambda tab: _psi_ratio_oracle(tab, (7, 3, 5), CRITERION_FLOOR, 10596)),
    ],
    ids=["mertens", "zeta_tail", "zeta_tail_large_t", "log_substitution", "psi_ratio"],
)
def test_suite_matches_scalar_loop_bit_for_bit(small_table, suite, oracle):
    result = suite(small_table)
    worst, worst_at = oracle(small_table)
    assert result.rechecked == 0
    assert result.worst_margin.hex() == worst.hex()
    assert result.worst_at == worst_at


def test_suite_coverage_errors(small_table):
    with pytest.raises(CoverageError):
        log_substitution_suite(small_table, n_max=10**6)
    with pytest.raises(ValueError):
        log_substitution_suite(small_table, n_min=100, n_max=4000)


def test_extended_precision_rechecks_agree(small_table):
    # the slow path used when a float margin lands inside the 1e-9 band, against
    # 60-digit references that take a logarithm of every prime
    from robinpsi.bounds import (
        _log_substitution_margin_mp,
        _mertens_margin_mp,
        _psi_ratio_margin_mp,
        _zeta_tail_margin_mp,
    )

    primes = small_table.primes.tolist()

    def zeta_tail(t, n):
        head = mpmath.exp(mpmath.fsum(mpmath.log(1 - mpmath.mpf(p) ** -t) for p in primes[:n]))
        return mpmath.exp(mpmath.mpf(2) / primes[n - 1]) - mpmath.zeta(t) * head

    def psi(t, n):
        lln = mpmath.log(mpmath.fsum(mpmath.log(p) for p in primes[:n]))
        lp = mpmath.log(primes[n - 1])
        ratio = mpmath.exp(mpmath.fsum(
            mpmath.log(mpmath.fsum(mpmath.mpf(1) / p**j for j in range(t))) for p in primes[:n]
        ))
        bound = mpmath.exp(mpmath.euler + mpmath.mpf(2) / primes[n - 1]) / mpmath.zeta(t)
        return bound * (lln + mpmath.mpf("1.1253") / lp) - ratio

    with mpmath.workdps(60):
        prod = mpmath.exp(-mpmath.fsum(mpmath.log(1 - mpmath.mpf(1) / p) for p in primes[:168]))
        lx = mpmath.log(1000)
        mertens = mpmath.exp(mpmath.euler) * (lx + 1 / lx) - prod
        lln = mpmath.log(mpmath.fsum(mpmath.log(p) for p in primes[:CRITERION_FLOOR]))
        lp = mpmath.log(primes[CRITERION_FLOOR - 1])
        log_sub = lln + mpmath.mpf("0.1253") / lp - lp
        # p^t passes 2^63 in the second case of each (541^10 and 20011^7)
        tails = [zeta_tail(3, 100), zeta_tail(10, 100)]
        psis = [psi(3, CRITERION_FLOOR), psi(7, CRITERION_FLOOR)]
    assert _mertens_margin_mp(1000, small_table) == pytest.approx(float(mertens), rel=1e-15)
    for t, ref in zip((3, 10), tails):
        assert _zeta_tail_margin_mp(t, 100, small_table) == pytest.approx(float(ref), rel=1e-15)
    assert _log_substitution_margin_mp(CRITERION_FLOOR, small_table) == pytest.approx(
        float(log_sub), rel=1e-15
    )
    for t, ref in zip((3, 7), psis):
        assert _psi_ratio_margin_mp(t, CRITERION_FLOOR, small_table) == pytest.approx(
            float(ref), rel=1e-15
        )
    assert min(mertens, log_sub, *tails, *psis) > 0
