"""Cursor accumulators, champion enumeration, and primorial reduction checks."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest

from robinpsi import (
    CoverageError,
    champion_scan,
    cursor_advance,
    primorials_up_to,
    psi_over_n,
    reduction_check,
    robin_ratio,
    start_point,
)
from robinpsi.multiplicative import factorize


def _advance_times(table, ts, steps):
    pt = start_point(ts)
    for _ in range(steps):
        pt = cursor_advance(pt, table)
    return pt


def test_start_point_is_empty_product():
    pt = start_point((2, 3))
    assert pt.n == 0
    assert pt.p == 1
    assert pt.log_N == 0.0
    assert pt.log_psi_ratio == {2: 0.0, 3: 0.0}


def test_cursor_reaches_fourth_primorial(small_table):
    pt = _advance_times(small_table, (2,), 4)
    assert pt.n == 4
    assert pt.p == 7
    assert pt.log_N == pytest.approx(math.log(210), abs=1e-13)
    # product of (1 + 1/p) over 2, 3, 5, 7 is 576/210
    assert pt.log_psi_ratio[2] == pytest.approx(math.log(Fraction(576, 210)), abs=1e-13)


def test_cursor_matches_high_precision_products(small_table):
    # fifty-digit reference for the log of the ratio product at n = 100
    for t in (2, 5):
        pt = _advance_times(small_table, (t,), 100)
        with mpmath.workdps(50):
            ref = mpmath.fsum(
                mpmath.log(mpmath.mpf(p**t - 1) / ((p - 1) * p ** (t - 1)))
                for p in small_table.primes[:100]
            )
            logn = mpmath.fsum(mpmath.log(p) for p in small_table.primes[:100])
        assert pt.log_psi_ratio[t] == pytest.approx(float(ref), abs=1e-11)
        assert pt.log_N == pytest.approx(float(logn), rel=1e-13)


def test_cursor_point_is_immutable(small_table):
    pt = _advance_times(small_table, (2,), 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pt.n = 5
    before = dict(pt.log_psi_ratio)
    cursor_advance(pt, small_table)
    assert pt.log_psi_ratio == before


def test_cursor_rejects_new_tracks_midway(small_table):
    pt = _advance_times(small_table, (2,), 2)
    with pytest.raises(ValueError):
        cursor_advance(pt, small_table, ts=(3,))


def test_cursor_needs_table_coverage():
    from robinpsi import build_table

    table = build_table(10)
    pt = start_point((2,))
    for _ in range(4):  # 2, 3, 5, 7 all fit
        pt = cursor_advance(pt, table)
    with pytest.raises(CoverageError):
        cursor_advance(pt, table)


def test_robin_ratio_value(small_table):
    pt = _advance_times(small_table, (2,), 4)
    expect = (576 / 210) / math.log(math.log(210))
    assert robin_ratio(pt, 2) == pytest.approx(expect, rel=1e-12)
    assert robin_ratio(pt, 2) == pytest.approx(1.6360071034244228, rel=1e-12)


def test_robin_ratio_domain(small_table):
    pt = _advance_times(small_table, (2,), 1)
    with pytest.raises(ValueError):
        robin_ratio(pt, 2)  # log log 2 is negative, ratio undefined
    pt = _advance_times(small_table, (2,), 3)
    with pytest.raises(KeyError):
        robin_ratio(pt, 4)  # t = 4 was never tracked


def test_primorials_up_to():
    assert primorials_up_to(1) == [1]
    assert primorials_up_to(2) == [1, 2]
    assert primorials_up_to(10_000) == [1, 2, 6, 30, 210, 2310]


def _brute_champions(limit, t, strict, table):
    best = Fraction(0)
    out = []
    for m in range(1, limit + 1):
        r = psi_over_n(factorize(m, table), t)
        if (r > best) if strict else (r >= best):
            out.append(m)
            best = max(best, r)
    return out


@pytest.mark.parametrize("t", [2, 3, 7])
def test_strict_champions_match_bruteforce(small_table, t):
    assert champion_scan(3000, t) == _brute_champions(3000, t, True, small_table)


def test_strict_champions_are_primorials():
    assert champion_scan(10_000, 2) == [1, 2, 6, 30, 210, 2310]
    assert champion_scan(1, 5) == [1]


def test_weak_champions_small_list():
    assert champion_scan(12, 2, mode="weak") == [1, 2, 4, 6, 12]


def test_weak_champions_match_bruteforce(small_table):
    got = champion_scan(2000, 3, mode="weak")
    assert got == _brute_champions(2000, 3, False, small_table)


def test_weak_champions_have_primorial_radical(small_table):
    # a weak champion's squarefree kernel must be the largest primorial below it
    marks = primorials_up_to(10_000)
    for m in champion_scan(10_000, 2, mode="weak"):
        if m == 1:
            continue
        radical = 1
        for p, _ in factorize(m, small_table).factors:
            radical *= p
        floor = max(v for v in marks if v <= m)
        assert radical == floor


def test_champion_mode_validation():
    with pytest.raises(ValueError):
        champion_scan(100, 2, mode="loose")
    with pytest.raises(ValueError):
        champion_scan(0, 2)


@pytest.mark.parametrize("t", [2, 7])
def test_reduction_to_primorials(t):
    # the running maximum of psi_t(m) / (m log log m) sits on primorials
    assert reduction_check(100_000, t)


def test_reduction_limit_domain():
    with pytest.raises(ValueError):
        reduction_check(5, 2)
