"""Primorial prefix arrays, champion enumeration, and primorial reduction checks."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinpsi import (
    CoverageError,
    build_table,
    champion_scan,
    log_psi_ratio_prefix,
    primorials_up_to,
    psi_over_n,
    ratio_curve,
    reduction_check,
)
from robinpsi import multiplicative, primorial
from robinpsi.multiplicative import factorize
from robinpsi.primes import PrimeTable, compensated_prefix
from robinpsi.primorial import _psi_ratio_terms


def test_start_point_is_empty_product(small_table):
    assert small_table.theta_prefix[0] == 0.0
    for t in (2, 3):
        assert log_psi_ratio_prefix(small_table, t, 0).tolist() == [0.0]


def test_prefix_reaches_fourth_primorial(small_table):
    assert small_table.primes[3] == 7
    assert small_table.theta_prefix[4] == pytest.approx(math.log(210), abs=1e-13)
    # product of (1 + 1/p) over 2, 3, 5, 7 is 576/210
    log_ratio = log_psi_ratio_prefix(small_table, 2, 4)[4]
    assert log_ratio == pytest.approx(math.log(Fraction(576, 210)), abs=1e-13)


def test_prefix_matches_high_precision_products(small_table):
    # fifty-digit reference for the log of the ratio product at n = 100
    for t in (2, 5):
        log_ratio = log_psi_ratio_prefix(small_table, t, 100)[100]
        with mpmath.workdps(50):
            ref = mpmath.fsum(
                mpmath.log(mpmath.mpf(p**t - 1) / ((p - 1) * p ** (t - 1)))
                for p in small_table.primes[:100].tolist()
            )
            logn = mpmath.fsum(mpmath.log(p) for p in small_table.primes[:100].tolist())
        assert log_ratio == pytest.approx(float(ref), abs=1e-11)
        assert small_table.theta_prefix[100] == pytest.approx(float(logn), rel=1e-13)


def _int_quotients(primes, t):
    # Python's int true division rounds the exact rational correctly
    return [(p ** (t - 1) - 1) / (p ** (t - 1) * (p - 1)) for p in primes]


@pytest.mark.parametrize("t", [2, 3, 4, 5, 7, 10, 64])
def test_psi_ratio_terms_match_int_quotients(small_table, t):
    primes = small_table.primes.tolist()
    terms, exact = _psi_ratio_terms(small_table.primes, t)
    assert [x.hex() for x in terms.tolist()] == [x.hex() for x in _int_quotients(primes, t)]
    # the float form rounds the wrong way at p = 3 for t = 2 and 4, so only the
    # int fallback gets those terms right
    if t in (2, 4):
        assert 1 in exact
    assert len(exact) < len(primes) // 50  # numpy decides nearly every term


def test_psi_ratio_terms_fall_back_above_the_split_limit():
    big = (1 << 26) + 15
    assert all(big % d for d in range(2, math.isqrt(big) + 1))  # prime
    primes = [2, 3, 5, 7, big]
    theta = compensated_prefix([math.log(p) for p in primes])
    table = PrimeTable(limit=big, primes=np.array(primes, dtype=np.int64), theta_prefix=theta)
    for t in (3, 7):
        terms, exact = _psi_ratio_terms(table.primes, t)
        assert 4 in exact
        quotients = _int_quotients(primes, t)
        assert terms.tolist() == quotients
        expect = compensated_prefix([math.log1p(x) for x in quotients])
        assert log_psi_ratio_prefix(table, t, 5).tolist() == expect.tolist()


def test_prefix_is_stable_in_n(small_table):
    # a longer march never changes the earlier entries
    short = log_psi_ratio_prefix(small_table, 3, 50)
    long = log_psi_ratio_prefix(small_table, 3, 500)
    assert long[:51].tolist() == short.tolist()


def test_prefix_needs_table_coverage():
    table = build_table(10)
    assert len(log_psi_ratio_prefix(table, 2, 4)) == 5  # 2, 3, 5, 7 all fit
    with pytest.raises(CoverageError):
        log_psi_ratio_prefix(table, 2, 5)


def test_robin_ratio_value(small_table):
    # R_2(N_4) = psi_2(210) / (210 log log 210), from the prefix arrays
    log_ratio = log_psi_ratio_prefix(small_table, 2, 4)[4]
    ratio = math.exp(log_ratio) / math.log(small_table.theta_prefix[4])
    expect = (576 / 210) / math.log(math.log(210))
    assert ratio == pytest.approx(expect, rel=1e-12)
    assert ratio == pytest.approx(1.6360071034244228, rel=1e-12)
    assert ratio_curve(small_table, 2, 4)[-1][2] == ratio


def test_robin_ratio_domain(small_table):
    with pytest.raises(ValueError):
        ratio_curve(small_table, 2, 1)  # log log 2 is negative, ratio undefined
    with pytest.raises(ValueError):
        log_psi_ratio_prefix(small_table, 1, 3)  # psi_1 is not defined
    with pytest.raises(ValueError):
        log_psi_ratio_prefix(small_table, 2, -1)


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


def _flagged_by_full_window(windows, gap):
    """The m the champion screen flagged without its cut: those whose upper
    bound, lower bound plus gap, reaches the running maximum of every lower
    bound of each window less the band, carried from window to window."""
    top, lo, out = -math.inf, 1, []
    for logs in windows:
        running = np.maximum(np.maximum.accumulate(logs), top)
        kept = logs + gap >= running - primorial.LOG_RATIO_BAND
        out += [lo + i for i in np.flatnonzero(kept).tolist()]
        top, lo = running[-1], lo + logs.size
    return out


# ties, and steps of half the band around them
_levels = st.one_of(
    st.sampled_from([0.0, 1.0 - 2e-9, 1.0 - 1e-9, 1.0 - 5e-10, 1.0, 1.0 + 5e-10, 1.0 + 1e-9, 2.0]),
    st.floats(-1.0, 3.0),
)


@settings(max_examples=150, deadline=None)
@given(
    _levels,
    st.lists(st.lists(_levels, min_size=1, max_size=40), min_size=1, max_size=5),
    st.sampled_from([0.0, 5e-10, 1e-3, 0.5]),
)
def test_screened_champions_match_full_window_maxima(top, windows, gap):
    # champion_scan's screen over given windows of lower bounds, the first of
    # which sets top, carried from window to window as the scan carries it
    windows = [np.array([top])] + [np.array(w) for w in windows]
    top, lo, seen = -math.inf, 1, []
    for logs in windows:
        offsets, top = primorial._champion_screen(logs, gap, top)
        assert all(type(i) is int for i in offsets)
        seen += [lo + i for i in offsets]
        lo += logs.size
    assert seen == _flagged_by_full_window(windows, gap)
    assert top == max(np.concatenate(windows))


_PRIMS = np.array([6, 30, 210, 2310, 30030], dtype=np.int64)


@st.composite
def reduction_windows(draw):
    """A window near a primorial, lines for the primorials in any order, and
    upper bounds each a step above or below its m's line, none at a tie."""
    lo = draw(st.sampled_from([6, 200, 2300, 30000])) + draw(st.integers(0, 40))
    lines = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)))
    steps = st.one_of(
        st.sampled_from([-0.5, -1e-3, -1e-10, 1e-10, 1e-3]),
        st.floats(1e-12, 0.5),
        st.floats(-0.5, -1e-12),
    )
    ms = range(lo, lo + draw(st.integers(1, 64)))
    k = np.searchsorted(_PRIMS, ms, side="right") - 1
    upper = lines[k] + np.log(np.log(np.log(np.array(ms, dtype=np.float64))))
    return lo, upper + np.array([draw(steps) for _ in ms]), lines


@settings(max_examples=150, deadline=None)
@given(reduction_windows())
def test_reduction_screen_matches_full_window(window):
    # the window's least line clears m before their own line is formed, and
    # must clear none that their own line keeps
    lo, upper, lines = window
    expected = []
    for i, u in enumerate(upper.tolist()):
        m = lo + i
        k = int(np.searchsorted(_PRIMS, m, side="right")) - 1
        if m != _PRIMS[k] and u - math.log(math.log(math.log(m))) >= lines[k]:
            expected.append((m, k))
    assert primorial._reduction_screen(lo, upper, _PRIMS, lines) == expected


@pytest.mark.parametrize("t", [2, 7])
def test_reduction_to_primorials(t):
    # the running maximum of psi_t(m) / (m log log m) sits on primorials
    assert reduction_check(100_000, t)


@pytest.mark.parametrize(
    "raised, holds", [(211, False), (1009, False), (2731, False), (2310, True)]
)
def test_reduction_check_fails_where_a_non_primorial_rises(monkeypatch, raised, holds):
    # a forced psi_t(m)/m above every line must fail the check, unless m is a
    # primorial, which only sets the line of the n after it; in windows of 997
    # from 6, the line of 1009 is carried over from 210's window
    real = primorial.psi_over_n
    monkeypatch.setattr(
        primorial, "psi_over_n", lambda f, t: Fraction(100) if f.value == raised else real(f, t)
    )
    monkeypatch.setattr(primorial, "LOG_RATIO_BAND", 100.0)
    monkeypatch.setattr(multiplicative, "SEGMENT_SIZE", 997)
    assert reduction_check(3000, 3) == holds


def test_reduction_limit_domain():
    with pytest.raises(ValueError):
        reduction_check(5, 2)
