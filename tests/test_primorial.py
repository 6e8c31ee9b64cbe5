"""Primorial prefix arrays, champion enumeration, and the reduction step."""

import math
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinpsi import (
    CoverageError,
    build_table,
    champion_scan,
    psi_over_n,
    psi_ratio_logs,
    ratio_curve,
)
from robinpsi import multiplicative, primorial
from robinpsi.multiplicative import factorize
from robinpsi.primes import PrimeTable, _segmented_primes, blocks, compensated_prefix, prefix_at
from robinpsi.primorial import _psi_ratio_terms, _veltkamp_terms

from conftest import factor_by_division, is_prime, primorials_up_to


def _log_ratios(table, t, n):
    """log(psi_t(N_k)/N_k) for 0 <= k <= n, read off the walk at every k."""
    return prefix_at(table.primes, partial(psi_ratio_logs, t=t), np.arange(n + 1))


def test_start_point_is_empty_product(small_table):
    assert small_table.theta_upto(len(small_table))[0] == 0.0
    for t in (2, 3):
        assert _log_ratios(small_table, t, 0).tolist() == [0.0]


def test_prefix_reaches_fourth_primorial(small_table):
    assert small_table.primes[3] == 7
    assert small_table.theta_upto(len(small_table))[4] == pytest.approx(math.log(210), abs=1e-13)
    # product of (1 + 1/p) over 2, 3, 5, 7 is 576/210
    log_ratio = _log_ratios(small_table, 2, 4)[4]
    assert log_ratio == pytest.approx(math.log(Fraction(576, 210)), abs=1e-13)


def test_prefix_matches_high_precision_products(small_table):
    # fifty-digit reference for the log of the ratio product at n = 100
    for t in (2, 5):
        log_ratio = _log_ratios(small_table, t, 100)[100]
        with mpmath.workdps(50):
            ref = mpmath.fsum(
                mpmath.log(mpmath.mpf(p**t - 1) / ((p - 1) * p ** (t - 1)))
                for p in small_table.primes[:100].tolist()
            )
            logn = mpmath.fsum(mpmath.log(p) for p in small_table.primes[:100].tolist())
        assert log_ratio == pytest.approx(float(ref), abs=1e-11)
        theta = small_table.theta_upto(len(small_table))
        assert theta[100] == pytest.approx(float(logn), rel=1e-13)


def _int_quotients(primes, t):
    # Python's int true division rounds the exact rational correctly
    return [(p ** (t - 1) - 1) / (p ** (t - 1) * (p - 1)) for p in primes]


@pytest.mark.parametrize("t", [2, 3, 4, 5, 7, 10, 64])
def test_psi_ratio_terms_match_int_quotients(small_table, t):
    primes = small_table.primes.tolist()
    quotients = [x.hex() for x in _int_quotients(primes, t)]
    terms, exact = _psi_ratio_terms(small_table.primes, t)
    assert [x.hex() for x in terms.tolist()] == quotients
    assert all(primes[k] > _division_limit(t) for k in exact)
    # the Veltkamp route alone on the same primes: its float form rounds the
    # wrong way at p = 3 for t = 2 and 4, so only the int fallback gets those
    # terms right
    terms, exact = _veltkamp_terms(small_table.primes, t)
    assert [x.hex() for x in terms.tolist()] == quotients
    if t in (2, 4):
        assert 1 in exact
    assert len(exact) < len(primes) // 50  # numpy decides nearly every term


def test_psi_ratio_terms_fall_back_above_the_split_limit():
    big = (1 << 26) + 15
    assert all(big % d for d in range(2, math.isqrt(big) + 1))  # prime
    primes = [2, 3, 5, 7, big]
    table = PrimeTable(limit=big, primes=np.array(primes, dtype=np.int64))
    for t in (3, 7):
        quotients = _int_quotients(primes, t)
        terms, exact = _veltkamp_terms(table.primes, t)
        assert 4 in exact
        assert terms.tolist() == quotients
        # big^2 < 2^53, so at t = 3 it takes the division; at t = 7 it lies
        # past the division's limit, and the Veltkamp route falls back
        terms, exact = _psi_ratio_terms(table.primes, t)
        assert exact == ([] if t == 3 else [4])
        assert terms.tolist() == quotients
        expect = compensated_prefix([math.log1p(x) for x in quotients])
        assert _log_ratios(table, t, 5).tolist() == expect.tolist()


def _division_limit(t):
    """The largest p with p^(t-1) < 2^53."""
    return multiplicative._iroot(2**53 - 1, t - 1)


@pytest.fixture
def veltkamp_primes(monkeypatch):
    """The primes that primorial._psi_ratio_terms hands the Veltkamp route,
    in the order handed."""
    seen = []
    route = primorial._veltkamp_terms

    def spy(p, *args):
        seen.extend(int(q) for q in p)
        return route(p, *args)

    monkeypatch.setattr(primorial, "_veltkamp_terms", spy)
    return seen


@pytest.mark.parametrize("t", [2, 3])
def test_psi_ratio_terms_divide_every_prime_below_2_22(veltkamp_primes, t):
    # block by block, as the walks form them; int64 and float64 alike
    primes = _segmented_primes(1 << 22)
    for a, b in blocks(0, len(primes)):
        block = primes[a:b]
        quotients = np.array(_int_quotients(block.tolist(), t))
        for p in (block, block.astype(np.float64)):
            terms, _ = _psi_ratio_terms(p, t)
            assert np.array_equal(terms.view(np.uint64), quotients.view(np.uint64))
    assert veltkamp_primes == []


@pytest.mark.parametrize("t", range(2, 65))
def test_psi_ratio_terms_agree_across_the_division_limit(veltkamp_primes, t):
    # the last prime at or below the limit and the first past it, each in one
    # block with the small primes below it, int64 and float64 alike (the
    # first prime past 2^53 - 1, for t = 2, has no float64 form)
    limit = _division_limit(t)
    assert limit ** (t - 1) < 2**53 <= (limit + 1) ** (t - 1)
    below = next((q for q in range(limit, 1, -1) if is_prime(q)), None)
    above = next(q for q in range(limit + 1, 2 * limit + 3) if is_prime(q))
    for seam in filter(None, (below, above)):
        primes = [q for q in (2, 3, 5, 7, 11, 13) if q < seam] + [seam]
        quotients = np.array(_int_quotients(primes, t))
        forms = [np.array(primes, dtype=np.int64)]
        if seam < 2**53:
            forms.append(forms[0].astype(np.float64))
        for p in forms:
            veltkamp_primes.clear()
            terms, _ = _psi_ratio_terms(p, t)
            assert np.array_equal(terms.view(np.uint64), quotients.view(np.uint64))
            assert veltkamp_primes == [q for q in primes if q > limit]


def test_prefix_is_stable_in_n(small_table):
    # a longer march never changes the earlier entries
    short = _log_ratios(small_table, 3, 50)
    long = _log_ratios(small_table, 3, 500)
    assert long[:51].tolist() == short.tolist()


def test_prefix_needs_table_coverage():
    table = build_table(10)
    assert len(_log_ratios(table, 2, 4)) == 5  # 2, 3, 5, 7 all fit
    with pytest.raises(IndexError):
        _log_ratios(table, 2, 5)
    with pytest.raises(CoverageError):
        ratio_curve(table, 2, 5)


def test_robin_ratio_value(small_table):
    # R_2(N_4) = psi_2(210) / (210 log log 210), from the prefix arrays
    log_ratio = _log_ratios(small_table, 2, 4)[4]
    ratio = math.exp(log_ratio) / math.log(small_table.theta_upto(len(small_table))[4])
    expect = (576 / 210) / math.log(math.log(210))
    assert ratio == pytest.approx(expect, rel=1e-12)
    assert ratio == pytest.approx(1.6360071034244228, rel=1e-12)
    assert list(ratio_curve(small_table, 2, 4))[-1][2] == ratio


def test_robin_ratio_domain(small_table):
    with pytest.raises(ValueError):
        ratio_curve(small_table, 2, 1)  # log log 2 is negative, ratio undefined
    with pytest.raises(ValueError):
        _log_ratios(small_table, 1, 3)  # psi_1 is not defined
    with pytest.raises(ValueError):
        ratio_curve(small_table, 1, 3)
    with pytest.raises(IndexError):
        prefix_at(small_table.primes, partial(psi_ratio_logs, t=2), [-1])


def test_primorials_up_to():
    # the tests' primorials, and the strict champions on each side of one
    assert primorials_up_to(1) == [1]
    assert primorials_up_to(2) == [1, 2]
    assert primorials_up_to(10_000) == [1, 2, 6, 30, 210, 2310]
    for limit in (1, 2, 5, 6, 2309, 2310):
        assert champion_scan(limit, 3) == primorials_up_to(limit)


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
    st.booleans(),
    st.sampled_from([4, 1024]),
)
# kept by the full window, as log + gap rounds to 1.0 = top - band, while
# top - gap - band rounds above log: at the window's top, and at the head of
# a block of 4, the first window's first value, with top at -inf
@example(top=1.000000001, windows=[[0.9999999995]], gap=5e-10, alone=True, block=1024)
@example(top=1.000000001, windows=[[0.0, 0.5, 1.0, 0.9999999995, 0.0]], gap=5e-10,
         alone=False, block=4)
def test_screened_champions_match_full_window_maxima(top, windows, gap, alone, block):
    # champion_scan's screen over given windows of lower bounds, the first of
    # which sets top, alone or at the head of the first drawn window, carried
    # from window to window as the scan carries it; the offsets a block cut
    # keeps are among those the window's floor keeps
    windows = [np.array(w) for w in windows]
    windows = [np.array([top])] + windows if alone else [np.append(top, windows[0])] + windows[1:]
    cut = multiplicative.screen_cut
    kept = []
    top, lo, seen = -math.inf, 1, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiplicative, "SCREEN_BLOCK", block)
        patch.setattr(primorial, "screen_cut", lambda *a: kept.append((a, cut(*a))) or kept[-1][1])
        for logs in windows:
            offsets, top = primorial._champion_screen(logs, gap, top)
            assert all(type(i) is int for i in offsets)
            seen += [lo + i for i in offsets]
            lo += logs.size
    assert seen == _flagged_by_full_window(windows, gap)
    assert top == max(np.concatenate(windows))
    for (values, floor, _), near in kept:
        assert set(near.tolist()) <= set(np.flatnonzero(values >= floor).tolist())


@pytest.mark.parametrize("t", [2, 7])
def test_reduction_to_primorials(t):
    # the running maximum of psi_t(m) / (m log log m) sits on primorials
    assert champion_scan(100_000, t) == primorials_up_to(100_000)


@pytest.mark.parametrize(
    "raised, holds", [(211, False), (1009, False), (2731, False), (2310, True)]
)
def test_reduction_check_fails_where_a_non_primorial_rises(monkeypatch, raised, holds):
    # a forced psi_t(m)/m above every earlier value makes m a champion, which
    # breaks the reduction unless m is a primorial; the band sends every m to
    # the exact decision, in windows of 997 from 1
    real = primorial.psi_over_n
    monkeypatch.setattr(
        primorial, "psi_over_n", lambda f, t: Fraction(100) if f.value == raised else real(f, t)
    )
    monkeypatch.setattr(primorial, "LOG_RATIO_BAND", 100.0)
    monkeypatch.setattr(multiplicative, "SEGMENT_SIZE", 997)
    assert (champion_scan(3000, 3) == primorials_up_to(3000)) == holds


def test_reduction_limit_domain():
    # the reduction is the champion scan's: the limit is checked first, then
    # t, each with its own text
    for limit, t, text in ((0, 2, "limit >= 1, got 0"), (0, 1, "limit >= 1"), (1, 1, "t >= 2, got 1")):
        with pytest.raises(ValueError, match=text):
            champion_scan(limit, t)


@pytest.mark.parametrize("t", [2, 3, 7])
def test_reduction_inequality_at_60_digits(t):
    # the reduction step itself, independent of the champion scan:
    # log R_t(m) - log R_t(N_k) < 0 for every non-primorial m in [6, 3000],
    # N_k the largest primorial <= m, psi_t(m)/m exact from trial division
    def log_r(m):
        ratio = math.prod(
            Fraction(p**t - 1, p ** (t - 1) * (p - 1)) for p, _ in factor_by_division(m)
        )
        return mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator) - mpmath.log(
            mpmath.log(mpmath.log(m))
        )

    prims = [6, 30, 210, 2310]
    with mpmath.workdps(60):
        lines = {n_k: log_r(n_k) for n_k in prims}
        worst = max(
            log_r(m) - lines[max(n_k for n_k in prims if n_k <= m)]
            for m in range(6, 3001)
            if m not in lines
        )
    assert worst < 0
    assert champion_scan(3000, t) == primorials_up_to(3000)
