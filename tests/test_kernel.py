"""Differential checks of the prime-power peeling kernel and the window sums
built on it against per-integer factorize, sigma and psi_over_n, against the
division kernel it replaced, against a library-free oracle just below 2^50,
and of the t-free pipeline against a divisor-sum sieve."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinpsi import (
    ResourceError,
    build_table,
    champion_scan,
    reduction_check,
    robin_scan,
    verify_sigma_le_psi,
    verify_tfree_robin,
)
from robinpsi import multiplicative, primorial, robin
from robinpsi.multiplicative import (
    BATCH_MULTIPLES,
    MAX_SCAN_STOP,
    MAX_SPAN,
    KernelPlan,
    factorize,
    prime_power_events,
    psi_over_n,
    sigma,
)
from robinpsi.primes import _segmented_primes

from conftest import factor_by_division

EDGE = multiplicative.SEGMENT_SIZE

PRIMES_TO_1000 = _segmented_primes(1000).tolist()


@st.composite
def batched_windows(draw):
    """Windows holding an n = p q r or n = p^2 q with p, q, r batched base
    primes of the window: each above its threshold, none above sqrt(n)."""
    width = draw(st.integers(1, 3000))
    low = max(width // BATCH_MULTIPLES + 1, 50)  # then p q >= 53 * 59 > 1000 >= r
    pool = [p for p in PRIMES_TO_1000 if p >= low]
    p, q, r = sorted(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3, unique=True)))
    n = p * p * q if draw(st.booleans()) else p * q * r
    return n - draw(st.integers(0, width - 1)), width


windows = st.one_of(
    st.tuples(
        st.one_of(
            st.just(1),
            st.integers(1, 10**9),
            st.integers(EDGE - 3000, EDGE + 10),  # windows across the segment edge
        ),
        st.integers(1, 3000),
    ),
    batched_windows(),
)


def _expanded(events, lo, hi):
    """Each event as (p, offsets, exponents) lists, a slice expanded to
    offsets; a base prime's strided events, one per power, folded into one
    with its exponent at each multiple, after checking their contract."""
    out = []
    for p, where, exp in events:
        offsets = np.arange(hi - lo)[where].tolist()
        if not isinstance(where, slice):  # an array event, or the division kernel's
            out.append((p.tolist() if np.ndim(p) else p, offsets, exp.tolist()))
            continue
        assert type(p) is int and type(exp) is int
        assert where == slice((-lo) % p**exp, None, p**exp)
        if exp == 1:
            out.append((p, offsets, [1] * len(offsets)))
            continue
        q, multiples, exps = out[-1]
        assert q == p and max(exps) == exp - 1  # p^(exp-1) came just before
        for i in offsets:
            exps[(i - multiples[0]) // p] += 1
    return out


def _events(lo, hi, primes):
    return list(prime_power_events(lo, hi, KernelPlan(primes, hi - lo)))


def _sigma_segment(lo, hi, primes):
    """The Robin scans' sigma of one window, before its margins."""
    return robin._window_sigma(lo, hi, _events(lo, hi, primes))


def _log_ratio_segment(lo, hi, t, primes):
    """The log(psi_t(n)/n) of the champion and reduction screens on one window."""
    return primorial._window_logs(lo, hi, _events(lo, hi, primes), t, {})


def _fold_factors(events, lo, hi):
    folded = [[] for _ in range(hi - lo)]
    for p, off, exp in _expanded(events, lo, hi):
        ps = p if isinstance(p, list) else [p] * len(off)
        for q, i, e in zip(ps, off, exp):
            folded[i].append((q, e))
    return [tuple(f) for f in folded]


def _division_kernel(lo, hi, base_primes):
    """The gather, divide and scatter kernel the strided one replaced: the oracle."""
    size = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    root = math.isqrt(hi - 1)
    for p in base_primes:
        if p > root:
            break
        idx = np.arange((-lo) % p, size, p, dtype=np.int64)
        if idx.size == 0:
            continue
        val = rem[idx] // p
        exp = np.ones(idx.size, dtype=np.int8)
        sel = np.flatnonzero(val % p == 0)
        while sel.size:
            val[sel] //= p
            exp[sel] += 1
            sel = sel[val[sel] % p == 0]
        rem[idx] = val
        yield p, idx, exp
    left = np.flatnonzero(rem > 1)
    yield rem[left], left, np.ones(left.size, dtype=np.int8)


@settings(max_examples=150, deadline=None)
@given(windows)
def test_kernel_matches_division_kernel(small_table, window):
    lo, width = window
    hi = lo + width
    got = _events(lo, hi, small_table.primes)
    expected = list(_division_kernel(lo, hi, small_table.primes.tolist()))
    # the primes peeled one at a time are the division kernel's below the threshold
    threshold = width // BATCH_MULTIPLES
    scalar = [event for event in got if not np.ndim(event[0])]
    peeled = [event for event in expected[:-1] if event[0] <= threshold]
    assert _expanded(scalar, lo, hi) == _expanded(peeled, lo, hi)
    assert _fold_factors(got, lo, hi) == _fold_factors(expected, lo, hi)
    assert _expanded(got[-1:], lo, hi) == _expanded(expected[-1:], lo, hi)
    *batched, cofactors = [event for event in got if np.ndim(event[0])]
    assert len(batched) <= 1
    for p, where, exp in batched + [cofactors]:
        assert p.dtype == where.dtype == np.int64 and exp.dtype == np.int8
    for p, where, _ in batched:  # prime by prime, ascending, each one's offsets ascending
        assert ((np.diff(p) > 0) | ((np.diff(p) == 0) & (np.diff(where) > 0))).all()
    assert (np.diff(cofactors[1]) > 0).all()  # each cofactor's offset once, ascending


@settings(max_examples=60, deadline=None)
@given(batched_windows())
def test_kernel_batches_three_primes_or_a_square(small_table, window):
    lo, width = window
    events = _events(lo, lo + width, small_table.primes)[:-1]
    (where, exp), = [(where, exp) for p, where, exp in events if np.ndim(p)]
    assert np.bincount(where).max() >= 3 or exp.max() >= 2


@settings(max_examples=60, deadline=None)
@given(windows)
def test_kernel_exponents_and_sigma(small_table, window):
    lo, width = window
    hi = lo + width
    folded = _fold_factors(_events(lo, hi, small_table.primes), lo, hi)
    sig = _sigma_segment(lo, hi, small_table.primes)
    for i, n in enumerate(range(lo, hi)):
        f = factorize(n, small_table)
        assert folded[i] == f.factors
        assert int(sig[i]) == sigma(f)


@settings(max_examples=60, deadline=None)
@given(windows, st.integers(2, 64))
def test_kernel_log_ratio(small_table, window, t):
    lo, width = window
    logs = _log_ratio_segment(lo, lo + width, t, small_table.primes)
    for i, n in enumerate(range(lo, lo + width)):
        exact = math.log(psi_over_n(factorize(n, small_table), t))
        assert logs[i] == pytest.approx(exact, abs=1e-13)


def test_sweeps_agree_across_segment_boundaries(monkeypatch, small_table):
    # every range sweep carries state from one window to the next
    def run():
        return (
            [champion_scan(20_000, t, mode) for t in (2, 5) for mode in ("strict", "weak")],
            [verify_sigma_le_psi(20_000, t) for t in (2, 3, 4)],
            robin_scan(3, 20_000, small_table),
            [verify_tfree_robin(t, 20_000, small_table) for t in (6, 7)],
            reduction_check(20_000, 3),
        )

    expected = run()
    batched = []
    kernel = multiplicative.prime_power_events

    def spy(lo, hi, plan):
        events = list(kernel(lo, hi, plan))
        batched.append(sum(np.ndim(p) for p, _, _ in events[:-1]))
        yield from events

    monkeypatch.setattr(multiplicative, "SEGMENT_SIZE", 997)
    monkeypatch.setattr(multiplicative, "prime_power_events", spy)
    assert run() == expected
    assert expected[-1]
    # most windows batch some base primes above 997 // BATCH_MULTIPLES
    assert sum(count > 0 for count in batched) > len(batched) // 2


@pytest.fixture(scope="module")
def scan_oracle():
    """The Robin violators n <= 30000, sigma(n) from a divisor-sum sieve and
    each verdict from _verdict_from_sigma, and every n's factors by trial
    division, factors[n]."""
    top = 30_000
    sig = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        sig[d::d] += d
    verdicts = (robin._verdict_from_sigma(n, int(sig[n])) for n in range(3, top + 1))
    factors = [None] + [factor_by_division(n) for n in range(1, top + 1)]
    return [v for v in verdicts if not v.holds], factors


@settings(max_examples=15, deadline=None)
@given(st.integers(5041, 30_000), st.sampled_from([6, 7]))
def test_tfree_pass_matches_separate_sweeps(small_table, scan_oracle, limit, t):
    # the pipeline's branches (a) and (c) against the slow oracle, in one
    # window and in windows of 997, where later windows clear most n by the
    # screen before any margin is formed
    violators, factors = scan_oracle
    expected = [v for v in violators if v.n <= limit]
    exponents = [[e for _, e in f] for f in factors[1 : limit + 1]]
    for segment in (multiplicative.SEGMENT_SIZE, 997):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(multiplicative, "SEGMENT_SIZE", segment)
            assert robin_scan(3, limit, small_table) == expected
            report = verify_tfree_robin(t, limit, small_table)
        assert report.violators_found == len(expected)
        assert report.max_violator == expected[-1].n
        assert report.tfree_violators_above_5040 == tuple(
            v.n for v in expected if v.n > 5040 and all(e < t for _, e in factors[v.n])
        )
        assert report.bridge.passed
        assert report.bridge.checked == sum(all(e < t for e in es) for es in exponents)
        assert report.bridge.equalities == sum(all(e == t - 1 for e in es) for es in exponents)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda limit: champion_scan(limit, 2),
        lambda limit: verify_sigma_le_psi(limit, 3),
        lambda limit: reduction_check(limit, 2),
        lambda limit: verify_tfree_robin(6, limit, build_table(100)),
    ],
    ids=["champion_scan", "verify_sigma_le_psi", "reduction_check", "verify_tfree_robin"],
)
def test_sweep_limits(sweep):
    # both guards come before any sieving, so each call returns at once
    start = time.perf_counter()
    for limit in (MAX_SCAN_STOP + 1, 2**63 + 5):
        with pytest.raises(ResourceError, match="2\\^50"):
            sweep(limit)
    with pytest.raises(ResourceError, match="budget"):
        sweep(MAX_SPAN + 6)
    assert time.perf_counter() - start < 1.0


def test_tfree_budget_check_comes_before_the_scan(monkeypatch):
    # robin_scan(3, MAX_SPAN + 1) spans MAX_SPAN - 1 integers and would pass
    # its own check; the bridge's check over [1, MAX_SPAN + 1] must raise first
    monkeypatch.setattr(robin, "robin_scan", lambda *args: pytest.fail("scanned first"))
    with pytest.raises(ResourceError, match="budget"):
        verify_tfree_robin(6, MAX_SPAN + 1, build_table(100))


@pytest.mark.parametrize("t", [2, 7])
def test_screens_agree_with_deciding_every_point(monkeypatch, t):
    # a band wide enough to send every n to the exact or 60-digit decision
    expected = [champion_scan(3000, t, mode) for mode in ("strict", "weak")]
    monkeypatch.setattr(primorial, "LOG_RATIO_BAND", 100.0)
    assert [champion_scan(3000, t, mode) for mode in ("strict", "weak")] == expected
    assert reduction_check(3000, t)


def _is_prime(n):
    """Deterministic Miller-Rabin: the first twelve primes as bases decide
    every n below 3.18e23 (Sorenson and Webster 2015)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@pytest.fixture(scope="module")
def primes_to_2_25():
    return _segmented_primes(1 << 25)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (MAX_SCAN_STOP - 999, MAX_SCAN_STOP + 1),  # the last window a sweep may reach
        (2**49 - 500, 2**49 + 500),
        (3**31 - 500, 3**31 + 500),
        # p^2 for the largest prime p below 2^25, whose p^3 would pass 2^63
        ((2**25 - 39) ** 2 - 500, (2**25 - 39) ** 2 + 500),
    ],
)
def test_kernel_below_scan_limit(primes_to_2_25, lo, hi):
    # every check is plain integer arithmetic on the events themselves
    factors = [[] for _ in range(hi - lo)]
    root = math.isqrt(hi - 1)
    events = _expanded(_events(lo, hi, primes_to_2_25), lo, hi)
    assert any(isinstance(p, list) for p, _, _ in events[:-1])  # some base primes are batched
    for p, off, exp in events[:-1]:
        ps = p if isinstance(p, list) else [p] * len(off)
        assert len(set(zip(ps, off))) == len(off)
        for q, i, e in zip(ps, off, exp):
            assert q <= root and _is_prime(q)
            n = lo + i
            assert e >= 1 and n % q**e == 0 and n % q ** (e + 1) != 0
            factors[i].append((q, e))
    for q, i, e in zip(*events[-1]):
        assert e == 1 and q > root and _is_prime(q)
        factors[i].append((q, 1))
    sig = _sigma_segment(lo, hi, primes_to_2_25)
    for i, n in enumerate(range(lo, hi)):
        assert math.prod(p**e for p, e in factors[i]) == n
        assert int(sig[i]) == math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factors[i])
