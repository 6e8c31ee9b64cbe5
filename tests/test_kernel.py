"""Differential checks of the prime-power peeling kernel and its folds
against per-integer factorize, sigma and psi_over_n, against the division
kernel it replaced, and against a library-free oracle just below 2^50."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinpsi import (
    ResourceError,
    champion_scan,
    reduction_check,
    robin_scan,
    verify_sigma_le_psi,
    verify_tfree_robin,
)
from robinpsi import multiplicative, primorial, robin
from robinpsi.multiplicative import (
    MAX_SCAN_STOP,
    MAX_SPAN,
    factorize,
    is_t_free,
    prime_power_events,
    psi_over_n,
    sigma,
)
from robinpsi.primes import _segmented_primes
from robinpsi.primorial import _log_psi_ratios

EDGE = 1 << 22

windows = st.tuples(
    st.one_of(
        st.just(1),
        st.integers(1, 10**9),
        st.integers(EDGE - 3000, EDGE + 10),  # windows across the segment edge
    ),
    st.integers(1, 3000),
)


def _expanded(events, lo, hi):
    """Each event as (p, offsets, exponents) lists, a slice expanded to offsets."""
    return [
        (p.tolist() if np.ndim(p) else p, np.arange(hi - lo)[where].tolist(), exp.tolist())
        for p, where, exp in events
    ]


def _sigma_segment(lo, hi, primes):
    """The sigma fold of the Robin scans on one window, before its margins."""
    fold = robin._RobinFold()
    fold.open(lo, hi)
    for event in prime_power_events(lo, hi, primes):
        fold.add(*event)
    return fold.sig


def _fold_factors(lo, hi, primes):
    folded = [[] for _ in range(hi - lo)]
    for p, off, exp in _expanded(prime_power_events(lo, hi, primes), lo, hi):
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
    primes = small_table.primes.tolist()
    got = list(prime_power_events(lo, hi, primes))
    assert _expanded(got, lo, hi) == _expanded(_division_kernel(lo, hi, primes), lo, hi)
    assert all(exp.dtype == np.int8 for _, _, exp in got)
    assert got[-1][0].dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(windows)
def test_kernel_exponents_and_sigma(small_table, window):
    lo, width = window
    hi = lo + width
    primes = small_table.primes.tolist()
    folded = _fold_factors(lo, hi, primes)
    sig = _sigma_segment(lo, hi, primes)
    for i, n in enumerate(range(lo, hi)):
        f = factorize(n, small_table)
        assert folded[i] == f.factors
        assert int(sig[i]) == sigma(f)


@settings(max_examples=60, deadline=None)
@given(windows, st.integers(2, 64))
def test_kernel_log_ratio(small_table, window, t):
    lo, width = window
    logs = _log_psi_ratios(lo, lo + width, t, small_table.primes.tolist())
    for i, n in enumerate(range(lo, lo + width)):
        exact = math.log(psi_over_n(factorize(n, small_table), t))
        assert logs[i] == pytest.approx(exact, abs=1e-13)


def test_sweeps_agree_across_segment_boundaries(monkeypatch, small_table):
    # every range sweep carries state from one window to the next
    expected = (
        [champion_scan(20_000, t, mode) for t in (2, 5) for mode in ("strict", "weak")],
        [verify_sigma_le_psi(20_000, t) for t in (2, 3, 4)],
        robin_scan(3, 20_000, small_table),
        [verify_tfree_robin(t, 20_000, small_table) for t in (6, 7)],
    )
    for module in (multiplicative, primorial):
        monkeypatch.setattr(module, "SEGMENT_SIZE", 997)
    got = (
        [champion_scan(20_000, t, mode) for t in (2, 5) for mode in ("strict", "weak")],
        [verify_sigma_le_psi(20_000, t) for t in (2, 3, 4)],
        robin_scan(3, 20_000, small_table),
        [verify_tfree_robin(t, 20_000, small_table) for t in (6, 7)],
    )
    assert got == expected
    assert reduction_check(20_000, 3)


@settings(max_examples=15, deadline=None)
@given(st.integers(5041, 30_000), st.sampled_from([6, 7]))
def test_tfree_pass_matches_separate_sweeps(small_table, limit, t):
    # one fused sweep against the sigma scan and the bridge sweep run apart
    report = verify_tfree_robin(t, limit, small_table)
    violators = robin_scan(3, limit, small_table)
    assert report.violators_found == len(violators)
    assert report.max_violator == max(v.n for v in violators)
    assert report.tfree_violators_above_5040 == tuple(
        v.n for v in violators if v.n > 5040 and is_t_free(factorize(v.n, small_table), t)
    )
    assert report.bridge == verify_sigma_le_psi(limit, t)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda limit: champion_scan(limit, 2),
        lambda limit: verify_sigma_le_psi(limit, 3),
        lambda limit: reduction_check(limit, 2),
    ],
    ids=["champion_scan", "verify_sigma_le_psi", "reduction_check"],
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
    return _segmented_primes(1 << 25).tolist()


@pytest.mark.parametrize(
    "lo, hi",
    [
        (MAX_SCAN_STOP - 999, MAX_SCAN_STOP + 1),  # the last window a sweep may reach
        (2**49 - 500, 2**49 + 500),
        (3**31 - 500, 3**31 + 500),
    ],
)
def test_kernel_below_scan_limit(primes_to_2_25, lo, hi):
    # every check is plain integer arithmetic on the events themselves
    factors = [[] for _ in range(hi - lo)]
    root = math.isqrt(hi - 1)
    events = list(prime_power_events(lo, hi, primes_to_2_25))
    for p, off, exp in _expanded(events[:-1], lo, hi):
        assert p <= root and _is_prime(p)
        for i, e in zip(off, exp):
            n = lo + i
            assert e >= 1 and n % p**e == 0 and n % p ** (e + 1) != 0
            factors[i].append((p, e))
    for q, i, e in zip(*_expanded(events[-1:], lo, hi)[0]):
        assert e == 1 and q > root and _is_prime(q)
        factors[i].append((q, 1))
    sig = _sigma_segment(lo, hi, primes_to_2_25)
    for i, n in enumerate(range(lo, hi)):
        assert math.prod(p**e for p, e in factors[i]) == n
        assert int(sig[i]) == math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factors[i])
