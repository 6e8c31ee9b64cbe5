"""Checks of the division-free sweep kernel and the screens built on it: its
marks against per-integer factorize, against the division kernel it replaced
and by integer arithmetic just below 2^50; its window sums as bounds on the
exact log(sigma(n)/n) and log(psi_t(n)/n); how many n the screens send to
exact decisions; and the t-free pipeline against a divisor-sum sieve."""

import math
import time
from fractions import Fraction
from functools import partial

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
    Factorization,
    KernelPlan,
    _batched_marks,
    factorize,
    psi_over_n,
    sigma,
    window_weights,
)
from robinpsi.primes import _segmented_primes
from robinpsi.primorial import log_terms

from conftest import factor_by_division, factors_from_marks

EDGE = multiplicative.SEGMENT_SIZE

PRIMES_TO_1000 = _segmented_primes(1000).tolist()

# the stated float error of a window's sums, 2e-14, with room
SUM_ERROR = 1e-13


@st.composite
def batched_windows(draw):
    """n = p q r or n = p^2 q with p, q, r batched base primes of a window
    holding n: each above its threshold, none above sqrt(n); and the window,
    (n, lo, width)."""
    width = draw(st.integers(1, 3000))
    low = max(width // BATCH_MULTIPLES + 1, 50)  # then p q >= 53 * 59 > 1000 >= r
    pool = [p for p in PRIMES_TO_1000 if p >= low]
    p, q, r = sorted(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3, unique=True)))
    n = p * p * q if draw(st.booleans()) else p * q * r
    return n, n - draw(st.integers(0, width - 1)), width


windows = st.one_of(
    st.tuples(
        st.one_of(
            st.just(1),
            st.integers(1, 10**9),
            st.integers(EDGE - 3000, EDGE + 10),  # windows across the segment edge
        ),
        st.integers(1, 3000),
    ),
    batched_windows().map(lambda window: window[1:]),
)


def _sums(lo, hi, primes, weight, total):
    """The kernel's sums on [lo, hi) and the window's gap, as a sweep of
    [lo, hi - 1] forms them."""
    acc = window_weights(lo, hi, KernelPlan(primes, hi - lo, hi - 1, weight, total))
    return acc, float(weight(math.isqrt(hi - 1) + 1, 1))


def _check_sigma_bounds(lo, hi, primes, factors):
    """The Robin sums on [lo, hi) against each n's factors: acc sums the
    weights of the contract, log(sigma(p^e)/p^e) for a strided p and
    log(p/(p-1)) for a batched one, within the float error; with the gap it
    bounds log(sigma(n)/n) from above, and it lies above that by no more than
    the batched primes' excess, log(p^2/(p^2-1)) at most each."""
    acc, gap = _sums(lo, hi, primes, robin._sigma_weight, robin._sigma_total)
    threshold, root = (hi - lo) // BATCH_MULTIPLES, math.isqrt(hi - 1)
    for i, n in enumerate(range(lo, hi)):
        exact = math.log(Fraction(sigma(Factorization(n, factors[i])), n))
        base = [(p, e) for p, e in factors[i] if p <= root]
        batched = [p for p, _ in base if p > threshold]
        local = [Fraction(sigma(Factorization(p**e, ((p, e),))), p**e) for p, e in base]
        contract = sum(
            math.log(Fraction(p, p - 1)) if p > threshold else math.log(r)
            for (p, _), r in zip(base, local)
        )
        assert acc[i] == pytest.approx(contract, abs=SUM_ERROR)
        assert exact <= acc[i] + gap + SUM_ERROR
        excess = sum(math.log(Fraction(p * p, p * p - 1)) for p in batched)
        assert acc[i] - excess <= exact + SUM_ERROR


def _check_psi_bounds(lo, hi, primes, factors, t):
    """The sums of log_terms on [lo, hi) against each n's factors: acc sums
    log(psi_t(p)/p) over the base primes of n within the float error, a lower
    bound on log(psi_t(n)/n), and with the gap an upper bound."""
    weight, total = partial(primorial._psi_weight, t=t), partial(log_terms, t=t)
    acc, gap = _sums(lo, hi, primes, weight, total)
    root = math.isqrt(hi - 1)
    for i, n in enumerate(range(lo, hi)):
        exact = math.log(psi_over_n(Factorization(n, factors[i]), t))
        contract = sum(
            math.log(psi_over_n(Factorization(p, ((p, 1),)), t)) for p, _ in factors[i] if p <= root
        )
        assert acc[i] == pytest.approx(contract, abs=SUM_ERROR)
        assert acc[i] - SUM_ERROR <= exact <= acc[i] + gap + SUM_ERROR


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
    # the marks give each n the prime powers the division kernel peels off it
    lo, width = window
    hi = lo + width
    folded = [[] for _ in range(width)]
    for p, where, exp in _division_kernel(lo, hi, small_table.primes.tolist()):
        ps = p.tolist() if np.ndim(p) else [p] * where.size
        for q, i, e in zip(ps, where.tolist(), exp.tolist()):
            folded[i].append((q, e))
    assert factors_from_marks(lo, hi, small_table.primes) == [tuple(f) for f in folded]


@settings(max_examples=60, deadline=None)
@given(batched_windows())
def test_kernel_batches_three_primes_or_a_square(small_table, window):
    # n = p q r or p^2 q takes one batched mark per prime, and its Robin bound
    # covers the square, which the batched marks do not see
    n, lo, width = window
    hi = lo + width
    primes = small_table.primes
    base = primes[: np.searchsorted(primes, math.isqrt(hi - 1), side="right")]
    p, off = _batched_marks(lo, hi, base[base > width // BATCH_MULTIPLES])
    assert sorted(p[off == n - lo].tolist()) == [q for q, _ in factor_by_division(n)]
    acc, _ = _sums(lo, hi, small_table.primes, robin._sigma_weight, robin._sigma_total)
    assert math.log(Fraction(sigma(factorize(n, small_table)), n)) <= acc[n - lo] + SUM_ERROR


@settings(max_examples=60, deadline=None)
@given(windows)
def test_kernel_exponents_and_sigma(small_table, window):
    lo, width = window
    hi = lo + width
    factors = factors_from_marks(lo, hi, small_table.primes)
    assert factors == [factorize(n, small_table).factors for n in range(lo, hi)]
    _check_sigma_bounds(lo, hi, small_table.primes, factors)


@settings(max_examples=60, deadline=None)
@given(windows, st.integers(2, 64))
def test_kernel_log_ratio(small_table, window, t):
    lo, width = window
    hi = lo + width
    factors = [factorize(n, small_table).factors for n in range(lo, hi)]
    _check_psi_bounds(lo, hi, small_table.primes, factors, t)


def test_sweeps_agree_across_segment_boundaries(monkeypatch, small_table):
    # every range sweep carries state from one window to the next; the
    # pipeline gets a fresh table each run, as it keeps its scan per table
    def run():
        fresh = build_table(small_table.limit)
        return (
            [champion_scan(20_000, t, mode) for t in (2, 5) for mode in ("strict", "weak")],
            [verify_sigma_le_psi(20_000, t) for t in (2, 3, 4)],
            robin_scan(3, 20_000, small_table),
            [verify_tfree_robin(t, 20_000, fresh) for t in (6, 7)],
            reduction_check(20_000, 3),
        )

    expected = run()
    batched = []

    def spy(lo, hi, primes):
        p, off = _batched_marks(lo, hi, primes)
        batched.append(p.size)
        return p, off

    monkeypatch.setattr(multiplicative, "SEGMENT_SIZE", 997)
    monkeypatch.setattr(multiplicative, "_batched_marks", spy)
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
    # screen before any margin is formed; each on a fresh table, as the
    # pipeline keeps its scan per table
    violators, factors = scan_oracle
    expected = [v for v in violators if v.n <= limit]
    exponents = [[e for _, e in f] for f in factors[1 : limit + 1]]
    for segment in (multiplicative.SEGMENT_SIZE, 997):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(multiplicative, "SEGMENT_SIZE", segment)
            assert robin_scan(3, limit, small_table) == expected
            report = verify_tfree_robin(t, limit, build_table(small_table.limit))
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
def test_sweep_limits(sweep, monkeypatch):
    # both guards come before any sieving, so each call returns at once; each
    # sweep covers [1, limit], reduction_check's through champion_scan, so
    # MAX_SPAN + 1 is past the budget
    for module, name in ((primorial, "build_table"), (multiplicative, "_segmented_primes")):
        monkeypatch.setattr(module, name, lambda *_: pytest.fail("sieved first"))
    start = time.perf_counter()
    for limit in (MAX_SCAN_STOP + 1, 2**63 + 5):
        with pytest.raises(ResourceError, match="2\\^50"):
            sweep(limit)
    for limit in (MAX_SPAN + 1, MAX_SPAN + 6):
        with pytest.raises(ResourceError, match="budget"):
            sweep(limit)
    assert time.perf_counter() - start < 1.0


def test_tfree_budget_check_comes_before_the_scan(monkeypatch):
    # robin_scan(3, MAX_SPAN + 1) spans MAX_SPAN - 1 integers and would pass
    # its own check; the bridge's check over [1, MAX_SPAN + 1] must raise first
    monkeypatch.setattr(robin, "robin_scan", lambda *args: pytest.fail("scanned first"))
    with pytest.raises(ResourceError, match="budget"):
        verify_tfree_robin(6, MAX_SPAN + 1, build_table(100))


def test_screens_send_few_n_to_exact_decisions(monkeypatch):
    # each n a screen keeps is factorized for its exact decision; a looser
    # bound fails here instead of only slowing the sweeps down
    decided = []
    for module in (robin, primorial):
        real = module.factorize
        monkeypatch.setattr(
            module, "factorize", lambda n, table, real=real: decided.append(n) or real(n, table)
        )
    assert len(robin_scan(3, 10**6, build_table(1001))) == 26
    assert len(decided) <= 64 and max(decided) <= 5040
    decided.clear()
    assert champion_scan(10**6, 2) == [1, 2, 6, 30, 210, 2310, 30030, 510510]
    assert len(decided) <= 64
    decided.clear()
    assert reduction_check(10**6, 2)
    assert len(decided) <= 64


@pytest.mark.parametrize("t", [2, 7])
def test_screens_agree_with_deciding_every_point(monkeypatch, t):
    # a band wide enough to send every n to the exact or 60-digit decision
    expected = [champion_scan(3000, t, mode) for mode in ("strict", "weak")]
    monkeypatch.setattr(primorial, "LOG_RATIO_BAND", 100.0)
    assert [champion_scan(3000, t, mode) for mode in ("strict", "weak")] == expected
    assert reduction_check(3000, t)


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
    # every mark is checked by integer arithmetic, and the window's sums
    # against the factors the marks give
    factors = factors_from_marks(lo, hi, primes_to_2_25)
    root, threshold = math.isqrt(hi - 1), (hi - lo) // BATCH_MULTIPLES
    assert any(threshold < p <= root for f in factors for p, _ in f)  # some base primes are batched
    _check_sigma_bounds(lo, hi, primes_to_2_25, factors)
    _check_psi_bounds(lo, hi, primes_to_2_25, factors, 7)
