"""Checks of the division-free sweep kernel and the screens built on it: its
marks against per-integer factorize, against the division kernel it replaced
and by integer arithmetic just below 2^50; its window sums and gaps as
bounds on the exact log(sigma(n)/n) and log(psi_t(n)/n); how many n the
screens send to exact decisions; and the t-free pipeline against a
divisor-sum sieve."""

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
    robin_scan,
    verify_sigma_le_psi,
    verify_tfree_robin,
)
from robinpsi import multiplicative, primorial, robin
from robinpsi.multiplicative import (
    MARK_CAP,
    MAX_SCAN_STOP,
    MAX_SPAN,
    WHEEL,
    Factorization,
    KernelPlan,
    factorize,
    psi_over_n,
    sigma,
    window_gap,
    window_weights,
)
from robinpsi.primes import PrimeTable, _segmented_primes
from robinpsi.primorial import log_terms

from conftest import factor_by_division, factors_from_marks, marked_part, primorials_up_to

EDGE = multiplicative.SEGMENT_SIZE

PRIMES_TO_1000 = _segmented_primes(1000).tolist()

# the stated float error of a window's sums, 2e-14, with room
SUM_ERROR = 1e-13


@st.composite
def unmarked_windows(draw):
    """n = p q r or n = p^2 q with p, q, r primes the kernel leaves unmarked
    in a window holding n: each above MARK_CAP, none above sqrt(n); and the
    window, (n, lo, width)."""
    width = draw(st.integers(1, 3000))
    pool = [p for p in PRIMES_TO_1000 if p > MARK_CAP]  # then p q >= 191 * 193 > 1000 >= r
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
    unmarked_windows().map(lambda window: window[1:]),
)


def _sums(lo, hi, primes, weight, total):
    """The kernel's sums on [lo, hi) and the window's gap, as a sweep of
    [lo, hi - 1] forms them."""
    return window_weights(lo, hi, KernelPlan(primes, lo, hi - 1, weight)), window_gap(hi, total)


def _check_sigma_bounds(lo, hi, primes, factors):
    """The Robin sums on [lo, hi) against each n's factors: acc sums
    log(sigma(p^e)/p^e) over the marked prime powers of n within the float
    error, a lower bound on log(sigma(n)/n), and with the gap an upper
    bound."""
    acc, gap = _sums(lo, hi, primes, robin._sigma_weight, robin._sigma_total)
    for i, n in enumerate(range(lo, hi)):
        exact = math.log(Fraction(sigma(Factorization(n, factors[i])), n))
        contract = sum(
            math.log(Fraction(sigma(Factorization(p**e, ((p, e),))), p**e))
            for p, e in marked_part(factors[i], lo, hi)
        )
        assert acc[i] == pytest.approx(contract, abs=SUM_ERROR)
        assert acc[i] - SUM_ERROR <= exact <= acc[i] + gap + SUM_ERROR


def _check_psi_bounds(lo, hi, primes, factors, t):
    """The sums of log_terms on [lo, hi) against each n's factors: acc sums
    log(psi_t(p)/p) over the marked primes of n within the float error, a
    lower bound on log(psi_t(n)/n), and with the gap an upper bound."""
    weight, total = partial(primorial._psi_weight, t=t), partial(log_terms, t=t)
    acc, gap = _sums(lo, hi, primes, weight, total)
    for i, n in enumerate(range(lo, hi)):
        exact = math.log(psi_over_n(Factorization(n, factors[i]), t))
        contract = sum(
            math.log(psi_over_n(Factorization(p, ((p, 1),)), t))
            for p, _ in marked_part(factors[i], lo, hi)
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
    # the marks give each n the powers of the marked primes the division
    # kernel peels off it
    lo, width = window
    hi = lo + width
    folded = [[] for _ in range(width)]
    for p, where, exp in _division_kernel(lo, hi, small_table.primes.tolist()):
        ps = p.tolist() if np.ndim(p) else [p] * where.size
        for q, i, e in zip(ps, where.tolist(), exp.tolist()):
            folded[i].append((q, e))
    marked = [marked_part(f, lo, hi) for f in folded]
    assert factors_from_marks(lo, hi, small_table.primes) == marked


@settings(max_examples=60, deadline=None)
@given(unmarked_windows())
def test_gap_covers_three_unmarked_primes_or_a_square(small_table, window):
    # n = p q r or p^2 q takes no mark, and the gap alone bounds its Robin
    # and psi_t ratios, the square included
    n, lo, width = window
    hi = lo + width
    f = Factorization(n, factor_by_division(n))
    for weights, exact in (("robin", Fraction(sigma(f), n)), ("psi7", psi_over_n(f, 7))):
        acc, gap = _sums(lo, hi, small_table.primes, *WEIGHTS[weights])
        assert acc[n - lo] == 0.0
        assert math.log(exact) <= gap + SUM_ERROR


@settings(max_examples=60, deadline=None)
@given(windows)
def test_kernel_exponents_and_sigma(small_table, window):
    lo, width = window
    hi = lo + width
    factors = [factorize(n, small_table).factors for n in range(lo, hi)]
    assert factors_from_marks(lo, hi, small_table.primes) == [
        marked_part(f, lo, hi) for f in factors
    ]
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
            champion_scan(20_000, 3) == primorials_up_to(20_000),
        )

    expected = run()
    monkeypatch.setattr(multiplicative, "SEGMENT_SIZE", 997)
    assert run() == expected
    assert expected[-1]


def _strided_oracle(lo, hi, primes, weight):
    """The sums on [lo, hi) by plain strided passes: each prime p up to
    MARK_CAP and the window's root adds weight(p, k) at every multiple of
    each p^k in the window."""
    acc = np.zeros(hi - lo)
    top = min(MARK_CAP, math.isqrt(hi - 1))
    for p in primes[: np.searchsorted(primes, top, side="right")].tolist():
        k, pk = 1, p
        while pk < hi:
            acc[(-lo) % pk :: pk] += float(weight(p, k))
            k, pk = k + 1, pk * p
    return acc


WEIGHTS = {
    "robin": (robin._sigma_weight, robin._sigma_total),
    **{
        f"psi{t}": (partial(primorial._psi_weight, t=t), partial(log_terms, t=t))
        for t in (2, 7)
    },
}
# the exact log ratio each pair of weights sums, of a Factorization
EXACT = {
    "robin": lambda f: math.log(Fraction(sigma(f), f.value)),
    **{f"psi{t}": lambda f, t=t: math.log(psi_over_n(f, t)) for t in (2, 7)},
}


@pytest.fixture
def plans(monkeypatch):
    """Every KernelPlan a sweep forms, in order."""
    made = []

    class Recorded(KernelPlan):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(multiplicative, "KernelPlan", Recorded)
    return made


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize(
    "lo, width",
    [
        (1, EDGE),  # the first window of a sweep
        (33 * WHEEL, EDGE),  # phase 0, across four period ends
        (33 * WHEEL - 1, EDGE),  # phase WHEEL - 1
        (33 * WHEEL - 1, 448),  # phase WHEEL - 1, a short window
        (33 * WHEEL - 1, WHEEL + 2),  # one integer past the second period end
        (33 * WHEEL, 3000),  # phase 0, inside one period
        (1000 * WHEEL - 100, 2 * WHEEL + 200),  # across three period ends
        (10**6 - 5000, 6000),  # across no period end, up to the default stop
    ],
)
def test_wheel_matches_strided_oracle(small_table, weights, lo, width):
    weight, _ = WEIGHTS[weights]
    hi = lo + width
    plan = KernelPlan(small_table.primes, lo, hi - 1, weight)
    assert plan.pattern is not None
    acc = window_weights(lo, hi, plan)
    oracle = _strided_oracle(lo, hi, small_table.primes, weight)
    assert np.abs(acc - oracle).max() <= SUM_ERROR


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize(
    "start, stop, wheel",
    [
        (WHEEL - 3000, 3 * WHEEL + 3000, True),  # windows across three period ends
        (1, 5000, True),  # the first window's root 31
        (1, 48, False),  # stop < 49: 7 is no base prime
        (1, 49, True),  # the least stop whose windows all mark 7
        (1, 448, True),
        (32_000, 34_000, True),  # window roots pass MARK_CAP = 181, 181^2 = 32761
        (10**9, 10**9 + 447, True),
    ],
)
def test_sweeps_of_short_windows_match_strided_oracle(
    monkeypatch, plans, small_table, weights, start, stop, wheel
):
    # windows of 997 integers, shorter than the period; where a window's
    # last n is below 49, so that 7 is not marked, the sweep starts from zeros
    monkeypatch.setattr(multiplicative, "SEGMENT_SIZE", 997)
    weight, total = WEIGHTS[weights]
    for lo, acc, _ in multiplicative.sweep(start, stop, small_table, weight, total):
        oracle = _strided_oracle(lo, lo + acc.size, small_table.primes, weight)
        assert np.abs(acc - oracle).max() <= SUM_ERROR
    (plan,) = plans
    assert (plan.pattern is not None) == wheel


def test_default_sweeps_use_the_wheel(plans):
    # a sweep over [1, 1e6] sums 2^1..2^5, 3, 9, 27, 5 and 7 from the pattern,
    # and no mark is left for a power dividing WHEEL
    assert len(robin_scan(3, 10**6, build_table(1001))) == 26
    assert champion_scan(10**6, 2)[-1] == 510510
    assert len(plans) == 2
    for plan in plans:
        assert plan.pattern is not None and plan.pattern.shape == (WHEEL,)
        assert plan.pattern[0] > 0.0 and plan.pattern[1] == 0.0
        assert not [pk for marks in plan.marks for pk, _ in marks if WHEEL % pk == 0]


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
        lambda limit: verify_tfree_robin(6, limit, build_table(100)),
    ],
    ids=["champion_scan", "verify_sigma_le_psi", "verify_tfree_robin"],
)
def test_sweep_limits(sweep, monkeypatch):
    # both guards come before any sieving, so each call returns at once; each
    # sweep covers [1, limit], so MAX_SPAN + 1 is past the budget
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


@pytest.mark.parametrize("t", [2, 7])
def test_screens_agree_with_deciding_every_point(monkeypatch, t):
    # a band wide enough to send every n to the exact or 60-digit decision
    expected = [champion_scan(3000, t, mode) for mode in ("strict", "weak")]
    monkeypatch.setattr(primorial, "LOG_RATIO_BAND", 100.0)
    assert [champion_scan(3000, t, mode) for mode in ("strict", "weak")] == expected
    assert expected[0] == primorials_up_to(3000)


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
    # every mark is checked by integer arithmetic, and the window's sums and
    # gap against each n's factors from trial division and rho
    factors = [factor_by_division(n) for n in range(lo, hi)]
    marked = [marked_part(f, lo, hi) for f in factors]
    assert factors_from_marks(lo, hi, primes_to_2_25) == marked
    assert any(f != m for f, m in zip(factors, marked))  # some factors are left to the gap
    _check_sigma_bounds(lo, hi, primes_to_2_25, factors)
    _check_psi_bounds(lo, hi, primes_to_2_25, factors, 7)


@st.composite
def sweep_windows(draw):
    """[lo, hi) of 1..500 integers near 3, 5040, 1e6, 1e12 or just below 2^50."""
    width = draw(st.integers(1, 500))
    near = draw(st.sampled_from([3, 5040, 10**6, 10**12, MAX_SCAN_STOP - 600]))
    lo = max(1, near + draw(st.integers(-600, 100)))
    return lo, lo + width


@settings(max_examples=40, deadline=None)
@given(sweep_windows(), st.sampled_from(sorted(WEIGHTS)))
def test_sweep_bounds_each_n_from_both_sides(primes_to_2_25, window, weights):
    # acc <= exact <= acc + gap, and acc = exact where the window marks every
    # prime factor of n: the primes up to MARK_CAP and the window's root
    lo, hi = window
    weight, total = WEIGHTS[weights]
    table = PrimeTable(limit=1 << 25, primes=primes_to_2_25)
    ((_, acc, gap),) = multiplicative.sweep(lo, hi - 1, table, weight, total)
    for i, n in enumerate(range(lo, hi)):
        factors = factor_by_division(n)
        exact = EXACT[weights](Factorization(n, factors))
        assert acc[i] - SUM_ERROR <= exact <= acc[i] + gap + SUM_ERROR
        if marked_part(factors, lo, hi) == factors:
            assert exact == pytest.approx(acc[i], abs=SUM_ERROR)


@pytest.mark.parametrize(
    "start, stop",
    [
        (MAX_SCAN_STOP - 2**20 + 1, MAX_SCAN_STOP),
        # around the superabundant number 890488576177200
        (890488576177200 - 2**19, 890488576177200 + 2**19 - 1),
    ],
    ids=["2^50", "superabundant"],
)
def test_screens_send_few_n_to_exact_decisions_near_2_50(
    monkeypatch, primes_to_2_25, start, stop
):
    # the gap grows with the count of unmarked prime factors an n may have,
    # and must still clear all but a few n of a window near the scan limit
    decided = []
    real = robin.factorize
    monkeypatch.setattr(robin, "factorize", lambda n, table: decided.append(n) or real(n, table))
    assert robin_scan(start, stop, PrimeTable(limit=1 << 25, primes=primes_to_2_25)) == []
    assert len(decided) <= 64
