"""Sieve and log-prime accumulator checks against independent oracles."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinpsi import CoverageError, build_table, compensated_prefix
from robinpsi.bounds import _mertens_prefix
from robinpsi.primes import PrimeTable, require_primes

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# product of the first k primes, exact
PRIMORIALS = [2, 6, 30, 210, 2310, 30030, 510510, 9699690, 223092870,
              6469693230, 200560490130, 7420738134810, 304250263527210,
              13082761331670030, 614889782588491410]


def _trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def test_small_table_matches_trial_division():
    reference = _trial_division_primes(2000)
    assert build_table(2000).primes == reference
    for limit in range(2, 400):
        assert build_table(limit).primes == [p for p in reference if p <= limit]


def test_prime_count_at_20011():
    # the 2263rd prime is 20011, so the count up to it is exactly 2263
    table = build_table(20011)
    assert len(table.primes) == 2263
    assert table.primes[-1] == 20011


def test_limit_below_two_rejected():
    with pytest.raises(ValueError):
        build_table(1)


def test_nth_prime_is_one_indexed(small_table):
    # p_n is table.primes[n - 1]
    assert small_table.primes[1 - 1] == 2
    assert small_table.primes[15 - 1] == 47
    assert small_table.primes[2263 - 1] == 20011
    assert small_table.primes[10596 - 1] == 111751


def test_nth_prime_out_of_range(small_table):
    size = len(small_table.primes)
    require_primes(small_table, size)
    with pytest.raises(CoverageError, match=f"holds {size} primes, need {size + 1}"):
        require_primes(small_table, size + 1)


def test_theta_zero_is_zero(small_table):
    assert small_table.theta_prefix[0] == 0.0


def test_theta_equals_log_primorial(small_table):
    # the prefix sum of log p over the first k primes is exactly log of
    # the k-th primorial; exact integers give the reference values
    for k, value in enumerate(PRIMORIALS, start=1):
        assert small_table.theta_prefix[k] == pytest.approx(math.log(value), rel=1e-12)


def test_theta_increments_are_log_p(small_table):
    rng = random.Random(4021)
    for _ in range(200):
        k = rng.randrange(1, len(small_table.primes))
        step = small_table.theta_prefix[k + 1] - small_table.theta_prefix[k]
        p = small_table.primes[k]
        assert step == pytest.approx(math.log(p), rel=1e-9)


def test_theta_against_high_precision(small_table):
    # compensated summation should stay within a few ulp of a 50-digit sum
    with mpmath.workdps(50):
        for k in (100, 2263, 10000):
            exact = mpmath.fsum(mpmath.log(p) for p in small_table.primes[:k])
            err = abs(small_table.theta_prefix[k] - float(exact))
            assert err < 1e-10 * float(exact)


def test_theta_tracks_prime_size(small_table):
    # Chebyshev's function stays close to its argument at this scale
    for k in (1000, 10000):
        p = small_table.primes[k - 1]
        assert abs(small_table.theta_prefix[k] / p - 1.0) < 0.02


def test_prefix_stable_across_limits():
    a = build_table(10_000)
    b = build_table(40_000)
    assert b.primes[: len(a.primes)] == a.primes
    for k in (10, 100, len(a.primes)):
        assert a.theta_prefix[k] == b.theta_prefix[k]


def test_table_reports_length(small_table):
    assert len(small_table) == len(small_table.primes)
    assert isinstance(small_table, PrimeTable)


def test_segmented_agrees_with_simple():
    # the segment size is 1 << 17 odds; straddle several boundaries
    table = build_table(600_000)
    reference = build_table(2000)
    assert table.primes[: len(reference.primes)] == reference.primes
    assert len(table.primes) == 49098  # count of primes below 600000


def _neumaier_prefix(xs):
    """Scalar oracle: the branchy Neumaier loop, one addend at a time."""
    out = [0.0]
    total = carry = 0.0
    for x in xs:
        s = total + x
        if abs(total) >= abs(x):
            carry += (total - s) + x
        else:
            carry += (x - s) + total
        total = s
        out.append(total + carry)
    return np.array(out)


def _bits(xs):
    return np.asarray(xs, dtype=np.float64).view(np.uint64).tolist()


# magnitudes 1e-300 .. 1e300 of either sign; at most 60 addends keep every sum finite
spread = st.builds(
    lambda m, e, neg: -m * 10.0**e if neg else m * 10.0**e,
    st.floats(1.0, 9.999), st.integers(-300, 299), st.booleans(),
)
plain = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
cancelling = st.lists(spread, max_size=30).flatmap(
    lambda xs: st.permutations(xs + [-x for x in xs])
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.one_of(spread, plain), max_size=60), cancelling))
@example([])
@example([1e300])
@example([1.0, 1e-300, -1.0])
@example([1e300, 1.0, -1e300, 1e-16])
def test_compensated_prefix_matches_scalar_neumaier(xs):
    got = compensated_prefix(np.array(xs, dtype=np.float64))
    assert len(got) == len(xs) + 1
    assert _bits(got) == _bits(_neumaier_prefix(xs))


def test_table_prefixes_match_scalar_neumaier(small_table):
    primes = small_table.primes
    assert _bits(small_table.theta_prefix) == _bits(_neumaier_prefix(map(math.log, primes)))
    mertens = _neumaier_prefix(-math.log1p(-1.0 / p) for p in primes)
    assert _bits(_mertens_prefix(primes)) == _bits(mertens)
