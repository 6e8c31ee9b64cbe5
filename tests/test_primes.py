"""Sieve and log-prime accumulator checks against independent oracles."""

import ast
import bisect
import functools
import math
import pathlib
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robinpsi
from robinpsi import CoverageError, bounds, build_table, compensated_prefix, robin
from robinpsi.bounds import EXP_GAMMA, _mertens_logs
from robinpsi.cli import _SIEVE_CAP
from robinpsi.primes import (
    _SEGMENT_ODDS,
    BLOCK,
    PrimeTable,
    _segmented_primes,
    at_60_digits,
    libm_log,
    libm_map,
    prefix_at,
    prefix_blocks,
    require_primes,
)
from robinpsi.primorial import psi_ratio_logs
from robinpsi.primes import mpmath as mpmath_handle

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
    assert build_table(2000).primes.tolist() == reference
    for limit in range(2, 400):
        assert build_table(limit).primes.tolist() == [p for p in reference if p <= limit]


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
    assert small_table.theta_upto(len(small_table))[0] == 0.0


def test_theta_equals_log_primorial(small_table):
    # the prefix sum of log p over the first k primes is exactly log of
    # the k-th primorial; exact integers give the reference values
    theta = small_table.theta_upto(len(small_table))
    for k, value in enumerate(PRIMORIALS, start=1):
        assert theta[k] == pytest.approx(math.log(value), rel=1e-12)


def test_theta_increments_are_log_p(small_table):
    rng = random.Random(4021)
    theta = small_table.theta_upto(len(small_table))
    for _ in range(200):
        k = rng.randrange(1, len(small_table.primes))
        step = theta[k + 1] - theta[k]
        p = small_table.primes[k]
        assert step == pytest.approx(math.log(p), rel=1e-9)


def test_theta_against_high_precision(small_table):
    # compensated summation should stay within a few ulp of a 50-digit sum
    with mpmath.workdps(50):
        for k in (100, 2263, 10000):
            exact = mpmath.fsum(mpmath.log(p) for p in small_table.primes[:k].tolist())
            err = abs(small_table.theta_upto(len(small_table))[k] - float(exact))
            assert err < 1e-10 * float(exact)


def test_theta_tracks_prime_size(small_table):
    # Chebyshev's function stays close to its argument at this scale
    for k in (1000, 10000):
        p = small_table.primes[k - 1]
        assert abs(small_table.theta_upto(len(small_table))[k] / p - 1.0) < 0.02


def test_prefix_stable_across_limits():
    a = build_table(10_000)
    b = build_table(40_000)
    assert b.primes[: len(a.primes)].tolist() == a.primes.tolist()
    for k in (10, 100, len(a.primes)):
        assert a.theta_upto(len(a))[k] == b.theta_upto(len(b))[k]


def test_table_reports_length(small_table):
    assert len(small_table) == len(small_table.primes)
    assert isinstance(small_table, PrimeTable)
    assert small_table.primes.dtype == np.int64
    assert small_table.theta_upto(len(small_table)).dtype == np.float64
    assert len(small_table.theta_upto(len(small_table))) == len(small_table) + 1


def _eratosthenes(limit):
    """Every prime <= limit from one array of flags over 0..limit, each
    prime's multiples struck from its square: the oracle of the segmented
    sieve, with no segments and no odd-only indexing."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


# a segment holds 1 << 17 odds from 3, so segment k + 1 starts at 3 + 2^18 k
_SEGMENT_EDGES = [3 + (1 << 18) * k + d for k in range(1, 5) for d in (-2, -1, 0, 1, 2)]
_PRIMES_PAST_THE_EDGES = _eratosthenes(_SEGMENT_EDGES[-1])


def _primes_upto(limit):
    return _PRIMES_PAST_THE_EDGES[: bisect.bisect_right(_PRIMES_PAST_THE_EDGES, limit)]


def test_segmented_agrees_with_simple():
    # limits on either side of the first four segment edges
    assert _SEGMENT_ODDS == 1 << 17
    for limit in _SEGMENT_EDGES:
        assert _segmented_primes(limit).tolist() == _primes_upto(limit)
    table = build_table(600_000)
    assert table.primes.tolist() == _primes_upto(600_000)
    assert len(table.primes) == 49098  # count of primes below 600000


def test_segmented_sieve_at_every_small_limit():
    for limit in range(3001):
        got = _segmented_primes(limit)
        assert got.dtype == np.int64
        assert got.tolist() == _primes_upto(limit)


@pytest.mark.parametrize("odds", [7, 8])
def test_segmented_sieve_with_small_segments(monkeypatch, odds):
    # segments of an odd and of an even number of odds, so edges fall on
    # primes, on squares and on both parities of the segment count
    monkeypatch.setattr("robinpsi.primes._SEGMENT_ODDS", odds)
    for limit in [*range(400), 997, 2999, 3000, 3 + 2 * odds * 61, 10_007]:
        assert _segmented_primes(limit).tolist() == _primes_upto(limit)


def _neumaier_states(xs):
    """Scalar oracle: the branchy Neumaier loop, one addend at a time; its
    (total, carry) before the first addend and after each."""
    total = carry = 0.0
    states = [(total, carry)]
    for x in xs:
        s = total + x
        if abs(total) >= abs(x):
            carry += (total - s) + x
        else:
            carry += (x - s) + total
        total = s
        states.append((total, carry))
    return states


def _neumaier_prefix(xs):
    """The scalar loop's prefix sums, total + carry after each addend."""
    return np.array([total + carry for total, carry in _neumaier_states(xs)])


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
    primes = small_table.primes.tolist()
    theta = small_table.theta_upto(len(small_table))
    assert _bits(theta) == _bits(_neumaier_prefix(map(math.log, primes)))


def test_theta_of_the_large_table_is_the_prefix_of_int_logs(table):
    # theta, formed block by block as it is read, is bit for bit the one-shot
    # compensated prefix of math.log over the int primes, across the 1.31e6
    # table; a map over the primes as floats (exact below 2^53) keeps this
    logs = np.array([math.log(p) for p in table.primes.tolist()])
    assert _bits(table.theta_upto(len(table))) == _bits(compensated_prefix(logs))


def test_libm_log_is_math_log_bit_for_bit():
    # every prime an index command can sieve, the domain's edges and seeded
    # floats across it, against the scalar oracle math.log
    primes = _segmented_primes(_SIEVE_CAP)
    assert _bits(libm_log(primes)) == _bits([math.log(p) for p in primes.tolist()])
    top = float(np.finfo(np.float64).max) / 2
    rng = np.random.default_rng(20260)
    xs = np.concatenate([
        [2.0, np.nextafter(2.0, 3.0), 3.0, 2.0**53 - 1, 1e300, top],
        rng.uniform(2.0, 4.0, 10_000),
        rng.uniform(2.0, 1e12, 10_000),
        np.exp(rng.uniform(math.log(2.0), math.log(top), 10_000)),
    ])
    assert xs.min() >= 2.0 and xs.max() <= top
    assert _bits(libm_log(xs)) == _bits([math.log(x) for x in xs.tolist()])
    assert libm_log(np.zeros(0)).size == 0


@pytest.mark.parametrize(
    "bad",
    [np.nextafter(2.0, 0.0), 1.0, 0.5, 0.0, -3.0, math.nan,
     np.nextafter(np.finfo(np.float64).max / 2, math.inf), math.inf],
)
def test_libm_log_refuses_x_where_clog_is_not_log(bad):
    # below 2 clog takes log1p branches and above DBL_MAX / 2 it rescales
    with pytest.raises(ValueError):
        libm_log(np.array([2.0, bad, 3.0]))


_SPLIT_TABLE = build_table(10_000)  # 1229 primes
_ONE_SHOT = compensated_prefix(libm_map(math.log, _SPLIT_TABLE.primes))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, len(_SPLIT_TABLE)), max_size=8))
@example([10, 500, 1000])
@example([1, 2, 3, 4])
def test_theta_on_demand_matches_the_one_shot_prefix(reads):
    # theta formed in pieces, at whatever indices are read first, resumes the
    # compensated sum from its state: every bit is the one-shot prefix's
    table = PrimeTable(limit=_SPLIT_TABLE.limit, primes=_SPLIT_TABLE.primes)
    for n in reads:
        assert _bits(table.theta_upto(n)) == _bits(_ONE_SHOT[: n + 1])
    assert _bits(table.theta_upto(len(table))) == _bits(_ONE_SHOT)
    with pytest.raises(CoverageError):
        table.theta_upto(len(table) + 1)


def test_mertens_prefix_matches_scalar_formula(table):
    # numpy's float64 division and negation round as Python's do, so the
    # vectorised terms leave every prefix bit of the per-prime formula intact
    primes = table.primes[: np.searchsorted(table.primes, 10**6, side="right")]
    assert len(primes) == 78498
    mertens = _neumaier_prefix(-math.log1p(-1.0 / p) for p in primes.tolist())
    walked = prefix_at(primes, _mertens_logs, np.arange(len(primes) + 1))
    assert _bits(walked) == _bits(mertens)


# the walker's differential test: sizes at and around the block edges
_WALK_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
_WALK_TABLE = build_table(400_000)  # 33860 primes
assert len(_WALK_TABLE) > _WALK_SIZES[-1]


@functools.lru_cache(maxsize=None)
def _scalar_walk(t):
    """The scalar loop over the libm terms of log psi_t(N_n)/N_n, each x the
    int quotient (Python's int true division rounds it correctly), through
    the largest walk size: the prefix sums and the loop's states."""
    primes = _WALK_TABLE.primes[: _WALK_SIZES[-1]].tolist()
    terms = [math.log1p((q - 1) / (q * (p - 1))) for p in primes for q in [p ** (t - 1)]]
    states = _neumaier_states(terms)
    return np.array([total + carry for total, carry in states]), states


@pytest.mark.parametrize("t", [2, 64])
@pytest.mark.parametrize("n", _WALK_SIZES)
@settings(max_examples=8, deadline=None)
@given(start=st.integers(0, _WALK_SIZES[-1]), reads=st.lists(st.integers(0, _WALK_SIZES[-1])))
@example(start=0, reads=[])
@example(start=BLOCK, reads=[0, 0, 1, BLOCK, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_prefix_walk_matches_the_scalar_loop(t, n, start, reads):
    # prefix_blocks resumed at any start from the loop's state there, and
    # prefix_at at ascending indices that repeat, are the scalar Neumaier
    # loop over the libm terms bit for bit; prefix_at forms the terms of the
    # primes up to its last index and no further
    sums, states = _scalar_walk(t)
    start = min(start, n)
    primes = _WALK_TABLE.primes[:n]
    formed = []

    def terms(p):
        formed.append(p.size)
        return psi_ratio_logs(p, t)

    state = list(states[start])
    walk = list(prefix_blocks(primes, terms, start, state))
    assert [a for a, _, _ in walk] == list(range(start, n, BLOCK))
    assert all(np.array_equal(p, primes[a : a + p.size]) for a, p, _ in walk)
    assert _bits(np.concatenate([sums[: start + 1], *(s for _, _, s in walk)])) == _bits(
        sums[: n + 1]
    )
    assert _bits(state) == _bits(states[n])
    idx = sorted(min(k, n) for k in reads)
    formed.clear()
    assert _bits(prefix_at(primes, terms, idx)) == _bits(sums[idx])
    assert sum(formed) == (idx[-1] if idx else 0)


@pytest.mark.parametrize("t", [2, 64])
@pytest.mark.parametrize("n", _WALK_SIZES)
def test_ratio_rows_match_the_scalar_loop(t, n):
    # each row from the walk is the scalar formula over the loop's sums
    sums, _ = _scalar_walk(t)
    theta = _neumaier_prefix(map(math.log, _WALK_TABLE.primes[:n].tolist())).tolist()
    primes, logs = _WALK_TABLE.primes[:n].tolist(), sums.tolist()
    limit_value = EXP_GAMMA / bounds.zeta(t).value
    want = []
    for k in range(2, n + 1):
        r = math.exp(logs[k]) / math.log(theta[k])
        want.append((k, primes[k - 1], r, limit_value, r / limit_value - 1.0))
    assert list(bounds.ratio_curve(_WALK_TABLE, t, n)) == want


def _resumed_sums(tree):
    """The calls in tree that pass compensated_prefix a state."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "compensated_prefix"
        and (len(node.args) > 1 or node.keywords)
    ]


def test_only_the_walker_resumes_a_compensated_sum():
    # every sum resumed from block to block walks primes.prefix_blocks: no
    # other code in the package passes compensated_prefix a state
    found = {}
    for path in sorted(pathlib.Path(robinpsi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if _resumed_sums(tree):
            found[path.name] = len(_resumed_sums(tree))
            walker = [f for f in tree.body if getattr(f, "name", None) == "prefix_blocks"]
            assert [len(_resumed_sums(f)) for f in walker] == [len(_resumed_sums(tree))]
    assert found == {"primes.py": 1}


def test_one_mpmath_handle_serves_every_recheck(small_table, monkeypatch):
    # bounds and robin recheck through the one helper, which enters the
    # workdps set on the shared handle, so one stand-in counts every recheck
    assert bounds.at_60_digits is robin.at_60_digits is at_60_digits
    assert bounds.mpmath is robin.mpmath is mpmath_handle
    entered = []
    workdps = mpmath_handle.workdps
    monkeypatch.setattr(mpmath_handle, "workdps", lambda dps: entered.append(dps) or workdps(dps))
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_LHS_ERROR", math.inf)  # every criterion rechecks
        assert bounds.criterion(3, 10, small_table).satisfied
    assert entered == [60]
    with monkeypatch.context() as patch:
        patch.setattr(robin, "PRECISION_BAND", 10.0)  # branch (b) rechecks
        assert robin.verify_tfree_robin(6, 5041, small_table).passed
    assert entered == [60, 60]
    monkeypatch.setattr(robin, "RELATIVE_BAND", 10.0)  # every margin is within 10 n of 0
    assert robin.robin_scan(5041, 5100, small_table) == []  # no violator
    assert len(entered) == 2 + 60  # one recheck per n of 5041..5100
