"""Factorization and divisor-function checks with exact-arithmetic oracles."""

import math
import random
from itertools import accumulate
from fractions import Fraction

import pytest

from robinpsi import (
    CoverageError,
    Factorization,
    build_table,
    factorize,
    is_t_free,
    psi_over_n,
    psi_t,
    sigma,
    verify_sigma_le_psi,
)
from robinpsi import multiplicative

from conftest import factor_by_division, factors_from_marks, marked_part


def _sigma_by_enumeration(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_factorize_examples(small_table):
    assert factorize(1, small_table).factors == ()
    assert factorize(12, small_table).factors == ((2, 2), (3, 1))
    assert factorize(97, small_table).factors == ((97, 1),)
    f = factorize(720, small_table)
    assert f.value == 720
    assert f.factors == ((2, 4), (3, 2), (5, 1))


def test_factorize_random_roundtrip(small_table):
    rng = random.Random(1009)
    for _ in range(300):
        n = rng.randrange(1, 10**7)
        f = factorize(n, small_table)
        assert f.factors == factor_by_division(n)
        rebuilt = 1
        for p, e in f.factors:
            rebuilt *= p**e
        assert rebuilt == n
    # above 2^64, with every prime factor in the table
    factors = ((2, 30), (3, 15), (5, 10), (7, 5), (111751, 2))
    n = math.prod(p**e for p, e in factors)
    assert n > 2**64
    assert factorize(n, small_table).factors == factors


def test_factorize_beyond_table_coverage():
    table = build_table(100)
    # 10403 = 101 * 103; both factors exceed the table
    with pytest.raises(CoverageError):
        factorize(10403 * 10459, table)


def test_factorize_large_prime_cofactor_is_fine():
    # a single prime cofactor below limit^2 is provably prime
    table = build_table(100)
    assert factorize(2 * 9973, table).factors == ((2, 1), (9973, 1))


def test_kernel_factorization_matches(small_table):
    # the sweep kernel's marks on one window of 10000 give factorize's factors
    # up to the window's root, 100, below the cap
    factors = factors_from_marks(1, 10_001, small_table.primes)
    assert factors == [
        marked_part(factorize(n, small_table).factors, 1, 10_001) for n in range(1, 10_001)
    ]


def test_sigma_against_divisor_enumeration(small_table):
    for n in range(1, 2001):
        assert sigma(factorize(n, small_table)) == _sigma_by_enumeration(n)


def test_sigma_known_values(small_table):
    assert sigma(factorize(1, small_table)) == 1
    assert sigma(factorize(6, small_table)) == 12
    assert sigma(factorize(5040, small_table)) == 19344


def test_sigma_multiplicative_on_coprime_pairs(small_table):
    rng = random.Random(73)
    for _ in range(200):
        a = rng.randrange(2, 50_000)
        b = rng.randrange(2, 50_000)
        if math.gcd(a, b) != 1:
            continue
        sa = sigma(factorize(a, small_table))
        sb = sigma(factorize(b, small_table))
        assert sigma(factorize(a * b, small_table)) == sa * sb


def test_psi_values(small_table):
    # psi_t multiplies n by a geometric factor per prime divisor
    assert psi_t(factorize(12, small_table), 2) == 24
    assert psi_t(factorize(7, small_table), 2) == 8
    assert psi_t(factorize(4, small_table), 3) == Fraction(7, 1)
    assert psi_t(factorize(1, small_table), 5) == 1


def test_psi_parts_are_consistent(small_table):
    rng = random.Random(271)
    for _ in range(200):
        n = rng.randrange(1, 100_000)
        t = rng.randrange(2, 9)
        f = factorize(n, small_table)
        assert psi_t(f, t) == n * psi_over_n(f, t)


def test_psi_over_n_depends_only_on_radical(small_table):
    assert psi_over_n(factorize(12, small_table), 2) == Fraction(2, 1)
    assert psi_over_n(factorize(6, small_table), 2) == Fraction(2, 1)
    assert psi_over_n(factorize(864, small_table), 2) == Fraction(2, 1)


def test_psi_monotone_in_t(small_table):
    rng = random.Random(599)
    for _ in range(100):
        n = rng.randrange(2, 100_000)
        f = factorize(n, small_table)
        values = [psi_t(f, t) for t in range(2, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_is_t_free(small_table):
    assert is_t_free(factorize(6, small_table), 2)
    assert not is_t_free(factorize(4, small_table), 2)
    assert is_t_free(factorize(4, small_table), 3)
    assert not is_t_free(factorize(864, small_table), 5)  # 864 = 2^5 * 27
    assert is_t_free(factorize(1, small_table), 2)


def test_sigma_bounded_by_psi_on_tfree_samples(small_table):
    # exact-rational domination with equality exactly at full exponent t-1
    rng = random.Random(31415)
    for _ in range(400):
        n = rng.randrange(1, 200_000)
        t = rng.randrange(2, 9)
        f = factorize(n, small_table)
        if not is_t_free(f, t):
            continue
        s = sigma(f)
        value = psi_t(f, t)
        assert s <= value
        full = all(e == t - 1 for _, e in f.factors)
        assert (s == value) == full


def test_bridge_sweep_small():
    report = verify_sigma_le_psi(10_000, 2)
    assert report.passed
    assert report.violation is None
    assert report.equality_mismatch is None
    # every squarefree integer is an equality case at t = 2
    assert report.checked == report.equalities == 6083


def test_bridge_sweep_counts_tfree_only():
    report = verify_sigma_le_psi(1000, 3)
    assert report.passed
    # cube-free count up to 1000
    assert report.checked == 833
    assert report.equalities == len(
        [n for n in range(1, 1001) if _is_full_square(n)]
    )


@pytest.mark.parametrize("segment", [None, 997])
def test_bridge_counts_match_factorization_oracle(monkeypatch, segment):
    # t-free n and equality cases (every exponent t - 1) counted by trial
    # division, at every limit up to 200 and at 5000; the bridge does not
    # sweep, so its counts must not depend on the window size
    if segment:
        monkeypatch.setattr(multiplicative, "SEGMENT_SIZE", segment)
    exponents = [[e for _, e in factor_by_division(n)] for n in range(1, 5001)]
    for t in range(2, 9):
        checked = list(accumulate(all(e < t for e in es) for es in exponents))
        equalities = list(accumulate(all(e == t - 1 for e in es) for es in exponents))
        for limit in [*range(1, 201), 5000]:
            report = verify_sigma_le_psi(limit, t)
            assert report.passed
            assert report.checked == checked[limit - 1]
            assert report.equalities == equalities[limit - 1]


@pytest.mark.parametrize(
    "t, failing, field, checked, equalities",
    [
        (3, 9, "violation", 8, 2),  # cube-free n <= 9: all but 8; equalities 1, 4
        (2, 2, "equality_mismatch", 2, 1),
        (2, 11, "violation", 8, 7),  # 11 is a cofactor prime: above sqrt(100)
    ],
)
def test_bridge_sweep_stops_at_least_failing_pair(
    monkeypatch, t, failing, field, checked, equalities
):
    # sigma <= psi_t holds on every local pair, so a failure has to be forced
    real = multiplicative._bridge_failure
    monkeypatch.setattr(
        multiplicative,
        "_bridge_failure",
        lambda p, e, t: field if p**e in (failing, 25) else real(p, e, t),
    )
    report = verify_sigma_le_psi(100, t)
    assert not report.passed
    assert getattr(report, field) == failing
    assert (report.checked, report.equalities) == (checked, equalities)


@pytest.mark.parametrize("failing", [7, 49])
def test_bridge_finds_a_failing_pair_below_and_above_the_root(monkeypatch, failing):
    # the pairs (7, 1) and (7, 2) of limit 100: p^e below and above isqrt(100)
    real = multiplicative._bridge_failure
    monkeypatch.setattr(
        multiplicative,
        "_bridge_failure",
        lambda p, e, t: "violation" if p**e == failing else real(p, e, t),
    )
    report = verify_sigma_le_psi(100, 3)
    assert report.violation == failing
    cube_free = [n for n in range(1, failing + 1) if all(e < 3 for _, e in factor_by_division(n))]
    assert report.checked == len(cube_free)


def test_cofactor_pair_verdict_is_uniform():
    # sigma(q) q^(t-1) (q - 1) - q (q^t - 1) = q - q^(t-1) for a prime q, so the
    # bridge may decide (q, 1) once per sweep: every prime gets the verdict of 2
    primes = build_table(10**5).primes.tolist()
    for t in range(2, 65):
        verdict = multiplicative._bridge_failure(2, 1, t)
        assert verdict is None
        assert all(multiplicative._bridge_failure(q, 1, t) == verdict for q in primes)


def _is_full_square(n):
    # all exponents equal to exactly 2
    return all(e == 2 for _, e in factor_by_division(n))
