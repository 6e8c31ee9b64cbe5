"""Shared fixtures, the trial-division oracle, and the integer checks of the
sweep kernel's marks. Prime tables are the only expensive setup, so build
them once."""

import math
from bisect import bisect_right
from functools import lru_cache, partial

import numpy as np
import pytest

from robinpsi import bounds, build_table
from robinpsi.multiplicative import BATCH_MULTIPLES, KernelPlan, _batched_marks, window_weights


@pytest.fixture(scope="session")
def table():
    """Large table, covers the 100000th prime (1299709) for the deep sweeps."""
    return build_table(1_310_000)


@pytest.fixture(scope="session")
def small_table():
    """Enough for the crossover searches; the 10596th prime is 111751."""
    return build_table(1 << 17)


def column_of(key, label):
    """The column of a sweep index that where(key, i) names label: the t of
    a label "t=...,n=...", else key.  The psi ratio suite's one column over
    (t, n) so counts as one column per t, as the zeta tail suite's do."""
    return int(label[2 : label.index(",")]) if label.startswith("t=") else key


@pytest.fixture
def built_columns(monkeypatch):
    """(suite, column_of) of every column where bounds._sweep takes float
    margins at some index, once per column, in the order of the first index
    taken."""
    built = []
    sweep = bounds._sweep

    def build(name, key, margins, where, idx):
        for i in np.sort(idx).tolist():
            column = (name, column_of(key, where(key, i)))
            if column not in built:
                built.append(column)
        return margins(idx)

    def spy(name, columns, recheck, where):
        logged = (
            (key, screen, partial(build, name, key, m, where)) for key, screen, m in columns
        )
        return sweep(name, logged, recheck, where)

    monkeypatch.setattr(bounds, "_sweep", spy)
    return built


def spy_60_digits(monkeypatch, module):
    """Every call module makes to primes.at_60_digits, as (formula, inputs,
    result), inputs what its inputs() gave inside the context."""
    calls = []
    run = module.at_60_digits

    def spy(formula, inputs):
        seen = []
        result = run(formula, lambda: seen.extend(inputs()) or seen)
        calls.append((formula, tuple(seen), result))
        return result

    monkeypatch.setattr(module, "at_60_digits", spy)
    return calls


def factor_by_division(n):
    """(p, e) of each prime power exactly dividing n, primes increasing, by
    trial division over every d: independent of the package's primes."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# The least odd composite n that passes Miller-Rabin to each of the first k
# primes as bases, k = 1..9 (OEIS A014233): below it those k bases decide n.
_STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@lru_cache(maxsize=1 << 16)
def is_prime(n):
    """Deterministic Miller-Rabin for n below 3.8e18, with the fewest of the
    first nine primes as bases that decide n."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n >= _STRONG_PSEUDOPRIMES[-1]:
        raise ValueError(f"{n} is past the bases' reach")
    bases = _BASES[: 1 + bisect_right(_STRONG_PSEUDOPRIMES, n)]
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


def _zero(p, k=None):
    return np.zeros(np.shape(p))


def factors_from_marks(lo, hi, primes):
    """The (p, e) of each n in [lo, hi), primes increasing, read off the
    kernel's marks for a window plan of these primes, every mark checked by
    integer arithmetic.

    Each strided prime p0 runs the kernel alone, with weight 2^(k-1) on the
    marks of p0^k: n then sums to 2^e - 1, and e must be the exponent of p0
    in n.  Each batched mark must divide its n, and the kernel must add the
    batched primes' totals at their marks.  What is left of n must be 1 or
    one prime above the window's root."""
    width, stop = hi - lo, hi - 1
    root = math.isqrt(stop)
    base = primes[: np.searchsorted(primes, root, side="right")]
    strided = base[base <= width // BATCH_MULTIPLES]
    ns = np.arange(lo, hi, dtype=np.int64)
    factors = [[] for _ in range(width)]
    for p0 in strided.tolist():

        def weight(p, k):
            return np.where(p == p0, 2.0 ** (k - 1), 0.0)

        acc = window_weights(lo, hi, KernelPlan(primes, width, stop, weight, _zero))
        marked = acc.astype(np.int64) + 1
        assert (marked == acc + 1).all() and (marked & (marked - 1) == 0).all()
        exps = np.frexp(acc + 1)[1].astype(np.int64) - 1  # 2^e = 0.5 * 2^(e + 1)
        pe = p0**exps
        assert (ns % pe == 0).all() and (ns % (pe * p0) != 0).all()
        for i in np.flatnonzero(exps).tolist():
            factors[i].append((p0, int(exps[i])))
    p, off = _batched_marks(lo, hi, base[strided.size :])
    assert p.dtype == off.dtype == np.int64
    # prime by prime, ascending, each one's offsets ascending
    assert ((np.diff(p) > 0) | ((np.diff(p) == 0) & (np.diff(off) > 0))).all()
    assert (ns[off] % p == 0).all()
    sums = np.zeros(width)
    for q, i in zip(p.tolist(), off.tolist()):
        assert is_prime(q)
        n, e = lo + i, 1
        while n % q ** (e + 1) == 0:
            e += 1
        factors[i].append((q, e))
        sums[i] += q
    total = window_weights(lo, hi, KernelPlan(primes, width, stop, _zero, lambda q: q * 1.0))
    assert (total == sums).all()
    for i, n in enumerate(range(lo, hi)):
        cofactor, rest = divmod(n, math.prod(q**e for q, e in factors[i]))
        assert rest == 0
        assert cofactor == 1 or (cofactor > root and is_prime(cofactor))
        if cofactor > 1:
            factors[i].append((cofactor, 1))
    return [tuple(f) for f in factors]
