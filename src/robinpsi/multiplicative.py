"""Exact arithmetic for sigma, the generalized Dedekind psi, and t-free tests.

psi_t(n) = n * prod_{p | n} (1 + 1/p + ... + 1/p^(t-1)).  On prime powers
psi_t(p^a) = p^a + ... + p + 1 + 1/p + ... + 1/p^(t-1-a), which is not an
integer for a < t - 1, so everything here stays in exact integer or Fraction
arithmetic.  Floats only appear downstream in the log-space modules.

Every sweep over a range of integers factors it with one kernel,
`prime_power_events`, which peels prime powers from a whole window in numpy
through strided views: a base prime's event addresses the window by a slice
of its multiples, the leftover cofactors by an index array, and each consumer
folds the events into what it needs.  `check_sweep` bounds every sweep by
MAX_SCAN_STOP and a span budget before any sieving.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CoverageError, ResourceError
from .primes import PrimeTable, build_table

SEGMENT_SIZE = 1 << 22  # integers per window of a range sweep
DEFAULT_MAX_SPAN = 10**9
# Up to 2^50, n and sigma(n) < 8n stay below 2^53, exact in float64 and int64,
# and a sweep needs base primes only to 2^25.
MAX_SCAN_STOP = 2**50


@dataclass(frozen=True)
class Factorization:
    """n together with its prime-power decomposition, primes increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]


def factorize(n: int, table: PrimeTable) -> Factorization:
    """Trial division over the table; certifies a large cofactor prime only
    when it is below table.limit^2."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    m = n
    out: list[tuple[int, int]] = []
    for p in table.primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        if m > table.limit * table.limit:
            raise CoverageError(
                f"cofactor {m} exceeds {table.limit}^2 and cannot be certified prime; "
                f"rebuild the table with limit >= {math.isqrt(m) + 1}"
            )
        out.append((m, 1))
    return Factorization(value=n, factors=tuple(out))


def check_sweep(start: int, stop: int, max_span: int = DEFAULT_MAX_SPAN) -> None:
    """Raise ResourceError for a range sweep over [start, stop] that ends past
    MAX_SCAN_STOP or covers more than max_span integers."""
    if stop > MAX_SCAN_STOP:
        raise ResourceError(
            f"sweep stop {stop} exceeds the limit 2^50 = {MAX_SCAN_STOP}, "
            "past which sigma(n) is no longer exact in float64"
        )
    span = stop - start + 1
    if span > max_span:
        raise ResourceError(
            f"span {span} exceeds the budget of {max_span}; "
            f"sweeps work in segments of {SEGMENT_SIZE} integers"
        )


def prime_power_events(
    lo: int, hi: int, base_primes: list[int]
) -> Iterator[tuple[int | np.ndarray, slice | np.ndarray, np.ndarray]]:
    """Peel every n in [lo, hi) into its prime powers, one prime at a time.

    For each prime p <= sqrt(hi - 1) that divides some n in the window, yields
    (p, where, exponents) with where = slice(s, None, p), the offsets of the
    multiples of p: p^exponents[i] exactly divides lo + s + i p.  A last event
    (cofactors, where, ones) covers what is left of each n once those primes
    are divided out: where is an int64 index array and the prime cofactors[i]
    (int64) divides lo + where[i] to the first power.  numpy indexes a window
    the same way with either kind of where.  base_primes must hold every prime
    up to sqrt(hi - 1), ascending; exponents are int8.
    """
    size = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    # Every entry of a view urem[s_k::p^k] below is a multiple of p, so dividing
    # it by p is exact: a shift for p = 2, else a product with the inverse of p
    # modulo 2^64, which wraps on the unsigned view and never divides.
    urem = rem.view(np.uint64)
    root = math.isqrt(hi - 1)
    for p in base_primes:
        if p > root:
            break
        s = (-lo) % p
        if s >= size:
            continue
        inverse = np.uint64(pow(p, -1, 1 << 64)) if p > 2 else None
        exp = np.zeros((size - s + p - 1) // p, dtype=np.int8)
        pk = p
        while (sk := (-lo) % pk) < size:  # p^k has a multiple in the window
            view = urem[sk::pk]
            if inverse is None:
                view >>= 1
            else:
                view *= inverse
            exp[(sk - s) // p :: pk // p] += 1
            pk *= p
        yield p, slice(s, None, p), exp
    left = np.flatnonzero(rem > 1)
    cofactors = rem[left]
    del rem, urem  # free the window before the last event is folded
    yield cofactors, left, np.ones(left.size, dtype=np.int8)


def sigma(f: Factorization) -> int:
    """Sum of divisors, exact: prod (p^(e+1) - 1) / (p - 1)."""
    out = 1
    for p, e in f.factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def psi_t_parts(f: Factorization, t: int) -> tuple[int, int]:
    """Unreduced (numerator, denominator) of psi_t(n) as exact integers.

    numerator = prod p^e (p^t - 1), denominator = prod p^(t-1) (p - 1).
    """
    if t < 2:
        raise ValueError(f"psi_t needs t >= 2, got {t}")
    num = 1
    den = 1
    for p, e in f.factors:
        num *= p**e * (p**t - 1)
        den *= p ** (t - 1) * (p - 1)
    return num, den


def psi_t(f: Factorization, t: int) -> Fraction:
    """psi_t(n) as an exact rational."""
    return Fraction(*psi_t_parts(f, t))


def psi_over_n(f: Factorization, t: int) -> Fraction:
    """psi_t(n) / n; depends only on the radical of n."""
    if t < 2:
        raise ValueError(f"psi_t needs t >= 2, got {t}")
    num = 1
    den = 1
    for p, _ in f.factors:
        num *= p**t - 1
        den *= p ** (t - 1) * (p - 1)
    return Fraction(num, den)


def is_t_free(f: Factorization, t: int) -> bool:
    """True iff no p^t divides n, i.e. every exponent is <= t - 1."""
    if t < 2:
        raise ValueError(f"t-free test needs t >= 2, got {t}")
    return all(e <= t - 1 for _, e in f.factors)


@dataclass(frozen=True)
class BridgeReport:
    """Outcome of an exact sigma(n) <= psi_t(n) sweep over t-free n <= limit."""

    t: int
    limit: int
    checked: int
    equalities: int
    violation: int | None
    equality_mismatch: int | None

    @property
    def passed(self) -> bool:
        return self.violation is None and self.equality_mismatch is None


def _bridge_failure(p: int, e: int, t: int) -> str | None:
    """The BridgeReport field the local pair (p, e) fails, or None."""
    lhs = (p ** (e + 1) - 1) // (p - 1) * p ** (t - 1) * (p - 1)
    rhs = p**e * (p**t - 1)
    if lhs > rhs:
        return "violation"
    if (lhs == rhs) != (e == t - 1):
        return "equality_mismatch"
    return None


def verify_sigma_le_psi(limit: int, t: int) -> BridgeReport:
    """Exact sweep of sigma(n) <= psi_t(n) over every t-free n <= limit.

    Both sides are products over the prime powers p^e exactly dividing n, so
    the inequality holds on n when it holds on each local pair (p, e), and is
    an equality on n iff it is one on every pair.  Each distinct pair with
    e <= t - 1 is decided once in exact integers: sigma(p^e) p^(t-1) (p - 1)
    <= p^e (p^t - 1), with equality iff e = t - 1.  Per-n exponent extremes
    from the peeling kernel then give t-freeness and equality.  Every pair
    occurs alone at n = p^e, so the least failing n is the least p^e of a
    failing pair, and the counts stop there.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    check_sweep(1, limit)
    top = t - 1
    primes = build_table(math.isqrt(limit) + 1).primes
    decided: dict[int, int] = {}  # base prime -> largest exponent decided
    failure: tuple[int, str] | None = None  # (p^e, field) of the least failing pair
    checked = 0
    equalities = 0
    for lo in range(1, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        high = np.zeros(hi - lo, dtype=np.int8)  # largest exponent of n
        low = np.full(hi - lo, top, dtype=np.int8)  # smallest exponent of n, capped at t - 1
        for p, off, exp in prime_power_events(lo, hi, primes):
            high[off] = np.maximum(high[off], exp)
            low[off] = np.minimum(low[off], exp)
            if np.ndim(p):  # a cofactor prime is new to the sweep where n is that prime
                pairs = [(q, 1) for q in p[p == lo + off].tolist()]
            else:
                e_max = min(int(exp.max()), top)
                pairs = [(p, e) for e in range(decided.get(p, 0) + 1, e_max + 1)]
                decided[p] = max(decided.get(p, 0), e_max)
            for q, e in pairs:
                field = _bridge_failure(q, e, t)
                if field and (failure is None or q**e < failure[0]):
                    failure = (q**e, field)
        free = high <= top
        equal = free & (low == top)
        if failure:
            stop = failure[0] - lo
            checked += int(np.count_nonzero(free[: stop + 1]))
            equalities += int(np.count_nonzero(equal[:stop]))
            break
        checked += int(np.count_nonzero(free))
        equalities += int(np.count_nonzero(equal))
    found: dict[str, int | None] = {"violation": None, "equality_mismatch": None}
    if failure:
        found[failure[1]] = failure[0]
    return BridgeReport(t=t, limit=limit, checked=checked, equalities=equalities, **found)
