"""Exact arithmetic for sigma, the generalized Dedekind psi, and t-free tests.

psi_t(n) = n * prod_{p | n} (1 + 1/p + ... + 1/p^(t-1)).  On prime powers
psi_t(p^a) = p^a + ... + p + 1 + 1/p + ... + 1/p^(t-1-a), which is not an
integer for a < t - 1, so everything here stays in exact integer or Fraction
arithmetic.  Floats only appear downstream in the log-space modules.

Every sweep over a range of integers factors it with one kernel,
`prime_power_events`, which peels prime powers from a whole window in numpy
through strided views: a base prime's event addresses the window by a slice
of its multiples, the leftover cofactors by an index array.  `sweep` is the
one window loop: it bounds the range with `check_sweep` before any sieving
and hands each window's events to one or more folds, such as the sigma fold
of `robin` and `BridgeFold` here, which may stop it early.
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
MAX_SPAN = 10**9  # most integers one sweep may cover
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
    root = min(math.isqrt(n), table.limit)
    for p in table.primes[: np.searchsorted(table.primes, root, side="right")].tolist():
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


def check_sweep(start: int, stop: int) -> None:
    """Raise ResourceError for a range sweep over [start, stop] that ends past
    MAX_SCAN_STOP or covers more than MAX_SPAN integers."""
    if stop > MAX_SCAN_STOP:
        raise ResourceError(
            f"sweep stop {stop} exceeds the limit 2^50 = {MAX_SCAN_STOP}, "
            "past which sigma(n) is no longer exact in float64"
        )
    span = stop - start + 1
    if span > MAX_SPAN:
        raise ResourceError(
            f"span {span} exceeds the budget of {MAX_SPAN}; "
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
    rem = urem = view = None  # free the window (the last view held it too) before the last event
    yield cofactors, left, np.ones(left.size, dtype=np.int8)


def sweep(start: int, stop: int, folds: list, table: PrimeTable | None = None) -> None:
    """Fold every n in [start, stop] into each fold, one window of
    SEGMENT_SIZE integers at a time, once check_sweep has passed.

    Base primes come from table, which must reach sqrt(stop), or from a new
    table when it is None.  On each window [lo, hi) every fold gets open(lo,
    hi), add(p, where, exponents) per kernel event, then close(lo, hi), in
    list order; a fold whose close returns True is done, and the sweep stops
    once every fold is done.
    """
    check_sweep(start, stop)
    root = math.isqrt(stop)
    if table is None:
        table = build_table(root + 1)
    elif table.limit < root:
        raise CoverageError(
            f"sweep needs primes to sqrt({stop}) = {root}, "
            f"table stops at {table.limit}; enlarge the sieve"
        )
    base_primes = table.primes[: np.searchsorted(table.primes, root, side="right")].tolist()
    for lo in range(start, stop + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, stop + 1)
        for fold in folds:
            fold.open(lo, hi)
        for event in prime_power_events(lo, hi, base_primes):
            for fold in folds:
                fold.add(*event)
        del event  # free the last event's arrays before any fold closes the window
        folds = [fold for fold in folds if not fold.close(lo, hi)]
        if not folds:
            break


def sigma(f: Factorization) -> int:
    """Sum of divisors, exact: prod (p^(e+1) - 1) / (p - 1)."""
    out = 1
    for p, e in f.factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def psi_t(f: Factorization, t: int) -> Fraction:
    """psi_t(n) as an exact rational: n * psi_over_n(f, t)."""
    return f.value * psi_over_n(f, t)


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
    violation: int | None = None
    equality_mismatch: int | None = None

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


def _iroot(n: int, k: int) -> int:
    """The largest m >= 0 with m^k <= n, for n >= 0."""
    m = round(n ** (1.0 / k))
    while m**k > n:
        m -= 1
    while (m + 1) ** k <= n:
        m += 1
    return m


class BridgeFold:
    """The sweep fold of sigma(n) <= psi_t(n) over t-free n: one t-free flag
    per n and local pair decisions, counted up to the least failing n.

    Both sides are products over the prime powers p^e exactly dividing n, so
    the inequality holds on n when it holds on each local pair (p, e), and is
    an equality on n iff it is one on every pair.  A pair with e <= t - 1 is
    decided once, in exact integers: sigma(p^e) p^(t-1) (p - 1) <= p^e (p^t - 1),
    with equality iff e = t - 1.  The multiples of each p^t clear the flags;
    n is then an equality iff every exponent is t - 1, that is n = m^(t-1)
    with m squarefree, which holds iff m^(t-1) is t-free (for t = 2, iff n is).
    Every pair occurs alone at n = p^e, so the least failing n is the least
    p^e of a failing pair, and the counts stop there.
    """

    def __init__(self, t: int) -> None:
        self.t = t
        self.decided: dict[int, int] = {}  # base prime -> largest exponent decided
        self.cofactor_decided = False
        self.failure: dict[str, int] = {}  # {field: p^e} of the least failing pair
        self.checked = 0
        self.equalities = 0

    def open(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.free = np.ones(hi - lo, dtype=bool)

    def add(self, p: int | np.ndarray, where: slice | np.ndarray, exp: np.ndarray) -> None:
        if not np.ndim(p):
            e_max = int(exp.max())
            if e_max >= self.t:  # a multiple of p^t lies in the window
                pt = p**self.t
                self.free[(-self.lo) % pt :: pt] = False
            e_max = min(e_max, self.t - 1)
            pairs = [(p, e) for e in range(self.decided.get(p, 0) + 1, e_max + 1)]
            self.decided[p] = max(self.decided.get(p, 0), e_max)
        elif self.cofactor_decided:
            return
        else:
            # For a prime q, sigma(q) q^(t-1) (q - 1) - q (q^t - 1) = q - q^(t-1):
            # every pair (q, 1) has one verdict, which holds for t >= 2, with
            # equality iff t = 2.  The least cofactor prime that is n itself,
            # the least n a failing (q, 1) could be, decides it once per sweep.
            pairs = [(q, 1) for q in p[p == self.lo + where][:1].tolist()]
            self.cofactor_decided = bool(pairs)
        for q, e in pairs:
            field = _bridge_failure(q, e, self.t)
            if field and all(q**e < n for n in self.failure.values()):
                self.failure = {field: q**e}

    def close(self, lo: int, hi: int) -> bool:
        """Count the window's t-free n and equalities; True once a pair failed."""
        free = self.free
        del self.free
        stop = min(self.failure.values(), default=hi) - lo
        self.checked += int(np.count_nonzero(free[: stop + 1]))
        k = self.t - 1
        if k == 1:
            self.equalities += int(np.count_nonzero(free[:stop]))
        else:  # the m^k in [lo, lo + stop)
            ms = np.arange(_iroot(lo - 1, k) + 1, _iroot(lo + min(stop, hi - lo) - 1, k) + 1)
            self.equalities += int(np.count_nonzero(free[ms**k - lo]))
        return bool(self.failure)

    def report(self, limit: int) -> BridgeReport:
        return BridgeReport(self.t, limit, self.checked, self.equalities, **self.failure)


def verify_sigma_le_psi(limit: int, t: int) -> BridgeReport:
    """Exact sweep of sigma(n) <= psi_t(n) over every t-free n <= limit."""
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    bridge = BridgeFold(t)
    sweep(1, limit, [bridge])
    return bridge.report(limit)
