"""Exact arithmetic for sigma, the generalized Dedekind psi, and t-free tests.

psi_t(n) = n * prod_{p | n} (1 + 1/p + ... + 1/p^(t-1)).  On prime powers
psi_t(p^a) = p^a + ... + p + 1 + 1/p + ... + 1/p^(t-1-a), which is not an
integer for a < t - 1, so everything here stays in exact integer or Fraction
arithmetic.  Floats only appear downstream in the log-space modules.

Every sweep over a range of integers factors it with one kernel,
`prime_power_events`, which peels prime powers from a window of SEGMENT_SIZE
integers in numpy.  A base prime with many multiples in the window has one
strided event per power p^k, a slice of its multiples, and divides them out
through strided views.  The base primes with at most BATCH_MULTIPLES
multiples share one array event, their offsets from one vectorised modulo
(after the bucket sieve of Oliveira e Silva, Herzog and Pardi, Math. Comp.
83, 2014), an offset once per such prime of its n; the leftover cofactors
come last, by an index array too.  Callers apply array events with
ufunc.at.  `sweep` is the one window loop: it bounds the range with
`check_sweep` before any sieving, forms the kernel's plan of the base primes
once, and yields each window with its events; `robin` sums sigma from them,
`primorial` log psi_t(n)/n, each with a plain function per window.

The bridge sigma(n) <= psi_t(n) on t-free n needs no sweep: both sides are
multiplicative, so `verify_sigma_le_psi` decides it on the local pairs
(p, e), and counts the t-free n and the equality cases by Moebius sums.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CoverageError, ResourceError
from .primes import PrimeTable, _segmented_primes

# Integers per window of a range sweep.  A window's int64 array takes 1 MB, so
# the kernel's strided passes stay in a core's L2 cache, and a few such arrays
# are a sweep's peak memory however long its range.
SEGMENT_SIZE = 1 << 17
BATCH_MULTIPLES = 64  # base primes with at most this many multiples in a window are batched
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


class KernelPlan:
    """What the kernel needs of the base primes, formed once per sweep.

    primes holds the base primes, ascending, as int64.  A window of up to
    width integers peels those up to width // BATCH_MULTIPLES one at a time:
    for them the plan keeps small, the primes as ints, and inverses, each
    one's inverse modulo 2^64 (None for 2).
    """

    def __init__(self, primes: np.ndarray, width: int) -> None:
        self.primes = np.asarray(primes, dtype=np.int64)
        count = np.searchsorted(self.primes, width // BATCH_MULTIPLES, side="right")
        self.small = self.primes[:count].tolist()
        self.inverses = [pow(p, -1, 1 << 64) if p > 2 else None for p in self.small]
        # Freeing one untouched block of four windows' int64 arrays raises
        # glibc's mmap and trim thresholds past a window's arrays, so each window
        # reuses the heap the last one freed instead of mapping and faulting in
        # its pages again: on a 1e6 sweep that cuts page faults 25-fold.
        np.empty(32 * width, dtype=np.uint8)


def prime_power_events(
    lo: int, hi: int, plan: KernelPlan
) -> Iterator[tuple[int | np.ndarray, slice | np.ndarray, int | np.ndarray]]:
    """Peel every n in [lo, hi) into its prime powers.

    The base primes p <= sqrt(hi - 1) up to (hi - lo) // BATCH_MULTIPLES,
    each with at least BATCH_MULTIPLES multiples in the window, come first,
    ascending, one strided event per power: (p, slice(s, None, p^k), k) for
    k = 1, 2, ... while p^k has a multiple in the window, s its offset.  So
    p^k divides the n at each offset of the k-th event, and the exponent of
    p in n is the number of p's events that reach it.  The larger base
    primes, with at most BATCH_MULTIPLES multiples each, share one array
    event (primes, offsets, exponents), prime by prime, ascending: the prime
    primes[i] exactly divides lo + offsets[i] to the power exponents[i], an
    int8, and an offset repeats where several of them divide one n.  A last
    array event (cofactors, offsets, ones) covers what is left of each n once
    the base primes are divided out, each offset once: the prime cofactors[i]
    divides lo + offsets[i] to the first power.  numpy indexes a window the
    same way with either kind of where; an array event is applied with
    ufunc.at, which takes repeated offsets one after the other in index
    order.  plan must hold every prime up to sqrt(hi - 1).
    """
    size = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    # Every entry of a view urem[s_k::p^k] below is a multiple of p, so dividing
    # it by p is exact: a shift for p = 2, else a product with the inverse of p
    # modulo 2^64, which wraps on the unsigned view and never divides.
    urem = rem.view(np.uint64)
    root = math.isqrt(hi - 1)
    primes = plan.primes[: np.searchsorted(plan.primes, root, side="right")]
    count = min(len(plan.small), np.searchsorted(primes, size // BATCH_MULTIPLES, side="right"))
    for p, inverse in zip(plan.small[:count], plan.inverses):
        pk, k = p, 1
        while (sk := (-lo) % pk) < size:  # p^k has a multiple in the window
            view = urem[sk::pk]
            if inverse is None:
                view >>= 1
            else:
                view *= inverse
            yield p, slice(sk, None, pk), k
            pk, k = pk * p, k + 1
    view = None  # the last view held the window too; rem alone keeps it now
    p, off, exp = _batched_event(lo, hi, primes[count:])
    if p.size:
        np.floor_divide.at(rem, off, p**exp)  # p^e <= n
        yield p, off, exp
    left = np.flatnonzero(rem > 1)
    cofactors = rem[left]
    rem = urem = None  # free the window before the last event
    yield cofactors, left, np.ones(left.size, dtype=np.int8)


def _batched_event(
    lo: int, hi: int, primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched event of prime_power_events for these base primes, each
    at most sqrt(hi - 1) and with at most a few multiples in [lo, hi)."""
    size = hi - lo
    s = (-lo) % primes  # the offset of each prime's first multiple
    hit = s < size
    p, s = primes[hit], s[hit]
    counts = (size - 1 - s) // p + 1
    # every multiple of every prime, prime by prime: p[i] divides lo + off[i]
    p = np.repeat(p, counts)
    first = np.cumsum(counts) - counts
    off = np.repeat(s, counts)
    off += p * (np.arange(p.size) - np.repeat(first, counts))
    exp = np.ones(p.size, dtype=np.int8)
    # exact passes over p^k, formed only where p^k <= hi - 1: no int64 overflow
    deep = np.arange(p.size)
    k = 2
    while deep.size:
        deep = deep[p[deep] <= _iroot(hi - 1, k)]
        deep = deep[(lo + off[deep]) % p[deep] ** k == 0]
        exp[deep] += 1
        k += 1
    return p, off, exp


def sweep(start: int, stop: int, table: PrimeTable) -> Iterator[tuple[int, int, Iterator]]:
    """Yield (lo, hi, events) for each window [lo, hi) of SEGMENT_SIZE
    integers in [start, stop], events the window's prime_power_events, once
    check_sweep has passed.  Base primes come from table, which must reach
    sqrt(stop); the kernel's plan of them is formed once."""
    check_sweep(start, stop)
    root = math.isqrt(stop)
    if table.limit < root:
        raise CoverageError(
            f"sweep needs primes to sqrt({stop}) = {root}, "
            f"table stops at {table.limit}; enlarge the sieve"
        )
    base_primes = table.primes[: np.searchsorted(table.primes, root, side="right")]
    plan = KernelPlan(base_primes, min(SEGMENT_SIZE, stop - start + 1))
    for lo in range(start, stop + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, stop + 1)
        yield lo, hi, prime_power_events(lo, hi, plan)


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


def _tfree_count(x: int, t: int, primes: np.ndarray) -> int:
    """The number of t-free n in [1, x], sum over d <= x^(1/t) of
    mu(d) floor(x / d^t), with primes holding every prime up to x^(1/t)."""
    top = _iroot(x, t)
    mu = np.ones(top + 1, dtype=np.int64)
    for p in primes[: np.searchsorted(primes, top, side="right")].tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
    d = np.arange(1, top + 1, dtype=np.int64)
    return int(mu[1:] @ (x // d**t))


def verify_sigma_le_psi(limit: int, t: int) -> BridgeReport:
    """Exact check of sigma(n) <= psi_t(n) over every t-free n <= limit.

    Both sides are products over the prime powers p^e exactly dividing n, so
    the inequality holds on n when it holds on each local pair (p, e), and is
    an equality on n iff it is one on every pair.  _bridge_failure decides
    a pair in exact integers: sigma(p^e) p^(t-1) (p - 1) <= p^e (p^t - 1),
    with equality iff e = t - 1.  It gets every pair with p <= sqrt(limit),
    e <= t - 1 and p^e <= limit, and one pair (q, 1) for the larger primes.
    Every pair occurs alone at n = p^e, so the least failing n is the least
    p^e of a failing pair.  Up to it the t-free n are counted in closed form,
    and so are the equalities: n = m^(t-1) with m squarefree.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    check_sweep(1, limit)
    root = math.isqrt(limit)
    primes = _segmented_primes(2 * root + 2)  # by Bertrand, a prime lies in (root, 2 root]
    above = np.searchsorted(primes, root, side="right")
    failures = []  # (p^e, field) of each failing pair
    for p in primes[:above].tolist():
        e, pe = 1, p
        while e < t and pe <= limit:
            if field := _bridge_failure(p, e, t):
                failures.append((pe, field))
            e, pe = e + 1, pe * p
    # For a prime q, sigma(q) q^(t-1) (q - 1) - q (q^t - 1) = q - q^(t-1): every
    # pair (q, 1) has one verdict, so the least prime above root decides them
    q = int(primes[above])
    if q <= limit and (field := _bridge_failure(q, 1, t)):
        failures.append((q, field))
    failing, field = min(failures, default=(None, None))
    checked = _tfree_count(failing or limit, t, primes)
    equalities = _tfree_count(_iroot(failing - 1 if failing else limit, t - 1), 2, primes)
    return BridgeReport(t, limit, checked, equalities, **({field: failing} if failing else {}))
