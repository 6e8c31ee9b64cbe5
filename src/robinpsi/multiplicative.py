"""Exact arithmetic for sigma, the generalized Dedekind psi, and t-free tests.

psi_t(n) = n * prod_{p | n} (1 + 1/p + ... + 1/p^(t-1)).  On prime powers
psi_t(p^a) = p^a + ... + p + 1 + 1/p + ... + 1/p^(t-1-a), which is not an
integer for a < t - 1, so everything here that decides stays in exact
integer or Fraction arithmetic; the sweep kernel's float sums only screen.

Every sweep over a range of integers runs one division-free kernel,
`window_weights`, on windows of SEGMENT_SIZE integers in numpy.  The caller
gives a weight to each prime power, and the kernel sums the weights of each
n's marked primes, the primes up to MARK_CAP and the root of the window's
last n: each adds weight(p, k) through one strided slice of the multiples
of each power p^k, and the powers of 2, 3, 5 and 7 dividing WHEEL through
one pattern of n mod WHEEL, summed once per sweep and copied into each
window (the pre-sieving of Oliveira e Silva, Herzog and Pardi, Math. Comp.
83, 2014).  The window never divides or extracts a cofactor.  The prime
factors it leaves unmarked are at least q, one more than the largest
marked, so an n < hi has at most m of them, q^m <= hi - 1, and
`window_gap`, m times the most any one of them can add, bounds what the
sum misses.  So the sum and the gap bound a log ratio such as
log(sigma(n)/n) from both sides, and a caller's screen re-decides the few
n it keeps from their exact factorization.  `sweep` is the one window
loop: it bounds the range with `check_sweep` before any sieving, forms the
plan of the marked primes and their weights once, and yields each window's
sums and gap; `robin` screens log(sigma(n)/n), `primorial` log(psi_t(n)/n),
each with a plain function per window that cuts through `screen_cut`.

The bridge sigma(n) <= psi_t(n) on t-free n needs no sweep: both sides are
multiplicative, so `verify_sigma_le_psi` decides it on the local pairs
(p, e), and counts the t-free n and the equality cases by Moebius sums.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import CoverageError, ResourceError
from .primes import PrimeTable, _segmented_primes, blocks

# Integers per window of a range sweep.  A window's float64 weights take 1 MB,
# so the kernel's strided passes stay in a core's L2 cache, and a few such
# arrays are a sweep's peak memory however long its range.
SEGMENT_SIZE = 1 << 17
# The kernel marks the base primes up to MARK_CAP and bounds the larger prime
# factors by their count (window_gap).  A lower cap widens the gap: at 127
# robin_scan(3, 1e6) sends n = 10080 to an exact decision, and from 163 to
# 181 the screens of test_screens_send_few_n_to_exact_decisions send 30, 53
# and 53 n; a higher one marks more primes in every window.
MARK_CAP = 181
# One period of the kernel's pattern of small prime powers: every power of 2,
# 3, 5 and 7 dividing it is summed once per sweep into 30240 float64 sums
# (236 KB), which each window copies instead of marking those powers.
WHEEL = 2**5 * 3**3 * 5 * 7
MAX_SPAN = 10**9  # most integers one sweep may cover
# Up to 2^50 a sweep needs base primes only to 2^25, an n has at most 50 prime
# factors, which bounds the float error of its summed weights, and n and
# sigma(n) < 8n stay exact in float64 for the margins of the exact decisions.
MAX_SCAN_STOP = 2**50
# n per block of screen_cut, which cuts each block at its own floor where the
# window's one floor keeps more than a block of n
SCREEN_BLOCK = 1024


@dataclass(frozen=True)
class Factorization:
    """n together with its prime-power decomposition, primes increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]


def factorize(n: int, table: PrimeTable) -> Factorization:
    """Trial division over the table, read in blocks of primes.BLOCK primes.
    Once p^3 exceeds what is left of n, m, each prime factor of m is at least
    p, so m has at most two: a square is split by isqrt and a prime is
    certified by Miller-Rabin.  Only a product of two distinct primes, or an
    m past the test's reach, walks on, up to the first p with p^2 above what
    is left.  A cofactor is certified only when it is below table.limit^2."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    m = n
    out: list[tuple[int, int]] = []
    walk_on = False  # m was found to need the walk up to p^2 > m
    count = int(np.searchsorted(table.primes, min(math.isqrt(n), table.limit), side="right"))
    for p in chain.from_iterable(table.primes[a:b].tolist() for a, b in blocks(0, count)):
        if p * p > m:
            break
        if not walk_on and p * p * p > m:
            r = math.isqrt(m)
            if r * r == m or _certified_prime(m):
                break
            walk_on = True  # m = q r, p <= q < r < q^2: the walk ends past q
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
        r = math.isqrt(m)
        out.append((r, 2) if r * r == m else (m, 1))
    return Factorization(value=n, factors=tuple(out))


# The least odd composite that passes Miller-Rabin to each of the first nine
# primes as bases (OEIS A014233): below it, those bases decide every m.
_MR_REACH = 3825123056546413051
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _certified_prime(m: int) -> bool:
    """Whether m is prime, decided by Miller-Rabin to the bases _MR_BASES;
    False from _MR_REACH on, where they decide nothing."""
    if m < 2 or m >= _MR_REACH:
        return False
    for a in _MR_BASES:
        if m % a == 0:
            return m == a
    r = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d 2^r, d odd
    d = (m - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_sweep(start: int, stop: int) -> None:
    """Raise ResourceError for a range sweep over [start, stop] that ends past
    MAX_SCAN_STOP or covers more than MAX_SPAN integers."""
    if stop > MAX_SCAN_STOP:
        raise ResourceError(
            f"sweep stop {stop} exceeds the limit 2^50 = {MAX_SCAN_STOP}, "
            "past which the sweep's float64 error bounds do not hold"
        )
    span = stop - start + 1
    if span > MAX_SPAN:
        raise ResourceError(
            f"span {span} exceeds the budget of {MAX_SPAN}; "
            f"sweeps work in segments of {SEGMENT_SIZE} integers"
        )


class KernelPlan:
    """What the kernel needs of the marked primes and their weights, formed
    once per sweep over [start, stop].

    primes holds the marked primes, ascending, as int64: those of the given
    ones up to MARK_CAP and sqrt(stop).  For each, marks keeps the pairs
    (p^k, weight(p, k)) with p^k <= stop and a weight other than 0, k
    ascending.

    When every window's last n is at least 49, so that 2, 3, 5 and 7 are
    marked in each, pattern[r] sums the weights of the pairs whose p^k
    divides both WHEEL and r, for each residue r mod WHEEL, and those pairs
    leave marks; otherwise pattern is None.
    """

    def __init__(self, primes: np.ndarray, start: int, stop: int, weight) -> None:
        top = min(MARK_CAP, math.isqrt(stop))
        self.primes = np.asarray(primes[: np.searchsorted(primes, top, side="right")], np.int64)
        self.marks: list[list[tuple[int, float]]] = [[] for _ in self.primes]
        k = 1
        # the primes with p^k <= stop are a prefix of the ascending marked ones
        while live := int(np.searchsorted(self.primes, _iroot(stop, k), side="right")):
            ps = self.primes[:live]
            pairs = zip(self.marks, ps.tolist(), weight(ps, k).tolist())
            for marks, p, w in pairs:
                if w:
                    marks.append((p**k, w))
            k += 1
        # the windows' last n ascend, so the first window's is the least
        self.pattern = None
        if min(start + SEGMENT_SIZE, stop + 1) - 1 >= 49:
            self.pattern = np.zeros(WHEEL)
            for marks in self.marks[:4]:  # no larger prime divides WHEEL
                for pk, w in marks:
                    if WHEEL % pk == 0:
                        self.pattern[::pk] += w
                marks[:] = [(pk, w) for pk, w in marks if WHEEL % pk]
        # Freeing one untouched block of four windows' float64 arrays raises
        # glibc's mmap and trim thresholds past a window's arrays, so each
        # window reuses the heap the last one freed instead of mapping and
        # faulting in its pages again: the t-free body (verify_tfree_robin
        # for t = 6 and 7 and a champion scan, to 1e6) takes 1.3k page faults
        # instead of 2.8k, and 0.021 s instead of 0.026 s (medians of 15 runs
        # on two shared cores), for the same peak RSS.
        np.empty(32 * min(SEGMENT_SIZE, stop - start + 1), dtype=np.uint8)


def window_weights(lo: int, hi: int, plan: KernelPlan) -> np.ndarray:
    """acc[i], in float64, the weights summed over the marked primes p <=
    sqrt(hi - 1) that divide n = lo + i, for each n in [lo, hi).

    acc starts from the plan's pattern at phase lo % WHEEL, a few slice
    copies, or from zeros when the plan has none.  Each marked prime adds
    weight(p, k) to every multiple of its other powers p^k in the window
    through the slice acc[(-lo) % p^k :: p^k], so n takes weight(p, 1) + ... +
    weight(p, e), e the exponent of p in n.  No n is divided or factored.
    If the plan has a pattern, hi - 1 >= 49.
    """
    size = hi - lo
    if plan.pattern is None:
        acc = np.zeros(size)
    else:
        acc = np.empty(size)
        phase = lo % WHEEL
        head = min(size, WHEEL - phase)
        acc[:head] = plan.pattern[phase : phase + head]
        for a in range(head, size, WHEEL):
            acc[a : a + WHEEL] = plan.pattern[: size - a]
    count = int(np.searchsorted(plan.primes, math.isqrt(hi - 1), side="right"))
    for marks in plan.marks[:count]:
        for pk, w in marks:
            if (s := (-lo) % pk) >= size:
                break  # no multiple of p^k in the window, so none of a higher power
            acc[s::pk] += w
    return acc


def window_gap(hi: int, total) -> float:
    """m total(q), with q = min(MARK_CAP, isqrt(hi - 1)) + 1 and m the largest
    integer with q^m <= hi - 1: a bound on the weight of the prime factors
    the window [lo, hi) leaves unmarked.  They are at least q, so an n < hi
    has at most m of them, and each adds at most total(q)."""
    q = min(MARK_CAP, math.isqrt(hi - 1)) + 1
    m, power = 0, q
    while power < hi:
        m, power = m + 1, power * q
    return m * float(total(q))


def sweep(
    start: int, stop: int, table: PrimeTable, weight, total
) -> Iterator[tuple[int, np.ndarray, float]]:
    """Yield (lo, acc, gap) for each window [lo, hi) of SEGMENT_SIZE integers
    in [start, stop], acc its window_weights and gap its window_gap, once
    check_sweep has passed.  table must reach sqrt(stop), as factorize
    needs every prime up to it for the n a screen keeps; the kernel's plan
    of the marked primes and their weights is formed once.

    weight(p, k) >= 0 is the weight the k-th power of p adds, total(p)
    bounds its sum over every k from above, and total(p) falls as p grows;
    both take an int64 array of primes, or an int, and return float64.  So
    acc is at most the sum of the weights of n, and acc + gap at least.
    For n <= 2^50, acc sums at most 50 weights, each within 8 ulp, below 2
    in all: its float error is below 2e-14.
    """
    check_sweep(start, stop)
    root = math.isqrt(stop)
    if table.limit < root:
        raise CoverageError(
            f"sweep needs primes to sqrt({stop}) = {root}, "
            f"table stops at {table.limit}; enlarge the sieve"
        )
    plan = KernelPlan(table.primes, start, stop, weight)
    for lo in range(start, stop + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, stop + 1)
        yield lo, window_weights(lo, hi, plan), window_gap(hi, total)


def screen_cut(values: np.ndarray, floor: float, block_floors) -> np.ndarray:
    """The offsets i of values, ascending, whose values[i] reaches its floor:
    floor for the whole window or, where that keeps more than SCREEN_BLOCK
    values, block_floors(heads)[b] for each value of block b, heads holding
    the offset of each block's first value, every SCREEN_BLOCK-th, the last
    block perhaps short.  A screen's floor for the window lies at or below
    each of its block floors, so the blocks keep no more.  They are compared
    through a reshape: only a bool mask and the offsets kept are formed,
    however many values the window floor keeps."""
    keep = values >= floor
    if np.count_nonzero(keep) > SCREEN_BLOCK:
        floors = block_floors(np.arange(0, values.size, SCREEN_BLOCK))
        whole = values.size - values.size % SCREEN_BLOCK
        rows = whole // SCREEN_BLOCK
        np.greater_equal(
            values[:whole].reshape(rows, SCREEN_BLOCK),
            floors[:rows, None],
            out=keep[:whole].reshape(rows, SCREEN_BLOCK),
        )
        np.greater_equal(values[whole:], floors[-1], out=keep[whole:])
    return np.flatnonzero(keep)


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
