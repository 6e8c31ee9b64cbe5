"""Prime tables: a segmented sieve, the table coverage check, a p_n bound,
and Chebyshev theta prefix sums.

The sieve keeps each segment's odd candidates as one numpy bool array,
strikes each base prime's multiples with one strided slice assignment and
reads the primes off with np.flatnonzero.

A table holds numpy arrays: the primes as int64 and their theta prefix sums
as float64.  build_table only sieves; theta is formed on demand, through the
largest index a reader has asked for (PrimeTable.theta_upto), so a run that
reads theta near p_10^4 never takes the log of every prime of a 10^5-prime
table.  Exact arithmetic takes Python ints from the arrays, by .tolist() of a
slice or int() of one entry: an int64 p**t wraps without a warning past 2^63,
and mpmath and pow(p, -1, 2**64) reject numpy integers.

theta(x) = sum of log p over primes p <= x, so theta(p_n) = log(N_n) for the
n-th primorial N_n.  Prefix sums are accumulated with Neumaier compensated
summation (compensated_prefix): the absolute error stays within a few ulps
instead of growing linearly, which keeps log log N_n good to ~1e-12 near
n = 10^4 where the crossover margins downstream are only ~1e-6.

Passes over a range run in blocks of BLOCK indices (blocks): the maps and
prefix sums here, the psi-ratio prefix and the bound suites' screens, so
their temporaries stay block-sized and only their outputs span the range.

at_60_digits runs a formula f(m, ...), written once over m = math, numpy or
mpmath, with m = mpmath, the one shared handle, at 60 significant digits: the
only high-precision context.  The handle imports mpmath on the first
recheck, so a run that rechecks nothing never loads it.
"""

from __future__ import annotations

import importlib
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError

_SEGMENT_ODDS = 1 << 17  # odd candidates per sieve segment
# Indices per block of every pass over a range of primes or of a suite's
# column: 128 KB of float64, so the temporaries of a pass stay block-sized
# however long the range.
BLOCK = 1 << 14


def blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """(a, b) for the consecutive blocks [a, b) of at most BLOCK indices
    that cover [start, stop)."""
    return ((a, min(a + BLOCK, stop)) for a in range(start, stop, BLOCK))


class _LazyModule:
    """A module imported on its first attribute access, then delegated to.
    An attribute set on the handle itself, such as a patched function, is found
    before __getattr__ runs, so every module holding the handle sees it."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self._name), attr)


mpmath = _LazyModule("mpmath")


def at_60_digits(formula, inputs) -> float:
    """float(formula(mpmath, *inputs())) at 60 significant digits.  inputs()
    runs inside the context, so the exact products it reads are formed at 60
    digits; each value it gives enters as an mpf, an int exactly."""
    with mpmath.workdps(60):
        return float(formula(mpmath, *map(mpmath.mpf, inputs())))


@dataclass(eq=False)
class PrimeTable:
    """Sieve output: every prime <= limit, and theta prefix sums on demand.

    primes is an int64 array, p_n = primes[n - 1].  theta_upto(n) is the
    float64 array [theta_0, ..., theta_n], theta_k = log(p_1) + ... +
    log(p_k) = log N_k, theta_0 = 0.  Exact arithmetic takes
    primes[a:b].tolist() or int(primes[k]).  Treat
    instances and the arrays they give as immutable; rebuilding with a
    larger limit never changes earlier entries.
    """

    limit: int
    primes: np.ndarray
    _theta: np.ndarray = field(init=False, repr=False)
    _theta_state: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._theta = np.zeros(1)  # theta through the largest index read
        self._theta_state = [0.0, 0.0]  # compensated_prefix's state after it

    def __len__(self) -> int:
        return len(self.primes)

    def theta_upto(self, n: int) -> np.ndarray:
        """theta_0, ..., theta_n; CoverageError past the table.  A read past
        the formed prefix extends it to at least twice its length, resuming
        the compensated sum from its state, so the bits are the one-shot
        prefix's whatever the order of the reads."""
        require_primes(self, n)
        k = len(self._theta) - 1
        if n > k:
            stop = min(max(n, 2 * k), len(self.primes))
            theta = np.empty(stop + 1)
            theta[: k + 1] = self._theta
            for a, b in blocks(k, stop):
                logs = libm_map(math.log, self.primes[a:b])
                theta[a + 1 : b + 1] = compensated_prefix(logs, self._theta_state)[1:]
            self._theta = theta
        return self._theta[: n + 1]


def _segmented_primes(limit: int) -> np.ndarray:
    """Segmented odd-only sieve as an int64 array, base primes to sqrt(limit)
    by recursion; the working memory is O(sqrt(limit) + segment).  A segment
    is a bool array over _SEGMENT_ODDS odd candidates."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd_base = _segmented_primes(math.isqrt(limit))[1:].tolist()
    segments = [np.array([2], dtype=np.int64)]
    last = limit if limit % 2 else limit - 1
    lo = 3
    while lo <= last:
        count = min(_SEGMENT_ODDS, (last - lo) // 2 + 1)
        seg = np.ones(count, dtype=bool)
        top = lo + 2 * count  # exclusive bound of this segment's odds
        for p in odd_base:
            if p * p >= top:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            i0 = (start - lo) // 2
            seg[i0::p] = False
        segments.append(np.flatnonzero(seg) * 2 + lo)
        lo += 2 * count
    return np.concatenate(segments)


def libm_map(fn, xs: np.ndarray) -> np.ndarray:
    """fn over the array xs as a float64 array.  fn gets Python ints or
    floats and calls math, not numpy: numpy's exp and log differ from libm's
    in the last bit, and the prefix sums and margins must match the scalar
    formulas bit for bit.  So does its log1p: on the 1e5 psi-ratio terms of
    t = 3 it differs from math.log1p on 23.  The map runs one block at a
    time into the output, so its Python objects never cover more than BLOCK
    entries."""
    out = np.empty(len(xs))
    for a, b in blocks(0, len(xs)):
        out[a:b] = np.fromiter(map(fn, xs[a:b].tolist()), dtype=np.float64, count=b - a)
    return out


def compensated_prefix(xs: np.ndarray, state: list[float] | None = None) -> np.ndarray:
    """Neumaier-compensated prefix sums: out[0] = 0, out[k] = xs[0] + ... + xs[k-1].

    Bit for bit the scalar loop `s = total + x; carry += error of that
    addition; out[k] = s + carry`: both cumsums run left to right like the
    loop, and TwoSum (Ogita, Rump and Oishi 2005) yields the same exact
    rounding error as Neumaier's branch on the larger addend.  state, if
    given, is the loop's [total, carry] before xs[0], so out[0] = total +
    carry, and is left holding them after xs[-1]: sums resumed from it are
    the one-shot sums over the joined terms, bit for bit.  So the sums run
    one block at a time, each resumed from the one before, and only the
    output spans all of xs.
    """
    x = np.asarray(xs, dtype=np.float64)
    total, carry = state or (0.0, 0.0)
    out = np.empty(x.size + 1)
    out[0] = total + carry
    for a, b in blocks(0, x.size):
        s = np.concatenate(([total], x[a:b]))
        np.cumsum(s, out=s)
        prev, cur = s[:-1], s[1:]
        # err = (prev - (cur - bb)) + (x - bb) with bb = cur - prev, written
        # behind the carry's leading entry: two temporaries instead of eight
        bb = cur - prev
        carries = np.zeros_like(s)
        carries[0] = carry
        err = carries[1:]
        np.subtract(cur, bb, out=err)
        np.subtract(prev, err, out=err)
        np.subtract(x[a:b], bb, out=bb)
        err += bb
        np.cumsum(carries, out=carries)
        np.add(cur, err, out=out[a + 1 : b + 1])
        total, carry = float(s[-1]), float(carries[-1])
    if state is not None:
        state[:] = total, carry
    return out


def build_table(limit: int) -> PrimeTable:
    """Sieve all primes <= limit; theta is formed as it is read."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    return PrimeTable(limit=limit, primes=_segmented_primes(limit))


def nth_prime_bound(n: int) -> int:
    """A sieve limit covering p_n: n (log n + log log n), above p_n for n >= 6
    (Rosser and Schoenfeld, Illinois J. Math. 6, 1962), plus 16 for rounding."""
    if n < 6:
        return 16
    return int(n * (math.log(n) + math.log(math.log(n)))) + 16


def require_primes(table: PrimeTable, n: int) -> None:
    """Raise CoverageError unless the table holds at least n primes."""
    if n > len(table.primes):
        raise CoverageError(
            f"table holds {len(table.primes)} primes, need {n}; enlarge the sieve"
        )

