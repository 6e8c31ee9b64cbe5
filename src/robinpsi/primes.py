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
n-th primorial N_n.  Each log p is libm's, bit for bit, at C speed: libm_log
takes the real part of numpy's complex128 log, which calls C clog, while its
float64 log is SIMD code that differs from libm in the last bit.  log1p and
pow have no such route and stay a Python map of math (libm_map).  Prefix
sums are accumulated with Neumaier compensated summation
(compensated_prefix): the absolute error stays within a few ulps
instead of growing linearly, which keeps log log N_n good to ~1e-12 near
n = 10^4 where the crossover margins downstream are only ~1e-6.

Passes over a range run in blocks of BLOCK indices (blocks), so their
temporaries stay block-sized and only their outputs span the range.  Every
compensated sum over the primes walks prefix_blocks, which forms the terms
and resumes the sum a block at a time; prefix_at keeps its sums at a few n.

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
        the formed prefix extends it to at least twice its length, walking
        prefix_blocks on from its state, so the bits are the one-shot
        prefix's whatever the order of the reads.  The terms are libm_log's,
        math.log of each prime bit for bit."""
        require_primes(self, n)
        k = len(self._theta) - 1
        if n > k:
            stop = min(max(n, 2 * k), len(self.primes))
            theta = np.empty(stop + 1)
            theta[: k + 1] = self._theta
            for a, p, sums in prefix_blocks(self.primes[:stop], libm_log, k, self._theta_state):
                theta[a + 1 : a + 1 + p.size] = sums
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
    floats and calls math, not numpy: numpy's float64 exp, log and log1p are
    SIMD code, not libm, and differ from it in the last bit (log1p on 23 of
    the 1e5 psi-ratio terms of t = 3), while the prefix sums and margins must
    match the scalar formulas bit for bit.  libm_log takes log at C speed,
    so the map remains for log1p and pow, which have no such route.  The map
    reads xs through a memoryview, which makes each Python number as fn
    takes it, so no list of them is ever held."""
    return np.fromiter(map(fn, memoryview(xs)), dtype=np.float64, count=len(xs))


# glibc's clog halves an argument above DBL_MAX / 2 and adds log 2 back
_LIBM_LOG_MAX = float(np.finfo(np.float64).max) / 2


def libm_log(xs: np.ndarray) -> np.ndarray:
    """libm's log of each x in xs, 2 <= x <= DBL_MAX / 2, bit for bit, as
    float64; ValueError for any other x.  numpy's float64 log is SIMD code,
    not libm: it differs from math.log on 61 of the 1.1M primes whose theta
    t = 8 reads.  Its complex128 log calls C clog, whose real part at x + 0i
    is log(hypot(x, 0)) = log(x) for 2 <= x <= DBL_MAX / 2 (glibc's
    s_clog_template.c; hypot(x, 0) = |x| by C11 F.10.4.3), as is numpy's
    own clog fallback for x > 1.73.  Below 2 clog takes log1p branches, and
    above DBL_MAX / 2 it rescales, which moves the last bit.  The log runs
    in place over one complex copy of xs; the result is its real part."""
    z = np.asarray(xs).astype(np.complex128)
    lo, hi = z.real.min(initial=2.0), z.real.max(initial=2.0)
    if not (2.0 <= lo and hi <= _LIBM_LOG_MAX):  # a nan fails both
        raise ValueError(f"libm_log needs 2 <= x <= DBL_MAX / 2, got x from {lo} to {hi}")
    return np.log(z, out=z).real


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


def prefix_blocks(
    primes: np.ndarray, terms, start: int = 0, state: list[float] | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(a, p, sums) for each block p = primes[a:b] from index start on:
    sums[i] = terms(p_1) + ... + terms(p_k) at k = a + 1 + i, compensated,
    terms(p) formed one block at a time.  The sum resumes from state ([0, 0]
    for start = 0) and leaves its state in it, as compensated_prefix does, so
    a reader holds one block of terms and sums at a time.  The terms live
    until the next block's are formed: freed with the rest, they let glibc
    trim the heap top, whose pages the next block faults back in."""
    state = [0.0, 0.0] if state is None else state
    for a, b in blocks(start, len(primes)):
        p = primes[a:b]
        x = terms(p)
        yield a, p, compensated_prefix(x, state)[1:]


def prefix_at(primes: np.ndarray, terms, idx) -> np.ndarray:
    """prefix_blocks's sums at the ascending indices idx, which may repeat:
    out[j] = terms(p_1) + ... + terms(p_idx[j]), 0 at index 0.  The walk
    stops with the block holding idx[-1]."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and not 0 <= idx[0] <= idx[-1] <= len(primes):
        raise IndexError(f"prefix indices must lie in [0, {len(primes)}], got {idx[0]}..{idx[-1]}")
    out = np.zeros(idx.size)
    j = np.searchsorted(idx, 0, side="right")  # the first index past 0
    for a, p, sums in prefix_blocks(primes[: idx.max(initial=0)], terms):
        k = np.searchsorted(idx, a + p.size, side="right")
        out[j:k] = sums[idx[j:k] - a - 1]
        j = k
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

