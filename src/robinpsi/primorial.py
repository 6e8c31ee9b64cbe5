"""Primorial prefix arrays in log space, exact champion scans, and the reduction step.

N_n = p_1 p_2 ... p_n.  log N_n is the table's theta prefix and
log(psi_t(N_n)/N_n) comes from log_psi_ratio_prefix, both compensated prefix
sums over the primes.  champion_scan loops over the windows of
multiplicative.sweep: the kernel sums each window's float log psi_t(n)/n over
the marked primes, a lower bound, and the larger prime factors an n may
have add at most the window's gap; a screen keeps the n whose bounds
come within LOG_RATIO_BAND of the running maximum, and the loop re-decides
each of them exactly.  reduction_check is the corollary of that scan.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import partial

import numpy as np

from .multiplicative import check_sweep, factorize, psi_over_n, sweep
from .primes import (
    PrimeTable,
    blocks,
    build_table,
    compensated_prefix,
    libm_map,
    require_primes,
)

# log psi_t(n)/n is a sum over the at most 15 distinct primes of n < 2^63 of
# terms below log 2, each within a few ulp, and the sum stays below 2: its float
# error is under 1e-14, as is that of log log log n.  Anything a screen puts
# within this band of the line is re-decided, never trusted.
LOG_RATIO_BAND = 1e-9


_SPLIT_LIMIT = 1 << 26  # below it, p - 1 and half of a split double multiply exactly


def _psi_ratio_terms(primes: np.ndarray, t: int) -> tuple[np.ndarray, list[int]]:
    """x[k] = (q - 1) / (q (p - 1)) with q = p^(t-1), p = primes[k], correctly
    rounded, bit for bit Python's int true division; and the indices that
    took that int division.  primes is an int64 or float64 array (exact, as
    every prime below 2^53 is); the division takes int(primes[k]).

    With d = p - 1 < 2^26 and r = RN(1/d), Veltkamp's split r = hi + lo makes
    e = (1 - hi d) - lo d exact, so x = r + c with c = (e - p^(1-t)) / d
    exactly.  The float c is within beta = 2^-50 |c| + 2^-47 p^(1-t)/d +
    2^-1020 of that: the first term covers the rounded subtraction and
    division, the second a pow within 16 ulp (numpy's pow is 1 ulp off on
    about 5% of these inputs, measured), the third a p^(1-t) that underflows.  TwoSum gives s + err = r + c
    exactly; s is x's rounding wherever |err| + beta is below half the float
    gap under s.  Every other index, and every p >= 2^26, takes the int quotient.
    """
    p = np.asarray(primes, dtype=np.float64)
    d = p - 1.0
    r = 1.0 / d
    big = r * (2.0**27 + 1.0)
    hi = big - (big - r)
    e = (1.0 - hi * d) - (r - hi) * d
    pw = p ** (1.0 - t)
    c = (e - pw) / d
    s = r + c
    bb = s - r
    err = (r - (s - bb)) + (c - bb)
    beta = 2.0**-50 * np.abs(c) + 2.0**-47 * (pw / d) + 2.0**-1020
    sure = np.abs(err) + beta < 0.5 * np.spacing(np.nextafter(s, 0.0))
    exact = np.flatnonzero(~(sure & (p < _SPLIT_LIMIT))).tolist()
    for k in exact:
        pk = int(primes[k])
        q = pk ** (t - 1)
        s[k] = (q - 1) / (q * (pk - 1))
    return s, exact


def log_psi_ratio_prefix(table: PrimeTable, t: int, n: int) -> np.ndarray:
    """out[k] = log(psi_t(N_k)/N_k) for 0 <= k <= n, compensated; out[0] = 0.

    Each prime contributes log(1 + 1/p + ... + 1/p^(t-1)) = log1p(x) with
    x = (q - 1) / (q (p - 1)), q = p^(t-1).  _psi_ratio_terms forms every x
    in numpy, correctly rounded under a stated error bound, and divides the
    exact integers only where that bound cannot decide the rounding; log1p is
    libm's.  Every term is within an ulp and the compensated sum keeps ~1e-12
    absolute accuracy over 10^5 primes.  The sums of log_psi_ratio_blocks
    are copied in block by block, so only out spans all n.
    """
    if t < 2 or n < 0:
        raise ValueError(f"need t >= 2 and n >= 0, got t = {t}, n = {n}")
    require_primes(table, n)
    out = np.zeros(n + 1)
    for a, sums in log_psi_ratio_blocks(table, t, n):
        out[a + 1 : a + 1 + sums.size] = sums
    return out


def log_psi_ratio_blocks(table: PrimeTable, t: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(a, sums) for each block of log_psi_ratio_prefix's pass over 1 <= k <=
    n: sums[i] = log(psi_t(N_k)/N_k) at k = a + 1 + i.  The terms are formed
    one block at a time and the compensated sum resumed from block to block,
    so a reader that keeps a few sums holds one block at a time."""
    state = [0.0, 0.0]
    for a, b in blocks(0, n):
        terms, _ = _psi_ratio_terms(table.primes[a:b], t)
        yield a, compensated_prefix(libm_map(math.log1p, terms), state)[1:]


def cursor_advance(*_args: object, **_kwargs: object) -> None:
    """Removed with the primorial cursor; read log_psi_ratio_prefix and
    PrimeTable.theta_upto instead.  The name stays only because the
    benchmark's tracer test deletes it to stand for a vanished boundary."""
    raise NotImplementedError(
        "the primorial cursor is gone: use log_psi_ratio_prefix and theta_upto"
    )


def log_terms(p: int | np.ndarray, t: int) -> np.floating | np.ndarray:
    """log(1 + 1/p + ... + 1/p^(t-1)) = log1p((1 - p^(1-t)) / (p - 1)) in
    float64; it falls as p grows."""
    q = np.asarray(p, dtype=np.float64)
    return np.log1p((1.0 - q ** (1 - t)) / (q - 1.0))


def _psi_weight(p, k: int, t: int) -> np.ndarray:
    """log(psi_t(p^k)/p^k) - log(psi_t(p^(k-1))/p^(k-1)): log_terms(p, t) for
    k = 1, and 0 above, as psi_t(n)/n depends only on the radical of n."""
    return log_terms(p, t) * (k == 1)


def _champion_screen(logs: np.ndarray, gap: float, top: float) -> tuple[list[int], float]:
    """The offsets of the values in logs, lower bounds, whose upper bound
    logs + gap reaches the running maximum of the lower bounds less
    LOG_RATIO_BAND, top being the largest lower bound before logs; and the
    new top."""
    # a value below top - gap - LOG_RATIO_BAND is never kept and never lifts
    # the running maximum past top, so the maxima of the rest decide the same;
    # the cut sits a second band lower, so its own rounding drops none of them
    near = np.flatnonzero(logs >= top - gap - 2.0 * LOG_RATIO_BAND)
    if not near.size:
        return [], top
    # in place: the first window keeps every value
    bounds = logs[near]
    running = np.maximum.accumulate(bounds)
    top = float(np.maximum(running, top, out=running)[-1])
    bounds += gap
    running -= LOG_RATIO_BAND
    return near[bounds >= running].tolist(), top


def champion_scan(limit: int, t: int, mode: str = "strict") -> list[int]:
    """Left-to-right maxima of m -> psi_t(m)/m on [1, limit], decided exactly.

    strict: a champion must exceed every earlier value; weak: ties count too.
    The kernel bounds log psi_t(m)/m from both sides, within 1e-14 of the
    true bounds.  A true champion's value reaches every earlier one, so its
    upper bound reaches every earlier lower bound: a float screen keeps every
    m whose upper bound is within LOG_RATIO_BAND of the largest lower bound
    so far, and each m it keeps is compared as an exact rational against the
    last champion.
    """
    if limit < 1:
        raise ValueError(f"scan needs limit >= 1, got {limit}")
    if t < 2:
        raise ValueError(f"scan needs t >= 2, got {t}")
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")
    check_sweep(1, limit)
    strict = mode == "strict"
    table = build_table(math.isqrt(limit) + 1)
    out: list[int] = []
    best = Fraction(0)
    top = -math.inf  # the largest lower bound so far
    weight, total = partial(_psi_weight, t=t), partial(log_terms, t=t)
    for lo, acc, gap in sweep(1, limit, table, weight, total):
        offsets, top = _champion_screen(acc, gap, top)
        for m in (lo + i for i in offsets):
            r = psi_over_n(factorize(m, table), t)
            if r > best or (r == best and not strict):
                out.append(m)
                best = r
    return out


def primorials_up_to(limit: int) -> list[int]:
    """[1, 2, 6, 30, ...] up to limit."""
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    # theta(p) >= p log(2) / 2 for every prime p, so the largest prime factor
    # of a primorial <= limit is at most 2 log2(limit), and by Bertrand the
    # next prime is at most twice that.
    primes = build_table(4 * limit.bit_length() + 4).primes.tolist()
    out = [1]
    for p in primes:
        if out[-1] * p > limit:
            break
        out.append(out[-1] * p)
    return out


def reduction_check(limit: int, t: int) -> bool:
    """True if R_t(m) < R_t(N_k) for every non-primorial m in [6, limit],
    where N_k is the largest primorial <= m and R_t(m) = psi_t(m)/(m log log m).

    A corollary of the champion scan: when the champions of psi_t(m)/m up to
    limit are the primorials, psi_t(m)/m <= psi_t(N_k)/N_k, the running
    maximum before m, and log log m > log log N_k > 0, so R_t(m) < R_t(N_k).
    """
    if limit < 6:
        raise ValueError(f"reduction check needs limit >= 6, got {limit}")
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    return champion_scan(limit, t) == primorials_up_to(limit)
