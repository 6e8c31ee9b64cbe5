"""Primorial ratio terms in log space and exact champion scans (the reduction step).

N_n = p_1 p_2 ... p_n.  log N_n is the table's theta and log(psi_t(N_n)/N_n)
the prefix sum of psi_ratio_logs, both walked by primes.prefix_blocks.  Each
term is libm's log1p of x = (q - 1) / (q (p - 1)), q = p^(t-1), correctly
rounded: one float division where q < 2^53, as for every prime below 2^25
at t <= 3, and a Veltkamp split with an int fallback past it.

champion_scan loops over the windows of multiplicative.sweep: the kernel sums
each window's float log psi_t(n)/n over the marked primes, a lower bound,
and the larger prime factors an n may have add at most the window's gap; a
screen keeps the n whose bounds come within LOG_RATIO_BAND of the running
maximum, and the loop re-decides each of them exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import numpy as np

from .multiplicative import _iroot, check_sweep, factorize, psi_over_n, screen_cut, sweep
from .primes import build_table, libm_map

# log psi_t(n)/n is a sum over the at most 15 distinct primes of n < 2^63 of
# terms below log 2, each within a few ulp, and the sum stays below 2: its float
# error is under 1e-14, as is that of log log log n.  Anything a screen puts
# within this band of the line is re-decided, never trusted.
LOG_RATIO_BAND = 1e-9


_SPLIT_LIMIT = 1 << 26  # below it, p - 1 and half of a split double multiply exactly


def _psi_ratio_terms(primes: np.ndarray, t: int) -> tuple[np.ndarray, list[int]]:
    """x[k] = (q - 1) / (q (p - 1)) with q = p^(t-1), p = primes[k], correctly
    rounded, bit for bit Python's int true division; and the indices that
    took that int division.  primes is an ascending int64 or float64 array
    (exact, as every prime below 2^53 is).

    Where q < 2^53, a prefix as the primes ascend, S = 1 + p + ... + p^(t-2)
    and q = S (p - 1) + 1 are formed exactly by Horner, every step below q,
    and x = S / q is one IEEE division of two exact doubles, so it rounds the
    rational x once.  That covers every p < 2^53 at t = 2, p < 94906266 at
    t = 3, and no p from t = 54 on; the primes past it take _veltkamp_terms.
    """
    k = int(np.searchsorted(primes, _iroot(2**53 - 1, t - 1), side="right"))
    x = np.empty(len(primes))  # the tail first: its temporaries go before the head's
    exact = _veltkamp_terms(primes[k:], t, x[k:])[1] if k < len(primes) else []
    p = np.asarray(primes[:k], dtype=np.float64)
    s = x[:k]  # S, then x in place
    s.fill(1.0)
    for _ in range(t - 2):
        s *= p
        s += 1.0
    q = p - 1.0
    q *= s
    q += 1.0
    s /= q
    return x, [k + i for i in exact]


def _veltkamp_terms(
    primes: np.ndarray, t: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, list[int]]:
    """_psi_ratio_terms' x[k] for any primes, written to out if given, and
    the indices that took the int division, which takes int(primes[k]).

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
    hi = r * (2.0**27 + 1.0)  # big, then hi = big - (big - r) in place
    hi -= hi - r
    c = (1.0 - hi * d) - (r - hi) * d  # e, then c = (e - pw) / d in place
    pw = p ** (1.0 - t)
    c -= pw
    c /= d
    s = np.add(r, c, out=out)
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


def psi_ratio_logs(p: np.ndarray, t: int) -> np.ndarray:
    """log(psi_t(p)/p) at each prime of the block p, the terms of log
    psi_t(N_n)/N_n: libm's log1p of x = (q - 1) / (q (p - 1)), q = p^(t-1),
    each x correctly rounded (_psi_ratio_terms: one float division where q <
    2^53).  Every term is within an ulp and the compensated sum keeps ~1e-12
    absolute accuracy over 10^5 primes."""
    if t < 2:
        raise ValueError(f"need t >= 2, got t = {t}")
    return libm_map(math.log1p, _psi_ratio_terms(p, t)[0])


def cursor_advance(*_args: object, **_kwargs: object) -> None:
    """Removed with the primorial cursor; walk prefix_blocks over psi_ratio_logs
    and read theta_upto instead.  The name stays only because the benchmark's
    tracer test deletes it to stand for a vanished boundary."""
    raise NotImplementedError(
        "the primorial cursor is gone: walk prefix_blocks over psi_ratio_logs"
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
    new top.

    A value below head - gap - LOG_RATIO_BAND, head the running maximum at
    any point before it, is never kept and never lifts the running maximum,
    so the maxima of the rest decide the same.  The cut sits a second band
    lower, so its own rounding drops none of them.  Its head is top for the
    window, or, where that keeps more than a block, as in a scan's first
    window, where top is -inf, the running maximum at each block's head, the
    largest of top and the block maxima before it (screen_cut)."""

    def floors(heads):
        out = np.empty(heads.size)
        out[0] = top
        out[1:] = np.maximum.reduceat(logs, heads)[:-1]
        np.maximum.accumulate(out, out=out)
        return out - gap - 2.0 * LOG_RATIO_BAND

    near = screen_cut(logs, top - gap - 2.0 * LOG_RATIO_BAND, floors)
    if not near.size:
        return [], top
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

    The reduction step is its corollary: where the strict champions up to
    limit are the primorials, R_t(m) < R_t(N_k) for every non-primorial m in
    [6, limit], N_k the largest primorial <= m and R_t(m) = psi_t(m)/(m log
    log m), as psi_t(m)/m <= psi_t(N_k)/N_k and log log m > log log N_k > 0.
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
