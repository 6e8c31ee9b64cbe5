"""Primorial prefix arrays in log space, exact champion scans, and the reduction step.

N_n = p_1 p_2 ... p_n.  log N_n is the table's theta prefix and
log(psi_t(N_n)/N_n) comes from log_psi_ratio_prefix, both compensated prefix
sums over the primes.  Champion scans and the reduction check loop over the
windows of multiplicative.sweep: `_window_logs` sums each window's float
log psi_t(n)/n from the peeling kernel's events, a screen keeps the n within
LOG_RATIO_BAND of the line, and the loop re-decides each of them exactly
(champions) or at 60 digits (reduction).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .multiplicative import check_sweep, factorize, psi_over_n, sweep
from .primes import PrimeTable, build_table, compensated_prefix, libm_map, mpmath, require_primes

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
    absolute accuracy over 10^5 primes.
    """
    if t < 2 or n < 0:
        raise ValueError(f"need t >= 2 and n >= 0, got t = {t}, n = {n}")
    require_primes(table, n)
    terms, _ = _psi_ratio_terms(table.primes[:n], t)
    return compensated_prefix(libm_map(math.log1p, terms))


def cursor_advance(*_args: object, **_kwargs: object) -> None:
    """Removed with the primorial cursor; read log_psi_ratio_prefix and
    PrimeTable.theta_prefix instead.  The name stays only because the
    benchmark's tracer test deletes it to stand for a vanished boundary."""
    raise NotImplementedError(
        "the primorial cursor is gone: use log_psi_ratio_prefix and theta_prefix"
    )


def log_terms(p: int | np.ndarray, t: int) -> np.floating | np.ndarray:
    """log(1 + 1/p + ... + 1/p^(t-1)) = log1p((1 - p^(1-t)) / (p - 1)) in float64."""
    q = np.asarray(p, dtype=np.float64)
    return np.log1p((1.0 - q ** (1 - t)) / (q - 1.0))


def _window_logs(lo: int, hi: int, events, t: int, terms: dict) -> np.ndarray:
    """log(psi_t(n)/n) of each n in the window [lo, hi) in float64, the sum of
    log_terms over the primes p | n, from the window's kernel events.

    A base prime adds its term on its first strided event only, the one of
    p^1, kept in terms, the sweep's dict of base prime -> term, so it is
    formed once per sweep.  Array events add theirs with np.add.at, in index
    order, so each n sums its terms in ascending order of its primes."""
    logs = np.zeros(hi - lo)
    for p, where, exp in events:
        if not isinstance(p, int):
            np.add.at(logs, where, log_terms(p, t))
        elif exp == 1:
            if p not in terms:
                terms[p] = log_terms(p, t)
            logs[where] += terms[p]
    return logs


def _champion_screen(logs: np.ndarray, top: float) -> tuple[list[int], float]:
    """The offsets of the values in logs within LOG_RATIO_BAND of the running
    maximum, top being the largest value before logs; and the new top."""
    # a value below top - LOG_RATIO_BAND is never kept and never lifts the
    # running maximum past top, so the maxima of the rest decide the same
    near = np.flatnonzero(logs >= top - LOG_RATIO_BAND)
    running = np.maximum(np.maximum.accumulate(logs[near]), top)
    offsets = near[logs[near] >= running - LOG_RATIO_BAND].tolist()
    return offsets, float(running[-1]) if near.size else top


def champion_scan(limit: int, t: int, mode: str = "strict") -> list[int]:
    """Left-to-right maxima of m -> psi_t(m)/m on [1, limit], decided exactly.

    strict: a champion must exceed every earlier value; weak: ties count too.
    A float screen keeps every m within LOG_RATIO_BAND of the largest float
    so far, which includes every m attaining the exact maximum so far; each
    is compared as an exact rational against the last champion.
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
    terms: dict[int, np.floating] = {}
    out: list[int] = []
    best = Fraction(0)
    top = -math.inf  # the largest float so far
    for lo, hi, events in sweep(1, limit, table):
        offsets, top = _champion_screen(_window_logs(lo, hi, events, t, terms), top)
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


def _reduction_screen(
    lo: int, logs: np.ndarray, prims: list[int], lines: np.ndarray
) -> list[tuple[int, int]]:
    """(m, k) for each non-primorial m of the window from lo, logs holding
    log psi_t(m)/m, that the float screen does not clear below the line of
    N_k = prims[k], the largest primorial <= m.  Each N_k in the window
    first sets its line, lines[k]."""
    ns = np.arange(lo, lo + logs.size)
    log_r = logs - np.log(np.log(np.log(ns)))
    k = np.searchsorted(prims, ns, side="right") - 1  # N_k, the largest primorial <= n
    at = ns == np.array(prims)[k]
    lines[k[at]] = log_r[at] - LOG_RATIO_BAND
    return [(lo + i, int(k[i])) for i in np.flatnonzero((log_r >= lines[k]) & ~at).tolist()]


def reduction_check(limit: int, t: int) -> bool:
    """True iff R_t(m) < R_t(N_k) for every non-primorial m in [6, limit],
    where N_k is the largest primorial <= m and R_t(m) = psi_t(m)/(m log log m).

    A float screen in log space clears every m below log R_t(N_k) by more
    than LOG_RATIO_BAND; the rest are re-decided at 60 digits from the exact
    rational psi_t(m)/m.
    """
    if limit < 6:
        raise ValueError(f"reduction check needs limit >= 6, got {limit}")
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    check_sweep(6, limit)
    table = build_table(math.isqrt(limit) + 1)

    def ratio_60(m: int) -> mpmath.mpf:
        r = psi_over_n(factorize(m, table), t)
        with mpmath.workdps(60):
            return mpmath.mpf(r.numerator) / r.denominator / mpmath.log(mpmath.log(m))

    prims = primorials_up_to(limit)[2:]  # 6, 30, 210, ...
    lines = np.full(len(prims), math.inf)  # log R_t(N_k) less the band, once N_k is swept
    terms: dict[int, np.floating] = {}
    for lo, hi, events in sweep(6, limit, table):
        for m, k in _reduction_screen(lo, _window_logs(lo, hi, events, t, terms), prims, lines):
            if ratio_60(m) >= ratio_60(prims[k]):
                return False
    return True

