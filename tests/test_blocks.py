"""Every pass that runs in blocks of primes.BLOCK indices against the
whole-array formula it replaced, bit for bit, at and around the block edges:
lengths 0, 1, B - 1, B, B + 1 and k B + r, and with B patched down to a
small prime so that one pass crosses hundreds of edges."""

import math
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinpsi import bounds, primes, primorial
from robinpsi.bounds import CRITERION_FLOOR, zeta


def _libm_map_whole(fn, xs):
    return np.fromiter(map(fn, xs.tolist()), dtype=np.float64, count=len(xs))


def _compensated_whole(xs, state=None):
    """The one-shot compensated prefix: two cumsums over all of xs."""
    total, carry0 = state or (0.0, 0.0)
    x = np.asarray(xs, dtype=np.float64)
    s = np.concatenate(([total], x))
    np.cumsum(s, out=s)
    prev, cur = s[:-1], s[1:]
    bb = cur - prev
    carry = np.zeros_like(s)
    carry[0] = carry0
    err = carry[1:]
    np.subtract(cur, bb, out=err)
    np.subtract(prev, err, out=err)
    np.subtract(x, bb, out=bb)
    err += bb
    np.cumsum(carry, out=carry)
    if state is not None:
        state[:] = s[-1], carry[-1]
    s += carry
    return s


def _log_psi_ratio_whole(table, t, n):
    terms, _ = primorial._psi_ratio_terms(table.primes[:n], t)
    return _compensated_whole(_libm_map_whole(math.log1p, terms))


def _log_substitution_whole(table, n_min, n_max):
    """The log substitution screen over the whole range: est, beta and the
    libm inputs p_n and theta."""
    p = table.primes[n_min - 1 : n_max]
    theta = table.theta_upto(n_max)[n_min:]
    est = bounds._log_substitution_margin(np, p, theta)
    return est, 2.0**-45 * (np.log(p) + np.abs(est)), p, theta


def _psi_ratio_whole(table, t, n_min, n_max):
    """The psi ratio screen of one t over the whole range, one prefix of the
    libm terms over every prime up to p_n_max: est, beta and the libm inputs
    p_n, theta, zeta(t) and the sums."""
    p = table.primes[n_min - 1 : n_max]
    theta = table.theta_upto(n_max)[n_min:]
    logs = _log_psi_ratio_whole(table, t, n_max)[n_min:]
    bound = bounds._psi_ratio_scale(np, p, theta) / zeta(t).value
    ratio = np.exp(logs)
    est = bound - ratio
    beta = 2.0**-52 * (42.0 * bound + 17.0 * ratio) + 2.0**-51 * np.abs(est)
    return est, beta, p, theta, np.full(p.size, zeta(t).value), logs


def _joined(blocks, arity):
    """est, beta and the arity - 2 inputs of a column's blocks, each joined,
    the first block at offset 0, each offset where the one before ends."""
    parts, size = [(np.zeros(0),) * arity], 0
    for offset, est, beta, inputs in blocks:
        assert offset == size and est.size == beta.size > 0
        assert len(inputs) == arity - 2 and all(x.size == est.size for x in inputs)
        parts.append((est, beta, *inputs))
        size += est.size
    return [np.concatenate(x) for x in zip(*parts)]


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


SMALL_BLOCK = 13  # a prime, so the edges fall at no power of two


def _length(block, k, r):
    """k B + r, r = -1, 0 or 1, or any remainder below B, never negative."""
    return max(k * block + (r if r <= 1 else r % block), 0)


edges = st.tuples(
    st.integers(0, 4), st.one_of(st.sampled_from([-1, 0, 1]), st.integers(2, 1 << 14))
)
# from both sides of 0, magnitudes 1e-8..1e8, so the compensation carries bits
starts = st.one_of(st.none(), st.tuples(st.floats(-1e8, 1e8), st.floats(-1e-8, 1e-8)))


@pytest.mark.parametrize("block", [None, SMALL_BLOCK], ids=["default", "small-prime"])
@settings(max_examples=12, deadline=None)
@given(edge=edges, start=starts, t=st.sampled_from([2, 3, 7, 64]), seed=st.integers(0, 2**32 - 1))
@example(edge=(0, 0), start=None, t=3, seed=0)
@example(edge=(0, 1), start=(1.0, 1e-17), t=3, seed=1)
@example(edge=(1, -1), start=None, t=2, seed=2)
@example(edge=(1, 0), start=(-3.5, 0.0), t=4, seed=3)
@example(edge=(1, 1), start=None, t=7, seed=4)
def test_blocked_passes_match_the_whole_array_formulas(table, block, edge, start, t, seed):
    block = block or primes.BLOCK
    k, r = edge
    if block == SMALL_BLOCK:
        k *= 60  # up to 240 edges in one pass
    n = _length(block, k, r)
    rng = np.random.default_rng(seed)
    with patch.object(primes, "BLOCK", block):
        ps = table.primes[:n]
        assert _same_bits(primes.libm_map(math.log, ps), _libm_map_whole(math.log, ps))
        xs = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        state, whole_state = (list(start), list(start)) if start else (None, None)
        assert _same_bits(
            primes.compensated_prefix(xs, state), _compensated_whole(xs, whole_state)
        )
        assert _same_bits(state or [], whole_state or [])
        walk = primes.prefix_blocks(table.primes[:n], partial(primorial.psi_ratio_logs, t=t))
        assert _same_bits(
            np.concatenate([[0.0], *(sums for _, _, sums in walk)]),
            _log_psi_ratio_whole(table, t, n),
        )
        # the screened columns: n points from n_min, n_min itself off any edge
        n_min = CRITERION_FLOOR + int(rng.integers(0, 2 * min(block, 512)))
        n_max = n_min + n - 1
        want = _log_substitution_whole(table, n_min, n_max)
        got = _joined(bounds._log_substitution_blocks(table, n_min, n_max), len(want))
        assert all(map(_same_bits, got, want))
        want = _psi_ratio_whole(table, t, n_min, n_max)
        got = _joined(bounds._psi_ratio_blocks(t, table, n_min, n_max), len(want))
        assert all(map(_same_bits, got, want))


def _sweep_whole(columns, recheck):
    """The sweep over whole columns: one estimate and beta array per column,
    margins kept in a column-long array, taken rounds as masks, recheck(key,
    i) the 60-digit value of each margin in the band.  Returns the
    (worst, where, rechecked, points) the blocked sweep must give, and the
    indices each round took."""
    worst, worst_at, points, rechecked, rounds = math.inf, "", 0, 0, []
    for key, est, beta, build in columns:
        lo = est - beta
        take = np.abs(est) <= bounds.PRECISION_BAND + beta
        take |= (lo < worst) & (lo <= np.min(est + beta, initial=math.inf))
        taken = take.copy()
        margins = np.full(est.size, math.inf)
        while take.any():
            idx = np.flatnonzero(take)
            rounds.append((key, idx.tolist()))
            margins[idx] = build(idx)
            band = idx[np.abs(margins[idx]) <= bounds.PRECISION_BAND].tolist()
            for i in band:
                margins[i] = recheck(key, i)
            rechecked += len(band)
            take = ~taken & (lo <= np.min(margins, initial=math.inf)) & (lo < worst)
            taken |= take
        if margins.size:
            i = int(np.argmin(margins))
            if margins[i] < worst:
                worst, worst_at = float(margins[i]), f"{key}:{i}"
        points += margins.size
    return (worst, worst_at, rechecked, points), rounds


# values on a coarse grid, so that ties, zeros and band hits are common
grid = st.integers(-8, 8).map(lambda k: k / 4)
sweep_columns = st.lists(
    st.integers(0, 30).flatmap(lambda n: st.tuples(
        st.lists(grid, min_size=n, max_size=n),  # estimates
        st.lists(st.sampled_from([0.0, 1e-10, 0.25, 1.0]), min_size=n, max_size=n),  # beta
        st.lists(grid, min_size=n, max_size=n),  # margins, inside beta or not
        st.lists(grid, min_size=n, max_size=n),  # what a recheck gives
        st.lists(st.integers(1, 7), min_size=1, max_size=8),  # block lengths, cycled
    )),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(sweep_columns)
@example([([0.0, 1.0, 2.0], [0.5, 0.25, 0.25], [0.0, 1.0, 2.0], [1.25, 0.0, 0.0], [1])])
@example([([1.0, 2.0, 0.5, 2.0], [0.25, 0.0, 0.0, 0.0], [1.0, 2.0, 0.5, 2.0], [0.0] * 4, [2])])
def test_blocked_sweep_takes_what_the_whole_column_sweep_takes(columns):
    # the same margins taken in the same rounds, the same rechecks and the same
    # first worst point, whether or not the screen's beta holds
    rechecks = {key: np.array(col[3]) for key, col in enumerate(columns)}

    def value(key, i):
        return float(rechecks[key][i])

    def recheck(key, i):
        return (value(key, i),)

    whole, blocked, rounds, keys = [], [], [], {}
    for key, (est, beta, margins, _, lengths) in enumerate(columns):
        est, beta, margins = np.array(est), np.array(beta), np.array(margins)
        whole.append((key, est, beta, lambda idx, m=margins: m[idx].copy()))
        cuts = np.cumsum([0, *(lengths * (1 + est.size // sum(lengths)))])
        cuts = [int(c) for c in cuts if c < est.size] + [est.size]
        index = np.arange(est.size)

        def screen(est=est, beta=beta, cuts=cuts, margins=margins, index=index):
            return [
                (a, est[a:b], beta[a:b], (margins[a:b], index[a:b]))
                for a, b in zip(cuts, cuts[1:])
            ]

        def formula(m, margin, i=None):  # a margin, or at 60 digits its recheck
            return margin

        keys[formula] = key
        blocked.append((key, screen, formula))

    real_libm = bounds._libm

    def libm(formula, margins, index):
        rounds.append((keys[formula], index.tolist()))
        return real_libm(formula, margins, index)

    with patch.object(bounds, "_libm", libm):
        result = bounds._sweep("synthetic", blocked, recheck, lambda key, i: f"{key}:{i}")
    want, want_rounds = _sweep_whole(whole, value)
    assert (result.worst_margin, result.worst_at, result.rechecked, result.points) == want
    assert rounds == want_rounds
