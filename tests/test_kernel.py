"""Differential checks of the prime-power peeling kernel and its folds
against per-integer factorize, sigma and psi_over_n."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinpsi import champion_scan, reduction_check, robin_scan, verify_sigma_le_psi
from robinpsi import multiplicative, primorial, robin
from robinpsi.multiplicative import factorize, prime_power_events, psi_over_n, sigma
from robinpsi.primorial import _log_psi_ratios
from robinpsi.robin import _sigma_segment

EDGE = 1 << 22

windows = st.tuples(
    st.one_of(
        st.integers(1, 10**9),
        st.integers(EDGE - 3000, EDGE + 10),  # windows across the segment edge
    ),
    st.integers(1, 3000),
)


def _fold_factors(lo, hi, primes):
    folded = [[] for _ in range(hi - lo)]
    for p, off, exp in prime_power_events(lo, hi, primes):
        ps = p.tolist() if isinstance(p, np.ndarray) else [p] * len(off)
        for q, i, e in zip(ps, off.tolist(), exp.tolist()):
            folded[i].append((q, e))
    return [tuple(f) for f in folded]


@settings(max_examples=60, deadline=None)
@given(windows)
def test_kernel_exponents_and_sigma(small_table, window):
    lo, width = window
    hi = lo + width
    folded = _fold_factors(lo, hi, small_table.primes)
    sig = _sigma_segment(lo, hi, small_table.primes)
    for i, n in enumerate(range(lo, hi)):
        f = factorize(n, small_table)
        assert folded[i] == f.factors
        assert int(sig[i]) == sigma(f)


@settings(max_examples=60, deadline=None)
@given(windows, st.integers(2, 64))
def test_kernel_log_ratio(small_table, window, t):
    lo, width = window
    logs = _log_psi_ratios(lo, lo + width, t, small_table.primes)
    for i, n in enumerate(range(lo, lo + width)):
        exact = math.log(psi_over_n(factorize(n, small_table), t))
        assert logs[i] == pytest.approx(exact, abs=1e-13)


def test_sweeps_agree_across_segment_boundaries(monkeypatch, small_table):
    # every range sweep carries state from one window to the next
    expected = (
        [champion_scan(20_000, t, mode) for t in (2, 5) for mode in ("strict", "weak")],
        [verify_sigma_le_psi(20_000, t) for t in (2, 3, 4)],
        robin_scan(3, 20_000, small_table),
    )
    for module in (multiplicative, primorial, robin):
        monkeypatch.setattr(module, "SEGMENT_SIZE", 997)
    got = (
        [champion_scan(20_000, t, mode) for t in (2, 5) for mode in ("strict", "weak")],
        [verify_sigma_le_psi(20_000, t) for t in (2, 3, 4)],
        robin_scan(3, 20_000, small_table),
    )
    assert got == expected
    assert reduction_check(20_000, 3)


@pytest.mark.parametrize("t", [2, 7])
def test_screens_agree_with_deciding_every_point(monkeypatch, t):
    # a band wide enough to send every n to the exact or 60-digit decision
    expected = [champion_scan(3000, t, mode) for mode in ("strict", "weak")]
    monkeypatch.setattr(primorial, "LOG_RATIO_BAND", 100.0)
    assert [champion_scan(3000, t, mode) for mode in ("strict", "weak")] == expected
    assert reduction_check(3000, t)
