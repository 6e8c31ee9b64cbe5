"""Divisor-sum scans against an additive sieve oracle, plus the theorem pipeline."""

import gc
import json
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinpsi import (
    CoverageError,
    ResourceError,
    build_table,
    champion_scan,
    psi_ratio_logs,
    robin_scan,
    verify_tfree_robin,
)
from robinpsi import cli, multiplicative, robin
from robinpsi.bounds import EXP_GAMMA
from robinpsi.multiplicative import MAX_SCAN_STOP, factorize, sigma
from robinpsi.primes import prefix_at

from conftest import factor_by_division, spy_60_digits

# every n in [3, 5040] where sigma(n) >= e^gamma n log log n, found by the
# additive oracle below and frozen here for direct comparison
CLASSICAL_VIOLATORS = [
    3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30, 36, 48, 60, 72, 84, 120,
    180, 240, 360, 720, 840, 2520, 5040,
]


def _sigma_table_oracle(limit):
    # additive divisor sieve, O(limit log limit), independent of the
    # multiplicative segmented scanner under test
    sig = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sig[m] += d
    return sig


def _verdict(n, table):
    return robin._verdict_from_sigma(n, sigma(factorize(n, table)))


def test_verdict_examples(small_table):
    v = _verdict(3, small_table)
    assert v.sigma == 4
    assert not v.holds
    assert v.threshold == pytest.approx(EXP_GAMMA * 3 * math.log(math.log(3)), rel=1e-12)

    v = _verdict(5040, small_table)
    assert v.sigma == 19344
    assert not v.holds
    # forty-digit reference 19237.06153166369786...
    assert v.threshold == pytest.approx(19237.061531663698, rel=1e-12)
    assert v.margin == pytest.approx(v.threshold - 19344, abs=1e-8)

    v = _verdict(5041, small_table)
    assert v.sigma == 5113
    assert v.holds
    assert v.margin > 0


def test_scan_matches_oracle_on_classical_range(small_table):
    found = robin_scan(3, 5040, small_table)
    assert [v.n for v in found] == CLASSICAL_VIOLATORS

    sig = _sigma_table_oracle(5040)
    oracle = [
        n
        for n in range(3, 5041)
        if sig[n] >= EXP_GAMMA * n * math.log(math.log(n))
    ]
    assert [v.n for v in found] == oracle
    for v in found:
        assert v.sigma == sig[v.n]
        assert not v.holds


def test_scan_clean_above_5040(small_table):
    assert robin_scan(5041, 200_000, small_table) == []


def test_scan_rechecks_every_point_in_the_band(small_table, monkeypatch):
    plain = robin_scan(3, 6000, small_table)
    verdict = robin._verdict_from_sigma
    seen = []
    monkeypatch.setattr(robin, "_verdict_from_sigma", lambda n, sig: seen.append(n) or verdict(n, sig))
    monkeypatch.setattr(robin, "RELATIVE_BAND", 10.0)  # every margin is within 10 n of 0
    forced = robin_scan(3, 6000, small_table)
    assert seen == list(range(3, 6001))
    assert [(v.n, v.sigma) for v in forced] == [(v.n, v.sigma) for v in plain]
    assert all(v.precision_critical and not v.holds for v in forced)


def test_scan_agrees_with_verdict_pointwise(small_table):
    rng = random.Random(5041)
    ns = [rng.randrange(3, 100_000) for _ in range(40)]
    lo, hi = min(ns), max(ns)
    flagged = {v.n for v in robin_scan(lo, hi, small_table)}
    for n in ns:
        assert (n in flagged) == (not _verdict(n, small_table).holds)


def test_scan_domain_checks(small_table):
    with pytest.raises(ValueError):
        robin_scan(2, 100, small_table)
    with pytest.raises(ValueError):
        robin_scan(50, 40, small_table)
    with pytest.raises(ResourceError):
        robin_scan(3, 10**10, small_table)
    tiny = build_table(50)
    with pytest.raises(CoverageError):
        robin_scan(3, 10_000, tiny)


def test_scan_stop_limit(small_table):
    from robinpsi.multiplicative import MAX_SCAN_STOP

    tiny = build_table(50)
    # past the limit the budget error comes first, before any coverage check
    with pytest.raises(ResourceError, match="2\\^50"):
        robin_scan(MAX_SCAN_STOP - 9, MAX_SCAN_STOP + 1, tiny)
    with pytest.raises(ResourceError):
        robin_scan(2**63 - 11, 2**63 - 1, small_table)
    with pytest.raises(CoverageError):  # the limit itself is in the domain
        robin_scan(MAX_SCAN_STOP - 9, MAX_SCAN_STOP, tiny)


def test_sigma_block_across_segment_edge(small_table):
    # a sweep from a multiple of SEGMENT_SIZE splits at the next one; on both
    # sides of that edge the window sums must bound log(sigma(n)/n), and equal
    # it where n has no prime factor above the cap
    edge = 2 * multiplicative.SEGMENT_SIZE
    bounds = {}
    weights = robin._sigma_weight, robin._sigma_total
    for lo, acc, gap in multiplicative.sweep(edge // 2, edge + 4, small_table, *weights):
        root = math.isqrt(lo + acc.size - 1)
        assert root > multiplicative.MARK_CAP  # every prime up to the cap is marked
        for n in range(max(lo, edge - 5), min(lo + acc.size, edge + 5)):
            bounds[n] = float(acc[n - lo]), gap
    assert sorted(bounds) == list(range(edge - 5, edge + 5))
    for n, (low, gap) in bounds.items():
        sig, m, d = 0, n, 1
        while d * d <= m:
            if m % d == 0:
                sig += d + (m // d if d != m // d else 0)
            d += 1
        exact = math.log(Fraction(sig, n))
        large = factor_by_division(n)[-1][0] > multiplicative.MARK_CAP
        assert low - 1e-13 <= exact <= low + (gap if large else 0.0) + 1e-13


def _flagged_by_full_window(lo, hi, sig):
    """The n >= 3 of the window [lo, hi) whose margin from exact sigma the
    verdicts would flag: at or below 0, or within the band."""
    first = max(lo, 3)
    ns = np.arange(first, hi, dtype=np.float64)
    margins = EXP_GAMMA * ns
    margins *= np.log(np.log(ns))
    margins -= sig[first - lo :]
    flagged = (margins <= 0.0) | (np.abs(margins) < ns * robin.RELATIVE_BAND)
    return [first + i for i in np.flatnonzero(flagged).tolist()]


@st.composite
def robin_windows(draw):
    """A window and its sigma values, each a relative step from the line
    e^gamma n log log n, many of them inside or at the edge of any band."""
    lo = draw(
        st.one_of(
            st.integers(3, 10),
            st.integers(5040 - 200, 5040 + 100),
            st.integers(10**6 - 200, 10**6 + 200),
            st.integers(MAX_SCAN_STOP - 1000, MAX_SCAN_STOP - 64),
        )
    )
    hi = lo + draw(st.integers(1, 64))
    steps = st.one_of(
        st.sampled_from([-0.5, -1e-3, -3e-9, -2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 1e-3]),
        st.floats(-0.9, 0.2),
    )
    line = [EXP_GAMMA * n * math.log(math.log(n)) for n in range(lo, hi)]
    return lo, hi, np.array([max(1, int(x * (1 + draw(steps)))) for x in line], dtype=np.int64)


@settings(max_examples=120, deadline=None)
@given(
    robin_windows(),
    st.sampled_from([1e-9, 1e-3, 10.0]),
    st.sampled_from([0.0, 1e-12, 1e-3]),
    st.sampled_from([4, 1024]),
)
# a window from 3 across 16 blocks of 4, where log log n climbs fastest
@example(window=(3, 67, np.array([max(1, int(EXP_GAMMA * n * math.log(math.log(n))))
                                   for n in range(3, 67)])),
         band=1e-9, slack=0.0, block=4)
def test_screened_close_matches_full_window_margins(window, band, slack, block):
    # from upper bounds on log(sigma(n)/n), as tight as a float allows or
    # looser by slack, the screen may pass more n to the verdicts than the
    # margins from exact sigma flag, never fewer, and the violators stay the
    # same, whether the window's floor cuts or, past a block of n kept, each
    # block's own
    lo, hi, sig = window
    upper = np.log(sig / np.arange(lo, hi, dtype=np.float64)) + slack
    verdict = robin._verdict_from_sigma
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(robin, "RELATIVE_BAND", band)
        patch.setattr(multiplicative, "SCREEN_BLOCK", block)
        flagged = _flagged_by_full_window(lo, hi, sig)
        expected = [v for v in (verdict(n, int(sig[n - lo])) for n in flagged) if not v.holds]
        patch.setattr(robin, "_verdict_from_sigma", lambda n, s: seen.append(n) or verdict(n, s))
        patch.setattr(robin, "factorize", lambda n, table: n)
        patch.setattr(robin, "sigma", lambda n: int(sig[n - lo]))
        violators = robin._window_violators(lo, upper, None)
    assert set(flagged) <= set(seen)
    assert violators == expected


@pytest.mark.parametrize(
    "scan",
    [
        lambda table: robin_scan(5041, 2_000_000, table),
        lambda table: robin_scan(3, 2_000_000, table),
        lambda table: champion_scan(2_000_000, 2),
    ],
    ids=["robin_scan", "robin_scan_from_3", "champion_scan"],
)
def test_sweep_memory_stays_window_sized(table, scan, monkeypatch):
    # every temporary of a sweep is a window's, so its peak is a few 8-byte
    # arrays of SEGMENT_SIZE integers however long the range is; a window's
    # arrays must be freed before the next window is summed.  The peak is
    # read again from the moment the KernelPlan is formed, without its
    # untouched heap block: each scan works within 3 windows, as a screen
    # whose window floor keeps every n, as in a first window, cuts each
    # block at its own floor and forms no window-sized index or gather.
    peaks = []

    class Plan(multiplicative.KernelPlan):
        def __init__(self, *args):
            super().__init__(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

    monkeypatch.setattr(multiplicative, "KernelPlan", Plan)
    tracemalloc.start()
    try:
        scan(table)
        after_plan = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = multiplicative.SEGMENT_SIZE * 8
    assert len(peaks) == 1
    assert max(peaks[0], after_plan) < 6 * window
    assert after_plan < 3 * window


def test_serialization_golden(small_table, capsys):
    # robin-scan prints one row (n, sigma, threshold, margin) per violator
    found = robin_scan(3, 10, small_table)
    assert cli.main(["robin-scan", "--from", "3", "--to", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,sigma,threshold,margin"
    assert lines[1].startswith("3,4,0.50251797522")
    assert lines[1:] == [f"{v.n},{v.sigma},{v.threshold:.12g},{v.margin:.12g}" for v in found]
    assert cli.main(["robin-scan", "--from", "3", "--to", "10", "--format", "json"]) == 0
    json_text = capsys.readouterr().out
    assert '"n": 3' in json_text
    assert json_text.endswith("\n")
    assert [(r["n"], r["sigma"]) for r in json.loads(json_text)] == [(v.n, v.sigma) for v in found]
    assert cli.main(["robin-scan", "--from", "5041", "--to", "5100"]) == 0
    assert capsys.readouterr().out == "n,sigma,threshold,margin\n"
    assert cli.main(["robin-scan", "--from", "5041", "--to", "5100", "--format", "json"]) == 0
    assert capsys.readouterr().out == "[]\n"


@pytest.mark.parametrize("t", [6, 7])
def test_theorem_pipeline_reduced(small_table, t):
    report = verify_tfree_robin(t, 100_000, small_table)
    assert report.passed
    assert report.witness is None
    assert report.tfree_violators_above_5040 == ()
    assert report.max_violator == 5040
    assert report.violators_found == len(CLASSICAL_VIOLATORS)
    assert report.ratio_at_crossover < EXP_GAMMA
    assert report.bridge.passed
    if t == 7:
        assert report.crossover_index == 10596


def test_theorem_pipeline_rechecks_the_ratio_in_the_band(small_table, monkeypatch):
    plain = verify_tfree_robin(7, 20_000, small_table)
    calls = spy_60_digits(monkeypatch, robin)
    monkeypatch.setattr(robin, "PRECISION_BAND", 10.0)
    forced = verify_tfree_robin(7, 20_000, small_table)
    # one recheck, of (log psi_7(N_n)/N_n, log N_n) at n = 10596
    ((_, inputs, margin),) = calls
    assert tuple(map(float, inputs)) == (
        pytest.approx(prefix_at(small_table.primes, partial(psi_ratio_logs, t=7), [10596])[0],
                      abs=1e-12),
        pytest.approx(small_table.theta_upto(len(small_table))[10596]),
    )
    assert forced.passed and plain.passed
    assert forced == plain
    assert margin == pytest.approx(EXP_GAMMA - plain.ratio_at_crossover, abs=1e-12)
    assert margin > 0


def test_theorem_pipeline_keeps_one_scan_per_table_and_limit(small_table, monkeypatch):
    # branch (a) does not depend on t: the scan of a table and limit runs
    # once, and is let go with its table
    scans = []
    scan = robin.robin_scan
    monkeypatch.setattr(robin, "robin_scan", lambda *args: scans.append(args) or scan(*args))
    table, other = build_table(small_table.limit), build_table(small_table.limit)
    first = [verify_tfree_robin(t, 20_000, table) for t in (6, 7)]
    assert scans == [(3, 20_000, table)]
    assert verify_tfree_robin(6, 30_000, table).passed
    assert [verify_tfree_robin(t, 20_000, other) for t in (6, 7)] == first
    assert scans == [(3, 20_000, table), (3, 30_000, table), (3, 20_000, other)]
    kept = len(robin._SCANS)
    gone = weakref.ref(other)
    del other, scans[:]
    gc.collect()
    assert gone() is None
    assert len(robin._SCANS) == kept - 1
    assert sorted(robin._SCANS[table]) == [20_000, 30_000]


def test_theorem_pipeline_domain(small_table):
    with pytest.raises(ValueError):
        verify_tfree_robin(5, 100_000, small_table)
    with pytest.raises(ValueError):
        verify_tfree_robin(7, 5000, small_table)
