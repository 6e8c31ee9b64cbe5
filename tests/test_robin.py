"""Divisor-sum scans against an additive sieve oracle, plus the theorem pipeline."""

import math
import random

import pytest

from robinpsi import (
    CoverageError,
    ResourceError,
    build_table,
    robin_scan,
    verify_tfree_robin,
)
from robinpsi import robin
from robinpsi.bounds import EXP_GAMMA
from robinpsi.multiplicative import factorize, prime_power_events, sigma
from robinpsi.robin import VERDICT_FIELDS, violators_to_rows
from robinpsi.tabular import rows_to_csv, rows_to_json

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
    # the scanner splits at multiples of 2^22; sigma must stay exact there
    edge = 1 << 22
    lo, hi = edge - 5, edge + 5
    fold = robin._RobinFold()
    fold.open(lo, hi)
    for event in prime_power_events(lo, hi, small_table.primes.tolist()):
        fold.add(*event)
    block = fold.sig
    for i, n in enumerate(range(lo, hi)):
        sig, m, d = 0, n, 1
        while d * d <= m:
            if m % d == 0:
                sig += d + (m // d if d != m // d else 0)
            d += 1
        assert block[i] == sig


def test_serialization_golden(small_table):
    found = robin_scan(3, 10, small_table)
    csv_text = rows_to_csv(violators_to_rows(found), VERDICT_FIELDS)
    lines = csv_text.splitlines()
    assert lines[0] == "n,sigma,threshold,margin"
    assert lines[1].startswith("3,4,0.50251797522")
    json_text = rows_to_json(violators_to_rows(found), VERDICT_FIELDS)
    assert '"n": 3' in json_text
    assert json_text.endswith("\n")
    assert rows_to_csv(violators_to_rows([]), VERDICT_FIELDS) == "n,sigma,threshold,margin\n"
    assert rows_to_json(violators_to_rows([]), VERDICT_FIELDS) == "[]\n"


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
    recheck = robin._ratio_margin_mp
    calls = []
    monkeypatch.setattr(robin, "_ratio_margin_mp", lambda *a: calls.append(a) or recheck(*a))
    monkeypatch.setattr(robin, "PRECISION_BAND", 10.0)
    forced = verify_tfree_robin(7, 20_000, small_table)
    assert calls == [(7, 10596, small_table)]
    assert forced.passed and plain.passed
    assert forced == plain
    margin = recheck(7, 10596, small_table)
    assert margin == pytest.approx(EXP_GAMMA - plain.ratio_at_crossover, abs=1e-12)
    assert margin > 0


def test_theorem_pipeline_domain(small_table):
    with pytest.raises(ValueError):
        verify_tfree_robin(5, 100_000, small_table)
    with pytest.raises(ValueError):
        verify_tfree_robin(7, 5000, small_table)
