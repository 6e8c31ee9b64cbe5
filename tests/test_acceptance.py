"""Acceptance gate: eight binding criteria, one test and one verdict line each.

Every check runs at its full stated range; nothing here is downscaled.
The session-scoped table fixture covers the 100000th prime, so the deep
sweeps reuse one sieve build.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from robinpsi import (
    champion_scan,
    cli,
    log_substitution_suite,
    mertens_bound_suite,
    psi_ratio_bound_suite,
    ratio_curve,
    robin_scan,
    verify_sigma_le_psi,
    verify_tfree_robin,
    zeta,
    zeta_tail_bound_suite,
)
from robinpsi.bounds import EXP_GAMMA, admissible_t

EXPECTED_CROSSOVERS = {3: 10, 4: 24, 5: 79, 6: 509, 7: 10596}
EXPECTED_MAGNITUDES = {3: (6.5, 9), 4: (2.4, 34), 5: (4.1, 163), 6: (5.8, 1551), 7: (2.5, 48337)}
EXPECTED_CHAMPIONS = [1, 2, 6, 30, 210, 2310, 30030, 510510]


def _verdict(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_crossover_table(capsys):
    code = cli.main(["table1", "--t-min", "3", "--t-max", "7"])
    out = capsys.readouterr().out
    ok = code == 0
    rows = {}
    for line in out.splitlines()[1:]:
        t, n1, p_n1, mantissa, exponent10, margin = line.split(",")
        rows[int(t)] = (int(n1), float(mantissa), int(exponent10), float(margin))
    ok = ok and {t: v[0] for t, v in rows.items()} == EXPECTED_CROSSOVERS
    for t, (mant, exp10) in EXPECTED_MAGNITUDES.items():
        n1, got_mant, got_exp, margin = rows[t]
        ok = ok and abs(got_mant - mant) <= 0.1 and got_exp == exp10 and margin > 0
    with capsys.disabled():
        _verdict(1, "crossover table reproduction", ok)


@pytest.mark.parametrize("t", [2, 3, 7])
def test_criterion_2_champions(t, capsys):
    got = champion_scan(10**6, t)
    ok = got == EXPECTED_CHAMPIONS
    with capsys.disabled():
        _verdict(2, f"strict champions to 1e6, t={t}", ok)


def test_criterion_3_robin_scan(table, capsys):
    sig = [0] * 5041
    for d in range(1, 5041):
        for m in range(d, 5041, d):
            sig[m] += d
    oracle = [
        n for n in range(3, 5041) if sig[n] >= EXP_GAMMA * n * math.log(math.log(n))
    ]
    low = robin_scan(3, 5040, table)
    high = robin_scan(5041, 10**7, table)
    ok = [v.n for v in low] == oracle
    ok = ok and all(v.sigma == sig[v.n] for v in low)
    ok = ok and max(v.n for v in low) == 5040
    ok = ok and high == []
    with capsys.disabled():
        _verdict(3, "exhaustive scan to 1e7", ok)


def _tfree_flags(limit, t):
    # flags[m] is False where some d^t > 1 divides m, that is some p^t
    flags = np.ones(limit + 1, dtype=bool)
    d = 2
    while d**t <= limit:
        flags[d**t :: d**t] = False
        d += 1
    return flags


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, 8])
def test_criterion_4_bridge_inequality(t, capsys):
    report = verify_sigma_le_psi(10**6, t)
    ok = report.passed and report.violation is None and report.equality_mismatch is None
    # equality cases are exactly the (t-1)-th powers of squarefree integers
    expected_eq = 0
    m = 1
    squarefree = _tfree_flags(10**6, 2)
    while m ** (t - 1) <= 10**6:
        if squarefree[m]:
            expected_eq += 1
        m += 1
    ok = ok and report.equalities == expected_eq
    ok = ok and report.checked == np.count_nonzero(_tfree_flags(10**6, t)[1:])
    with capsys.disabled():
        _verdict(4, f"sigma <= psi bridge at 1e6, t={t}", ok)


def test_criterion_5_bound_suites(table, capsys):
    mertens = mertens_bound_suite(table, x_cap=10**6, samples=500)
    tail = zeta_tail_bound_suite(table, ts=range(2, 11), n_max=10**4)
    logsub = log_substitution_suite(table, n_max=10**5)
    ratio = psi_ratio_bound_suite(table, ts=(3, 4, 5, 6, 7), n_max=10**5)
    ok = True
    for suite in (mertens, tail, logsub, ratio):
        ok = ok and suite.passed and not suite.skipped and suite.worst_margin > 0
    ok = ok and mertens.points >= 500
    ok = ok and tail.points == 9 * (10**4 - 1)
    ok = ok and logsub.points == 10**5 - 2263 + 1
    ok = ok and ratio.points == 5 * (10**5 - 2263 + 1)
    with capsys.disabled():
        _verdict(5, "explicit bound sweeps", ok)


def test_criterion_6_limit_convergence(table, capsys):
    ok = True
    for t in range(2, 8):
        rows = ratio_curve(table, t, 10**4)
        dev = {row[0]: row[4] for row in rows}
        ok = ok and abs(dev[10**4]) < 0.005
        ok = ok and abs(dev[10**4]) < abs(dev[10**3])
    with capsys.disabled():
        _verdict(6, "ratio converges to exp(gamma)/zeta", ok)


@pytest.mark.parametrize("t", [6, 7])
def test_criterion_7_theorem_pipeline(t, table, capsys):
    report = verify_tfree_robin(t, 10**6, table)
    ok = (
        report.passed
        and report.witness is None
        and report.tfree_violators_above_5040 == ()
        and report.max_violator == 5040
        and report.ratio_at_crossover < EXP_GAMMA
        and report.bridge.passed
    )
    with capsys.disabled():
        _verdict(7, f"t-free theorem pipeline, t={t}", ok)


def test_criterion_8_asymptotics(table, capsys):
    scaled = [zeta(t).excess * 2.0**t for t in range(4, 41)]
    ok = all(a > b > 1.0 for a, b in zip(scaled, scaled[1:]))
    ok = ok and scaled[-1] < 1.0 + 1e-6
    ladder = [admissible_t(n, table) for n in (10, 10**2, 10**3, 10**4)]
    ok = ok and ladder == [3, 5, 6, 6]
    ok = ok and all(a <= b for a, b in zip(ladder, ladder[1:]))
    with capsys.disabled():
        _verdict(8, "asymptotic scaling and admissible ladder", ok)
