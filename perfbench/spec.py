"""Workload inputs derived from a seed, their known answers, and the output checks.

Nothing here imports robinpsi, so the checks can be tested without running a
workload.  Every checker returns a list of (label, ok) pairs; each pair is one
output check counted by the benchmark's pass rate.
"""

from __future__ import annotations

import csv
import io
import random

WORKLOADS = ("crossover", "scan", "tfree", "sweeps")

# Seed 0 runs these acceptance-scale limits exactly; other seeds raise them.
SCAN_FROM = 5041
SCAN_TO = 10**7
TFREE_TABLE_LIMIT = 1_310_000
TFREE_LIMIT = 10**6
TFREE_TS = (6, 7)
CHAMPION_T = 2
SWEEPS_N_MAX = 10**5
SWEEPS_T_MAX = 10
CROSSOVER_T = (3, 8)

# A seed other than 0 raises every upper limit by k / RAISE_DENOM of itself,
# 1 <= k <= MAX_RAISE_STEPS, so by at most 5%.
RAISE_DENOM = 100_000
MAX_RAISE_STEPS = 5_000

# t, n1, p_n1, mantissa, exponent10 of table1 for t = 3..8.  n1 and the
# magnitudes for t <= 7 are those of tests/test_acceptance.py.  At t = 8 the
# criterion margin at n1 is +6.5e-11, inside the 1e-9 precision band, and the
# margin one index lower is -3.3e-10, so this row is the most fragile answer.
EXPECTED_CROSSOVERS = (
    (3, 10, 29, 6.47, 9),
    (4, 24, 89, 2.38, 34),
    (5, 79, 401, 4.08, 163),
    (6, 509, 3637, 5.80, 1551),
    (7, 10596, 111751, 2.48, 48337),
    (8, 1055642, 16408319, 2.76, 7123574),
)
MANTISSA_TOLERANCE = 0.1
TABLE1_HEADER = ["t", "n1", "p_n1", "mantissa", "exponent10", "margin"]
SCAN_HEADER = ["n", "sigma", "threshold", "margin"]
SWEEPS_HEADER = ["suite", "points", "worst_margin", "worst_at", "rechecked", "status"]
EXPECTED_CHAMPIONS = [1, 2, 6, 30, 210, 2310, 30030, 510510]
CRITERION_FLOOR = 2263
PSI_RATIO_TS = 5  # psi_ratio_bound_suite sweeps t = 3..7
MERTENS_SAMPLE_SEED = 20011
MERTENS_SAMPLES = 500
MERTENS_CAP = 10**6  # verify-bounds sieves to >= 2e6, so the grid cap stays 1e6


def raise_steps(seed: int) -> int:
    """k of the seed's raise: 0 for seed 0, else drawn from [1, MAX_RAISE_STEPS]."""
    if seed == 0:
        return 0
    return random.Random(seed).randint(1, MAX_RAISE_STEPS)


def _raised(base: int, seed: int) -> int:
    return base + base * raise_steps(seed) // RAISE_DENOM


def inputs(workload: str, seed: int) -> dict[str, int]:
    """The inputs one workload runs for one seed; the crossover t-range never moves."""
    if workload == "crossover":
        return {"t_min": CROSSOVER_T[0], "t_max": CROSSOVER_T[1]}
    if workload == "scan":
        return {"start": SCAN_FROM, "stop": _raised(SCAN_TO, seed)}
    if workload == "tfree":
        return {"table_limit": TFREE_TABLE_LIMIT, "limit": _raised(TFREE_LIMIT, seed)}
    if workload == "sweeps":
        return {"n_max": _raised(SWEEPS_N_MAX, seed), "t_max": SWEEPS_T_MAX}
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_crossover(code: int, text: str) -> list[tuple[str, bool]]:
    rows = _rows(text)
    checks = [("exit code 0", code == 0), ("table1 header", rows[:1] == [TABLE1_HEADER])]
    got = {row[0]: row for row in rows[1:] if row}
    checks.append(("one row per t", len(rows) - 1 == len(EXPECTED_CROSSOVERS)))
    for t, n1, p_n1, mant, exp10 in EXPECTED_CROSSOVERS:
        row = got.get(str(t))
        if row is None or len(row) != len(TABLE1_HEADER):
            checks += [(f"t={t} row present", False)] * 3
            continue
        try:
            exact = [int(row[1]), int(row[2]), int(row[4])] == [n1, p_n1, exp10]
            close = abs(float(row[3]) - mant) <= MANTISSA_TOLERANCE
            positive = float(row[5]) > 0.0
        except ValueError:
            exact = close = positive = False
        checks += [
            (f"t={t} n1, p_n1, exponent10", exact),
            (f"t={t} mantissa within {MANTISSA_TOLERANCE}", close),
            (f"t={t} margin > 0", positive),
        ]
    return checks


def check_scan(code: int, text: str) -> list[tuple[str, bool]]:
    rows = _rows(text)
    return [("exit code 0", code == 0), ("header and no violator rows", rows == [SCAN_HEADER])]


def check_tfree(reports, champions) -> list[tuple[str, bool]]:
    """`reports` are verify_tfree_robin reports for TFREE_TS, in that order."""
    checks = []
    for t, report in zip(TFREE_TS, reports):
        checks += [
            (f"t={t} passed", report.passed is True),
            (f"t={t} no witness", report.witness is None),
            (f"t={t} largest violator is 5040", report.max_violator == 5040),
        ]
    checks.append(("one report per t", len(reports) == len(TFREE_TS)))
    checks.append(("champions are the primorials to 510510", list(champions) == EXPECTED_CHAMPIONS))
    return checks


def mertens_points() -> int:
    """Grid size of mertens_bound_suite: powers of two plus seeded samples up to the cap."""
    xs = set()
    x = 2
    while x <= MERTENS_CAP:
        xs.add(x)
        x *= 2
    rng = random.Random(MERTENS_SAMPLE_SEED)
    xs.update(rng.randint(2, MERTENS_CAP) for _ in range(MERTENS_SAMPLES))
    return len(xs)


def expected_sweep_points(n_max: int, t_max: int) -> dict[str, int]:
    """Point counts of the four suites, by the formulas of tests/test_acceptance.py."""
    deep = n_max - CRITERION_FLOOR + 1
    return {
        "mertens_product": mertens_points(),
        "zeta_tail_product": (t_max - 1) * (min(n_max, 10**4) - 1),
        "log_substitution": deep,
        "psi_ratio_bound": PSI_RATIO_TS * deep,
    }


def check_sweeps(code: int, text: str, n_max: int, t_max: int) -> list[tuple[str, bool]]:
    rows = _rows(text)
    expected = expected_sweep_points(n_max, t_max)
    got = {row[0]: row for row in rows[1:] if row}
    checks = [
        ("exit code 0", code == 0),
        ("verify-bounds header", rows[:1] == [SWEEPS_HEADER]),
        ("one row per suite", sorted(got) == sorted(expected) and len(rows) == 5),
    ]
    for name, points in expected.items():
        row = got.get(name)
        if row is None or len(row) != len(SWEEPS_HEADER):
            row = [""] * len(SWEEPS_HEADER)
        checks += [
            (f"{name} PASS", row[-1] == "PASS"),
            (f"{name} points == {points}", row[1] == str(points)),
        ]
    return checks
