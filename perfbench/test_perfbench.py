"""Tests of the benchmark itself: output checks, seed-to-input mapping, tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
from types import SimpleNamespace

import pytest

import layers
import spec

HERE = os.path.dirname(os.path.abspath(__file__))


def _failed(checks):
    return [label for label, ok in checks if not ok]


def _table1_csv(rows=spec.EXPECTED_CROSSOVERS, margin="1e-10"):
    lines = [",".join(spec.TABLE1_HEADER)]
    lines += [f"{t},{n1},{p},{mant},{exp10},{margin}" for t, n1, p, mant, exp10 in rows]
    return "\n".join(lines) + "\n"


def _sweeps_csv(n_max=spec.SWEEPS_N_MAX, t_max=spec.SWEEPS_T_MAX, status="PASS", points=None):
    lines = [",".join(spec.SWEEPS_HEADER)]
    for name, count in spec.expected_sweep_points(n_max, t_max).items():
        lines.append(f"{name},{points or count},0.1,n=1,0,{status}")
    return "\n".join(lines) + "\n"


def test_crossover_check_accepts_known_table():
    checks = spec.check_crossover(0, _table1_csv())
    assert len(checks) == 3 + 3 * len(spec.EXPECTED_CROSSOVERS)
    assert _failed(checks) == []


@pytest.mark.parametrize(
    "code, text",
    [
        (0, _table1_csv([(8, 1055641, 16408319, 2.76, 7123574)] + list(spec.EXPECTED_CROSSOVERS[:-1]))),
        (0, _table1_csv(list(spec.EXPECTED_CROSSOVERS[:-1]) + [(8, 1055642, 16408319, 2.9, 7123574)])),
        (0, _table1_csv(list(spec.EXPECTED_CROSSOVERS[:-1]))),
        (0, _table1_csv(margin="-6e-11")),
        (2, _table1_csv()),
        (0, ""),
    ],
    ids=["wrong-n1", "mantissa-off", "missing-t8", "negative-margin", "exit-2", "no-output"],
)
def test_crossover_check_rejects_corruption(code, text):
    assert _failed(spec.check_crossover(code, text))


def test_scan_check():
    header = ",".join(spec.SCAN_HEADER) + "\n"
    assert _failed(spec.check_scan(0, header)) == []
    assert _failed(spec.check_scan(0, header + "5041,12000,11999.5,-0.5\n"))
    assert _failed(spec.check_scan(1, header))


def _report(**changes):
    fields = {"passed": True, "witness": None, "max_violator": 5040}
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_tfree_check():
    good = [_report(), _report()]
    assert _failed(spec.check_tfree(good, spec.EXPECTED_CHAMPIONS)) == []
    for bad in (_report(passed=False), _report(witness=5041), _report(max_violator=10080)):
        assert _failed(spec.check_tfree([_report(), bad], spec.EXPECTED_CHAMPIONS))
    assert _failed(spec.check_tfree(good[:1], spec.EXPECTED_CHAMPIONS))
    assert _failed(spec.check_tfree(good, spec.EXPECTED_CHAMPIONS + [9699690]))


def test_sweeps_check():
    n_max = spec.inputs("sweeps", 7)["n_max"]
    assert _failed(spec.check_sweeps(0, _sweeps_csv(n_max), n_max, spec.SWEEPS_T_MAX)) == []
    assert _failed(spec.check_sweeps(0, _sweeps_csv(n_max, status="FAIL"), n_max, spec.SWEEPS_T_MAX))
    assert _failed(spec.check_sweeps(0, _sweeps_csv(n_max, points=7), n_max, spec.SWEEPS_T_MAX))
    assert _failed(spec.check_sweeps(0, _sweeps_csv(spec.SWEEPS_N_MAX), n_max, spec.SWEEPS_T_MAX))
    assert _failed(spec.check_sweeps(1, _sweeps_csv(n_max), n_max, spec.SWEEPS_T_MAX))
    truncated = "\n".join(_sweeps_csv(n_max).splitlines()[:-1]) + "\n"
    assert _failed(spec.check_sweeps(0, truncated, n_max, spec.SWEEPS_T_MAX))


def test_sweep_formulas_match_acceptance_scale():
    points = spec.expected_sweep_points(10**5, 10)
    assert points["zeta_tail_product"] == 9 * (10**4 - 1)
    assert points["log_substitution"] == 10**5 - 2263 + 1
    assert points["psi_ratio_bound"] == 5 * (10**5 - 2263 + 1)
    assert points["mertens_product"] >= 500


def test_seed_zero_is_acceptance_scale():
    assert spec.inputs("scan", 0) == {"start": 5041, "stop": 10**7}
    assert spec.inputs("tfree", 0) == {"table_limit": 1_310_000, "limit": 10**6}
    assert spec.inputs("sweeps", 0) == {"n_max": 10**5, "t_max": 10}
    assert spec.inputs("crossover", 0) == {"t_min": 3, "t_max": 8}


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_seed_mapping_is_deterministic_and_within_five_percent(workload):
    base = spec.inputs(workload, 0)
    for seed in range(1, 200):
        got = spec.inputs(workload, seed)
        assert got == spec.inputs(workload, seed)
        assert got.keys() == base.keys()
        for key, value in got.items():
            assert base[key] <= value <= base[key] * 1.05
    if workload == "crossover":
        assert all(spec.inputs(workload, s) == base for s in range(200))
    else:
        assert len({tuple(spec.inputs(workload, s).values()) for s in range(1, 50)}) > 40


def test_unknown_workload():
    with pytest.raises(ValueError):
        spec.inputs("nope", 0)


def test_per_layer_units_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == layers.PER_LAYER_UNITS


def test_metrics_from_spans():
    tracer = layers.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["primes.build_table", 1.0, 4.0, 0, 2**17],
        ["bounds.zeta", 2.0, 3.0, 1, 0],
        ["primes.build_table", 5.0, 6.0, 0, 2**19],
        ["tabular.emit", 9.0, 9.5, 0, 0],
    ]
    m = tracer.metrics()
    assert m["cli.self_s"] == 10.0 - 3.0 - 1.0 - 0.5
    assert m["primes.build_table_s"] == 4.0
    assert m["primes.build_table_calls"] == 2
    assert m["primes.sieve_limit"] == 2**19
    assert m["primes.regrow_waste"] == pytest.approx(0.2)
    assert m["bounds.zeta_s"] == 1.0


@pytest.mark.parametrize("track_alloc", [False, True])
def test_tracer_wraps_and_restores_robinpsi(track_alloc, capsys):
    robinpsi = pytest.importorskip("robinpsi")
    import robinpsi.cli

    original = robinpsi.primes.build_table
    tracer = layers.Tracer(track_alloc=track_alloc)
    tracer.install(robinpsi)
    assert robinpsi.build_table is not original
    try:
        assert robinpsi.cli.main(["table1", "--t-min", "3", "--t-max", "4"]) == 0
    finally:
        tracer.uninstall()
    assert robinpsi.build_table is original and robinpsi.cli.build_table is original
    assert robinpsi.bounds.mpmath is robinpsi.robin.mpmath
    assert capsys.readouterr().out.startswith("t,n1,")
    m = tracer.metrics()
    assert set(m) | {"robin.segment_s", "proc.cpu_s", "proc.wall_s", "trace.overhead_s"} == set(layers.PER_LAYER_UNITS)
    assert tracer.spans[0][0] == "cli.main"
    assert 0 < m["cli.self_s"] < tracer.spans[0][2] - tracer.spans[0][1]
    assert m["primes.build_table_calls"] >= 1
    assert (m["primes.peak_alloc_mb"] > 0) == track_alloc


def test_tracer_skips_boundaries_the_package_no_longer_has(monkeypatch, capsys):
    robinpsi = pytest.importorskip("robinpsi")
    import robinpsi.cli

    monkeypatch.delattr(robinpsi.primorial, "cursor_advance")
    monkeypatch.delattr(robinpsi, "cursor_advance")
    tracer = layers.Tracer()
    tracer.install(robinpsi)
    try:
        assert robinpsi.cli.main(["table1", "--t-min", "3", "--t-max", "3"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.metrics()["primorial.cursor_steps"] == 0
    assert capsys.readouterr().out.startswith("t,n1,")


def test_normalised_scales_by_the_reference_loops_around_it(monkeypatch):
    import run

    runner = run.Runner("sweeps", 0)
    runner.last_reference = run.REFERENCE_NOMINAL_S
    monkeypatch.setattr(run, "reference_seconds", lambda: 3 * run.REFERENCE_NOMINAL_S)
    # the loop ran twice as slow on average, so the host was: halve the time
    assert runner.normalised(4.0) == pytest.approx(2.0)
    assert runner.last_reference == 3 * run.REFERENCE_NOMINAL_S
    assert runner.normalised(4.0) == pytest.approx(4.0 / 3)
