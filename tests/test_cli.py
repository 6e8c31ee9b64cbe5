"""End-to-end CLI checks: parsing, exit codes, and byte-stable output."""

import csv
import hashlib
import io
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import robinpsi
from robinpsi import bounds, build_table, cli, primorial, robin
from robinpsi.primes import PrimeTable
from robinpsi.robin import RobinVerdict

from conftest import spy_60_digits


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse-level usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_table1_matches_expected(capsys):
    code, out = _run(["table1"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    got = {int(r["t"]): int(r["n1"]) for r in rows}
    assert got == {3: 10, 4: 24, 5: 79, 6: 509, 7: 10596}
    primes = {int(r["t"]): int(r["p_n1"]) for r in rows}
    assert primes == {3: 29, 4: 89, 5: 401, 6: 3637, 7: 111751}
    for r in rows:
        assert float(r["margin"]) > 0
        assert 1.0 <= float(r["mantissa"]) < 10.0


def test_table1_magnitudes(capsys):
    code, out = _run(["table1", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    by_t = {r["t"]: r for r in rows}
    assert by_t[3]["exponent10"] == 9
    assert by_t[3]["mantissa"] == pytest.approx(6.4697, abs=0.01)
    assert by_t[7]["exponent10"] == 48337
    assert by_t[7]["mantissa"] == pytest.approx(2.4773, abs=0.01)
    assert [type(r["p_n1"]) for r in rows] == [int] * 5
    # p_n read from the prime table is printed as a JSON integer
    code, out = _run(["admissible-t", "--n", "2", "2263", "--format", "json"], capsys)
    assert code == 0
    assert [(r["n"], r["p_n"], type(r["p_n"])) for r in json.loads(out)] == [
        (2, 3, int), (2263, 20011, int)
    ]
    code, out = _run(["ratio", "--t", "3", "--n-max", "5", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [(r["p_n"], type(r["p_n"])) for r in rows] == [(p, int) for p in (3, 5, 7, 11)]


def test_table1_floor_mode(capsys):
    code, out = _run(["table1", "--t-min", "3", "--t-max", "3", "--floor-n0"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert int(rows[0]["n1"]) >= 2263


def test_table1_usage_error(capsys):
    code, _ = _run(["table1", "--t-min", "1"], capsys)
    assert code == 64
    code, _ = _run(["table1", "--t-min", "5", "--t-max", "3"], capsys)
    assert code == 64
    code, _ = _run(["table1", "--sieve-cap", "1"], capsys)
    assert code == 64


def test_table1_sieve_cap_exhaustion(capsys):
    # over a range of t the first t past the cap ends the run, and no
    # partial table is written
    argv = ["table1", "--t-min", "3", "--t-max", "7", "--sieve-cap", "1024"]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "robinpsi: criterion for t=6 unsatisfied through index 172; enlarge the sieve\n"
    )


def test_table1_sieve_cap_bounds_the_default_start(capsys):
    # the 309 primes to 2048 end before n1(7) = 10596
    assert cli.main(["table1", "--t-min", "7", "--t-max", "7", "--sieve-cap", "2048"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "robinpsi: criterion for t=7 unsatisfied through index 309; enlarge the sieve\n"
    )


def test_table1_sieve_cap_just_past_the_crossover(capsys):
    # the 109 primes to 600 reach n1(3) = 10: nothing past n1 is read
    code, out = _run(["table1", "--t-min", "3", "--t-max", "3", "--sieve-cap", "600"], capsys)
    _, default = _run(["table1"], capsys)
    assert code == 0
    assert out.splitlines() == default.splitlines()[:2]


def test_table1_sieve_limit_is_unrecognised(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table1", "--sieve-limit", "1000"])
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (64, "")
    assert out.err == "robinpsi: error: unrecognized arguments: --sieve-limit 1000\n"


T8_ROW = "8,1055642,16408319,2.75811932927,7123574,6.46222372488e-11\n"


@pytest.mark.parametrize(
    "argv,code,out",
    [
        (["--t-min", "3", "--t-max", "7"], 0, None),
        (["--t-min", "8", "--t-max", "8"], 0, "t,n1,p_n1,mantissa,exponent10,margin\n" + T8_ROW),
        (["--t-min", "3", "--t-max", "8", "--floor-n0"], 0, None),
        (["--t-min", "7", "--t-max", "7", "--sieve-cap", "2048"], 2, None),
    ],
    ids=["t3-7", "t8", "t3-8-floored", "cap-2048"],
)
def test_table1_sieves_once(argv, code, out, capsys, monkeypatch):
    limits = []

    def spy(limit):
        limits.append(limit)
        return build_table(limit)

    monkeypatch.setattr(cli, "build_table", spy)
    got_code, got_out = _run(["table1", *argv], capsys)
    assert (got_code, len(limits)) == (code, 1)
    if out is not None:
        assert got_out == out


def test_champions_output(capsys):
    code, out = _run(["champions", "--limit", "100", "--t", "2"], capsys)
    assert code == 0
    assert out == "m,ratio\n1,1/1\n2,3/2\n6,2/1\n30,12/5\n"


def test_champions_weak(capsys):
    code, out = _run(["champions", "--limit", "12", "--t", "2", "--weak"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert [int(r["m"]) for r in rows] == [1, 2, 4, 6, 12]


def test_champions_trivial_limit(capsys):
    code, out = _run(["champions", "--limit", "1", "--t", "5"], capsys)
    assert code == 0
    assert _csv_rows(out) == [{"m": "1", "ratio": "1/1"}]


def test_robin_scan_classical_window(capsys):
    code, out = _run(["robin-scan", "--from", "3", "--to", "6000"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert len(rows) == 26
    assert rows[-1]["n"] == "5040"


def test_robin_scan_empty_above(capsys):
    code, out = _run(["robin-scan", "--from", "5041", "--to", "100000"], capsys)
    assert code == 0
    assert _csv_rows(out) == []


def test_robin_scan_usage(capsys):
    code, _ = _run(["robin-scan", "--from", "2", "--to", "100"], capsys)
    assert code == 64


def test_robin_scan_falsification_exit(capsys, monkeypatch):
    fake = RobinVerdict(
        n=5042, sigma=99999, threshold=1.0, holds=False, margin=-1.0, precision_critical=False
    )
    monkeypatch.setattr(robin, "robin_scan", lambda *a, **k: [fake])
    code, out = _run(["robin-scan", "--from", "5041", "--to", "6000"], capsys)
    assert code == 1
    assert _csv_rows(out)[0]["n"] == "5042"


def test_robin_scan_stop_limit(capsys):
    # a window near 2^63 would first sieve primes to 3e9; the limit check
    # comes before the sieve, so the exit is immediate
    start = time.perf_counter()
    code, out = _run(["robin-scan", "--from", str(2**63 - 11), "--to", str(2**63 - 1)], capsys)
    assert code == 2
    assert out == ""
    assert time.perf_counter() - start < 1.0


def test_champions_stop_limit(capsys):
    # the guard comes before champion_scan sieves to sqrt(limit) = 3e9
    start = time.perf_counter()
    code = cli.main(["champions", "--limit", str(10**19), "--t", "2"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert f"sweep stop {10**19} exceeds the limit 2^50" in out.err
    assert out.err.endswith("; lower --limit\n")
    assert "sigma" not in out.err  # champions forms no sigma
    assert elapsed < 1.0


def test_robin_scan_below_limit(capsys):
    code, out = _run(["robin-scan", "--from", str(10**14 - 10), "--to", str(10**14)], capsys)
    assert code == 0
    assert _csv_rows(out) == []


def test_ratio_curve_output(capsys):
    code, out = _run(["ratio", "--t", "7", "--n-max", "10596"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert len(rows) == 10595
    last = rows[-1]
    assert int(last["n"]) == 10596
    assert float(last["ratio"]) < 1.78107
    # pins every byte of the curve, which rests on the compensated prefix sums
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "c7cd3c1425259cc3f82a9f42a3e6f2a62c0c2108444d480431963c20d4c8b114"


@pytest.mark.parametrize(
    "t,digest",
    [
        ("2", "73d3d1a918aff93480846a0fce23dbf65ab3eab9587949f4b002ecd669f5b350"),
        ("4", "474f9eaf591cd539988db018096f396c3351d89f3e01eb41bcd7b1af81a89cbf"),
    ],
)
def test_ratio_golden(capsys, t, digest):
    # every row is printed to 12 digits, so these pin the bits of each psi_t term,
    # including those at t = 2 and 4 that only the exact fallback rounds right
    code, out = _run(["ratio", "--t", t, "--n-max", "20000"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ratio_usage(capsys):
    code, _ = _run(["ratio", "--t", "2", "--n-max", "1"], capsys)
    assert code == 64


@pytest.mark.parametrize(
    "argv,option",
    [
        (["verify-bounds", "--n-max", "100000000", "--t-max", "3"], "--n-max"),
        (["ratio", "--t", "3", "--n-max", "100000000"], "--n-max"),
        (["admissible-t", "--n", "9", "100000000"], "--n"),
    ],
    ids=["verify-bounds", "ratio", "admissible-t"],
)
def test_index_commands_budget(capsys, argv, option):
    # the index is checked against the sieve budget before any sieving, and
    # the hint names the one option of the command that sets it
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == (
        "robinpsi: index 100000000 needs primes to 2133415489, past the sieve "
        f"budget 2^25 = 33554432; lower {option}\n"
    )
    assert elapsed < 1.0


def test_verify_bounds_reduced(capsys):
    code, out = _run(["verify-bounds", "--n-max", "2000", "--t-max", "4"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    status = {r["suite"]: r["status"] for r in rows}
    assert status["mertens_product"] == "PASS"
    assert status["zeta_tail_product"] == "PASS"
    assert status["log_substitution"] == "SKIPPED"
    assert status["psi_ratio_bound"] == "SKIPPED"


def test_verify_bounds_full_floor(capsys):
    code, out = _run(["verify-bounds", "--n-max", "2300", "--t-max", "4"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    status = {r["suite"]: r["status"] for r in rows}
    assert status["log_substitution"] == "PASS"
    assert status["psi_ratio_bound"] == "PASS"
    for r in rows:
        if r["status"] == "PASS":
            assert float(r["worst_margin"]) > 0


def _readme_example(command):
    """The output lines under `$ robinpsi <command>` in the README's example block."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split(f"$ robinpsi {command}\n", 1)[1]
    return block.split("```", 1)[0]


def test_verify_bounds_golden(capsys):
    # pins every digit of the worst margins, as the README shows them
    code, out = _run(["verify-bounds", "--n-max", "100000", "--t-max", "10"], capsys)
    assert code == 0
    assert out == _readme_example("verify-bounds --n-max 100000 --t-max 10")


def test_verify_bounds_golden_without_numpy_libm(capsys, monkeypatch):
    # both canaries failed: log1p and pow go back to the Python map of math,
    # and every digit stays the same
    monkeypatch.setattr("robinpsi.primes._TWIN_VERDICTS", {math.log1p: False, math.pow: False})
    code, out = _run(["verify-bounds", "--n-max", "100000", "--t-max", "10"], capsys)
    assert code == 0
    assert out == _readme_example("verify-bounds --n-max 100000 --t-max 10")


def test_table1_golden_without_clog(capsys, monkeypatch):
    # the canary of clog failed: theta goes back to the Python map of
    # math.log over the primes to p_n1(8), and every byte stays the same
    monkeypatch.setattr("robinpsi.primes._TWIN_VERDICTS", {math.log: False})
    code, out = _run(["table1", "--t-min", "3", "--t-max", "8"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "6b6b9b136ddbbe91eb12ba024e415da3e9bb2eae479f17a2fcdb86d3d9cd14c1"


def test_verify_bounds_golden_at_the_largest_index():
    # the largest --n-max the sieve budget accepts, with every t: the suites'
    # columns cross about 119 block edges each; a fresh interpreter, so the
    # table of primes to 3.4e7 is not kept here
    run = _robinpsi(["verify-bounds", "--n-max", "1950000", "--t-max", "64"])
    out, err = run.communicate(timeout=300)
    assert (run.returncode, err) == (0, "")
    assert out.splitlines()[-1] == 'psi_ratio_bound,9738690,0.096030168603,"t=3,n=1950000",0,PASS'
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "7bd0bf5cb2fdf77c3d0467876bd3275b5b80fe5d51a11f788b53aa1f4d151481"


def test_verify_bounds_builds_one_libm_column_per_suite(capsys, monkeypatch, built_columns):
    # the floors leave zeta tail t = 3..10 and psi ratio t = 4..7 unscreened:
    # one block of zeta tail t = 2 and the 7 blocks of psi ratio t = 3 that
    # reach n = 2263 are screened.  Each screen reads the libm sums its
    # margins take, so every one of the first 100000 primes reaches the psi
    # ratio terms exactly once, at t = 3, the zeta tail forms its t = 2 libm
    # terms once, and the numpy log_terms never run
    screens, terms, tails, numpy_terms = [], [], [], []
    zeta_tail, psi_ratio, psi_terms, tail_logs, log_terms = (
        bounds._zeta_tail_screen, bounds._psi_ratio_screen, primorial._psi_ratio_terms,
        bounds._zeta_tail_logs, primorial.log_terms,
    )
    monkeypatch.setattr(bounds, "_zeta_tail_screen",
                        lambda p, z, h: screens.append(("zeta_tail", z[0])) or zeta_tail(p, z, h))
    monkeypatch.setattr(bounds, "_psi_ratio_screen",
                        lambda *a: screens.append(("psi_ratio", a[2][0])) or psi_ratio(*a))
    monkeypatch.setattr(primorial, "_psi_ratio_terms",
                        lambda p, t: terms.append((t, p.copy())) or psi_terms(p, t))
    monkeypatch.setattr(bounds, "_zeta_tail_logs",
                        lambda t, n, tab: tails.append((t, n)) or tail_logs(t, n, tab))
    monkeypatch.setattr(primorial, "log_terms",
                        lambda p, t: numpy_terms.append(t) or log_terms(p, t))
    code, out = _run(["verify-bounds", "--n-max", "100000", "--t-max", "10"], capsys)
    assert code == 0
    assert out == _readme_example("verify-bounds --n-max 100000 --t-max 10")
    zetas = {t: bounds.zeta(t).value for t in (2, 3)}
    assert screens == [("zeta_tail", zetas[2])] + [("psi_ratio", zetas[3])] * 7
    assert [t for t, _ in terms] == [3] * 7
    walked = np.concatenate([p for _, p in terms])
    assert np.array_equal(walked, build_table(1299709).primes)  # p_100000 = 1299709
    assert tails == [(2, 10**4)]
    assert numpy_terms == []
    assert built_columns == [
        ("mertens_product", None),
        ("zeta_tail_product", 2),
        ("log_substitution", None),
        ("psi_ratio_bound", 3),
    ]


def test_table1_golden(capsys):
    code, out = _run(["table1", "--t-min", "3", "--t-max", "7"], capsys)
    assert code == 0
    assert out == _readme_example("table1 --t-min 3 --t-max 7")
    code, out = _run(["table1", "--t-min", "3", "--t-max", "7", "--floor-n0"], capsys)
    assert code == 0
    assert out == (
        "t,n1,p_n1,mantissa,exponent10,margin\n"
        "3,2263,20011,4.34461216837,8605,0.190472282738\n"
        "4,2263,20011,4.34461216837,8605,0.07073861329\n"
        "5,2263,20011,4.34461216837,8605,0.0253431347223\n"
        "6,2263,20011,4.34461216837,8605,0.00575844156334\n"
        "7,10596,111751,2.47733980971,48337,6.53243426157e-08\n"
    )


def test_verify_bounds_skipped_golden(capsys):
    # both sweeps hypothesized on n >= 2263 report SKIPPED below the floor
    code, out = _run(
        ["verify-bounds", "--n-max", "2262", "--t-max", "3", "--format", "json"], capsys
    )
    assert code == 0
    assert out == (
        '[\n'
        '  {"suite": "mertens_product", "points": 518, "worst_margin": 0.12715610668, '
        '"worst_at": "x=926303", "rechecked": 0, "status": "PASS"},\n'
        '  {"suite": "zeta_tail_product", "points": 4522, "worst_margin": 9.54071383028e-05, '
        '"worst_at": "t=2,n=2262", "rechecked": 0, "status": "PASS"},\n'
        '  {"suite": "log_substitution", "points": 0, "worst_margin": null, '
        '"worst_at": "", "rechecked": 0, "status": "SKIPPED"},\n'
        '  {"suite": "psi_ratio_bound", "points": 0, "worst_margin": null, '
        '"worst_at": "", "rechecked": 0, "status": "SKIPPED"}\n'
        ']\n'
    )


def test_admissible_t_output(capsys):
    code, out = _run(["admissible-t", "--n", "9", "10596"], capsys)
    assert code == 0
    rows = _csv_rows(out)
    assert [(r["n"], r["t_max"]) for r in rows] == [("9", "2"), ("10596", "7")]


def test_admissible_t_golden(capsys):
    code, out = _run(["admissible-t", "--n", "2", "3", "100", "2263", "100000", "1000000"], capsys)
    assert code == 0
    assert out == (
        "n,p_n,t_max\n"
        "2,3,\n"
        "3,5,\n"
        "100,541,5\n"
        "2263,20011,6\n"
        "100000,1299709,7\n"
        "1000000,15485863,7\n"
    )


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["table1", "--t-min", "3", "--t-max", "8"],
         "f215fb37a220d0ae3b2d4b8cd461ac4ea0bd6f4c9936ef83d24af4655a4de502"),
        (["verify-bounds", "--n-max", "2262", "--t-max", "3"],
         "19df134108775752ad4af8bb374b513d9b4272461bedc4c7b3d4e97d1c8a9355"),
        (["verify-bounds", "--n-max", "100000", "--t-max", "10"],
         "28c4683461bdadcd568f6db521e2b6765d097b34b905ecc50ba623ad05fd745b"),
        (["admissible-t", "--n", "2", "3", "100", "2263", "100000"],
         "2509b6ea6958290b96404713093251217d62bba30b3353d7d330a6bfbf0e6dda"),
        (["champions", "--limit", "100000", "--t", "7", "--weak"],
         "653ed55f7ded24169d3748a471aa908d17b19a022f793c9ef92c9d460faa378a"),
        (["robin-scan", "--from", "3", "--to", "200000"],
         "8522abd5f46a124961629cbb4dd50edc1c11b93729ba8bd3e9418c8d19633a58"),
        (["ratio", "--t", "4", "--n-max", "20000"],
         "f09dae4955b32843722a6f5ed3325d4b453752fa7b3b3283ab7cfce6df1f2a39"),
    ],
    ids=["table1", "verify-bounds-2262", "verify-bounds-1e5", "admissible-t", "champions",
         "robin-scan", "ratio"],
)
def test_json_golden(capsys, argv, digest):
    # pins every byte of the JSON encoding, as the CSV goldens pin the CSV one
    code, out = _run([*argv, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unknown_subcommand(capsys):
    code, _ = _run(["frobnicate"], capsys)
    assert code == 64


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out = _run(["champions", "--limit", "30", "--t", "2", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "m,ratio\n1,1/1\n2,3/2\n6,2/1\n30,12/5\n"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["ratio", "--t", "3", "--n-max", "3000000"], 2),
        (["robin-scan", "--from", "3", "--to", "1125899906842625"], 2),
        (["ratio", "--t", "2", "--n-max", "1"], 64),
    ],
    ids=["ratio-budget", "robin-scan-limit", "ratio-usage"],
)
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_run_leaves_output_untouched(tmp_path, capsys, argv, code, existing):
    # every check runs before --output is opened
    target = tmp_path / "rows"
    if existing:
        target.write_bytes(b"kept,1\n")
    assert _run([*argv, "--output", str(target)], capsys) == (code, "")
    if existing:
        assert target.read_bytes() == b"kept,1\n"
    else:
        assert not target.exists()


def _robinpsi(argv, stderr=subprocess.PIPE):
    """robinpsi in a fresh interpreter, with this checkout's package first,
    its stdout piped, and its stderr too unless stderr says otherwise."""
    src = str(pathlib.Path(robinpsi.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "robinpsi", *argv], env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=stderr, text=True,
    )


@pytest.mark.parametrize("kind", ["missing-dir", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, kind):
    # exit 1 would read as a falsified inequality; a fresh interpreter shows
    # the whole of stderr, with no traceback
    target = tmp_path / "missing" / "rows.csv" if kind == "missing-dir" else tmp_path
    reason = "No such file or directory" if kind == "missing-dir" else "Is a directory"
    done = _robinpsi(["champions", "--limit", "100", "--t", "2", "--output", str(target)])
    out, err = done.communicate(timeout=60)
    assert (done.returncode, out) == (64, "")
    assert err == f"robinpsi: error: cannot write --output {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_is_a_usage_error():
    # the write fails, not the open; still one line and exit 64, not a traceback and 1
    done = _robinpsi(["champions", "--limit", "100", "--t", "2", "--output", "/dev/full"])
    out, err = done.communicate(timeout=60)
    assert (done.returncode, out) == (64, "")
    assert err == "robinpsi: error: cannot write --output /dev/full: No space left on device\n"


def test_closed_stdout_is_a_usage_error():
    # `| head -1`: the reader leaves after one line, and the rows go on
    # past any pipe buffer; no "Exception ignored" follows at exit
    run = _robinpsi(["ratio", "--t", "2", "--n-max", "100000"])
    assert run.stdout.readline() == "n,p_n,ratio,limit_value,deviation\n"
    run.stdout.close()
    err = run.stderr.read()
    run.stderr.close()
    assert run.wait(timeout=60) == 64
    assert err == "robinpsi: error: cannot write stdout: Broken pipe\n"


def test_closed_stdout_and_stderr_is_a_usage_error():
    # `2>&1 | head -1`: the write-error line meets the same closed pipe; it is
    # dropped, and the run still exits 64, where a traceback would exit 1
    run = _robinpsi(["ratio", "--t", "2", "--n-max", "100000"], stderr=subprocess.STDOUT)
    assert run.stdout.readline() == "n,p_n,ratio,limit_value,deviation\n"
    run.stdout.close()
    assert run.wait(timeout=60) == 64


@pytest.mark.parametrize(
    "argv",
    [["robin-scan", "--from", "3", "--to", "100000"], ["champions", "--limit", "100000", "--t", "2"]],
    ids=lambda argv: argv[0],
)
def test_scans_form_no_theta(argv, capsys, monkeypatch):
    # neither command reads theta, so neither takes the log of a prime
    monkeypatch.setattr(PrimeTable, "theta_upto", lambda *_: pytest.fail("formed theta"))
    code, out = _run(argv, capsys)
    assert code == 0 and out.count("\n") > 5


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--t-min", "3", "--t-max", "4"],
        ["champions", "--limit", "1000", "--t", "3"],
        ["robin-scan", "--from", "3", "--to", "6000"],
        ["ratio", "--t", "3", "--n-max", "200"],
        ["verify-bounds", "--n-max", "2262", "--t-max", "3"],
        ["admissible-t", "--n", "2", "100", "2263"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_file_matches_stdout(tmp_path, capsys, argv, fmt):
    code, out = _run([*argv, "--format", fmt], capsys)
    assert code == 0 and out
    target = tmp_path / "rows"
    assert _run([*argv, "--format", fmt, "--output", str(target)], capsys) == (code, "")
    assert target.read_bytes() == out.encode()


def test_streamed_rows_stay_small():
    # ratio rows are formed as they are written and the psi ratio sums walked
    # a block at a time, so no table of 2e5 rows, its text or a list of one of
    # its columns is held (about 23 MB with whole-column lists, 7 MB without);
    # a run first warms the imports and the zeta cache
    argv = ["ratio", "--t", "3", "--format", "json", "--output", os.devnull, "--n-max"]
    assert cli.main([*argv, "20"]) == 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize(
    "argv,message",
    [
        (["table1", "--t-min", "1"], "argument --t-min: t must be in [2, 64], got 1"),
        (["table1", "--t-max", "65"], "argument --t-max: t must be in [2, 64], got 65"),
        (["table1", "--t-min", "abc"], "argument --t-min: invalid _t_value value: 'abc'"),
        (["robin-scan", "--from", "2", "--to", "9"],
         "argument --from: scan domain starts at 3, got 2"),
        (["robin-scan", "--from", "z", "--to", "9"],
         "argument --from: invalid _scan_point value: 'z'"),
        (["ratio", "--t", "3", "--n-max", "1"],
         "argument --n-max: primorial index must be >= 2, got 1"),
        (["ratio", "--t", "3", "--n-max", "q"], "argument --n-max: invalid _index_value value: 'q'"),
        (["champions", "--limit", "0", "--t", "2"],
         "argument --limit: need a positive integer, got 0"),
        (["champions", "--limit", "1.5", "--t", "2"],
         "argument --limit: invalid _positive value: '1.5'"),
        (["table1", "--sieve-cap", "1"], "argument --sieve-cap: sieve size must be >= 2, got 1"),
        (["table1", "--sieve-cap", "x"], "argument --sieve-cap: invalid _sieve_size value: 'x'"),
    ],
)
def test_integer_option_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (64, "")
    assert out.err.splitlines()[-1] == f"robinpsi {argv[0]}: error: {message}"


def test_deterministic_output(capsys):
    _, first = _run(["table1", "--t-min", "3", "--t-max", "4"], capsys)
    _, second = _run(["table1", "--t-min", "3", "--t-max", "4"], capsys)
    assert first == second
    _, as_json = _run(["table1", "--t-min", "3", "--t-max", "4", "--format", "json"], capsys)
    parsed = json.loads(as_json)
    by_t = {r["t"]: r for r in parsed}
    for row in csv.DictReader(io.StringIO(first)):
        match = by_t[int(row["t"])]
        # the same %.12g rendering must appear through both emitters
        assert row["margin"] == f'{match["margin"]:.12g}'


def test_run_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["robinpsi", "admissible-t", "--n", "9"])
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 0
    capsys.readouterr()


def test_python_dash_m(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["robinpsi"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("robinpsi", run_name="__main__")
    assert info.value.code == 64
    capsys.readouterr()


# Small runs of the commands and the theorem pipeline, none of which reaches
# the 60-digit band, then the pipeline with its ratio forced into the band;
# prints the numpy modules the commands loaded past the import ("-" for none;
# numpy 2 imports numpy.ma on the first np.unique), the loaded flag before and
# after its one recheck and the recheck's bits.
_COLD_RUN = """
import contextlib, io, sys
import robinpsi, robinpsi.cli
from robinpsi import bounds, build_table, cli, primorial, robin

def numpy_modules():
    return {name for name in sys.modules if name.split(".")[0] == "numpy"}

imported = numpy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["table1", "--t-min", "3", "--t-max", "8"],
                 ["robin-scan", "--from", "5041", "--to", "100000"],
                 ["verify-bounds", "--n-max", "2300", "--t-max", "4"]):
        assert cli.main(argv) == 0, argv
print(",".join(sorted(numpy_modules() - imported)) or "-")
table = build_table(1 << 17)
assert robin.verify_tfree_robin(7, 20_000, table).passed
print("mpmath" in sys.modules)
run = robin.certify

def recheck(margin, band, formula, inputs):
    margin, rechecked = run(margin, band, formula, inputs)
    if rechecked:
        print("mpmath" in sys.modules, margin.hex())
    return margin, rechecked

robin.certify, robin.PRECISION_BAND = recheck, 10.0
assert robin.verify_tfree_robin(7, 20_000, table).passed
"""


def test_mpmath_loads_on_the_first_recheck_only(small_table, monkeypatch):
    # the test modules import mpmath themselves, so only a fresh interpreter
    # shows what a run loads
    src = str(pathlib.Path(robinpsi.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _COLD_RUN], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    calls = spy_60_digits(monkeypatch, robin)
    monkeypatch.setattr(robin, "PRECISION_BAND", 10.0)
    assert robin.verify_tfree_robin(7, 20_000, small_table).passed
    ((*_, margin),) = calls
    assert done.stdout.split() == ["-", "False", "True", margin.hex()]


# per subcommand: a valid argv, one missing a required option or value, one
# with a bad value
_GRAMMAR_CASES = {
    "table1": (["--t-min", "3", "--t-max", "4"], ["--t-max"], ["--t-min", "1"]),
    "champions": (["--limit", "100", "--t", "2"], ["--limit", "100"], ["--limit", "0", "--t", "2"]),
    "robin-scan": (["--from", "3", "--to", "100"], ["--from", "3"], ["--from", "2", "--to", "9"]),
    "ratio": (["--t", "3", "--n-max", "20"], ["--t", "3"], ["--t", "3", "--n-max", "x"]),
    "verify-bounds": (["--n-max", "3000", "--t-max", "3"], ["--n-max"], ["--t-max", "65"]),
    "admissible-t": (["--n", "2", "3"], [], ["--n", "1"]),
}


def _outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse-level usage failures and -h
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_one_subcommand_grammar_parses_as_the_full_one(name, capsys, monkeypatch):
    # main builds only the named subcommand's grammar; each argv reads the
    # same stdout, stderr and exit code through the grammar of all six
    assert sorted(cli._COMMANDS) == sorted(_GRAMMAR_CASES)
    valid, missing, bad = _GRAMMAR_CASES[name]
    cases = [valid, [*valid, "-h"], [*valid, "--bogus"], missing, bad, [*valid, "extra"]]
    argvs = [[name, *argv] for argv in cases]
    alone = [_outcome(argv, capsys) for argv in argvs]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert [_outcome(argv, capsys) for argv in argvs] == alone
    assert alone[0][0] == 0 and alone[1][0] == 0
    assert all(code == 64 for code, *_ in alone[2:])
    # the one-subcommand grammar knows no other
    other = next(n for n in cli._COMMANDS if n != name)
    with pytest.raises(SystemExit) as info:
        full(name).parse_args([other, *_GRAMMAR_CASES[other][0]])
    assert info.value.code == 64
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["bogus"], ["--format", "csv"]])
def test_argv_naming_no_subcommand_takes_the_full_grammar(argv, capsys, monkeypatch):
    got = _outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _outcome(argv, capsys) == got
    code, out, err = got
    assert code == (0 if argv[:1] in (["-h"], ["--help"]) else 64)
    if code == 0 or argv == ["bogus"]:  # the help and the invalid choice list all six
        assert all(name in out + err for name in cli._COMMANDS)
