"""The benchmark's sample entry point, run as its traced run runs it.

Only a traced run executes perfbench/layers.Tracer, which rebinds robinpsi
functions by name, and child.py's segment probe, which calls build_table and
robin_scan with the table passed positionally.  A renamed function or a
changed signature there fails the benchmark without failing any unit test,
so each workload the benchmark names runs here in both tracing modes.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mode", ["trace", "alloc"])
@pytest.mark.parametrize("workload", ["tfree", "sweeps"])
def test_traced_samples_exit_cleanly_with_every_check_true(workload, mode):
    done = subprocess.run(
        [sys.executable, "perfbench/child.py", workload, "0", "--mode", mode],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["checks"]
    assert all(ok for _, ok in result["checks"]), result["checks"]
