"""A short traced run of each benchmark workload, which must exit 0 with
every op passing its expected-output check.  This catches a name or a
signature that the benchmark uses and the package no longer has, and an
op whose output changed.  The churn workload also runs on seed 1, whose
insert and rename probes fail when the value index serves stale values;
the static workload runs there too, where several matches reach the
database level, whose kept lane set must give the expected feedback, and
on seeds 3 and 9, two more generated databases.

The runs share one temporary copy of ``src/``, ``perfbench/`` and
``BENCHMARK.json``, so the checkout's ``.perfbench_cache/`` is never
written and no run meets a benchmark run made in the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CASES = [(workload, 0) for workload in ("eval-stub", "translate-rtt",
                                        "calibrate-static", "calibrate-churn")]
CASES += [("calibrate-churn", 1), ("calibrate-static", 1),
          ("calibrate-static", 3), ("calibrate-static", 9)]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload,seed", CASES,
                         ids=[f"{workload}-seed{seed}" for workload, seed in CASES])
def test_every_op_passes_its_output_check(checkout, workload, seed):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    mismatches = "\n".join(line for line in run.stderr.splitlines()
                           if line.startswith(("mismatch:", "FAILED:")))
    assert run.returncode == 0, mismatches or run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), mismatches
