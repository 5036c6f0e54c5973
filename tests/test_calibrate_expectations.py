"""The calibrate workloads' expected outputs, checked outside the benchmark.

``perfbench/gen.py`` writes, for each seed, a calibration database, the
static queries with the rewrite and feedback each must get, and the churn
steps: a committed write, then a query with its expected output.  The
benchmark fails an op whose output differs; this test runs the same checks
on seeds 0-4, two cycles of every static query and one of every churn step,
under two fixed hash seeds, since the value index keys its exact lookup by
``hash()``.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GEN_PATH = ROOT / "perfbench" / "gen.py"
SEEDS = range(5)
HASH_SEEDS = ("0", "5")

# Run in a subprocess, so that the hash seed is its own: argv holds the
# generated seed directories.  Prints one line per op whose output differs.
CHECK = r"""
import json, shutil, sqlite3, sys, tempfile
from contextlib import closing
from pathlib import Path

from sketchsql import selection
from sketchsql.execution import Database

config = selection.SelectionConfig(completer=None)


def rows(feedback):
    return [[pred.column, pred.operator, pred.value, match.column,
             match.value, match.level.name]
            for pred, match in feedback.replacements]


def check(db, label, op):
    try:
        sql, feedback = selection.calibrate_deterministic(db, op["query"],
                                                          config)
    except Exception as exc:
        got = f"{type(exc).__name__}: {exc}"
    else:
        if sql == op["expected_sql"] and rows(feedback) == op["feedback"]:
            return 0
        got = f"got {sql!r} {rows(feedback)}"
    print(f"mismatch: {label}: {op['query']!r}: {got}; expected "
          f"{op['expected_sql']!r} {op['feedback']}")
    return 1


failed = 0
for directory in map(Path, sys.argv[1:]):
    calib = json.loads((directory / "calib.json").read_text("utf-8"))
    with closing(Database(directory / "calib.sqlite")) as db:
        for cycle in range(2):
            for i, op in enumerate(calib["queries"]):
                failed += check(db, f"{directory.name} static {cycle}.{i}", op)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "churn.sqlite"
        shutil.copyfile(directory / "calib.sqlite", path)
        with closing(sqlite3.connect(path)) as writer, \
                closing(Database(path)) as db:
            for i, op in enumerate(calib["churn"]):
                writer.execute(op["write"]["sql"], op["write"]["params"])
                writer.commit()
                failed += check(db, f"{directory.name} churn {i}", op)
sys.exit(1 if failed else 0)
"""


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> list:
    gen = _load_gen()
    root = tmp_path_factory.mktemp("calib")
    directories = []
    for seed in SEEDS:
        gen.generate(seed, root / f"seed-{seed}")
        directories.append(str(root / f"seed-{seed}"))
    return directories


def test_calibrate_workloads_get_their_expected_outputs(generated):
    source = str(ROOT / "src")
    runs = []
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [source, os.environ.get("PYTHONPATH")])))
        runs.append((hash_seed, subprocess.Popen(
            [sys.executable, "-c", CHECK, *generated], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)))
    for hash_seed, run in runs:
        output, _ = run.communicate(timeout=300)
        assert run.returncode == 0, f"PYTHONHASHSEED={hash_seed}:\n{output}"
