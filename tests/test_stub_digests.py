"""The stubbed seed-0 evaluation gives the same report and trace, byte for
byte, as when ``stub_eval_digests.json`` was written.

The test takes perfbench's seed-0 data from ``conftest.py``, runs
``sketchsql evaluate`` with its stub script at one and two workers, and
compares SHA-256 digests of the report and the trace with the committed
ones.  Each digest is taken over canonical JSON (sorted keys, no spaces)
without the ``config`` echo, which holds the run's paths and its worker
count.  The committed file also holds a short digest of each example's
record and one digest per record field over all examples, so that a
mismatch names the first example and the fields that changed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sketchsql

DIGESTS = Path(__file__).with_name("stub_eval_digests.json")


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stub_digests(report: dict, trace: dict) -> dict:
    """The digests of one run's report and trace, as committed."""
    report = {key: value for key, value in report.items() if key != "config"}
    trace = {key: value for key, value in trace.items() if key != "config"}
    examples = report["per_example"]
    return {
        "report": _digest(report),
        "trace": _digest(trace),
        "fields": {key: _digest([example[key] for example in examples])
                   for key in sorted(examples[0])},
        "examples": [_digest(example)[:12] for example in examples],
    }


def _mismatch(want: dict, got: dict, report: dict) -> str:
    changed = [key for key in want["fields"]
               if want["fields"][key] != got["fields"].get(key)]
    first = next((i for i, (a, b) in enumerate(zip(want["examples"],
                                                   got["examples"]))
                  if a != b), None)
    if first is None and len(want["examples"]) != len(got["examples"]):
        first = min(len(want["examples"]), len(got["examples"]))
    where = "no example record differs"
    if first is not None and first < len(report["per_example"]):
        example = report["per_example"][first]
        where = (f"first differing example: #{first} "
                 f"({example['db_id']}: {example['question']!r})")
    return (f"{where}; fields that differ: {', '.join(changed) or 'none'}; "
            f"new digests: report {got['report']}, trace {got['trace']}")


@pytest.mark.parametrize("workers", [1, 2])
def test_stubbed_seed0_evaluation_is_unchanged(seed0, tmp_path, workers):
    report_path, trace_path = tmp_path / "report.json", tmp_path / "trace.json"
    src = Path(sketchsql.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "sketchsql.cli", "evaluate",
         "--dataset", str(seed0 / "dataset"),
         "--stub-script", str(seed0 / "script.json"),
         "--no-latency", "--workers", str(workers),
         "--output", str(report_path), "--trace", str(trace_path)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert "execution accuracy:  0.9600" in run.stderr
    report = json.loads(report_path.read_text(encoding="utf-8"))
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert report["config"]["workers"] == workers
    got = stub_digests(report, trace)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if got != want:
        new = tmp_path / DIGESTS.name
        new.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        pytest.fail(f"{_mismatch(want, got, report)}; all new digests in "
                    f"{new}")
