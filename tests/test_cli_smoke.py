"""The command line driven end to end on perfbench's seed-0 data, as a
user runs it: model calls over HTTP to perfbench's stub server, training
records, every calibration query of the generator, and the similarity
backends falling back to character matching.

Each test calls ``cli.main`` in the test process, on the session's one
seed-0 dataset and one stub server (see ``conftest.py``).
"""

import importlib
import json
import sqlite3
from pathlib import Path

import pytest

from test_stub_digests import DIGESTS, _mismatch, stub_digests

from sketchsql.cli import EXIT_OK, main


@pytest.fixture(scope="module")
def queries(seed0):
    return json.loads((seed0 / "calib.json").read_text(encoding="utf-8"))[
        "queries"]


def test_console_script_is_cli_main():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = pyproject.read_text(encoding="utf-8").split(
        "\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    name, _, target = section.strip().partition(" = ")
    module, _, function = target.strip('"').partition(":")
    assert name == "sketchsql"
    assert getattr(importlib.import_module(module), function) is main


def test_translate_over_http(seed0, stub_url, monkeypatch, capsys):
    example = json.loads(
        (seed0 / "dataset" / "dev.json").read_text(encoding="utf-8"))[0]
    expected = json.loads((seed0 / "expected.json").read_text(
        encoding="utf-8"))["examples"][0]["predicted_sql"]
    db_id = example["db_id"]
    monkeypatch.setenv("SKETCH_TOKEN", "smoke-token")
    assert main(["translate",
                 "--db", str(seed0 / "dataset" / "database" / db_id /
                             f"{db_id}.sqlite"),
                 "--question", example["question"], "--sketch-url", stub_url,
                 "--aligner-url", stub_url,
                 "--completer-url", stub_url]) == EXIT_OK
    assert capsys.readouterr().out == expected + "\n"


def test_evaluate_over_http_gives_the_stub_script_digests(
        seed0, stub_url, tmp_path, capsys):
    """The committed digests are those of the stub-script run, which
    ``test_stub_digests`` checks."""
    report_path, trace_path = tmp_path / "report.json", tmp_path / "trace.json"
    assert main(["evaluate", "--dataset", str(seed0 / "dataset"),
                 "--sketch-url", stub_url, "--aligner-url", stub_url,
                 "--completer-url", stub_url, "--no-latency",
                 "--output", str(report_path),
                 "--trace", str(trace_path)]) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    got = stub_digests(report, trace)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert got == want, _mismatch(want, got, report)


@pytest.mark.parametrize("stubbed,aligner_records", [(False, 300),
                                                     (True, 1200)])
def test_derive_train_counts(seed0, tmp_path, capsys, stubbed,
                             aligner_records):
    """Without a sketch provider the aligner records are the gold pairs;
    with the stub script they are the provider's candidate pairs."""
    argv = ["derive-train", "--dataset", str(seed0 / "dataset"),
            "--output", str(tmp_path)]
    if stubbed:
        argv += ["--stub-script", str(seed0 / "script.json")]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == json.dumps(
        {"sketch_records": 900, "aligner_records": aligner_records,
         "skipped_examples": 0}) + "\n"


@pytest.mark.parametrize("backend,suffix", [
    ("fuzzy", ""),
    # A rewrite edits only the changed tokens, so a trailing comment comes
    # back unchanged.
    ("fuzzy", " -- note"),
    # The vector file's one word occurs in no query or value, and the
    # stub server answers 404 under the encoder URL, so both score as
    # fuzzy does.
    ("embedding", ""),
    ("encoder", ""),
])
def test_calibrate_gives_each_expected_rewrite(seed0, stub_url, queries,
                                               tmp_path, capsys, caplog,
                                               backend, suffix):
    vectors = tmp_path / "vec.txt"
    vectors.write_text("zzzz 1.0 0.0\n", encoding="utf-8")
    flags = {"fuzzy": [], "embedding": ["--embeddings", str(vectors)],
             "encoder": ["--encoder-url", f"{stub_url}/none"]}[backend]
    got = []
    for op in queries:
        assert main(["calibrate", "--db", str(seed0 / "calib.sqlite"),
                     "--sql", op["query"] + suffix, "--backend", backend,
                     *flags]) == EXIT_OK
        got.append(capsys.readouterr().out)
    assert got == [op["expected_sql"] + suffix + "\n" for op in queries]
    if backend == "encoder":
        assert "sentence encoder unavailable" in caplog.text


def test_calibrate_against_text_that_is_not_utf8(tmp_path, capsys):
    """The TEXT cell's bytes end in 0xe9, which is no UTF-8, so it is
    matched as "caf" and a replacement character.  The blob holds the
    literal's own bytes and must never be a candidate."""
    db = tmp_path / "undecodable.sqlite"
    with sqlite3.connect(db) as conn:
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
        conn.execute("INSERT INTO t (name) VALUES "
                     "(CAST(x'636166e9' AS TEXT)), (x'636166')")
    conn.close()
    assert main(["calibrate", "--db", str(db),
                 "--sql", "SELECT id FROM t WHERE name = 'caf'"]) == EXIT_OK
    assert capsys.readouterr().out == \
        "SELECT id FROM t WHERE name = 'caf\ufffd'\n"
