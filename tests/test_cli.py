import argparse
import dataclasses
import json
from pathlib import Path

import pytest
import yaml

from helpers import (
    SCHOOL_GOLD_SQL,
    SCHOOL_QUESTION,
    SCHOOL_RECORD,
    is_closed,
    make_benchmark_dataset,
    make_school_db,
    record_connections,
)

import sketchsql.cli as cli
import sketchsql.sketches as sketches
from sketchsql.benchmark import (
    FORMATS,
    EvalReport,
    build_gold_echo_script,
    load_dataset,
)
from sketchsql.calibration import CalibrationFeedback, WordEmbedding
from sketchsql.cli import (
    EXIT_ERROR,
    EXIT_EXHAUSTED,
    EXIT_OK,
    RunConfig,
    build_clients,
    build_parser,
    effective_config,
    main,
)
from sketchsql.errors import SketchSqlError
from sketchsql.execution import Database
from sketchsql.gateway import StubScript
from sketchsql.schema import load_schema_file
from sketchsql.selection import (
    STATUS_SELECTED,
    SelectionTrace,
    completion_prompt,
)
from sketchsql.sketches import INSTRUCTIONS, build_task_input, extract_sketch_from_sql

SCHOOL_SERIALIZED = (
    "school: t0: Course (c0: id, c1: course, c2: teacher) "
    "t1: Student (c0: id, c1: given_name, c2: last_name, c3: course, "
    "c4: score)")


@pytest.fixture
def school_path(tmp_path):
    path = tmp_path / "school.sqlite"
    make_school_db(path)
    return path


def write_script(tmp_path, script: dict, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(script), encoding="utf-8")
    return path


def golden_script(db_path, completion=SCHOOL_GOLD_SQL,
                  question=SCHOOL_QUESTION):
    """A stub script that answers ``question`` with ``completion``."""
    schema = Database(db_path).schema
    sketch = extract_sketch_from_sql(SCHOOL_GOLD_SQL, schema)
    generate = {
        build_task_input(INSTRUCTIONS[part.kind], question, schema):
            [[part.content]]
        for part in (sketch.select_part, sketch.from_part, sketch.keywords_part)
    }
    prompt = completion_prompt(question, schema, sketch)
    return {"generate": generate, "score": {"*": [0.9]},
            "complete": {prompt: [completion]}}


# --------------------------------------------------------------------------
# serialize

def test_serialize_from_sqlite(school_path, capsys):
    assert main(["serialize", "--db", str(school_path)]) == EXIT_OK
    assert capsys.readouterr().out == SCHOOL_SERIALIZED + "\n"


def test_serialize_from_tables_json(tmp_path, capsys):
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([SCHOOL_RECORD]), encoding="utf-8")
    assert main(["serialize", "--tables", str(tables)]) == EXIT_OK
    assert capsys.readouterr().out == SCHOOL_SERIALIZED + "\n"
    assert main(["serialize", "--tables", str(tables),
                 "--db-id", "school"]) == EXIT_OK
    capsys.readouterr()
    assert main(["serialize", "--tables", str(tables),
                 "--db-id", "nope"]) == EXIT_ERROR


@pytest.mark.parametrize("key,value", [("column_names_original", 5),
                                       ("table_names_original", 7)])
def test_serialize_rejects_a_malformed_tables_file(tmp_path, caplog, key,
                                                   value):
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([dict(SCHOOL_RECORD, **{key: value})]),
                      encoding="utf-8")
    assert main(["serialize", "--tables", str(tables)]) == EXIT_ERROR
    assert f"field {key!r} must be a list, not int" in caplog.text


def test_serialize_rejects_a_repeated_db_id(tmp_path, caplog, capsys):
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([SCHOOL_RECORD, SCHOOL_RECORD]),
                      encoding="utf-8")
    assert main(["serialize", "--tables", str(tables),
                 "--db-id", "school"]) == EXIT_ERROR
    assert "db_id 'school' more than once" in caplog.text
    assert capsys.readouterr().out == ""


def test_serialize_json_output(school_path, capsys):
    assert main(["serialize", "--db", str(school_path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["db_name"] == "school"
    assert [t["name"] for t in payload["tables"]] == ["Course", "Student"]


def test_serialize_requires_a_source(capsys):
    assert main(["serialize"]) == EXIT_ERROR


# --------------------------------------------------------------------------
# translate

def test_translate_golden_path(school_path, tmp_path, capsys):
    script = write_script(tmp_path, golden_script(school_path))
    trace_path = tmp_path / "trace.json"
    code = main(["translate", "--db", str(school_path),
                 "--question", SCHOOL_QUESTION,
                 "--stub-script", str(script),
                 "--trace", str(trace_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == SCHOOL_GOLD_SQL + "\n"
    payload = json.loads(trace_path.read_text(encoding="utf-8"))
    assert set(payload) == {"config", "trace"}
    assert payload["trace"]["status"] == "Selected"
    assert payload["trace"]["final_sql"] == SCHOOL_GOLD_SQL
    assert payload["config"]["stub_script"] == str(script)


def test_translate_exhausted_exit_code(school_path, tmp_path, capsys):
    null_sql = "SELECT course FROM Student WHERE score = 999"
    script = write_script(tmp_path, golden_script(school_path, null_sql))
    code = main(["translate", "--db", str(school_path),
                 "--question", SCHOOL_QUESTION,
                 "--stub-script", str(script)])
    assert code == EXIT_EXHAUSTED
    assert capsys.readouterr().out == null_sql + "\n"  # best effort, flagged


def test_translate_requires_endpoints(school_path):
    assert main(["translate", "--db", str(school_path),
                 "--question", "Q?"]) == EXIT_ERROR


def test_missing_endpoint_names_its_flag(school_path, caplog):
    assert main(["translate", "--db", str(school_path),
                 "--question", "Q?"]) == EXIT_ERROR
    assert "no sketch endpoint configured; pass --sketch-url or " \
        "--stub-script" in caplog.text
    caplog.clear()
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", SCHOOL_GOLD_SQL, "--backend", "encoder"]) == EXIT_ERROR
    assert "no encoder endpoint configured; pass --encoder-url or " \
        "--stub-script" in caplog.text
    assert "completer" not in caplog.text
    with pytest.raises(SystemExit) as err:
        main(["calibrate", "--db", str(school_path), "--sql", SCHOOL_GOLD_SQL,
              "--backend", "encoder", "--sketch-url", "http://s"])
    assert err.value.code == 2


def test_endpoint_url_without_a_scheme_exits_one(school_path, caplog):
    """A URL no HTTP client can reach is refused before any request, so
    no retry schedule is slept through."""
    url = "http://127.0.0.1:9"
    assert main(["translate", "--db", str(school_path), "--question", "Q?",
                 "--sketch-url", url, "--aligner-url", url,
                 "--completer-url", "localhost:8000"]) == EXIT_ERROR
    assert "endpoint URL 'localhost:8000' is not an http:// or https:// " \
        "URL with a host" in caplog.text


def test_translate_missing_db(tmp_path):
    script = write_script(tmp_path, {"score": {"*": [0.9]}})
    assert main(["translate", "--db", str(tmp_path / "none.sqlite"),
                 "--question", "Q?",
                 "--stub-script", str(script)]) == EXIT_ERROR


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["translate"])  # missing required --db/--question
    assert err.value.code == 2


def test_unread_flag_is_reported_with_the_command_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["derive-train", "--k-from", "7"])
    assert err.value.code == 2
    usage, *_, message = capsys.readouterr().err.strip().splitlines()
    assert usage.startswith("usage: sketchsql derive-train ")
    assert message == ("sketchsql derive-train: error: "
                       "unrecognized arguments: --k-from 7")


# --------------------------------------------------------------------------
# calibrate

def test_calibrate_rewrites_bad_values(school_path, capsys):
    bad = ("SELECT course FROM Student WHERE given_name = 'timmothy' "
           "AND last_name = 'wards' ORDER BY score LIMIT 1")
    assert main(["calibrate", "--db", str(school_path), "--sql", bad]) == EXIT_OK
    assert capsys.readouterr().out == SCHOOL_GOLD_SQL + "\n"


def test_calibrate_rewrites_predicate_in_function_argument(school_path, capsys):
    sql = ("SELECT course FROM Student WHERE score >= coalesce("
           "(SELECT max(score) FROM Student WHERE given_name = '{}'), 0)")
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", sql.format("timmothy")]) == EXIT_OK
    assert capsys.readouterr().out == sql.format("timmy") + "\n"


def test_calibrate_leaves_good_values(school_path, capsys):
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", SCHOOL_GOLD_SQL]) == EXIT_OK
    assert capsys.readouterr().out == SCHOOL_GOLD_SQL + "\n"


@pytest.mark.parametrize("sql,message", [
    ("SELECT FROM WHERE", "expected an expression (at position 7)"),
    # GROUP with no BY is read one word at a time, so the error names the
    # word that is missing.
    ("SELECT a FROM t GROUP a", "expected BY (at position 22)"),
])
def test_calibrate_unparseable_sql(school_path, caplog, sql, message):
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", sql]) == EXIT_ERROR
    assert message in caplog.text


def test_calibrate_query_nested_too_deeply(school_path, caplog, capsys):
    nested = "(" * 500 + "score > 0" + ")" * 500
    assert main(["calibrate", "--db", str(school_path), "--sql",
                 f"SELECT course FROM Student WHERE {nested}"]) == EXIT_ERROR
    assert "query nests too deeply to analyze" in caplog.text
    assert capsys.readouterr().out == ""


def test_calibrate_backend_requirements(school_path):
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", SCHOOL_GOLD_SQL,
                 "--backend", "embedding"]) == EXIT_ERROR
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", SCHOOL_GOLD_SQL,
                 "--backend", "encoder"]) == EXIT_ERROR


def test_calibrate_embedding_backend(school_path, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("timmy 1.0 0.0\nward 0.0 1.0\n", encoding="utf-8")
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", SCHOOL_GOLD_SQL,
                 "--backend", "embedding",
                 "--embeddings", str(vectors)]) == EXIT_OK
    assert capsys.readouterr().out == SCHOOL_GOLD_SQL + "\n"


# --------------------------------------------------------------------------
# evaluate

@pytest.fixture
def bench(tmp_path):
    root = make_benchmark_dataset(tmp_path / "bench", 5)
    bundle = load_dataset(root)
    script = write_script(tmp_path, build_gold_echo_script(bundle))
    return root, script


def test_every_connection_is_closed_when_a_command_ends(
        bench, school_path, tmp_path, monkeypatch):
    root, eval_script = bench
    script = write_script(tmp_path, golden_script(school_path),
                          name="translate.json")
    opened = record_connections(monkeypatch)
    typo = SCHOOL_GOLD_SQL.replace("timmy", "timmothy")
    runs = [
        (["evaluate", "--dataset", str(root), "--stub-script",
          str(eval_script), "--no-latency"], EXIT_OK),
        (["translate", "--db", str(school_path), "--question",
          SCHOOL_QUESTION, "--stub-script", str(script)], EXIT_OK),
        (["calibrate", "--db", str(school_path), "--sql", typo], EXIT_OK),
        (["calibrate", "--db", str(school_path), "--sql",
          "SELECT FROM WHERE"], EXIT_ERROR),
    ]
    for argv, code in runs:
        count = len(opened)
        assert main(argv) == code
        assert len(opened) > count or code == EXIT_ERROR, argv[0]
        assert all(is_closed(conn) for conn in opened), argv[0]


def test_evaluate_end_to_end(bench, tmp_path, capsys):
    root, script = bench
    report_path = tmp_path / "report.json"
    traces_path = tmp_path / "traces.json"
    code = main(["evaluate", "--dataset", str(root),
                 "--stub-script", str(script),
                 "--no-latency",
                 "--output", str(report_path),
                 "--trace", str(traces_path)])
    assert code == EXIT_OK
    assert "execution accuracy:  1.0000" in capsys.readouterr().err
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 5 and report["correct"] == 5
    assert report["status_counts"] == {"Selected": 5}
    assert report["config"]["record_latency"] is False
    assert all(r["latency"] is None for r in report["per_example"])
    traces = json.loads(traces_path.read_text(encoding="utf-8"))
    assert len(traces["traces"]) == 5
    assert all(t["status"] == "Selected" for t in traces["traces"])


def test_evaluate_report_serialization_shape(bench, capsys):
    root, script = bench
    assert main(["evaluate", "--dataset", str(root), "--stub-script",
                 str(script), "--no-latency", "--limit", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"config", "total", "correct", "execution_accuracy",
                           "status_counts", "tokens_total", "tokens_average",
                           "per_example"}
    (example,) = report["per_example"]
    assert set(example) == {"db_id", "question", "gold_sql", "predicted_sql",
                            "status", "correct", "predicted_outcome",
                            "gold_outcome", "tokens", "latency", "error",
                            "trace"}


def test_evaluate_report_to_stdout_with_limit(bench, capsys):
    root, script = bench
    code = main(["evaluate", "--dataset", str(root),
                 "--stub-script", str(script),
                 "--no-latency", "--limit", "2"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 2


def test_evaluate_runs_are_reproducible(bench, tmp_path, capsys):
    root, script = bench
    outputs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert main(["evaluate", "--dataset", str(root),
                     "--stub-script", str(script),
                     "--no-latency", "--workers", "2",
                     "--output", str(path)]) == EXIT_OK
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_evaluate_requires_dataset(bench):
    _, script = bench
    assert main(["evaluate", "--stub-script", str(script)]) == EXIT_ERROR


def _with_db_id(db_id):
    return (lambda example: {**example, "db_id": db_id},
            f"field 'db_id' must be a plain name, got {db_id!r}")


@pytest.mark.parametrize("malformed,message", [
    (lambda example: {**example, "db_id": 5},
     "field 'db_id' must be a string, not int"),
    (lambda example: list(example.values()),
     "must be a JSON object, not list"),
    *(_with_db_id(db_id) for db_id in ("", ".", "..", "../school", "a/b",
                                       "a\\b")),
], ids=["non-string-db_id", "list-record", "empty-db_id", "dot-db_id",
        "dotdot-db_id", "parent-db_id", "slash-db_id", "backslash-db_id"])
def test_evaluate_rejects_a_malformed_example(bench, caplog, malformed,
                                             message):
    root, script = bench
    examples = json.loads((root / "dev.json").read_text(encoding="utf-8"))
    examples[1] = malformed(examples[1])
    (root / "dev.json").write_text(json.dumps(examples), encoding="utf-8")
    assert main(["evaluate", "--dataset", str(root),
                 "--stub-script", str(script)]) == EXIT_ERROR
    assert "example 1 in" in caplog.text
    assert message in caplog.text


@pytest.mark.parametrize("name,read", [
    ("dev.json", lambda path: load_dataset(path.parent)),
    ("tables.json", load_schema_file),
    ("script.json", StubScript.load),
    ("vectors.txt", WordEmbedding.load),
], ids=["examples", "tables", "stub-script", "word-vectors"])
def test_an_input_file_that_is_not_utf8_is_named(tmp_path, name, read):
    """The command exits 1 with the error's message, which must say which
    file could not be read."""
    path = tmp_path / name
    path.write_bytes(b"\xff[]\n")
    with pytest.raises((SketchSqlError, ValueError)) as err:
        read(path)
    assert str(path) in str(err.value)
    assert "can't decode byte 0xff in position 0" in str(err.value)


def test_evaluate_missing_dataset_dir(bench, tmp_path):
    _, script = bench
    assert main(["evaluate", "--dataset", str(tmp_path / "nope"),
                 "--stub-script", str(script)]) == EXIT_ERROR


# --------------------------------------------------------------------------
# derive-train

def test_derive_train_gold_only(bench, tmp_path, capsys):
    root, _ = bench
    out_dir = tmp_path / "train"
    code = main(["derive-train", "--dataset", str(root),
                 "--output", str(out_dir)])
    assert code == EXIT_OK
    counts = json.loads(capsys.readouterr().out)
    assert counts == {"sketch_records": 15, "aligner_records": 5,
                      "skipped_examples": 0}
    sketch_lines = (out_dir / "sketch_records.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert len(sketch_lines) == 15
    record = json.loads(sketch_lines[0])
    assert set(record) == {"instruction", "question", "serialized_schema",
                           "label", "subtask"}
    aligner_lines = (out_dir / "aligner_records.jsonl").read_text(
        encoding="utf-8").splitlines()
    # without a provider, records come from the gold pair alone
    assert [json.loads(line)["label"] for line in aligner_lines] == [1] * 5


def test_derive_train_with_provider_candidates(bench, tmp_path, capsys):
    root, _ = bench
    bundle = load_dataset(root)
    script_dict = build_gold_echo_script(bundle)
    first = bundle.examples[0]
    schema = bundle.schemas[first.db_id]
    gold = extract_sketch_from_sql(first.gold_sql, schema)
    select_key = build_task_input(INSTRUCTIONS["Select"], first.question, schema)
    script_dict["generate"][select_key] = [["SELECT *",
                                            gold.select_part.content]]
    script = write_script(tmp_path, script_dict, name="cands.json")

    out_dir = tmp_path / "train2"
    code = main(["derive-train", "--dataset", str(root),
                 "--stub-script", str(script),
                 "--output", str(out_dir)])
    assert code == EXIT_OK
    counts = json.loads(capsys.readouterr().out)
    assert counts["aligner_records"] == 6  # one example now has two pairs
    labels = [json.loads(line)["label"] for line in
              (out_dir / "aligner_records.jsonl").read_text(
                  encoding="utf-8").splitlines()]
    assert labels == [0, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("stubbed", [False, True],
                         ids=["gold-only", "stub-script"])
def test_derive_train_extracts_each_gold_sketch_once(
        bench, tmp_path, capsys, monkeypatch, stubbed):
    root, script = bench
    extracted = []

    def counting_extract(sql, schema):
        extracted.append(sql)
        return extract_sketch_from_sql(sql, schema)

    # The command module is patched too, so that an extraction it made
    # itself would be counted as well.
    for module in (sketches, cli):
        monkeypatch.setattr(module, "extract_sketch_from_sql",
                            counting_extract, raising=False)
    argv = ["derive-train", "--dataset", str(root),
            "--output", str(tmp_path / "train")]
    if stubbed:
        argv += ["--stub-script", str(script)]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "sketch_records": 15, "aligner_records": 5, "skipped_examples": 0}
    assert extracted == [ex.gold_sql for ex in load_dataset(root).examples]


# --------------------------------------------------------------------------
# Configuration plumbing

def test_dataset_formats_are_the_loaders(tmp_path, monkeypatch, caplog):
    monkeypatch.setitem(FORMATS, "flat", ("dbs", ("items.json",)))
    root = make_benchmark_dataset(tmp_path / "flat", 2, db_dir_name="dbs")
    (root / "dev.json").rename(root / "items.json")
    args = build_parser().parse_args(
        ["evaluate", "--dataset", str(root), "--format", "flat"])
    assert effective_config(args).format == "flat"
    assert main(["derive-train", "--dataset", str(root), "--format", "flat",
                 "--output", str(tmp_path / "train")]) == EXIT_OK
    cfg = tmp_path / "run.yaml"
    cfg.write_text("format: sqlite\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_ERROR
    assert ("unknown dataset format 'sqlite'; expected one of spider, "
            "kaggledbqa, flat") in caplog.text


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("k_select: 7\nthreshold: 0.5\nchat_adapter: true\n",
                   encoding="utf-8")
    args = build_parser().parse_args(
        ["translate", "--db", "x", "--question", "q",
         "--config", str(cfg), "--threshold", "0.9"])
    config = effective_config(args)
    assert config.k_select == 7          # from the file
    assert config.threshold == 0.9       # flag wins
    assert config.chat_adapter is True   # file-only flag survives
    assert config.patience == 1          # untouched default


def test_config_file_validation(tmp_path):
    args = build_parser().parse_args(
        ["serialize", "--config", str(tmp_path / "bad.yaml")])
    (tmp_path / "bad.yaml").write_text("nonsense_key: 1\n", encoding="utf-8")
    with pytest.raises(Exception, match="unknown config key"):
        effective_config(args)
    (tmp_path / "bad.yaml").write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(Exception, match="mapping"):
        effective_config(args)
    (tmp_path / "bad.yaml").write_text("a: [unclosed", encoding="utf-8")
    with pytest.raises(Exception, match="YAML"):
        effective_config(args)


@pytest.mark.parametrize("line,message", [
    ('patience: "2"', "config key 'patience' must be int, got str '2'"),
    ("workers: 1.5", "config key 'workers' must be int, got float 1.5"),
    ("threshold: true",
     "config key 'threshold' must be float, got bool True"),
    ("k_from: false", "config key 'k_from' must be int, got bool False"),
    ("stub_script: 3", "config key 'stub_script' must be str or null, "
                       "got int 3"),
])
def test_config_value_types_are_checked(tmp_path, school_path, caplog,
                                        line, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["translate", "--db", str(school_path), "--question", "Q?",
                 "--config", str(cfg)]) == EXIT_ERROR
    assert message in caplog.text


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key,value,message", [
    ("k_select", 0, "'k_select' must be at least 1, got 0"),
    ("k_from", -1, "'k_from' must be at least 1, got -1"),
    ("k_keywords", 0, "'k_keywords' must be at least 1, got 0"),
    ("scan_cap", 0, "'scan_cap' must be at least 1, got 0"),
    ("workers", 0, "'workers' must be at least 1, got 0"),
    ("limit", -1, "'limit' must be at least 0, got -1"),
    ("example_timeout", -1, "'example_timeout' must be greater than 0"),
    ("example_timeout", 0, "'example_timeout' must be greater than 0"),
    ("statement_timeout", -0.5, "'statement_timeout' must be at least 0"),
    ("patience", -1, "'patience' must be at least 0, got -1"),
    ("threshold", 0, "'threshold' must be greater than 0 and at most 1, got 0"),
    ("threshold", 1.5, "'threshold' must be greater than 0 and at most 1, "
                       "got 1.5"),
])
def test_config_values_out_of_range_are_rejected(tmp_path, caplog, source,
                                                 key, value, message):
    argv = ["evaluate", "--dataset", str(tmp_path / "none")]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), str(value)]
    else:
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{key}: {value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_ERROR
    assert message in caplog.text


def test_config_values_at_their_bounds_load():
    args = build_parser().parse_args(
        ["evaluate", "--k-select", "1", "--k-from", "1", "--k-keywords", "1",
         "--scan-cap", "1", "--workers", "1", "--limit", "0",
         "--example-timeout", "0.001", "--statement-timeout", "0",
         "--patience", "0", "--threshold", "1"])
    config = effective_config(args)
    assert (config.k_select, config.k_from, config.k_keywords, config.scan_cap,
            config.workers, config.limit, config.example_timeout,
            config.statement_timeout, config.patience, config.threshold) == \
        (1, 1, 1, 1, 1, 0, 0.001, 0, 0, 1)


def test_evaluate_checks_its_settings_before_reading_the_dataset(
        bench, monkeypatch, caplog):
    root, script = bench
    monkeypatch.setattr("sketchsql.cli.load_dataset", _never_called)
    assert main(["evaluate", "--dataset", str(root), "--stub-script",
                 str(script), "--backend", "embedding"]) == EXIT_ERROR
    assert "the embedding backend needs --embeddings" in caplog.text


def _never_called(*args, **kwargs):
    raise AssertionError("the dataset was read")


def test_config_values_of_the_right_type_load(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("patience: 2\nthreshold: 1\nstatement_timeout: null\n"
                   "limit: 5\nrecord_latency: false\nembeddings: vec.txt\n",
                   encoding="utf-8")
    args = build_parser().parse_args(["evaluate", "--config", str(cfg)])
    config = effective_config(args)
    assert (config.patience, config.threshold, config.statement_timeout,
            config.limit, config.record_latency, config.embeddings) == \
        (2, 1, None, 5, False, "vec.txt")


def test_unknown_backend_is_rejected(tmp_path, school_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("backend: psychic\n", encoding="utf-8")
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", SCHOOL_GOLD_SQL, "--config", str(cfg)]) == EXIT_ERROR


def test_tokens_come_from_environment(monkeypatch):
    monkeypatch.setenv("COMPLETER_TOKEN", "tok-c")
    monkeypatch.setenv("SKETCH_TOKEN", "tok-s")
    monkeypatch.delenv("ALIGNER_TOKEN", raising=False)
    clients = build_clients(RunConfig(sketch_url="http://s",
                                      aligner_url="http://a",
                                      completer_url="http://c",
                                      chat_adapter=True))
    assert clients["sketch"].config.auth_token == "tok-s"
    assert clients["aligner"].config.auth_token is None
    assert clients["completer"].config.auth_token == "tok-c"
    # the chat adapter applies to the completer endpoint only
    assert clients["completer"].config.chat_adapter is True
    assert clients["sketch"].config.chat_adapter is False
    assert clients["encoder"] is None
    monkeypatch.setenv("ENCODER_TOKEN", "tok-e")
    clients = build_clients(RunConfig(encoder_url="http://e",
                                      chat_adapter=True))
    assert clients["encoder"].config.base_url == "http://e"
    assert clients["encoder"].config.auth_token == "tok-e"
    assert clients["encoder"].config.chat_adapter is False
    assert clients["sketch"] is None


@pytest.mark.parametrize("text,message", [
    ("yes: 1", "config key True must be a string, got bool"),
    ("1: 2", "config key 1 must be a string, got int"),
    ("null: x\nfoo: 1", "config key None must be a string, got NoneType"),
])
def test_a_config_key_that_is_not_a_string_is_named(tmp_path, caplog, text,
                                                    message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text + "\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_ERROR
    assert message in caplog.text


# --------------------------------------------------------------------------
# The settings each command reads

COMMANDS = ("serialize", "translate", "calibrate", "evaluate", "derive-train")
SETTINGS = [f.name for f in dataclasses.fields(RunConfig)]

# A value other than the default for each setting.  Paths are relative to
# the directory the commands run in.
OTHER_VALUES = {
    "sketch_url": "http://sketch", "aligner_url": "http://aligner",
    "completer_url": "http://completer", "encoder_url": "http://encoder",
    "chat_adapter": True, "stub_script": "script.json", "k_select": 3,
    "k_from": 3, "k_keywords": 3, "patience": 2, "threshold": 0.5,
    "backend": "encoder", "embeddings": "vectors.txt", "scan_cap": 7,
    "statement_timeout": 3.0, "example_timeout": 9.0, "dataset": "bench",
    "format": "kaggledbqa", "examples_file": "dev.json", "workers": 2,
    "limit": 2, "trace": "trace.json", "output": "out",
    "record_latency": False,
}


def accepted_settings(command: str) -> dict:
    """Each RunConfig field that ``command`` takes a flag for, mapped to
    the flag."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {action.dest: action.option_strings[0]
            for action in commands.choices[command]._actions
            if action.dest in SETTINGS}


def setting_argv(key: str) -> list:
    flag = "--" + key.replace("_", "-")
    return {"chat_adapter": [flag], "record_latency": ["--no-latency"]}.get(
        key, [flag, str(OTHER_VALUES[key])])


def _plain(value):
    """``value`` with dataclasses as dicts and any object that is not plain
    data as its type name, so that two runs' calls compare equal when the
    command passed on the same settings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (str, int, float, Path)):
        return value
    return type(value).__name__


@pytest.fixture
def spied_run(tmp_path, monkeypatch):
    """Run a command in a directory holding a school database, a dataset, a
    stub script and a vector file, with the library entry points replaced
    by recorders.  Each run gives back its exit code, the calls it made
    (with what reached the clients and the backend) and the files it
    wrote."""
    make_school_db(tmp_path / "school.sqlite")
    make_benchmark_dataset(tmp_path / "bench", 5)
    (tmp_path / "script.json").write_text("{}", encoding="utf-8")
    (tmp_path / "vectors.txt").write_text("timmy 1.0 0.0\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    calls = []
    real_build_clients = cli.build_clients
    real_build_backend = cli.build_backend

    def build_clients(config):
        clients = real_build_clients(config)
        calls.append(("build_clients",
                      {role: _plain(getattr(client, "config", client))
                       for role, client in clients.items()}))
        # Every role gets a client, so each command reaches its entry point.
        return {role: object() if client is None else client
                for role, client in clients.items()}

    def build_backend(config, clients):
        backend = real_build_backend(config, clients)
        calls.append(("build_backend", _plain(backend)))
        return backend

    def translate_question(question, schema, db, provider, aligner,
                           selection, *ks):
        calls.append(("translate_question",
                      _plain((question, provider, aligner, selection, ks))))
        return None, SelectionTrace(question, status=STATUS_SELECTED)

    def calibrate_deterministic(db, sql, selection):
        calls.append(("calibrate_deterministic", _plain((sql, selection))))
        return sql, CalibrationFeedback()

    def spy_load_dataset(*args):
        calls.append(("load_dataset", _plain(args)))
        return load_dataset(*args)

    def evaluate(config, bundle):
        calls.append(("evaluate", _plain((config, len(bundle.examples)))))
        return EvalReport(0, 0, 0.0, {}, 0, 0.0, [])

    def derive_training_records(dataset, provider, k_select, k_keywords):
        calls.append(("derive_training_records",
                      _plain((len(dataset), provider, k_select, k_keywords))))
        return [], [], []

    for name, spy in [("build_clients", build_clients),
                      ("build_backend", build_backend),
                      ("translate_question", translate_question),
                      ("calibrate_deterministic", calibrate_deterministic),
                      ("load_dataset", spy_load_dataset),
                      ("evaluate", evaluate),
                      ("derive_training_records", derive_training_records)]:
        monkeypatch.setattr(cli, name, spy)

    def run(argv):
        before = set(tmp_path.rglob("*"))
        calls.clear()
        code = main(argv)
        written = sorted(set(tmp_path.rglob("*")) - before, reverse=True)
        for path in written:  # deepest first
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
        return code, list(calls), [str(p.relative_to(tmp_path))
                                   for p in written]
    return run


def _base_argv(command: str, key: str) -> list:
    """The command with what it needs to reach its entry point and, when
    it reads ``key``, the flags that make ``key`` matter."""
    argv = [command, *{
        "translate": ["--db", "school.sqlite", "--question", SCHOOL_QUESTION],
        "calibrate": ["--db", "school.sqlite", "--sql", SCHOOL_GOLD_SQL],
    }.get(command, [])]
    if command in ("evaluate", "derive-train") and key != "dataset":
        argv += ["--dataset", "bench"]
    needs = {"embeddings": ["--backend", "embedding"],
             "encoder_url": ["--backend", "encoder"],
             "chat_adapter": ["--completer-url", "http://completer"]}
    if command == "calibrate":
        # calibrate builds clients only for the encoder backend.
        needs["stub_script"] = ["--backend", "encoder"]
    if key not in accepted_settings(command):
        return argv
    return argv + needs.get(key, [])


@pytest.mark.parametrize("key", SETTINGS)
@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_takes_exactly_the_settings_it_reads(
        spied_run, tmp_path, caplog, command, key):
    argv = _base_argv(command, key)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({key: OTHER_VALUES[key]}), encoding="utf-8")
    if key in accepted_settings(command):
        unchanged = spied_run(argv)
        changed = spied_run(argv + setting_argv(key))
        assert changed != unchanged
        assert spied_run(argv + ["--config", str(cfg)]) == changed
        return
    with pytest.raises(SystemExit) as err:
        main(argv + setting_argv(key))
    assert err.value.code == 2
    assert main(argv + ["--config", str(cfg)]) == EXIT_ERROR
    assert f"config key {key!r} is not read by {command}" in caplog.text


def test_readme_lists_the_settings_each_command_takes():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Configuration", 1)[1].split("\n## ", 1)[0]
    header, *rows = [line for line in section.splitlines()
                     if line.startswith("| ")]
    commands = [cell.strip() for cell in header.strip("|").split("|")][2:]
    table = {}
    for row in rows:
        key, flag, *marks = [cell.strip()
                             for cell in row.strip("|").split("|")]
        for command, mark in zip(commands, marks, strict=True):
            if mark:
                table.setdefault(command, {})[key.strip("`")] = flag.strip("`")
    assert sorted(commands) == sorted(set(COMMANDS) - {"serialize"})
    assert accepted_settings("serialize") == {}
    for command in commands:
        assert table[command] == accepted_settings(command)
