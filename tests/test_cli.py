import json

import pytest

from helpers import (
    SCHOOL_GOLD_SQL,
    SCHOOL_QUESTION,
    SCHOOL_RECORD,
    make_benchmark_dataset,
    make_school_db,
)

from sketchsql.benchmark import build_gold_echo_script, load_dataset
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
from sketchsql.execution import Database
from sketchsql.selection import completion_prompt
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


def test_translate_missing_db(tmp_path):
    script = write_script(tmp_path, {"score": {"*": [0.9]}})
    assert main(["translate", "--db", str(tmp_path / "none.sqlite"),
                 "--question", "Q?",
                 "--stub-script", str(script)]) == EXIT_ERROR


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["translate"])  # missing required --db/--question
    assert err.value.code == 2


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


def test_calibrate_unparseable_sql(school_path):
    assert main(["calibrate", "--db", str(school_path),
                 "--sql", "SELECT FROM WHERE"]) == EXIT_ERROR


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


# --------------------------------------------------------------------------
# Configuration plumbing

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
         "--example-timeout", "0.001", "--statement-timeout", "0"])
    config = effective_config(args)
    assert (config.k_select, config.k_from, config.k_keywords, config.scan_cap,
            config.workers, config.limit, config.example_timeout,
            config.statement_timeout) == (1, 1, 1, 1, 1, 0, 0.001, 0)


def test_config_values_of_the_right_type_load(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("patience: 2\nthreshold: 1\nstatement_timeout: null\n"
                   "limit: 5\nrecord_latency: false\nembeddings: vec.txt\n",
                   encoding="utf-8")
    args = build_parser().parse_args(["serialize", "--config", str(cfg)])
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
    assert clients["sketch"]._endpoint.config.auth_token == "tok-s"
    assert clients["aligner"]._endpoint.config.auth_token is None
    assert clients["completer"]._endpoint.config.auth_token == "tok-c"
    # the chat adapter applies to the completer endpoint only
    assert clients["completer"].config.chat_adapter is True
    assert clients["sketch"]._endpoint.config.chat_adapter is False
    assert clients["encoder"] is None
