import json
import threading

import pytest

from helpers import (is_closed, make_benchmark_dataset, make_school_db,
                     record_connections)

from sketchsql.benchmark import (
    EvalConfig,
    _gold_order_sensitive,
    build_gold_echo_script,
    evaluate,
    format_summary,
    load_dataset,
    measure_tokens,
    translate_question,
    write_report_json,
)
from sketchsql.errors import DatasetIntegrityError
from sketchsql.execution import Database
from sketchsql.gateway import StubScript, clients_from_script, recording_calls
from sketchsql.selection import SelectionConfig, completion_prompt
from sketchsql.sketches import extract_sketch_from_sql


@pytest.fixture
def dataset_root(tmp_path):
    return make_benchmark_dataset(tmp_path / "bench", 6)


def eval_config(script: StubScript, **kwargs) -> EvalConfig:
    clients = clients_from_script(script)
    kwargs.setdefault("record_latency", False)
    return EvalConfig(selection=SelectionConfig(completer=clients["completer"]),
                      provider=clients["sketch"], aligner=clients["aligner"],
                      **kwargs)


def run_gold_echo(root, **kwargs):
    bundle = load_dataset(root)
    script = StubScript(build_gold_echo_script(bundle))
    return evaluate(eval_config(script, **kwargs), bundle), bundle


# --------------------------------------------------------------------------
# Dataset loading

def test_load_dataset_happy_path(dataset_root):
    bundle = load_dataset(dataset_root)
    assert len(bundle.examples) == 6
    assert set(bundle.db_paths) == {"school"}
    assert bundle.schemas["school"].db_name == "school"
    first = bundle.examples[0]
    assert first.db_id == "school" and first.question and first.gold_sql


def test_load_dataset_explicit_examples_file(dataset_root):
    bundle = load_dataset(dataset_root, examples_file="dev.json")
    assert len(bundle.examples) == 6
    with pytest.raises(DatasetIntegrityError, match="cannot read"):
        load_dataset(dataset_root, examples_file="missing.json")


def test_load_dataset_kaggledbqa_layout(tmp_path):
    root = tmp_path / "kdb"
    (root / "databases" / "school").mkdir(parents=True)
    make_school_db(root / "databases" / "school" / "school.sqlite")
    (root / "examples.json").write_text(json.dumps([
        {"question": "Who?", "db_id": "school",
         "SQL": "SELECT course FROM Student"},
    ]), encoding="utf-8")
    bundle = load_dataset(root, fmt="kaggledbqa")
    assert bundle.examples[0].gold_sql == "SELECT course FROM Student"
    # no tables.json: the schema comes from the database file itself
    assert [t.name for t in bundle.schemas["school"].tables] == \
        ["Course", "Student"]


def test_load_dataset_reports_all_missing_databases(dataset_root):
    examples = [
        {"question": "a?", "db_id": "ghost_a", "query": "SELECT 1"},
        {"question": "b?", "db_id": "ghost_b", "query": "SELECT 1"},
    ]
    (dataset_root / "dev.json").write_text(json.dumps(examples),
                                           encoding="utf-8")
    with pytest.raises(DatasetIntegrityError) as err:
        load_dataset(dataset_root)
    assert "ghost_a" in str(err.value) and "ghost_b" in str(err.value)


def test_load_dataset_validation(tmp_path, dataset_root):
    with pytest.raises(DatasetIntegrityError, match="unknown dataset format"):
        load_dataset(dataset_root, fmt="wikisql")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DatasetIntegrityError, match="no examples file"):
        load_dataset(empty)

    (dataset_root / "dev.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(DatasetIntegrityError, match="cannot read"):
        load_dataset(dataset_root)
    (dataset_root / "dev.json").write_text('{"a": 1}', encoding="utf-8")
    with pytest.raises(DatasetIntegrityError, match="JSON array"):
        load_dataset(dataset_root)
    (dataset_root / "dev.json").write_text(
        '[{"db_id": "school", "query": "SELECT 1"}]', encoding="utf-8")
    with pytest.raises(DatasetIntegrityError, match="lacks field"):
        load_dataset(dataset_root)
    (dataset_root / "dev.json").write_text(
        '[{"question": "q", "db_id": "school", "query": ""}]',
        encoding="utf-8")
    with pytest.raises(DatasetIntegrityError, match="no gold SQL"):
        load_dataset(dataset_root)


# --------------------------------------------------------------------------
# Token accounting

def test_measure_tokens_counts_whitespace_tokens():
    calls = [({"prompt": "a b c d e f g"}, "h i j k l")]
    assert measure_tokens(calls) == 12
    nested = [({"sequences": ["one two", "three"]}, [0.5, 0.25])]
    assert measure_tokens(nested) == 3  # numbers contribute nothing


class _CallCounter:
    """Stands in for the sketch provider, aligner and completer at once,
    forwarding to stub clients and filing each call's (request, response)
    pair under the question it serves, whichever thread makes it."""

    def __init__(self, clients, questions):
        self.clients = clients
        self.calls = {q: [] for q in questions}
        self._lock = threading.Lock()

    def _note(self, text, request, response):
        (owner,) = [q for q in self.calls if f"question: {q}" in text]
        with self._lock:
            self.calls[owner].append((request, response))
        return response

    def generate(self, task_input, k):
        return self._note(task_input, {"input": task_input},
                          self.clients["sketch"].generate(task_input, k))

    def score(self, sequences):
        return self._note(sequences[0], {"sequences": list(sequences)},
                          self.clients["aligner"].score(sequences))

    def complete(self, prompt):
        return self._note(prompt, {"prompt": prompt},
                          self.clients["completer"].complete(prompt))


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_counts_every_model_call_of_its_example(tmp_path, workers):
    root = make_benchmark_dataset(tmp_path / "bench", 8)
    bundle = load_dataset(root)
    counter = _CallCounter(
        clients_from_script(StubScript(build_gold_echo_script(bundle))),
        [ex.question for ex in bundle.examples])
    config = EvalConfig(selection=SelectionConfig(completer=counter),
                        provider=counter, aligner=counter, workers=workers,
                        record_latency=False)
    report = evaluate(config, bundle)
    assert report.correct == 8
    for result in report.per_example:
        calls = counter.calls[result.question]
        # three sketch parts (two of them on the part pool), one ranking,
        # one completion
        assert len(calls) == 5
        assert result.tokens == measure_tokens(calls) > 0


def test_translate_outside_a_recording_block_records_nothing(tmp_path):
    root = make_benchmark_dataset(tmp_path / "bench", 1)
    bundle = load_dataset(root)
    (example,) = bundle.examples
    clients = clients_from_script(StubScript(build_gold_echo_script(bundle)))
    selection = SelectionConfig(completer=clients["completer"])
    db = Database(bundle.db_paths["school"])

    def translate():
        return translate_question(example.question, bundle.schemas["school"],
                                  db, clients["sketch"], clients["aligner"],
                                  selection)
    try:
        with recording_calls() as calls:
            assert translate()[0] == example.gold_sql
        assert len(calls) == 5
        assert translate()[0] == example.gold_sql
    finally:
        db.close()
    assert len(calls) == 5


# --------------------------------------------------------------------------
# Gold ordering

def test_gold_order_sensitive():
    assert _gold_order_sensitive("SELECT a FROM t ORDER BY a")
    assert not _gold_order_sensitive("SELECT a FROM t")
    # unparseable input falls back to a textual check
    assert _gold_order_sensitive("SELECT !! order by x")
    assert not _gold_order_sensitive("SELECT !! ordered")


# --------------------------------------------------------------------------
# Evaluation

def test_gold_echo_script_shape(dataset_root):
    bundle = load_dataset(dataset_root)
    script = build_gold_echo_script(bundle)
    assert set(script) == {"generate", "score", "complete"}
    assert script["score"] == {"*": [0.9]}
    assert len(script["generate"]) == 18  # three subtasks per question
    assert len(script["complete"]) == 6


def test_evaluate_gold_echo_is_perfect(dataset_root):
    report, _ = run_gold_echo(dataset_root, trace=True)
    assert report.total == 6 and report.correct == 6
    assert report.execution_accuracy == 1.0
    assert report.status_counts == {"Selected": 6}
    assert report.tokens_total > 0
    assert report.tokens_average == report.tokens_total / 6
    for result in report.per_example:
        assert result.correct and result.predicted_sql == result.gold_sql
        assert result.predicted_outcome == "rows"
        assert result.latency is None and result.error is None
        assert result.trace["status"] == "Selected"


def test_evaluate_without_trace_or_latency_flags(dataset_root):
    bundle = load_dataset(dataset_root)
    script = StubScript(build_gold_echo_script(bundle))
    config = eval_config(script, record_latency=True)
    report = evaluate(config, bundle)
    for result in report.per_example:
        assert result.trace is None
        assert result.latency is not None and result.latency >= 0.0


def test_evaluate_row_order_counts_only_with_order_by(tmp_path):
    root = tmp_path / "order"
    (root / "database" / "school").mkdir(parents=True)
    make_school_db(root / "database" / "school" / "school.sqlite")
    examples = [
        {"question": "ordered names?", "db_id": "school",
         "query": "SELECT given_name FROM Student ORDER BY id"},
        {"question": "names?", "db_id": "school",
         "query": "SELECT given_name FROM Student"},
    ]
    (root / "dev.json").write_text(json.dumps(examples), encoding="utf-8")
    bundle = load_dataset(root)
    script_dict = build_gold_echo_script(bundle)
    # make both predictions return the same rows in reversed order
    reversed_sql = "SELECT given_name FROM Student ORDER BY id DESC"
    for example in bundle.examples:
        schema = bundle.schemas["school"]
        prompt = completion_prompt(
            example.question, schema,
            extract_sketch_from_sql(example.gold_sql, schema))
        script_dict["complete"][prompt] = [reversed_sql]
    report = evaluate(eval_config(StubScript(script_dict)), bundle)
    by_question = {r.question: r.correct for r in report.per_example}
    assert by_question == {"ordered names?": False, "names?": True}


def test_evaluate_isolates_per_example_failures(dataset_root):
    bundle = load_dataset(dataset_root)
    script_dict = build_gold_echo_script(bundle)
    victim = bundle.examples[0]
    (prompt,) = [key for key in script_dict["complete"]
                 if f"question: {victim.question} " in key]
    del script_dict["complete"][prompt]
    report = evaluate(eval_config(StubScript(script_dict)), bundle)
    assert report.status_counts == {"Error": 1, "Selected": 5}
    (failed,) = [r for r in report.per_example if r.status == "Error"]
    assert failed.question == victim.question
    assert failed.predicted_sql is None and not failed.correct
    assert failed.error.startswith("StubScriptError")
    assert failed.gold_outcome == "rows"  # gold still executed and scored


def test_evaluate_example_timeout_is_post_hoc(dataset_root):
    report, _ = run_gold_echo(dataset_root, example_timeout=0.0)
    assert report.status_counts == {"Timeout": 6}
    assert report.correct == 0
    for result in report.per_example:
        assert result.predicted_sql is not None  # work completed anyway
        assert result.predicted_outcome is None  # but was not scored


def test_evaluate_parallel_matches_serial(dataset_root, tmp_path):
    serial, _ = run_gold_echo(dataset_root, workers=1)
    parallel, _ = run_gold_echo(dataset_root, workers=3)
    a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
    write_report_json(serial, a)
    write_report_json(parallel, b)
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_two_workers_match_serial_with_calibration(tmp_path):
    root = make_benchmark_dataset(tmp_path / "bench", 24)
    reports = []
    for workers in (1, 2):
        report, _ = run_gold_echo(root, workers=workers, trace=True)
        path = tmp_path / f"workers{workers}.json"
        write_report_json(report, path)
        reports.append(path.read_bytes())
    assert b'"match_value": "timmy"' in reports[0]
    assert reports[0] == reports[1]


def test_evaluate_closes_its_databases(dataset_root, monkeypatch):
    closed = []
    close = Database.close

    def recording_close(self):
        closed.append(self.path)
        close(self)

    monkeypatch.setattr(Database, "close", recording_close)
    report, bundle = run_gold_echo(dataset_root)
    assert report.correct == 6
    assert closed == [str(bundle.db_paths["school"])]


def test_evaluate_pools_statement_connections(tmp_path, monkeypatch):
    root = make_benchmark_dataset(tmp_path / "bench", 24)
    opened = record_connections(monkeypatch)
    held = []
    close = Database.close

    def recording_close(self):
        held.append(self._held)  # the calibration scan connection, if any
        close(self)

    monkeypatch.setattr(Database, "close", recording_close)
    report, _ = run_gold_echo(root, workers=3)
    assert report.correct == 24
    assert held and held[0] is not None  # calibration scanned values
    statement = [c for c in opened if c is not held[0]]
    assert 1 <= len(statement) <= 3
    assert all(is_closed(conn) for conn in opened)


def test_evaluate_is_deterministic(dataset_root, tmp_path):
    paths = []
    for name in ("one.json", "two.json"):
        report, _ = run_gold_echo(dataset_root, trace=True)
        path = tmp_path / name
        write_report_json(report, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_serialization(dataset_root, tmp_path):
    report, _ = run_gold_echo(dataset_root)
    payload = report.to_dict()
    assert list(payload["status_counts"]) == \
        sorted(payload["status_counts"])
    path = tmp_path / "report.json"
    write_report_json(report, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["total"] == 6 and loaded["execution_accuracy"] == 1.0
    assert len(loaded["per_example"]) == 6

    summary = format_summary(report)
    assert "execution accuracy:  1.0000" in summary
    assert "statuses:            Selected=6" in summary
