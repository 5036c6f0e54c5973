import dataclasses
import json
import re
import threading
import time
from dataclasses import asdict

import pytest

from helpers import (is_closed, make_benchmark_dataset, make_school_db,
                     record_connections)

import sketchsql.benchmark as benchmark
from sketchsql.benchmark import (
    BenchmarkExample,
    EvalConfig,
    _evaluate_one,
    _gold_order_sensitive,
    build_gold_echo_script,
    evaluate,
    format_summary,
    load_dataset,
    measure_tokens,
    translate_question,
)
from sketchsql.cli import _write_json
from sketchsql.errors import DatasetIntegrityError, SqlParseError
from sketchsql.execution import Database
from sketchsql.gateway import StubScript, clients_from_script, recording_calls
from sketchsql.selection import SelectionConfig, completion_prompt
from sketchsql.sketches import extract_sketch_from_sql
from sketchsql.sql_analysis import parse_sql

SCHOOL_TIMMY_SQL = "SELECT course FROM Student WHERE given_name = 'timmy'"


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
    for record, kind in (([], "list"), ("q", "str"), (None, "NoneType")):
        (dataset_root / "dev.json").write_text(json.dumps([record]),
                                               encoding="utf-8")
        with pytest.raises(DatasetIntegrityError,
                           match=f"example 0 in .* must be a JSON object, "
                                 f"not {kind}$"):
            load_dataset(dataset_root)
    (dataset_root / "dev.json").write_text(
        '[{"question": "q", "db_id": "school", "query": ""}]',
        encoding="utf-8")
    with pytest.raises(DatasetIntegrityError, match="no gold SQL"):
        load_dataset(dataset_root)
    for key in ("question", "db_id", "SQL"):
        record = {"question": "q", "db_id": "school", "SQL": "SELECT 1", key: [1]}
        (dataset_root / "dev.json").write_text(json.dumps([record]),
                                               encoding="utf-8")
        with pytest.raises(DatasetIntegrityError,
                           match=f"field '{key}' must be a string, not list"):
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


def _order_case(tmp_path, gold, predicted, monkeypatch):
    """Score ``predicted`` against ``gold`` on the two-student school
    database; return whether it is correct and how often the harness
    parsed SQL."""
    root = tmp_path / "order"
    (root / "database" / "school").mkdir(parents=True)
    make_school_db(root / "database" / "school" / "school.sqlite")
    # The script is built from a stand-in gold query that parses, so the
    # real gold query may lie outside the parser's dialect.
    stand_in = "SELECT given_name FROM Student"
    (root / "dev.json").write_text(json.dumps([
        {"question": "names?", "db_id": "school", "query": stand_in}]),
        encoding="utf-8")
    bundle = load_dataset(root)
    schema = bundle.schemas["school"]
    script = build_gold_echo_script(bundle)
    prompt = completion_prompt(
        "names?", schema, extract_sketch_from_sql(stand_in, schema))
    script["complete"][prompt] = [predicted]
    bundle.examples = [BenchmarkExample("names?", "school", gold)]
    parses = []
    parse = benchmark.parse_sql
    monkeypatch.setattr(benchmark, "parse_sql",
                        lambda sql: parses.append(sql) or parse(sql))
    (result,) = evaluate(eval_config(StubScript(script)), bundle).per_example
    return result.correct, len(parses)


@pytest.mark.parametrize("gold,predicted,correct,parses", [
    # two rows in the other order: the gold ORDER BY makes it wrong
    ("SELECT given_name FROM Student ORDER BY id",
     "SELECT given_name FROM Student ORDER BY id DESC", False, 1),
    # without ORDER BY the same rows in another order are right
    ("SELECT given_name FROM Student",
     "SELECT given_name FROM Student ORDER BY id DESC", True, 1),
    # with one row or none, or unequal counts, order cannot matter
    ("SELECT given_name FROM Student WHERE id = 1 ORDER BY id",
     "SELECT given_name FROM Student WHERE id = 1", True, 0),
    ("SELECT given_name FROM Student WHERE id = 9 ORDER BY id",
     "SELECT given_name FROM Student WHERE id = 9", True, 0),
    ("SELECT given_name FROM Student ORDER BY id",
     "SELECT given_name FROM Student WHERE id = 1", False, 0),
    ("SELECT given_name FROM Student ORDER BY id",
     "SELECT given_name, id FROM Student ORDER BY id", False, 0),
    # a gold query outside the dialect falls back to the textual check
    ("SELECT given_name FROM Student "
     "ORDER BY CASE WHEN id = 1 THEN 0 ELSE 1 END",
     "SELECT given_name FROM Student ORDER BY id DESC", False, 1),
    ("SELECT CAST(given_name AS TEXT) FROM Student",
     "SELECT given_name FROM Student ORDER BY id DESC", True, 1),
])
def test_gold_order_is_parsed_only_when_it_can_matter(
        tmp_path, monkeypatch, gold, predicted, correct, parses):
    assert _order_case(tmp_path, gold, predicted, monkeypatch) == \
        (correct, parses)


@pytest.mark.parametrize("gold,predicted,correct,parses", [
    # the prediction's own run stands for the gold: no parse, no compare
    ("SELECT given_name FROM Student ORDER BY id",
     "SELECT given_name FROM Student ORDER BY id", True, 0),
    # a statement that is not deterministic is scored from its one run
    ("SELECT abs(random())", "SELECT abs(random())", True, 0),
])
def test_gold_identical_prediction_is_scored_from_its_one_run(
        tmp_path, monkeypatch, gold, predicted, correct, parses):
    assert _order_case(tmp_path, gold, predicted, monkeypatch) == \
        (correct, parses)


@pytest.mark.parametrize("predicted,correct", [
    ("SELECT given_name FROM Student ORDER BY id", True),
    ("SELECT given_name FROM Student ORDER BY id DESC", False),
])
def test_gold_nested_past_the_parser_depth_is_scored_by_its_text(
        tmp_path, monkeypatch, predicted, correct):
    # SQLite runs 90 nested parentheses (its parser stack holds under 100),
    # past the depth the analyzer's recursion reaches.
    nested = "(" * 90 + "id > 0" + ")" * 90
    gold = f"SELECT given_name FROM Student WHERE {nested} ORDER BY id"
    with pytest.raises(SqlParseError, match="nests too deeply"):
        parse_sql(gold)
    assert _order_case(tmp_path, gold, predicted, monkeypatch) == (correct, 1)


# --------------------------------------------------------------------------
# Statements per example

class CountingDatabase(Database):
    """A Database that records the text of every statement it runs."""

    def __init__(self, path):
        super().__init__(path)
        self.statements = []

    def execute(self, sql, timeout=None):
        self.statements.append(sql)
        return super().execute(sql, timeout)


def _run_counted(root, completion, rewrite=None, patience=1, gold=None):
    """Evaluate the "Which course does timmy take?" example of the
    benchmark dataset at ``root``, with the stub completing its sketch
    as ``completion`` and answering any other prompt with ``rewrite``,
    and with ``gold`` as its gold SQL when given; return the example, its
    result and the statements run."""
    bundle = load_dataset(root)
    example = bundle.examples[2]
    schema = bundle.schemas["school"]
    script = build_gold_echo_script(bundle)
    prompt = completion_prompt(example.question, schema,
                               extract_sketch_from_sql(example.gold_sql,
                                                       schema))
    if gold is not None:
        example = dataclasses.replace(example, gold_sql=gold)
    script["complete"] = {prompt: [completion]}
    if rewrite is not None:
        script["complete"]["*"] = [rewrite]
    clients = clients_from_script(StubScript(script))
    config = EvalConfig(
        selection=SelectionConfig(completer=clients["completer"],
                                  patience=patience),
        provider=clients["sketch"], aligner=clients["aligner"],
        record_latency=False)
    db = CountingDatabase(bundle.db_paths["school"])
    try:
        result = _evaluate_one(example, schema, db, config)
    finally:
        db.close()
    return example, result, db.statements


def test_gold_identical_prediction_runs_once(dataset_root):
    # "timmy" is in the database, so calibration proposes no change, and
    # the check's run scores the prediction and stands for the gold SQL.
    example, result, statements = _run_counted(dataset_root,
                                               SCHOOL_TIMMY_SQL)
    assert example.gold_sql == SCHOOL_TIMMY_SQL
    assert statements == [SCHOOL_TIMMY_SQL]
    assert (result.status, result.predicted_outcome, result.correct) == \
        ("Selected", "rows", True)


def test_changed_calibration_runs_its_rewrite_once(dataset_root):
    typo = SCHOOL_TIMMY_SQL.replace("timmy", "timmie")
    _, result, statements = _run_counted(dataset_root, typo,
                                         rewrite=SCHOOL_TIMMY_SQL)
    assert statements == [typo, SCHOOL_TIMMY_SQL]
    assert result.predicted_sql == SCHOOL_TIMMY_SQL
    assert (result.predicted_outcome, result.correct) == ("rows", True)


def test_prediction_that_only_errored_is_executed_again(dataset_root):
    bad = "SELECT ghost FROM Student"
    example, result, statements = _run_counted(dataset_root, bad,
                                               patience=0)
    assert (result.status, result.predicted_sql) == ("Exhausted", bad)
    assert statements == [bad, example.gold_sql, bad]
    assert (result.predicted_outcome, result.correct) == ("error", False)


def test_gold_equal_to_a_last_run_that_errored_is_executed_again(
        dataset_root):
    bad = "SELECT ghost FROM Student"
    _, result, statements = _run_counted(dataset_root, bad, patience=0,
                                         gold=bad)
    assert statements == [bad, bad]
    assert (result.gold_outcome, result.predicted_outcome,
            result.correct) == ("error", None, False)


def test_gold_differing_in_whitespace_is_executed_and_compared(
        dataset_root, monkeypatch):
    spaced = SCHOOL_TIMMY_SQL.replace(" WHERE", "  WHERE")
    compared = []
    monkeypatch.setattr(benchmark, "results_equal",
                        lambda *args: compared.append(args) or True)
    _, result, statements = _run_counted(dataset_root, SCHOOL_TIMMY_SQL,
                                         gold=spaced)
    assert statements == [SCHOOL_TIMMY_SQL, spaced]
    assert len(compared) == 1 and result.correct


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


@pytest.mark.parametrize("key,value,message", [
    # k_select=0 asked for no Select hypothesis: every example an Error.
    ("k_select", 0, "'k_select' must be at least 1, got 0"),
    ("k_from", 0, "'k_from' must be at least 1, got 0"),
    ("k_keywords", 0, "'k_keywords' must be at least 1, got 0"),
    ("workers", 0, "'workers' must be at least 1, got 0"),
    ("example_timeout", 0.0, "'example_timeout' must be greater than 0, "
                             "got 0.0"),
])
def test_eval_config_checks_the_cli_ranges(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eval_config(StubScript({}), **{key: value})


def test_eval_config_at_its_bounds():
    config = eval_config(StubScript({}), k_select=1, k_from=1, k_keywords=1,
                         workers=1, example_timeout=0.001)
    assert (config.k_select, config.k_from, config.k_keywords, config.workers,
            config.example_timeout) == (1, 1, 1, 1, 0.001)


def test_evaluate_example_timeout_is_post_hoc(dataset_root):
    report, _ = run_gold_echo(dataset_root, example_timeout=1e-9)
    assert report.status_counts == {"Timeout": 6}
    assert report.correct == 0
    for result in report.per_example:
        assert result.predicted_sql is not None  # work completed anyway
        assert result.predicted_outcome is None  # but was not scored


def test_evaluate_parallel_matches_serial(dataset_root, tmp_path):
    serial, _ = run_gold_echo(dataset_root, workers=1)
    parallel, _ = run_gold_echo(dataset_root, workers=3)
    a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
    _write_json(asdict(serial), a)
    _write_json(asdict(parallel), b)
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_two_workers_match_serial_with_calibration(tmp_path):
    root = make_benchmark_dataset(tmp_path / "bench", 24)
    reports = []
    for workers in (1, 2):
        report, _ = run_gold_echo(root, workers=workers, trace=True)
        path = tmp_path / f"workers{workers}.json"
        _write_json(asdict(report), path)
        reports.append(path.read_bytes())
    assert b'"match_value": "timmy"' in reports[0]
    assert reports[0] == reports[1]


# Counts to 2e7: several seconds without a deadline.
SLOW_SQL = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            "WHERE x < 20000000) SELECT count(*) FROM c")


def test_statement_timeout_bounds_gold_and_final_execution(dataset_root):
    """The gold SQL and the scoring run of the prediction get the
    selection's statement deadline too, not the 30 s default."""
    bundle = load_dataset(dataset_root)
    bundle.examples = bundle.examples[1:2]  # a fast gold query
    script = build_gold_echo_script(bundle)
    script["complete"] = {prompt: [SLOW_SQL] for prompt in script["complete"]}
    # No sketch is scripted for this question, so only its gold SQL runs.
    bundle.examples.append(BenchmarkExample("How long?", "school", SLOW_SQL))
    clients = clients_from_script(StubScript(script))
    config = EvalConfig(
        selection=SelectionConfig(completer=clients["completer"], patience=0,
                                  statement_timeout=0.05),
        provider=clients["sketch"], aligner=clients["aligner"],
        record_latency=False)
    started = time.monotonic()
    slow_prediction, slow_gold = evaluate(config, bundle).per_example
    assert time.monotonic() - started < 2.0
    assert (slow_prediction.predicted_sql, slow_prediction.status) == \
        (SLOW_SQL, "Exhausted")
    assert slow_prediction.gold_outcome == "rows"
    assert slow_prediction.predicted_outcome == "error"
    assert (slow_gold.status, slow_gold.gold_outcome) == ("Error", "error")


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
        _write_json(asdict(report), path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_serialization(dataset_root, tmp_path):
    report, _ = run_gold_echo(dataset_root)
    payload = asdict(report)
    assert list(payload["status_counts"]) == \
        sorted(payload["status_counts"])
    path = tmp_path / "report.json"
    _write_json(asdict(report), path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["total"] == 6 and loaded["execution_accuracy"] == 1.0
    assert len(loaded["per_example"]) == 6

    summary = format_summary(report)
    assert "execution accuracy:  1.0000" in summary
    assert "statuses:            Selected=6" in summary
