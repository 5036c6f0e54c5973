import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import asdict

import pytest

from helpers import SCHOOL_GOLD_SQL, make_benchmark_dataset

import sketchsql.sketches as sketches_module
from sketchsql.benchmark import (
    EvalConfig,
    build_gold_echo_script,
    evaluate,
    load_dataset,
)
from sketchsql.errors import (
    EmptyCandidateError,
    ProtocolError,
    ProviderUnavailableError,
    SchemaMismatchError,
    StubScriptError,
)
from sketchsql.gateway import StubScript, clients_from_script, recording_calls
from sketchsql.selection import SelectionConfig
from sketchsql.sketches import (
    DEFAULT_K_FROM,
    DEFAULT_K_KEYWORDS,
    DEFAULT_K_SELECT,
    INSTRUCTION_SELECT,
    INSTRUCTIONS,
    PART_FROM,
    PART_KEYWORDS,
    PART_KINDS,
    PART_SELECT,
    AlignerRecord,
    SketchPart,
    _request_parts,
    build_aligner_input,
    build_sketches,
    build_task_input,
    combine_candidates,
    derive_aligner_records,
    derive_training_records,
    extract_keywords,
    extract_sketch_from_sql,
    sanitize_keywords,
    write_records_jsonl,
)
from sketchsql.sql_analysis import parse_sql


def part(kind, content):
    return SketchPart(kind, content)


# --------------------------------------------------------------------------
# Keyword extraction and sanitizing

def test_extract_keywords_order_and_dedupe():
    parsed = parse_sql(
        "SELECT DISTINCT a FROM t WHERE a NOT IN (SELECT b FROM u) "
        "GROUP BY a HAVING count(*) > 1 ORDER BY a LIMIT 5")
    assert extract_keywords(parsed) == [
        "SELECT", "DISTINCT", "FROM", "WHERE", "NOT IN", "GROUP BY",
        "HAVING", "ORDER BY", "LIMIT"]


def test_extract_keywords_negation_and_join_variants():
    parsed = parse_sql(
        "SELECT a FROM t LEFT JOIN u ON t.a = u.a "
        "WHERE a NOT LIKE '%x%' AND b BETWEEN 1 AND 2")
    assert extract_keywords(parsed) == \
        ["SELECT", "FROM", "JOIN", "WHERE", "LIKE", "BETWEEN"]


@pytest.mark.parametrize("raw,expected", [
    ("select, from, where", "SELECT FROM WHERE"),
    ("Select blah From", "SELECT FROM"),
    ("group by order by", "GROUP BY ORDER BY"),
    ("FROM from FROM", "FROM"),
    ("blah blah", None),
    ("", None),
])
def test_sanitize_keywords(raw, expected):
    assert sanitize_keywords(raw) == expected


def test_sketch_part_validation():
    with pytest.raises(ValueError):
        SketchPart("Order", "x")
    with pytest.raises(ValueError):
        SketchPart(PART_SELECT, "   ")
    with pytest.raises(ValueError):
        SketchPart(PART_KEYWORDS, "SELECT BLARG FROM")
    SketchPart(PART_KEYWORDS, "SELECT FROM WHERE")  # canonical: fine


# --------------------------------------------------------------------------
# Provider/aligner input construction

def test_build_task_input_golden(school_schema):
    assert build_task_input(INSTRUCTION_SELECT, "Who?", school_schema) == (
        "Generate the select clause of this question according to the "
        "database. question: Who? database: school: "
        "t0: Course (c0: id, c1: course, c2: teacher) "
        "t1: Student (c0: id, c1: given_name, c2: last_name, c3: course, "
        "c4: score)")
    with pytest.raises(ValueError):
        build_task_input("", "Who?", school_schema)
    with pytest.raises(ValueError):
        build_task_input(INSTRUCTION_SELECT, "", school_schema)


def test_combine_candidates_order_and_dedupe():
    s0, s1 = part(PART_SELECT, "SELECT t0.c0"), part(PART_SELECT, "SELECT *")
    k0, k1 = part(PART_KEYWORDS, "SELECT FROM"), part(PART_KEYWORDS, "SELECT WHERE")
    assert combine_candidates([s0, s1], [k0, k1]) == \
        [(s0, k0), (s0, k1), (s1, k0), (s1, k1)]
    dup = part(PART_SELECT, "SELECT t0.c0")
    assert combine_candidates([s0, dup], [k0]) == [(s0, k0)]
    with pytest.raises(EmptyCandidateError):
        combine_candidates([], [k0])
    with pytest.raises(EmptyCandidateError):
        combine_candidates([s0], [])


def test_build_aligner_input_golden():
    pair = (part(PART_SELECT, "SELECT t1.c3"),
            part(PART_KEYWORDS, "SELECT FROM WHERE"))
    assert build_aligner_input("Who teaches math?", pair) == (
        "[CLS] user question: Who teaches math?. "
        "our solution: SELECT t1.c3, SELECT FROM WHERE [SEP]")


# --------------------------------------------------------------------------
# Gold-SQL sketch extraction

def test_extract_sketch_golden(school_schema):
    sketch = extract_sketch_from_sql(SCHOOL_GOLD_SQL, school_schema)
    assert sketch.select_part.content == "SELECT t1.c3"
    assert sketch.from_part.content == "FROM t1"
    assert sketch.keywords_part.content == "SELECT FROM WHERE ORDER BY LIMIT"
    assert sketch.rank == 0


@pytest.mark.parametrize("sql,select,fr,kw", [
    ("SELECT count(*), max(score) FROM Student",
     "SELECT count(*), max(t1.c4)", "FROM t1", "SELECT FROM"),
    ("SELECT T1.course FROM Student AS T1 JOIN Course AS T2 "
     "ON T1.course = T2.course",
     "SELECT t1.c3", "FROM t1, t0", "SELECT FROM JOIN"),
    ("SELECT course FROM Student UNION SELECT course FROM Course",
     "SELECT t1.c3", "FROM t1, t0", "SELECT FROM UNION"),
    ("SELECT T1.* FROM Student AS T1", "SELECT t1.*", "FROM t1",
     "SELECT FROM"),
    ("SELECT * FROM Course", "SELECT *", "FROM t0", "SELECT FROM"),
])
def test_extract_sketch_cases(school_schema, sql, select, fr, kw):
    sketch = extract_sketch_from_sql(sql, school_schema)
    assert sketch.select_part.content == select
    assert sketch.from_part.content == fr
    assert sketch.keywords_part.content == kw


@pytest.mark.parametrize("sql", [
    "SELECT x FROM ghost",
    "SELECT ghost FROM Student",
    "SELECT G.ghost FROM Student AS G",
    "SELECT 1",
])
def test_extract_sketch_mismatches(school_schema, sql):
    with pytest.raises(SchemaMismatchError):
        extract_sketch_from_sql(sql, school_schema)


# --------------------------------------------------------------------------
# Training-record derivation

def test_derive_training_records(school_schema):
    dataset = [
        ("Which course does timmy take?", school_schema, SCHOOL_GOLD_SQL),
        ("broken", school_schema, "SELECT FROM WHERE"),
        ("Count students", school_schema, "SELECT count(*) FROM Student"),
    ]
    records, _, diagnostics = derive_training_records(dataset)
    assert len(records) == 6
    assert [r.subtask for r in records[:3]] == ["Select", "From", "Keywords"]
    first = records[0]
    assert first.instruction == INSTRUCTIONS[PART_SELECT]
    assert first.question == "Which course does timmy take?"
    assert first.label == "SELECT t1.c3"
    assert first.serialized_schema.startswith("school: t0: Course")
    assert records[1].label == "FROM t1"
    assert records[2].label == "SELECT FROM WHERE ORDER BY LIMIT"
    assert len(diagnostics) == 1 and diagnostics[0].startswith("example 1:")


def test_sketch_parts_follow_the_kind_order(school_schema):
    sketch = extract_sketch_from_sql(SCHOOL_GOLD_SQL, school_schema)
    assert sketch.parts == (sketch.select_part, sketch.from_part,
                            sketch.keywords_part)
    assert tuple(p.kind for p in sketch.parts) == PART_KINDS


def _bench_dataset(tmp_path):
    bundle = load_dataset(make_benchmark_dataset(tmp_path / "bench", 5))
    dataset = [(ex.question, bundle.schemas[ex.db_id], ex.gold_sql)
               for ex in bundle.examples]
    return bundle, dataset


def test_derive_training_records_labels_the_gold_pair(tmp_path):
    _, dataset = _bench_dataset(tmp_path)
    records, aligner_records, diagnostics = derive_training_records(dataset)
    assert len(records) == 15 and diagnostics == []
    assert [(r.question, r.select_part, r.keywords_part, r.label)
            for r in aligner_records] == [
        (records[i].question, records[i].label, records[i + 2].label, 1)
        for i in range(0, 15, 3)]


def test_derive_training_records_labels_provider_candidates(tmp_path):
    bundle, dataset = _bench_dataset(tmp_path)
    script = build_gold_echo_script(bundle)
    question, schema, gold_sql = dataset[0]
    gold = extract_sketch_from_sql(gold_sql, schema)
    select_key = build_task_input(INSTRUCTION_SELECT, question, schema)
    script["generate"][select_key] = [["SELECT *", gold.select_part.content]]
    records, aligner_records, diagnostics = derive_training_records(
        dataset, StubScript(script))
    assert len(records) == 15 and diagnostics == []
    assert [r.label for r in aligner_records] == [0, 1, 1, 1, 1, 1]
    assert [r.select_part for r in aligner_records[:2]] == \
        ["SELECT *", gold.select_part.content]


def test_derive_training_records_asks_for_select_and_keywords_only(tmp_path):
    """Aligner pairs are made from Select and Keywords candidates, so no
    From request is sent."""
    bundle, dataset = _bench_dataset(tmp_path)
    with recording_calls() as calls:
        _, aligner_records, _ = derive_training_records(
            dataset, StubScript(build_gold_echo_script(bundle)))
    assert len(aligner_records) == 5
    assert sorted(request["input"] for request, _ in calls) == sorted(
        build_task_input(INSTRUCTIONS[kind], question, schema)
        for question, schema, _ in dataset
        for kind in (PART_SELECT, PART_KEYWORDS))


def test_derive_training_records_lets_programming_errors_through(
        school_schema, monkeypatch):
    def broken_extract(sql, schema):
        raise KeyError("t9")

    monkeypatch.setattr(sketches_module, "extract_sketch_from_sql",
                        broken_extract)
    with pytest.raises(KeyError, match="t9"):
        derive_training_records([("Q?", school_schema, SCHOOL_GOLD_SQL)])


def test_derive_aligner_records():
    pairs = [
        (part(PART_SELECT, "select  T1.C3"), part(PART_KEYWORDS, "SELECT FROM")),
        (part(PART_SELECT, "SELECT t1.c3"), part(PART_KEYWORDS, "SELECT WHERE")),
        (part(PART_SELECT, "SELECT t1.c0"), part(PART_KEYWORDS, "SELECT FROM")),
    ]
    records = derive_aligner_records("Q?", pairs, "SELECT t1.c3", "SELECT FROM")
    assert [r.label for r in records] == [1, 0, 0]
    assert records[0] == AlignerRecord("Q?", "select  T1.C3", "SELECT FROM", 1)


def test_write_records_jsonl(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records_jsonl(
        [AlignerRecord("Q?", "SELECT t1.c3", "SELECT FROM", 1)], path)
    assert path.read_text(encoding="utf-8") == (
        '{"question": "Q?", "select_part": "SELECT t1.c3", '
        '"keywords_part": "SELECT FROM", "label": 1}\n')


def test_write_records_jsonl_roundtrip(tmp_path, school_schema):
    records, _, _ = derive_training_records(
        [("Q?", school_schema, SCHOOL_GOLD_SQL)])
    path = tmp_path / "train.jsonl"
    write_records_jsonl(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["subtask"] for line in lines] == \
        ["Select", "From", "Keywords"]


# --------------------------------------------------------------------------
# Live candidate generation through stubs

THREE_PARTS = ((PART_SELECT, DEFAULT_K_SELECT), (PART_FROM, DEFAULT_K_FROM),
               (PART_KEYWORDS, DEFAULT_K_KEYWORDS))


def _task_inputs(question, schema):
    return {kind: build_task_input(INSTRUCTIONS[kind], question, schema)
            for kind in (PART_SELECT, PART_FROM, PART_KEYWORDS)}


def test_request_parts_sanitizes(school_schema):
    inputs = _task_inputs("Q?", school_schema)
    script = StubScript({"generate": {
        inputs[PART_SELECT]: [["SELECT t1.c3", "SELECT t1.c3", "  ",
                               "SELECT *"]],
        inputs[PART_FROM]: [["FROM t1", "FROM t1, t0"]],
        inputs[PART_KEYWORDS]: [["select from where", "blah",
                                 "SELECT FROM WHERE"]],
    }})
    selects, froms, keywords = _request_parts(script, "Q?", school_schema,
                                              THREE_PARTS)
    assert [p.content for p in selects] == \
        ["SELECT t1.c3", "SELECT *"]
    assert [p.content for p in froms] == \
        ["FROM t1", "FROM t1, t0"]
    assert [p.content for p in keywords] == \
        ["SELECT FROM WHERE"]


def test_build_sketches_end_to_end(school_schema):
    question = "Which course does timmy take?"
    inputs = _task_inputs(question, school_schema)
    script = StubScript({
        "generate": {
            inputs[PART_SELECT]: [["SELECT t1.c0", "SELECT t1.c3"]],
            inputs[PART_FROM]: [["FROM t1", "FROM t1, t0"]],
            inputs[PART_KEYWORDS]: [["SELECT FROM WHERE"]],
        },
        "score": {
            build_aligner_input(question, (part(PART_SELECT, "SELECT t1.c3"),
                                           part(PART_KEYWORDS,
                                                "SELECT FROM WHERE"))): [0.9],
            "*": [0.2],
        },
    })
    sketches = build_sketches(script, script, question, school_schema)
    assert len(sketches) == 2
    assert all(s.select_part.content == "SELECT t1.c3" for s in sketches)
    assert [s.from_part.content for s in sketches] == \
        ["FROM t1", "FROM t1, t0"]
    assert [s.rank for s in sketches] == [0, 1]


def _sketch_script(question, schema, froms, scores):
    """A script whose Select and Keywords candidates make four pairs, in
    order: (SELECT *, SELECT FROM), (SELECT *, SELECT WHERE), (SELECT
    t1.c3, SELECT FROM) and (SELECT t1.c3, SELECT WHERE).  The aligner
    answers each pair's score from ``scores``."""
    inputs = _task_inputs(question, schema)
    pairs = [(select, kw) for select in ("SELECT *", "SELECT t1.c3")
             for kw in ("SELECT FROM", "SELECT WHERE")]
    return StubScript({
        "generate": {
            inputs[PART_SELECT]: [["SELECT *", "SELECT t1.c3"]],
            inputs[PART_FROM]: [froms],
            inputs[PART_KEYWORDS]: [["SELECT FROM", "SELECT WHERE"]],
        },
        "score": {build_aligner_input(question, (part(PART_SELECT, select),
                                                 part(PART_KEYWORDS, kw))):
                  [score] for (select, kw), score in zip(pairs, scores)},
    })


def test_build_sketches_gives_a_tie_to_the_earlier_pair(school_schema):
    script = _sketch_script("Q?", school_schema, ["FROM t1"], [0.2, 0.9, 0.9, 0.1])
    sketch, = build_sketches(script, script, "Q?", school_schema)
    assert (sketch.select_part, sketch.keywords_part) == \
        (part(PART_SELECT, "SELECT *"), part(PART_KEYWORDS, "SELECT WHERE"))


def test_build_sketches_makes_one_sketch_per_from_candidate(school_schema):
    froms = ["FROM t1, t0", "FROM t0"]
    script = _sketch_script("Q?", school_schema, froms, [0.1, 0.2, 0.7, 0.3])
    sketches = build_sketches(script, script, "Q?", school_schema)
    assert [(s.rank, s.from_part.content) for s in sketches] == \
        list(enumerate(froms))
    select, keywords = part(PART_SELECT, "SELECT t1.c3"), \
        part(PART_KEYWORDS, "SELECT FROM")
    assert all(s.select_part == select and s.keywords_part == keywords
               for s in sketches)


def test_build_sketches_without_from_fails_after_the_aligner(school_schema):
    """The example still records its three part requests and its one
    aligner call, so its tokens count them."""
    script = _sketch_script("Q?", school_schema, ["  ", ""], [0.5] * 4)
    with recording_calls() as calls:
        with pytest.raises(EmptyCandidateError, match="no FROM candidates"):
            build_sketches(script, script, "Q?", school_schema)
    assert sorted(next(iter(request)) for request, _ in calls) == \
        ["input", "input", "input", "sequences"]
    assert calls[-1][0] == {"sequences": [
        build_aligner_input("Q?", pair) for pair in combine_candidates(
            [part(PART_SELECT, "SELECT *"), part(PART_SELECT, "SELECT t1.c3")],
            [part(PART_KEYWORDS, "SELECT FROM"),
             part(PART_KEYWORDS, "SELECT WHERE")])]}


class FixedAligner:
    """An aligner that answers every request with ``scores``."""

    def __init__(self, scores):
        self.scores = scores

    def score(self, sequences):
        return list(self.scores)


@pytest.mark.parametrize("scores,message", [
    ([0.2, 0.9], "2 score"),
    ([0.1, float("nan"), 0.3, 0.4], "nan"),
    ([0.1, 1.5, 0.3, 0.4], "1.5"),
])
def test_build_sketches_raises_a_malformed_aligner_answer(school_schema,
                                                          scores, message):
    script = _sketch_script("Q?", school_schema, ["FROM t1"], [0.5] * 4)
    with pytest.raises(ProtocolError, match=message):
        build_sketches(script, FixedAligner(scores), "Q?", school_schema)


# --------------------------------------------------------------------------
# Concurrent part requests

class PartProvider:
    """Sketch provider that answers each part's request through its own
    callable, so a test can make one part wait, fail or meet the others."""

    def __init__(self, question, schema, answers):
        self.kind_of = {build_task_input(INSTRUCTIONS[kind], question, schema):
                        kind for kind in PART_KINDS}
        self.answers = answers

    def generate(self, task_input, k):
        return self.answers[self.kind_of[task_input]]()


GOOD_ANSWERS = {PART_SELECT: ["SELECT t1.c3"], PART_FROM: ["FROM t1"],
                PART_KEYWORDS: ["SELECT FROM WHERE"]}


def answer(kind):
    return lambda: list(GOOD_ANSWERS[kind])


def test_part_requests_are_in_flight_together(school_schema):
    barrier = threading.Barrier(3, timeout=5)

    def meet(kind):
        def call():
            barrier.wait()  # BrokenBarrierError unless all three meet
            return answer(kind)()
        return call

    provider = PartProvider("Q?", school_schema,
                            {kind: meet(kind) for kind in PART_KINDS})
    selects, froms, keywords = _request_parts(provider, "Q?", school_schema,
                                              THREE_PARTS)
    assert selects == (part(PART_SELECT, "SELECT t1.c3"),)
    assert froms == (part(PART_FROM, "FROM t1"),)
    assert keywords == \
        (part(PART_KEYWORDS, "SELECT FROM WHERE"),)


FAILURES = {PART_SELECT: (ProviderUnavailableError, "select endpoint down"),
            PART_FROM: (ProviderUnavailableError, "from endpoint down"),
            PART_KEYWORDS: (ProtocolError, "keywords response malformed")}


def failure(kind):
    error, message = FAILURES[kind]
    return error(message)


# (parts that fail, the part whose failure is raised)
FAILURE_ORDERS = [
    ((PART_FROM, PART_KEYWORDS), PART_FROM),
    ((PART_SELECT, PART_FROM, PART_KEYWORDS), PART_SELECT),
    ((PART_SELECT, PART_KEYWORDS), PART_SELECT),
    ((PART_KEYWORDS,), PART_KEYWORDS),
]


@pytest.mark.parametrize("failing,raised", FAILURE_ORDERS)
def test_first_failure_in_part_order_is_raised(school_schema, failing, raised):
    keywords_failed = threading.Event()

    def fail(kind):
        def call():
            if kind == PART_KEYWORDS:
                keywords_failed.set()
            else:
                keywords_failed.wait(timeout=5)  # fail after Keywords has
            raise failure(kind)
        return call

    answers = {kind: fail(kind) if kind in failing else answer(kind)
               for kind in PART_KINDS}
    provider = PartProvider("Q?", school_schema, answers)
    error, message = FAILURES[raised]
    with pytest.raises(Exception) as caught:
        _request_parts(provider, "Q?", school_schema, THREE_PARTS)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("failing", [PART_SELECT, PART_FROM])
def test_no_part_request_outlives_a_failure(school_schema, failing):
    finished = []

    def slow_keywords():
        time.sleep(0.2)
        finished.append(PART_KEYWORDS)
        return list(GOOD_ANSWERS[PART_KEYWORDS])

    def fail():
        raise failure(failing)

    answers = {PART_SELECT: answer(PART_SELECT), PART_FROM: answer(PART_FROM),
               PART_KEYWORDS: slow_keywords, failing: fail}
    provider = PartProvider("Q?", school_schema, answers)
    with pytest.raises(ProviderUnavailableError):
        _request_parts(provider, "Q?", school_schema, THREE_PARTS)
    assert finished == [PART_KEYWORDS]


@pytest.fixture
def busy_part_pool(monkeypatch):
    """A part pool whose only worker is kept busy, so that no part request
    submitted to it starts there."""
    release = threading.Event()
    pool = ThreadPoolExecutor(max_workers=1)
    pool.submit(release.wait, 5)
    monkeypatch.setattr(sketches_module, "_part_pool", pool)
    yield pool
    release.set()
    pool.shutdown()


def test_unstarted_part_requests_run_on_the_calling_thread(school_schema,
                                                           busy_part_pool):
    ran = []

    def on_thread(kind):
        def call():
            ran.append((kind, threading.current_thread()))
            return answer(kind)()
        return call

    provider = PartProvider("Q?", school_schema,
                            {kind: on_thread(kind) for kind in PART_KINDS})
    with recording_calls() as calls:
        _, froms, _ = _request_parts(provider, "Q?", school_schema,
                                     THREE_PARTS)
    caller = threading.current_thread()
    assert ran == [(kind, caller) for kind in PART_KINDS]
    inputs = _task_inputs("Q?", school_schema)
    assert calls == [({"input": inputs[kind]}, GOOD_ANSWERS[kind])
                     for kind in PART_KINDS]
    assert froms == (part(PART_FROM, "FROM t1"),)


def test_a_started_part_request_is_waited_for_and_not_run_again(
        school_schema):
    from_started = threading.Event()
    ran = []

    def select():
        assert from_started.wait(timeout=5)  # From is on a pool thread
        ran.append((PART_SELECT, threading.current_thread()))
        return answer(PART_SELECT)()

    def slow_from():
        from_started.set()
        time.sleep(0.2)  # still running when the caller looks at it
        ran.append((PART_FROM, threading.current_thread()))
        return answer(PART_FROM)()

    def keywords():
        ran.append((PART_KEYWORDS, threading.current_thread()))
        return answer(PART_KEYWORDS)()

    provider = PartProvider("Q?", school_schema,
                            {PART_SELECT: select, PART_FROM: slow_from,
                             PART_KEYWORDS: keywords})
    _, froms, _ = _request_parts(provider, "Q?", school_schema,
                                 THREE_PARTS)
    threads = dict(ran)
    assert sorted(kind for kind, _ in ran) == sorted(PART_KINDS)
    assert threads[PART_SELECT] is threading.current_thread()
    assert threads[PART_FROM] is not threading.current_thread()
    assert froms == (part(PART_FROM, "FROM t1"),)


@pytest.mark.parametrize("failing,raised", FAILURE_ORDERS)
def test_caller_run_failures_raise_the_first_after_all_finish(
        school_schema, busy_part_pool, failing, raised):
    finished = []

    def run(kind):
        def call():
            finished.append(kind)
            if kind in failing:
                raise failure(kind)
            return answer(kind)()
        return call

    provider = PartProvider("Q?", school_schema,
                            {kind: run(kind) for kind in PART_KINDS})
    error, message = FAILURES[raised]
    with pytest.raises(Exception) as caught:
        _request_parts(provider, "Q?", school_schema, THREE_PARTS)
    assert type(caught.value) is error and str(caught.value) == message
    assert finished == list(PART_KINDS)


def test_part_requests_work_in_a_forked_child(school_schema):
    provider = PartProvider("Q?", school_schema,
                            {kind: answer(kind) for kind in PART_KINDS})
    _request_parts(provider, "Q?", school_schema, THREE_PARTS)  # pool in use
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            signal.alarm(10)  # a child whose requests never run dies here
            _, froms, _ = _request_parts(provider, "Q?", school_schema,
                                         THREE_PARTS)
            code = 0 if froms else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


class ForwardingProvider:
    """Sketch provider that forwards to a client and declares nothing
    about blocking, so its part requests overlap on the part pool."""

    def __init__(self, client):
        self.client = client

    def generate(self, task_input, k):
        return self.client.generate(task_input, k)


def _stub_report(bundle, script, workers, forward=False):
    """The traced stubbed report of ``bundle`` as JSON.  With ``forward``
    the sketch client sits behind a :class:`ForwardingProvider`."""
    clients = clients_from_script(StubScript(script))
    provider = clients["sketch"]
    config = EvalConfig(
        selection=SelectionConfig(completer=clients["completer"]),
        provider=ForwardingProvider(provider) if forward else provider,
        aligner=clients["aligner"], workers=workers, trace=True,
        record_latency=False)
    return json.dumps(asdict(evaluate(config, bundle)), sort_keys=True)


def test_concurrent_parts_keep_reports_identical(tmp_path):
    bundle = load_dataset(make_benchmark_dataset(tmp_path / "bench", 24))
    script = build_gold_echo_script(bundle)

    def report(workers):
        return _stub_report(bundle, script, workers, forward=True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [report(2), report(1), report(2)]
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]
    assert json.loads(runs[0])["tokens_total"] > 0


# --------------------------------------------------------------------------
# In-process part requests

class RaisingPool(Executor):
    """A part pool that fails every request handed to it."""

    def submit(self, fn, /, *args, **kwargs):
        raise AssertionError("a part request reached the part pool")


@pytest.fixture
def raising_part_pool(monkeypatch):
    monkeypatch.setattr(sketches_module, "_part_pool", RaisingPool())


class NotingScript(StubScript):
    """A stub script that notes the input and thread of each generate
    call, answered or not."""

    def __init__(self, sections):
        super().__init__(sections)
        self.asked = []

    def generate(self, task_input, k):
        self.asked.append((task_input, threading.current_thread()))
        return super().generate(task_input, k)


def test_stub_parts_run_in_order_on_the_calling_thread(school_schema,
                                                       raising_part_pool):
    inputs = _task_inputs("Q?", school_schema)
    script = NotingScript({"generate": {inputs[kind]: [GOOD_ANSWERS[kind]]
                                        for kind in PART_KINDS}})
    with recording_calls() as calls:
        parts = _request_parts(script, "Q?", school_schema, THREE_PARTS)
    caller = threading.current_thread()
    assert script.asked == [(inputs[kind], caller) for kind in PART_KINDS]
    assert calls == [({"input": inputs[kind]}, GOOD_ANSWERS[kind])
                     for kind in PART_KINDS]
    assert parts == [(part(kind, GOOD_ANSWERS[kind][0]),)
                     for kind in PART_KINDS]


@pytest.mark.parametrize("failing,raised", FAILURE_ORDERS)
def test_stub_part_failures_raise_the_first_after_all_run(
        school_schema, raising_part_pool, failing, raised):
    inputs = _task_inputs("Q?", school_schema)
    script = NotingScript({"generate": {inputs[kind]: [GOOD_ANSWERS[kind]]
                                        for kind in PART_KINDS
                                        if kind not in failing}})
    with pytest.raises(StubScriptError) as caught:
        _request_parts(script, "Q?", school_schema, THREE_PARTS)
    caller = threading.current_thread()
    assert script.asked == [(inputs[kind], caller) for kind in PART_KINDS]
    with pytest.raises(StubScriptError) as expected:
        StubScript({"generate": {}}).generate(inputs[raised], 1)
    assert str(caught.value) == str(expected.value)


def test_a_shared_stub_entry_answers_the_parts_in_order(school_schema):
    responses = [GOOD_ANSWERS[kind] for kind in PART_KINDS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [_request_parts(StubScript({"generate": {"*": responses}}),
                               "Q?", school_schema, THREE_PARTS)
                for _ in range(50)]
    finally:
        sys.setswitchinterval(interval)
    expected = [(part(kind, GOOD_ANSWERS[kind][0]),) for kind in PART_KINDS]
    assert all(run == expected for run in runs)


def test_stub_parts_keep_reports_identical_without_the_pool(tmp_path,
                                                            monkeypatch):
    bundle = load_dataset(make_benchmark_dataset(tmp_path / "bench", 24))
    script = build_gold_echo_script(bundle)
    pooled = _stub_report(bundle, script, 1, forward=True)
    monkeypatch.setattr(sketches_module, "_part_pool", RaisingPool())
    assert _stub_report(bundle, script, 1) == pooled
    assert _stub_report(bundle, script, 2) == pooled
