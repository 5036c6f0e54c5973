import json
import os
import signal
import sys
import threading
import time

import pytest

from helpers import SCHOOL_GOLD_SQL, make_benchmark_dataset

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
    ScoreArityError,
)
from sketchsql.gateway import (
    StubAligner,
    StubScript,
    StubSketchProvider,
    clients_from_script,
)
from sketchsql.selection import SelectionConfig
from sketchsql.sketches import (
    INSTRUCTION_SELECT,
    INSTRUCTIONS,
    PART_FROM,
    PART_KEYWORDS,
    PART_KINDS,
    PART_SELECT,
    AlignedPair,
    AlignerRecord,
    SketchPart,
    assemble_sketches,
    build_aligner_input,
    build_sketches,
    build_task_input,
    combine_candidates,
    derive_aligner_records,
    derive_training_records,
    extract_keywords,
    extract_sketch_from_sql,
    rank_pairs,
    request_candidate_sets,
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


def test_rank_pairs():
    s = part(PART_SELECT, "SELECT *")
    pairs = [(s, part(PART_KEYWORDS, kw))
             for kw in ("SELECT", "SELECT FROM", "SELECT WHERE")]
    best = rank_pairs(pairs, [0.2, 0.9, 0.9])
    assert best == AlignedPair(pairs[1][0], pairs[1][1], 0.9)  # tie -> earlier
    with pytest.raises(ScoreArityError):
        rank_pairs(pairs, [0.2])
    with pytest.raises(EmptyCandidateError):
        rank_pairs([], [])
    with pytest.raises(ValueError):
        rank_pairs(pairs, [0.1, float("nan"), 0.3])


def test_assemble_sketches_ranks():
    best = AlignedPair(part(PART_SELECT, "SELECT *"),
                       part(PART_KEYWORDS, "SELECT FROM"), 0.9)
    froms = [part(PART_FROM, "FROM t0"), part(PART_FROM, "FROM t0, t1")]
    sketches = assemble_sketches(best, froms)
    assert [(s.rank, s.from_part.content) for s in sketches] == \
        [(0, "FROM t0"), (1, "FROM t0, t1")]
    assert all(s.select_part is best.select_part for s in sketches)
    with pytest.raises(EmptyCandidateError):
        assemble_sketches(best, [])


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
    records, diagnostics = derive_training_records(dataset)
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
    records, _ = derive_training_records(
        [("Q?", school_schema, SCHOOL_GOLD_SQL)])
    path = tmp_path / "train.jsonl"
    write_records_jsonl(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["subtask"] for line in lines] == \
        ["Select", "From", "Keywords"]


# --------------------------------------------------------------------------
# Live candidate generation through stubs

def _task_inputs(question, schema):
    return {kind: build_task_input(INSTRUCTIONS[kind], question, schema)
            for kind in (PART_SELECT, PART_FROM, PART_KEYWORDS)}


def test_request_candidate_sets_sanitizes(school_schema):
    inputs = _task_inputs("Q?", school_schema)
    script = StubScript({"generate": {
        inputs[PART_SELECT]: [["SELECT t1.c3", "SELECT t1.c3", "  ",
                               "SELECT *"]],
        inputs[PART_FROM]: [["FROM t1", "FROM t1, t0"]],
        inputs[PART_KEYWORDS]: [["select from where", "blah",
                                 "SELECT FROM WHERE"]],
    }})
    sets = request_candidate_sets(StubSketchProvider(script), "Q?",
                                  school_schema)
    assert [p.content for p in sets.select_candidates] == \
        ["SELECT t1.c3", "SELECT *"]
    assert [p.content for p in sets.from_candidates] == \
        ["FROM t1", "FROM t1, t0"]
    assert [p.content for p in sets.keyword_candidates] == \
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
    sketches = build_sketches(StubSketchProvider(script), StubAligner(script),
                              question, school_schema)
    assert len(sketches) == 2
    assert all(s.select_part.content == "SELECT t1.c3" for s in sketches)
    assert [s.from_part.content for s in sketches] == \
        ["FROM t1", "FROM t1, t0"]
    assert [s.rank for s in sketches] == [0, 1]


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
    sets = request_candidate_sets(provider, "Q?", school_schema)
    assert sets.select_candidates == (part(PART_SELECT, "SELECT t1.c3"),)
    assert sets.from_candidates == (part(PART_FROM, "FROM t1"),)
    assert sets.keyword_candidates == \
        (part(PART_KEYWORDS, "SELECT FROM WHERE"),)


FAILURES = {PART_SELECT: (ProviderUnavailableError, "select endpoint down"),
            PART_FROM: (ProviderUnavailableError, "from endpoint down"),
            PART_KEYWORDS: (ProtocolError, "keywords response malformed")}


def failure(kind):
    error, message = FAILURES[kind]
    return error(message)


@pytest.mark.parametrize("failing,raised", [
    ((PART_FROM, PART_KEYWORDS), PART_FROM),
    ((PART_SELECT, PART_FROM, PART_KEYWORDS), PART_SELECT),
    ((PART_SELECT, PART_KEYWORDS), PART_SELECT),
    ((PART_KEYWORDS,), PART_KEYWORDS),
])
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
        request_candidate_sets(provider, "Q?", school_schema)
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
        request_candidate_sets(provider, "Q?", school_schema)
    assert finished == [PART_KEYWORDS]


def test_part_requests_work_in_a_forked_child(school_schema):
    provider = PartProvider("Q?", school_schema,
                            {kind: answer(kind) for kind in PART_KINDS})
    request_candidate_sets(provider, "Q?", school_schema)  # pool in use
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            signal.alarm(10)  # a child whose requests never run dies here
            sets = request_candidate_sets(provider, "Q?", school_schema)
            code = 0 if sets.from_candidates else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_concurrent_parts_keep_reports_identical(tmp_path):
    bundle = load_dataset(make_benchmark_dataset(tmp_path / "bench", 24))
    script = build_gold_echo_script(bundle)

    def report(workers):
        clients = clients_from_script(StubScript(script))
        config = EvalConfig(
            selection=SelectionConfig(completer=clients["completer"]),
            provider=clients["sketch"], aligner=clients["aligner"],
            workers=workers, trace=True, record_latency=False)
        return json.dumps(evaluate(config, bundle).to_dict(), sort_keys=True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [report(2), report(1), report(2)]
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]
    assert json.loads(runs[0])["tokens_total"] > 0
