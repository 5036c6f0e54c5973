import re
import sqlite3
from contextlib import closing
from dataclasses import asdict

import pytest

from helpers import SCHOOL_BAD_SQL, SCHOOL_GOLD_SQL, SCHOOL_QUESTION

import sketchsql.selection as selection
from sketchsql.calibration import CalibrationFeedback, MatchLevel, MatchResult
from sketchsql.errors import EmptyCandidateError, SqlParseError, StubScriptError
from sketchsql.execution import Database
from sketchsql.schema import MAX_VALUE_BYTES
from sketchsql.gateway import StubScript
from sketchsql.selection import (
    STATUS_EXHAUSTED,
    STATUS_SELECTED,
    SelectionConfig,
    _clean_sql,
    apply_calibration,
    calibrate_deterministic,
    calibration_prompt,
    complete_sketch,
    completion_prompt,
    execution_check,
    repair_prompt,
    select_query,
)
from sketchsql.sketches import PART_FROM, PART_KEYWORDS, PART_SELECT, SketchPart, SqlSketch
from sketchsql.sql_analysis import ColumnRef, Predicate, parse_sql


def sketch(select, fr, keywords, rank=0):
    return SqlSketch(SketchPart(PART_SELECT, select), SketchPart(PART_FROM, fr),
                     SketchPart(PART_KEYWORDS, keywords), rank)


def completer(entries):
    return StubScript({"complete": entries})


def config(entries=None, **kwargs):
    return SelectionConfig(completer(entries or {}), **kwargs)


# --------------------------------------------------------------------------
# Prompts

def test_completion_prompt_golden(school_schema):
    prompt = completion_prompt(
        "Which course?", school_schema,
        sketch("SELECT t1.c3", "FROM t1", "SELECT FROM WHERE"))
    assert prompt == (
        "Complete the following SQL sketch into a full SQL query answering "
        "the question. question: Which course? database: school: "
        "t0: Course (c0: id, c1: course, c2: teacher) "
        "t1: Student (c0: id, c1: given_name, c2: last_name, c3: course, "
        "c4: score) "
        "sketch: SELECT Student.course FROM Student "
        "keywords: SELECT FROM WHERE")


def test_repair_prompt_golden():
    assert repair_prompt("SELECT x", "no such column: x") == (
        "The SQL query failed to execute. SQL query: SELECT x "
        "Error message: no such column: x "
        "Rewrite the SQL query to fix the error and output only SQL.")


def test_calibration_prompt_golden():
    pairs = [
        (Predicate(ColumnRef(None, "given_name"), "=", "wards"),
         MatchResult("last_name", "ward", 0.75, MatchLevel.TABLE)),
        (Predicate(ColumnRef(None, "given_name"), "=", "timmothy"),
         MatchResult("given_name", "timmy", 0.4, MatchLevel.COLUMN,
                     below_threshold=True)),
    ]
    assert calibration_prompt("SELECT 1", pairs) == (
        "SQL query: SELECT 1 "
        "The predicate given_name = 'wards' does not match the database "
        "content. "
        "The closest database value is last_name = 'ward'. "
        "The predicate given_name = 'timmothy' does not match the database "
        "content. "
        "The most similar database value found is given_name = 'timmy', "
        "which may not be related. "
        "Rewrite the SQL query accordingly and output only SQL.")


@pytest.mark.parametrize("raw,cleaned", [
    ("SELECT 1", "SELECT 1"),
    ("  SELECT 1\n", "SELECT 1"),
    ("```sql\nSELECT 1\n```", "SELECT 1"),
    ("```\nSELECT 1\nFROM t\n```", "SELECT 1\nFROM t"),
])
def test_clean_sql(raw, cleaned):
    assert _clean_sql(raw) == cleaned


def test_complete_sketch_cleans_fences(school_schema):
    sk = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM")
    prompt = completion_prompt("Q?", school_schema, sk)
    client = completer({prompt: ["```sql\nSELECT course FROM Student\n```"]})
    assert complete_sketch(client, "Q?", school_schema, sk) == \
        "SELECT course FROM Student"


# --------------------------------------------------------------------------
# Execution-guided repair

def test_execution_check_immediate_success(school_db):
    attempts = []
    out, outcome = execution_check("SELECT course FROM Student", school_db,
                                   1, completer({}), attempts_out=attempts)
    assert out == "SELECT course FROM Student"
    assert outcome.kind == "rows"
    assert [a.outcome for a in attempts] == ["rows"]


def test_execution_check_repairs_once(school_db):
    bad = "SELECT ghost FROM Student"
    message = school_db.execute(bad).message
    client = completer({repair_prompt(bad, message): [SCHOOL_GOLD_SQL]})
    attempts = []
    out, outcome = execution_check(bad, school_db, 1, client,
                                   attempts_out=attempts)
    assert out == SCHOOL_GOLD_SQL
    assert outcome.kind == "rows"
    assert [a.outcome for a in attempts] == ["error", "rows"]
    assert attempts[0].message == message and attempts[1].message is None


def test_execution_check_patience_zero(school_db):
    attempts = []
    out, outcome = execution_check("SELECT ghost FROM Student", school_db,
                                   0, completer({}), attempts_out=attempts)
    assert out == "SELECT ghost FROM Student" and len(attempts) == 1
    assert outcome.kind == "error"
    assert outcome.message == attempts[0].message


def test_execution_check_patience_exhausted(school_db):
    bad1, bad2 = "SELECT ghost FROM Student", "SELECT ghost2 FROM Student"
    message = school_db.execute(bad1).message
    client = completer({repair_prompt(bad1, message): [bad2]})
    attempts = []
    out, outcome = execution_check(bad1, school_db, 1, client,
                                   attempts_out=attempts)
    assert out == bad2 and outcome.kind == "error"
    assert [a.sql for a in attempts] == [bad1, bad2]
    assert all(a.outcome == "error" for a in attempts)


def test_execution_check_empty_result_counts_as_executable(school_db):
    sql = "SELECT course FROM Student WHERE score = 999"
    out, outcome = execution_check(sql, school_db, 1, completer({}))
    assert out == sql and outcome.kind == "null"
    assert outcome.result.rows == ()


# --------------------------------------------------------------------------
# Calibration application

def _wards_feedback():
    return CalibrationFeedback(((
        Predicate(ColumnRef(None, "given_name"), "=", "wards"),
        MatchResult("last_name", "ward", 0.75, MatchLevel.TABLE)),))


def test_apply_calibration_identity_makes_no_call():
    feedback = CalibrationFeedback(((
        Predicate(ColumnRef(None, "given_name"), "=", "timmy"),
        MatchResult("given_name", "timmy", 1.0, MatchLevel.COLUMN)),))
    # the script is empty, so any completer call would raise
    sql = "SELECT course FROM Student WHERE given_name = 'timmy'"
    parsed = parse_sql(sql)
    assert apply_calibration(completer({}), sql, parsed, feedback) == sql
    assert apply_calibration(completer({}), sql, parsed,
                             CalibrationFeedback()) == sql


def test_apply_calibration_uses_completer_rewrite():
    sql = "SELECT course FROM Student WHERE given_name = 'wards'"
    feedback = _wards_feedback()
    prompt = calibration_prompt(sql, list(feedback.replacements))
    client = completer({prompt: ["SELECT course FROM Student "
                                 "WHERE last_name = 'ward'"]})
    assert apply_calibration(client, sql, parse_sql(sql), feedback) == \
        "SELECT course FROM Student WHERE last_name = 'ward'"


def test_apply_calibration_falls_back_on_unparseable_rewrite():
    sql = "SELECT course FROM Student WHERE given_name = 'wards'"
    feedback = _wards_feedback()
    prompt = calibration_prompt(sql, list(feedback.replacements))
    client = completer({prompt: ["no sql here (("]})
    assert apply_calibration(client, sql, parse_sql(sql), feedback) == \
        "SELECT course FROM Student WHERE last_name = 'ward'"


def test_apply_calibration_keeps_qualified_spelling():
    sql = "SELECT T1.course FROM Student AS T1 WHERE T1.given_name = 'timmothy'"
    feedback = CalibrationFeedback(((
        Predicate(ColumnRef("T1", "given_name"), "=", "timmothy"),
        MatchResult("given_name", "timmy", 0.4, MatchLevel.COLUMN,
                    below_threshold=True)),))
    prompt = calibration_prompt(sql, list(feedback.replacements))
    client = completer({prompt: ["broken (("]})
    assert apply_calibration(client, sql, parse_sql(sql), feedback) == \
        "SELECT T1.course FROM Student AS T1 WHERE T1.given_name = 'timmy'"


def test_calibrate_deterministic_fixes_bad_values(school_db):
    rewritten, feedback = calibrate_deterministic(
        school_db, SCHOOL_BAD_SQL, config())
    assert rewritten == SCHOOL_GOLD_SQL
    assert len(feedback.replacements) == 2


def test_calibrate_deterministic_identity(school_db):
    rewritten, feedback = calibrate_deterministic(
        school_db, SCHOOL_GOLD_SQL, config())
    assert rewritten == SCHOOL_GOLD_SQL
    assert feedback and feedback.changes() == ()


def test_calibrate_deterministic_requires_parseable(school_db):
    with pytest.raises(SqlParseError):
        calibrate_deterministic(school_db, "SELECT FROM WHERE", config())


_DOTTED = """CREATE TABLE t (id INTEGER, "x.y" TEXT);
             INSERT INTO t VALUES (1, 'alpha');"""
_KEYWORD = """CREATE TABLE t (id INTEGER, "order" TEXT);
              INSERT INTO t VALUES (1, 'alpha');"""
_COMMENT = """CREATE TABLE t (a INTEGER, c TEXT);
              INSERT INTO t VALUES (1, 'abc'), (3, 'abc');"""
_DATES = """CREATE TABLE t (id INTEGER, c TEXT, d TEXT, "current_date" TEXT);
            INSERT INTO t VALUES (1, 'abc', '2000-01-01', 'alpha');"""
_CITIES = """CREATE TABLE t (city TEXT, state TEXT);
             INSERT INTO t VALUES ('LAX', 'NY');"""


@pytest.mark.parametrize("script,sql,expected,rows", [
    # A quoted column name that holds a dot, qualified or not.
    (_DOTTED, "SELECT id FROM t WHERE t.`x.y` = 'alpha'",
     "SELECT id FROM t WHERE t.`x.y` = 'alpha'", ((1,),)),
    (_DOTTED, "SELECT id FROM t WHERE t.`x.y` = 'alpah'",
     "SELECT id FROM t WHERE t.`x.y` = 'alpha'", ((1,),)),
    (_DOTTED, "SELECT id FROM t WHERE `x.y` = 'alpah'",
     "SELECT id FROM t WHERE `x.y` = 'alpha'", ((1,),)),
    # Double-quoted, a name in scope is the column, on either side; a
    # name in no column's scope stays a string, and a site whose operands
    # both name columns has no predicate.
    (_DOTTED, """SELECT id FROM t WHERE "x.y" = 'alpah'""",
     """SELECT id FROM t WHERE "x.y" = 'alpha'""", ((1,),)),
    (_DOTTED, 'SELECT id FROM t WHERE \'alpah\' = "x.y"',
     'SELECT id FROM t WHERE \'alpha\' = "x.y"', ((1,),)),
    (_DOTTED, """SELECT id FROM t WHERE "X.Y" LIKE '%alpah%'""",
     """SELECT id FROM t WHERE "X.Y" LIKE '%alpha%'""", ((1,),)),
    (_DOTTED, """SELECT id FROM t WHERE "x.y" IN ('alpah')""",
     """SELECT id FROM t WHERE "x.y" IN ('alpha')""", ((1,),)),
    (_DOTTED, """SELECT id FROM t WHERE "abc" = 'abd'""",
     """SELECT id FROM t WHERE "abc" = 'abd'""", ()),
    (_DOTTED, 'SELECT id FROM t WHERE id = "x.y"',
     'SELECT id FROM t WHERE id = "x.y"', ()),
    # A column named by a keyword.
    (_KEYWORD, "SELECT id FROM t WHERE `order` = 'alpah'",
     "SELECT id FROM t WHERE `order` = 'alpha'", ((1,),)),
    # Unquoted, current_date is today's date; quoted, it is the column.
    (_DATES, "SELECT id FROM t WHERE c = 'abx' AND d <= current_date",
     "SELECT id FROM t WHERE c = 'abc' AND d <= current_date", ((1,),)),
    (_DATES, "SELECT id FROM t WHERE `current_date` = 'alpah'",
     "SELECT id FROM t WHERE `current_date` = 'alpha'", ((1,),)),
    # The comment is not an operand: the query means a = 1.  The rewrite
    # edits only the literal, so the comment stays.
    (_COMMENT, "SELECT a FROM t WHERE c = 'abx' AND a = 1 --2",
     "SELECT a FROM t WHERE c = 'abc' AND a = 1 --2", ((1,),)),
    # Lower-case keywords, and "==" with a double-quoted literal, are kept
    # as written; only the literal is replaced.
    (_COMMENT, "select a from t where c = 'abx' order by a",
     "select a from t where c = 'abc' order by a", ((1,), (3,))),
    (_COMMENT, 'SELECT a FROM t WHERE c == "abx" AND a = 3',
     "SELECT a FROM t WHERE c == 'abc' AND a = 3", ((3,),)),
    # An IN list keeps its column when only some elements match elsewhere
    # ('NY' is a state), and its same-column fixes still apply.
    (_CITIES, "SELECT city FROM t WHERE city IN ('NY', 'LA')",
     "SELECT city FROM t WHERE city IN ('NY', 'LAX')", (("LAX",),)),
    (_CITIES, "SELECT city FROM t WHERE city IN ('LA', 'NY')",
     "SELECT city FROM t WHERE city IN ('LAX', 'NY')", (("LAX",),)),
    (_CITIES, "SELECT city FROM t WHERE city IN ('NY', 'LAX')",
     "SELECT city FROM t WHERE city IN ('NY', 'LAX')", (("LAX",),)),
], ids=["dotted-exact", "dotted-qualified", "dotted-bare",
        "double-quoted-left", "double-quoted-right", "double-quoted-like",
        "double-quoted-in", "double-quoted-no-column",
        "double-quoted-both-columns", "keyword",
        "current-date-value", "current-date-column", "comment",
        "lower-case", "double-equals-double-quoted", "in-list-ny-la", "in-list-la-ny", "in-list-ny-lax"])
def test_calibrate_deterministic_rewrite_runs(tmp_path, script, sql,
                                              expected, rows):
    path = tmp_path / "t.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript(script)
    db = Database(path)
    rewritten, _ = calibrate_deterministic(db, sql, config())
    assert rewritten == expected
    assert db.execute(rewritten).result.rows == rows


def test_stored_value_over_length_limit(tmp_path, caplog):
    # SQLite applies the length limit when it reads a stored value, so a
    # column holding one cannot be read or sorted; calibration skips it.
    path = tmp_path / "big.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute("CREATE TABLE t (id INTEGER, name TEXT, city TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", [
            (1, "x" * (MAX_VALUE_BYTES + 1_000_000), "boston"),
            (2, "alice", "denver")])
    db = Database(path)
    for sql in ("SELECT name FROM t", "SELECT id FROM t ORDER BY name"):
        outcome = db.execute(sql)
        assert outcome.is_error
        assert f"{MAX_VALUE_BYTES} byte length limit" in outcome.message
    assert db.execute("SELECT id FROM t ORDER BY city").result.rows == \
        ((1,), (2,))
    # The scan of t.name yields nothing, so 'denver' is found in t.city.
    rewritten, _ = calibrate_deterministic(
        db, "SELECT id FROM t WHERE name = 'denver'", config())
    assert rewritten == "SELECT id FROM t WHERE city = 'denver'"
    assert "not scanning t.name: string or blob too big" in caplog.text


# --------------------------------------------------------------------------
# Full selection loop

def test_select_query_advances_past_failing_sketch(school_db, school_schema):
    question = SCHOOL_QUESTION
    sk1 = sketch("SELECT t1.c0", "FROM t1", "SELECT FROM", rank=0)
    sk2 = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM WHERE ORDER BY LIMIT",
                 rank=1)
    bad1, bad2 = "SELECT ghost FROM Student", "SELECT ghost2 FROM Student"
    message = school_db.execute(bad1).message
    client = completer({
        completion_prompt(question, school_schema, sk1): [bad1],
        repair_prompt(bad1, message): [bad2],
        completion_prompt(question, school_schema, sk2): [SCHOOL_GOLD_SQL],
    })
    cfg = SelectionConfig(client, patience=1)
    final, trace = select_query(question, school_schema, school_db,
                                [sk1, sk2], cfg)
    assert final == SCHOOL_GOLD_SQL
    assert trace.status == STATUS_SELECTED and trace.final_sql == final

    first, second = trace.sketches
    assert first.status == "no_executable"
    assert len(first.executions) == 2 and first.rewrites == 1
    assert [a.sql for a in first.executions] == [bad1, bad2]
    assert second.status == "selected" and second.final_outcome == "rows"
    assert second.rewrites == 0
    # gold values match the database, so calibration proposed no change
    assert second.calibrated_sql == SCHOOL_GOLD_SQL


def test_select_query_all_null_is_exhausted(school_db, school_schema):
    sk1 = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM WHERE", rank=0)
    sk2 = sketch("SELECT t1.c0", "FROM t1", "SELECT FROM WHERE", rank=1)
    null1 = "SELECT course FROM Student WHERE score = 999"
    null2 = "SELECT id FROM Student WHERE score = 998"
    client = completer({
        completion_prompt("Q?", school_schema, sk1): [null1],
        completion_prompt("Q?", school_schema, sk2): [null2],
    })
    final, trace = select_query("Q?", school_schema, school_db, [sk1, sk2],
                                SelectionConfig(client))
    assert trace.status == STATUS_EXHAUSTED
    assert final == null2 == trace.final_sql  # last calibrated null query
    assert [s.status for s in trace.sketches] == ["null_result", "null_result"]
    assert [s.final_outcome for s in trace.sketches] == ["null", "null"]


def test_select_query_invalid_sketch_is_skipped(school_db, school_schema):
    broken = sketch("SELECT t9.c0", "FROM t1", "SELECT FROM", rank=0)
    good = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM", rank=1)
    client = completer({
        completion_prompt("Q?", school_schema, good):
            ["SELECT course FROM Student"],
    })
    final, trace = select_query("Q?", school_schema, school_db,
                                [broken, good], SelectionConfig(client))
    assert final == "SELECT course FROM Student"
    assert trace.sketches[0].status == "invalid_sketch"
    assert trace.sketches[0].completion is None
    assert trace.sketches[1].status == "selected"


def test_select_query_error_after_calibration(school_db, school_schema):
    sk = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM WHERE", rank=0)
    completion = "SELECT course FROM Student WHERE given_name = 'wards'"
    feedback = _wards_feedback()
    client = completer({
        completion_prompt("Q?", school_schema, sk): [completion],
        calibration_prompt(completion, list(feedback.replacements)):
            ["SELECT ghost FROM Student"],
    })
    final, trace = select_query("Q?", school_schema, school_db, [sk],
                                SelectionConfig(client))
    (record,) = trace.sketches
    assert record.status == "error_after_calibration"
    assert record.final_outcome == "error"
    assert record.calibration == [{
        "column": "given_name", "operator": "=", "value": "wards",
        "match_column": "last_name", "match_value": "ward", "score": 0.75,
        "level": "Table", "below_threshold": False,
    }]
    # nothing calibrated survived, so the fallback is the raw completion
    assert trace.status == STATUS_EXHAUSTED and final == completion


def test_select_query_fallback_reuses_the_feedback_parse(
        school_db, school_schema, monkeypatch):
    sk = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM WHERE", rank=0)
    completion = "SELECT course FROM Student WHERE given_name = 'wards'"
    client = completer({
        completion_prompt("Q?", school_schema, sk): [completion],
        calibration_prompt(completion, list(_wards_feedback().replacements)):
            ["no sql here (("],
    })
    parsed = []
    parse = selection.parse_sql
    monkeypatch.setattr(selection, "parse_sql",
                        lambda sql: parsed.append(sql) or parse(sql))
    final, trace = select_query("Q?", school_schema, school_db, [sk],
                                SelectionConfig(client))
    assert final == "SELECT course FROM Student WHERE last_name = 'ward'"
    # the feedback parse, then the check of the rewrite; no third parse
    assert parsed == [completion, "no sql here (("]
    sql, outcome = trace.last_run
    assert sql == final and outcome.result.rows == (("math",),)


def test_select_query_tries_sketches_in_rank_order(school_db, school_schema):
    sk0 = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM", rank=0)
    sk1 = sketch("SELECT t1.c0", "FROM t1", "SELECT FROM", rank=1)
    client = completer({
        completion_prompt("Q?", school_schema, sk0):
            ["SELECT course FROM Student"],
    })
    final, trace = select_query("Q?", school_schema, school_db, [sk1, sk0],
                                SelectionConfig(client))
    assert final == "SELECT course FROM Student"
    assert [s.rank for s in trace.sketches] == [0]


def test_select_query_requires_sketches(school_db, school_schema):
    with pytest.raises(EmptyCandidateError):
        select_query("Q?", school_schema, school_db, [],
                     SelectionConfig(completer({})))


def test_selection_config_validation():
    with pytest.raises(ValueError, match=r"^'patience' must be at least 0, "
                                         r"got -1$"):
        SelectionConfig(completer({}), patience=-1)
    with pytest.raises(ValueError, match=r"^'threshold' must be greater than "
                                         r"0 and at most 1, got 0.0$"):
        SelectionConfig(completer({}), threshold=0.0)
    with pytest.raises(ValueError, match=r"^'threshold' must be greater than "
                                         r"0 and at most 1, got 1.5$"):
        SelectionConfig(completer({}), threshold=1.5)


@pytest.mark.parametrize("key,value,message", [
    # A negative timeout left a recursive CTE running with no deadline.
    ("statement_timeout", -1, "'statement_timeout' must be at least 0, got -1"),
    # A cap of 0 scanned no value, so no predicate was ever rewritten.
    ("scan_cap", 0, "'scan_cap' must be at least 1, got 0"),
])
def test_selection_config_checks_the_cli_ranges(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SelectionConfig(completer({}), **{key: value})


def test_selection_config_at_its_bounds():
    config = SelectionConfig(completer({}), patience=0, threshold=1,
                             statement_timeout=0, scan_cap=1)
    assert (config.patience, config.threshold, config.statement_timeout,
            config.scan_cap) == (0, 1, 0, 1)


def test_trace_serialization_shape(school_db, school_schema):
    sk = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM", rank=0)
    client = completer({
        completion_prompt("Q?", school_schema, sk): ["SELECT course FROM Student"],
    })
    _, trace = select_query("Q?", school_schema, school_db, [sk],
                            SelectionConfig(client))
    payload = asdict(trace)
    assert set(payload) == {"question", "status", "final_sql", "sketches"}
    (record,) = payload["sketches"]
    assert set(record) == {"rank", "completion", "executions", "rewrites",
                           "calibration", "calibrated_sql", "final_outcome",
                           "status"}
    assert record["executions"][0] == {
        "sql": "SELECT course FROM Student", "outcome": "rows",
        "message": None}


def test_select_query_missing_script_entry_surfaces(school_db, school_schema):
    sk = sketch("SELECT t1.c3", "FROM t1", "SELECT FROM", rank=0)
    with pytest.raises(StubScriptError):
        select_query("Q?", school_schema, school_db, [sk],
                     SelectionConfig(completer({})))
