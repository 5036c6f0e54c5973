import os
import sqlite3
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (is_closed, record_connections, scan_text_bytes,
                     scan_text_values)

import sketchsql.execution as execution
from sketchsql.errors import DatabaseAccessError
from sketchsql.execution import (
    MAX_RESULT_ROWS,
    Database,
    ExecutionOutcome,
    ResultSet,
    decode_text,
    quote_identifier,
    results_equal,
)
from sketchsql.schema import MAX_VALUE_BYTES


@pytest.fixture
def db(tmp_path):
    path = tmp_path / "shop.sqlite"
    with sqlite3.connect(path) as conn:
        conn.executescript(
            """
            CREATE TABLE item (id INTEGER, label, price REAL);
            INSERT INTO item VALUES (1, 'pen', 2.5);
            INSERT INTO item VALUES (2, 'ink', 8.0);
            INSERT INTO item VALUES (3, NULL, NULL);
            INSERT INTO item VALUES (4, 'pen', 2.5);
            INSERT INTO item VALUES (5, '', 0.0);
            INSERT INTO item VALUES (6, 42, 1.0);
            """
        )
    return Database(path)


# --------------------------------------------------------------------------
# Outcome classification

def test_rows_outcome(db):
    outcome = db.execute("SELECT label FROM item WHERE id = 1")
    assert outcome.is_rows and not outcome.is_error and not outcome.is_null
    assert outcome.result == ResultSet(1, (("pen",),))
    assert outcome.message is None


def test_empty_result_is_null(db):
    outcome = db.execute("SELECT label FROM item WHERE id = 99")
    assert outcome.is_null
    assert outcome.result == ResultSet(1, ())


def test_all_null_rows_are_null_with_result(db):
    outcome = db.execute("SELECT label, price FROM item WHERE id = 3")
    assert outcome.is_null
    assert outcome.result == ResultSet(2, ((None, None),))


def test_engine_error_never_raises(db):
    outcome = db.execute("SELECT nope FROM item")
    assert outcome.is_error
    assert "nope" in outcome.message
    assert outcome.result is None


def test_syntax_error_outcome(db):
    assert db.execute("SELEC 1").is_error


def test_write_statement_rejected(db):
    outcome = db.execute("INSERT INTO item VALUES (7, 'x', 1.0)")
    assert outcome.is_error
    assert "readonly" in outcome.message or "read-only" in outcome.message
    assert db.execute("SELECT count(*) FROM item").result.rows == ((6,),)


@pytest.mark.parametrize("statement", ["VACUUM INTO '{target}'",
                                       "ATTACH '{target}' AS other",
                                       "VACUUM"])
def test_statements_that_write_files_are_rejected(db, tmp_path, statement):
    target = tmp_path / "copy.sqlite"
    outcome = db.execute(statement.format(target=target))
    assert outcome.is_error
    assert "too many attached databases" in outcome.message
    assert not target.exists()
    assert db.execute("SELECT count(*) FROM item").result.rows == ((6,),)


def test_timeout_interrupts_runaway_query(db):
    slow = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            "WHERE x < 100000000) SELECT count(*) FROM c")
    outcome = db.execute(slow, timeout=0.05)
    assert outcome.is_error
    assert "interrupt" in outcome.message.lower()
    assert "0.05 s deadline" in outcome.message


def test_zero_timeout_disables_deadline(db):
    assert db.execute("SELECT 1", timeout=0).is_rows


def test_length_limit_bounds_values_and_keeps_connection(db, monkeypatch):
    opened = record_connections(monkeypatch)
    outcome = db.execute("SELECT randomblob(100000000), "
                         "randomblob(100000000)")
    assert outcome.is_error
    assert "too big" in outcome.message
    assert f"{MAX_VALUE_BYTES} byte length limit" in outcome.message
    assert db.execute("SELECT 1").result.rows == ((1,),)
    assert len(opened) == 1  # the same pooled connection answered


def test_missing_file_raises():
    with pytest.raises(DatabaseAccessError):
        Database("/nonexistent/dir/none.sqlite")


# --------------------------------------------------------------------------
# Reused statement connections behave like fresh ones

SLOW = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        "WHERE x < {n}) SELECT count(*) FROM c")


def commit_row(path, row_id, label):
    """Insert a row from a writer that fails at once if a read is open."""
    with closing(sqlite3.connect(path, timeout=0)) as writer:
        writer.execute("INSERT INTO item VALUES (?, ?, 1.0)", (row_id, label))
        writer.commit()


@pytest.mark.parametrize("statement", [
    "CREATE TEMP TABLE item (id, label, price)",
    "CREATE TEMP VIEW item AS SELECT 1 AS id, 'x' AS label, 0 AS price",
    "ANALYZE temp",
    "PRAGMA case_sensitive_like=ON",
    "PRAGMA main.case_sensitive_like = 1",
    "BEGIN",
    "SAVEPOINT pinned",
])
def test_statements_that_leave_state_are_rejected(db, statement):
    outcome = db.execute(statement)
    assert outcome.is_error
    assert "not authorized" in outcome.message
    like = "SELECT count(*) FROM item WHERE label LIKE 'PEN'"
    assert db.execute(like).result.rows == ((2,),)  # real table, default LIKE
    assert db.execute("SELECT count(*) FROM temp.sqlite_master").result.rows \
        == ((0,),)
    commit_row(db.path, 7, "pen")  # "database is locked" if a read is pinned
    assert db.execute(like).result.rows == ((3,),)


def test_deadline_does_not_outlive_its_statement(db):
    assert db.execute(SLOW.format(n=100_000_000), timeout=0.05).is_error
    outcome = db.execute(SLOW.format(n=300_000), timeout=0)
    assert outcome.result == ResultSet(1, ((300_000,),))


def test_replaced_file_is_read_afresh(db, tmp_path):
    assert db.execute("SELECT count(*) FROM item").result.rows == ((6,),)
    replacement = tmp_path / "replacement.sqlite"
    with closing(sqlite3.connect(replacement)) as conn:
        conn.executescript("CREATE TABLE item (id INTEGER, label, price REAL);"
                           "INSERT INTO item VALUES (1, 'cap', 3.0);")
    os.replace(replacement, db.path)
    assert db.execute("SELECT label FROM item").result.rows == (("cap",),)
    os.remove(db.path)
    assert db.execute("SELECT label FROM item").is_error


def test_writer_commits_after_any_statement(db):
    statements = [("SELECT label FROM item", None),
                  ("SELECT nope FROM item", None),
                  (SLOW.format(n=100_000_000), 0.05)]
    for i, (sql, timeout) in enumerate(statements):
        db.execute(sql, timeout=timeout)
        commit_row(db.path, 10 + i, "cap")
        count = db.execute("SELECT count(*) FROM item WHERE label = 'cap'",
                           timeout=0)
        assert count.result.rows == ((i + 1,),)


def test_result_past_the_row_cap_is_an_error(db):
    rows = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            "WHERE x < 300000) SELECT x, printf('%100d', x) FROM c "
            "JOIN item ON item.id = 1")
    outcome = db.execute(rows, timeout=0)
    assert outcome.is_error
    assert outcome.message == \
        f"result has more than {MAX_RESULT_ROWS} rows"
    commit_row(db.path, 7, "cap")  # "database is locked" if a read is pinned
    assert db.execute("SELECT count(*) FROM item").result.rows == ((7,),)


def test_row_cap_admits_exactly_the_cap(db, monkeypatch):
    monkeypatch.setattr(execution, "MAX_RESULT_ROWS", 6)
    ids = "SELECT id FROM item ORDER BY id"
    assert db.execute(ids).result == \
        ResultSet(1, tuple((i,) for i in range(1, 7)))
    commit_row(db.path, 7, "cap")
    assert db.execute(ids) == \
        ExecutionOutcome.error("result has more than 6 rows")
    commit_row(db.path, 8, "cap")
    assert db.execute("SELECT count(*) FROM item").result.rows == ((8,),)


def test_pool_is_bounded_by_concurrent_callers(db, monkeypatch):
    opened = record_connections(monkeypatch)
    workers, barrier, wrong = 6, threading.Barrier(6), []

    def work(i):
        barrier.wait(timeout=30)
        for _ in range(40):
            rows = db.execute(f"SELECT {i}, count(*) FROM item").result.rows
            if rows != ((i, 6),):
                wrong.append(rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(work, range(workers), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    pooled = list(opened)
    assert 1 <= len(pooled) <= workers
    db.close()
    assert all(is_closed(conn) for conn in pooled)
    assert db.execute("SELECT count(*) FROM item").result.rows == ((6,),)
    assert len(opened) == len(pooled) + 1 and not is_closed(opened[-1])
    db.close()


def test_close_closes_a_connection_in_use(db):
    with db._statement_connection(None) as conn:
        db.close()
        assert not is_closed(conn)
    assert is_closed(conn)
    assert db.execute("SELECT count(*) FROM item").result.rows == ((6,),)


# --------------------------------------------------------------------------
# Value scanning

def test_distinct_text_values_sorted_and_filtered(db):
    # runtime typeof filter: row 6 stores integer 42 in the no-affinity
    # label column and must not surface
    values = db.distinct_text_values("item", "label", 100)
    assert values == [b"ink", b"pen"]


def test_distinct_text_values_cap(db):
    assert db.distinct_text_values("item", "label", 1) == [b"ink"]


class _Undecodable(bytes):
    """Bytes stored as a TEXT value, as ``CAST(? AS TEXT)`` does."""


_CELLS = st.one_of(
    st.none(),
    st.sampled_from(["", " ", "  ", "\0", "a\0b", "a ", "A", "1", "1.5",
                     " 2", "-0", "1e3", "0x10", "10"]),
    st.text("aAbB 1.\0é", max_size=4),
    st.integers(-3, 12),
    st.sampled_from([0.0, -1.5, 1.5, 1e300]),
    st.binary(max_size=3),
    st.binary(max_size=4).map(_Undecodable),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_CELLS, max_size=12),
       affinity=st.sampled_from(["TEXT", "NUMERIC", "INTEGER", "REAL", ""]),
       collation=st.sampled_from(["BINARY", "NOCASE", "RTRIM"]),
       indexed=st.booleans(), analyzed=st.booleans(),
       cap=st.sampled_from([1, 2, 3, 100]))
def test_distinct_text_values_match_the_typeof_scan(cells, affinity, collation,
                                                    indexed, analyzed, cap):
    """The range filter keeps what the ``typeof`` filter keeps, in the same
    order, for every affinity, collation and storage class, with and
    without an index on the column."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.sqlite")
        with closing(sqlite3.connect(path)) as conn:
            conn.execute(f"CREATE TABLE t (val {affinity} COLLATE {collation})")
            for cell in cells:
                if type(cell) is _Undecodable:
                    conn.execute("INSERT INTO t VALUES (CAST(? AS TEXT))",
                                 (bytes(cell),))
                else:
                    conn.execute("INSERT INTO t VALUES (?)", (cell,))
            if indexed:
                conn.execute("CREATE INDEX t_val ON t (val)")
            if analyzed:
                conn.execute("ANALYZE")
            conn.commit()
        with closing(Database(path)) as db:
            scanned = db.distinct_text_values("t", "val", cap)
        assert scanned == scan_text_bytes(path, "t", "val", cap)
        try:
            expected = scan_text_values(path, "t", "val", cap)
        except sqlite3.OperationalError:  # text that is not valid UTF-8
            return
        assert [decode_text(value) for value in scanned] == expected


def test_distinct_text_values_bad_table(db):
    with pytest.raises(DatabaseAccessError):
        db.distinct_text_values("ghost", "label", 10)


def test_quote_identifier():
    assert quote_identifier('we"ird') == '"we""ird"'


# --------------------------------------------------------------------------
# Result comparison

def rs(*rows, width=None):
    rows = tuple(tuple(r) for r in rows)
    if width is None:
        width = len(rows[0]) if rows else 1
    return ResultSet(width, rows)


def test_results_equal_exact():
    assert results_equal(rs((1, "a")), rs((1, "a")))


def test_results_equal_ignores_row_order_by_default():
    a = rs((1, "x"), (2, "y"), (None, "z"))
    b = rs((None, "z"), (1, "x"), (2, "y"))
    assert results_equal(a, b)
    assert not results_equal(a, b, order_sensitive=True)
    assert results_equal(a, a, order_sensitive=True)


def test_results_equal_multiset_counts():
    assert not results_equal(rs(("a",), ("a",), ("b",)),
                             rs(("a",), ("b",), ("b",)))


def test_results_equal_numeric_tolerance():
    assert results_equal(rs((0.30000001,)), rs((0.3,)))
    assert not results_equal(rs((0.31,)), rs((0.3,)))
    assert results_equal(rs((1,)), rs((1.0,)))


def test_results_equal_type_mismatch():
    assert not results_equal(rs(("1",)), rs((1,)))
    assert not results_equal(rs((None,)), rs(("",)))
    assert results_equal(rs((None,)), rs((None,)))


def test_results_equal_shape_mismatch():
    assert not results_equal(ResultSet(1, ()), ResultSet(2, ()))
    assert not results_equal(rs((1,)), rs((1,), (1,)))


def test_results_equal_mixed_type_rows_sortable():
    a = rs((None,), (1,), ("a",), (b"b",))
    b = rs((b"b",), ("a",), (1,), (None,))
    assert results_equal(a, b)


_cell = st.one_of(st.none(), st.integers(-3, 3), st.text("ab", max_size=2))


@st.composite
def _result_sets(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[_cell] * width), max_size=5))
    return ResultSet(width, tuple(rows))


@given(_result_sets())
def test_results_equal_reflexive(a):
    assert results_equal(a, a)
    assert results_equal(a, a, order_sensitive=True)


@given(_result_sets(), _result_sets())
def test_results_equal_symmetric(a, b):
    assert results_equal(a, b) == results_equal(b, a)


@given(_result_sets(), st.randoms())
def test_results_equal_permutation_invariant(a, rng):
    rows = list(a.rows)
    rng.shuffle(rows)
    assert results_equal(a, ResultSet(a.column_count, tuple(rows)))
