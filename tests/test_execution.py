import sqlite3

import pytest
from hypothesis import given, strategies as st

from sketchsql.errors import DatabaseAccessError
from sketchsql.execution import (
    Database,
    ExecutionOutcome,
    ResultSet,
    execute,
    quote_identifier,
    results_equal,
)


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


def test_zero_timeout_disables_deadline(db):
    assert db.execute("SELECT 1", timeout=0).is_rows


def test_missing_file_raises():
    with pytest.raises(DatabaseAccessError):
        Database("/nonexistent/dir/none.sqlite")


def test_execute_accepts_path(db):
    assert execute(db.path, "SELECT 1").result == ResultSet(1, ((1,),))
    assert execute(db, "SELECT 1").is_rows


# --------------------------------------------------------------------------
# Value scanning

def test_distinct_text_values_sorted_and_filtered(db):
    # runtime typeof filter: row 6 stores integer 42 in the no-affinity
    # label column and must not surface
    values = db.distinct_text_values("item", "label", 100)
    assert values == ["ink", "pen"]


def test_distinct_text_values_cap(db):
    assert db.distinct_text_values("item", "label", 1) == ["ink"]


def test_distinct_text_values_bad_table(db):
    with pytest.raises(DatabaseAccessError):
        db.distinct_text_values("ghost", "label", 10)


def test_has_value(db):
    assert db.has_value("item", "label", "pen")
    assert not db.has_value("item", "label", "pencil")


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
