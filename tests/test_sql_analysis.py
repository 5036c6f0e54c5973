import re
import sqlite3
from collections import Counter
from contextlib import closing
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from sketchsql.errors import PredicateNotFoundError, SqlParseError
from sketchsql.sql_analysis import (
    RESERVED_WORDS,
    Between,
    Binary,
    ColumnRef,
    Exists,
    FuncCall,
    InList,
    InSelect,
    IsNull,
    Join,
    Like,
    Literal,
    OrderItem,
    ParsedQuery,
    Predicate,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOp,
    SubqueryTable,
    TableRef,
    Unary,
    extract_predicates,
    merge_like_pattern,
    order_sensitive,
    parse_sql,
    render_query,
    rewrite_predicates,
    split_like_pattern,
    table_scope,
    tokenize,
)
from sketchsql.sql_analysis import _BINARY_PREC


# --------------------------------------------------------------------------
# Tokenizer

def test_tokenize_strings_and_escapes():
    tokens = tokenize("'it''s' \"a\"\"b\" `col x` 0.5 1e3 .25 <> <= == ||")
    kinds = [(t.kind, t.text) for t in tokens[:-1]]
    assert kinds == [
        ("string", "'it''s'"),
        ("string", '"a""b"'),
        ("qident", "col x"),
        ("number", "0.5"),
        ("number", "1e3"),
        ("number", ".25"),
        ("op", "<>"),
        ("op", "<="),
        ("op", "=="),
        ("op", "||"),
    ]
    assert tokens[-1].kind == "end"
    assert [(t.kind, t.text) for t in tokenize("1.e5 1.5E-3 a$b")[:-1]] == [
        ("number", "1.e5"), ("number", "1.5E-3"), ("ident", "a$b")]


def test_tokenize_positions():
    tokens = tokenize("a  = 1")
    assert [(t.text, t.pos) for t in tokens[:-1]] == [("a", 0), ("=", 3), ("1", 5)]
    tokens = tokenize("a\u00a0= 1")  # a non-breaking space is whitespace
    assert [(t.text, t.pos) for t in tokens[:-1]] == [("a", 0), ("=", 2), ("1", 4)]


def test_tokenize_skips_comments():
    tokens = tokenize("a -- x\n= /* y */ 1 /* open")
    assert [(t.text, t.pos) for t in tokens] == [("a", 0), ("=", 7), ("1", 17),
                                                 ("", 26)]
    assert [t.text for t in tokenize("1--2")[:-1]] == ["1"]
    assert [t.text for t in tokenize("a/**/-/*\n*/b")[:-1]] == ["a", "-", "b"]


def test_unary_minus_never_renders_a_comment():
    sql = render_query(parse_sql("SELECT -(-1)"))
    assert sql == "SELECT - -1"
    assert parse_sql(sql).root == parse_sql("SELECT -(-1)").root
    with closing(sqlite3.connect(":memory:")) as conn:
        assert conn.execute(sql).fetchall() == [(1,)]


def test_tokenize_unterminated_string():
    with pytest.raises(SqlParseError) as err:
        tokenize("SELECT 'oops")
    assert "position 7" in str(err.value)
    # The doubled quote is an escape, so the literal never ends.
    with pytest.raises(SqlParseError, match="unterminated string literal") as err:
        tokenize("'abc''")
    assert err.value.position == 0
    with pytest.raises(SqlParseError, match="unterminated quoted identifier") as err:
        tokenize("a `b")
    assert err.value.position == 2


@pytest.mark.parametrize("nest", [
    lambda inner: f"({inner})",
    lambda inner: f"abs({inner})",
    lambda inner: f"x IN (SELECT x FROM t WHERE {inner})",
], ids=["parentheses", "calls", "in-select"])
def test_query_nested_past_the_recursion_limit_is_a_parse_error(nest):
    condition = "x = 1"
    for _ in range(500):
        condition = nest(condition)
    with pytest.raises(SqlParseError, match="nests too deeply to analyze") \
            as err:
        parse_sql(f"SELECT x FROM t WHERE {condition}")
    assert err.value.position is None
    assert parse_sql("SELECT x FROM t WHERE (x = 1)").root is not None


def test_tokenize_unexpected_character():
    with pytest.raises(SqlParseError):
        tokenize("SELECT ?")
    with pytest.raises(SqlParseError, match="unexpected character '²'") as err:
        tokenize("x²")
    assert err.value.position == 1


# --------------------------------------------------------------------------
# Parse -> render fixpoint on representative queries

FIXPOINT_QUERIES = [
    "SELECT a FROM t",
    "SELECT DISTINCT a, b AS label FROM t WHERE a = 'x' AND b > 3",
    "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2 ORDER BY a DESC",
    "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id LEFT JOIN t3 ON t2.id = t3.id",
    "SELECT a FROM t1, t2 WHERE t1.id = t2.id",
    "SELECT a FROM t WHERE b IN (1, 2, 3) OR c NOT IN (SELECT d FROM u)",
    "SELECT a FROM t WHERE b BETWEEN 1 AND 10 AND c LIKE '%x%'",
    "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
    "SELECT a FROM t WHERE b IS NOT NULL ORDER BY a LIMIT 5 OFFSET 2",
    "SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v",
    "SELECT (a + b) * c, -d FROM t WHERE (a OR b) AND c",
    "SELECT t.* , a || 'suffix' FROM t WHERE a = (SELECT max(b) FROM u)",
]


@pytest.mark.parametrize("sql", FIXPOINT_QUERIES)
def test_render_parse_fixpoint(sql):
    once = render_query(parse_sql(sql))
    assert render_query(parse_sql(once)) == once
    assert parse_sql(once).root == parse_sql(sql).root


def _mixed_case(sql: str) -> str:
    """``sql`` with every reserved word spelled in alternating case."""
    def alternate(match):
        word = match.group(0)
        if word.upper() not in RESERVED_WORDS:
            return word
        return "".join(c.lower() if i % 2 else c.upper()
                       for i, c in enumerate(word))
    return re.sub(r"[A-Za-z_]+", alternate, sql)


@pytest.mark.parametrize("sql", FIXPOINT_QUERIES + [
    "SELECT a FROM t WHERE b = 'x' ORDER BY a DESC"])
def test_mixed_case_keywords_parse_like_upper_case(sql):
    mixed = _mixed_case(sql)
    assert mixed != sql and mixed.startswith("SeLeCt ")
    assert parse_sql(mixed).root == parse_sql(sql).root
    assert parse_sql(mixed.lower()).root == parse_sql(sql.lower()).root


@pytest.mark.parametrize("raw,canonical", [
    ("SELECT a FROM t WHERE a == 1", "SELECT a FROM t WHERE a = 1"),
    ("SELECT a FROM t INNER JOIN u ON t.i = u.i",
     "SELECT a FROM t JOIN u ON t.i = u.i"),
    ("SELECT a FROM t LEFT OUTER JOIN u ON t.i = u.i",
     "SELECT a FROM t LEFT JOIN u ON t.i = u.i"),
    ("SELECT a FROM t LIMIT 2, 5", "SELECT a FROM t LIMIT 5 OFFSET 2"),
    ("SELECT a FROM t LIMIT 5 OFFSET 2", "SELECT a FROM t LIMIT 5 OFFSET 2"),
    ("select a from t where b like 'x%';", "SELECT a FROM t WHERE b LIKE 'x%'"),
    ("SELECT a FROM t x", "SELECT a FROM t AS x"),
    ("SELECT `weird name` FROM `the table`",
     "SELECT `weird name` FROM `the table`"),
    ("SELECT `order` FROM t", "SELECT `order` FROM t"),
    ("SELECT current_date, `current_time` FROM t",
     "SELECT current_date, `current_time` FROM t"),
])
def test_normalizations(raw, canonical):
    assert render_query(parse_sql(raw)) == canonical


@pytest.mark.parametrize("sql,fragment", [
    ("INSERT INTO t VALUES (1)", "SELECT"),
    ("SELECT a FROM t RIGHT JOIN u ON 1", "JOIN"),
    ("SELECT CASE WHEN a THEN 1 END FROM t", "CASE"),
    ("SELECT a FROM", ""),
    ("SELECT a FROM t WHERE a = 1 42", ""),
    ("SELECT a FROM t WHERE", ""),
    ("", ""),
    # Only a real "(" makes a reserved word a function name.
    ("SELECT left `(` FROM t", "expected an expression"),
])
def test_rejections(sql, fragment):
    with pytest.raises(SqlParseError) as err:
        parse_sql(sql)
    assert fragment.lower() in str(err.value).lower()
    assert "position" in str(err.value)


@pytest.mark.parametrize("sql,word,rest", [
    ("SELECT a FROM t GROUP a", "BY", "a"),
    ("SELECT a FROM t ORDER a", "BY", "a"),
    ("SELECT a FROM t ORDER", "BY", ""),
    ("SELECT a FROM t WHERE b IN (SELECT c FROM u GROUP c)", "BY", "c)"),
    ("SELECT a FROM t INNER u", "JOIN", "u"),
    ("SELECT a FROM t CROSS u", "JOIN", "u"),
    ("SELECT a FROM t LEFT u", "JOIN", "u"),
    ("SELECT a FROM t LEFT OUTER u", "JOIN", "u"),
])
def test_keyword_pair_cut_short_names_the_missing_word(sql, word, rest):
    # The error points at the token after the pair's first word(s).
    with pytest.raises(SqlParseError, match=f"expected {word} ") as err:
        parse_sql(sql)
    assert err.value.position == len(sql) - len(rest)


def test_parse_error_reports_position():
    with pytest.raises(SqlParseError) as err:
        parse_sql("SELECT a FROM t WHERE AND")
    assert err.value.position is not None


def test_precedence_shapes():
    root = parse_sql("SELECT 1 FROM t WHERE a OR b AND c").root
    assert root.where.op == "OR"
    assert root.where.right.op == "AND"
    root = parse_sql("SELECT 1 FROM t WHERE (a OR b) AND c").root
    assert root.where.op == "AND"
    assert render_query(parse_sql("SELECT 1 FROM t WHERE (a OR b) AND c")) == \
        "SELECT 1 FROM t WHERE (a OR b) AND c"
    assert render_query(parse_sql("SELECT a - (b - c) FROM t")) == \
        "SELECT a - (b - c) FROM t"
    assert render_query(parse_sql("SELECT a - b - c FROM t")) == \
        "SELECT a - b - c FROM t"
    a, b, c, d = (ColumnRef(None, name) for name in "abcd")
    assert parse_sql("SELECT a * b || c - d FROM t").root.items[0].expr == \
        Binary("-", Binary("*", a, Binary("||", b, c)), d)
    assert parse_sql("SELECT -a || b FROM t").root.items[0].expr == \
        Binary("||", Unary("-", a), b)


def test_not_binds_looser_than_comparison():
    root = parse_sql("SELECT 1 FROM t WHERE NOT a = 1").root
    assert isinstance(root.where, Unary) and root.where.op == "NOT"
    assert isinstance(root.where.operand, Binary)


# --------------------------------------------------------------------------
# Predicate extraction

def canon(preds):
    return [(p.column, p.operator, p.value) for p in preds]


def test_extract_basic_predicates():
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t WHERE name = 'Tim' AND age = 7 OR city LIKE '%york%'"))
    assert canon(preds) == [
        ("name", "=", "Tim"),
        ("city", "LIKE", "%york%"),
    ]


def test_extract_orientation_and_qualifiers():
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t AS x WHERE 'Tim' = x.name"))
    assert canon(preds) == [("x.name", "=", "Tim")]


def test_extract_in_elements():
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t WHERE city IN ('NY', 'LA', 3)"))
    assert canon(preds) == [
        ("city", "IN-element", "NY"),
        ("city", "IN-element", "LA"),
    ]


def test_extract_includes_not_wrapped_and_negated():
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t WHERE NOT (name = 'Tim') AND city NOT LIKE 'L%'"))
    assert canon(preds) == [
        ("name", "=", "Tim"),
        ("city", "LIKE", "L%"),
    ]


def test_extract_excludes_join_on_and_select_items():
    preds = extract_predicates(parse_sql(
        "SELECT 'label', a FROM t JOIN u ON t.k = 'x' "
        "WHERE t.name = 'Tim' GROUP BY a ORDER BY 'z'"))
    assert canon(preds) == [("t.name", "=", "Tim")]


def test_extract_having_and_subquery_depth():
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 'deep') "
        "GROUP BY name HAVING name = 'Tim'"))
    assert canon(preds) == [
        ("d", "=", "deep"),
        ("name", "=", "Tim"),
    ]


def test_extract_skips_aggregate_comparisons():
    # Only plain column references carry calibratable values.
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t GROUP BY a HAVING max(name) = 'Tim'"))
    assert preds == []


def test_double_quoted_strings_are_literals():
    preds = extract_predicates(parse_sql('SELECT a FROM t WHERE b = "text"'))
    assert canon(preds) == [("b", "=", "text")]
    sql = render_query(parse_sql('SELECT a FROM t WHERE b = "te""xt"'))
    assert parse_sql(sql).root == parse_sql('SELECT a FROM t WHERE b = "te""xt"').root


def test_a_double_quoted_column_is_read_where_named():
    query = parse_sql("""SELECT a FROM t WHERE "x.y" = 'v' AND b = "x.y" """
                      """AND "q" = 'w' AND 'u' LIKE "x.y" AND "x.y" IN ('i')""")
    assert canon(extract_predicates(query)) == [("b", "=", "x.y")]
    assert canon(extract_predicates(query, {"x.y"})) == \
        [("`x.y`", "=", "v"), ("`x.y`", "IN-element", "i")]


def test_rewrite_finds_the_site_extraction_found_with_quoted_columns():
    query = parse_sql("""SELECT a FROM t WHERE b = "c" OR b = 'c'""")
    pred, = extract_predicates(query, {"c"})
    out = rewrite_predicates(query, [(pred, pred.ref, "d")], {"c"})
    assert out == """SELECT a FROM t WHERE b = "c" OR b = 'd'"""
    quoted = parse_sql("""SELECT a FROM t WHERE "c" = 'x'""")
    pred, = extract_predicates(quoted, {"c"})
    out = rewrite_predicates(quoted, [(pred, ColumnRef(None, "b"), "y")], {"c"})
    assert out == "SELECT a FROM t WHERE b = 'y'"


def test_extract_document_order():
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t WHERE z = 'late' AND a = 'early' OR b = 'mid'"))
    assert [p.value for p in preds] == ["late", "early", "mid"]


def test_extract_skips_non_string_comparisons():
    preds = extract_predicates(parse_sql(
        "SELECT a FROM t WHERE a = 1 AND b = c AND d > 'x'"))
    assert preds == []


# --------------------------------------------------------------------------
# Predicate rewriting

def test_rewrite_first_occurrence_only():
    query = parse_sql("SELECT a FROM t WHERE x = 'v' OR x = 'v'")
    out = rewrite_predicates(query, [(Predicate(ColumnRef(None, "x"), "=", "v"),
                                      ColumnRef(None, "x"), "w")])
    assert out == "SELECT a FROM t WHERE x = 'w' OR x = 'v'"


def test_rewrite_preserves_orientation():
    query = parse_sql("SELECT a FROM t WHERE 'v' = x")
    out = rewrite_predicates(query, [(Predicate(ColumnRef(None, "x"), "=", "v"),
                                      ColumnRef(None, "x"), "w")])
    assert out == "SELECT a FROM t WHERE 'w' = x"


def test_rewrite_changes_column_and_value():
    query = parse_sql("SELECT a FROM t WHERE given = 'wards'")
    old = Predicate(ColumnRef(None, "given"), "=", "wards")
    out = rewrite_predicates(query, [(old, ColumnRef(None, "last"), "ward")])
    # LAST is an SQLite keyword, so the new column is written quoted.
    assert out == "SELECT a FROM t WHERE `last` = 'ward'"


def test_rewrite_like_pattern():
    query = parse_sql("SELECT a FROM t WHERE name LIKE '%tim%'")
    old = Predicate(ColumnRef(None, "name"), "LIKE", "%tim%")
    out = rewrite_predicates(query, [(old, ColumnRef(None, "name"), "%timmy%")])
    assert out == "SELECT a FROM t WHERE name LIKE '%timmy%'"


def test_rewrite_in_element():
    query = parse_sql("SELECT a FROM t WHERE city IN ('NY', 'LA')")
    old = Predicate(ColumnRef(None, "city"), "IN-element", "LA")
    out = rewrite_predicates(query, [(old, ColumnRef(None, "city"), "SF")])
    assert out == "SELECT a FROM t WHERE city IN ('NY', 'SF')"


def test_rewrite_in_list_keeps_column_and_logs_skipped_changes(caplog):
    # 'NY' moves to state but 'LA' stays a city, so the list keeps city;
    # the number 3 is not a string element and also keeps it there.
    ny = Predicate(ColumnRef(None, "city"), "IN-element", "NY")
    la = Predicate(ColumnRef(None, "city"), "IN-element", "LA")
    state = ColumnRef(None, "state")
    for sql, changes, expected in [
        ("SELECT a FROM t WHERE city IN ('NY', 'LA')",
         [(ny, state, "NY"), (la, ny.ref, "LAX")],
         "SELECT a FROM t WHERE city IN ('NY', 'LAX')"),
        ("SELECT a FROM t WHERE city IN ('NY', 3)", [(ny, state, "NY")],
         "SELECT a FROM t WHERE city IN ('NY', 3)"),
    ]:
        caplog.clear()
        out = rewrite_predicates(parse_sql(sql), changes)
        assert out == expected
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "state = 'NY' skipped" in caplog.records[0].getMessage()


def test_rewrite_inside_subquery():
    query = parse_sql("SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 'x')")
    old = Predicate(ColumnRef(None, "d"), "=", "x")
    out = rewrite_predicates(query, [(old, ColumnRef(None, "d"), "y")])
    assert out == "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 'y')"


def test_rewrite_missing_predicate():
    query = parse_sql("SELECT a FROM t WHERE x = 'v'")
    with pytest.raises(PredicateNotFoundError):
        rewrite_predicates(query, [(Predicate(ColumnRef(None, "x"), "=", "nope"),
                                    ColumnRef(None, "x"), "w")])


def test_rewrite_does_not_mutate_input():
    query = parse_sql("SELECT a FROM t WHERE x = 'v'")
    rewrite_predicates(query, [(Predicate(ColumnRef(None, "x"), "=", "v"),
                                ColumnRef(None, "x"), "w")])
    assert render_query(query) == "SELECT a FROM t WHERE x = 'v'"


def test_rewrite_escapes_quotes():
    query = parse_sql("SELECT a FROM t WHERE x = 'v'")
    out = rewrite_predicates(query, [(Predicate(ColumnRef(None, "x"), "=", "v"),
                                      ColumnRef(None, "x"), "o'brien")])
    assert out == "SELECT a FROM t WHERE x = 'o''brien'"
    assert extract_predicates(parse_sql(out))[0].value == "o'brien"


# Subqueries in the places that condition scanning passes through: a
# function argument, a BETWEEN bound, an IN-list item, an IS NULL operand,
# JOIN ON, GROUP BY, ORDER BY and LIMIT.  Each reports the subquery's WHERE
# predicate, and that predicate can be rewritten.
_NESTED = "(SELECT max(b) FROM u WHERE name = 'x')"
NESTED_PREDICATE_QUERIES = [
    f"SELECT a FROM t WHERE b >= coalesce({_NESTED}, 0)",
    f"SELECT a FROM t WHERE b BETWEEN 1 AND {_NESTED}",
    f"SELECT a FROM t WHERE b IN (1, {_NESTED})",
    f"SELECT a FROM t WHERE {_NESTED} IS NULL",
    f"SELECT a FROM t JOIN v ON t.b = {_NESTED}",
    f"SELECT a FROM t GROUP BY {_NESTED}",
    f"SELECT a FROM t ORDER BY {_NESTED}",
    f"SELECT a FROM t LIMIT {_NESTED}",
]


@pytest.mark.parametrize("sql", NESTED_PREDICATE_QUERIES)
def test_nested_predicates_extract_and_rewrite(sql):
    query = parse_sql(sql)
    preds = extract_predicates(query)
    assert canon(preds) == [("name", "=", "x")]
    out = rewrite_predicates(query, [(preds[0], ColumnRef(None, "name"), "y")])
    assert out == sql.replace("'x'", "'y'")


def test_rewrite_follows_extraction_order():
    # The select-list subquery comes first in the query, so it is the
    # first occurrence.
    query = parse_sql("SELECT coalesce((SELECT a FROM u WHERE k = 'v'), 0) "
                      "FROM t WHERE k = 'v'")
    out = rewrite_predicates(query, [(Predicate(ColumnRef(None, "k"), "=", "v"),
                                      ColumnRef(None, "k"), "w")])
    assert canon(extract_predicates(parse_sql(out))) == [("k", "=", "w"),
                                              ("k", "=", "v")]


def test_rewrite_keeps_the_query_text():
    sql = ("select a /* 'v' */ from T where X == \"v\" -- x = 'v'\n"
           "  and Y   like 'p%' and z in ('q', \"r\");")
    query = parse_sql(sql)
    x, y, _, r = extract_predicates(query)
    out = rewrite_predicates(query, [(x, x.ref, "w"), (y, ColumnRef("T", "y2"), "p"),
                                     (r, r.ref, "s")])
    assert out == ("select a /* 'v' */ from T where X == 'w' -- x = 'v'\n"
                   "  and T.y2   like 'p' and z in ('q', 's');")


def test_spans_locate_the_source_text():
    sql = "SELECT a FROM t WHERE t . `b c` = \"it's\" AND d LIKE 'x'"
    query = parse_sql(sql)
    where = query.root.where
    spans = [where.left.left.span, where.left.right.span,
             where.right.expr.span, where.right.pattern.span]
    assert [sql[start:end] for start, end in spans] == \
        ["t . `b c`", "\"it's\"", "d", "'x'"]
    # A span takes no part in equality or hashing.
    assert where.left.left == ColumnRef("t", "b c")
    assert hash(where.right.pattern) == hash(Literal("'x'", "string"))


# --------------------------------------------------------------------------
# Query-shape utilities

def test_from_tables_order_and_dedupe():
    query = parse_sql("SELECT 1 FROM b, a JOIN B ON 1 = 1")
    assert table_scope(query)[0] == ["b", "a"]
    # The outer FROM comes before a subquery in the select list.
    query = parse_sql("SELECT (SELECT x FROM b) FROM a")
    assert table_scope(query)[0] == ["a", "b"]


def test_alias_map():
    query = parse_sql("SELECT 1 FROM people AS p JOIN dogs d ON p.id = d.oid")
    assert table_scope(query)[1] == {"p": "people", "people": "people",
                                     "d": "dogs", "dogs": "dogs"}


def test_order_sensitive():
    assert order_sensitive(parse_sql("SELECT a FROM t ORDER BY a"))
    assert not order_sensitive(parse_sql("SELECT a FROM t"))
    assert order_sensitive(parse_sql(
        "SELECT a FROM t UNION SELECT b FROM u ORDER BY 1"))


@pytest.mark.parametrize("pattern,parts", [
    ("%tim%", ("%", "tim", "%")),
    ("tim", ("", "tim", "")),
    ("%%ti_m_", ("%%", "ti_m", "_")),
    ("_x%", ("_", "x", "%")),
])
def test_split_like_pattern(pattern, parts):
    assert split_like_pattern(pattern) == parts
    assert merge_like_pattern(*split_like_pattern(pattern)) == pattern


# --------------------------------------------------------------------------
# Property: every well-formed tree survives render -> parse intact

_COLS = ("col_a", "col_b", "total", "label")
_TABLES = ("tab_x", "tab_y", "people")

_column = st.builds(ColumnRef,
                    st.sampled_from((None,) + _TABLES),
                    st.sampled_from(_COLS))
_number = st.one_of(
    st.integers(0, 999).map(lambda n: Literal(str(n), "number")),
    st.sampled_from(["0.5", "1.25", "2e2"]).map(lambda s: Literal(s, "number")),
)
_string = st.text(alphabet="abc x'_%", max_size=6).map(Literal.string)
_scalar = st.one_of(_column, _number, _string)


# Strategies are built once per argument set: building them per draw makes
# generation, not the code under test, the cost of these properties.

def _nested(subquery):
    """A scalar subquery when ``subquery`` is given, otherwise nothing."""
    return st.nothing() if subquery is None else st.builds(ScalarSubquery, subquery)


@cache
def _values(depth: int, subquery=None):
    if depth <= 0:
        return st.one_of(_scalar, _nested(subquery))
    inner = _values(depth - 1, subquery)
    return st.one_of(
        _scalar,
        _nested(subquery),
        st.builds(FuncCall, st.sampled_from(("count", "max", "lower")),
                  st.tuples(inner), st.booleans()),
        st.builds(lambda name: FuncCall(name, (ColumnRef(None, "*"),)),
                  st.just("count")),
        st.builds(Binary, st.sampled_from(("+", "-", "*", "/", "||")),
                  inner, inner),
        st.builds(Unary, st.just("-"), _scalar),
    )


@cache
def _conditions(depth: int, subquery):
    value = _values(1, subquery)
    nested = _nested(subquery)
    comparison = st.one_of(
        st.builds(Binary, st.sampled_from(("=", "<", ">", "<=", ">=", "<>")),
                  value, value),
        st.builds(Like, _column, _string, st.booleans()),
        st.builds(IsNull, st.one_of(_column, nested), st.booleans()),
        st.builds(InList, _column,
                  st.lists(st.one_of(_scalar, nested),
                           min_size=1, max_size=3).map(tuple),
                  st.booleans()),
    )
    if subquery is not None:
        comparison = st.one_of(
            comparison,
            st.builds(InSelect, _column, subquery, st.booleans()),
            st.builds(Exists, subquery),
            st.builds(Binary, st.just("="), _column,
                      st.builds(ScalarSubquery, subquery)),
            st.builds(Binary, st.just(">="), _column,
                      st.builds(FuncCall, st.just("coalesce"),
                                st.tuples(nested, _number))),
        )
    bound = st.one_of(_number, nested)
    comparison = st.one_of(comparison,
                           st.builds(Between, _column, bound, bound,
                                     st.booleans()))
    if depth <= 0:
        return comparison
    inner = _conditions(depth - 1, subquery)
    return st.one_of(
        comparison,
        st.builds(Binary, st.sampled_from(("AND", "OR")), inner, inner),
        st.builds(Unary, st.just("NOT"), inner),
    )


@st.composite
def _selects(draw, depth: int = 1):
    subquery = _select_strategy(depth - 1) if depth > 0 else None
    operand = st.one_of(_column, _nested(subquery))
    items = tuple(
        SelectItem(draw(_values(1)),
                   draw(st.sampled_from((None, "alias_a"))))
        for _ in range(draw(st.integers(1, 3))))
    source = TableRef(draw(st.sampled_from(_TABLES)),
                      draw(st.sampled_from((None, "s"))))
    if subquery is not None and draw(st.booleans()):
        source = SubqueryTable(draw(subquery), "sub")
    joins = []
    for kind in draw(st.lists(
            st.sampled_from((",", "JOIN", "LEFT JOIN", "CROSS JOIN")),
            max_size=2)):
        table = TableRef(draw(st.sampled_from(_TABLES)))
        on = None
        if kind in ("JOIN", "LEFT JOIN"):
            on = Binary("=", draw(_column), draw(operand))
        joins.append(Join(kind, table, on))
    where = draw(st.one_of(st.none(), _conditions(1, subquery)))
    group_by = tuple(draw(st.lists(operand, max_size=2)))
    having = None
    if group_by:
        having = draw(st.one_of(st.none(), _conditions(0, subquery)))
    order_by = tuple(
        OrderItem(draw(operand), draw(st.sampled_from((None, "ASC", "DESC"))))
        for _ in range(draw(st.integers(0, 2))))
    limit = draw(st.one_of(st.none(), _number, _nested(subquery)))
    offset = draw(_number) if limit is not None and draw(st.booleans()) else None
    return Select(draw(st.booleans()), items, source, tuple(joins), where,
                  group_by, having, order_by, limit, offset)


@cache
def _select_strategy(depth: int):
    return _selects(depth)


_queries = st.one_of(
    _selects(),
    st.builds(SetOp,
              st.sampled_from(("UNION", "UNION ALL", "INTERSECT", "EXCEPT")),
              _selects(0), _selects(0)),
)


@settings(max_examples=200, deadline=None)
@given(_queries)
def test_random_tree_survives_render_parse(tree):
    rendered = render_query(tree)
    parsed = parse_sql(rendered)
    assert parsed.root == tree
    assert render_query(parsed) == rendered


@settings(max_examples=100, deadline=None)
@given(_queries)
def test_random_tree_predicates_extract_and_rewrite(tree):
    rendered = render_query(tree)
    query = parse_sql(rendered)
    preds = extract_predicates(query)
    for pred in preds:
        out = rewrite_predicates(query, [(pred, pred.ref, "swapped")])
        # Exactly one entry changes: the first one equal to ``pred`` in
        # column, operator and value.
        first = next(i for i, p in enumerate(preds)
                     if (p.column, p.operator, p.value)
                     == (pred.column, pred.operator, pred.value))
        expected = list(preds)
        expected[first] = replace(preds[first], value="swapped")
        assert extract_predicates(parse_sql(out)) == expected


def _changed_values(query: ParsedQuery, data) -> tuple[list, list]:
    """Value changes to distinct predicates of ``query``, and the predicate
    list that rewriting them should yield.

    New values never equal an old one, so no change can take a site that
    an earlier change rewrote.  Each change takes the first entry equal to
    its predicate that no earlier change took, and only those entries
    differ.
    """
    preds = extract_predicates(query)
    chosen = data.draw(st.lists(st.integers(0, len(preds) - 1), unique=True)
                       if preds else st.just([]))
    changes = [(preds[i], preds[i].ref, f"new{k}") for k, i in enumerate(chosen)]
    expected, taken = list(preds), set()
    for old, _, value in changes:
        i = next(i for i, p in enumerate(preds) if i not in taken and
                 (p.ref, p.operator, p.value) == (old.ref, old.operator, old.value))
        taken.add(i)
        expected[i] = replace(preds[i], value=value)
    return changes, expected


@settings(max_examples=100, deadline=None)
@given(_queries, st.data())
def test_random_tree_rewrites_in_one_pass(tree, data):
    query = parse_sql(render_query(tree))
    changes, expected = _changed_values(query, data)
    out = rewrite_predicates(query, changes)
    folded = query.original_text
    for change in changes:
        folded = rewrite_predicates(parse_sql(folded), [change])
    assert out == folded
    assert extract_predicates(parse_sql(out)) == expected


# Text that SQLite reads as a token boundary and nothing more.  Each starts
# with whitespace, so that a "-" or "/" before it never opens a comment.
_SEPARATORS = st.sampled_from(
    (" ", "  ", "\n\t", " /* 'it' */ ", " -- x 'y\n", "\n/* a\n -- b */\n"))
_CASINGS = st.sampled_from((str.upper, str.lower, str.swapcase, str.title))


@st.composite
def _noisy_texts(draw):
    """The rendering of a random tree, with the case of its words and the
    whitespace and comments between its tokens drawn at random."""
    text = render_query(draw(_queries))
    out, pos = [draw(st.sampled_from(("", "/* lead */ ")))], 0
    for tok in tokenize(text)[:-1]:
        if text[pos:tok.pos] or draw(st.booleans()):
            out.append(draw(_SEPARATORS))
        spelling = text[tok.pos:tok.end]
        out.append(draw(_CASINGS)(spelling) if tok.kind == "ident" else spelling)
        pos = tok.end
    out.append(draw(st.sampled_from(("", ";", " -- note", "; /* end */"))))
    return "".join(out)


def _without_strings(text: str) -> tuple[str, list[str]]:
    """``text`` with each string literal masked, and the literals."""
    tokens = [tok for tok in tokenize(text) if tok.kind == "string"]
    masked, pos = [], 0
    for tok in tokens:
        masked += [text[pos:tok.pos], "?"]
        pos = tok.end
    return "".join(masked) + text[pos:], [tok.text for tok in tokens]


@settings(max_examples=100, deadline=None)
@given(_noisy_texts(), st.data())
def test_rewrite_keeps_text_outside_changed_tokens(text, data):
    query = parse_sql(text)
    changes, expected = _changed_values(query, data)
    out = rewrite_predicates(query, changes)
    assert extract_predicates(parse_sql(out)) == expected
    # Every character outside the string literals is unchanged, and the
    # only literals that differ are the new values.
    masked, old = _without_strings(text)
    masked_out, new = _without_strings(out)
    assert masked_out == masked and len(new) == len(old)
    assert sorted(n for o, n in zip(old, new) if o != n) == \
        sorted(f"'{value}'" for _, _, value in changes)


# --------------------------------------------------------------------------
# Property: SQLite reads the rendering of a parsed statement as it reads
# the statement

_ORACLE_TABLE = """
    CREATE TABLE t (a INTEGER, b TEXT, "x.y" TEXT, "order" INTEGER, key TEXT,
                    "table" REAL, "current_date" TEXT);
    INSERT INTO t VALUES (1, 'abc', 'x', 2, 'k', 0.5, '1999-12-31'),
                         (2, 'b%', NULL, -1, 'abc', NULL, NULL),
                         (NULL, '', 'abc', 0, NULL, -2.5, 'abc');
"""
# Unquoted, the CURRENT_* keywords are values; quoted, a column.
_ORACLE_NAMES = ("a", "b", "`x.y`", "t.a", "t.`x.y`", "`order`", "t.`order`",
                 "key", "t.key", "`table`", "current_date", "`current_date`",
                 "t.`current_date`", "CURRENT_TIME", "current_timestamp")
_ORACLE_LITERALS = ("0", "1", "2", "1.5", "'abc'", "'b%'", "''", "NULL")
_ORACLE_OPERATORS = tuple(_BINARY_PREC) + (
    "=", "==", "!=", "<>", "<", "<=", ">", ">=")


def _oracle_exprs(inner):
    lists = st.lists(inner, min_size=1, max_size=3).map(", ".join)
    return st.one_of(
        st.tuples(inner, st.sampled_from(_ORACLE_OPERATORS), inner)
        .map(" ".join),
        inner.map("({})".format),
        inner.map("NOT {}".format),
        inner.map("-{}".format),
        st.tuples(inner, st.sampled_from(("LIKE", "NOT LIKE")), inner)
        .map(" ".join),
        st.tuples(inner, inner, inner)
        .map("{0[0]} BETWEEN {0[1]} AND {0[2]}".format),
        st.tuples(inner, st.sampled_from(("IN", "NOT IN")), lists)
        .map("{0[0]} {0[1]} ({0[2]})".format),
        st.tuples(inner, st.sampled_from(("IS NULL", "IS NOT NULL")))
        .map(" ".join),
        st.tuples(st.sampled_from(("abs", "lower", "length", "coalesce", "max")),
                  lists).map("{0[0]}({0[1]})".format),
        st.tuples(inner, inner).map("(SELECT {0[0]} FROM t WHERE {0[1]})".format),
        st.tuples(inner, inner, inner)
        .map("{0[0]} IN (SELECT {0[1]} FROM t WHERE {0[2]})".format),
    )


_oracle_expr = st.recursive(
    st.sampled_from(_ORACLE_NAMES + _ORACLE_LITERALS), _oracle_exprs,
    max_leaves=8)


def _rows(conn, sql):
    try:
        return Counter(conn.execute(sql).fetchall())
    except sqlite3.Error:
        return None


@settings(max_examples=400, deadline=None)
@given(_oracle_expr, _oracle_expr)
def test_sqlite_reads_rendering_as_the_statement(e1, e2):
    text = f"SELECT {e1} FROM t WHERE {e2}"
    try:
        rendered = render_query(parse_sql(text))
    except SqlParseError:
        return
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.executescript(_ORACLE_TABLE)
        # The clock can tick between two statements, but not twice between
        # three, so the rendering must agree with a reading on one side.
        before, after = _rows(conn, text), None
        got = _rows(conn, rendered)
        if got != before:
            after = _rows(conn, text)
        assert got in (before, after), rendered
