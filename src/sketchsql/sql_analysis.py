"""SQL parsing, rendering, and predicate manipulation.

This module implements a small tokenizer and recursive-descent parser for
the read-only SELECT dialect used by the text-to-SQL benchmarks: SELECT
lists with aggregates and arithmetic, FROM with aliases and joins,
WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, IN/LIKE/BETWEEN/EXISTS/IS NULL
predicates, nested subqueries, and UNION/INTERSECT/EXCEPT.  DML, DDL, and
vendor extensions are rejected.

Two lexical conventions follow the benchmarks' SQLite usage: single- and
double-quoted tokens are both read as string literals (gold queries quote
values either way and SQLite accepts both), while backticks quote
identifiers.  The parser knows no schema: predicate extraction and
rewriting read as a column the double-quoted strings their caller names.

Each token carries one key, and the parser tests the next token by that
key alone: a word's key is its upper-cased text, an operator's its text,
and any other token's its kind.  A keyword of two words (GROUP BY, LEFT
OUTER JOIN) is taken one word at a time, so a pair cut short is reported
as the missing word at the token where it should be.

The parse tree is immutable.  Rendering is canonical (uppercase keywords,
single spaces, ``AS`` before aliases) and ``parse -> render -> parse`` is a
fixpoint; it writes the sketch text.

The parser notes, as it goes, what the later passes read of a query's
shape, so that none of them walks the tree again: the predicate sites, the
FROM scope and the double-quoted strings (see :class:`ParsedQuery`).  Text
predicates come from WHERE and HAVING clauses at every depth: the outer
query and subqueries anywhere in it, whether in a condition, a select
item, a function argument, a FROM source, JOIN ON, GROUP BY, ORDER BY or
LIMIT.  Rewriting reads the same sites, so every predicate that is
reported can be rewritten.  A rewrite renders nothing: it splices the
changed literal and column tokens into the query's own text, so comments,
case, spacing and quoting everywhere else are kept.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import PredicateNotFoundError, SqlParseError

log = logging.getLogger(__name__)

# --------------------------------------------------------------------------
# Tokens

# One alternative per token kind, tried in this order; an unnamed run of
# whitespace or a comment is skipped.  A string ends at a quote not followed
# by another quote (a doubled quote is an escape), so an unterminated
# literal fails here instead of ending early.  Comments come before the
# operators, which would take their first character, and an unterminated
# "/*" runs to the end of the input, as in SQLite.  Multi-character
# operators come first so that e.g. "<=" never lexes as "<", "=".
_TOKEN = re.compile(r"""
    (?P<string> '[^']*(?:''[^']*)*'(?!') | "[^"]*(?:""[^"]*)*"(?!") )
  | `(?P<qident>[^`]*)`
  | (?P<number> (?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)? )
  | (?P<ident> [A-Za-z_][A-Za-z0-9_$]* )
  | \s+ | --[^\n]* | /\*[\s\S]*?(?:\*/|\Z)
  | (?P<op> <> | != | <= | >= | == | \|\| | [=<>(),.*+\-/%;] )
""", re.VERBOSE)

RESERVED_WORDS = frozenset({
    "SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "LIMIT", "OFFSET", "JOIN", "LEFT", "RIGHT", "FULL", "INNER",
    "OUTER", "CROSS", "ON", "AS", "AND", "OR", "NOT", "IN", "LIKE",
    "BETWEEN", "IS", "NULL", "EXISTS", "UNION", "INTERSECT", "EXCEPT",
    "ASC", "DESC", "CASE", "WHEN", "THEN", "ELSE", "END",
})

# Every SQLite keyword (sqlite.org/lang_keywords.html).  The renderer
# quotes a name that spells one, since many cannot stand as a bare name.
_SQLITE_KEYWORDS = frozenset("""
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH
    AUTOINCREMENT BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE
    COLUMN COMMIT CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED
    DELETE DESC DETACH DISTINCT DO DROP EACH ELSE END ESCAPE EXCEPT EXCLUDE
    EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST FOLLOWING FOR FOREIGN FROM
    FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE IMMEDIATE IN INDEX
    INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS ISNULL JOIN KEY
    LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING NOTNULL
    NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA
    PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX
    RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS
    SAVEPOINT SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION
    TRIGGER UNBOUNDED UNION UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL
    WHEN WHERE WINDOW WITH WITHOUT
""".split())

# Keywords that, unquoted, stand for a value; they parse as literals, so a
# column of the same name is always a quoted (and rendered quoted) name.
_TIME_WORDS = frozenset({"CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP"})


class Token(NamedTuple):
    kind: str   # "ident" | "qident" | "number" | "string" | "op" | "end"
    text: str
    pos: int
    end: int    # the offset just past the token
    key: str    # what the parser matches: an ident's upper-cased text, an
                # op's text, else the kind (lower case, so never a word's)


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos, n = 0, len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            ch = text[pos]
            if ch in "'\"":
                raise SqlParseError("unterminated string literal", pos)
            if ch == "`":
                raise SqlParseError("unterminated quoted identifier", pos)
            raise SqlParseError(f"unexpected character {ch!r}", pos)
        kind = m.lastgroup
        if kind is not None:
            spelling = m.group(kind)
            key = (spelling.upper() if kind == "ident"
                   else spelling if kind == "op" else kind)
            tokens.append(Token(kind, spelling, pos, m.end(), key))
        pos = m.end()
    tokens.append(Token("end", "", n, n, "end"))
    return tokens


# --------------------------------------------------------------------------
# Parse-tree nodes.  Field order matches source order (but for LIMIT's
# `<offset>, <count>` form), so a field-order walk visits the query left to
# right.  The parser gives string literals and column references their
# ``span``, the (start, end) offsets of their text in the source; it takes
# no part in equality.

@dataclass(frozen=True)
class Literal:
    text: str            # source spelling, quotes included for strings
    kind: str            # "string" | "number" | "null" | "time"
    span: tuple[int, int] | None = field(default=None, compare=False,
                                         repr=False)

    @property
    def string_value(self) -> str:
        quote = self.text[0]
        return self.text[1:-1].replace(quote * 2, quote)

    @classmethod
    def string(cls, value: str) -> "Literal":
        return cls("'" + value.replace("'", "''") + "'", "string")


@dataclass(frozen=True)
class ColumnRef:
    table: str | None
    name: str            # may be "*"
    span: tuple[int, int] | None = field(default=None, compare=False,
                                         repr=False)


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: tuple
    distinct: bool = False


@dataclass(frozen=True)
class Unary:
    op: str              # "NOT" | "-" | "+"
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str              # comparison, arithmetic, "||", "AND", "OR"
    left: object
    right: object


@dataclass(frozen=True)
class InList:
    expr: object
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class InSelect:
    expr: object
    query: object
    negated: bool = False


@dataclass(frozen=True)
class Between:
    expr: object
    low: object
    high: object
    negated: bool = False


@dataclass(frozen=True)
class Like:
    expr: object
    pattern: object
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    expr: object
    negated: bool = False


@dataclass(frozen=True)
class Exists:
    query: object


@dataclass(frozen=True)
class ScalarSubquery:
    query: object


@dataclass(frozen=True)
class SelectItem:
    expr: object
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None


@dataclass(frozen=True)
class SubqueryTable:
    query: object
    alias: str | None = None


@dataclass(frozen=True)
class Join:
    kind: str            # "," | "JOIN" | "LEFT JOIN" | "CROSS JOIN"
    source: object
    on: object | None = None


@dataclass(frozen=True)
class OrderItem:
    expr: object
    direction: str | None = None   # "ASC" | "DESC" | None


@dataclass(frozen=True)
class Select:
    distinct: bool
    items: tuple
    source: object | None = None
    joins: tuple = ()
    where: object | None = None
    group_by: tuple = ()
    having: object | None = None
    order_by: tuple = ()
    limit: object | None = None
    offset: object | None = None


@dataclass(frozen=True)
class SetOp:
    op: str              # "UNION" | "UNION ALL" | "INTERSECT" | "EXCEPT"
    left: object
    right: object


@dataclass(frozen=True)
class ParsedQuery:
    """A parse tree, its text, and what the parser noted of its shape.

    The notes take no part in equality.  ``sites`` are the ``=``, LIKE and
    IN-list nodes of WHERE and HAVING clauses at every depth, in the order
    of a walk of the tree that visits each node before its fields' nodes,
    in field order.  That is source order, except that of
    ``LIMIT <offset>, <count>`` the tree holds the count first.  ``tables``
    and ``aliases`` are the FROM scope (see :func:`table_scope`), and
    ``double_quoted`` the text of every double-quoted string.
    """

    root: object
    original_text: str
    sites: tuple = field(compare=False, repr=False)
    tables: tuple = field(compare=False, repr=False)
    aliases: dict = field(compare=False, repr=False)
    double_quoted: frozenset = field(compare=False, repr=False)


# --------------------------------------------------------------------------
# Parser

# Binding strength of each binary operator, loosest first.  NOT is 3, the
# comparison and predicate forms 4 and the unary signs 8; the parser and
# the renderer both read this table.
_BINARY_PREC = {"OR": 1, "AND": 2, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
                "||": 7}

class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        # Notes for ParsedQuery: whether the parser is in a WHERE or HAVING
        # clause of the nearest enclosing SELECT, the sites and the FROM
        # table references in walk order, and the double-quoted strings.
        self.in_condition = False
        self.sites: list = []
        self.sources: list = []
        self.double_quoted: set = set()

    # -- token helpers

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def error(self, message: str):
        raise SqlParseError(message, self.peek().pos)

    def at(self, *keys: str) -> bool:
        return self.tokens[self.i].key in keys

    def take(self, *keys: str) -> str | None:
        """Consume the next token and return its key if it is one of
        ``keys``; no caller names "end", so the end is never passed."""
        key = self.tokens[self.i].key
        if key in keys:
            self.i += 1
            return key
        return None

    def expect(self, key: str) -> None:
        if self.take(key) is None:
            self.error(f"expected {key}" if key.isalpha()
                       else f"expected {key!r}")

    def at_name(self) -> bool:
        """True at a quoted identifier or a word that is not reserved."""
        tok = self.peek()
        return tok.kind == "qident" or (
            tok.kind == "ident" and tok.key not in RESERVED_WORDS)

    # -- grammar

    def parse_statement(self):
        if not self.at("SELECT"):
            self.error("only SELECT statements are supported")
        root = self.parse_query()
        self.take(";")
        if not self.at("end"):
            self.error("unexpected trailing input")
        return root

    def parse_query(self):
        node = self.parse_select_core()
        while True:
            op = self.take("UNION", "INTERSECT", "EXCEPT")
            if op is None:
                return node
            if op == "UNION" and self.take("ALL"):
                op = "UNION ALL"
            node = SetOp(op, node, self.parse_select_core())

    def parse_select_core(self) -> Select:
        self.expect("SELECT")
        outer, self.in_condition = self.in_condition, False
        # This SELECT's own tables go before those of the subqueries in it.
        own = len(self.sources)
        distinct = self.take("DISTINCT", "ALL") == "DISTINCT"
        items = [self.parse_select_item()]
        while self.take(","):
            items.append(self.parse_select_item())

        source, joins = None, []
        if self.take("FROM"):
            source = self.parse_table_source()
            while True:
                if self.take(","):
                    joins.append(Join(",", self.parse_table_source()))
                    continue
                kind = self.parse_join_kind()
                if kind is None:
                    break
                table = self.parse_table_source()
                on = self.parse_expr() if self.take("ON") else None
                joins.append(Join(kind, table, on))
        self.sources[own:own] = [
            src for src in (source, *(join.source for join in joins))
            if type(src) is TableRef]

        where = self.parse_condition() if self.take("WHERE") else None
        group_by = []
        if self.take("GROUP"):
            self.expect("BY")
            group_by.append(self.parse_expr())
            while self.take(","):
                group_by.append(self.parse_expr())
        having = self.parse_condition() if self.take("HAVING") else None
        order_by = []
        if self.take("ORDER"):
            self.expect("BY")
            order_by.append(self.parse_order_item())
            while self.take(","):
                order_by.append(self.parse_order_item())
        limit = offset = None
        if self.take("LIMIT"):
            first = len(self.sites), len(self.sources)
            limit = self.parse_expr(5)
            if self.take("OFFSET"):
                offset = self.parse_expr(5)
            elif self.take(","):
                # SQLite's `LIMIT <offset>, <count>` shorthand.  The tree
                # holds the count first, and so do the notes.
                second = len(self.sites), len(self.sources)
                offset, limit = limit, self.parse_expr(5)
                for notes, start, end in zip((self.sites, self.sources),
                                             first, second):
                    notes[start:] = notes[end:] + notes[start:end]
        self.in_condition = outer
        return Select(distinct, tuple(items), source, tuple(joins), where,
                      tuple(group_by), having, tuple(order_by), limit, offset)

    def parse_join_kind(self) -> str | None:
        """``[INNER|CROSS] JOIN`` or ``LEFT [OUTER] JOIN``, as "JOIN",
        "CROSS JOIN" or "LEFT JOIN"; None at any other token."""
        if self.at("RIGHT", "FULL"):
            self.error("only inner, left, and cross joins are supported")
        word = self.take("JOIN", "INNER", "CROSS", "LEFT")
        if word is None or word == "JOIN":
            return word
        if word == "LEFT":
            self.take("OUTER")
        self.expect("JOIN")
        return "JOIN" if word == "INNER" else f"{word} JOIN"

    def parse_select_item(self) -> SelectItem:
        if self.take("*"):
            return SelectItem(ColumnRef(None, "*"))
        expr = self.parse_expr()
        alias = self.parse_alias()
        return SelectItem(expr, alias)

    def parse_table_source(self):
        if self.take("("):
            if not self.at("SELECT"):
                self.error("expected a subquery after '('")
            query = self.parse_query()
            self.expect(")")
            return SubqueryTable(query, self.parse_alias())
        if self.at_name():
            return TableRef(self.advance().text, self.parse_alias())
        self.error("expected a table name")

    def parse_alias(self) -> str | None:
        if self.take("AS"):
            tok = self.peek()
            if tok.kind not in ("ident", "qident"):
                self.error("expected an alias after AS")
            self.advance()
            return tok.text
        return self.advance().text if self.at_name() else None

    def parse_condition(self):
        """The expression of a WHERE or HAVING clause."""
        self.in_condition = True
        node = self.parse_expr()
        self.in_condition = False
        return node

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        return OrderItem(expr, self.take("ASC", "DESC"))

    # -- expressions, lowest precedence first

    def parse_expr(self, level: int = 1):
        """A left-associative chain of the binary operators that
        ``_BINARY_PREC`` puts at ``level``.  Levels 3 (NOT), 4 (comparisons
        and predicates) and 8 (unary signs) have rules of their own."""
        node = self.parse_operand(level + 1)
        while True:
            op = self.peek().key
            if _BINARY_PREC.get(op) != level:
                return node
            self.advance()
            node = Binary(op, node, self.parse_operand(level + 1))

    def parse_operand(self, level: int):
        if level == 3:
            return self.parse_not()
        if level == 8:
            return self.parse_unary()
        return self.parse_expr(level)

    def parse_not(self):
        # `NOT IN/LIKE/BETWEEN/EXISTS` belongs to the predicate, so only
        # treat NOT as a prefix when it does not open one of those forms.
        if self.at("NOT") and self.tokens[self.i + 1].key not in (
                "IN", "LIKE", "BETWEEN"):
            self.advance()
            return Unary("NOT", self.parse_not())
        return self.parse_predicate()

    def note_site(self, slot: int, node):
        """Note ``node``, a predicate site, when it is in a condition: at
        ``slot``, the count of sites when it began, so before the sites in
        its operands."""
        if self.in_condition:
            self.sites.insert(slot, node)
        return node

    def parse_predicate(self):
        slot = len(self.sites)
        node = self.parse_expr(5)
        op = self.take("=", "==", "!=", "<>", "<", "<=", ">", ">=")
        if op:
            node = Binary("=" if op == "==" else op, node, self.parse_expr(5))
            return self.note_site(slot, node) if node.op == "=" else node
        if self.take("IS"):
            negated = self.take("NOT") is not None
            self.expect("NULL")
            return IsNull(node, negated)
        negated = self.take("NOT") is not None
        if self.take("IN"):
            self.expect("(")
            if self.at("SELECT"):
                query = self.parse_query()
                self.expect(")")
                return InSelect(node, query, negated)
            items = [self.parse_expr(5)]
            while self.take(","):
                items.append(self.parse_expr(5))
            self.expect(")")
            return self.note_site(slot, InList(node, tuple(items), negated))
        if self.take("LIKE"):
            return self.note_site(slot, Like(node, self.parse_expr(5), negated))
        if self.take("BETWEEN"):
            low = self.parse_expr(5)
            self.expect("AND")
            return Between(node, low, self.parse_expr(5), negated)
        if negated:
            self.error("expected IN, LIKE, or BETWEEN after NOT")
        return node

    def parse_unary(self):
        op = self.take("-", "+")
        if op:
            return Unary(op, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if self.take("number"):
            return Literal(tok.text, "number")
        if self.take("string"):
            node = Literal(tok.text, "string", (tok.pos, tok.end))
            if tok.text[0] == '"':
                self.double_quoted.add(node.string_value)
            return node
        if self.take("NULL"):
            return Literal(tok.text, "null")
        if self.take(*_TIME_WORDS):
            return Literal(tok.text, "time")
        if self.take("EXISTS"):
            self.expect("(")
            if not self.at("SELECT"):
                self.error("expected a subquery after EXISTS")
            query = self.parse_query()
            self.expect(")")
            return Exists(query)
        if self.at("CASE"):
            self.error("CASE expressions are not supported in this dialect")
        if self.take("("):
            if self.at("SELECT"):
                query = self.parse_query()
                self.expect(")")
                return ScalarSubquery(query)
            node = self.parse_expr()
            self.expect(")")
            return node
        if self.at_name() or (tok.kind == "ident"
                              and self.tokens[self.i + 1].key == "("):
            self.advance()
            if tok.kind == "ident" and self.at("("):
                return self.parse_call(tok.text)
            if self.take("."):
                inner = self.peek()
                if inner.kind in ("ident", "qident"):
                    self.advance()
                    return ColumnRef(tok.text, inner.text, (tok.pos, inner.end))
                if self.at("*"):
                    star = self.advance()
                    return ColumnRef(tok.text, "*", (tok.pos, star.end))
                self.error("expected a column name after '.'")
            return ColumnRef(None, tok.text, (tok.pos, tok.end))
        self.error("expected an expression")

    def parse_call(self, name: str) -> FuncCall:
        self.expect("(")
        distinct = self.take("DISTINCT") is not None
        if self.take("*"):
            self.expect(")")
            return FuncCall(name, (ColumnRef(None, "*"),), distinct)
        if self.take(")"):
            return FuncCall(name, (), distinct)
        args = [self.parse_expr()]
        while self.take(","):
            args.append(self.parse_expr())
        self.expect(")")
        return FuncCall(name, tuple(args), distinct)


def parse_sql(text: str) -> ParsedQuery:
    """Parse SQL text, returning an immutable :class:`ParsedQuery`.

    Raises :class:`SqlParseError` on invalid input, with the failure
    offset when known, and on a query nested past the recursion limit.
    """
    parser = _Parser(text)
    try:
        root = parser.parse_statement()
    except RecursionError:
        raise SqlParseError("query nests too deeply to analyze") from None
    names: dict[str, str] = {}
    aliases: dict[str, str] = {}
    for src in parser.sources:
        names.setdefault(src.name.lower(), src.name)
        aliases.setdefault(src.name.lower(), src.name)
        if src.alias:
            aliases.setdefault(src.alias.lower(), src.name)
    return ParsedQuery(root, text, tuple(parser.sites), tuple(names.values()),
                       aliases, frozenset(parser.double_quoted))


# --------------------------------------------------------------------------
# Rendering

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")


def _render_name(name: str) -> str:
    if name == "*" or (_PLAIN_IDENT.match(name)
                       and name.upper() not in _SQLITE_KEYWORDS):
        return name
    return f"`{name}`"


def column_text(ref: ColumnRef) -> str:
    """A column reference as the renderer spells it."""
    if ref.table is None:
        return _render_name(ref.name)
    return f"{_render_name(ref.table)}.{_render_name(ref.name)}"


def _prec(node) -> int:
    if isinstance(node, Binary):
        return _BINARY_PREC.get(node.op, 4)
    if isinstance(node, Unary):
        return 3 if node.op == "NOT" else 8
    if isinstance(node, (InList, InSelect, Between, Like, IsNull)):
        return 4
    return 9


class _Renderer:
    """Canonical SQL rendering with minimal, precedence-driven parentheses.

    ``spell`` lets callers swap the rendering of column references, e.g.
    to emit index tokens instead of names.
    """

    def __init__(self, spell=None):
        self.spell = spell or column_text

    def query(self, node) -> str:
        if isinstance(node, SetOp):
            return f"{self.query(node.left)} {node.op} {self.query(node.right)}"
        return self.select(node)

    def select(self, sel: Select) -> str:
        out = "SELECT "
        if sel.distinct:
            out += "DISTINCT "
        out += ", ".join(self.select_item(item) for item in sel.items)
        if sel.source is not None:
            out += " FROM " + self.source(sel.source)
            for join in sel.joins:
                if join.kind == ",":
                    out += ", " + self.source(join.source)
                else:
                    out += f" {join.kind} " + self.source(join.source)
                    if join.on is not None:
                        out += " ON " + self.expr(join.on)
        if sel.where is not None:
            out += " WHERE " + self.expr(sel.where)
        if sel.group_by:
            out += " GROUP BY " + ", ".join(self.expr(e) for e in sel.group_by)
        if sel.having is not None:
            out += " HAVING " + self.expr(sel.having)
        if sel.order_by:
            out += " ORDER BY " + ", ".join(
                self.expr(o.expr) + (f" {o.direction}" if o.direction else "")
                for o in sel.order_by
            )
        if sel.limit is not None:
            out += " LIMIT " + self.expr(sel.limit)
            if sel.offset is not None:
                out += " OFFSET " + self.expr(sel.offset)
        return out

    def select_item(self, item: SelectItem) -> str:
        text = self.expr(item.expr)
        if item.alias:
            text += f" AS {_render_name(item.alias)}"
        return text

    def source(self, src) -> str:
        if isinstance(src, TableRef):
            text = _render_name(src.name)
        else:
            text = f"({self.query(src.query)})"
        if src.alias:
            text += f" AS {_render_name(src.alias)}"
        return text

    def _child(self, node, parent_prec: int, tighten: bool = False) -> str:
        """Render a child, adding parentheses when precedence requires.

        ``tighten`` forces parentheses at equal precedence, used for the
        right side of left-associative operators and both sides of the
        non-associative comparison tier.
        """
        prec = _prec(node)
        text = self.expr(node)
        if prec < parent_prec or (tighten and prec == parent_prec):
            return f"({text})"
        return text

    def expr(self, node) -> str:
        if isinstance(node, Literal):
            return node.text
        if isinstance(node, ColumnRef):
            return self.spell(node)
        if isinstance(node, FuncCall):
            inner = ", ".join(self.expr(a) for a in node.args)
            if node.distinct:
                inner = "DISTINCT " + inner
            return f"{node.name}({inner})"
        if isinstance(node, Unary):
            if node.op == "NOT":
                return "NOT " + self._child(node.operand, 3)
            operand = self._child(node.operand, 8)
            # "--" would open a comment.
            if node.op == "-" and operand.startswith("-"):
                return "- " + operand
            return node.op + operand
        if isinstance(node, Binary):
            p = _prec(node)
            left = self._child(node.left, p, tighten=p == 4)
            right = self._child(node.right, p, tighten=True)
            return f"{left} {node.op} {right}"
        if isinstance(node, InList):
            kw = "NOT IN" if node.negated else "IN"
            items = ", ".join(self.expr(e) for e in node.items)
            return f"{self._child(node.expr, 4, tighten=True)} {kw} ({items})"
        if isinstance(node, InSelect):
            kw = "NOT IN" if node.negated else "IN"
            return f"{self._child(node.expr, 4, tighten=True)} {kw} ({self.query(node.query)})"
        if isinstance(node, Between):
            kw = "NOT BETWEEN" if node.negated else "BETWEEN"
            return (f"{self._child(node.expr, 4, tighten=True)} {kw} "
                    f"{self._child(node.low, 5)} AND {self._child(node.high, 5)}")
        if isinstance(node, Like):
            kw = "NOT LIKE" if node.negated else "LIKE"
            return (f"{self._child(node.expr, 4, tighten=True)} {kw} "
                    f"{self._child(node.pattern, 5)}")
        if isinstance(node, IsNull):
            kw = "IS NOT NULL" if node.negated else "IS NULL"
            return f"{self._child(node.expr, 4, tighten=True)} {kw}"
        if isinstance(node, Exists):
            return f"EXISTS ({self.query(node.query)})"
        if isinstance(node, ScalarSubquery):
            return f"({self.query(node.query)})"
        raise TypeError(f"cannot render node of type {type(node).__name__}")


def render_query(node, spell=None) -> str:
    """Render a parse tree (or :class:`ParsedQuery`) back to canonical SQL."""
    if isinstance(node, ParsedQuery):
        node = node.root
    return _Renderer(spell).query(node)


def render_expr(node, spell=None) -> str:
    """Render a single expression node to canonical SQL text."""
    return _Renderer(spell).expr(node)


# --------------------------------------------------------------------------
# Predicates

OP_EQ = "="
OP_LIKE = "LIKE"
OP_IN_ELEMENT = "IN-element"


@dataclass(frozen=True)
class Predicate:
    """A column-versus-string-literal condition found in WHERE or HAVING.

    ``ref`` is the column reference as parsed.  Numeric comparisons never
    become predicates.
    """

    ref: ColumnRef
    operator: str        # OP_EQ | OP_LIKE | OP_IN_ELEMENT
    value: str

    @property
    def column(self) -> str:
        """The column as the renderer spells it, for prompts and traces."""
        return column_text(self.ref)


def _is_string(node) -> bool:
    return isinstance(node, Literal) and node.kind == "string"


def _as_column(node, quoted_columns):
    """``node`` as a column: itself, or a double-quoted string whose text
    is in ``quoted_columns``; None when it is neither."""
    if _is_string(node) and node.text[0] == '"' \
            and node.string_value in quoted_columns:
        return ColumnRef(None, node.string_value, node.span)
    return node if isinstance(node, ColumnRef) else None


def _column_and_literal(node, quoted_columns) -> tuple:
    """The column and the string literal of an ``=`` or LIKE site, or
    ``(None, None)``: a LIKE's left operand or either operand of an ``=``,
    against a string that names no column."""
    sides = [(node.expr, node.pattern)] if type(node) is Like else \
        [(node.left, node.right), (node.right, node.left)]
    for side, other in sides:
        column = _as_column(side, quoted_columns)
        if column is not None:
            if _is_string(other) and _as_column(other, quoted_columns) is None:
                return column, other
            break
    return None, None


def _site_predicates(node, quoted_columns) -> tuple:
    """The predicates ``node`` reports when it sits inside a condition."""
    kind = type(node)
    if (kind is Binary and node.op == "=") or kind is Like:
        column, literal = _column_and_literal(node, quoted_columns)
        if column is not None:
            operator = OP_LIKE if kind is Like else OP_EQ
            return (Predicate(column, operator, literal.string_value),)
    elif kind is InList:
        column = _as_column(node.expr, quoted_columns)
        if column is not None:
            return tuple(Predicate(column, OP_IN_ELEMENT, item.string_value)
                         for item in node.items if _is_string(item))
    return ()


def double_quoted_strings(query: ParsedQuery) -> frozenset[str]:
    """The text of every double-quoted string in ``query``."""
    return query.double_quoted


def extract_predicates(query: ParsedQuery,
                       quoted_columns=frozenset()) -> list[Predicate]:
    """Collect text-literal predicates in left-to-right query order.

    Covers ``col = 'v'`` (either orientation), ``col LIKE 'v'``, and each
    string element of ``col IN (...)``, from WHERE and HAVING clauses at
    every query depth, including under NOT and in subqueries anywhere in
    the query.  A double-quoted string whose text is in ``quoted_columns``
    names that column, and a site where both operands or neither name a
    column has none.  :func:`rewrite_predicates` can rewrite every one.
    """
    return [pred for node in query.sites
            for pred in _site_predicates(node, quoted_columns)]


def rewrite_predicates(query: ParsedQuery, changes,
                       quoted_columns=frozenset()) -> str:
    """The query's text with each ``(predicate, column, value)`` change
    applied.  The sites are those the parser noted; only the changed
    literal and column tokens are spliced into ``query.original_text``,
    and every other character, comments included, is kept.

    Each change takes the first predicate of :func:`extract_predicates`,
    given the same ``quoted_columns``, equal to its own in column
    reference, operator and value that no earlier change took, and that
    site alone gets ``column`` and the string ``value``, written
    single-quoted; a column other than the site's own is written as the
    renderer spells it.  An IN list takes a
    new column only when every string element changes to that one column,
    and it has no other element; otherwise it keeps its column, only the
    changes in that column apply, and each change it skips is logged.
    Raises :class:`PredicateNotFoundError` when a change's predicate does
    not occur.
    """
    wanted: dict = {}
    for old, column, value in changes:
        wanted.setdefault((old.ref, old.operator, old.value), []).append(
            (column, value))
    sites = {}
    for node in query.sites:
        for index, p in enumerate(_site_predicates(node, quoted_columns)):
            queue = wanted.get((p.ref, p.operator, p.value))
            if queue:
                sites.setdefault(id(node), (node, {}))[1][index] = queue.pop(0)
    for (ref, operator, value), queue in wanted.items():
        if queue:
            raise PredicateNotFoundError(
                f"predicate {column_text(ref)} {operator} {value!r} "
                "not found in query")
    text = query.original_text
    edits = [edit for node, site in sites.values()
             for edit in _site_edits(node, site, quoted_columns)]
    for (start, end), new_text in sorted(edits, reverse=True):
        text = text[:start] + new_text + text[end:]
    return text


def _site_edits(node, changes: dict, quoted_columns) -> list:
    """The ``(span, new_text)`` edits that apply ``changes`` to ``node``, a
    predicate site: the index of one of its predicates -> the (column,
    value) that predicate takes."""
    if type(node) is not InList:
        (column, value), = changes.values()
        ref, literal = _column_and_literal(node, quoted_columns)
        return _column_edit(ref, column) + [(literal.span,
                                             Literal.string(value).text)]
    columns = {column for column, _ in changes.values()}
    ref = expr = _as_column(node.expr, quoted_columns)
    if len(changes) == len(node.items) and len(columns) == 1:
        expr = columns.pop()
    edits = _column_edit(ref, expr)
    strings = [item for item in node.items if _is_string(item)]
    for index, (column, value) in changes.items():
        if column == expr:
            edits.append((strings[index].span, Literal.string(value).text))
        else:
            log.warning("calibration: IN-list element %r of %s keeps its "
                        "column; change to %s = %r skipped",
                        strings[index].string_value, column_text(expr),
                        column_text(column), value)
    return edits


def _column_edit(ref: ColumnRef, column: ColumnRef) -> list:
    """The edit, if any, that makes ``ref`` read ``column``."""
    return [] if column == ref else [(ref.span, column_text(column))]


# --------------------------------------------------------------------------
# Query-shape helpers used by the sketch and calibration layers

def table_scope(query: ParsedQuery) -> tuple[list[str], dict[str, str]]:
    """The FROM scope of ``query`` at any depth: ``(tables, aliases)``.

    Select nodes are taken in the order of the walk that
    :class:`ParsedQuery` describes, each one's source before its joins.
    ``tables`` holds the table names, case-insensitively deduplicated with
    the first spelling kept; ``aliases`` maps each lowercase table name and
    alias to its table name, first binding kept.
    """
    return list(query.tables), dict(query.aliases)


def order_sensitive(query: ParsedQuery) -> bool:
    """True when the query's top-level result carries an ORDER BY."""
    node = query.root
    while isinstance(node, SetOp):
        node = node.right
    return bool(node.order_by)


def split_like_pattern(value: str) -> tuple[str, str, str]:
    """Split a LIKE pattern into (leading wildcards, core, trailing wildcards).

    Only boundary runs of ``%``/``_`` are split off; interior wildcards stay
    in the core.
    """
    start, end = 0, len(value)
    while start < end and value[start] in "%_":
        start += 1
    while end > start and value[end - 1] in "%_":
        end -= 1
    return value[:start], value[start:end], value[end:]


def merge_like_pattern(lead: str, core: str, trail: str) -> str:
    return f"{lead}{core}{trail}"
