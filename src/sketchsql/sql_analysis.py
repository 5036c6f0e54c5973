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
identifiers.

The parse tree is immutable; rewrites build a new tree.  Rendering is
canonical (uppercase keywords, single spaces, ``AS`` before aliases) and
``parse -> render -> parse`` is a fixpoint.

One tree walk serves every analysis.  Text predicates come from WHERE and
HAVING clauses at every depth: the outer query and subqueries anywhere in
it, whether in a condition, a select item, a function argument, a FROM
source, JOIN ON, GROUP BY, ORDER BY or LIMIT.  Rewriting finds predicates
with the same walk, so every predicate that is reported can be rewritten.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace

from .errors import PredicateNotFoundError, SqlParseError

# --------------------------------------------------------------------------
# Tokens

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
# Multi-character operators first so that e.g. "<=" never lexes as "<", "=".
_OPERATORS = ("<>", "!=", "<=", ">=", "==", "||",
              "=", "<", ">", "(", ")", ",", ".", "*", "+", "-", "/", "%", ";")

RESERVED_WORDS = frozenset({
    "SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "LIMIT", "OFFSET", "JOIN", "LEFT", "RIGHT", "FULL", "INNER",
    "OUTER", "CROSS", "ON", "AS", "AND", "OR", "NOT", "IN", "LIKE",
    "BETWEEN", "IS", "NULL", "EXISTS", "UNION", "INTERSECT", "EXCEPT",
    "ASC", "DESC", "CASE", "WHEN", "THEN", "ELSE", "END",
})


@dataclass(frozen=True)
class Token:
    kind: str   # "ident" | "qident" | "number" | "string" | "op" | "end"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ("'", '"'):
            j = i + 1
            while True:
                j = text.find(ch, j)
                if j == -1:
                    raise SqlParseError("unterminated string literal", i)
                if j + 1 < n and text[j + 1] == ch:  # doubled quote escape
                    j += 2
                    continue
                break
            tokens.append(Token("string", text[i:j + 1], i))
            i = j + 1
            continue
        if ch == "`":
            j = text.find("`", i + 1)
            if j == -1:
                raise SqlParseError("unterminated quoted identifier", i)
            tokens.append(Token("qident", text[i + 1:j], i))
            i = j + 1
            continue
        m = _NUMBER.match(text, i)
        if m and (ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit())):
            tokens.append(Token("number", m.group(0), i))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(0), i))
            i = m.end()
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("op", op, i))
                i += len(op)
                break
        else:
            raise SqlParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Parse-tree nodes.  Field order matches source order, so a field-order walk
# visits the query left to right.

@dataclass(frozen=True)
class Literal:
    text: str            # source spelling, quotes included for strings
    kind: str            # "string" | "number" | "null"

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
    root: object
    original_text: str


# --------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise SqlParseError(message, tok.pos)

    def at_keyword(self, *words: str) -> bool:
        for offset, word in enumerate(words):
            tok = self.peek(offset)
            if tok.kind != "ident" or tok.text.upper() != word:
                return False
        return True

    def take_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.i += len(words)
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.take_keyword(word):
            self.error(f"expected {word}")

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def take_op(self, *ops: str) -> str | None:
        if self.at_op(*ops):
            return self.advance().text
        return None

    def expect_op(self, op: str) -> None:
        if not self.take_op(op):
            self.error(f"expected {op!r}")

    # -- grammar

    def parse_statement(self):
        if not self.at_keyword("SELECT"):
            self.error("only SELECT statements are supported")
        root = self.parse_query()
        self.take_op(";")
        if self.peek().kind != "end":
            self.error("unexpected trailing input")
        return root

    def parse_query(self):
        node = self.parse_select_core()
        while True:
            if self.take_keyword("UNION", "ALL"):
                op = "UNION ALL"
            elif self.take_keyword("UNION"):
                op = "UNION"
            elif self.take_keyword("INTERSECT"):
                op = "INTERSECT"
            elif self.take_keyword("EXCEPT"):
                op = "EXCEPT"
            else:
                return node
            node = SetOp(op, node, self.parse_select_core())

    def parse_select_core(self) -> Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.take_keyword("DISTINCT"))
        if not distinct:
            self.take_keyword("ALL")
        items = [self.parse_select_item()]
        while self.take_op(","):
            items.append(self.parse_select_item())

        source, joins = None, []
        if self.take_keyword("FROM"):
            source = self.parse_table_source()
            while True:
                if self.take_op(","):
                    joins.append(Join(",", self.parse_table_source()))
                    continue
                kind = self.parse_join_kind()
                if kind is None:
                    break
                table = self.parse_table_source()
                on = self.parse_expr() if self.take_keyword("ON") else None
                joins.append(Join(kind, table, on))

        where = self.parse_expr() if self.take_keyword("WHERE") else None
        group_by = []
        if self.take_keyword("GROUP", "BY"):
            group_by.append(self.parse_expr())
            while self.take_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.take_keyword("HAVING") else None
        order_by = []
        if self.take_keyword("ORDER", "BY"):
            order_by.append(self.parse_order_item())
            while self.take_op(","):
                order_by.append(self.parse_order_item())
        limit = offset = None
        if self.take_keyword("LIMIT"):
            limit = self.parse_additive()
            if self.take_keyword("OFFSET"):
                offset = self.parse_additive()
            elif self.take_op(","):
                # SQLite's `LIMIT <offset>, <count>` shorthand.
                offset, limit = limit, self.parse_additive()
        return Select(distinct, tuple(items), source, tuple(joins), where,
                      tuple(group_by), having, tuple(order_by), limit, offset)

    def parse_join_kind(self) -> str | None:
        if self.take_keyword("JOIN") or self.take_keyword("INNER", "JOIN"):
            return "JOIN"
        if (self.take_keyword("LEFT", "OUTER", "JOIN")
                or self.take_keyword("LEFT", "JOIN")):
            return "LEFT JOIN"
        if self.take_keyword("CROSS", "JOIN"):
            return "CROSS JOIN"
        if self.at_keyword("RIGHT") or self.at_keyword("FULL"):
            self.error("only inner, left, and cross joins are supported")
        return None

    def parse_select_item(self) -> SelectItem:
        if self.at_op("*"):
            self.advance()
            return SelectItem(ColumnRef(None, "*"))
        expr = self.parse_expr()
        alias = self.parse_alias()
        return SelectItem(expr, alias)

    def parse_table_source(self):
        if self.at_op("("):
            self.advance()
            if not self.at_keyword("SELECT"):
                self.error("expected a subquery after '('")
            query = self.parse_query()
            self.expect_op(")")
            return SubqueryTable(query, self.parse_alias())
        tok = self.peek()
        if tok.kind == "qident" or (tok.kind == "ident"
                                    and tok.text.upper() not in RESERVED_WORDS):
            self.advance()
            return TableRef(tok.text, self.parse_alias())
        self.error("expected a table name")

    def parse_alias(self) -> str | None:
        if self.take_keyword("AS"):
            tok = self.peek()
            if tok.kind not in ("ident", "qident"):
                self.error("expected an alias after AS")
            self.advance()
            return tok.text
        tok = self.peek()
        if tok.kind == "qident":
            self.advance()
            return tok.text
        if tok.kind == "ident" and tok.text.upper() not in RESERVED_WORDS:
            self.advance()
            return tok.text
        return None

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        if self.take_keyword("ASC"):
            return OrderItem(expr, "ASC")
        if self.take_keyword("DESC"):
            return OrderItem(expr, "DESC")
        return OrderItem(expr)

    # -- expressions, lowest precedence first

    def parse_expr(self):
        node = self.parse_and()
        while self.take_keyword("OR"):
            node = Binary("OR", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.take_keyword("AND"):
            node = Binary("AND", node, self.parse_not())
        return node

    def parse_not(self):
        # `NOT IN/LIKE/BETWEEN/EXISTS` belongs to the predicate, so only
        # treat NOT as a prefix when it does not open one of those forms.
        if self.at_keyword("NOT") and not self.at_keyword("NOT", "IN") \
                and not self.at_keyword("NOT", "LIKE") \
                and not self.at_keyword("NOT", "BETWEEN"):
            self.advance()
            return Unary("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self):
        node = self.parse_additive()
        op = self.take_op("=", "==", "!=", "<>", "<", "<=", ">", ">=")
        if op:
            return Binary("=" if op == "==" else op, node, self.parse_additive())
        if self.take_keyword("IS"):
            negated = self.take_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNull(node, negated)
        negated = self.take_keyword("NOT")
        if self.take_keyword("IN"):
            self.expect_op("(")
            if self.at_keyword("SELECT"):
                query = self.parse_query()
                self.expect_op(")")
                return InSelect(node, query, negated)
            items = [self.parse_additive()]
            while self.take_op(","):
                items.append(self.parse_additive())
            self.expect_op(")")
            return InList(node, tuple(items), negated)
        if self.take_keyword("LIKE"):
            return Like(node, self.parse_additive(), negated)
        if self.take_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            return Between(node, low, self.parse_additive(), negated)
        if negated:
            self.error("expected IN, LIKE, or BETWEEN after NOT")
        return node

    def parse_additive(self):
        node = self.parse_multiplicative()
        while True:
            op = self.take_op("+", "-")
            if not op:
                return node
            node = Binary(op, node, self.parse_multiplicative())

    def parse_multiplicative(self):
        node = self.parse_concat()
        while True:
            op = self.take_op("*", "/", "%")
            if not op:
                return node
            node = Binary(op, node, self.parse_concat())

    def parse_concat(self):
        node = self.parse_unary()
        while self.take_op("||"):
            node = Binary("||", node, self.parse_unary())
        return node

    def parse_unary(self):
        op = self.take_op("-", "+")
        if op:
            return Unary(op, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Literal(tok.text, "number")
        if tok.kind == "string":
            self.advance()
            return Literal(tok.text, "string")
        if self.at_keyword("NULL"):
            return Literal(self.advance().text, "null")
        if self.at_keyword("EXISTS"):
            self.advance()
            self.expect_op("(")
            if not self.at_keyword("SELECT"):
                self.error("expected a subquery after EXISTS")
            query = self.parse_query()
            self.expect_op(")")
            return Exists(query)
        if self.at_keyword("CASE"):
            self.error("CASE expressions are not supported in this dialect")
        if self.at_op("("):
            self.advance()
            if self.at_keyword("SELECT"):
                query = self.parse_query()
                self.expect_op(")")
                return ScalarSubquery(query)
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "qident" or (tok.kind == "ident"
                                    and (tok.text.upper() not in RESERVED_WORDS
                                         or self.peek(1).text == "(")):
            self.advance()
            if self.at_op("(") and tok.kind == "ident":
                return self.parse_call(tok.text)
            if self.take_op("."):
                inner = self.peek()
                if inner.kind in ("ident", "qident"):
                    self.advance()
                    return ColumnRef(tok.text, inner.text)
                if self.take_op("*"):
                    return ColumnRef(tok.text, "*")
                self.error("expected a column name after '.'")
            return ColumnRef(None, tok.text)
        self.error("expected an expression")

    def parse_call(self, name: str) -> FuncCall:
        self.expect_op("(")
        distinct = bool(self.take_keyword("DISTINCT"))
        if self.at_op("*"):
            self.advance()
            self.expect_op(")")
            return FuncCall(name, (ColumnRef(None, "*"),), distinct)
        if self.take_op(")"):
            return FuncCall(name, (), distinct)
        args = [self.parse_expr()]
        while self.take_op(","):
            args.append(self.parse_expr())
        self.expect_op(")")
        return FuncCall(name, tuple(args), distinct)


def parse_sql(text: str) -> ParsedQuery:
    """Parse SQL text, returning an immutable :class:`ParsedQuery`.

    Raises :class:`SqlParseError` with the failure offset on invalid input.
    """
    parser = _Parser(text)
    root = parser.parse_statement()
    return ParsedQuery(root, text)


# --------------------------------------------------------------------------
# Rendering

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")


def _render_name(name: str) -> str:
    if name == "*" or _PLAIN_IDENT.match(name):
        return name
    return f"`{name}`"


def _default_column_text(ref: ColumnRef) -> str:
    if ref.table is None:
        return _render_name(ref.name)
    return f"{_render_name(ref.table)}.{_render_name(ref.name)}"


def _prec(node) -> int:
    if isinstance(node, Binary):
        return {"OR": 1, "AND": 2, "+": 5, "-": 5,
                "*": 6, "/": 6, "%": 6, "||": 7}.get(node.op, 4)
    if isinstance(node, Unary):
        return 3 if node.op == "NOT" else 8
    if isinstance(node, (InList, InSelect, Between, Like, IsNull)):
        return 4
    return 9


class _Renderer:
    """Canonical SQL rendering with minimal, precedence-driven parentheses.

    ``column_text`` lets callers swap the rendering of column references,
    e.g. to emit index tokens instead of names.
    """

    def __init__(self, column_text=None):
        self.column_text = column_text or _default_column_text

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

    def expr(self, node, parent_prec: int = 0) -> str:
        text = self._expr_text(node)
        prec = _prec(node)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _child(self, node, parent_prec: int, tighten: bool = False) -> str:
        """Render a child, adding parentheses when precedence requires.

        ``tighten`` forces parentheses at equal precedence, used for the
        right side of left-associative operators and both sides of the
        non-associative comparison tier.
        """
        prec = _prec(node)
        text = self._expr_text(node)
        if prec < parent_prec or (tighten and prec == parent_prec):
            return f"({text})"
        return text

    def _expr_text(self, node) -> str:
        if isinstance(node, Literal):
            return node.text
        if isinstance(node, ColumnRef):
            return self.column_text(node)
        if isinstance(node, FuncCall):
            inner = ", ".join(self.expr(a) for a in node.args)
            if node.distinct:
                inner = "DISTINCT " + inner
            return f"{node.name}({inner})"
        if isinstance(node, Unary):
            if node.op == "NOT":
                return "NOT " + self._child(node.operand, 3)
            return node.op + self._child(node.operand, 8)
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


def render_query(node, column_text=None) -> str:
    """Render a parse tree (or :class:`ParsedQuery`) back to canonical SQL."""
    if isinstance(node, ParsedQuery):
        node = node.root
    return _Renderer(column_text).query(node)


def render_expr(node, column_text=None) -> str:
    """Render a single expression node to canonical SQL text."""
    return _Renderer(column_text).expr(node)


# --------------------------------------------------------------------------
# Predicates

OP_EQ = "="
OP_LIKE = "LIKE"
OP_IN_ELEMENT = "IN-element"


@dataclass(frozen=True)
class Predicate:
    """A column-versus-string-literal condition found in WHERE or HAVING.

    ``depth`` is diagnostic only: 0 for the outermost query, +1 per
    enclosing subquery.  Numeric comparisons never become predicates.
    """

    column: str
    operator: str        # OP_EQ | OP_LIKE | OP_IN_ELEMENT
    value: str
    depth: int = 0


def _column_text(ref: ColumnRef) -> str:
    return ref.name if ref.table is None else f"{ref.table}.{ref.name}"


def _is_string(node) -> bool:
    return isinstance(node, Literal) and node.kind == "string"


def _as_column_and_string(left, right) -> tuple[ColumnRef, Literal] | None:
    if isinstance(left, ColumnRef) and _is_string(right):
        return left, right
    if isinstance(right, ColumnRef) and _is_string(left):
        return right, left
    return None


def _site_predicates(node, depth: int) -> tuple:
    """The predicates ``node`` reports when it sits inside a condition."""
    kind = type(node)
    if kind is Binary and node.op == "=":
        pair = _as_column_and_string(node.left, node.right)
        if pair is not None:
            column, literal = pair
            return (Predicate(_column_text(column), OP_EQ, literal.string_value, depth),)
    elif kind is Like and isinstance(node.expr, ColumnRef) and _is_string(node.pattern):
        return (Predicate(_column_text(node.expr), OP_LIKE,
                          node.pattern.string_value, depth),)
    elif kind is InList and isinstance(node.expr, ColumnRef):
        column = _column_text(node.expr)
        return tuple(Predicate(column, OP_IN_ELEMENT, item.string_value, depth)
                     for item in node.items if _is_string(item))
    return ()


def extract_predicates(query: ParsedQuery) -> list[Predicate]:
    """Collect text-literal predicates in left-to-right query order.

    Covers ``col = 'v'`` (either orientation), ``col LIKE 'v'``, and each
    string element of ``col IN (...)``, from WHERE and HAVING clauses at
    every query depth, including under NOT and in subqueries anywhere in
    the query.  :func:`rewrite_predicate` can rewrite every one of them.
    """
    return [pred for node, in_condition, depth, _ in _walk(query.root)
            if in_condition for pred in _site_predicates(node, depth)]


def _split_column(text: str) -> ColumnRef:
    if "." in text:
        table, name = text.split(".", 1)
        return ColumnRef(table, name)
    return ColumnRef(None, text)


def rewrite_predicate(query: ParsedQuery, old: Predicate, new: Predicate) -> ParsedQuery:
    """Replace the first occurrence of ``old`` with ``new`` in the query.

    The first occurrence is the first predicate of :func:`extract_predicates`
    equal to ``old`` in column, operator and value.  Only the matching
    column reference and literal change; everything else is preserved.
    For an IN element, the single matching element is replaced (and the
    shared column reference, when ``new`` renames it).  Raises
    :class:`PredicateNotFoundError` when ``old`` does not occur.
    """
    key = (old.column, old.operator, old.value)
    for node, in_condition, depth, link in _walk(query.root):
        if in_condition and any((p.column, p.operator, p.value) == key
                                for p in _site_predicates(node, depth)):
            new_root = _rebuild(link, _rewritten(node, old, new))
            text = render_query(new_root)
            return ParsedQuery(new_root, text)
    raise PredicateNotFoundError(
        f"predicate {old.column} {old.operator} {old.value!r} not found in query"
    )


def _rewritten(node, old: Predicate, new: Predicate):
    """``node``, a site that reports ``old``, reporting ``new`` instead."""
    column, literal = _split_column(new.column), Literal.string(new.value)
    if type(node) is Binary:
        if isinstance(node.left, ColumnRef):
            return Binary(node.op, column, literal)
        return Binary(node.op, literal, column)
    if type(node) is Like:
        return replace(node, expr=column, pattern=literal)
    index = next(i for i, item in enumerate(node.items)
                 if _is_string(item) and item.string_value == old.value)
    return replace(node, expr=column if new.column != old.column else node.expr,
                   items=node.items[:index] + (literal,) + node.items[index + 1:])


def _rebuild(link, node):
    """The root of a copy of the tree in which ``node`` takes the place
    that ``link`` leads to."""
    while link is not None:
        link, parent, name, index = link
        if index is not None:
            siblings = getattr(parent, name)
            node = siblings[:index] + (node,) + siblings[index + 1:]
        node = replace(parent, **{name: node})
    return node


# --------------------------------------------------------------------------
# The tree walk, and the query-shape helpers used by the sketch and
# calibration layers

_CONDITION_FIELDS = ("where", "having")
# Annotations are strings (postponed evaluation); these mark the fields of
# a node class that hold child nodes.
_NODE_ANNOTATIONS = ("object", "object | None", "tuple")
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def _child_fields(cls) -> tuple[str, ...]:
    """Names of the fields of ``cls`` that hold a node or a tuple of nodes."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(
            f.name for f in fields(cls) if f.type in _NODE_ANNOTATIONS)
    return names


def _walk(node, link=None, in_condition: bool = False, depth: int = 0):
    """Yield ``(node, in_condition, depth, link)`` for ``node`` and every
    node under it, in source order.

    ``in_condition`` is true inside the WHERE or HAVING clause of the
    nearest enclosing Select.  ``depth`` grows by one under the ``query``
    of each InSelect, Exists, ScalarSubquery and SubqueryTable.  ``link``
    leads from a node back to the root: it is None for the root and
    ``(parent's link, parent, field name, index)`` below it, with
    ``index`` None for a field that holds a single node.
    """
    yield node, in_condition, depth, link
    is_select = type(node) is Select
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        if value is None:
            continue
        condition = name in _CONDITION_FIELDS if is_select else in_condition
        level = depth + 1 if name == "query" else depth
        if type(value) is tuple:
            for index, child in enumerate(value):
                yield from _walk(child, (link, node, name, index), condition, level)
        else:
            yield from _walk(value, (link, node, name, None), condition, level)


def iter_selects(node):
    """Yield every Select node in document order."""
    if isinstance(node, ParsedQuery):
        node = node.root
    return (n for n, _, _, _ in _walk(node) if type(n) is Select)


def _sources(sel: Select):
    if sel.source is not None:
        yield sel.source
    for join in sel.joins:
        yield join.source


def from_tables(query: ParsedQuery) -> list[str]:
    """Table names referenced in FROM clauses at any depth.

    Appearance order, case-insensitively deduplicated, first spelling kept.
    """
    names: list[str] = []
    seen: set[str] = set()
    for sel in iter_selects(query):
        for src in _sources(sel):
            if isinstance(src, TableRef) and src.name.lower() not in seen:
                seen.add(src.name.lower())
                names.append(src.name)
    return names


def alias_map(query: ParsedQuery) -> dict[str, str]:
    """Map lowercase aliases and table names to actual table names."""
    mapping: dict[str, str] = {}
    for sel in iter_selects(query):
        for src in _sources(sel):
            if isinstance(src, TableRef):
                mapping.setdefault(src.name.lower(), src.name)
                if src.alias:
                    mapping.setdefault(src.alias.lower(), src.name)
    return mapping


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
