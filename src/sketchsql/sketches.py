"""Sketch construction and ranking.

A sketch is the (SELECT attributes, FROM tables, clause keywords) skeleton
of a query, written in indexed form against the serialized schema
(``SELECT t0.c2`` / ``FROM t0, t1`` / ``SELECT FROM WHERE ORDER BY
LIMIT``).  :func:`build_sketches` is the whole live stage: it asks the
sketch provider for top-k Select, From and Keywords candidates with
instruction-prefixed inputs, has the aligner pick the best (Select,
Keywords) pair, and makes one sketch of that pair per From candidate.
The gateway checks every provider and aligner answer.  This module also
extracts the gold sketch of a query and derives the training records for
both the provider and the aligner from gold SQL.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import EmptyCandidateError, SchemaMismatchError, SketchSqlError
from .gateway import request_alignment_scores, request_candidates
from .schema import DatabaseSchema, serialize_schema
from .sql_analysis import (
    ColumnRef,
    ParsedQuery,
    SetOp,
    parse_sql,
    render_expr,
    table_scope,
    tokenize,
)

log = logging.getLogger(__name__)

PART_SELECT = "Select"
PART_FROM = "From"
PART_KEYWORDS = "Keywords"
PART_KINDS = (PART_SELECT, PART_FROM, PART_KEYWORDS)

INSTRUCTION_SELECT = ("Generate the select clause of this question "
                      "according to the database.")
INSTRUCTION_FROM = ("Generate the relevant tables of this question "
                    "according to the database.")
INSTRUCTION_KEYWORDS = ("Generate the SQL keywords of this question "
                        "according to the database.")
INSTRUCTIONS = {
    PART_SELECT: INSTRUCTION_SELECT,
    PART_FROM: INSTRUCTION_FROM,
    PART_KEYWORDS: INSTRUCTION_KEYWORDS,
}

# Canonical clause-keyword vocabulary, frozen so that labels and sketch
# parts are reproducible across runs.
KEYWORD_VOCABULARY = (
    "SELECT", "FROM", "JOIN", "WHERE", "GROUP BY", "HAVING", "ORDER BY",
    "LIMIT", "DISTINCT", "UNION", "INTERSECT", "EXCEPT", "IN", "NOT IN",
    "LIKE", "BETWEEN", "EXISTS",
)
_PAIRED = {("GROUP", "BY"): "GROUP BY", ("ORDER", "BY"): "ORDER BY",
           ("NOT", "IN"): "NOT IN"}
_SINGLES = frozenset(kw for kw in KEYWORD_VOCABULARY if " " not in kw)

DEFAULT_K_SELECT = 4
DEFAULT_K_FROM = 2
DEFAULT_K_KEYWORDS = 2


def _scan_keywords(words: list[str], strict: bool) -> list[str]:
    """Walk uppercased tokens, grouping two-word keywords, deduplicating.

    In strict mode any token that is not part of a canonical keyword is an
    error; otherwise such tokens are skipped.
    """
    out: list[str] = []
    seen: set[str] = set()
    i = 0
    while i < len(words):
        word = words[i]
        nxt = words[i + 1] if i + 1 < len(words) else None
        if (word, nxt) in _PAIRED:
            keyword, step = _PAIRED[(word, nxt)], 2
        elif word in _SINGLES:
            keyword, step = word, 1
        else:
            if strict:
                raise ValueError(f"{word!r} is not a canonical SQL keyword")
            i += 1
            continue
        if keyword not in seen:
            seen.add(keyword)
            out.append(keyword)
        i += step
    return out


def extract_keywords(parsed: ParsedQuery) -> list[str]:
    """Canonical clause keywords present anywhere in the query, in first-
    appearance order.  Join variants count as JOIN; negations of LIKE,
    BETWEEN, and EXISTS count as the positive keyword; NOT IN is its own
    keyword."""
    words = [tok.key for tok in tokenize(parsed.original_text)
             if tok.kind == "ident"]
    return _scan_keywords(words, strict=False)


def sanitize_keywords(text: str) -> str | None:
    """Normalize raw model output into canonical Keywords content.

    Tokens are split on whitespace and commas; anything outside the
    vocabulary is dropped.  Returns None when nothing survives.
    """
    words = [w for w in text.replace(",", " ").upper().split() if w]
    kept = _scan_keywords(words, strict=False)
    return " ".join(kept) if kept else None


# --------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class SketchPart:
    kind: str
    content: str

    def __post_init__(self):
        if self.kind not in PART_KINDS:
            raise ValueError(f"unknown sketch part kind {self.kind!r}")
        if not self.content or not self.content.strip():
            raise ValueError(f"{self.kind} sketch part has empty content")
        if self.kind == PART_KEYWORDS:
            _scan_keywords(self.content.upper().split(), strict=True)


@dataclass(frozen=True)
class SqlSketch:
    select_part: SketchPart
    from_part: SketchPart
    keywords_part: SketchPart
    rank: int

    @property
    def parts(self) -> tuple[SketchPart, SketchPart, SketchPart]:
        """The Select, From and Keywords parts, in ``PART_KINDS`` order."""
        return (self.select_part, self.from_part, self.keywords_part)


@dataclass(frozen=True)
class TrainingRecord:
    instruction: str
    question: str
    serialized_schema: str
    label: str
    subtask: str


@dataclass(frozen=True)
class AlignerRecord:
    question: str
    select_part: str
    keywords_part: str
    label: int


# --------------------------------------------------------------------------
# Input construction and candidate plumbing

def build_task_input(instruction: str, question: str,
                     schema: DatabaseSchema) -> str:
    """The full provider input: instruction, question, serialized schema."""
    if not instruction or not question:
        raise ValueError("instruction and question must be non-empty")
    return f"{instruction} question: {question} database: {serialize_schema(schema)}"


def combine_candidates(selects: list, keywords: list) -> list:
    """Rank-ordered (select, keywords) pairs: all selects crossed with all
    keyword candidates, (s0,k0) before (s0,k1) before (s1,k0), duplicate
    pairs removed keeping the best-ranked occurrence."""
    if not selects or not keywords:
        raise EmptyCandidateError("cannot combine empty candidate lists")
    # Equal parts are equal pairs: the dict keeps each pair's first place.
    return list(dict.fromkeys((s, k) for s in selects for k in keywords))


def build_aligner_input(question: str, pair) -> str:
    """The aligner's scoring input for one (select, keywords) pair."""
    if not question:
        raise ValueError("question must be non-empty")
    select, keywords = pair
    return (f"[CLS] user question: {question}. "
            f"our solution: {select.content}, {keywords.content} [SEP]")


# --------------------------------------------------------------------------
# Gold-SQL sketch extraction

def _index_column_renderer(schema: DatabaseSchema, tables: list[str],
                           aliases: dict[str, str]):
    """Column renderer emitting ``t<i>.c<j>`` index tokens for the columns
    of a query whose FROM scope is ``tables`` and ``aliases``.  A reference
    that does not land in the schema is a SchemaMismatchError."""

    def column_text(ref: ColumnRef) -> str:
        if ref.name == "*":
            if ref.table is None:
                return "*"
            table = aliases.get(ref.table.lower(), ref.table)
            return f"t{schema.require_table(table)}.*"
        ti, ci = schema.resolve_column(ref.table, ref.name, tables, aliases)
        return f"t{ti}.c{ci}"

    return column_text


def extract_sketch_from_sql(sql, schema: DatabaseSchema) -> SqlSketch:
    """Extract the indexed sketch of a gold SQL query.

    SELECT part: the outermost SELECT list (the left arm for compound
    queries) with every name replaced by its index token.  FROM part: the
    query's tables, all depths, appearance order.  Keywords part: the
    canonical keywords present anywhere in the query.
    """
    parsed = sql if isinstance(sql, ParsedQuery) else parse_sql(sql)
    node = parsed.root
    while isinstance(node, SetOp):
        node = node.left
    table_names, aliases = table_scope(parsed)
    column_text = _index_column_renderer(schema, table_names, aliases)
    select_content = "SELECT " + ", ".join(
        render_expr(item.expr, column_text) for item in node.items)

    if not table_names:
        raise SchemaMismatchError("query has no FROM tables to label")
    from_content = "FROM " + ", ".join(
        f"t{schema.require_table(name)}" for name in table_names)

    keywords_content = " ".join(extract_keywords(parsed))
    return SqlSketch(
        SketchPart(PART_SELECT, select_content),
        SketchPart(PART_FROM, from_content),
        SketchPart(PART_KEYWORDS, keywords_content),
        rank=0,
    )


# --------------------------------------------------------------------------
# Training-record derivation

def derive_training_records(dataset, provider=None,
                            k_select: int = DEFAULT_K_SELECT,
                            k_keywords: int = DEFAULT_K_KEYWORDS) -> tuple:
    """Provider and aligner training records from (question, schema, gold
    sql) examples, extracting each gold sketch once.

    Each example gives three provider records, one per subtask, and one
    aligner record per (Select, Keywords) pair: the gold pair alone, or,
    given a sketch ``provider``, its candidate pairs, for which it is asked
    for Select and Keywords candidates only.  An example whose gold
    sketch cannot be extracted gives a diagnostic instead.  Returns
    ``(records, aligner_records, diagnostics)``."""
    records, aligner_records, diagnostics = [], [], []
    for position, (question, schema, gold_sql) in enumerate(dataset):
        try:
            gold = extract_sketch_from_sql(gold_sql, schema)
        except (SketchSqlError, ValueError) as exc:
            diagnostics.append(f"example {position}: {exc}")
            continue
        serialized = serialize_schema(schema)
        records.extend(TrainingRecord(INSTRUCTIONS[part.kind], question,
                                      serialized, part.content, part.kind)
                       for part in gold.parts)
        pairs = [(gold.select_part, gold.keywords_part)]
        if provider is not None:
            selects, keywords = _request_parts(
                provider, question, schema,
                ((PART_SELECT, k_select), (PART_KEYWORDS, k_keywords)))
            try:
                pairs = combine_candidates(selects, keywords)
            except EmptyCandidateError as exc:
                log.warning("no candidate pairs for %r: %s", question, exc)
                pairs = []
        aligner_records.extend(derive_aligner_records(
            question, pairs, gold.select_part.content,
            gold.keywords_part.content))
    return records, aligner_records, diagnostics


def _normalized(text: str) -> str:
    return " ".join(text.split()).lower()


def derive_aligner_records(question: str, pairs: list, gold_select: str,
                           gold_keywords: str) -> list[AlignerRecord]:
    """Binary aligner labels: 1 iff both parts match gold (case- and
    whitespace-insensitively), else 0."""
    want_select = _normalized(gold_select)
    want_keywords = _normalized(gold_keywords)
    out = []
    for select, keywords in pairs:
        label = int(_normalized(select.content) == want_select
                    and _normalized(keywords.content) == want_keywords)
        out.append(AlignerRecord(question, select.content, keywords.content, label))
    return out


def write_records_jsonl(records, path) -> None:
    """Write records as JSON lines, field names as in the record types."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            json.dump(dataclasses.asdict(record), handle, ensure_ascii=False)
            handle.write("\n")


# --------------------------------------------------------------------------
# Live candidate generation

def _new_part_pool() -> None:
    """Make the pool that may start a blocking provider's From and
    Keywords requests while the calling thread makes the Select one.  One
    pool serves the process, as an executor per call would start threads
    for every question; it starts none before its first request.  A forked
    child, which has none of the parent's pool threads, gets a new pool
    instead of waiting on them."""
    global _part_pool
    _part_pool = ThreadPoolExecutor(thread_name_prefix="sketch-part")


_new_part_pool()
os.register_at_fork(after_in_child=_new_part_pool)


def _request_parts(provider, question: str, schema: DatabaseSchema,
                   requests: tuple) -> list:
    """The candidates of each ``(kind, k)`` part request in ``requests``,
    in order.

    Keyword hypotheses are sanitized against the canonical vocabulary;
    hypotheses that are empty (or sanitize to nothing) are dropped.
    Duplicates keep their best-ranked occurrence.

    Unless the provider's ``blocking`` attribute is false, as it is for
    one that answers from memory, the requests after the first are handed
    to the part pool first, so requests that block, as ones over HTTP do,
    overlap there.  The calling thread then walks the requests in order,
    making each one itself unless a pool thread has started it, in which
    case it waits for that thread's answer; so while the pool is partly
    busy it waits for a started request before making a later one.  Every
    request has finished when this returns or raises an
    :class:`Exception`, and the first failure in ``requests`` order is
    raised.  A ``BaseException`` such as :class:`KeyboardInterrupt` in
    the calling thread propagates at once.
    """
    def ask(kind: str, k: int) -> tuple:
        task_input = build_task_input(INSTRUCTIONS[kind], question, schema)
        parts = []
        seen = set()
        for hypothesis in request_candidates(provider, task_input, k):
            content = hypothesis.strip()
            if kind == PART_KEYWORDS and content:
                content = sanitize_keywords(content) or ""
            if not content or content in seen:
                if content == "":
                    log.debug("dropping unusable %s hypothesis %r",
                              kind, hypothesis)
                continue
            seen.add(content)
            parts.append(SketchPart(kind, content))
        return tuple(parts)

    overlap = getattr(provider, "blocking", True)
    # Copies of the caller's context carry its gateway.recording_calls list.
    later = [_part_pool.submit(contextvars.copy_context().run, ask, kind, k)
             if overlap else None for kind, k in requests[1:]]
    parts, failures = [], []
    for future, (kind, k) in zip([None, *later], requests):
        try:
            parts.append(ask(kind, k) if future is None or future.cancel()
                         else future.result())
        except Exception as exc:
            failures.append(exc)
    if failures:
        raise failures[0]
    return parts


def build_sketches(provider, aligner, question: str, schema: DatabaseSchema,
                   k_select: int = DEFAULT_K_SELECT,
                   k_from: int = DEFAULT_K_FROM,
                   k_keywords: int = DEFAULT_K_KEYWORDS) -> list[SqlSketch]:
    """The ranked sketches of ``question``.

    The Select, From and Keywords candidates are requested together (see
    :func:`_request_parts`).  One aligner call scores every pair of
    :func:`combine_candidates`; the best pair wins, the earlier on a tie.
    Each From candidate, in order, makes one sketch of that pair, ranked
    by its position.  No Select or Keywords candidate raises
    :class:`EmptyCandidateError` before the aligner call, no From
    candidate after it.
    """
    selects, froms, keywords = _request_parts(
        provider, question, schema,
        ((PART_SELECT, k_select), (PART_FROM, k_from),
         (PART_KEYWORDS, k_keywords)))
    pairs = combine_candidates(selects, keywords)
    scores = request_alignment_scores(
        aligner, [build_aligner_input(question, pair) for pair in pairs])
    select, keywords = pairs[scores.index(max(scores))]
    if not froms:
        raise EmptyCandidateError("no FROM candidates to assemble sketches from")
    return [SqlSketch(select, from_part, keywords, rank)
            for rank, from_part in enumerate(froms)]
