"""Sketch construction and ranking.

A sketch is the (SELECT attributes, FROM tables, clause keywords) skeleton
of a query, written in indexed form against the serialized schema
(``SELECT t0.c2`` / ``FROM t0, t1`` / ``SELECT FROM WHERE ORDER BY
LIMIT``).  This module builds the instruction-prefixed inputs that the
sketch provider consumes, manages the top-k candidate lists per part,
scores (SELECT, Keywords) pairs with the aligner, assembles the ranked
sketch list, and derives the training records for both the provider and
the aligner from gold SQL.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

from .errors import EmptyCandidateError, SchemaMismatchError, ScoreArityError
from .gateway import request_alignment_scores, request_candidates
from .schema import DatabaseSchema, serialize_schema
from .sql_analysis import (
    ColumnRef,
    ParsedQuery,
    SetOp,
    alias_map,
    from_tables,
    parse_sql,
    render_expr,
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
    words = [tok.text.upper() for tok in tokenize(parsed.original_text)
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
class CandidateSets:
    select_candidates: tuple
    from_candidates: tuple
    keyword_candidates: tuple


@dataclass(frozen=True)
class AlignedPair:
    select_part: SketchPart
    keywords_part: SketchPart
    score: float


@dataclass(frozen=True)
class SqlSketch:
    select_part: SketchPart
    from_part: SketchPart
    keywords_part: SketchPart
    rank: int


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
    pairs = []
    seen = set()
    for select in selects:
        for keyword in keywords:
            key = (select.content, keyword.content)
            if key not in seen:
                seen.add(key)
                pairs.append((select, keyword))
    return pairs


def build_aligner_input(question: str, pair) -> str:
    """The aligner's scoring input for one (select, keywords) pair."""
    if not question:
        raise ValueError("question must be non-empty")
    select, keywords = pair
    return (f"[CLS] user question: {question}. "
            f"our solution: {select.content}, {keywords.content} [SEP]")


def rank_pairs(pairs: list, scores: list) -> AlignedPair:
    """The best-scoring pair; ties go to the earlier (better-ranked) pair."""
    if len(pairs) != len(scores):
        raise ScoreArityError(
            f"{len(scores)} score(s) for {len(pairs)} pair(s)")
    if not pairs:
        raise EmptyCandidateError("cannot rank an empty pair list")
    if not all(math.isfinite(s) for s in scores):
        raise ValueError("alignment scores must be finite")
    best_index = max(range(len(scores)), key=lambda i: (scores[i], -i))
    select, keywords = pairs[best_index]
    return AlignedPair(select, keywords, float(scores[best_index]))


def assemble_sketches(best: AlignedPair, from_candidates: list) -> list[SqlSketch]:
    """One sketch per FROM candidate, sharing the winning pair, ranked by
    FROM candidate order."""
    if not from_candidates:
        raise EmptyCandidateError("no FROM candidates to assemble sketches from")
    return [SqlSketch(best.select_part, from_part, best.keywords_part, rank)
            for rank, from_part in enumerate(from_candidates)]


# --------------------------------------------------------------------------
# Gold-SQL sketch extraction

def _index_column_renderer(parsed: ParsedQuery, schema: DatabaseSchema):
    """Column renderer emitting ``t<i>.c<j>`` index tokens.

    Qualified references resolve through the query's alias map; bare
    references search the query's FROM tables in appearance order.  A
    reference that does not land in the schema is a SchemaMismatchError.
    """
    aliases = alias_map(parsed)
    tables = from_tables(parsed)

    def table_index(name: str) -> int:
        ti = schema.table_index(name)
        if ti is None:
            raise SchemaMismatchError(
                f"table {name!r} is not in schema {schema.db_name!r}")
        return ti

    def column_text(ref: ColumnRef) -> str:
        if ref.table is None and ref.name == "*":
            return "*"
        if ref.table is not None:
            ti = table_index(aliases.get(ref.table.lower(), ref.table))
            if ref.name == "*":
                return f"t{ti}.*"
            ci = schema.tables[ti].column_index(ref.name)
            if ci is None:
                raise SchemaMismatchError(
                    f"column {ref.name!r} is not in table "
                    f"{schema.tables[ti].name!r}")
            return f"t{ti}.c{ci}"
        for name in tables:
            ti = schema.table_index(name)
            if ti is None:
                continue
            ci = schema.tables[ti].column_index(ref.name)
            if ci is not None:
                return f"t{ti}.c{ci}"
        raise SchemaMismatchError(
            f"column {ref.name!r} does not resolve against the query's tables")

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
    column_text = _index_column_renderer(parsed, schema)
    select_content = "SELECT " + ", ".join(
        render_expr(item.expr, column_text) for item in node.items)

    table_names = from_tables(parsed)
    if not table_names:
        raise SchemaMismatchError("query has no FROM tables to label")
    indices = []
    for name in table_names:
        ti = schema.table_index(name)
        if ti is None:
            raise SchemaMismatchError(
                f"table {name!r} is not in schema {schema.db_name!r}")
        indices.append(ti)
    from_content = "FROM " + ", ".join(f"t{ti}" for ti in indices)

    keywords_content = " ".join(extract_keywords(parsed))
    return SqlSketch(
        SketchPart(PART_SELECT, select_content),
        SketchPart(PART_FROM, from_content),
        SketchPart(PART_KEYWORDS, keywords_content),
        rank=0,
    )


# --------------------------------------------------------------------------
# Training-record derivation

def derive_training_records(dataset) -> tuple[list[TrainingRecord], list[str]]:
    """Three provider records (one per subtask) for each (question, schema,
    gold sql) example.  Extraction failures become diagnostics, not
    errors; failed examples contribute no records."""
    records: list[TrainingRecord] = []
    diagnostics: list[str] = []
    for position, (question, schema, gold_sql) in enumerate(dataset):
        try:
            sketch = extract_sketch_from_sql(gold_sql, schema)
        except Exception as exc:
            diagnostics.append(f"example {position}: {exc}")
            continue
        serialized = serialize_schema(schema)
        labels = {
            PART_SELECT: sketch.select_part.content,
            PART_FROM: sketch.from_part.content,
            PART_KEYWORDS: sketch.keywords_part.content,
        }
        for subtask in PART_KINDS:
            records.append(TrainingRecord(INSTRUCTIONS[subtask], question,
                                          serialized, labels[subtask], subtask))
    return records, diagnostics


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

# Runs the From and Keywords requests while the calling thread makes the
# Select request.  Made on first use and kept for the process, because an
# executor per call would start and join threads for every question.
_part_pool: ThreadPoolExecutor | None = None
_part_pool_lock = threading.Lock()


def _part_executor() -> ThreadPoolExecutor:
    global _part_pool
    with _part_pool_lock:
        if _part_pool is None:
            _part_pool = ThreadPoolExecutor(thread_name_prefix="sketch-part")
        return _part_pool


def _forget_part_executor() -> None:
    # A forked child has none of the parent's pool threads, and the
    # executor would wait for them forever.
    global _part_pool, _part_pool_lock
    _part_pool, _part_pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_part_executor)


def request_candidate_sets(provider, question: str, schema: DatabaseSchema,
                           k_select: int = DEFAULT_K_SELECT,
                           k_from: int = DEFAULT_K_FROM,
                           k_keywords: int = DEFAULT_K_KEYWORDS) -> CandidateSets:
    """Ask the sketch provider for all three candidate lists.

    Keyword hypotheses are sanitized against the canonical vocabulary;
    hypotheses that are empty (or sanitize to nothing) are dropped.
    Duplicates keep their best-ranked occurrence.

    The three requests are in flight together.  Every one has finished
    when this returns or raises; when several fail, the first failure in
    Select, From, Keywords order is raised.
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

    # Copies of the caller's context carry its gateway.recording_calls list.
    pool = _part_executor()
    later = [pool.submit(contextvars.copy_context().run, ask, kind, k)
             for kind, k in ((PART_FROM, k_from), (PART_KEYWORDS, k_keywords))]
    try:
        selects = ask(PART_SELECT, k_select)
    finally:
        wait(later)
    return CandidateSets(selects, later[0].result(), later[1].result())


def build_sketches(provider, aligner, question: str, schema: DatabaseSchema,
                   k_select: int = DEFAULT_K_SELECT,
                   k_from: int = DEFAULT_K_FROM,
                   k_keywords: int = DEFAULT_K_KEYWORDS) -> list[SqlSketch]:
    """Full sketch-generation pass: candidates, aligner ranking, assembly."""
    sets = request_candidate_sets(provider, question, schema,
                                  k_select, k_from, k_keywords)
    pairs = combine_candidates(list(sets.select_candidates),
                               list(sets.keyword_candidates))
    inputs = [build_aligner_input(question, pair) for pair in pairs]
    scores = request_alignment_scores(aligner, inputs)
    best = rank_pairs(pairs, scores)
    return assemble_sketches(best, list(sets.from_candidates))
