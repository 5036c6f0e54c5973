"""Value matching that grounds SQL predicates in live database content.

A generated query often compares a column against a literal that is close
to, but not exactly, what the database stores ("timmothy" vs "timmy").
This module scores candidate database values against the query's literal
with a similarity backend (one class each, with ``score`` and
``score_many``) and searches at widening scopes — first the predicate's
own column, then its table, then the whole database — stopping at the
first scope whose best score clears the threshold.  The winners are
packaged as replacement suggestions.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, repeat

import numpy as np

from .errors import EmptyValueError, EncoderUnavailableError, SchemaMismatchError
from .execution import decode_text
from .sql_analysis import (
    OP_LIKE,
    ParsedQuery,
    Predicate,
    double_quoted_strings,
    extract_predicates,
    merge_like_pattern,
    split_like_pattern,
    table_scope,
)

log = logging.getLogger(__name__)

DEFAULT_SIMILARITY_THRESHOLD = 0.65
DEFAULT_SCAN_CAP = 10_000

_WORD = re.compile(r"[0-9a-z]+")


# --------------------------------------------------------------------------
# Character-level similarity

def _lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence, bit-parallel over ``a``."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(a):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    row = 0
    full = (1 << len(a)) - 1
    for ch in b:
        x = row | masks.get(ch, 0)
        row = x & ~(x - ((row << 1) | 1)) & full
    return row.bit_count()


def fuzzy_similarity(a: str, b: str) -> float:
    """Character-level similarity in [0,1], case-insensitive and trimmed.

    Uses the insertion/deletion edit distance normalized by the shorter
    length: 1 - (len(a) + len(b) - 2*LCS(a,b)) / min(len(a), len(b)),
    clamped to [0,1] since the raw ratio can go negative for very
    dissimilar strings of different lengths.
    """
    a = a.strip().lower()
    b = b.strip().lower()
    if not a or not b:
        raise EmptyValueError("fuzzy similarity requires non-empty strings")
    if a == b:
        return 1.0
    indel = len(a) + len(b) - 2 * _lcs_length(a, b)
    return max(0.0, min(1.0, 1.0 - indel / min(len(a), len(b))))


# Longest normalised literal whose LCS bit row fits a uint64 lane.
_MAX_LANE_LITERAL = 63
# Longest normalised value laid out as a lane; longer ones are scored one
# at a time, which bounds the code matrix at values x this many bytes.
_MAX_LANE_VALUE = 255


class EncodedValues(Sequence):
    """Candidate values normalised and encoded once for
    :meth:`CharacterFuzzy.score_many`; a sequence of the original values.

    Values whose normalised form (``strip().lower()``) is ASCII without
    NUL and at most ``_MAX_LANE_VALUE`` long become lanes: byte codes in
    a matrix with one row per character position and one column per lane,
    longest lane first, so step ``j`` of the LCS recurrence touches only
    the first ``active[j]`` lanes.  Padding is code 0, whose mask is
    always 0.  Other non-blank values are scored one at a time; blank ones
    cannot be scored at all.

    The values fall into segments, one per column: ``values[bounds[s]:
    bounds[s + 1]]`` is segment ``s``.  The constructor makes one segment;
    :meth:`concat` lays several columns out as one lane set.

    ``hashes`` is the exact lookup: ``hashes[i]`` is the hash of
    ``values[i]``'s normal form.  Under :class:`CharacterFuzzy` only
    equal normal forms score 1.0, so :func:`exact_matches` finds the
    values that score 1.0 against a literal by comparing hashes, with no
    lane pass; at 8 bytes a value, it holds no copy of the normal forms.
    """

    def __init__(self, values):
        self.values = list(values)
        n = len(self.values)
        self.bounds = np.array([0, n])
        normal = [v.strip().lower() for v in self.values]
        lengths = np.fromiter(map(len, normal), np.int64, n)
        fits = ((lengths > 0) & (lengths <= _MAX_LANE_VALUE)
                & np.fromiter(map(str.isascii, normal), bool, n)
                & ~np.fromiter(map(str.__contains__, normal, repeat("\0")),
                               bool, n))
        self.others = np.flatnonzero(~fits & (lengths > 0)).tolist()
        lanes = np.flatnonzero(fits)
        self.lanes = lanes[np.argsort(-lengths[lanes], kind="stable")]
        self.lengths = lengths[self.lanes]
        width = int(self.lengths[0]) if len(lanes) else 0
        packed = "".join([normal[i].ljust(width, "\0")
                          for i in self.lanes.tolist()])
        self.codes = np.frombuffer(packed.encode("ascii"), np.uint8) \
            .reshape(len(lanes), width).T.copy()
        self.active = _active_lanes(self.lengths, width)
        # rank[i]: position of values[i] in its segment's sorted order,
        # for tie-breaks.
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[sorted(range(n), key=self.values.__getitem__)] = np.arange(n)
        self.hashes = np.fromiter(map(hash, normal), np.int64, n)

    @classmethod
    def concat(cls, columns: list) -> "EncodedValues":
        """The values of ``columns`` (single-segment instances) in order,
        one segment each, as one longest-first lane set.  A single column
        is returned as it is."""
        if len(columns) == 1:
            return columns[0]
        merged = cls.__new__(cls)
        starts = np.cumsum([0] + [len(c) for c in columns])
        merged.bounds = starts
        merged.values = list(chain.from_iterable(c.values for c in columns))
        merged.others = [i + int(s) for c, s in zip(columns, starts)
                         for i in c.others]
        lengths = np.concatenate([c.lengths for c in columns])
        order = np.argsort(-lengths, kind="stable")
        lanes = np.concatenate([c.lanes for c in columns]) + np.repeat(
            starts[:-1], [len(c.lanes) for c in columns])
        merged.lanes = lanes[order]
        merged.lengths = lengths[order]
        width = int(merged.lengths[0]) if len(order) else 0
        # Each column's codes go straight to their lanes' merged positions.
        where = np.empty_like(order)
        where[order] = np.arange(len(order))
        merged.codes = np.zeros((width, len(order)), np.uint8)
        at = 0
        for c in columns:
            rows, count = c.codes.shape
            merged.codes[:rows, where[at:at + count]] = c.codes
            at += count
        merged.active = _active_lanes(merged.lengths, width)
        merged.rank = np.concatenate([c.rank for c in columns])
        merged.hashes = np.concatenate([c.hashes for c in columns])
        return merged

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _active_lanes(lengths: np.ndarray, width: int) -> list:
    """active[j]: how many lanes are longer than j, for j < width."""
    longer = np.cumsum(np.bincount(lengths, minlength=width + 1)[::-1])
    return longer[::-1][1:].tolist()


def _lane_scores(a: str, encoded: EncodedValues) -> np.ndarray:
    """Indel similarity of ``a`` against every lane, in lane order.

    ``a`` is normalised, non-empty, ASCII without NUL and at most
    ``_MAX_LANE_LITERAL`` long.  The recurrence is the one in
    :func:`_lcs_length`, one uint64 per lane.  Every mask, and so ``x``,
    lies within the low ``len(a)`` bits, so the final ``x & ...`` does the
    work of ``& full`` there, and the high bits that wrap around in the
    uint64 subtractions are never kept.  ``lane << 1`` has a zero low bit,
    so ``(lane << 1) | 1`` is ``(lane << 1) + 1`` and, as ``~z == -z - 1``
    modulo 2**64, ``~(x - ((lane << 1) | 1)) == (lane << 1) - x``: a step
    is a take, an or, a shift, a subtraction and an and.
    """
    bits: dict[int, int] = {}
    for i, code in enumerate(a.encode("ascii")):
        bits[code] = bits.get(code, 0) | (1 << i)
    masks = np.zeros(128, dtype=np.uint64)
    masks[list(bits)] = list(bits.values())
    n = len(encoded.lanes)
    row, xs, ys = (np.zeros(n, dtype=np.uint64) for _ in range(3))
    for j, k in enumerate(encoded.active):
        lane, x, y = row[:k], xs[:k], ys[:k]
        masks.take(encoded.codes[j, :k], out=x)
        np.bitwise_or(x, lane, out=x)
        np.left_shift(lane, 1, out=y)
        np.subtract(y, x, out=y)
        np.bitwise_and(x, y, out=lane)
    lcs = np.bitwise_count(row).astype(np.int64)
    indel = len(a) + encoded.lengths - 2 * lcs
    return np.clip(1.0 - indel / np.minimum(len(a), encoded.lengths), 0.0, 1.0)


def _score_each(backend, literal: str, values, wanted=None) -> np.ndarray:
    """``backend.score(literal, v)`` for each value, or each ``wanted`` one
    when a mask is given, in order; NaN where it raises
    :class:`EmptyValueError` and for the values not wanted."""
    scores = np.full(len(values), np.nan)
    indices = (range(len(values)) if wanted is None
               else np.flatnonzero(wanted).tolist())
    for i in indices:
        try:
            scores[i] = backend.score(literal, values[i])
        except EmptyValueError:
            pass
    return scores


# --------------------------------------------------------------------------
# Similarity backends

class CharacterFuzzy:
    def score(self, a: str, b: str) -> float:
        return fuzzy_similarity(a, b)

    def score_many(self, literal: str, values, wanted=None) -> np.ndarray:
        """``fuzzy_similarity(literal, v)`` for each value, exactly; NaN
        where either side is blank.  ``values`` may be an
        :class:`EncodedValues`, which saves encoding them again.  A literal
        that fits no lane scores the values one at a time.  ``wanted``, a
        bool per value, limits the values scored one at a time to those
        it marks; the lane pass still scores every lane, and the other
        values are NaN."""
        a = literal.strip().lower()
        if not a:
            return np.full(len(values), np.nan)
        if len(a) > _MAX_LANE_LITERAL or not a.isascii() or "\0" in a:
            return _score_each(self, literal, values, wanted)
        if not isinstance(values, EncodedValues):
            values = EncodedValues(values)
        scores = np.full(len(values), np.nan)
        scores[values.lanes] = _lane_scores(a, values)
        for i in values.others:
            if wanted is None or wanted[i]:
                scores[i] = fuzzy_similarity(literal, values[i])
        return scores


# Below this norm the squares that np.linalg.norm sums are subnormal or
# zero, so the norm loses precision or vanishes.
_TINY_NORM = np.sqrt(np.finfo(np.float64).tiny)


class WordEmbedding:
    """Cosine similarity of averaged word vectors (``entries`` maps each
    lowercase word to its vector), clamped to [0,1].  A pair where either
    side has no in-vocabulary word, or a zero average, is scored with
    :func:`fuzzy_similarity` instead."""

    def __init__(self, entries: dict):
        self.entries = entries

    @classmethod
    def load(cls, path) -> "WordEmbedding":
        """Word vectors from a text file, a token then D numbers per line.
        Malformed lines, a NaN or infinite number among them, are skipped
        with one warning; a file with no usable line is a
        :class:`ValueError`."""
        dimension = None
        entries: dict[str, np.ndarray] = {}
        skipped = 0
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    parts = line.split()
                    if not parts:
                        continue
                    token, numbers = parts[0], parts[1:]
                    if dimension is None and numbers:
                        dimension = len(numbers)
                    if len(numbers) != dimension:
                        skipped += 1
                        continue
                    try:
                        vector = np.array([float(x) for x in numbers],
                                          dtype=np.float64)
                    except ValueError:
                        vector = None
                    # A non-finite vector makes every cosine with its word
                    # NaN, which the clamp in ``score`` would read as a
                    # perfect match.
                    if vector is None or not np.isfinite(vector).all():
                        skipped += 1
                        continue
                    entries[token.lower()] = vector
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"word-vector file {path} is not UTF-8 text: {exc}") from exc
        if skipped:
            log.warning("skipped %d malformed line(s) in word-vector file %s",
                        skipped, path)
        if not entries:
            raise ValueError(f"word-vector file {path} contains no usable entries")
        return cls(entries)

    def _mean_vector(self, text: str) -> np.ndarray | None:
        vectors = [self.entries[tok] for tok in _WORD.findall(text.lower())
                   if tok in self.entries]
        if not vectors:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.mean(vectors, axis=0)
            norm = np.linalg.norm(mean)
        if not np.isfinite(norm) or (norm < _TINY_NORM and mean.any()):
            # Finite but huge vectors overflow the sum or the norm, and
            # tiny ones underflow the norm; scaled by their largest
            # magnitude they keep their direction.
            scaled = np.array(vectors) / np.abs(vectors).max()
            mean = np.mean(scaled, axis=0)
            norm = np.linalg.norm(mean)
        if norm == 0.0:
            return None
        return mean / norm

    def score(self, a: str, b: str) -> float:
        va, vb = self._mean_vector(a), self._mean_vector(b)
        if va is None or vb is None:
            return fuzzy_similarity(a, b)
        return float(max(0.0, min(1.0, np.dot(va, vb))))

    def score_many(self, literal: str, values, wanted=None) -> np.ndarray:
        return _score_each(self, literal, values, wanted)


class SentenceEncoder:
    """Clamped cosine similarity of sentence encodings from ``encoder``,
    any object with ``encode(texts) -> list of vectors`` whose failures
    surface as :class:`EncoderUnavailableError`.  The first failure logs a
    warning and drops the encoder: every later pair is scored with
    :func:`fuzzy_similarity` and sends nothing, so a dead encoder costs one
    retry schedule per backend (one run), not one per value pair.  Workers
    that share the backend and fail together may each send one request and
    log the warning before they see it dropped."""

    def __init__(self, encoder):
        self.encoder = encoder

    def score(self, a: str, b: str) -> float:
        encoder = self.encoder
        if encoder is None:
            return fuzzy_similarity(a, b)
        try:
            encoded = encoder.encode([a, b])
        except EncoderUnavailableError:
            log.warning("sentence encoder unavailable; falling back to "
                        "character fuzzy matching")
            self.encoder = None
            return fuzzy_similarity(a, b)
        va, vb = (np.asarray(v, dtype=np.float64) for v in encoded)
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        # A norm is NaN or infinite when a component is; such a cosine would
        # be NaN, which the clamp below reads as a perfect match.
        if not (0.0 < na < np.inf and 0.0 < nb < np.inf):
            log.warning("sentence encoder returned a zero or non-finite "
                        "vector; scoring 0.0")
            return 0.0
        return float(max(0.0, min(1.0, np.dot(va / na, vb / nb))))

    def score_many(self, literal: str, values, wanted=None) -> np.ndarray:
        return _score_each(self, literal, values, wanted)


# --------------------------------------------------------------------------
# Multi-level matching

class MatchLevel(IntEnum):
    COLUMN = 1
    TABLE = 2
    DATABASE = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class MatchResult:
    """The best database value found for one predicate.

    ``value`` occurs verbatim in ``column`` of the live database.
    ``below_threshold`` marks matches reported only because nothing
    cleared the similarity threshold at any level.
    """

    column: str
    value: str
    score: float
    level: MatchLevel
    below_threshold: bool = False


@dataclass(frozen=True)
class CalibrationFeedback:
    """Replacement suggestions: one (predicate, match) pair per predicate
    that produced any candidate values.  A rewrite reads the query's
    double-quoted ``quoted_columns`` as columns, as matching did."""

    replacements: tuple = ()
    quoted_columns: frozenset = frozenset()

    def __bool__(self) -> bool:
        return bool(self.replacements)

    def changes(self) -> tuple:
        """The (predicate, match) pairs whose suggestion differs from the
        predicate."""
        return tuple((pred, match) for pred, match in self.replacements
                     if not is_identity_replacement(pred, match))


def in_own_column(pred: Predicate, match: MatchResult) -> bool:
    """True when ``match`` is in the predicate's own column: the same name,
    ignoring qualifier and case."""
    return pred.ref.name.lower() == match.column.lower()


def is_identity_replacement(pred: Predicate, match: MatchResult) -> bool:
    """True when ``match`` proposes exactly what the predicate already says
    (its own column and the same matched value)."""
    return in_own_column(pred, match) and _match_value(pred) == match.value


def _match_value(pred: Predicate) -> str:
    """The text actually scored: LIKE patterns lose boundary wildcards."""
    if pred.operator == OP_LIKE:
        return split_like_pattern(pred.value)[1]
    return pred.value


def replacement_value(pred: Predicate, match: MatchResult) -> str:
    """The literal a rewrite should install for this match.

    For LIKE predicates the original boundary wildcards are re-applied
    around the matched database value.
    """
    if pred.operator == OP_LIKE:
        lead, _, trail = split_like_pattern(pred.value)
        return merge_like_pattern(lead, match.value, trail)
    return match.value


def _level_tables(level: MatchLevel, schema, resolved, tables: list) -> tuple:
    """The schema tables every column of which is a candidate at Table or
    Database ``level`` (see :func:`level_columns`)."""
    if level == MatchLevel.TABLE:
        names = [resolved[0]] if resolved is not None else tables
        return tuple(schema.tables[ti] for ti in map(schema.table_index, names)
                     if ti is not None)
    return schema.tables


def level_columns(level: MatchLevel, schema, resolved, tables: list) -> list:
    """The (table, column) pairs whose values are candidates for a
    predicate at ``level``, in search order.

    ``resolved`` is the (table, column) pair the predicate's column
    reference resolves to, or None; ``tables`` are the query's FROM tables.
    Column level is only ``resolved``; Table level every column of its
    table (every FROM table when the column does not resolve); Database
    level every column of every table.  So each level's columns include
    the previous level's.
    """
    if level == MatchLevel.COLUMN:
        return [] if resolved is None else [resolved]
    return [(table.name, col.name)
            for table in _level_tables(level, schema, resolved, tables)
            for col in table.columns]


def column_values(db, table: str, column: str,
                  scan_cap: int = DEFAULT_SCAN_CAP) -> EncodedValues:
    """The text values of one column (``db.distinct_text_values``),
    decoded and encoded, from ``db``'s value index, which scans the column
    again after each content change and decodes and encodes it again only
    when its bytes changed."""
    return db.cached((table.lower(), column.lower(), scan_cap),
                     lambda: db.distinct_text_values(table, column, scan_cap),
                     lambda raw: EncodedValues(map(decode_text, raw)))


def level_values(db, level: MatchLevel, schema, resolved, tables: list,
                 scan_cap: int = DEFAULT_SCAN_CAP) -> EncodedValues:
    """The values of :func:`level_columns`, one segment per column in that
    order, as one lane set.

    Column level gives the column's own :func:`column_values`.  The
    columns of one table, and those of the whole database (the same set
    when it has one table), are merged once and kept in ``db``'s value
    index next to the columns, so they are merged again only when one of
    their columns was encoded again.  The FROM tables of a column that
    does not resolve, when there are several, are merged for this call.
    """
    if level == MatchLevel.COLUMN:
        return column_values(db, *resolved, scan_cap)
    scope = _level_tables(level, schema, resolved, tables)

    def members():
        return [column_values(db, table.name, col.name, scan_cap)
                for table in scope for col in table.columns]

    if len(scope) == 1:
        key = (scope[0].name.lower(), None, scan_cap)
    elif level == MatchLevel.DATABASE:
        key = (None, None, scan_cap)
    else:
        return EncodedValues.concat(members())
    return db.cached(key, members, EncodedValues.concat)


def best_match(candidates: EncodedValues, value0: str, backend,
               wanted=None) -> list:
    """Best ``(score, value)`` of each segment (column) of ``candidates``
    against ``value0``, or None for a segment none of whose values can be
    scored, or that ``wanted`` (a bool per segment, when given) does not
    mark.  All values are scored in one :meth:`score_many` call, which
    scores values one at a time only in the wanted segments; equal scores
    go to the lexicographically smaller value."""
    bounds = candidates.bounds
    sizes = bounds[1:] - bounds[:-1]
    if wanted is not None:
        wanted = np.repeat(wanted, sizes)
    scores = backend.score_many(value0, candidates, wanted)
    if wanted is not None:
        scores[~wanted] = np.nan
    filled = sizes.nonzero()[0]
    out = [None] * len(sizes)
    # reduceat over the starts of non-empty segments only: an empty
    # segment's start equals the next start, which reduceat would read as
    # a one-value segment.
    starts, sizes = bounds[filled], sizes[filled]
    top = np.fmax.reduceat(scores, starts)
    tied = scores == np.repeat(top, sizes)
    least = np.minimum.reduceat(np.where(tied, candidates.rank, len(scores)),
                                starts)
    winners = np.flatnonzero(tied & (candidates.rank == np.repeat(least, sizes)))
    scored = ~np.isnan(top)
    for s, score, i in zip(filled[scored].tolist(), top[scored].tolist(),
                           winners.tolist()):
        out[s] = (score, candidates[i])
    return out


def exact_matches(candidates: EncodedValues, normal: str) -> dict:
    """Each segment's smallest value whose normal form is ``normal``, by
    segment, for the segments that hold one: under :class:`CharacterFuzzy`
    the :func:`best_match` results that score 1.0 against a literal of
    that normal form, which only equal normal forms do."""
    where = np.flatnonzero(candidates.hashes == hash(normal))
    segments = np.searchsorted(candidates.bounds, where, "right") - 1
    found: dict[int, str] = {}
    for s, i in zip(segments.tolist(), where.tolist()):
        value = candidates[i]
        # Equal hashes may come from other normal forms.
        if value.strip().lower() == normal and (s not in found
                                                or value < found[s]):
            found[s] = value
    return found


def _match_predicate(predicate: Predicate, resolved, r: float, levels,
                     column_bests) -> MatchResult | None:
    value0 = _match_value(predicate)
    overall: MatchResult | None = None
    for level in levels:
        # Ties break toward the column name first seen among the columns
        # that have candidates, then toward the smaller value.
        order: dict[str, int] = {}
        best_key, result = None, None
        for column, count, found in column_bests(value0, level, resolved):
            if count:
                rank = order.setdefault(column, len(order))
            if found is None:
                continue
            score, value = found
            if best_key is None or (-score, rank, value) < best_key:
                best_key = (-score, rank, value)
                result = MatchResult(column, value, score, level)
        if result is None:
            continue
        if result.score >= r:
            return result
        # Strict > keeps the earliest level on score ties across levels.
        if overall is None or result.score > overall.score:
            overall = result
    if overall is None:
        return None
    return MatchResult(overall.column, overall.value, overall.score,
                       overall.level, below_threshold=True)


ALL_LEVELS = (MatchLevel.COLUMN, MatchLevel.TABLE, MatchLevel.DATABASE)


def multi_level_match(db, query: ParsedQuery, r: float, backend,
                      scan_cap: int = DEFAULT_SCAN_CAP,
                      levels=ALL_LEVELS) -> CalibrationFeedback:
    """Match every text predicate of ``query`` against database content.

    ``levels`` are searched in order (by default Column -> Table ->
    Database), stopping at the first whose best score reaches ``r``; when
    none does, the overall best match is reported with ``below_threshold``
    set.  Values come from ``db``'s value index, checked against the file
    once at the start of the call, and each level is scored in one pass
    over its lane set (see :func:`level_values`).  Each literal's best
    value in each column is found once per call: a lane pass may score a
    column that an earlier level scored, and keeps that level's result,
    but values scored one at a time are scored once.

    Under :class:`CharacterFuzzy` a score of 1.0 means equal normal forms
    (``strip().lower()``), and no score is higher.  So before a pass, the
    literal's normal form is looked up in the exact lookup of the level's
    lane set (see :class:`EncodedValues`); if any column of the level
    holds it, the level is won at 1.0 for every threshold, and it is
    settled from the lookup alone.  The semantic backends always score
    the pass.
    """
    if not 0 < r <= 1:
        raise ValueError(f"similarity threshold must be in (0, 1], got {r}")
    # A double-quoted string that names a column in scope is that column.
    quoted = set()
    if '"' in query.original_text:
        db.sync()
        tables, aliases = table_scope(query)
        for name in double_quoted_strings(query):
            with suppress(SchemaMismatchError):
                db.schema.resolve_column(None, name, tables, aliases)
                quoted.add(name)
    predicates = [p for p in extract_predicates(query, quoted)
                  if _match_value(p).strip()]
    if not predicates:
        return CalibrationFeedback()
    db.sync()
    schema = db.schema
    tables, aliases = table_scope(query)
    bests: dict = {}
    fuzzy = isinstance(backend, CharacterFuzzy)

    def column_bests(value0: str, level: MatchLevel, resolved) -> list:
        """``(column, value count, best_match)`` of each column searched at
        ``level``.  The columns this call has not scored yet are scored in
        one pass over the level's lane set; the others keep their first
        result.  Under :class:`CharacterFuzzy`, when some column holds the
        literal's normal form, the exact lookups settle the level with no
        pass: those columns give ``(1.0, value)``, the rest None."""
        columns = level_columns(level, schema, resolved, tables)
        keys = [(value0, table.lower(), column.lower())
                for table, column in columns]
        wanted = [key not in bests for key in keys]
        if any(wanted):
            batch = level_values(db, level, schema, resolved, tables, scan_cap)
            sizes = np.diff(batch.bounds).tolist()
            exact = fuzzy and exact_matches(batch, value0.strip().lower())
            if exact:
                # Every column, hit or not, so that column names rank in
                # the order the lane pass would see them.
                return [(column, size, (1.0, exact[s]) if s in exact else None)
                        for s, ((_, column), size)
                        in enumerate(zip(columns, sizes))]
            for key, new, size, best in zip(
                    keys, wanted, sizes,
                    best_match(batch, value0, backend, wanted)):
                if new:
                    bests[key] = (size, best)
        return [(column, *bests[key]) for (_, column), key in zip(columns, keys)]

    replacements = []
    for predicate in predicates:
        ref = predicate.ref
        try:
            ti, _ = schema.resolve_column(ref.table, ref.name, tables, aliases)
            # Column level keeps the query's spelling of the column.
            resolved = (schema.tables[ti].name, ref.name)
        except SchemaMismatchError:
            resolved = None
        result = _match_predicate(predicate, resolved, r, levels, column_bests)
        if result is not None:
            replacements.append((predicate, result))
    return CalibrationFeedback(tuple(replacements), frozenset(quoted))


def single_level_match(db, query: ParsedQuery, r: float, backend,
                       level: MatchLevel,
                       scan_cap: int = DEFAULT_SCAN_CAP) -> CalibrationFeedback:
    """Ablation variant of :func:`multi_level_match` fixed to one level."""
    return multi_level_match(db, query, r, backend, scan_cap, (level,))
