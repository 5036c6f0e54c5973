import logging
import os
import random
import sqlite3
import string
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    _oracle_resolve,
    make_school_db,
    make_toy_db,
    oracle_multi_level,
    random_query,
    similarity_oracle,
)

import sketchsql.calibration as calibration
from sketchsql.calibration import (
    ALL_LEVELS,
    DEFAULT_SCAN_CAP,
    CalibrationFeedback,
    CharacterFuzzy,
    EncodedValues,
    MatchLevel,
    MatchResult,
    SentenceEncoder,
    WordEmbedding,
    best_match,
    column_values,
    fuzzy_similarity,
    is_identity_replacement,
    level_columns,
    multi_level_match,
    replacement_value,
    single_level_match,
)
from sketchsql.errors import EmptyValueError
from sketchsql.execution import Database
from sketchsql.gateway import StubScript
from sketchsql.selection import SelectionConfig, calibrate_deterministic
from sketchsql.sql_analysis import ColumnRef, Predicate, parse_sql, table_scope


# --------------------------------------------------------------------------
# Fuzzy similarity

@pytest.mark.parametrize("a,b,expected", [
    ("timmy", "timmothy", 0.4),
    ("hi", "hawaii", 0.0),
    ("wards", "ward", 0.75),
    ("same", "same", 1.0),
    ("  Same ", "saME", 1.0),
])
def test_fuzzy_pinned_values(a, b, expected):
    assert fuzzy_similarity(a, b) == pytest.approx(expected)


def test_fuzzy_empty_raises():
    with pytest.raises(EmptyValueError):
        fuzzy_similarity("", "x")
    with pytest.raises(EmptyValueError):
        fuzzy_similarity("x", "   ")


def test_fuzzy_matches_oracle_seeded():
    rng = random.Random(13)
    alphabet = "abcdefghij"
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
        assert fuzzy_similarity(a, b) == similarity_oracle(a, b)


_words = st.text(alphabet="abcdef", min_size=1, max_size=12)


@given(_words, _words)
def test_fuzzy_matches_oracle(a, b):
    assert fuzzy_similarity(a, b) == similarity_oracle(a, b)


@given(_words, _words)
def test_fuzzy_symmetric_and_bounded(a, b):
    score = fuzzy_similarity(a, b)
    assert 0.0 <= score <= 1.0
    assert score == fuzzy_similarity(b, a)


# --------------------------------------------------------------------------
# Word-embedding similarity

VECTORS = """\
king 1.0 0.0
queen 0.8 0.6
short 1.0
apple 0.0 1.0
junk one two
"""


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(VECTORS, encoding="utf-8")
    return WordEmbedding.load(path)


def test_embedding_table_load(table, caplog):
    assert {len(v) for v in table.entries.values()} == {2}
    assert set(table.entries) == {"king", "queen", "apple"}
    assert "king" in table.entries and "short" not in table.entries


def test_embedding_table_no_usable_entries(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("word\n", encoding="utf-8")
    with pytest.raises(ValueError):
        WordEmbedding.load(path)


def test_embedding_load_skips_non_finite_vectors(tmp_path, caplog):
    path = tmp_path / "vectors.txt"
    path.write_text("apple 1.0 0.0\npear nan 1.0\nplum inf 0.0\n",
                    encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        table = WordEmbedding.load(path)
    assert set(table.entries) == {"apple"}
    assert sum("skipped 2 malformed" in r.message
               for r in caplog.records) == 1
    for word in ("pear", "plum"):
        assert table.score("apple", word) == fuzzy_similarity("apple", word)


def test_embedding_huge_vectors_keep_their_cosine(tmp_path):
    """Finite vectors whose sum or norm overflows float64 still score their
    cosine, without a numpy overflow warning."""
    path = tmp_path / "vectors.txt"
    path.write_text("apple 1.0 0.0\norange 0.0 1.0\nbig 1e308 0.0\n",
                    encoding="utf-8")
    table = WordEmbedding.load(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert table.score("big big", "orange") == 0.0
        assert table.score("big", "apple") == 1.0


def test_embedding_similarity_cosine(table):
    assert table.score("king", "queen") == pytest.approx(0.8)
    assert table.score("king", "apple") == pytest.approx(0.0)
    assert table.score("KING", "king") == pytest.approx(1.0)


def test_embedding_similarity_multiword_mean(table):
    # mean(king, apple) is (0.5, 0.5); cosine against king is cos(45 deg)
    assert table.score("king apple", "king") == \
        pytest.approx(np.sqrt(0.5))


def test_embedding_similarity_oov_falls_back_to_fuzzy(table):
    assert table.score("wards", "ward") == 0.75
    assert table.score("king", "kings") == \
        fuzzy_similarity("king", "kings")


def test_embedding_tiny_vectors_keep_their_cosine(tmp_path):
    """Vectors whose norm underflows float64, to zero or to a subnormal,
    score the cosine of their direction; ordinary ones score as before."""
    path = tmp_path / "vectors.txt"
    path.write_text("apple 1.0 0.0\ntiny 1e-200 0.0\nsmall 1e-160 1e-160\n"
                    "half 1.0 1.0\nzero 0.0 0.0\n", encoding="utf-8")
    table = WordEmbedding.load(path)
    assert table.score("tiny", "apple") == 1.0
    assert table.score("small", "apple") == table.score("half", "apple")
    half = np.array([1.0, 1.0])
    assert table.score("half", "apple") == float(
        np.dot(half / np.linalg.norm(half), [1.0, 0.0]))
    # A zero average still falls back to fuzzy matching.
    assert table.score("zero", "apple") == fuzzy_similarity("zero", "apple")


# --------------------------------------------------------------------------
# Sentence-encoder similarity

def encoder_for(vectors: dict) -> StubScript:
    """A stub encoder answering ``vectors[text]`` for each text."""
    return StubScript({"encode": {text: [v] for text, v in vectors.items()}})


def test_sentence_similarity_cosine():
    encoder = encoder_for({"a": [3.0, 0.0], "b": [5.0, 0.0],
                           "c": [0.0, 1.0], "d": [-1.0, 0.0]})
    backend = SentenceEncoder(encoder)
    assert backend.score("a", "b") == pytest.approx(1.0)
    assert backend.score("a", "c") == pytest.approx(0.0)
    assert backend.score("a", "d") == 0.0  # clamped


def test_sentence_similarity_zero_vector():
    encoder = encoder_for({"a": [0.0, 0.0], "b": [1.0, 0.0]})
    assert SentenceEncoder(encoder).score("a", "b") == 0.0


def test_sentence_similarity_non_finite_vector(caplog):
    encoder = encoder_for({"a": [float("nan"), 1.0], "b": [1.0, 1.0],
                           "c": [float("inf"), 0.0]})
    backend = SentenceEncoder(encoder)
    with caplog.at_level(logging.WARNING):
        assert backend.score("a", "b") == 0.0
        assert backend.score("b", "c") == 0.0
    assert sum("non-finite vector" in r.message
               for r in caplog.records) == 2


def test_sentence_backend_falls_back_once(caplog):
    backend = SentenceEncoder(StubScript({}))
    with caplog.at_level(logging.WARNING):
        assert backend.score("wards", "ward") == 0.75
        assert backend.score("timmy", "timmothy") == 0.4
    assert sum("falling back" in r.message for r in caplog.records) == 1
    assert backend.encoder is None


# --------------------------------------------------------------------------
# Replacement helpers

def test_identity_replacement_ignores_qualifier_and_case():
    pred = Predicate(ColumnRef("T2", "Given_Name"), "=", "timmy")
    assert is_identity_replacement(
        pred, MatchResult("given_name", "timmy", 1.0, MatchLevel.COLUMN))
    assert not is_identity_replacement(
        pred, MatchResult("given_name", "tim", 0.8, MatchLevel.COLUMN))
    assert not is_identity_replacement(
        pred, MatchResult("last_name", "timmy", 1.0, MatchLevel.TABLE))


def test_identity_replacement_like_core():
    pred = Predicate(ColumnRef(None, "name"), "LIKE", "%tim%")
    assert is_identity_replacement(
        pred, MatchResult("name", "tim", 1.0, MatchLevel.COLUMN))


def test_replacement_value_rewraps_like():
    pred = Predicate(ColumnRef(None, "name"), "LIKE", "%tim%")
    match = MatchResult("name", "timmy", 0.8, MatchLevel.COLUMN)
    assert replacement_value(pred, match) == "%timmy%"
    assert replacement_value(Predicate(ColumnRef(None, "name"), "=", "tim"),
                             match) == "timmy"


# --------------------------------------------------------------------------
# Candidate gathering and best-match selection

def candidate_values(level, db, predicate, query, scan_cap=DEFAULT_SCAN_CAP):
    """The (column, value) candidates the matcher compares at ``level``."""
    resolved = _oracle_resolve(db.schema, query, predicate.column)
    return [(column, value)
            for table, column in level_columns(level, db.schema, resolved,
                                               table_scope(query)[0])
            for value in column_values(db, table, column, scan_cap)]


def test_candidate_levels_nest(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'x'")
    pred = Predicate(ColumnRef(None, "given_name"), "=", "x")
    col = candidate_values(MatchLevel.COLUMN, school_db, pred, query)
    tab = candidate_values(MatchLevel.TABLE, school_db, pred, query)
    db = candidate_values(MatchLevel.DATABASE, school_db, pred, query)
    assert set(col) == {("given_name", "timmy"), ("given_name", "wardle")}
    assert set(col) <= set(tab) <= set(db)
    assert ("teacher", "jordy wu") in db and ("teacher", "jordy wu") not in tab


def test_candidate_unresolvable_column(school_db):
    query = parse_sql("SELECT course FROM Student WHERE ghost = 'x'")
    pred = Predicate(ColumnRef(None, "ghost"), "=", "x")
    assert candidate_values(MatchLevel.COLUMN, school_db, pred, query) == []
    tab = candidate_values(MatchLevel.TABLE, school_db, pred, query)
    assert {c for c, _ in tab} == {"given_name", "last_name", "course"}


def test_candidate_scan_cap(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'x'")
    pred = Predicate(ColumnRef(None, "given_name"), "=", "x")
    capped = candidate_values(MatchLevel.COLUMN, school_db, pred, query,
                              scan_cap=1)
    assert capped == [("given_name", "timmy")]  # first in sorted order


def _best_of_column(values, literal):
    """best_match over a one-column batch."""
    (best,) = best_match(EncodedValues(values), literal, CharacterFuzzy())
    return best


def test_best_match_tie_breaks():
    assert _best_of_column(["xx", "xx"], "xx") == (1.0, "xx")
    best = _best_of_column(["ab", "aa"], "a")
    assert best[1] == "aa"  # equal scores; smaller value wins
    assert _best_of_column([], "x") is None
    assert _best_of_column(["  "], "x") is None  # blank: unscored


def test_level_tie_breaks_follow_first_column_name(tmp_path):
    path = tmp_path / "ties.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript("""
            CREATE TABLE a (name TEXT);
            CREATE TABLE b (other TEXT, name TEXT);
            INSERT INTO a VALUES ('zz');
            INSERT INTO b VALUES ('xx', 'xx');
        """)
    db = Database(path)
    # Table level over b: equal scores, the column listed first wins.
    query = parse_sql("SELECT other FROM b WHERE ghost = 'xx'")
    (_, match), = multi_level_match(db, query, 0.65, CharacterFuzzy()).replacements
    assert match == MatchResult("other", "xx", 1.0, MatchLevel.TABLE)
    # Database level: b.name shares the rank of a.name, which comes
    # before b.other, so it wins the tie although listed after b.other.
    query = parse_sql("SELECT name FROM a WHERE name = 'xx'")
    (_, match), = multi_level_match(db, query, 0.65, CharacterFuzzy()).replacements
    assert match == MatchResult("name", "xx", 1.0, MatchLevel.DATABASE)


# --------------------------------------------------------------------------
# Batched scoring: exactly the scalar similarity

_ASCII_VALUES = st.builds(
    lambda lead, core, trail: lead + core + trail,
    st.text(" \t", max_size=2),
    st.text(string.ascii_letters + string.digits + " -", min_size=1,
            max_size=24),
    st.text(" \t", max_size=2))
_VALUES = st.one_of(
    _ASCII_VALUES,
    st.text(" \t\n", min_size=1, max_size=3),           # whitespace only
    st.text("abAB\x00", min_size=1, max_size=6),         # NUL
    st.text("abcé ÄİẞK", min_size=1, max_size=8),         # non-ASCII
    st.text("ab", min_size=250, max_size=300),            # longer than a lane
)
_LITERALS = st.one_of(
    _ASCII_VALUES,
    st.text(string.ascii_letters, min_size=63, max_size=64),
    st.text("abcé ÄİẞK\x00", min_size=1, max_size=8),
)


@given(_LITERALS, st.lists(_VALUES, max_size=12))
def test_score_many_equals_oracle_exactly(literal, values):
    scores = CharacterFuzzy().score_many(literal, values)
    assert len(scores) == len(values)
    for value, score in zip(values, scores):
        if not literal.strip() or not value.strip():
            # fuzzy_similarity raises EmptyValueError: the pair is skipped
            assert np.isnan(score)
        else:
            assert score == similarity_oracle(literal, value), value


def test_score_many_loops_over_score_for_other_backends(table):
    values = ["queen", "wards", "   ", "kings"]
    for backend in (table,
                    SentenceEncoder(StubScript({}))):
        scores = backend.score_many("king", values)
        assert scores[0] == backend.score("king", "queen")
        assert scores[1] == backend.score("king", "wards")
        assert np.isnan(scores[2])
        assert scores[3] == backend.score("king", "kings")


# --------------------------------------------------------------------------
# One lane pass per level: segments of a batch

def _oracle_column_best(values, literal):
    """Best (score, value) of one column by ``similarity_oracle``: equal
    scores go to the smaller value; None when nothing can be scored."""
    if not literal.strip():
        return None
    scored = [(similarity_oracle(literal, v), v) for v in values if v.strip()]
    if not scored:
        return None
    top = max(score for score, _ in scored)
    return top, min(v for score, v in scored if score == top)


def _assert_batch_matches_oracle(literal, columns):
    batch = EncodedValues.concat([EncodedValues(c) for c in columns])
    assert len(batch) == sum(map(len, columns))
    assert best_match(batch, literal, CharacterFuzzy()) == \
        [_oracle_column_best(c, literal) for c in columns]


@pytest.mark.parametrize("literal,columns", [
    # empty columns before, between and after non-empty ones
    ("timmy", [[], ["timmy", "tommy"], [], [], ["tim"], []]),
    ("timmy", [[], []]),
    # a column of blank values only
    ("timmy", [["tom"], ["  ", "\t"], ["timmy"]]),
    # a column of values that are no lanes: non-ASCII, NUL, over 255 chars
    ("timmy", [["tim"], ["tîmmy", "ti\0mmy", "timmy" * 60], ["tom"]]),
    # a literal over 63 characters scores every value one at a time
    ("timmy" * 13, [["timmy" * 12, "tim"], [], ["timmy" * 13 + "s"]]),
    # equal scores in one column: the smaller value wins, wherever it is
    ("abz", [["abd", "abc", "zz"], ["aby", "abx"], ["b"]]),
])
def test_best_match_segments_equal_oracle(literal, columns):
    _assert_batch_matches_oracle(literal, columns)


@given(_LITERALS, st.lists(st.lists(_VALUES, max_size=5), min_size=1,
                           max_size=5))
def test_best_match_batch_equals_oracle(literal, columns):
    _assert_batch_matches_oracle(literal, columns)


@given(st.lists(st.lists(_VALUES, max_size=5), min_size=2, max_size=5))
def test_concat_lays_lanes_out_as_one_column_would(columns):
    """Each column's lanes are longest first, so the merge puts equal
    lengths in value order, as one column of all the values does."""
    merged = EncodedValues.concat([EncodedValues(c) for c in columns])
    whole = EncodedValues([v for c in columns for v in c])
    assert merged.values == whole.values and merged.others == whole.others
    assert merged.active == whole.active
    for name in ("lanes", "lengths", "codes"):
        assert np.array_equal(getattr(merged, name), getattr(whole, name)), name


def test_database_level_batch_matches_oracle(tmp_path):
    path = tmp_path / "segments.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript("""
            CREATE TABLE a (name TEXT, none TEXT, blank TEXT, odd TEXT);
            CREATE TABLE b (code TEXT, name TEXT);
            CREATE TABLE c (x TEXT);
            INSERT INTO a VALUES ('timmyb', NULL, '  ', 'tîmmy'),
                                 ('lee', 7, ' ', 'ti' || char(0) || 'mmy');
            INSERT INTO b VALUES ('zz', 'timmya'), ('qq', 'lee');
            INSERT INTO c VALUES ('zzz');
        """)
        conn.execute("INSERT INTO a VALUES ('ward', NULL, NULL, ?)",
                     ("timmy" * 60,))
    db = Database(path)
    literals = ["timmy", "timmi", "tîmmy", "timmy" * 13, "ward", "leigh"]
    for literal in literals:
        for column in ("x", "ghost"):
            sql = f"SELECT x FROM c WHERE {column} = '{literal}'"
            for r in (0.65, 1.0):
                feedback = multi_level_match(db, parse_sql(sql), r,
                                             CharacterFuzzy())
                assert list(feedback.replacements) == \
                    oracle_multi_level(db.schema, db.path, sql, r), (sql, r)
    # a.name and b.name share a bare name, so their equal scores go to the
    # smaller value, although a comes first.
    sql = "SELECT x FROM c WHERE x = 'timmy'"
    (_, match), = multi_level_match(db, parse_sql(sql), 0.65,
                                    CharacterFuzzy()).replacements
    assert match == MatchResult("name", "timmya", 0.8, MatchLevel.DATABASE)
    db.close()


# --------------------------------------------------------------------------
# Exact hits settle a level without a lane pass

def _counted_best_match(monkeypatch) -> list:
    """Patch :func:`best_match` to record the segment count of each call."""
    calls = []
    real = calibration.best_match

    def counting(candidates, *args, **kwargs):
        calls.append(len(candidates.bounds) - 1)
        return real(candidates, *args, **kwargs)

    monkeypatch.setattr(calibration, "best_match", counting)
    return calls


def test_exact_hits_keep_every_column_of_the_level(tmp_path, monkeypatch):
    """Table level over the FROM tables of an unresolved column: a.name has
    no hit and comes first, so ``name`` ranks before ``other`` although
    b.other holds the literal too.  Returning only the hits would pick
    b.other; every column of the level is kept, and b.name wins with its
    smallest value of the literal's normal form."""
    path = tmp_path / "shared.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript("""
            CREATE TABLE a (name TEXT);
            CREATE TABLE b (other TEXT, name TEXT);
            INSERT INTO a VALUES ('zz');
            INSERT INTO b VALUES ('xx', 'xx'), ('Xx', ' XX'), (NULL, 'xy');
        """)
    calls = _counted_best_match(monkeypatch)
    sql = "SELECT * FROM a, b WHERE ghost = 'XX '"
    with closing(Database(path)) as db:
        (_, match), = multi_level_match(db, parse_sql(sql), 0.65,
                                        CharacterFuzzy()).replacements
        assert match == MatchResult("name", " XX", 1.0, MatchLevel.TABLE)
        assert calls == []  # settled by the exact lookup
        assert [m for _, m in oracle_multi_level(db.schema, path, sql, 0.65)] \
            == [match]
        # A semantic backend scores the level's lane set as before.
        (_, semantic), = multi_level_match(db, parse_sql(sql), 0.65,
                                           SentenceEncoder(None)).replacements
        assert semantic == match and calls == [3]


def test_exact_hits_take_the_smallest_value_in_any_scan_order(tmp_path):
    """Under NOCASE a column scans as 'bx', 'Bx ', but 'Bx ' is the smaller
    value of the two that share the literal's normal form."""
    path = tmp_path / "nocase.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript("""
            CREATE TABLE t (name TEXT COLLATE NOCASE);
            INSERT INTO t VALUES ('bx'), ('Bx '), ('zz');
        """)
    sql = "SELECT name FROM t WHERE name = 'BX'"
    with closing(Database(path)) as db:
        assert list(column_values(db, "t", "name")) == ["bx", "Bx ", "zz"]
        (_, match), = multi_level_match(db, parse_sql(sql), 0.65,
                                        CharacterFuzzy()).replacements
        assert match == MatchResult("name", "Bx ", 1.0, MatchLevel.COLUMN)
        assert [m for _, m in oracle_multi_level(db.schema, path, sql, 0.65)] \
            == [match]


_EXACT_WORDS = ["timmy", "ward", "lee", "tîmmy", "ab" * 40, "x" * 300]
_EXACT_VARIANTS = st.builds(
    lambda word, case, lead, trail: lead + case(word) + trail,
    st.sampled_from(_EXACT_WORDS),
    st.sampled_from([str, str.upper, str.title]),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "  "]))
_EXACT_VALUES = st.one_of(
    _EXACT_VARIANTS,
    st.sampled_from(["  ", "timy", "wards", "ti\0mmy", "ab" * 39]))
_EXACT_COLUMNS = st.dictionaries(st.sampled_from(["name", "city", "code"]),
                                 st.lists(_EXACT_VALUES, max_size=4),
                                 min_size=1)


@settings(max_examples=80, deadline=None)
@given(tables=st.lists(_EXACT_COLUMNS, min_size=2, max_size=2),
       literal=st.one_of(_EXACT_VARIANTS, st.sampled_from(["timy", "zed"])),
       column=st.sampled_from(["name", "city", "code", "ghost"]),
       both=st.booleans(), r=st.sampled_from([0.65, 1.0]),
       cap=st.sampled_from([2, DEFAULT_SCAN_CAP]), collide=st.booleans())
# t0.name has no hit and ranks ``name`` before t1's ``city``.
@example(tables=[{"name": ["Ward"]}, {"city": ["lee"], "name": ["LEE"]}],
         literal="lee", column="ghost", both=True, r=0.65,
         cap=DEFAULT_SCAN_CAP, collide=False)
def test_exact_hits_match_the_oracle(tables, literal, column, both, r, cap,
                                     collide):
    """Feedback equals the brute-force oracle's, score repr included, over
    case and whitespace variants, one column name in both tables (often
    with equal values), blank, non-ASCII, over-63 and over-255 values,
    unresolved columns, both scan caps and r = 1.0.  With ``collide``,
    every normal form's hash is one of three, so that most values share
    the literal's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exact.sqlite")
        with closing(sqlite3.connect(path)) as conn, conn:
            for t, columns in enumerate(tables):
                conn.execute(f"CREATE TABLE t{t} ({', '.join(columns)})")
                for c, values in columns.items():
                    conn.executemany(f"INSERT INTO t{t} ({c}) VALUES (?)",
                                     [(v,) for v in values])
        sql = (f"SELECT * FROM t0{', t1' if both else ''} "
               f"WHERE {column} = '{literal}'")
        hashes = (mock.patch.object(calibration, "hash", create=True,
                                    new=lambda text: len(text) % 3)
                  if collide else nullcontext())
        with closing(Database(path)) as db:
            with hashes:
                found = multi_level_match(db, parse_sql(sql), r,
                                          CharacterFuzzy(), scan_cap=cap)
            expected = oracle_multi_level(db.schema, path, sql, r, cap)
    assert [(m.column, m.value, repr(m.score), m.level, m.below_threshold)
            for _, m in found.replacements] == \
        [(m.column, m.value, repr(m.score), m.level, m.below_threshold)
         for _, m in expected]


def test_value_index_holds_one_entry_per_scanned_column(tmp_path):
    path = tmp_path / "wide.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        for t in range(4):
            conn.execute(f"CREATE TABLE t{t} (a TEXT, b TEXT, c TEXT)")
            conn.executemany(f"INSERT INTO t{t} VALUES (?, ?, ?)",
                             [(f"ann{t}{i}", f"bob{i}", f"cy{t}")
                              for i in range(5)])
    db = Database(path)
    scanned = set()
    scan = db.distinct_text_values

    def recording_scan(table, column, cap):
        scanned.add((table.lower(), column.lower(), cap))
        return scan(table, column, cap)

    db.distinct_text_values = recording_scan
    for i in range(48):
        table, column, cap = f"t{i % 4}", "abc"[i % 3], (10_000, 3)[i % 2]
        sql = f"SELECT {column} FROM {table} WHERE {column} = 'zed{i}'"
        multi_level_match(db, parse_sql(sql), 1.0, CharacterFuzzy(),
                          scan_cap=cap)
    assert len(scanned) == 4 * 3 * 2
    # Besides the column entries, the index keeps at most one merged lane
    # set per table and one for the database, per scan cap.
    columns = {key for key in db._index if None not in key}
    assert columns <= scanned
    assert len(db._index) - len(columns) <= (4 + 1) * 2
    db.close()


def test_a_match_call_syncs_at_most_once(school_db_path, monkeypatch):
    """One check of the file per call that has a text predicate, whether
    or not a double-quoted string needs the schema first; none for a
    query with neither."""
    synced = []
    sync = Database.sync

    def counting_sync(self):
        synced.append(self)
        return sync(self)

    monkeypatch.setattr(Database, "sync", counting_sync)
    cases = [
        ("SELECT course FROM Student WHERE given_name = 'timmothy'", 1,
         ("given_name", "timmy")),
        # a double-quoted column and a double-quoted value
        ('SELECT course FROM Student WHERE "given_name" = \'timmothy\' '
         'AND last_name = "wards"', 1,
         ("given_name", "timmy"), ("last_name", "ward")),
        ("SELECT course FROM Student WHERE score = 3 AND id = 1", 0),
        ("SELECT count(*) FROM Student", 0),
    ]
    with closing(Database(school_db_path)) as db:
        for sql, count, *matches in cases:
            synced.clear()
            feedback = multi_level_match(db, parse_sql(sql), 0.65,
                                         CharacterFuzzy())
            assert len(synced) == count, sql
            assert [(m.column, m.value) for _, m in feedback.replacements] \
                == matches, sql


def test_sentence_encoder_calls_score_in_search_order(school_db):
    """The k-th score call gets the k-th literal vector of the stub queue,
    which matches only the value documented to be scored k-th, with a
    cosine that grows with k: so both the winner and its score pin the
    order of the calls."""
    # Search order: each level's columns not scored yet, values sorted.
    order = ["timmy", "wardle",                     # Student.given_name
             "lee", "ward", "art", "math",          # rest of Student
             "001", "math", "jordy wu"]             # Course
    texts = sorted(set(order))
    onehot = {t: [float(t == u) for u in texts] + [0.0] for t in texts}
    literal_queue = [[x * (k + 1) for x in onehot[text][:-1]] + [20.0]
                     for k, text in enumerate(order)]
    script = {"zed": literal_queue, **{t: [v] for t, v in onehot.items()}}
    encoder = StubScript({"encode": script})
    calls = []
    encode = encoder.encode

    def recording_encode(texts):
        calls.append(tuple(texts))
        return encode(texts)

    encoder.encode = recording_encode
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'zed'")
    feedback = multi_level_match(school_db, query, 0.65,
                                 SentenceEncoder(encoder))
    assert calls == [("zed", text) for text in order]
    (_, match), = feedback.replacements
    assert match == MatchResult("teacher", "jordy wu", 9 / np.hypot(9, 20),
                                MatchLevel.DATABASE, below_threshold=True)


def test_passes_that_read_no_lanes_agree_with_the_search(school_db, table):
    """Database-level matches whose backend or literal takes no lanes agree
    with the brute-force search, in the documented scoring order."""
    texts = ["timmy", "wardle", "lee", "ward", "art", "math", "001",
             "jordy wu"]
    encoder = encoder_for(
        {t: [float(t == u) for u in texts] + [0.5] for t in texts + ["zed"]})
    calls = []
    encode = encoder.encode

    def recording_encode(texts):
        calls.append(tuple(texts))
        return encode(texts)

    encoder.encode = recording_encode
    cases = [(SentenceEncoder(encoder), "zed"), (table, "zed"),
             (table, "king")]
    cases += [(CharacterFuzzy(), literal)
              for literal in ("tîmmy", "ti\0mmy", "timmy" * 13)]
    for backend, literal in cases:
        sql = f"SELECT course FROM Student WHERE given_name = '{literal}'"
        calls.clear()
        feedback = multi_level_match(school_db, parse_sql(sql), 1.0, backend)
        scored = calls[:]
        assert feedback and list(feedback.replacements) == oracle_multi_level(
            school_db.schema, school_db.path, sql, 1.0,
            similarity=backend.score), (type(backend).__name__, literal)
        if isinstance(backend, SentenceEncoder):
            # Search order: each level's columns not scored yet, values
            # sorted.
            assert scored == [
                ("zed", t) for t in ["timmy", "wardle", "lee", "ward", "art",
                                     "math", "001", "math", "jordy wu"]]


# --------------------------------------------------------------------------
# Value index: matching reflects current content

def _match_of(db, literal):
    _, feedback = calibrate_deterministic(
        db, f"SELECT course FROM Student WHERE given_name = '{literal}'",
        SelectionConfig(completer=None))
    (_, match), = feedback.replacements
    return match


@pytest.mark.parametrize("journal_mode", ["delete", "wal"])
def test_matching_sees_commits_between_calls(school_db_path, journal_mode):
    with closing(sqlite3.connect(school_db_path)) as conn:
        conn.execute(f"PRAGMA journal_mode={journal_mode}")
    db = Database(school_db_path)
    with closing(sqlite3.connect(school_db_path)) as writer:
        assert _match_of(db, "timmothy").value == "timmy"
        assert _match_of(db, "wardle").value == "wardle"

        writer.execute("INSERT INTO Student VALUES (3, 'timothy', 'lane', 'art', 50)")
        writer.commit()
        assert _match_of(db, "timmothy").value == "timothy"

        writer.execute("UPDATE Student SET given_name = 'wardell' "
                       "WHERE given_name = 'wardle'")
        writer.commit()
        renamed = _match_of(db, "wardle")
        assert renamed.value == "wardell" and renamed.level == MatchLevel.COLUMN

        writer.execute("DELETE FROM Student WHERE given_name = 'timothy'")
        writer.commit()
        assert _match_of(db, "timmothy").value == "timmy"
    db.close()


def test_matching_follows_a_replaced_file(tmp_path):
    path = make_school_db(tmp_path / "school.sqlite")
    db = Database(path)
    assert _match_of(db, "timmothy").value == "timmy"
    successor = make_school_db(tmp_path / "next.sqlite")
    with closing(sqlite3.connect(successor)) as conn, conn:
        conn.execute("UPDATE Student SET given_name = 'timothy' "
                     "WHERE given_name = 'timmy'")
    os.replace(successor, path)
    assert _match_of(db, "timmothy").value == "timothy"
    db.close()


def test_value_index_shared_across_threads(school_db_path):
    query = parse_sql("SELECT course FROM Student "
                      "WHERE given_name = 'wards' AND last_name = 'timmothy'")
    expected = multi_level_match(Database(school_db_path), query, 0.65,
                                 CharacterFuzzy())
    db = Database(school_db_path)
    scans = []
    scan = db.distinct_text_values

    def counting_scan(table, column, cap):
        scans.append((table.lower(), column.lower()))
        return scan(table, column, cap)

    db.distinct_text_values = counting_scan
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(
                lambda _: multi_level_match(db, query, 0.65, CharacterFuzzy()),
                range(64), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 64
    assert len(scans) == len(set(scans))  # each column filled once
    db.close()


def test_held_connection_never_blocks_a_writer(school_db_path):
    db = Database(school_db_path)
    _match_of(db, "timmothy")
    assert db.distinct_text_values("Student", "given_name", 10) == \
        [b"timmy", b"wardle"]
    assert db.execute(
        "SELECT 1 FROM Student WHERE given_name = 'timmy'").is_rows
    with closing(sqlite3.connect(school_db_path, timeout=0)) as writer:
        writer.execute("INSERT INTO Student VALUES (3, 'timothy', 'lane', 'art', 50)")
        writer.commit()  # "database is locked" if a read were left open
    assert _match_of(db, "timmothy").value == "timothy"
    db.close()
    assert _match_of(db, "timmothy").value == "timothy"  # reopens after close
    db.close()


def test_a_commit_encodes_only_the_columns_whose_values_changed(
        school_db_path, monkeypatch):
    encoded = []

    class CountingValues(EncodedValues):
        def __init__(self, values):
            encoded.append(list(values))
            super().__init__(values)

    monkeypatch.setattr(calibration, "EncodedValues", CountingValues)
    db = Database(school_db_path)
    scans = []
    scan = db.distinct_text_values

    def counting_scan(table, column, cap):
        scans.append((table.lower(), column.lower()))
        return scan(table, column, cap)

    db.distinct_text_values = counting_scan
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'zed'")
    every_column = sorted((t.lower(), c.lower()) for t, c in level_columns(
        MatchLevel.DATABASE, db.schema, None, []))

    def match():
        """The columns one database-level match scans, and the value lists
        it encodes; its feedback must be a new handle's."""
        scans.clear()
        encoded.clear()
        feedback = multi_level_match(db, query, 1.0, CharacterFuzzy())
        seen = sorted(scans), encoded[:]
        with closing(Database(school_db_path)) as fresh:
            assert feedback == multi_level_match(fresh, query, 1.0,
                                                 CharacterFuzzy())
        return seen

    scanned, first = match()
    assert scanned == every_column and len(first) == len(every_column)
    assert match() == ([], [])
    with closing(sqlite3.connect(school_db_path)) as writer:
        for statement, changed in [
                ("UPDATE Student SET last_name = 'lane' "
                 "WHERE last_name = 'lee'", [["lane", "ward"]]),
                # a duplicate row changes no column's distinct values
                ("INSERT INTO Student SELECT 3, given_name, last_name, "
                 "course, score FROM Student WHERE id = 1", []),
                ("UPDATE Course SET teacher = 'Jordy Wu'", [["Jordy Wu"]])]:
            writer.execute(statement)
            writer.commit()
            assert match() == (every_column, changed), statement
    db.close()


@pytest.fixture
def merges(monkeypatch):
    """The column count of each :meth:`EncodedValues.concat` call."""
    counts = []
    concat = EncodedValues.concat.__func__

    def counting_concat(cls, columns):
        counts.append(len(columns))
        return concat(cls, columns)

    monkeypatch.setattr(EncodedValues, "concat", classmethod(counting_concat))
    return counts


def test_kept_lane_sets_are_merged_once_per_content_version(
        school_db_path, merges):
    """Student's set, Course's set and the database's are merged on first
    use, and again only after a commit that changes one of their columns'
    values.  A set is told by its column count."""
    scope = {3: "Course", 5: "Student", 8: "database"}
    db = Database(school_db_path)
    queries = [parse_sql("SELECT course FROM Student WHERE given_name = 'zed'"),
               parse_sql("SELECT id FROM Course WHERE teacher = 'zed'")]

    def match():
        """The sets that database-level matches of both queries merge; their
        feedback must be a new handle's."""
        merges.clear()
        feedback = [multi_level_match(db, query, 1.0, CharacterFuzzy())
                    for query in queries]
        seen = sorted(scope[count] for count in merges)
        with closing(Database(school_db_path)) as fresh:
            assert feedback == [multi_level_match(fresh, query, 1.0,
                                                  CharacterFuzzy())
                                for query in queries]
        assert all(f.replacements[0][1].below_threshold for f in feedback)
        return seen

    assert match() == ["Course", "Student", "database"]
    assert match() == []
    with closing(sqlite3.connect(school_db_path)) as writer:
        for statement, changed in [
                ("UPDATE Student SET last_name = 'lane' "
                 "WHERE last_name = 'lee'", ["Student", "database"]),
                # a duplicate row changes no column's distinct values
                ("INSERT INTO Student SELECT 3, given_name, last_name, "
                 "course, score FROM Student WHERE id = 1", []),
                ("UPDATE Course SET teacher = 'Jordy Wu'",
                 ["Course", "database"])]:
            writer.execute(statement)
            writer.commit()
            assert match() == changed, statement
            assert match() == []
    db.close()


def test_a_one_table_database_keeps_one_merged_set(tmp_path, merges):
    path = tmp_path / "one.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript("""
            CREATE TABLE t (a TEXT, b TEXT);
            INSERT INTO t VALUES ('timmy', 'ward');
        """)
    query = parse_sql("SELECT a FROM t WHERE a = 'zed'")
    with closing(Database(path)) as db:
        for level in (MatchLevel.DATABASE, MatchLevel.TABLE):
            assert single_level_match(db, query, 1.0, CharacterFuzzy(), level)
        assert merges == [2]
        assert len(db._index) == 2 + 1


def test_several_from_tables_of_an_unresolved_column_merge_per_call(
        tmp_path):
    """That Table-level scope is merged for the call, not kept, and its
    matches agree with the brute-force search."""
    path = tmp_path / "join.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript("""
            CREATE TABLE a (id INTEGER, name TEXT, odd TEXT);
            CREATE TABLE b (id INTEGER, label TEXT);
            CREATE TABLE c (x TEXT);
            INSERT INTO a VALUES (1, 'timmy', 'tîmmy'), (2, 'ward', 'lee');
            INSERT INTO b VALUES (1, 'timmi'), (2, 'wardle');
            INSERT INTO c VALUES ('timothy');
        """)
    db = Database(path)
    for literal in ("timmy", "timothy", "wardel", "tîmmy", "timmy" * 13):
        sql = (f"SELECT a.name FROM a JOIN b ON a.id = b.id "
               f"WHERE ghost = '{literal}'")
        for backend in (CharacterFuzzy(), SentenceEncoder(None)):
            for r in (0.65, 1.0):
                feedback = multi_level_match(db, parse_sql(sql), r, backend)
                assert list(feedback.replacements) == oracle_multi_level(
                    db.schema, db.path, sql, r), (sql, r)
    kept = {key for key in db._index if None in key}
    assert kept == {(None, None, DEFAULT_SCAN_CAP)}
    db.close()


def test_values_scored_one_at_a_time_are_scored_once_per_call(
        school_db, tmp_path, monkeypatch):
    """The lane pass over a level's set may score an earlier level's
    columns again, but the values scored one at a time are not: a literal
    too long for a lane scores every value of the database once, and a
    lane literal scores each value that is no lane once."""
    calls = []

    def counting_similarity(a, b):
        calls.append(b)
        return fuzzy_similarity(a, b)

    monkeypatch.setattr(calibration, "fuzzy_similarity", counting_similarity)
    literal = "q" * 65
    query = parse_sql(f"SELECT course FROM Student WHERE given_name = '{literal}'")
    assert multi_level_match(school_db, query, 1.0, CharacterFuzzy())
    assert sorted(calls) == sorted(
        value for table, column in level_columns(
            MatchLevel.DATABASE, school_db.schema, None, [])
        for value in column_values(school_db, table, column))

    path = tmp_path / "odd.sqlite"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.executescript("""
            CREATE TABLE a (name TEXT, odd TEXT);
            CREATE TABLE b (odd TEXT);
            INSERT INTO a VALUES ('tîm', 'ti' || char(0) || 'm'), ('lee', 'x');
            INSERT INTO b VALUES ('tîmmy');
        """)
        conn.execute("INSERT INTO b VALUES (?)", ("timmy" * 60,))
    calls.clear()
    with closing(Database(path)) as db:
        query = parse_sql("SELECT name FROM a WHERE odd = 'zed'")
        (_, match), = multi_level_match(db, query, 1.0,
                                        CharacterFuzzy()).replacements
    assert match.level == MatchLevel.COLUMN and match.below_threshold
    assert sorted(calls) == sorted(["ti\0m", "tîm", "tîmmy", "timmy" * 60])


_FRESH_DDL = """
CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT, city TEXT);
CREATE TABLE q (id INTEGER PRIMARY KEY, label TEXT);
INSERT INTO p (name, city) VALUES ('timmy', 'lee'), ('ward', 'Leeds'),
                                  ('tîm', 'lee');
INSERT INTO q (label) VALUES ('math'), ('a' || char(0) || 'b');
"""
_FRESH_COLUMNS = {"p": ("name", "city"), "q": ("label",)}
_FRESH_QUERIES = [parse_sql(sql) for sql in [
    "SELECT id FROM p WHERE name = 'timy'",
    "SELECT id FROM p WHERE city = 'LEE' AND name = 'wrd'",
    "SELECT id FROM q WHERE label = 'tîmy'",
    "SELECT id FROM p WHERE nosuch = 'ma'",
    f"SELECT id FROM q WHERE label = '{'tim' * 22}'",
]]
_FRESH_TEXT = st.one_of(
    st.sampled_from(["timmy", "Timmy", "tim", "ward", "lee", "a", "zz"]),
    st.text("abTé\x00 ", min_size=1, max_size=5),
)
_FRESH_WRITES = st.tuples(
    st.sampled_from(["insert", "delete", "update", "duplicate", "case"]),
    st.sampled_from([(t, c) for t, cs in _FRESH_COLUMNS.items() for c in cs]),
    st.integers(0, 3),
    _FRESH_TEXT,
)


def _fresh_write(kind, target, row, text):
    """One write as (statement, parameters) on the ``row``-th row (by rowid)
    of the target's table, or none when there is no such row."""
    table, column = target
    pick = f"(SELECT rowid FROM {table} ORDER BY rowid LIMIT 1 OFFSET {row})"
    columns = ", ".join(_FRESH_COLUMNS[table])
    return {
        "insert": (f"INSERT INTO {table} ({column}) VALUES (?)", (text,)),
        "delete": (f"DELETE FROM {table} WHERE rowid = {pick}", ()),
        "update": (f"UPDATE {table} SET {column} = ? WHERE rowid = {pick}",
                   (text,)),
        # The copy of a row changes no column's distinct values.
        "duplicate": (f"INSERT INTO {table} ({columns}) SELECT {columns} "
                      f"FROM {table} WHERE rowid = {pick}", ()),
        "case": (f"UPDATE {table} SET {column} = CASE WHEN {column} = "
                 f"upper({column}) THEN lower({column}) ELSE upper({column}) "
                 f"END WHERE rowid = {pick}", ()),
    }[kind]


def _every_feedback(match):
    """(column, value, repr(score), level, below_threshold) of what
    ``match(query, levels, scan_cap)`` finds for every fresh-test query,
    at each level and all levels, under a small and the default scan cap."""
    out = []
    for query in _FRESH_QUERIES:
        for levels in (ALL_LEVELS, *((level,) for level in MatchLevel)):
            for cap in (2, DEFAULT_SCAN_CAP):
                out.append([(m.column, m.value, repr(m.score), m.level,
                             m.below_threshold)
                            for _, m in match(query, levels, cap).replacements])
    return out


@pytest.mark.parametrize("journal_mode", ["delete", "wal"])
@settings(max_examples=15, deadline=None)
@given(writes=st.lists(_FRESH_WRITES, min_size=1, max_size=5))
@example(writes=[("case", ("p", "name"), 0, "x")])
@example(writes=[("insert", ("p", "name"), 0, "zz"),
                 ("update", ("q", "label"), 1, "tîmy\x00")])
def test_kept_value_index_matches_a_new_handle_after_each_write(journal_mode,
                                                                writes):
    """After each write by another connection, a handle that keeps its
    value index matches as a new handle does for each match call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fresh.sqlite")

        def kept(query, levels, cap):
            return multi_level_match(db, query, 0.65, CharacterFuzzy(),
                                     scan_cap=cap, levels=levels)

        def new(query, levels, cap):
            with closing(Database(path)) as fresh:
                return multi_level_match(fresh, query, 0.65, CharacterFuzzy(),
                                         scan_cap=cap, levels=levels)

        with closing(sqlite3.connect(path)) as writer:
            writer.executescript(_FRESH_DDL)
            writer.execute(f"PRAGMA journal_mode={journal_mode}")
            db = Database(path)
            _every_feedback(kept)
            for write in writes:
                writer.execute(*_fresh_write(*write))
                writer.commit()
                assert _every_feedback(kept) == _every_feedback(new), write
            db.close()


def test_undecodable_text_matches_as_replaced_and_stays_fresh(tmp_path):
    """A TEXT cell that is not valid UTF-8 is matched as its lossy decode
    and a blob of the same bytes is no candidate.  After commits that
    change only bytes that do not decode, a handle that keeps its value
    index matches as a new handle does."""
    path = tmp_path / "undecodable.sqlite"
    query = parse_sql("SELECT id FROM t WHERE name = 'caf'")

    def feedback(handle):
        return ([(m.column, m.value, repr(m.score), m.level, m.below_threshold)
                 for _, m in multi_level_match(handle, query, 0.65,
                                               CharacterFuzzy()).replacements],
                list(column_values(handle, "t", "name")))

    with closing(sqlite3.connect(path)) as writer:
        writer.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
        writer.execute("INSERT INTO t (name) VALUES "
                       "(CAST(x'636166e9' AS TEXT)), (x'636166')")
        writer.commit()
        db = Database(path)
        assert feedback(db) == (
            [("name", "caf\ufffd", "0.6666666666666667", MatchLevel.COLUMN,
              False)], ["caf\ufffd"])
        for write in ("UPDATE t SET name = CAST(x'636166ea' AS TEXT) "
                      "WHERE id = 1",
                      "INSERT INTO t (name) VALUES (CAST(x'636166eb' AS TEXT))"):
            writer.execute(write)
            writer.commit()
            with closing(Database(path)) as fresh:
                assert feedback(db) == feedback(fresh), write
        db.close()

# --------------------------------------------------------------------------
# Multi-level matching

def test_pinned_table_level_match(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'wards'")
    feedback = multi_level_match(school_db, query, 0.65, CharacterFuzzy())
    (pred, match), = feedback.replacements
    assert pred.value == "wards"
    assert match == MatchResult("last_name", "ward", 0.75, MatchLevel.TABLE)
    assert feedback.changes() == ((pred, match),)


def test_pinned_below_threshold_match(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'timmothy'")
    feedback = multi_level_match(school_db, query, 0.65, CharacterFuzzy())
    (_, match), = feedback.replacements
    assert match == MatchResult("given_name", "timmy", 0.4, MatchLevel.COLUMN,
                                below_threshold=True)


def test_column_level_early_stop(school_db):
    query = parse_sql("SELECT course FROM Student WHERE last_name = 'wards'")
    feedback = multi_level_match(school_db, query, 0.65, CharacterFuzzy())
    (_, match), = feedback.replacements
    assert match.level == MatchLevel.COLUMN
    assert match.value == "ward" and not match.below_threshold


def test_identity_feedback_on_exact_values(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'timmy'")
    feedback = multi_level_match(school_db, query, 0.65, CharacterFuzzy())
    assert feedback and feedback.changes() == ()


def test_empty_value_predicate_skipped(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = ''")
    feedback = multi_level_match(school_db, query, 0.65, CharacterFuzzy())
    assert feedback.replacements == ()
    assert not feedback


def test_numeric_only_query_gives_no_feedback(school_db):
    query = parse_sql("SELECT course FROM Student WHERE score = 92")
    assert not multi_level_match(school_db, query, 0.65, CharacterFuzzy())


def test_threshold_validation(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'x'")
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            multi_level_match(school_db, query, bad, CharacterFuzzy())


def test_single_level_scores_monotone_in_level(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name = 'wards'")
    scores = []
    for level in (MatchLevel.COLUMN, MatchLevel.TABLE, MatchLevel.DATABASE):
        feedback = single_level_match(school_db, query, 0.99,
                                      CharacterFuzzy(), level)
        (_, match), = feedback.replacements
        scores.append(match.score)
    assert scores == sorted(scores)


def test_like_predicates_match_on_core(school_db):
    query = parse_sql("SELECT course FROM Student WHERE given_name LIKE '%timmy%'")
    feedback = multi_level_match(school_db, query, 0.65, CharacterFuzzy())
    (pred, match), = feedback.replacements
    assert match.value == "timmy" and match.score == 1.0
    assert feedback.changes() == ()
    assert replacement_value(pred, match) == "%timmy%"


# --------------------------------------------------------------------------
# Brute-force oracle equivalence on random toy databases

@pytest.mark.parametrize("seed", range(4))
def test_multi_level_matches_brute_force_oracle(tmp_path, seed):
    rng = random.Random(seed)
    for case in range(8):
        db = make_toy_db(tmp_path / f"toy{seed}_{case}.sqlite", rng)
        schema = db.schema
        for _ in range(3):
            sql = random_query(schema, rng)
            r = rng.choice([0.3, 0.65, 0.9])
            feedback = multi_level_match(db, parse_sql(sql), r,
                                         CharacterFuzzy())
            expected = oracle_multi_level(schema, db.path, sql, r)
            assert list(feedback.replacements) == expected, (sql, r)
