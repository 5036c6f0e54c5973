"""Reference implementations (oracles) and fixture builders shared by the
test modules.  Oracles are deliberately written in the most obvious way
possible — e.g. quadratic DP instead of bit-parallel tricks — so they can
anchor the optimized library code.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from sketchsql.calibration import MatchLevel, MatchResult
from sketchsql.schema import schema_from_spider_record
from sketchsql.sql_analysis import (
    extract_predicates,
    parse_sql,
    split_like_pattern,
    table_scope,
)


# --------------------------------------------------------------------------
# String-similarity oracle

def lcs_dp(a: str, b: str) -> int:
    """Classic O(m*n) longest-common-subsequence table."""
    n = len(b)
    prev = [0] * (n + 1)
    for ch_a in a:
        cur = [0] * (n + 1)
        for j in range(1, n + 1):
            if ch_a == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[n]


def similarity_oracle(a: str, b: str) -> float:
    """Indel similarity 1 - (m+n-2*LCS)/min(m,n), clamped to [0, 1]."""
    a = a.strip().lower()
    b = b.strip().lower()
    if a == b:
        return 1.0
    indel = len(a) + len(b) - 2 * lcs_dp(a, b)
    return max(0.0, min(1.0, 1.0 - indel / min(len(a), len(b))))


# --------------------------------------------------------------------------
# Multi-level matching oracle (exhaustive, no early shortcuts hidden)

def scan_text_values(db_path, table: str, column: str,
                     cap: int = 10_000, text_factory=str) -> list[str]:
    with sqlite3.connect(f"file:{db_path}?mode=ro", uri=True) as conn:
        conn.text_factory = text_factory
        rows = conn.execute(
            f'SELECT DISTINCT "{column}" FROM "{table}" '
            f'WHERE typeof("{column}") = \'text\' AND "{column}" <> \'\' '
            f"ORDER BY 1 LIMIT ?", (cap,)).fetchall()
    return [row[0] for row in rows]


def scan_text_bytes(db_path, table: str, column: str,
                    cap: int = 10_000) -> list[bytes]:
    """:func:`scan_text_values` as raw bytes, which text that is not valid
    UTF-8 needs."""
    return scan_text_values(db_path, table, column, cap, text_factory=bytes)


def _oracle_resolve(schema, parsed, column_text):
    tables, aliases = table_scope(parsed)
    if "." in column_text:
        qualifier, column = column_text.split(".", 1)
        table = aliases.get(qualifier.lower(), qualifier)
        ti = schema.table_index(table)
        if ti is None or schema.tables[ti].column_index(column) is None:
            return None
        return schema.tables[ti].name, column
    for table in tables:
        ti = schema.table_index(table)
        if ti is not None and schema.tables[ti].column_index(column_text) is not None:
            return schema.tables[ti].name, column_text
    return None


def _oracle_candidates(level, schema, db_path, parsed, predicate, cap):
    resolved = _oracle_resolve(schema, parsed, predicate.column)
    if level == MatchLevel.COLUMN:
        if resolved is None:
            return []
        table, column = resolved
        return [(column, v) for v in scan_text_values(db_path, table, column, cap)]
    if level == MatchLevel.TABLE:
        if resolved is not None:
            tables = [resolved[0]]
        else:
            known = {t.name.lower() for t in schema.tables}
            tables = [t for t in table_scope(parsed)[0] if t.lower() in known]
    else:
        tables = [t.name for t in schema.tables]
    out = []
    for table in tables:
        ti = schema.table_index(table)
        for col in schema.tables[ti].columns:
            out.extend((col.name, v)
                       for v in scan_text_values(db_path, table, col.name, cap))
    return out


def _oracle_best(candidates, value0, level, similarity=similarity_oracle):
    best_key, best = None, None
    column_order = {}
    for column, value in candidates:
        column_order.setdefault(column, len(column_order))
        if not value.strip():
            continue  # blank text has no similarity: not a candidate
        score = similarity(value0, value)
        key = (-score, column_order[column], value)
        if best_key is None or key < best_key:
            best_key, best = key, MatchResult(column, value, score, level)
    return best


def oracle_multi_level(schema, db_path, sql: str, r: float,
                       cap: int = 10_000, similarity=similarity_oracle) -> list:
    """Exhaustive (level, candidate) search with the documented early-stop
    and tie-break rules, for every extracted text predicate, scoring with
    ``similarity`` (by default the indel similarity oracle)."""
    parsed = parse_sql(sql)
    out = []
    for predicate in extract_predicates(parsed):
        if predicate.operator == "LIKE":
            value0 = split_like_pattern(predicate.value)[1]
        else:
            value0 = predicate.value
        if not value0.strip():
            continue
        overall = None
        stopped = None
        for level in (MatchLevel.COLUMN, MatchLevel.TABLE, MatchLevel.DATABASE):
            candidates = _oracle_candidates(level, schema, db_path, parsed,
                                            predicate, cap)
            best = _oracle_best(candidates, value0, level, similarity)
            if best is None:
                continue
            if best.score >= r:
                stopped = best
                break
            if overall is None or best.score > overall.score:
                overall = best
        if stopped is not None:
            out.append((predicate, stopped))
        elif overall is not None:
            out.append((predicate, MatchResult(overall.column, overall.value,
                                               overall.score, overall.level,
                                               below_threshold=True)))
    return out


# --------------------------------------------------------------------------
# Toy school database (two tables, tiny content)

SCHOOL_DDL = """
CREATE TABLE Course (id TEXT PRIMARY KEY, course TEXT, teacher TEXT);
CREATE TABLE Student (id INTEGER PRIMARY KEY, given_name TEXT,
                      last_name TEXT, course TEXT, score INTEGER);
INSERT INTO Course VALUES ('001', 'math', 'jordy wu');
INSERT INTO Student VALUES (1, 'timmy', 'ward', 'math', 92);
INSERT INTO Student VALUES (2, 'wardle', 'lee', 'art', 77);
"""

SCHOOL_QUESTION = ("Show the course of the student named timmothy wards "
                   "with the lowest score")
SCHOOL_BAD_SQL = ("SELECT course FROM Student WHERE given_name = 'timmothy' "
                  "AND last_name = 'wards' ORDER BY score LIMIT 1")
SCHOOL_GOLD_SQL = ("SELECT course FROM Student WHERE given_name = 'timmy' "
                   "AND last_name = 'ward' ORDER BY score LIMIT 1")


def make_school_db(path) -> Path:
    path = Path(path)
    with sqlite3.connect(path) as conn:
        conn.executescript(SCHOOL_DDL)
    return path


SCHOOL_RECORD = {
    "db_id": "school",
    "table_names_original": ["Course", "Student"],
    "column_names_original": [
        [-1, "*"],
        [0, "id"], [0, "course"], [0, "teacher"],
        [1, "id"], [1, "given_name"], [1, "last_name"], [1, "course"],
        [1, "score"],
    ],
    "column_types": ["text", "text", "text", "text", "number", "text",
                     "text", "text", "number"],
    "foreign_keys": [],
    "primary_keys": [1, 4],
}


# --------------------------------------------------------------------------
# Pinned schemas from external benchmarks

CAR_1_RECORD = {
    "db_id": "car_1",
    "table_names_original": [
        "model_list", "continents", "car_names", "countries", "cars_data",
        "car_makers",
    ],
    "column_names_original": [
        [-1, "*"],
        [0, "modelid"], [0, "maker"], [0, "model"],
        [1, "contid"], [1, "continent"],
        [2, "makeid"], [2, "model"], [2, "make"],
        [3, "countryid"], [3, "countryname"], [3, "continent"],
        [4, "id"], [4, "mpg"], [4, "cylinders"], [4, "edispl"],
        [4, "horsepower"], [4, "weight"], [4, "accelerate"], [4, "year"],
        [5, "id"], [5, "maker"], [5, "fullname"], [5, "country"],
    ],
    "column_types": [
        "text",
        "number", "number", "text",
        "number", "text",
        "number", "text", "text",
        "number", "text", "number",
        "number", "text", "number", "number", "text", "number", "number",
        "number",
        "number", "text", "text", "text",
    ],
    # cars_data.id (global 12) references car_names.makeid (global 6)
    "foreign_keys": [[12, 6]],
    "primary_keys": [1, 4, 6, 9, 12, 20],
}

CAR_1_SERIALIZED_PREFIX = (
    "car_1: t0: model_list (c0: modelid, c1: maker, c2: model) "
    "t1: continents (c0: contid, c1: continent) t2: car_names ("
)

STADIUM_RECORD = {
    "db_id": "concert_singer",
    "table_names_original": ["stadium", "singer"],
    "column_names_original": [
        [-1, "*"],
        [0, "stadium_id"], [0, "name"], [0, "highest"], [0, "lowest"],
        [0, "capacity"],
        [1, "singer_id"], [1, "name"], [1, "country"],
    ],
    "column_types": ["text", "number", "text", "number", "number", "number",
                     "number", "text", "text"],
    "foreign_keys": [],
    "primary_keys": [1, 6],
}


def car1_schema():
    return schema_from_spider_record(CAR_1_RECORD)


def stadium_schema():
    return schema_from_spider_record(STADIUM_RECORD)


# --------------------------------------------------------------------------
# Benchmark dataset builder (standard layout: tables.json + database dir)

_BENCH_DDL = """
CREATE TABLE Course (id TEXT PRIMARY KEY, course TEXT, teacher TEXT);
CREATE TABLE Student (id INTEGER PRIMARY KEY, given_name TEXT,
                      last_name TEXT, course TEXT, score INTEGER);
INSERT INTO Course VALUES ('001', 'math', 'jordy wu');
INSERT INTO Course VALUES ('002', 'art', 'pat li');
"""


def _bench_questions(n: int) -> list[dict]:
    examples = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            sid = i % 8 + 1
            question = f"What is the score of student number {sid}? (case {i})"
            sql = f"SELECT score FROM Student WHERE id = {sid}"
        elif kind == 1:
            question = f"How many students are there? (case {i})"
            sql = "SELECT count(*) FROM Student"
        elif kind == 2:
            question = f"Which course does timmy take? (case {i})"
            sql = "SELECT course FROM Student WHERE given_name = 'timmy'"
        else:
            question = f"List student names from the highest score down. (case {i})"
            sql = "SELECT given_name FROM Student ORDER BY score DESC"
        examples.append({"question": question, "db_id": "school", "query": sql})
    return examples


def make_benchmark_dataset(root, n: int, db_dir_name: str = "database") -> Path:
    """Write a complete n-example benchmark directory rooted at ``root``."""
    root = Path(root)
    db_dir = root / db_dir_name / "school"
    db_dir.mkdir(parents=True)
    with sqlite3.connect(db_dir / "school.sqlite") as conn:
        conn.executescript(_BENCH_DDL)
        for sid in range(1, 9):
            conn.execute(
                "INSERT INTO Student VALUES (?, ?, ?, ?, ?)",
                (sid, f"name{sid}", f"last{sid}",
                 "math" if sid % 2 else "art", 60 + sid * 3))
        conn.execute("INSERT INTO Student VALUES (9, 'timmy', 'ward', 'math', 92)")
        conn.execute("INSERT INTO Student VALUES (10, 'wardle', 'lee', 'art', 77)")
    (root / "tables.json").write_text(json.dumps([SCHOOL_RECORD]),
                                      encoding="utf-8")
    (root / "dev.json").write_text(json.dumps(_bench_questions(n)),
                                   encoding="utf-8")
    return root


# --------------------------------------------------------------------------
# Random toy databases for matching-oracle equivalence checks

TOY_WORDS = ["apple", "apples", "grape", "graph", "melon", "lemon", "berry",
             "cherry", "peach", "pear", "plum", "mango", "kiwi", "fig",
             "date", "olive", "corn", "bean", "pea", "mint"]
_TOY_COLS = ["name", "label", "kind", "place"]


def make_toy_db(path, rng):
    """A random small database: up to 4 tables, up to 3 mostly-text columns
    each, up to 12 rows drawn from a word pool chosen for near-misses."""
    from sketchsql.execution import Database

    n_tables = rng.randint(1, 4)
    ddl = []
    for ti in range(n_tables):
        cols = rng.sample(_TOY_COLS, rng.randint(1, 3))
        decls = ", ".join(
            f"{c} {'TEXT' if rng.random() < 0.8 else 'INTEGER'}" for c in cols)
        ddl.append(f"CREATE TABLE tab{ti} ({decls});")
        for _ in range(rng.randint(0, 12)):
            vals = ", ".join(
                f"'{rng.choice(TOY_WORDS)}'" if rng.random() < 0.85
                else str(rng.randint(0, 99)) for _ in cols)
            ddl.append(f"INSERT INTO tab{ti} VALUES ({vals});")
    with sqlite3.connect(path) as conn:
        conn.executescript("\n".join(ddl))
    return Database(path)


def random_query(schema, rng) -> str:
    """A SELECT over one random table with 1-2 text predicates, sometimes
    against a column that does not exist in the chosen table."""
    table = rng.choice(schema.tables)
    preds = []
    for _ in range(rng.randint(1, 2)):
        column = (rng.choice(table.columns).name if rng.random() < 0.8
                  else "ghost")
        word = rng.choice(TOY_WORDS)
        roll = rng.random()
        if roll < 0.6:
            preds.append(f"{column} = '{word}'")
        elif roll < 0.8:
            preds.append(f"{column} LIKE '%{word}%'")
        else:
            preds.append(f"{column} IN ('{word}', '{rng.choice(TOY_WORDS)}')")
    return (f"SELECT {table.columns[0].name} FROM {table.name} "
            f"WHERE {' AND '.join(preds)}")


# --------------------------------------------------------------------------
# Connection bookkeeping

def record_connections(monkeypatch) -> list:
    """Patch ``Database.connect`` to append every connection it opens to
    the returned list."""
    from sketchsql.execution import Database

    opened = []
    connect = Database.connect

    def recording_connect(self, *args, **kwargs):
        conn = connect(self, *args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(Database, "connect", recording_connect)
    return opened


def is_closed(conn: sqlite3.Connection) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False
