"""Seeded input generator for the pipeline benchmark.

``python3 perfbench/gen.py --seed N --out DIR`` writes, for one seed:

* ``dataset/``: a Spider-layout benchmark (``tables.json``, ``dev.json``,
  ``database/<db>/<db>.sqlite``) over several small databases;
* ``script.json``: the stub model script (StubScript format) that drives
  every example of the dataset down one of a fixed mix of pipeline paths;
* ``expected.json``: the expected pipeline output of every example and the
  expected execution accuracy;
* ``calib.sqlite`` and ``calib.json``: a database with many text columns,
  the calibration queries with their expected rewrites, and the churn step
  list (a write, a query and its expected rewrite per step).

Only the standard library is used.  Expected outputs come from this file's
own brute-force matching oracle and from SQLite itself, never from the
package under test.  Prompt and serialization formats are the pinned
strings of the pipeline; they are rebuilt here so that a change to them
shows up as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import sqlite3
import sys
from pathlib import Path

GEN_VERSION = 1

# The pipeline's default similarity threshold is 0.65.
RESOLVE_MIN = 0.70      # designed matches clear the threshold by this much
BELOW_MAX = 0.60        # designed misses stay this far below it
MARGIN = 0.05           # designed best beats the runner-up by this much
FRESH_MAX = 0.50        # churn-written values stay this far from literals

# --------------------------------------------------------------------------
# Words


_ONSETS = ("b c d f g h k l m n p r s t v z br dr gr kr st tr pl sh th "
           "ch").split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "l", "s", "th", "nd", "rk"]


def _syllables(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                   for _ in range(n)) + rng.choice(_CODAS)


def _word(rng, n):
    return _syllables(rng, n).capitalize()


def _unique_pool(rng, size, make, taken):
    """``size`` new values from ``make(rng)``, unique case-insensitively
    against each other and against ``taken`` (which is updated)."""
    out = []
    while len(out) < size:
        value = make(rng)
        key = value.lower()
        if key in taken:
            continue
        taken.add(key)
        out.append(value)
    return out


# --------------------------------------------------------------------------
# Similarity oracle: the pipeline's character similarity, brute force.

def _lcs_masks(text):
    masks = {}
    for i, ch in enumerate(text):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


class Literal:
    """A query literal, prepared for scoring against many values."""

    def __init__(self, text):
        self.text = text
        self.key = text.strip().lower()
        self.masks = _lcs_masks(self.key)
        self.full = (1 << len(self.key)) - 1

    def score(self, value):
        b = value.strip().lower()
        a = self.key
        if a == b:
            return 1.0
        row = 0
        masks, full = self.masks, self.full
        for ch in b:
            x = row | masks.get(ch, 0)
            row = x & ~(x - ((row << 1) | 1)) & full
        lcs = bin(row).count("1")
        indel = len(a) + len(b) - 2 * lcs
        return max(0.0, min(1.0, 1.0 - indel / min(len(a), len(b))))

    def best(self, candidates):
        """(score, (column, value)) of the best candidate and the best
        score among the others; candidates are (column, value) pairs."""
        best_score, best, second = -1.0, None, -1.0
        for cand in candidates:
            s = self.score(cand[1])
            if s > best_score:
                second = best_score
                best_score, best = s, cand
            elif s > second:
                second = s
        return best_score, best, second


def expect_level(literal, levels, level, target):
    """True when the pipeline's widening search must stop at ``level``
    (0 column, 1 table, 2 database) on ``target``, with margins: every
    earlier level stays below ``BELOW_MAX``, and at ``level`` the target
    scores at least ``RESOLVE_MIN`` and beats every other candidate by
    ``MARGIN``."""
    lit = Literal(literal)
    for earlier in levels[:level]:
        score, _, _ = lit.best(earlier)
        if score >= BELOW_MAX:
            return False
    score, best, second = lit.best(levels[level])
    return (best == target and score >= RESOLVE_MIN
            and second <= score - MARGIN)


def _delete_char(rng, value):
    """Misspell by dropping one inner letter."""
    spots = [i for i in range(1, len(value) - 1) if value[i].isalpha()]
    i = rng.choice(spots)
    return value[:i] + value[i + 1:]


def _insert_char(rng, value):
    """Misspell by doubling one inner letter."""
    spots = [i for i in range(1, len(value) - 1) if value[i].isalpha()]
    i = rng.choice(spots)
    return value[:i] + value[i] + value[i:]


# --------------------------------------------------------------------------
# Pinned pipeline formats

INSTRUCTIONS = {
    "Select": "Generate the select clause of this question according to "
              "the database.",
    "From": "Generate the relevant tables of this question according to "
            "the database.",
    "Keywords": "Generate the SQL keywords of this question according to "
                "the database.",
}


def serialize(db_id, tables, fks):
    """Index-token schema line; ``tables`` is [(name, [(col, type)])],
    ``fks`` is [((ti, ci), (tj, cj))] in declaration order."""
    parts = [f"{db_id}:"]
    for ti, (name, cols) in enumerate(tables):
        body = ", ".join(f"c{ci}: {col}" for ci, (col, _) in enumerate(cols))
        parts.append(f"t{ti}: {name} ({body})")
        for (ft, fc), (tt, tc) in fks:
            if ft == ti:
                parts.append(f"t{ft}.c{fc} = t{tt}.c{tc}")
    return " ".join(parts)


def task_input(kind, question, serialized):
    return f"{INSTRUCTIONS[kind]} question: {question} database: {serialized}"


def aligner_input(question, select, keywords):
    return (f"[CLS] user question: {question}. "
            f"our solution: {select}, {keywords} [SEP]")


_INDEX = re.compile(r"(?<![A-Za-z0-9_])t(\d+)(?:\.c(\d+))?(?![A-Za-z0-9_])")


def named(tables, text):
    def sub(m):
        name, cols = tables[int(m.group(1))]
        if m.group(2) is None:
            return name
        return f"{name}.{cols[int(m.group(2))][0]}"
    return _INDEX.sub(sub, text)


def completion_prompt(question, serialized, tables, select, from_, keywords):
    return ("Complete the following SQL sketch into a full SQL query "
            "answering the question. "
            f"question: {question} "
            f"database: {serialized} "
            f"sketch: {named(tables, select)} {named(tables, from_)} "
            f"keywords: {keywords}")


def repair_prompt(sql, message):
    return ("The SQL query failed to execute. "
            f"SQL query: {sql} "
            f"Error message: {message} "
            "Rewrite the SQL query to fix the error and output only SQL.")


def calibration_prompt(sql, pred_column, pred_value, match_column,
                       match_value):
    return (f"SQL query: {sql} "
            f"The predicate {pred_column} = '{pred_value}' does not match "
            "the database content. "
            f"The closest database value is {match_column} = "
            f"'{match_value}'. "
            "Rewrite the SQL query accordingly and output only SQL.")


UNPARSEABLE_REWRITE = "Sorry, I cannot rewrite this query."

# --------------------------------------------------------------------------
# Evaluation dataset: several small databases

# Each database has three tables with the same roles:
#   A (people):  id, name, place, age, score, B-key
#   B (groups):  id, title, site, budget
#   C (items):   id, label, status, cost, B-key
DOMAINS = [
    {"db": "city_clinic",
     "A": ("patient", ["patient_id", "full_name", "home_town", "age",
                       "severity", "ward_id"]),
     "B": ("ward", ["ward_id", "ward_name", "wing", "budget"]),
     "C": ("treatment", ["treatment_id", "drug", "phase", "dose_cost",
                         "ward_ref"]),
     "statuses": ["planned", "ongoing", "finished", "paused"],
     "nouns": ("patients", "wards", "treatments")},
    {"db": "town_library",
     "A": ("member", ["member_id", "member_name", "district", "age",
                      "rating", "branch_id"]),
     "B": ("branch", ["branch_id", "branch_name", "street", "funding"]),
     "C": ("loan", ["loan_id", "book_title", "loan_state", "fee",
                    "branch_ref"]),
     "statuses": ["returned", "overdue", "renewed", "lost"],
     "nouns": ("members", "branches", "loans")},
    {"db": "county_league",
     "A": ("player", ["player_id", "player_name", "hometown", "age",
                      "points", "club_id"]),
     "B": ("club", ["club_id", "club_name", "arena", "payroll"]),
     "C": ("fixture", ["fixture_id", "opponent", "outcome", "ticket_price",
                       "club_ref"]),
     "statuses": ["won", "lost", "drawn", "postponed"],
     "nouns": ("players", "clubs", "fixtures")},
    {"db": "harbor_market",
     "A": ("vendor", ["vendor_id", "vendor_name", "origin", "years",
                      "revenue", "stall_id"]),
     "B": ("stall", ["stall_id", "stall_name", "aisle", "rent"]),
     "C": ("product", ["product_id", "product_name", "grade", "unit_price",
                       "stall_ref"]),
     "statuses": ["premium", "standard", "budget", "seasonal"],
     "nouns": ("vendors", "stalls", "products")},
]

_TYPES_A = ["INTEGER", "TEXT", "TEXT", "INTEGER", "REAL", "INTEGER"]
_TYPES_B = ["INTEGER", "TEXT", "TEXT", "REAL"]
_TYPES_C = ["INTEGER", "TEXT", "TEXT", "REAL", "INTEGER"]

# Fixed path mix per block of 25 examples.  The seed chooses databases'
# content, gold queries, wording and order, never the mix, so the
# expected execution accuracy is the same for every seed.
PATH_MIX = [
    ("direct", 9),            # completion is the gold query
    ("repair", 3),            # engine error, repaired by the completer
    ("calib_column", 3),      # misspelled literal, column-level rewrite
    ("calib_table", 2),       # literal in another column of the table
    ("calib_database", 4),    # literal in another table
    ("fallback", 2),          # unparseable rewrite, deterministic fallback
    ("second_from", 1),       # first FROM sketch gives no rows
    ("exhausted", 1),         # every sketch gives no rows
]
# The slowest path, calib_database, is 16% of examples, so the p90 of
# example latency falls inside one path's spread rather than between two.
BLOCK = sum(n for _, n in PATH_MIX)
EXAMPLES_PER_DB = 75
PREFIXES = ["", "Please tell me: ", "I need to know: ", "Quick question: ",
            "Could you find out: ", "For the report, ", "From the records, ",
            "Help me out: "]
SUFFIXES = ["", " Thanks.", " Answer briefly.", " List them all."]


def _person(rng):
    return f"{_word(rng, rng.choice((1, 2)))} {_word(rng, 2)}"


def _place(rng):
    return _word(rng, 2) + rng.choice(["ton", "ford", "mouth", "wick",
                                       "dale", "bury", "field"])


def _title(rng):
    kind = rng.choice(["House", "Hall", "Group", "Unit", "Circle"])
    return f"{_word(rng, 2)} {kind}"


def _site(rng):
    side = rng.choice(["North", "South", "East", "West", "Upper", "Lower"])
    return f"{side} {_word(rng, 2)}"


def _label(rng):
    return _word(rng, rng.choice((3, 4)))


def _make_eval_db(rng, domain, path):
    """Create one small database; return its tables, foreign keys, rows
    and text-column contents."""
    (a_name, a_cols), (b_name, b_cols), (c_name, c_cols) = (
        domain["A"], domain["B"], domain["C"])
    taken: set = set()
    # Sizes are fixed so that the seed changes content, not the work.
    groups = 8
    titles = _unique_pool(rng, groups, _title, taken)
    sites = _unique_pool(rng, 5, _site, taken)
    places = _unique_pool(rng, 10, _place, taken)
    statuses = list(domain["statuses"])
    taken.update(s.lower() for s in statuses)
    people = _unique_pool(rng, 85, _person, taken)
    labels = _unique_pool(rng, 50, _label, taken)

    rows_b = [(i + 1, titles[i], rng.choice(sites),
               round(rng.uniform(1000, 90000), 2)) for i in range(groups)]
    rows_a = [(i + 1, name, rng.choice(places), rng.randint(18, 80),
               round(rng.uniform(0, 100), 3), rng.randint(1, groups))
              for i, name in enumerate(people)]
    rows_c = [(i + 1, label, rng.choice(statuses),
               round(rng.uniform(1, 500), 2), rng.randint(1, groups))
              for i, label in enumerate(labels)]
    tables = [(a_name, list(zip(a_cols, _TYPES_A))),
              (b_name, list(zip(b_cols, _TYPES_B))),
              (c_name, list(zip(c_cols, _TYPES_C)))]
    fks = [((0, 5), (1, 0)), ((2, 4), (1, 0))]
    with sqlite3.connect(path) as conn:
        for (name, cols), rows in zip(tables, (rows_a, rows_b, rows_c)):
            decl = ", ".join(
                f"{col} {typ}" + (" PRIMARY KEY" if i == 0 else "")
                for i, (col, typ) in enumerate(cols))
            reference = f"REFERENCES {b_name}({b_cols[0]})"
            if name == a_name:
                decl += f", FOREIGN KEY ({a_cols[5]}) {reference}"
            if name == c_name:
                decl += f", FOREIGN KEY ({c_cols[4]}) {reference}"
            conn.execute(f"CREATE TABLE {name} ({decl})")
            conn.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * len(cols))})",
                rows)
    conn.close()
    return tables, fks


def _text_columns(conn, tables):
    """[(table index, column, sorted distinct text values)] in schema
    order, as the pipeline's value scans see them."""
    out = []
    for ti, (name, cols) in enumerate(tables):
        for col, _ in cols:
            values = [r[0] for r in conn.execute(
                f"SELECT DISTINCT {col} FROM {name} WHERE typeof({col}) = "
                f"'text' AND {col} <> '' ORDER BY 1")]
            if values:
                out.append((ti, col, values))
    return out


def _levels(text_cols, table_index, column):
    """Candidate lists for the column, table and database levels."""
    col_level = [(c, v) for ti, c, vs in text_cols
                 if ti == table_index and c == column for v in vs]
    table_level = [(c, v) for ti, c, vs in text_cols
                   if ti == table_index for v in vs]
    db_level = [(c, v) for _, c, vs in text_cols for v in vs]
    return [col_level, table_level, db_level]


def _spider_record(db_id, tables, fks):
    names = [[-1, "*"]]
    types = ["text"]
    gid = {}
    for ti, (_, cols) in enumerate(tables):
        for ci, (col, typ) in enumerate(cols):
            gid[(ti, ci)] = len(names)
            names.append([ti, col])
            types.append("text" if typ == "TEXT" else "number")
    return {
        "db_id": db_id,
        "table_names_original": [name for name, _ in tables],
        "column_names_original": names,
        "column_types": types,
        "foreign_keys": [[gid[a], gid[b]] for a, b in fks],
        "primary_keys": [gid[(ti, 0)] for ti in range(len(tables))],
    }


def _gold_templates(rng, conn, tables, domain):
    """Gold queries for one database, each with its sketch parts and (for
    queries with one text predicate) the predicate's location."""
    (a, ac), (b, bc), (c, cc) = [(n, [col for col, _ in cols])
                                 for n, cols in tables]
    na, nb, nc = domain["nouns"]

    def pick(sql, k):
        values = [r[0] for r in conn.execute(sql)]
        return rng.sample(values, min(k, len(values)))

    places = pick(f"SELECT {ac[2]} FROM {a} GROUP BY {ac[2]} "
                  f"HAVING COUNT(*) >= 2", 3)
    titles = pick(f"SELECT T2.{bc[1]} FROM {a} AS T1 JOIN {b} AS T2 ON "
                  f"T1.{ac[5]} = T2.{bc[0]} GROUP BY T2.{bc[1]}", 3)
    statuses = pick(f"SELECT DISTINCT {cc[2]} FROM {c}", 2)
    budget = sorted(r[0] for r in conn.execute(f"SELECT {bc[3]} FROM {b}"))
    cost = sorted(r[0] for r in conn.execute(f"SELECT {cc[3]} FROM {c}"))

    golds = []

    def add(sql, question, select, from_, keywords, pred=None):
        golds.append({"sql": sql, "question": question, "select": select,
                      "from": from_, "keywords": keywords, "pred": pred})

    for p in places:
        where = f"WHERE {ac[2]} = '{p}'"
        pred = {"table": 0, "column": ac[2], "text": ac[2], "value": p}
        add(f"SELECT {ac[1]} FROM {a} {where}",
            f"What are the names of {na} from {p}?",
            "SELECT t0.c1", "FROM t0", "SELECT FROM WHERE", pred)
        add(f"SELECT COUNT(*) FROM {a} {where}",
            f"How many {na} come from {p}?",
            "SELECT COUNT(*)", "FROM t0", "SELECT FROM WHERE", pred)
        add(f"SELECT AVG({ac[4]}) FROM {a} {where}",
            f"What is the average {ac[4]} of {na} from {p}?",
            "SELECT AVG(t0.c4)", "FROM t0", "SELECT FROM WHERE", pred)
    for t in titles:
        add(f"SELECT T1.{ac[1]} FROM {a} AS T1 JOIN {b} AS T2 ON "
            f"T1.{ac[5]} = T2.{bc[0]} WHERE T2.{bc[1]} = '{t}'",
            f"Which {na} belong to {t}?",
            "SELECT t0.c1", "FROM t0, t1", "SELECT FROM JOIN WHERE",
            {"table": 1, "column": bc[1], "text": f"T2.{bc[1]}",
             "value": t})
    for s in statuses:
        pred = {"table": 2, "column": cc[2], "text": cc[2], "value": s}
        add(f"SELECT {cc[1]} FROM {c} WHERE {cc[2]} = '{s}'",
            f"List the {nc} whose {cc[2]} is {s}.",
            "SELECT t2.c1", "FROM t2", "SELECT FROM WHERE", pred)
        add(f"SELECT AVG({cc[3]}) FROM {c} WHERE {cc[2]} = '{s}'",
            f"What is the mean {cc[3]} of {s} {nc}?",
            "SELECT AVG(t2.c3)", "FROM t2", "SELECT FROM WHERE", pred)
    add(f"SELECT {ac[2]}, COUNT(*) FROM {a} GROUP BY {ac[2]}",
        f"How many {na} are there per {ac[2]}?",
        "SELECT t0.c2, COUNT(*)", "FROM t0", "SELECT FROM GROUP BY")
    add(f"SELECT {ac[1]} FROM {a} ORDER BY {ac[4]} DESC LIMIT 3",
        f"Which three {na} have the highest {ac[4]}?",
        "SELECT t0.c1", "FROM t0", "SELECT FROM ORDER BY LIMIT")
    add(f"SELECT MAX({ac[3]}) FROM {a}",
        f"What is the largest {ac[3]} among {na}?",
        "SELECT MAX(t0.c3)", "FROM t0", "SELECT FROM")
    limit = int(budget[len(budget) // 2])
    add(f"SELECT {bc[1]} FROM {b} WHERE {bc[3]} > {limit}",
        f"Which {nb} have a {bc[3]} above {limit}?",
        "SELECT t1.c1", "FROM t1", "SELECT FROM WHERE")
    limit = int(cost[len(cost) // 3])
    add(f"SELECT {cc[1]}, {cc[3]} FROM {c} WHERE {cc[3]} > {limit} "
        f"ORDER BY {cc[3]}",
        f"List {nc} costing more than {limit}, cheapest first.",
        "SELECT t2.c1, t2.c3", "FROM t2", "SELECT FROM WHERE ORDER BY")
    add(f"SELECT T2.{bc[1]}, COUNT(*) FROM {a} AS T1 JOIN {b} AS T2 ON "
        f"T1.{ac[5]} = T2.{bc[0]} GROUP BY T2.{bc[1]}",
        f"How many {na} does each of the {nb} have?",
        "SELECT t1.c1, COUNT(*)", "FROM t0, t1", "SELECT FROM JOIN GROUP BY")
    add(f"SELECT AVG({ac[3]}) FROM {a}",
        f"What is the average {ac[3]} of all {na}?",
        "SELECT AVG(t0.c3)", "FROM t0", "SELECT FROM")
    return golds


_OTHER_KEYWORDS = ["SELECT FROM", "SELECT FROM WHERE ORDER BY",
                   "SELECT FROM GROUP BY HAVING", "SELECT DISTINCT FROM WHERE"]


class ScriptBuilder:
    """Stub script sections.  A key must map to one response, or the
    examples sharing it would interfere; ``fits`` checks that first."""

    def __init__(self):
        self.sections = {"generate": {}, "score": {}, "complete": {}}

    def fits(self, entries):
        seen = {}
        for section, key, response in entries:
            current = self.sections[section].get(key, seen.get((section, key)))
            if current is not None and current != [response]:
                return False
            seen[(section, key)] = [response]
        return True

    def put(self, entries):
        for section, key, response in entries:
            self.sections[section][key] = [response]


def _run(conn, sql):
    """SQLite's own outcome for ``sql``: ('error', message), ('null',
    rows) or ('rows', rows), classified as the pipeline classifies."""
    try:
        rows = conn.execute(sql).fetchall()
    except sqlite3.Error as exc:
        return "error", str(exc)
    if not rows or all(v is None for row in rows for v in row):
        return "null", rows
    return "rows", rows


def _null_query(rng, tables, avoid_table):
    ti = rng.choice([i for i in range(len(tables)) if i != avoid_table])
    name, cols = tables[ti]
    return ti, f"SELECT {cols[1][0]} FROM {name} WHERE {cols[0][0]} < 0"


def _plan_example(rng, path, gold, conn, tables, text_cols, turn):
    """Completion-side plan for one example: the FROM candidates and, per
    tried FROM candidate, the completion plus follow-up responses.
    Returns None when this gold query cannot take this path.  ``turn``
    rotates the choice of wrong column or table, so each seed gets the
    same spread of calibration work."""
    pred = gold["pred"]
    sql = gold["sql"]
    if path in ("calib_column", "calib_table", "calib_database",
                "fallback") and pred is None:
        return None
    plan = {"froms": [gold["from"]], "completions": {}, "repair": None,
            "calibration": None, "final": sql, "status": "Selected",
            "correct": True, "tried": 1}
    if path == "direct":
        plan["completions"][gold["from"]] = sql
    elif path == "repair":
        # Misspell the first table name: SQLite names it in its error.
        first = re.search(r"FROM (\w+)", sql).group(1)
        broken_name = first[:-1] if len(first) > 4 else first + "x"
        broken = sql.replace(f"FROM {first}", f"FROM {broken_name}", 1)
        kind, message = _run(conn, broken)
        if kind != "error":
            return None
        plan["completions"][gold["from"]] = broken
        plan["repair"] = (repair_prompt(broken, message), sql)
    elif path in ("calib_column", "fallback"):
        value = pred["value"]
        if len(value) < 6:
            return None
        wrong = (_delete_char if path == "calib_column"
                 else _insert_char)(rng, value)
        levels = _levels(text_cols, pred["table"], pred["column"])
        if not expect_level(wrong, levels, 0, (pred["column"], value)):
            return None
        completion = sql.replace(f"'{value}'", f"'{wrong}'")
        plan["completions"][gold["from"]] = completion
        response = sql if path == "calib_column" else UNPARSEABLE_REWRITE
        plan["calibration"] = (calibration_prompt(
            completion, pred["text"], wrong, pred["column"], value), response)
    elif path == "calib_table":
        value = pred["value"]
        others = [c for ti, c, _ in text_cols
                  if ti == pred["table"] and c != pred["column"]]
        wrong_col = others[turn % len(others)]
        levels = _levels(text_cols, pred["table"], wrong_col)
        if not expect_level(value, levels, 1, (pred["column"], value)):
            return None
        qualifier = pred["text"][:-len(pred["column"])]
        wrong_text = qualifier + wrong_col
        completion = sql.replace(f"{pred['text']} = '{value}'",
                                 f"{wrong_text} = '{value}'")
        plan["completions"][gold["from"]] = completion
        plan["calibration"] = (calibration_prompt(
            completion, wrong_text, value, pred["column"], value), sql)
    elif path == "calib_database":
        value = pred["value"]
        ti = [i for i in range(len(tables)) if i != pred["table"]][turn % 2]
        name, cols = tables[ti]
        texts = [c for t, c, _ in text_cols if t == ti]
        wrong_col = texts[(turn // 2) % len(texts)]
        levels = _levels(text_cols, ti, wrong_col)
        if not expect_level(value, levels, 2, (pred["column"], value)):
            return None
        completion = (f"SELECT {cols[1][0]} FROM {name} "
                      f"WHERE {wrong_col} = '{value}'")
        plan["completions"][gold["from"]] = completion
        plan["calibration"] = (calibration_prompt(
            completion, wrong_col, value, pred["column"], value), sql)
    elif path in ("second_from", "exhausted"):
        first_ti, first_null = _null_query(rng, tables, -1)
        wrong_from = f"FROM t{first_ti}"
        if wrong_from == gold["from"]:
            return None
        plan["froms"] = [wrong_from, gold["from"]]
        plan["completions"][wrong_from] = first_null
        plan["tried"] = 2
        if path == "second_from":
            plan["completions"][gold["from"]] = sql
        else:
            _, second_null = _null_query(rng, tables, first_ti)
            plan["completions"][gold["from"]] = second_null
            plan["final"] = second_null
            plan["status"] = "Exhausted"
            plan["correct"] = False
        for completion in plan["completions"].values():
            if completion != sql and _run(conn, completion)[0] != "null":
                return None
    if _run(conn, sql)[0] != "rows":
        return None
    return plan


def _example_entries(rng, question, gold, plan, serialized, tables):
    """Stub script entries, as (section, key, response), for one example."""
    entries = []
    selects = [gold["select"],
               "SELECT " + ", ".join(f"t{i}.c1" for i in range(len(tables)))]
    keywords = [gold["keywords"],
                rng.choice([k for k in _OTHER_KEYWORDS
                            if k != gold["keywords"]])]
    rng.shuffle(selects)
    rng.shuffle(keywords)
    entries += [
        ("generate", task_input("Select", question, serialized), selects),
        ("generate", task_input("From", question, serialized), plan["froms"]),
        ("generate", task_input("Keywords", question, serialized), keywords),
    ]
    # The aligner prefers the gold pair; the others get distinct lower
    # scores so the ranking is exercised.
    lower = iter(rng.sample([0.12, 0.25, 0.33, 0.41, 0.5], 3))
    for s in selects:
        for k in keywords:
            best = s == gold["select"] and k == gold["keywords"]
            entries.append(("score", aligner_input(question, s, k),
                            0.91 if best else next(lower)))
    for from_ in plan["froms"]:
        if from_ in plan["completions"]:
            entries.append(("complete", completion_prompt(
                question, serialized, tables, gold["select"], from_,
                gold["keywords"]), plan["completions"][from_]))
    for follow_up in (plan["repair"], plan["calibration"]):
        if follow_up is not None:
            entries.append(("complete", *follow_up))
    return entries


def make_eval_dataset(rng, root: Path):
    """The Spider-layout dataset, its stub script and expected outputs."""
    builder = ScriptBuilder()
    records, examples, expected = [], [], []
    per_db = []
    for domain in DOMAINS:
        db_id = domain["db"]
        db_dir = root / "database" / db_id
        db_dir.mkdir(parents=True)
        db_path = db_dir / f"{db_id}.sqlite"
        tables, fks = _make_eval_db(rng, domain, db_path)
        records.append(_spider_record(db_id, tables, fks))
        serialized = serialize(db_id, tables, fks)
        conn = sqlite3.connect(db_path)
        text_cols = _text_columns(conn, tables)
        golds = _gold_templates(rng, conn, tables, domain)
        paths = [p for p, n in PATH_MIX for _ in range(n)] * (
            EXAMPLES_PER_DB // BLOCK)
        rng.shuffle(paths)
        orders = {path: rng.sample(golds, len(golds)) for path, _ in PATH_MIX}
        turns: dict = {}
        used_questions = set()
        db_examples = []
        for path in paths:
            for _ in range(200):
                # Each path walks its own shuffled cycle of the gold
                # queries, so every seed spreads each path evenly.
                turn = turns[path] = turns.get(path, -1) + 1
                gold = orders[path][turn % len(golds)]
                plan = _plan_example(rng, path, gold, conn, tables, text_cols,
                                     turn)
                if plan is None:
                    continue
                question = (rng.choice(PREFIXES) + gold["question"]
                            + rng.choice(SUFFIXES))
                if question in used_questions:
                    continue
                entries = _example_entries(rng, question, gold, plan,
                                           serialized, tables)
                if builder.fits(entries):
                    break
            else:
                raise RuntimeError(f"no gold query fits {path} in {db_id}")
            used_questions.add(question)
            builder.put(entries)
            db_examples.append((
                {"question": question, "db_id": db_id, "query": gold["sql"]},
                {"path": path, "predicted_sql": plan["final"],
                 "status": plan["status"], "correct": plan["correct"],
                 "sketches_tried": plan["tried"]}))
        conn.close()
        per_db.append(db_examples)
    # Interleave the databases so any prefix of the example list spans
    # all of them.
    for group in zip(*per_db):
        for example, expect in group:
            examples.append(example)
            expected.append(expect)
    (root / "tables.json").write_text(json.dumps(records, indent=1),
                                      encoding="utf-8")
    (root / "dev.json").write_text(json.dumps(examples, indent=1),
                                   encoding="utf-8")
    accuracy = sum(e["correct"] for e in expected) / len(expected)
    return builder.sections, {"examples": expected,
                              "execution_accuracy": accuracy}


# --------------------------------------------------------------------------
# Calibration database: many text columns, one value-scan-heavy workload

CAL_TABLES = ["customer", "supplier", "product", "warehouse", "carrier",
              "store", "employee", "region", "campaign", "vendor"]
CAL_ATTRS = ["name", "city", "street", "label", "note", "kind", "team",
             "code"]
# Distinct values per attribute; rows sample from these pools.
CAL_DISTINCT = [350, 60, 250, 150, 200, 12, 100, 300]
CAL_ROWS = 500


def _cal_value(attr):
    def two(rng):
        return f"{_word(rng, 2)} {_word(rng, 2)}"

    makers = {
        "name": two,
        "city": _place,
        "street": lambda rng: (f"{_word(rng, 2)} "
                               f"{rng.choice(['Road', 'Lane', 'Way', 'Row'])}"),
        "label": _label,
        "note": lambda rng: f"{_word(rng, 1)} {_word(rng, 2)} {_word(rng, 1)}",
        "kind": lambda rng: _word(rng, 2),
        "team": _title,
        "code": lambda rng: f"{_word(rng, 2)}-{rng.randint(100, 999)}",
    }
    return makers[attr]


def _cal_columns(ti):
    prefix = CAL_TABLES[ti][:3]
    return [f"{prefix}_{attr}" for attr in CAL_ATTRS]


def make_calibration_db(rng, path: Path, taken: set):
    """Create the calibration database; return {(table, column): sorted
    distinct values}."""
    content = {}
    with sqlite3.connect(path) as conn:
        for ti, table in enumerate(CAL_TABLES):
            cols = _cal_columns(ti)
            conn.execute(
                f"CREATE TABLE {table} ({table}_id INTEGER PRIMARY KEY, "
                + ", ".join(f"{c} TEXT" for c in cols) + ", qty INTEGER)")
            pools = [_unique_pool(rng, n, _cal_value(attr), taken)
                     for attr, n in zip(CAL_ATTRS, CAL_DISTINCT)]
            rows = []
            for i in range(CAL_ROWS):
                # Every pool value occurs at least once.
                rows.append([i + 1] + [pool[i] if i < len(pool)
                                       else rng.choice(pool)
                                       for pool in pools]
                            + [rng.randint(0, 500)])
            conn.executemany(
                f"INSERT INTO {table} VALUES "
                f"({', '.join('?' * (len(cols) + 2))})",
                rows)
            for col, pool in zip(cols, pools):
                content[(ti, col)] = sorted(pool)
    conn.close()
    return content


class CalContent:
    """Text content of the calibration database, by level."""

    def __init__(self, content):
        self.content = content

    def levels(self, ti, column):
        col = [(column, v) for v in self.content[(ti, column)]]
        table = [(c, v) for (t, c), vs in self.content.items() if t == ti
                 for v in vs]
        db = [(c, v) for (_, c), vs in self.content.items() for v in vs]
        return [col, table, db]


# Query shapes: predicate levels per query, with counts.  The seed picks
# tables, columns, literals and order; the shape mix is fixed.
# Column-level, table-level and database-level queries make 20%, 60% and
# 20% of the list, so that the median of op latency falls in the middle of
# the table-level queries and the p90 in the middle of the database-level
# ones, never on the edge between two kinds.
CAL_SHAPES = [
    (("column-exact",), 2),
    (("column",), 3),
    (("column", "column-exact"), 1),
    (("in",), 2),
    (("table",), 18),
    (("column", "table"), 6),
    (("database",), 8),
]
LEVEL_NAMES = {0: "COLUMN", 1: "TABLE", 2: "DATABASE"}


def _cal_predicate(rng, cal, ti, column, kind, literals_in_use):
    """One designed predicate on ``column`` of table ``ti``: the literal,
    and the expected match (column, value, level)."""
    cols = _cal_columns(ti)
    for _ in range(200):
        if kind == "column-exact":
            value = rng.choice(cal.content[(ti, column)])
            literal, level, source = value, 0, column
        elif kind == "column":
            value = rng.choice(cal.content[(ti, column)])
            if len(value) < 6:
                continue
            literal, level, source = _delete_char(rng, value), 0, column
        elif kind == "table":
            source = rng.choice([c for c in cols if c != column])
            value = rng.choice(cal.content[(ti, source)])
            literal, level = value, 1
        else:
            tj = rng.choice([t for t in range(len(CAL_TABLES)) if t != ti])
            source = rng.choice(_cal_columns(tj))
            value = rng.choice(cal.content[(tj, source)])
            literal, level = value, 2
        if literal.lower() in literals_in_use:
            continue
        if expect_level(literal, cal.levels(ti, column), level,
                        (source, value)):
            literals_in_use.add(literal.lower())
            return literal, (source, value, LEVEL_NAMES[level])
    raise RuntimeError("could not design a calibration predicate")


def _render_cal_query(table, select, preds):
    """Canonical SQL for a calibration query; ``preds`` are
    (column, operator, literals)."""
    parts = []
    for column, op, literals in preds:
        if op == "=":
            parts.append(f"{column} = '{literals[0]}'")
        elif op == "LIKE":
            parts.append(f"{column} LIKE '%{literals[0]}%'")
        else:
            parts.append(f"{column} IN ("
                         + ", ".join(f"'{v}'" for v in literals) + ")")
    return f"SELECT {select} FROM {table} WHERE " + " AND ".join(parts)


def make_calibration_queries(rng, cal, literals_in_use):
    """The static query list with expected rewrites and feedback."""
    shapes = [s for s, n in CAL_SHAPES for _ in range(n)]
    rng.shuffle(shapes)
    queries = []
    for shape in shapes:
        ti = rng.randrange(len(CAL_TABLES))
        cols = _cal_columns(ti)
        select = rng.choice(cols)
        pred_cols = rng.sample([c for c in cols if c != select], len(shape))
        preds, rewritten, feedback = [], [], []
        for column, kind in zip(pred_cols, shape):
            if kind == "in":
                lits, matches = [], []
                for _ in range(2):
                    lit, match = _cal_predicate(rng, cal, ti, column,
                                                "column", literals_in_use)
                    lits.append(lit)
                    matches.append(match)
                preds.append((column, "IN", lits))
                rewritten.append((column, "IN", [m[1] for m in matches]))
                feedback += [[column, "IN-element", lit, *m]
                             for lit, m in zip(lits, matches)]
                continue
            op = rng.choice(["=", "=", "LIKE"])
            lit, match = _cal_predicate(rng, cal, ti, column, kind,
                                        literals_in_use)
            preds.append((column, op, [lit]))
            # A cross-column match installs the bare matched column.
            rewritten.append((match[0], op, [match[1]]))
            stored = f"%{lit}%" if op == "LIKE" else lit
            feedback.append([column, op, stored, *match])
        table = CAL_TABLES[ti]
        queries.append({
            "query": _render_cal_query(table, select, preds),
            "expected_sql": _render_cal_query(table, select, rewritten),
            "feedback": feedback,
            "table": ti,
        })
    return queries


def make_churn_steps(rng, cal, queries, literals_in_use, taken):
    """Churn steps: each is a committed write followed by one query.

    Most steps re-run a static query after a neutral write (a fresh row,
    or a row's value that no query matches replaced by a fresh value);
    their expected output does not change.  Insert probes write a fresh
    value and query a misspelling of it; rename probes rewrite a value
    in place and query the old spelling, which must now match the new
    one.  Every step's expectation holds for any content between the
    generated file and the end of any number of cycles over the list.
    """
    # Column names are unique across the database, so (column, value)
    # identifies a stored value.
    protected = {(f[3], f[4]) for q in queries for f in q["feedback"]}
    literal_objs = [Literal(x) for x in literals_in_use]

    def fresh(make):
        """A new value far from every query literal."""
        while True:
            value = _unique_pool(rng, 1, make, taken)[0]
            if all(lit.score(value) < FRESH_MAX for lit in literal_objs):
                return value

    final = {k: list(v) for k, v in cal.content.items()}
    steps = []
    plan = ["static"] * len(queries) + ["insert_probe"] * 10 + \
        ["rename_probe"] * 6
    rng.shuffle(plan)
    static_order = list(range(len(queries)))
    rng.shuffle(static_order)
    probes = []
    for kind in plan:
        ti = rng.randrange(len(CAL_TABLES))
        table = CAL_TABLES[ti]
        cols = _cal_columns(ti)
        if kind == "static":
            if rng.random() < 0.6:
                values = [fresh(_cal_value(a)) for a in CAL_ATTRS]
                write = {"sql": f"INSERT INTO {table} ({', '.join(cols)}, qty) "
                                f"VALUES ({', '.join('?' * len(cols))}, ?)",
                         "params": values + [rng.randint(0, 500)]}
                for col, v in zip(cols, values):
                    final[(ti, col)].append(v)
            else:
                ci = rng.randrange(len(cols))
                col = cols[ci]
                old = rng.choice([v for v in cal.content[(ti, col)]
                                  if (col, v) not in protected])
                new = fresh(_cal_value(CAL_ATTRS[ci]))
                write = {"sql": f"UPDATE {table} SET {col} = ? WHERE {col} = ?",
                         "params": [new, old]}
                protected.add((col, old))
                final[(ti, col)].append(new)
            query = queries[static_order.pop()]
            steps.append({"kind": kind, "write": write, "query": query["query"],
                          "expected_sql": query["expected_sql"],
                          "feedback": query["feedback"]})
            continue
        ci = rng.choice([0, 1, 2, 3, 4, 6, 7])
        col = cols[ci]
        select = rng.choice([c for c in cols if c != col])
        if kind == "insert_probe":
            value = fresh(_cal_value(CAL_ATTRS[ci]))
            while len(value) < 8:
                value = fresh(_cal_value(CAL_ATTRS[ci]))
            literal = _delete_char(rng, value)
            row = [fresh(_cal_value(a)) if c != col else value
                   for a, c in zip(CAL_ATTRS, cols)]
            write = {"sql": f"INSERT INTO {table} ({', '.join(cols)}, qty) "
                            f"VALUES ({', '.join('?' * len(cols))}, ?)",
                     "params": row + [rng.randint(0, 500)]}
            for c, v in zip(cols, row):
                final[(ti, c)].append(v)
            old_spelling = None
        else:
            candidates = [v for v in cal.content[(ti, col)]
                          if (col, v) not in protected and len(v) >= 6]
            while True:
                old = rng.choice(candidates)
                value = _insert_char(rng, old)
                if value.lower() not in taken and all(
                        lit.score(value) < FRESH_MAX for lit in literal_objs):
                    break
            protected.add((col, old))
            taken.add(value.lower())
            literal = old
            write = {"sql": f"UPDATE {table} SET {col} = ? WHERE {col} = ?",
                     "params": [value, old]}
            final[(ti, col)].append(value)
            old_spelling = old
        literals_in_use.add(literal.lower())
        literal_objs.append(Literal(literal))
        probes.append((ti, col, literal, value, old_spelling))
        steps.append({"kind": kind, "write": write,
                      "query": f"SELECT {select} FROM {table} "
                               f"WHERE {col} = '{literal}'",
                      "expected_sql": f"SELECT {select} FROM {table} "
                                      f"WHERE {col} = '{value}'",
                      "feedback": [[col, "=", literal, col, value, "COLUMN"]]})
    # Every probe must resolve on its column against the final content
    # (renamed values gone), whatever else the other steps wrote.
    for ti, col, literal, value, old in probes:
        column_values = [(col, v) for v in final[(ti, col)]
                         if v != old and not any(
                             p[4] == v and p[0] == ti and p[1] == col
                             for p in probes)]
        lit = Literal(literal)
        score, best, second = lit.best(column_values)
        if best != (col, value) or score < RESOLVE_MIN or \
                second > score - MARGIN:
            raise RuntimeError("churn probe does not resolve uniquely")
    return steps


# --------------------------------------------------------------------------

def generate(seed: int, out: Path) -> None:
    rng = random.Random(seed)
    tmp = out.with_name(out.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    (tmp / "dataset").mkdir(parents=True)
    script, expected = make_eval_dataset(rng, tmp / "dataset")
    (tmp / "script.json").write_text(json.dumps(script), encoding="utf-8")
    (tmp / "expected.json").write_text(json.dumps(expected), encoding="utf-8")

    taken: set = set()
    content = make_calibration_db(rng, tmp / "calib.sqlite", taken)
    cal = CalContent(content)
    literals: set = set()
    queries = make_calibration_queries(rng, cal, literals)
    steps = make_churn_steps(rng, cal, queries, literals, taken)
    (tmp / "calib.json").write_text(json.dumps(
        {"queries": queries, "churn": steps}, indent=1), encoding="utf-8")
    (tmp / "VERSION").write_text(str(GEN_VERSION), encoding="utf-8")
    if out.exists():
        shutil.rmtree(out)
    os.replace(tmp, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
