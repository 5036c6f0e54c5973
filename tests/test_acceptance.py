"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line and enforces a
wall-clock budget, so a bare test run doubles as a checklist.
"""

import json
import random
import string
import time
from contextlib import contextmanager

from helpers import (
    CAR_1_SERIALIZED_PREFIX,
    SCHOOL_BAD_SQL,
    SCHOOL_GOLD_SQL,
    SCHOOL_QUESTION,
    SCHOOL_RECORD,
    car1_schema,
    make_benchmark_dataset,
    make_school_db,
    make_toy_db,
    oracle_multi_level,
    random_query,
    similarity_oracle,
    stadium_schema,
)

from sketchsql.benchmark import build_gold_echo_script, evaluate, load_dataset
from sketchsql.calibration import (
    CharacterFuzzy,
    MatchLevel,
    MatchResult,
    fuzzy_similarity,
    multi_level_match,
)
from sketchsql.cli import main
from sketchsql.execution import Database, ResultSet, results_equal
from sketchsql.gateway import StubScript, clients_from_script
from sketchsql.schema import (
    schema_from_spider_record,
    serialize_schema,
    translate_indexed_text,
)
from sketchsql.selection import (
    SelectionConfig,
    calibration_prompt,
    completion_prompt,
    repair_prompt,
    select_query,
)
from sketchsql.sketches import (
    INSTRUCTIONS,
    PART_FROM,
    PART_KEYWORDS,
    PART_SELECT,
    SketchPart,
    SqlSketch,
    build_task_input,
    derive_aligner_records,
    derive_training_records,
    extract_sketch_from_sql,
)
from sketchsql.sql_analysis import ColumnRef, Predicate, parse_sql


@contextmanager
def criterion(number: int, description: str, budget: float):
    started = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - started
        assert elapsed < budget, \
            f"took {elapsed:.2f}s, budget {budget:.0f}s"
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def sketch(select, fr, keywords, rank=0):
    return SqlSketch(SketchPart(PART_SELECT, select),
                     SketchPart(PART_FROM, fr),
                     SketchPart(PART_KEYWORDS, keywords), rank)


def test_acceptance_1_similarity():
    with criterion(1, "string similarity matches the reference DP on 1000 "
                      "random pairs plus pinned values", 5.0):
        rng = random.Random(20260815)
        for _ in range(1000):
            a = "".join(rng.choice(string.ascii_lowercase)
                        for _ in range(rng.randint(1, 20)))
            b = "".join(rng.choice(string.ascii_lowercase)
                        for _ in range(rng.randint(1, 20)))
            assert fuzzy_similarity(a, b) == similarity_oracle(a, b), (a, b)
        assert fuzzy_similarity("timmy", "timmothy") == 0.4
        assert fuzzy_similarity("hi", "hawaii") == 0.0
        assert fuzzy_similarity("wards", "ward") == 0.75


def test_acceptance_2_serialization():
    with criterion(2, "car_1 schema serializes byte-for-byte, foreign-key "
                      "fragment placed after its source table", 1.0):
        text = serialize_schema(car1_schema())
        assert text.startswith(CAR_1_SERIALIZED_PREFIX)
        assert text.index("t4: cars_data") < text.index("t4.c0 = t2.c0") \
            < text.index("t5: car_makers")


def test_acceptance_3_index_translation():
    with criterion(3, "index tokens translate to qualified names and "
                      "round-trip over 500 random draws", 2.0):
        stadium = stadium_schema()
        assert translate_indexed_text(stadium, "SELECT t0.c2") == \
            "SELECT stadium.highest"
        schemas = [stadium, car1_schema(),
                   schema_from_spider_record(SCHOOL_RECORD)]
        rng = random.Random(3)
        for _ in range(500):
            schema = rng.choice(schemas)
            ti = rng.randrange(len(schema.tables))
            table = schema.tables[ti]
            ci = rng.randrange(len(table.columns))
            named = translate_indexed_text(
                schema, f"SELECT t{ti}.c{ci} FROM t{ti}")
            assert named == (f"SELECT {table.name}.{table.columns[ci].name} "
                             f"FROM {table.name}")
            assert schema.table_index(table.name) == ti
            assert table.column_index(table.columns[ci].name) == ci


def test_acceptance_4_matching_oracle(tmp_path):
    with criterion(4, "multi-level value matching equals a brute-force "
                      "oracle on 100 random databases", 30.0):
        rng = random.Random(41)
        for case in range(100):
            db = make_toy_db(tmp_path / f"toy{case}.sqlite", rng)
            for _ in range(2):
                sql = random_query(db.schema, rng)
                r = rng.choice([0.3, 0.65, 0.9])
                feedback = multi_level_match(db, parse_sql(sql), r,
                                             CharacterFuzzy())
                assert list(feedback.replacements) == \
                    oracle_multi_level(db.schema, db.path, sql, r), (sql, r)

        school = Database(make_school_db(tmp_path / "school.sqlite"))
        query = parse_sql("SELECT course FROM Student "
                          "WHERE given_name = 'wards'")
        (_, match), = multi_level_match(school, query, 0.65,
                                        CharacterFuzzy()).replacements
        assert (match.column, match.value, match.score) == \
            ("last_name", "ward", 0.75)


def test_acceptance_5_execution_guided_selection(tmp_path):
    with criterion(5, "selection retries a failing completion exactly up to "
                      "patience, then advances; all-null runs report "
                      "Exhausted", 5.0):
        db = Database(make_school_db(tmp_path / "school.sqlite"))
        schema = db.schema
        sk1 = sketch("SELECT t1.c0", "FROM t1", "SELECT FROM", rank=0)
        sk2 = sketch("SELECT t1.c3", "FROM t1",
                     "SELECT FROM WHERE ORDER BY LIMIT", rank=1)
        bad1, bad2 = "SELECT ghost FROM Student", "SELECT ghost2 FROM Student"
        message = db.execute(bad1).message
        script = StubScript({"complete": {
            completion_prompt("Q?", schema, sk1): [bad1],
            repair_prompt(bad1, message): [bad2],
            completion_prompt("Q?", schema, sk2): [SCHOOL_GOLD_SQL],
        }})
        config = SelectionConfig(script, patience=1)
        final, trace = select_query("Q?", schema, db, [sk1, sk2], config)
        assert final == SCHOOL_GOLD_SQL and trace.status == "Selected"
        first, second = trace.sketches
        assert len(first.executions) == 2 and first.rewrites == 1
        assert first.status == "no_executable"
        assert second.status == "selected"

        null_sql = "SELECT course FROM Student WHERE score = 999"
        script = StubScript({"complete": {
            completion_prompt("Q?", schema, sk1): [null_sql],
        }})
        final, trace = select_query("Q?", schema, db, [sk1],
                                    SelectionConfig(script))
        assert trace.status == "Exhausted" and final == null_sql


def test_acceptance_6_value_calibration_end_to_end(tmp_path):
    with criterion(6, "a question with misspelled entity values comes back "
                      "as SQL carrying the database's spellings", 5.0):
        db = Database(make_school_db(tmp_path / "school.sqlite"))
        schema = db.schema
        gold_sketch = extract_sketch_from_sql(SCHOOL_GOLD_SQL, schema)
        generate = {
            build_task_input(INSTRUCTIONS[part.kind], SCHOOL_QUESTION, schema):
                [[part.content]]
            for part in (gold_sketch.select_part, gold_sketch.from_part,
                         gold_sketch.keywords_part)
        }
        feedback_pairs = [
            (Predicate(ColumnRef(None, "given_name"), "=", "timmothy"),
             MatchResult("given_name", "timmy", 0.4, MatchLevel.COLUMN,
                         below_threshold=True)),
            (Predicate(ColumnRef(None, "last_name"), "=", "wards"),
             MatchResult("last_name", "ward", 0.75, MatchLevel.COLUMN)),
        ]
        script = StubScript({
            "generate": generate,
            "score": {"*": [0.9]},
            "complete": {
                completion_prompt(SCHOOL_QUESTION, schema, gold_sketch):
                    [SCHOOL_BAD_SQL],
                calibration_prompt(SCHOOL_BAD_SQL, feedback_pairs):
                    [SCHOOL_GOLD_SQL],
            },
        })
        clients = clients_from_script(script)
        from sketchsql.benchmark import translate_question
        final, trace = translate_question(
            SCHOOL_QUESTION, schema, db, clients["sketch"], clients["aligner"],
            SelectionConfig(clients["completer"]))
        assert final == SCHOOL_GOLD_SQL
        assert trace.status == "Selected"
        replaced = {(c["value"], c["match_value"])
                    for c in trace.sketches[0].calibration}
        assert replaced == {("timmothy", "timmy"), ("wards", "ward")}
        assert db.execute(final).result == ResultSet(1, (("math",),))


def test_acceptance_7_execution_accuracy(tmp_path):
    with criterion(7, "gold-vs-gold execution accuracy is 1.0 over 20 "
                      "examples; ordering and float tolerance respected", 5.0):
        root = make_benchmark_dataset(tmp_path / "bench", 20)
        bundle = load_dataset(root)
        clients = clients_from_script(
            StubScript(build_gold_echo_script(bundle)))
        from sketchsql.benchmark import EvalConfig
        report = evaluate(EvalConfig(
            selection=SelectionConfig(clients["completer"]),
            provider=clients["sketch"], aligner=clients["aligner"],
            record_latency=False), bundle)
        assert report.total == 20 and report.execution_accuracy == 1.0
        assert report.status_counts == {"Selected": 20}

        assert results_equal(ResultSet(1, ((0.30000001,),)),
                             ResultSet(1, ((0.3,),)))
        a = ResultSet(1, ((1,), (2,)))
        b = ResultSet(1, ((2,), (1,)))
        assert results_equal(a, b)
        assert not results_equal(a, b, order_sensitive=True)

        # a prediction equal up to row order scores only without ORDER BY
        db = Database(root / "database" / "school" / "school.sqlite")
        ordered = db.execute("SELECT given_name FROM Student ORDER BY id")
        reversed_ = db.execute(
            "SELECT given_name FROM Student ORDER BY id DESC")
        assert results_equal(reversed_.result, ordered.result)
        assert not results_equal(reversed_.result, ordered.result,
                                 order_sensitive=True)


def test_acceptance_8_training_record_derivation(tmp_path):
    with criterion(8, "training-record derivation: 3 records per example, "
                      "aligner labels 1 only on exact part matches, 7000 "
                      "examples within budget", 60.0):
        root = make_benchmark_dataset(tmp_path / "bench", 10)
        bundle = load_dataset(root)
        dataset = [(ex.question, bundle.schemas[ex.db_id], ex.gold_sql)
                   for ex in bundle.examples]
        records, _, diagnostics = derive_training_records(dataset)
        assert len(records) == 30 and diagnostics == []
        assert [r.subtask for r in records[:3]] == \
            ["Select", "From", "Keywords"]

        schema = bundle.schemas["school"]
        gold = extract_sketch_from_sql(bundle.examples[2].gold_sql, schema)
        wrong_kw = SketchPart(PART_KEYWORDS, "SELECT FROM")
        wrong_sel = SketchPart(PART_SELECT, "SELECT t1.c0")
        case_variant = SketchPart(PART_SELECT,
                                  gold.select_part.content.upper())
        pairs = [(gold.select_part, gold.keywords_part),
                 (gold.select_part, wrong_kw),
                 (wrong_sel, gold.keywords_part),
                 (case_variant, gold.keywords_part)]
        labels = [r.label for r in derive_aligner_records(
            "q", pairs, gold.select_part.content, gold.keywords_part.content)]
        assert labels == [1, 0, 0, 1]

        golds = ["SELECT score FROM Student WHERE id = 3",
                 "SELECT count(*) FROM Student",
                 "SELECT course FROM Student WHERE given_name = 'timmy'",
                 "SELECT given_name FROM Student ORDER BY score DESC"]
        big = [(f"case {i}", schema, golds[i % 4]) for i in range(7000)]
        records, _, diagnostics = derive_training_records(big)
        assert len(records) == 21000 and diagnostics == []


def test_acceptance_9_reproducible_evaluation(tmp_path):
    with criterion(9, "two identical stub evaluations over 50 examples emit "
                      "byte-identical reports and traces", 60.0):
        root = make_benchmark_dataset(tmp_path / "bench", 50)
        bundle = load_dataset(root)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(build_gold_echo_script(bundle)),
                          encoding="utf-8")
        artifacts = []
        for run in ("one", "two"):
            report = tmp_path / f"report_{run}.json"
            traces = tmp_path / f"traces_{run}.json"
            code = main(["evaluate", "--dataset", str(root),
                         "--stub-script", str(script),
                         "--workers", "2", "--no-latency",
                         "--output", str(report), "--trace", str(traces)])
            assert code == 0
            artifacts.append((report.read_bytes(), traces.read_bytes()))
        assert artifacts[0] == artifacts[1]
        report = json.loads(artifacts[0][0])
        assert report["total"] == 50 and report["execution_accuracy"] == 1.0
