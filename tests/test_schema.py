import json
import random
import sqlite3

import pytest
from hypothesis import given, strategies as st

from helpers import CAR_1_RECORD, CAR_1_SERIALIZED_PREFIX, make_school_db

from sketchsql.errors import IndexResolutionError, SchemaLoadError
from sketchsql.schema import (
    ColumnDef,
    DatabaseSchema,
    ForeignKeyDef,
    TableDef,
    load_schema_file,
    resolve_index,
    schema_from_spider_record,
    schema_from_sqlite,
    serialize_schema,
    translate_indexed_text,
)


def test_car1_serialization_prefix(car1):
    assert serialize_schema(car1).startswith(CAR_1_SERIALIZED_PREFIX)


def test_car1_foreign_key_after_owning_table(car1):
    text = serialize_schema(car1)
    fragment = text.index("t4.c0 = t2.c0")
    assert text.index("t4: cars_data") < fragment
    assert fragment < text.index("t5: car_makers")


def test_school_serialization_golden(school_schema):
    assert serialize_schema(school_schema) == (
        "school: t0: Course (c0: id, c1: course, c2: teacher) "
        "t1: Student (c0: id, c1: given_name, c2: last_name, "
        "c3: course, c4: score)"
    )


def test_car1_serialization_golden(car1):
    assert serialize_schema(car1) == (
        "car_1: t0: model_list (c0: modelid, c1: maker, c2: model) "
        "t1: continents (c0: contid, c1: continent) "
        "t2: car_names (c0: makeid, c1: model, c2: make) "
        "t3: countries (c0: countryid, c1: countryname, c2: continent) "
        "t4: cars_data (c0: id, c1: mpg, c2: cylinders, c3: edispl, "
        "c4: horsepower, c5: weight, c6: accelerate, c7: year) "
        "t4.c0 = t2.c0 "
        "t5: car_makers (c0: id, c1: maker, c2: fullname, c3: country)"
    )


def _shop_schema():
    return DatabaseSchema(
        "shop",
        [TableDef("orders", [ColumnDef("oid", "integer"),
                             ColumnDef("cid", "integer"),
                             ColumnDef("pid", "integer")]),
         TableDef("customer", [ColumnDef("cid", "integer"),
                               ColumnDef("name", "text")]),
         TableDef("product", [ColumnDef("pid", "integer")])],
        [ForeignKeyDef(0, 1, 1, 0), ForeignKeyDef(0, 2, 2, 0),
         ForeignKeyDef(2, 0, 0, 2)])


def test_foreign_keys_serialization_golden():
    text = ("shop: t0: orders (c0: oid, c1: cid, c2: pid) "
            "t0.c1 = t1.c0 t0.c2 = t2.c0 "
            "t1: customer (c0: cid, c1: name) "
            "t2: product (c0: pid) t2.c0 = t0.c2")
    schema = _shop_schema()
    assert serialize_schema(schema) == text
    assert serialize_schema(schema) == text  # the kept rendering


def test_serialized_schema_stays_equal_to_unserialized_twin():
    rendered, twin = _shop_schema(), _shop_schema()
    serialize_schema(rendered)
    assert rendered == twin and hash(rendered) == hash(twin)
    assert repr(rendered) == repr(twin)
    assert {rendered: 1}[twin] == 1


def test_stadium_index_translation(stadium):
    assert translate_indexed_text(stadium, "SELECT t0.c2") == "SELECT stadium.highest"


def test_translate_table_only_token(stadium):
    assert translate_indexed_text(stadium, "FROM t0, t1") == "FROM stadium, singer"


def test_translate_preserves_surrounding_text(stadium):
    out = translate_indexed_text(stadium, "SELECT t0.c1, count(*) FROM t0 -- t0.c2")
    assert out == "SELECT stadium.name, count(*) FROM stadium -- stadium.highest"


@pytest.mark.parametrize("text", ["att0", "t0x", "st0.c1", "tt0", "c2"])
def test_translate_ignores_non_tokens(stadium, text):
    assert translate_indexed_text(stadium, text) == text


def test_translate_backtracks_to_table_token(stadium):
    # ``.c1x`` is not a column token, but the table part still is one.
    assert translate_indexed_text(stadium, "t0.c1x") == "stadium.c1x"


def test_translate_out_of_range_token(stadium):
    with pytest.raises(IndexResolutionError) as err:
        translate_indexed_text(stadium, "SELECT t9.c0")
    assert "t9" in str(err.value)
    with pytest.raises(IndexResolutionError):
        translate_indexed_text(stadium, "SELECT t0.c99")


def test_resolve_index_bounds(stadium):
    assert resolve_index(stadium, 0, 2) == "stadium.highest"
    assert resolve_index(stadium, 1) == "singer"
    with pytest.raises(IndexResolutionError):
        resolve_index(stadium, 2)
    with pytest.raises(IndexResolutionError):
        resolve_index(stadium, 0, 5)


def test_resolve_translate_round_trip(car1):
    rng = random.Random(7)
    for _ in range(500):
        ti = rng.randrange(len(car1.tables))
        if rng.random() < 0.5:
            token, ref = f"t{ti}", (ti,)
        else:
            ci = rng.randrange(len(car1.tables[ti].columns))
            token, ref = f"t{ti}.c{ci}", (ti, ci)
        assert translate_indexed_text(car1, token) == resolve_index(car1, *ref)


def test_spider_record_skips_star_and_decodes_foreign_keys(car1):
    assert [t.name for t in car1.tables][0] == "model_list"
    assert [c.name for c in car1.tables[0].columns] == ["modelid", "maker", "model"]
    assert car1.foreign_keys == (ForeignKeyDef(4, 0, 2, 0),)


def test_spider_record_missing_field():
    with pytest.raises(SchemaLoadError):
        schema_from_spider_record({"db_id": "x"})


def test_spider_record_bad_foreign_key():
    record = dict(CAR_1_RECORD, foreign_keys=[[0, 6]])  # 0 is the star column
    with pytest.raises(SchemaLoadError):
        schema_from_spider_record(record)


def test_spider_record_rejects_string_column_types():
    # A string would otherwise be read one character per column.
    with pytest.raises(SchemaLoadError,
                       match="field 'column_types' must be a list, not str"):
        schema_from_spider_record(dict(CAR_1_RECORD, column_types="text"))


def test_schema_validation_rejects_duplicates():
    with pytest.raises(SchemaLoadError):
        DatabaseSchema("d", [TableDef("t", [ColumnDef("a"), ColumnDef("A")])])


def test_schema_validation_rejects_bad_fk_target():
    with pytest.raises(SchemaLoadError):
        DatabaseSchema("d", [TableDef("t", [ColumnDef("a")])],
                       [ForeignKeyDef(0, 0, 1, 0)])


def test_schema_lookups_are_case_insensitive(school_schema):
    assert school_schema.table_index("STUDENT") == 1
    assert school_schema.tables[1].column_index("Given_Name") == 1
    assert school_schema.table_index("missing") is None


def test_schema_lookups_take_the_first_of_equal_names():
    tables = [TableDef("Pets", [ColumnDef("a")]),
              TableDef("pets", [ColumnDef("b"), ColumnDef("B2")]),
              TableDef("PETS", [ColumnDef("c")])]
    schema = DatabaseSchema("d", tables)
    untouched = DatabaseSchema("d", tables)
    assert [schema.table_index(n) for n in ("pets", "PETS", "pEtS")] == [0] * 3
    assert schema.tables[1].column_index("b2") == 1
    assert schema.tables[1].column_index("a") is None
    # The lookups are kept off the fields: equality and hashing ignore them.
    assert schema == untouched and hash(schema) == hash(untouched)
    assert schema.tables[1] == TableDef("pets",
                                        [ColumnDef("b"), ColumnDef("B2")])


def test_schema_from_sqlite_types_and_order(school_schema):
    assert [t.name for t in school_schema.tables] == ["Course", "Student"]
    student = school_schema.tables[1]
    assert [c.declared_type for c in student.columns] == [
        "integer", "text", "text", "text", "integer"]


def test_schema_from_sqlite_foreign_keys(tmp_path):
    path = tmp_path / "fk.sqlite"
    with sqlite3.connect(path) as conn:
        conn.executescript("""
            CREATE TABLE parent (pid INTEGER PRIMARY KEY, label TEXT);
            CREATE TABLE child (cid INTEGER PRIMARY KEY,
                                pid INTEGER REFERENCES parent(pid));
        """)
    schema = schema_from_sqlite(path)
    assert schema.foreign_keys == (ForeignKeyDef(1, 1, 0, 0),)
    assert "t1.c1 = t0.c0" in serialize_schema(schema)


def test_schema_from_sqlite_foreign_key_targets(tmp_path, caplog):
    """An implicit target resolves to the parent's single-column primary
    key whatever the spelling of its name; a composite or missing target
    is skipped with a warning."""
    path = tmp_path / "fk.sqlite"
    with sqlite3.connect(path) as conn:
        conn.executescript("""
            CREATE TABLE Parent (id INTEGER PRIMARY KEY, label TEXT);
            CREATE TABLE pair (a INTEGER, b INTEGER, PRIMARY KEY (a, b));
            CREATE TABLE child (id INTEGER PRIMARY KEY,
                                p INTEGER REFERENCES parent,
                                q INTEGER REFERENCES pair,
                                g INTEGER REFERENCES ghost(id),
                                l TEXT REFERENCES PARENT(label));
        """)
    with caplog.at_level("WARNING", logger="sketchsql.schema"):
        schema = schema_from_sqlite(path)
    assert schema.foreign_keys == (ForeignKeyDef(2, 4, 0, 1),
                                   ForeignKeyDef(2, 1, 0, 0))
    assert sorted(r.getMessage() for r in caplog.records) == [
        "skipping foreign key with unresolvable target pair.None",
        "skipping unresolvable foreign key child.g -> ghost.id",
    ]


def test_schema_from_sqlite_missing_file(tmp_path):
    from sketchsql.errors import DatabaseAccessError
    with pytest.raises(DatabaseAccessError):
        schema_from_sqlite(tmp_path / "absent.sqlite")


def test_schema_from_sqlite_path_with_url_characters(tmp_path):
    from sketchsql.execution import Database
    folder = tmp_path / "odd #1 ?mode=rw %41"
    folder.mkdir()
    path = make_school_db(folder / "school.sqlite")
    schema = schema_from_sqlite(path)
    assert [t.name for t in schema.tables] == ["Course", "Student"]
    db = Database(path)
    assert db.schema == schema
    assert db.distinct_text_values("Student", "given_name", 10) == \
        [b"timmy", b"wardle"]
    db.close()


def test_load_schema_file(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([CAR_1_RECORD]), encoding="utf-8")
    schemas = load_schema_file(path)
    assert set(schemas) == {"car_1"}
    with pytest.raises(SchemaLoadError):
        load_schema_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(SchemaLoadError):
        load_schema_file(bad)


def test_load_schema_file_rejects_a_repeated_db_id(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([CAR_1_RECORD, CAR_1_RECORD]), encoding="utf-8")
    with pytest.raises(SchemaLoadError, match="db_id 'car_1' more than once"):
        load_schema_file(path)


_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)


@st.composite
def _schemas(draw):
    n_tables = draw(st.integers(1, 4))
    tables = []
    for i in range(n_tables):
        n_cols = draw(st.integers(1, 4))
        cols = []
        seen = set()
        for j in range(n_cols):
            name = draw(_names.filter(lambda s: s.lower() not in seen))
            seen.add(name.lower())
            cols.append(ColumnDef(name, draw(st.sampled_from(
                ("text", "integer", "real", "other")))))
        tables.append(TableDef(f"tbl{i}_{draw(_names)}", cols))
    return DatabaseSchema(draw(_names), tables)


@given(_schemas(), st.data())
def test_translation_matches_resolution_everywhere(schema, data):
    ti = data.draw(st.integers(0, len(schema.tables) - 1))
    table = schema.tables[ti]
    ci = data.draw(st.one_of(st.none(),
                             st.integers(0, len(table.columns) - 1)))
    token = f"t{ti}" if ci is None else f"t{ti}.c{ci}"
    assert translate_indexed_text(schema, token) == \
        resolve_index(schema, ti, ci)


@given(_schemas())
def test_serialization_mentions_every_table_and_column(schema):
    text = serialize_schema(schema)
    for ti, table in enumerate(schema.tables):
        assert f"t{ti}: {table.name} (" in text
        for ci, col in enumerate(table.columns):
            assert f"c{ci}: {col.name}" in text
