"""Database schema model, index-token serialization, and index translation.

A schema is rendered for model consumption as a single line of text in which
every table and column is numbered::

    car_1: t0: model_list (c0: modelid, c1: maker, c2: model) t1: continents (c0: contid, c1: continent) ...

Models then refer to tables/columns by index tokens (``t1``, ``t0.c2``)
instead of copying names, and :func:`translate_indexed_text` maps those
tokens back to real names.  Foreign keys are rendered as ``t<a>.c<b> =
t<c>.c<d>`` fragments appended directly after their owning (from-side)
table.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sqlite3
import urllib.parse
from contextlib import closing
from dataclasses import dataclass, field

from .errors import DatabaseAccessError, IndexResolutionError, SchemaLoadError

log = logging.getLogger(__name__)

#: Normalized column types.  Calibration only needs to know which columns
#: hold text, so everything else collapses into a coarse bucket.
COLUMN_TYPES = ("text", "integer", "real", "other")


@dataclass(frozen=True)
class ColumnDef:
    name: str
    declared_type: str = "other"


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]

    def __init__(self, name: str, columns):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", tuple(columns))

    def column_index(self, name: str) -> int | None:
        """Case-insensitive column lookup; returns None when absent."""
        wanted = name.lower()
        for j, col in enumerate(self.columns):
            if col.name.lower() == wanted:
                return j
        return None


@dataclass(frozen=True)
class ForeignKeyDef:
    from_table: int
    from_column: int
    to_table: int
    to_column: int


@dataclass(frozen=True)
class IndexRef:
    table_index: int
    column_index: int | None = None


@dataclass(frozen=True)
class DatabaseSchema:
    db_name: str
    tables: tuple[TableDef, ...]
    foreign_keys: tuple[ForeignKeyDef, ...] = field(default_factory=tuple)

    def __init__(self, db_name, tables, foreign_keys=()):
        object.__setattr__(self, "db_name", db_name)
        object.__setattr__(self, "tables", tuple(tables))
        object.__setattr__(self, "foreign_keys", tuple(foreign_keys))
        self.validate()

    def validate(self) -> None:
        if not self.db_name:
            raise SchemaLoadError("schema has an empty database name")
        if not self.tables:
            raise SchemaLoadError(f"schema {self.db_name!r} has no tables")
        for ti, table in enumerate(self.tables):
            if not table.name:
                raise SchemaLoadError(f"table {ti} of {self.db_name!r} has an empty name")
            if not table.columns:
                raise SchemaLoadError(f"table {table.name!r} has no columns")
            seen = set()
            for col in table.columns:
                if not col.name:
                    raise SchemaLoadError(f"table {table.name!r} has an unnamed column")
                if col.declared_type not in COLUMN_TYPES:
                    raise SchemaLoadError(
                        f"column {table.name}.{col.name} has unsupported type "
                        f"{col.declared_type!r}"
                    )
                key = col.name.lower()
                if key in seen:
                    raise SchemaLoadError(
                        f"table {table.name!r} declares column {col.name!r} twice"
                    )
                seen.add(key)
        for fk in self.foreign_keys:
            for ti, ci in ((fk.from_table, fk.from_column), (fk.to_table, fk.to_column)):
                if not (0 <= ti < len(self.tables)):
                    raise SchemaLoadError(f"foreign key references table index {ti}, out of range")
                if not (0 <= ci < len(self.tables[ti].columns)):
                    raise SchemaLoadError(
                        f"foreign key references column index {ci} of table "
                        f"{self.tables[ti].name!r}, out of range"
                    )
            if (fk.from_table, fk.from_column) == (fk.to_table, fk.to_column):
                raise SchemaLoadError("foreign key links a column to itself")

    def table_index(self, name: str) -> int | None:
        """Case-insensitive table lookup; returns None when absent."""
        wanted = name.lower()
        for i, table in enumerate(self.tables):
            if table.name.lower() == wanted:
                return i
        return None


def serialize_schema(schema: DatabaseSchema) -> str:
    """Render the schema as the canonical index-token text line.

    Index tokens are lowercase ``t``/``c`` with no leading zeros.  Foreign
    keys are emitted in declaration order, each attached right after its
    from-side table.
    """
    schema.validate()
    fks_by_table: dict[int, list[ForeignKeyDef]] = {}
    for fk in schema.foreign_keys:
        fks_by_table.setdefault(fk.from_table, []).append(fk)

    parts = [f"{schema.db_name}:"]
    for ti, table in enumerate(schema.tables):
        cols = ", ".join(f"c{ci}: {col.name}" for ci, col in enumerate(table.columns))
        parts.append(f"t{ti}: {table.name} ({cols})")
        for fk in fks_by_table.get(ti, ()):
            parts.append(
                f"t{fk.from_table}.c{fk.from_column} = t{fk.to_table}.c{fk.to_column}"
            )
    return " ".join(parts)


def resolve_index(schema: DatabaseSchema, ref: IndexRef) -> str:
    """Map an index reference to ``table`` or ``table.column`` text."""
    if not (0 <= ref.table_index < len(schema.tables)):
        raise IndexResolutionError(
            f"table index t{ref.table_index} out of range "
            f"(schema {schema.db_name!r} has {len(schema.tables)} tables)"
        )
    table = schema.tables[ref.table_index]
    if ref.column_index is None:
        return table.name
    if not (0 <= ref.column_index < len(table.columns)):
        raise IndexResolutionError(
            f"column index c{ref.column_index} out of range "
            f"(table {table.name!r} has {len(table.columns)} columns)"
        )
    return f"{table.name}.{table.columns[ref.column_index].name}"


# Longest-match index tokens: `t3.c1` is one token, never `t3` plus `.c1`.
_INDEX_TOKEN = re.compile(r"(?<![A-Za-z0-9_])t(\d+)(?:\.c(\d+))?(?![A-Za-z0-9_])")


def translate_indexed_text(schema: DatabaseSchema, sketch_text: str) -> str:
    """Replace every ``t<i>``/``t<i>.c<j>`` token with its resolved name.

    All other text is preserved byte-for-byte.  Raises
    :class:`IndexResolutionError` naming the token position when a token is
    out of range.
    """

    def _sub(match: re.Match) -> str:
        ti = int(match.group(1))
        ci = int(match.group(2)) if match.group(2) is not None else None
        try:
            return resolve_index(schema, IndexRef(ti, ci))
        except IndexResolutionError as exc:
            raise IndexResolutionError(
                f"cannot translate token {match.group(0)!r} at offset {match.start()}: {exc}"
            ) from None

    return _INDEX_TOKEN.sub(_sub, sketch_text)


def _normalize_spider_type(decl: str) -> str:
    return {
        "text": "text",
        "number": "real",
        "real": "real",
        "integer": "integer",
    }.get((decl or "").strip().lower(), "other")


def _normalize_sqlite_type(decl: str) -> str:
    """Collapse a declared SQL type using SQLite's affinity rules."""
    d = (decl or "").upper()
    if "INT" in d:
        return "integer"
    if "CHAR" in d or "CLOB" in d or "TEXT" in d:
        return "text"
    if "REAL" in d or "FLOA" in d or "DOUB" in d:
        return "real"
    return "other"


def schema_from_spider_record(record: dict) -> DatabaseSchema:
    """Build a schema from one record of a benchmark ``tables.json`` file.

    The record layout: ``db_id``, ``table_names_original``,
    ``column_names_original`` (pairs of [table index, name]; index -1 marks
    the synthetic ``*`` column, which is skipped), ``column_types``, and
    ``foreign_keys`` (pairs of global column ids, from-side first).
    """
    try:
        db_id = record["db_id"]
        table_names = record["table_names_original"]
        column_names = record["column_names_original"]
    except (KeyError, TypeError) as exc:
        raise SchemaLoadError(f"malformed schema record: missing field {exc}") from None
    column_types = record.get("column_types") or []

    columns_by_table: dict[int, list[ColumnDef]] = {i: [] for i in range(len(table_names))}
    # Global column id -> (table index, local column index), used to decode
    # the foreign_keys pairs, which count the synthetic star column.
    locals_by_global: dict[int, tuple[int, int]] = {}
    for gid, entry in enumerate(column_names):
        try:
            ti, name = entry
        except (TypeError, ValueError):
            raise SchemaLoadError(f"malformed column entry {entry!r} in {db_id!r}") from None
        if ti == -1:
            continue
        if ti not in columns_by_table:
            raise SchemaLoadError(f"column {name!r} references unknown table index {ti}")
        declared = column_types[gid] if gid < len(column_types) else "other"
        locals_by_global[gid] = (ti, len(columns_by_table[ti]))
        columns_by_table[ti].append(ColumnDef(str(name), _normalize_spider_type(declared)))

    tables = tuple(
        TableDef(str(table_names[i]), columns_by_table[i]) for i in range(len(table_names))
    )
    foreign_keys = []
    for pair in record.get("foreign_keys") or []:
        try:
            src, dst = pair
            ft, fc = locals_by_global[src]
            tt, tc = locals_by_global[dst]
        except (KeyError, TypeError, ValueError):
            raise SchemaLoadError(f"malformed foreign key {pair!r} in {db_id!r}") from None
        foreign_keys.append(ForeignKeyDef(ft, fc, tt, tc))
    return DatabaseSchema(str(db_id), tables, foreign_keys)


def connect_readonly(path: str | os.PathLike,
                     check_same_thread: bool = True) -> sqlite3.Connection:
    """Open a SQLite file read-only.

    The path is percent-quoted into the ``file:`` URI, so ``#``, ``?`` and
    ``%`` in a file or directory name are taken literally.  The connection
    may attach no database, so ``ATTACH``, ``VACUUM`` and ``VACUUM INTO``
    fail instead of creating or writing files.
    """
    uri = f"file:{urllib.parse.quote(os.fspath(path))}?mode=ro"
    conn = sqlite3.connect(uri, uri=True, check_same_thread=check_same_thread)
    conn.setlimit(sqlite3.SQLITE_LIMIT_ATTACHED, 0)
    return conn


def schema_from_sqlite(path: str | os.PathLike, db_name: str | None = None) -> DatabaseSchema:
    """Introspect a SQLite database file into a schema.

    Table order follows the catalog (creation) order; internal ``sqlite_*``
    tables are skipped.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise DatabaseAccessError(f"database file not found: {path}")
    try:
        with closing(connect_readonly(path)) as conn:
            names = [
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master "
                    "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
                )
            ]
            tables = []
            for name in names:
                info = conn.execute(f'PRAGMA table_info("{_quote(name)}")').fetchall()
                columns = [ColumnDef(row[1], _normalize_sqlite_type(row[2])) for row in info]
                if columns:
                    tables.append(TableDef(name, columns))
                else:
                    log.warning("skipping table %r with no columns", name)
            schema = DatabaseSchema(
                db_name or os.path.splitext(os.path.basename(path))[0], tables
            )
            foreign_keys = []
            for ti, table in enumerate(schema.tables):
                for row in conn.execute(f'PRAGMA foreign_key_list("{_quote(table.name)}")'):
                    ref_table, from_col, to_col = row[2], row[3], row[4]
                    tt = schema.table_index(str(ref_table))
                    fc = table.column_index(str(from_col))
                    if tt is None or fc is None:
                        log.warning(
                            "skipping unresolvable foreign key %s.%s -> %s.%s",
                            table.name, from_col, ref_table, to_col,
                        )
                        continue
                    if to_col is None:
                        # Implicit reference to the parent's primary key.
                        pk = [
                            r[1]
                            for r in conn.execute(
                                f'PRAGMA table_info("{_quote(str(ref_table))}")'
                            )
                            if r[5]
                        ]
                        to_col = pk[0] if len(pk) == 1 else None
                    tc = schema.tables[tt].column_index(str(to_col)) if to_col else None
                    if tc is None:
                        log.warning(
                            "skipping foreign key with unresolvable target %s.%s",
                            ref_table, to_col,
                        )
                        continue
                    foreign_keys.append(ForeignKeyDef(ti, fc, tt, tc))
    except sqlite3.Error as exc:
        raise DatabaseAccessError(f"cannot read database {path}: {exc}") from exc
    return DatabaseSchema(schema.db_name, schema.tables, foreign_keys)


def _quote(name: str) -> str:
    return name.replace('"', '""')


def load_schema(source) -> DatabaseSchema:
    """Load a schema from a ``tables`` record (dict) or a SQLite file path."""
    if isinstance(source, dict):
        return schema_from_spider_record(source)
    if isinstance(source, (str, os.PathLike)):
        return schema_from_sqlite(source)
    raise SchemaLoadError(f"unsupported schema source: {type(source).__name__}")


def load_schema_file(path: str | os.PathLike) -> dict[str, DatabaseSchema]:
    """Load every record of a ``tables.json`` file, keyed by database id."""
    try:
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    except OSError as exc:
        raise SchemaLoadError(f"cannot read schema file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaLoadError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise SchemaLoadError("schema file must contain a JSON array of records")
    schemas = {}
    for record in records:
        schema = schema_from_spider_record(record)
        schemas[schema.db_name] = schema
    return schemas
