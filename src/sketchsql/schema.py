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
from functools import cached_property

from .errors import (DatabaseAccessError, IndexResolutionError,
                     SchemaLoadError, SchemaMismatchError)

log = logging.getLogger(__name__)

#: Normalized column types, read only by ``serialize --json`` and record
#: validation: calibration's value scans filter on SQLite's runtime ``typeof``.
COLUMN_TYPES = ("text", "integer", "real", "other")


def _first_indices(defs) -> dict[str, int]:
    """Lowercase name -> index of the first of ``defs`` with that name."""
    indices: dict[str, int] = {}
    for i, d in enumerate(defs):
        indices.setdefault(d.name.lower(), i)
    return indices


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

    @cached_property
    def _column_indices(self) -> dict[str, int]:
        """Lowercase column name -> index of the first column so named,
        built on first use.  It is not a dataclass field, so equality and
        hashing ignore it."""
        return _first_indices(self.columns)

    def column_index(self, name: str) -> int | None:
        """Case-insensitive column lookup; returns None when absent."""
        return self._column_indices.get(name.lower())


@dataclass(frozen=True)
class ForeignKeyDef:
    from_table: int
    from_column: int
    to_table: int
    to_column: int


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

    @cached_property
    def serialized(self) -> str:
        """The :func:`serialize_schema` line, rendered on first use.  It is
        not a dataclass field, so equality and hashing ignore it."""
        fks_by_table: dict[int, list[ForeignKeyDef]] = {}
        for fk in self.foreign_keys:
            fks_by_table.setdefault(fk.from_table, []).append(fk)
        parts = [f"{self.db_name}:"]
        for ti, table in enumerate(self.tables):
            cols = ", ".join(f"c{ci}: {col.name}" for ci, col in enumerate(table.columns))
            parts.append(f"t{ti}: {table.name} ({cols})")
            for fk in fks_by_table.get(ti, ()):
                parts.append(f"t{fk.from_table}.c{fk.from_column} = "
                             f"t{fk.to_table}.c{fk.to_column}")
        return " ".join(parts)

    @cached_property
    def _table_indices(self) -> dict[str, int]:
        """Lowercase table name -> index of the first table so named, built
        on first use; not a dataclass field either."""
        return _first_indices(self.tables)

    def table_index(self, name: str) -> int | None:
        """Case-insensitive table lookup, the first of equal names winning;
        returns None when absent."""
        return self._table_indices.get(name.lower())

    def require_table(self, name: str) -> int:
        """:meth:`table_index`, raising SchemaMismatchError when absent."""
        ti = self.table_index(name)
        if ti is None:
            raise SchemaMismatchError(
                f"table {name!r} is not in schema {self.db_name!r}")
        return ti

    def resolve_column(self, qualifier: str | None, name: str, tables,
                       aliases) -> tuple[int, int]:
        """Table and column index of a query's column reference.

        A ``qualifier`` is looked up in ``aliases`` (lowercase alias or
        table name to table name); a bare ``name`` is searched across the
        query's FROM ``tables`` in appearance order.  Raises
        SchemaMismatchError when the reference does not land in the schema.
        """
        if qualifier is not None:
            ti = self.require_table(aliases.get(qualifier.lower(), qualifier))
            ci = self.tables[ti].column_index(name)
            if ci is None:
                raise SchemaMismatchError(
                    f"column {name!r} is not in table {self.tables[ti].name!r}")
            return ti, ci
        for table in tables:
            ti = self.table_index(table)
            ci = None if ti is None else self.tables[ti].column_index(name)
            if ci is not None:
                return ti, ci
        raise SchemaMismatchError(
            f"column {name!r} does not resolve against the query's tables")


def serialize_schema(schema: DatabaseSchema) -> str:
    """Render the schema as the canonical index-token text line.

    Index tokens are lowercase ``t``/``c`` with no leading zeros.  Foreign
    keys are emitted in declaration order, each attached right after its
    from-side table.  Each (frozen, validated) schema renders it once.
    """
    return schema.serialized


def resolve_index(schema: DatabaseSchema, table_index: int,
                  column_index: int | None = None) -> str:
    """Map index ``t<table_index>[.c<column_index>]`` to ``table`` or
    ``table.column`` text."""
    if not (0 <= table_index < len(schema.tables)):
        raise IndexResolutionError(
            f"table index t{table_index} out of range "
            f"(schema {schema.db_name!r} has {len(schema.tables)} tables)"
        )
    table = schema.tables[table_index]
    if column_index is None:
        return table.name
    if not (0 <= column_index < len(table.columns)):
        raise IndexResolutionError(
            f"column index c{column_index} out of range "
            f"(table {table.name!r} has {len(table.columns)} columns)"
        )
    return f"{table.name}.{table.columns[column_index].name}"


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
            return resolve_index(schema, ti, ci)
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
    fk_pairs = record.get("foreign_keys") or []
    for key, value in (("table_names_original", table_names),
                       ("column_names_original", column_names),
                       ("column_types", column_types), ("foreign_keys", fk_pairs)):
        if not isinstance(value, list):
            raise SchemaLoadError(f"malformed schema record {db_id!r}: field "
                                  f"{key!r} must be a list, not {type(value).__name__}")

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
    for pair in fk_pairs:
        try:
            src, dst = pair
            ft, fc = locals_by_global[src]
            tt, tc = locals_by_global[dst]
        except (KeyError, TypeError, ValueError):
            raise SchemaLoadError(f"malformed foreign key {pair!r} in {db_id!r}") from None
        foreign_keys.append(ForeignKeyDef(ft, fc, tt, tc))
    return DatabaseSchema(str(db_id), tables, foreign_keys)


# Authorizer actions that would leave state on a connection for later
# statements to see: a temp object shadows a real table of the same name, an
# open transaction pins a read snapshot.
_STATEFUL_ACTIONS = frozenset((
    sqlite3.SQLITE_CREATE_TEMP_INDEX, sqlite3.SQLITE_CREATE_TEMP_TABLE,
    sqlite3.SQLITE_CREATE_TEMP_TRIGGER, sqlite3.SQLITE_CREATE_TEMP_VIEW,
    sqlite3.SQLITE_CREATE_VTABLE, sqlite3.SQLITE_TRANSACTION,
    sqlite3.SQLITE_SAVEPOINT,
))
# The only pragmas that may take an argument: they read the schema.
_ARGUMENT_PRAGMAS = frozenset(("table_info", "foreign_key_list"))
# The largest string, BLOB or row, in bytes, a read-only connection builds.
MAX_VALUE_BYTES = 10_000_000


def _stateless_only(action, arg1, arg2, db_name, _source):
    """Authorizer that denies what would change later statements' results
    on the same connection: temp objects (``ANALYZE temp`` creates its
    statistics table as a plain ``CREATE_TABLE`` in ``temp``),
    transactions, savepoints, and pragmas that set a value."""
    if action in _STATEFUL_ACTIONS or (
            action == sqlite3.SQLITE_CREATE_TABLE and db_name == "temp"):
        return sqlite3.SQLITE_DENY
    if (action == sqlite3.SQLITE_PRAGMA and arg2 is not None
            and arg1.lower() not in _ARGUMENT_PRAGMAS):
        return sqlite3.SQLITE_DENY
    return sqlite3.SQLITE_OK


def quote_identifier(name: str) -> str:
    """``name`` as a double-quoted SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


def connect_readonly(path: str | os.PathLike,
                     check_same_thread: bool = True) -> sqlite3.Connection:
    """Open a SQLite file read-only, for any number of statements.

    The path is percent-quoted into the ``file:`` URI, so ``#``, ``?`` and
    ``%`` in a file or directory name are taken literally.  The connection
    may attach no database, so ``ATTACH``, ``VACUUM`` and ``VACUUM INTO``
    fail instead of creating or writing files.  It runs in autocommit
    mode, so Python sends no ``BEGIN`` before a write and writes still
    fail as "readonly".  An authorizer makes statements that would leave
    state behind for the next one fail with "not authorized": ``CREATE
    TEMP ...``, virtual tables, ``BEGIN``/``COMMIT``, savepoints, and
    ``PRAGMA`` with an argument (except ``table_info`` and
    ``foreign_key_list``).  So a connection that has run any statement
    behaves like a fresh one.  A statement that would build or read a value
    or row longer than ``MAX_VALUE_BYTES`` fails with "string or blob too
    big": a column that stores such a value cannot be read or sorted.
    """
    uri = f"file:{urllib.parse.quote(os.fspath(path))}?mode=ro"
    conn = sqlite3.connect(uri, uri=True, check_same_thread=check_same_thread,
                           isolation_level=None)
    conn.setlimit(sqlite3.SQLITE_LIMIT_ATTACHED, 0)
    conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, MAX_VALUE_BYTES)
    conn.set_authorizer(_stateless_only)
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
            # Lowercase name -> (table index, table_info rows), first wins
            # as in DatabaseSchema.table_index.
            by_name: dict[str, tuple[int, list]] = {}
            for name in names:
                info = conn.execute(
                    f"PRAGMA table_info({quote_identifier(name)})").fetchall()
                columns = [ColumnDef(row[1], _normalize_sqlite_type(row[2])) for row in info]
                if not columns:
                    log.warning("skipping table %r with no columns", name)
                    continue
                by_name.setdefault(name.lower(), (len(tables), info))
                tables.append(TableDef(name, columns))
            foreign_keys = []
            for ti, table in enumerate(tables):
                for row in conn.execute(
                        f"PRAGMA foreign_key_list({quote_identifier(table.name)})"):
                    ref_table, from_col, to_col = row[2], row[3], row[4]
                    tt, info = by_name.get(str(ref_table).lower(), (None, None))
                    fc = table.column_index(str(from_col))
                    if tt is None or fc is None:
                        log.warning(
                            "skipping unresolvable foreign key %s.%s -> %s.%s",
                            table.name, from_col, ref_table, to_col,
                        )
                        continue
                    if to_col is None:
                        # Implicit reference to the parent's primary key.
                        pk = [r[1] for r in info if r[5]]
                        to_col = pk[0] if len(pk) == 1 else None
                    tc = tables[tt].column_index(str(to_col)) if to_col else None
                    if tc is None:
                        log.warning(
                            "skipping foreign key with unresolvable target %s.%s",
                            ref_table, to_col,
                        )
                        continue
                    foreign_keys.append(ForeignKeyDef(ti, fc, tt, tc))
    except sqlite3.Error as exc:
        raise DatabaseAccessError(f"cannot read database {path}: {exc}") from exc
    return DatabaseSchema(
        db_name or os.path.splitext(os.path.basename(path))[0], tables,
        foreign_keys)


def load_schema_file(path: str | os.PathLike) -> dict[str, DatabaseSchema]:
    """Load every record of a ``tables.json`` file, keyed by database id."""
    try:
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    except OSError as exc:
        raise SchemaLoadError(f"cannot read schema file: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SchemaLoadError(
            f"schema file {path} is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise SchemaLoadError("schema file must contain a JSON array of records")
    schemas = {}
    for record in records:
        schema = schema_from_spider_record(record)
        if schema.db_name in schemas:
            raise SchemaLoadError(f"schema file holds db_id "
                                  f"{schema.db_name!r} more than once")
        schemas[schema.db_name] = schema
    return schemas
