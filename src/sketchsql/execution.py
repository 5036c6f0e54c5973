"""SQL execution against SQLite with outcome classification and result
comparison.

Every run is classified as Error (engine rejection, timeout, or a result
of more than ``MAX_RESULT_ROWS`` rows; the message is kept so it can be
fed back to the completer), Null (empty result or rows that are entirely
NULL, e.g. an aggregate over an empty relation), or Rows.  Comparison for
the accuracy metric is multiset-based with numeric tolerance; column names
are deliberately ignored since equivalent queries alias freely.
"""

from __future__ import annotations

import logging
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import DatabaseAccessError
from .schema import (MAX_VALUE_BYTES, DatabaseSchema, connect_readonly,
                     quote_identifier, schema_from_sqlite)

log = logging.getLogger(__name__)

# The deadline of a statement run with ``timeout=None``.
DEFAULT_STATEMENT_TIMEOUT = 30.0
# How many SQLite VM instructions run between timeout checks.
_PROGRESS_INTERVAL = 10_000
# The most rows a statement's result may hold; a longer one is an Error.
MAX_RESULT_ROWS = 100_000

ERROR = "error"
NULL = "null"
ROWS = "rows"


@dataclass(frozen=True)
class ResultSet:
    column_count: int
    rows: tuple

    def all_null(self) -> bool:
        return all(value is None for row in self.rows for value in row)


@dataclass(frozen=True)
class ExecutionOutcome:
    """Classified result of one statement execution.

    ``result`` is populated for both ``rows`` and ``null`` outcomes: a
    null-classified result still has a concrete (possibly empty) row set
    that the accuracy metric compares directly.
    """

    kind: str
    message: str | None = None
    result: ResultSet | None = None

    @classmethod
    def error(cls, message: str) -> "ExecutionOutcome":
        return cls(ERROR, message=message)

    @classmethod
    def from_result(cls, result: ResultSet) -> "ExecutionOutcome":
        if not result.rows or result.all_null():
            return cls(NULL, result=result)
        return cls(ROWS, result=result)

    @property
    def is_error(self) -> bool:
        return self.kind == ERROR

    @property
    def is_null(self) -> bool:
        return self.kind == NULL

    @property
    def is_rows(self) -> bool:
        return self.kind == ROWS


def decode_text(data: bytes) -> str:
    """A database's text as ``str``: UTF-8 with replacement.  Several
    benchmark databases contain stray non-UTF-8 bytes, and a consistent
    lossy decode keeps gold and predicted results comparable."""
    return data.decode("utf-8", "replace")


class Database:
    """Read-only handle on a SQLite database file.

    Statements run on a pool of read-only connections that are kept and
    reused, at most one per concurrent caller, so one Database may be
    shared freely across threads (see :meth:`_statement_connection` and
    :func:`connect_readonly` for why a reused connection behaves like a
    fresh one).  The handle also holds one read-only connection, opened on
    first use, for the value scans behind calibration and for noticing
    content changes (see :meth:`sync`), and a value index that survives
    those changes.  It holds the encoded values of each scanned column,
    and next to them the merged lane sets that calibration builds from
    those entries, one per table and one for the database, per scan cap.
    Each entry is checked on its first use after a change and built
    again only when what it was built from changed (see :meth:`cached`).
    :meth:`close` closes every connection; the handle stays usable and
    opens new ones when next needed.  Statement results decode text with
    :func:`decode_text`.  The held connection reads text as raw bytes, so
    that a rescan is compared with the index entry's scan without
    decoding, and calibration decodes a column's values with the same
    rule only when they changed.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        if not os.path.exists(self.path):
            raise DatabaseAccessError(f"database file not found: {self.path}")
        self._schema: DatabaseSchema | None = None
        # Guards the schema, the held connection, the stamp and the index.
        self._lock = threading.RLock()
        self._held: sqlite3.Connection | None = None
        self._stamp: tuple | None = None
        # key -> (content version it was last scanned at, what the scan
        # returned, the encoding built from it)
        self._index: dict = {}
        # Moved on by sync() whenever the stamp moves.
        self._version = 0
        # Guards the statement pool: idle (connection, inode it was opened
        # on) pairs, and a generation that close() moves on, so that a
        # connection in use during close() is closed when put back.
        self._pool_lock = threading.Lock()
        self._idle: list[tuple[sqlite3.Connection, int]] = []
        self._generation = 0

    @property
    def schema(self) -> DatabaseSchema:
        with self._lock:
            if self._schema is None:
                self._schema = schema_from_sqlite(self.path)
            return self._schema

    def connect(self) -> sqlite3.Connection:
        """A new read-only connection that any one thread at a time may use."""
        conn = connect_readonly(self.path, check_same_thread=False)
        conn.text_factory = decode_text
        return conn

    def _reader(self) -> sqlite3.Connection:
        """The held connection, which reads text as bytes; call with
        ``_lock`` held."""
        if self._held is None:
            self._held = self.connect()
            self._held.text_factory = bytes
        return self._held

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the held connection and the pooled statement connections,
        and empty the value index.  The handle stays usable and opens
        connections again when next needed.  A ``with`` block on the
        handle calls this when it ends."""
        with self._lock:
            if self._held is not None:
                self._held.close()
                self._held = None
            self._stamp = None
            self._index.clear()
        with self._pool_lock:
            idle, self._idle = self._idle, []
            self._generation += 1
        for conn, _ in idle:
            conn.close()

    @contextmanager
    def _statement_connection(self, timeout: float | None):
        """An idle pooled connection, or a new one when none is idle, on
        the file now at ``path``, with a deadline of ``timeout`` seconds
        (none when 0 or None) that replaces any left by an earlier call.

        Raises OSError when the file is missing.  A pooled connection
        opened on another inode (the file was replaced) is closed and a
        new one opened.  The connection goes back to the pool only when
        the block ends normally and :meth:`close` did not run meanwhile.
        """
        inode = os.stat(self.path).st_ino
        with self._pool_lock:
            generation = self._generation
            conn, opened_on = self._idle.pop() if self._idle else (None, None)
        if conn is not None and opened_on != inode:
            conn.close()
            conn = None
        if conn is None:
            # The inode was read before opening, so a file replaced in
            # between is noticed, and reopened, on the next call.
            conn, opened_on = self.connect(), inode
        try:
            if timeout and timeout > 0:
                deadline = time.monotonic() + timeout
                conn.set_progress_handler(
                    lambda: 1 if time.monotonic() > deadline else 0,
                    _PROGRESS_INTERVAL,
                )
            else:
                conn.set_progress_handler(None, 0)
            yield conn
        except BaseException:
            conn.close()
            raise
        with self._pool_lock:
            if generation == self._generation:
                self._idle.append((conn, opened_on))
                return
        conn.close()

    def sync(self) -> None:
        """Start a new content version if the file changed since the last
        call, so that every value index entry is rescanned on its next use.

        The stamp is the file's inode, size and modification time plus
        ``PRAGMA data_version`` on the held connection, which moves on
        every commit by another connection in rollback-journal and WAL
        mode alike.  A new inode means the file was replaced: the held
        connection still reads the old one, so it is reopened, the index
        is emptied and the schema is read again.
        """
        with self._lock:
            try:
                st = os.stat(self.path)
                if self._stamp is not None and self._stamp[0] != st.st_ino:
                    self.close()
                    self._schema = None
                (version,), = self._reader().execute("PRAGMA data_version")
            except (OSError, sqlite3.Error) as exc:
                raise DatabaseAccessError(
                    f"cannot read database {self.path}: {exc}") from exc
            stamp = (st.st_ino, st.st_size, st.st_mtime_ns, version)
            if stamp != self._stamp:
                self._version += 1
                self._stamp = stamp

    def cached(self, key, scan, encode):
        """The value index: ``encode(scan())``, kept under ``key``.

        An entry made before the last content change that :meth:`sync`
        saw is checked on its next use: ``scan()`` runs again, and
        ``encode`` runs again only when the scanned list differs from the
        one the entry keeps, which is what it was encoded from.  A
        column's list is its raw bytes, so an unchanged column is compared
        and not decoded.  So an entry is always the encoding of a scan made
        since the last :meth:`sync`, and unchanged columns keep theirs;
        ``encode`` must be a pure function of the list.  A scan may itself
        read other entries: a merged lane set's scan returns its columns'
        entries, which compare by identity, so it is merged again only
        when one of them was encoded again.
        :meth:`close` empties the index.
        """
        with self._lock:
            version, values, encoded = self._index.get(key, (None,) * 3)
            if version != self._version:
                scanned = scan()
                if scanned != values:
                    # Let go of the old entry before encoding, so that it
                    # and the new one are never held at once.
                    self._index.pop(key, None)
                    del values, encoded
                    values, encoded = scanned, encode(scanned)
                self._index[key] = (self._version, values, encoded)
            return encoded

    def execute(self, sql: str, timeout: float | None = None) -> ExecutionOutcome:
        """Run ``sql`` and classify the outcome.  Never raises: engine
        errors, timeouts, and connection failures all become Error
        outcomes that keep the underlying message, plus the deadline or
        the length limit that stopped the statement.  A result of more
        than ``MAX_RESULT_ROWS`` rows is an Error too; its statement is
        stopped, so the connection keeps no read lock."""
        limit = DEFAULT_STATEMENT_TIMEOUT if timeout is None else timeout
        try:
            with self._statement_connection(limit) as conn:
                try:
                    cursor = conn.execute(sql)
                    rows = tuple(map(tuple, cursor.fetchmany(MAX_RESULT_ROWS + 1)))
                except Exception as exc:
                    message = str(exc)
                    if message == "interrupted" and limit > 0:
                        message += (f": statement exceeded its {limit:g} s "
                                    "deadline")
                    elif message == "string or blob too big":
                        message += f": over the {MAX_VALUE_BYTES} byte length limit"
                    return ExecutionOutcome.error(message)
                if len(rows) > MAX_RESULT_ROWS:
                    cursor.close()
                    return ExecutionOutcome.error(
                        f"result has more than {MAX_RESULT_ROWS} rows")
                column_count = len(cursor.description) if cursor.description else 0
        except Exception as exc:  # connection failure -> Error outcome
            return ExecutionOutcome.error(str(exc))
        return ExecutionOutcome.from_result(ResultSet(column_count, rows))

    def distinct_text_values(self, table: str, column: str, cap: int) -> list[bytes]:
        """Distinct non-empty text-typed values of one column, as raw
        bytes in the column's sort order, capped at ``cap``; decode them
        with :func:`decode_text`.  Filtering on the stored value's type
        (rather than the declared column type) keeps the scan meaningful
        under SQLite's flexible typing.  The filter keeps exactly what
        ``typeof(col) = 'text' AND col <> ''`` keeps, without a function
        call per row, and an index on the column serves it as a range:
        SQLite sorts NULL and numbers before text and text before blobs,
        no text sorts below ``''`` under BINARY, NOCASE or RTRIM (so
        ``> ''`` is ``<> ''`` for text, trailing spaces under RTRIM
        included), and no blob sorts below ``x''``.  The scan reads to the
        end on the held connection, so no read lock outlives it.  A column
        that stores a value over ``MAX_VALUE_BYTES`` cannot be read, so it
        yields none."""
        name = quote_identifier(column)
        query = (
            f"SELECT DISTINCT {name} FROM {quote_identifier(table)} "
            f"WHERE {name} > '' AND {name} < x'' ORDER BY 1 LIMIT ?"
        )
        try:
            with self._lock:
                return [row[0] for row in self._reader().execute(query, (cap,))]
        except sqlite3.Error as exc:
            if str(exc) == "string or blob too big":
                log.warning("not scanning %s.%s: %s", table, column, exc)
                return []
            raise DatabaseAccessError(
                f"cannot scan {table}.{column} in {self.path}: {exc}") from exc


# --------------------------------------------------------------------------
# Result comparison

def _cell_key(value):
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, float(value))
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bytes):
        return (3, value)
    return (4, repr(value))


def _row_key(row):
    return tuple(_cell_key(value) for value in row)


def _cell_equal(x, y, tol: float) -> bool:
    if x is None or y is None:
        return x is y
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return x == y or abs(x - y) <= tol
    if type(x) is type(y):
        return x == y
    return False


def _row_equal(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(_cell_equal(x, y, tol) for x, y in zip(a, b))


def results_equal(predicted: ResultSet, gold: ResultSet,
                  order_sensitive: bool = False, tol: float = 1e-6) -> bool:
    """Compare two result sets for the accuracy metric.

    Column counts and row multisets must match (row sequences when
    ``order_sensitive``); numbers compare with absolute tolerance ``tol``,
    NULL equals only NULL, and column names are ignored.
    """
    if predicted.column_count != gold.column_count:
        return False
    if len(predicted.rows) != len(gold.rows):
        return False
    left, right = predicted.rows, gold.rows
    if not order_sensitive:
        left = sorted(left, key=_row_key)
        right = sorted(right, key=_row_key)
    return all(_row_equal(a, b, tol) for a, b in zip(left, right))
