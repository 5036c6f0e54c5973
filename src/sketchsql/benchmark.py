"""Dataset ingestion, end-to-end evaluation, and accuracy reporting.

The harness loads a benchmark directory (schema file, per-database SQLite
files, examples JSON), runs the full sketch -> completion -> calibration
-> selection pipeline per example, executes the gold SQL and the
predicted SQL (each unless selection already ran it), and scores
execution accuracy.  Per-example failures never abort a run; they are
recorded with a status.  Token accounting counts whitespace tokens of
every prompt and response, which preserves relative cost ordering
without tying the harness to any tokenizer.  The calls counted are the
ones the ``gateway`` request helpers record inside a ``recording_calls``
block around each example, including the sketch-part requests made on
other threads.
"""

from __future__ import annotations

import json
import logging
import re
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import DatasetIntegrityError, SqlParseError
from .execution import Database, results_equal
from .gateway import recording_calls
from .schema import DatabaseSchema, load_schema_file, schema_from_sqlite
from .selection import (
    SelectionConfig,
    SelectionTrace,
    check_ranges,
    completion_prompt,
    select_query,
)
from .sketches import (
    DEFAULT_K_FROM,
    DEFAULT_K_KEYWORDS,
    DEFAULT_K_SELECT,
    INSTRUCTIONS,
    build_sketches,
    build_task_input,
    extract_sketch_from_sql,
)
from .sql_analysis import order_sensitive, parse_sql

log = logging.getLogger(__name__)

DEFAULT_EXAMPLE_TIMEOUT = 120.0

STATUS_ERROR = "Error"
STATUS_TIMEOUT = "Timeout"

_ORDER_BY = re.compile(r"\border\s+by\b", re.IGNORECASE)

FORMATS = {
    # dataset format -> (database directory name, example-file candidates)
    "spider": ("database", ("dev.json", "examples.json", "train_spider.json")),
    "kaggledbqa": ("databases", ("examples.json", "dev.json", "test.json")),
}
# Keys that may hold an example's gold SQL; the first non-empty one is used.
_SQL_KEYS = ("query", "SQL", "sql")


@dataclass(frozen=True)
class BenchmarkExample:
    question: str
    db_id: str
    gold_sql: str


@dataclass
class DatasetBundle:
    examples: list
    schemas: dict
    db_paths: dict


def _read_examples(path: Path) -> list[BenchmarkExample]:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise DatasetIntegrityError(f"cannot read examples file {path}: {exc}") from exc
    if not isinstance(raw, list):
        raise DatasetIntegrityError(f"examples file {path} must be a JSON array")
    out = []
    for i, record in enumerate(raw):
        if not isinstance(record, dict):
            raise DatasetIntegrityError(
                f"example {i} in {path} must be a JSON object, "
                f"not {type(record).__name__}")
        try:
            question, db_id = record["question"], record["db_id"]
        except KeyError as exc:
            raise DatasetIntegrityError(
                f"example {i} in {path} lacks field {exc}") from exc
        sql_key = next((key for key in _SQL_KEYS if record.get(key)), None)
        if sql_key is None:
            raise DatasetIntegrityError(f"example {i} in {path} has no gold SQL")
        sql = record[sql_key]
        for key, value in (("question", question), ("db_id", db_id), (sql_key, sql)):
            if not isinstance(value, str):
                raise DatasetIntegrityError(
                    f"example {i} in {path}: field {key!r} must be a string, "
                    f"not {type(value).__name__}")
        if db_id in ("", ".", "..") or "/" in db_id or "\\" in db_id:
            raise DatasetIntegrityError(
                f"example {i} in {path}: field 'db_id' must be a plain name, "
                f"got {db_id!r}")
        out.append(BenchmarkExample(question, db_id, sql))
    return out


def load_dataset(root, fmt: str = "spider",
                 examples_file: str | None = None) -> DatasetBundle:
    """Load a benchmark directory into memory.

    Expects ``tables.json``, ``<dbdir>/<db_id>/<db_id>.sqlite``, and an
    examples JSON (explicit via ``examples_file``, otherwise the format's
    conventional names are tried).  Every example's db_id must resolve to
    a database file; the full list of unresolved ids is reported at once.
    """
    if fmt not in FORMATS:
        raise DatasetIntegrityError(
            f"unknown dataset format {fmt!r}; expected one of {sorted(FORMATS)}")
    root = Path(root)
    db_dir_name, candidates = FORMATS[fmt]

    if examples_file is not None:
        examples_path = root / examples_file
    else:
        examples_path = next((root / name for name in candidates
                              if (root / name).exists()), None)
        if examples_path is None:
            raise DatasetIntegrityError(
                f"no examples file found under {root} "
                f"(tried {', '.join(candidates)})")
    examples = _read_examples(examples_path)

    schemas: dict[str, DatabaseSchema] = {}
    tables_path = root / "tables.json"
    if tables_path.exists():
        schemas.update(load_schema_file(tables_path))
    else:
        log.warning("%s has no tables.json; schemas will be read from the "
                    "database files", root)

    db_dir = root / db_dir_name
    db_paths: dict[str, Path] = {}
    missing: list[str] = []
    for db_id in sorted({ex.db_id for ex in examples}):
        path = db_dir / db_id / f"{db_id}.sqlite"
        if not path.exists():
            missing.append(db_id)
            continue
        db_paths[db_id] = path
        if db_id not in schemas:
            log.info("db %s missing from tables.json; reading schema from "
                     "the database file", db_id)
            schemas[db_id] = schema_from_sqlite(path, db_name=db_id)
    if missing:
        raise DatasetIntegrityError(
            f"missing database file(s) for: {', '.join(missing)}")

    log.info("loaded %d example(s) over %d database(s) from %s",
             len(examples), len(db_paths), root)
    return DatasetBundle(examples, schemas, db_paths)


# --------------------------------------------------------------------------
# Token accounting

def _count_strings(obj) -> int:
    if isinstance(obj, str):
        return len(obj.split())
    if isinstance(obj, dict):
        return sum(_count_strings(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_count_strings(v) for v in obj)
    return 0


def measure_tokens(calls: list) -> int:
    """Whitespace-token count over all logged (request, response) pairs."""
    return sum(_count_strings(request) + _count_strings(response)
               for request, response in calls)


# --------------------------------------------------------------------------
# Pipeline

def translate_question(question: str, schema: DatabaseSchema, db: Database,
                       provider, aligner, selection: SelectionConfig,
                       k_select: int = DEFAULT_K_SELECT,
                       k_from: int = DEFAULT_K_FROM,
                       k_keywords: int = DEFAULT_K_KEYWORDS
                       ) -> tuple[str | None, SelectionTrace]:
    """One full pipeline pass for a single question."""
    sketches = build_sketches(provider, aligner, question, schema,
                              k_select, k_from, k_keywords)
    return select_query(question, schema, db, sketches, selection)


@dataclass
class EvalConfig:
    """Everything an evaluation run needs besides the dataset itself."""

    selection: SelectionConfig
    provider: object
    aligner: object
    k_select: int = DEFAULT_K_SELECT
    k_from: int = DEFAULT_K_FROM
    k_keywords: int = DEFAULT_K_KEYWORDS
    workers: int = 1
    trace: bool = False
    example_timeout: float = DEFAULT_EXAMPLE_TIMEOUT
    # Wall-clock latencies are inherently non-deterministic; reproducibility
    # checks disable them so reports compare byte-for-byte.
    record_latency: bool = True

    RANGES = {"k_select": (1, True, None), "k_from": (1, True, None),
              "k_keywords": (1, True, None), "workers": (1, True, None),
              "example_timeout": (0, False, None)}

    def __post_init__(self):
        check_ranges(self, self.RANGES)


@dataclass
class ExampleResult:
    db_id: str
    question: str
    gold_sql: str
    predicted_sql: str | None
    status: str
    correct: bool
    predicted_outcome: str | None = None
    gold_outcome: str | None = None
    tokens: int = 0
    latency: float | None = None
    error: str | None = None
    trace: dict | None = None


@dataclass
class EvalReport:
    total: int
    correct: int
    execution_accuracy: float
    status_counts: dict
    tokens_total: int
    tokens_average: float
    per_example: list


def _gold_order_sensitive(gold_sql: str) -> bool:
    try:
        return order_sensitive(parse_sql(gold_sql))
    except SqlParseError:
        return bool(_ORDER_BY.search(gold_sql))


def _evaluate_one(example: BenchmarkExample, schema: DatabaseSchema,
                  db: Database, config: EvalConfig) -> ExampleResult:
    """Translate one example and score it against its gold SQL.

    The statement that selection ran last (``SelectionTrace.last_run``)
    is not run again: its outcome stands for the gold SQL when it is the
    gold text, and for the prediction when it is the predicted text,
    unless that outcome is an Error.  Everything else runs here, under
    the selection's statement timeout.  When one run stands for both, the
    example is correct with no rows compared, so a statement that is not
    deterministic (``random()``, the current time) is scored by what it
    returned once.
    """
    started = time.monotonic()
    predicted = trace = None
    trace_dict = None
    status = STATUS_ERROR
    error = None
    with recording_calls() as calls:
        try:
            predicted, trace = translate_question(
                example.question, schema, db, config.provider, config.aligner,
                config.selection, config.k_select, config.k_from,
                config.k_keywords)
            status = trace.status
            if config.trace:
                trace_dict = asdict(trace)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            log.warning("example failed (%s / %r): %s",
                        example.db_id, example.question, error)
    elapsed = time.monotonic() - started
    if elapsed > config.example_timeout:
        status = STATUS_TIMEOUT

    result = ExampleResult(example.db_id, example.question, example.gold_sql,
                           predicted, status, correct=False,
                           tokens=measure_tokens(calls),
                           latency=elapsed if config.record_latency else None,
                           error=error, trace=trace_dict)

    timeout = config.selection.statement_timeout
    ran_sql, ran_outcome = (trace and trace.last_run) or (None, None)
    gold_outcome = ran_outcome
    if ran_sql != example.gold_sql or ran_outcome.is_error:
        gold_outcome = db.execute(example.gold_sql, timeout)
    result.gold_outcome = gold_outcome.kind
    if gold_outcome.is_error:
        log.warning("gold SQL failed on %s: %s", example.db_id,
                    gold_outcome.message)
        return result
    if predicted is None or status == STATUS_TIMEOUT:
        return result
    predicted_outcome = ran_outcome
    if ran_sql != predicted or ran_outcome.is_error:
        predicted_outcome = db.execute(predicted, timeout)
    result.predicted_outcome = predicted_outcome.kind
    if predicted_outcome.is_error:
        return result
    if predicted_outcome is gold_outcome:
        result.correct = True  # the gold text itself, from its one run
        return result
    left, right = predicted_outcome.result, gold_outcome.result
    # Row order can matter only between equal shapes of two rows or more.
    ordered = (left.column_count == right.column_count
               and len(left.rows) == len(right.rows) >= 2
               and _gold_order_sensitive(example.gold_sql))
    result.correct = results_equal(left, right, ordered)
    return result


def evaluate(config: EvalConfig, bundle: DatasetBundle) -> EvalReport:
    """Run the pipeline over every example and score execution accuracy."""
    databases = {db_id: Database(path)
                 for db_id, path in bundle.db_paths.items()}

    def run(example: BenchmarkExample) -> ExampleResult:
        return _evaluate_one(example, bundle.schemas[example.db_id],
                             databases[example.db_id], config)

    try:
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(run, bundle.examples))
        else:
            results = [run(example) for example in bundle.examples]
    finally:
        for db in databases.values():
            db.close()

    total = len(results)
    correct = sum(r.correct for r in results)
    status_counts = dict(sorted(Counter(r.status for r in results).items()))
    tokens_total = sum(r.tokens for r in results)
    return EvalReport(
        total=total,
        correct=correct,
        execution_accuracy=(correct / total) if total else 0.0,
        status_counts=status_counts,
        tokens_total=tokens_total,
        tokens_average=(tokens_total / total) if total else 0.0,
        per_example=results,
    )


def format_summary(report: EvalReport) -> str:
    lines = [
        f"examples:            {report.total}",
        f"correct:             {report.correct}",
        f"execution accuracy:  {report.execution_accuracy:.4f}",
        f"tokens total:        {report.tokens_total}",
        f"tokens per example:  {report.tokens_average:.1f}",
        "statuses:            " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(report.status_counts.items())),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Stub scripting helpers

def build_gold_echo_script(bundle: DatasetBundle) -> dict:
    """Script sections that drive the stub pipeline to emit each example's
    gold SQL: sketches extracted from gold, a flat aligner score, and a
    completion keyed to the exact prompt.

    Intended for fixtures whose gold predicates already match database
    content (so calibration proposes no change and needs no scripting).
    """
    generate: dict[str, list] = {}
    complete: dict[str, list] = {}
    for example in bundle.examples:
        schema = bundle.schemas[example.db_id]
        sketch = extract_sketch_from_sql(example.gold_sql, schema)
        for part in sketch.parts:
            key = build_task_input(INSTRUCTIONS[part.kind], example.question,
                                   schema)
            generate[key] = [[part.content]]
        prompt = completion_prompt(example.question, schema, sketch)
        complete[prompt] = [example.gold_sql]
    return {
        "generate": generate,
        "score": {"*": [0.9]},
        "complete": complete,
    }
