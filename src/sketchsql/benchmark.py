"""Dataset ingestion, end-to-end evaluation, and accuracy reporting.

The harness loads a benchmark directory (schema file, per-database SQLite
files, examples JSON), runs the full sketch -> completion -> calibration
-> selection pipeline per example, executes predicted and gold SQL, and
scores execution accuracy.  Per-example failures never abort a run; they
are recorded with a status.  Token accounting counts whitespace tokens of
every prompt and response, which preserves relative cost ordering without
tying the harness to any tokenizer.  The calls counted are the ones the
``gateway`` request helpers record inside a ``recording_calls`` block
around each example, including the sketch-part requests made on other
threads.
"""

from __future__ import annotations

import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .errors import DatasetIntegrityError, SqlParseError
from .execution import Database, results_equal
from .gateway import recording_calls
from .schema import DatabaseSchema, load_schema_file, schema_from_sqlite
from .selection import (
    SelectionConfig,
    SelectionTrace,
    completion_prompt,
    select_query,
)
from .sketches import (
    DEFAULT_K_FROM,
    DEFAULT_K_KEYWORDS,
    DEFAULT_K_SELECT,
    INSTRUCTIONS,
    PART_FROM,
    PART_KEYWORDS,
    PART_SELECT,
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

_FORMATS = {
    # dataset format -> (database directory name, example-file candidates)
    "spider": ("database", ("dev.json", "examples.json", "train_spider.json")),
    "kaggledbqa": ("databases", ("examples.json", "dev.json", "test.json")),
}


@dataclass(frozen=True)
class BenchmarkExample:
    question: str
    db_id: str
    gold_sql: str


@dataclass
class DatasetBundle:
    root: Path
    fmt: str
    examples: list
    schemas: dict
    db_paths: dict


def _read_examples(path: Path) -> list[BenchmarkExample]:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetIntegrityError(f"cannot read examples file {path}: {exc}") from exc
    if not isinstance(raw, list):
        raise DatasetIntegrityError(f"examples file {path} must be a JSON array")
    out = []
    for i, record in enumerate(raw):
        try:
            question = record["question"]
            db_id = record["db_id"]
            sql = record.get("query") or record.get("SQL") or record.get("sql")
        except (TypeError, KeyError) as exc:
            raise DatasetIntegrityError(
                f"example {i} in {path} lacks field {exc}") from exc
        if not sql:
            raise DatasetIntegrityError(f"example {i} in {path} has no gold SQL")
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
    if fmt not in _FORMATS:
        raise DatasetIntegrityError(
            f"unknown dataset format {fmt!r}; expected one of {sorted(_FORMATS)}")
    root = Path(root)
    db_dir_name, candidates = _FORMATS[fmt]

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
    return DatasetBundle(root, fmt, examples, schemas, db_paths)


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

    def to_dict(self) -> dict:
        return {
            "db_id": self.db_id,
            "question": self.question,
            "gold_sql": self.gold_sql,
            "predicted_sql": self.predicted_sql,
            "status": self.status,
            "correct": self.correct,
            "predicted_outcome": self.predicted_outcome,
            "gold_outcome": self.gold_outcome,
            "tokens": self.tokens,
            "latency": self.latency,
            "error": self.error,
            "trace": self.trace,
        }


@dataclass
class EvalReport:
    total: int
    correct: int
    execution_accuracy: float
    status_counts: dict
    tokens_total: int
    tokens_average: float
    per_example: list

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "correct": self.correct,
            "execution_accuracy": self.execution_accuracy,
            "status_counts": dict(sorted(self.status_counts.items())),
            "tokens_total": self.tokens_total,
            "tokens_average": self.tokens_average,
            "per_example": [r.to_dict() for r in self.per_example],
        }


def _gold_order_sensitive(gold_sql: str) -> bool:
    try:
        return order_sensitive(parse_sql(gold_sql))
    except SqlParseError:
        return bool(_ORDER_BY.search(gold_sql))


def _evaluate_one(example: BenchmarkExample, schema: DatabaseSchema,
                  db: Database, config: EvalConfig) -> ExampleResult:
    started = time.monotonic()
    predicted = None
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
                trace_dict = trace.to_dict()
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

    gold_outcome = db.execute(example.gold_sql)
    result.gold_outcome = gold_outcome.kind
    if gold_outcome.is_error:
        log.warning("gold SQL failed on %s: %s", example.db_id,
                    gold_outcome.message)
        return result
    if predicted is None or status == STATUS_TIMEOUT:
        return result
    predicted_outcome = db.execute(predicted)
    result.predicted_outcome = predicted_outcome.kind
    if predicted_outcome.is_error:
        return result
    result.correct = results_equal(predicted_outcome.result,
                                   gold_outcome.result,
                                   _gold_order_sensitive(example.gold_sql))
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
    status_counts: dict[str, int] = {}
    for r in results:
        status_counts[r.status] = status_counts.get(r.status, 0) + 1
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


def write_report_json(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True,
                  ensure_ascii=False)
        handle.write("\n")


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
        parts = {
            PART_SELECT: sketch.select_part.content,
            PART_FROM: sketch.from_part.content,
            PART_KEYWORDS: sketch.keywords_part.content,
        }
        for kind, content in parts.items():
            key = build_task_input(INSTRUCTIONS[kind], example.question, schema)
            generate[key] = [[content]]
        prompt = completion_prompt(example.question, schema, sketch)
        complete[prompt] = [example.gold_sql]
    return {
        "generate": generate,
        "score": {"*": [0.9]},
        "complete": complete,
    }
