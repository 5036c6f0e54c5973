"""Execution-guided completion and selection of SQL queries.

Sketches are tried in rank order.  Each is completed by the completer
service, checked by actually executing it (with up to ``patience``
error-feedback rewrites), calibrated against database content, and
re-executed only when calibration changed its text; the first query
producing real rows wins.  When every sketch is exhausted the best effort
is returned with an Exhausted status rather than failing silently, since a
harness needs an answer for every example.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .calibration import (
    DEFAULT_SCAN_CAP,
    DEFAULT_SIMILARITY_THRESHOLD,
    CalibrationFeedback,
    CharacterFuzzy,
    in_own_column,
    multi_level_match,
    replacement_value,
    single_level_match,  # noqa: F401  (perfbench/spans.py traces it here)
)
from .errors import (EmptyCandidateError, IndexResolutionError,
                     SqlParseError, check_ranges)
from .execution import Database, ExecutionOutcome
from .gateway import request_completion
from .schema import DatabaseSchema, serialize_schema, translate_indexed_text
from .sql_analysis import ColumnRef, ParsedQuery, parse_sql, rewrite_predicates
from .sketches import SqlSketch

log = logging.getLogger(__name__)

DEFAULT_PATIENCE = 1

STATUS_SELECTED = "Selected"
STATUS_EXHAUSTED = "Exhausted"


@dataclass
class SelectionConfig:
    """Knobs for one selection run, including the completer client."""

    completer: object
    patience: int = DEFAULT_PATIENCE
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    backend: object = field(default_factory=CharacterFuzzy)
    statement_timeout: float | None = None
    scan_cap: int = DEFAULT_SCAN_CAP

    # check_ranges holds the settings to these.  A statement timeout of 0
    # clears the deadline.
    RANGES = {"patience": (0, True, None), "threshold": (0, False, 1),
              "statement_timeout": (0, True, None),
              "scan_cap": (1, True, None)}

    def __post_init__(self):
        check_ranges(self, self.RANGES)


# --------------------------------------------------------------------------
# Trace records

@dataclass
class ExecutionAttempt:
    sql: str
    outcome: str
    message: str | None = None


@dataclass
class SketchAttempt:
    rank: int
    completion: str | None
    executions: list = field(default_factory=list)
    rewrites: int = 0
    calibration: list = field(default_factory=list)
    calibrated_sql: str | None = None
    final_outcome: str | None = None
    status: str = ""


@dataclass
class SelectionTrace:
    question: str
    status: str = ""
    final_sql: str | None = None
    sketches: list = field(default_factory=list)
    # The last (sql, ExecutionOutcome) selection ran, for the harness to
    # score.  Unannotated, so it is a class attribute rather than a field:
    # the outcome must never reach the JSON that dataclasses.asdict gives.
    last_run = None


def _feedback_to_dicts(feedback: CalibrationFeedback) -> list[dict]:
    out = []
    for pred, match in feedback.replacements:
        out.append({
            "column": pred.column,
            "operator": pred.operator,
            "value": pred.value,
            "match_column": match.column,
            "match_value": match.value,
            "score": match.score,
            "level": match.level.label,
            "below_threshold": match.below_threshold,
        })
    return out


# --------------------------------------------------------------------------
# Prompts

def completion_prompt(question: str, schema: DatabaseSchema,
                      sketch: SqlSketch) -> str:
    """The frozen completion prompt; sketch parts appear in named form."""
    named_select = translate_indexed_text(schema, sketch.select_part.content)
    named_from = translate_indexed_text(schema, sketch.from_part.content)
    return ("Complete the following SQL sketch into a full SQL query "
            "answering the question. "
            f"question: {question} "
            f"database: {serialize_schema(schema)} "
            f"sketch: {named_select} {named_from} "
            f"keywords: {sketch.keywords_part.content}")


def repair_prompt(sql: str, error_message: str) -> str:
    return ("The SQL query failed to execute. "
            f"SQL query: {sql} "
            f"Error message: {error_message} "
            "Rewrite the SQL query to fix the error and output only SQL.")


def calibration_prompt(sql: str, pairs: list) -> str:
    """Feedback prompt: one sentence pair per proposed replacement, hedged
    when the match never cleared the similarity threshold."""
    sentences = [f"SQL query: {sql}"]
    for pred, match in pairs:
        sentences.append(f"The predicate {pred.column} = '{pred.value}' "
                         "does not match the database content.")
        if match.below_threshold:
            sentences.append("The most similar database value found is "
                             f"{match.column} = '{match.value}', "
                             "which may not be related.")
        else:
            sentences.append("The closest database value is "
                             f"{match.column} = '{match.value}'.")
    sentences.append("Rewrite the SQL query accordingly and output only SQL.")
    return " ".join(sentences)


def _clean_sql(text: str) -> str:
    text = text.strip()
    if text.startswith("```"):
        lines = [line for line in text.splitlines()
                 if not line.strip().startswith("```")]
        text = "\n".join(lines).strip()
    return text


# --------------------------------------------------------------------------
# Pipeline steps

def complete_sketch(completer, question: str, schema: DatabaseSchema,
                    sketch: SqlSketch) -> str:
    prompt = completion_prompt(question, schema, sketch)
    return _clean_sql(request_completion(completer, prompt))


def execution_check(sql: str, db: Database, patience: int, completer,
                    timeout: float | None = None,
                    attempts_out: list | None = None
                    ) -> tuple[str, ExecutionOutcome]:
    """Execute ``sql``; on engine errors, feed the verbatim message back to
    the completer for a rewrite, at most ``patience`` times.

    Returns the last query executed and its outcome, an Error only when
    every attempt errored.  ``attempts_out``, when given, collects an
    :class:`ExecutionAttempt` per execution.
    """
    current = sql
    for attempt in range(patience + 1):
        outcome = db.execute(current, timeout)
        if attempts_out is not None:
            attempts_out.append(ExecutionAttempt(current, outcome.kind,
                                                 outcome.message))
        if not outcome.is_error or attempt == patience:
            return current, outcome
        prompt = repair_prompt(current, outcome.message)
        current = _clean_sql(request_completion(completer, prompt))


def _deterministic_rewrite(parsed: ParsedQuery,
                           feedback: CalibrationFeedback) -> str:
    """Splice each change of ``feedback`` into the query's text.  A match
    in the predicate's own column keeps the query's (possibly qualified)
    spelling of it; a match in another column uses the bare matched name."""
    changes = []
    for pred, match in feedback.changes():
        column = pred.ref if in_own_column(pred, match) else ColumnRef(None, match.column)
        changes.append((pred, column, replacement_value(pred, match)))
    return rewrite_predicates(parsed, changes, feedback.quoted_columns)


def apply_calibration(completer, sql: str, parsed: ParsedQuery | None,
                      feedback: CalibrationFeedback) -> str:
    """Send calibration feedback on ``sql`` to the completer and return the
    rewrite.  ``parsed`` is the parse of ``sql``; None, for a query that
    does not parse, goes only with empty feedback.

    Identity feedback (every suggestion equal to its predicate) returns
    ``sql`` unchanged without any endpoint call.  A rewrite that does not
    parse falls back to applying the replacements deterministically.
    """
    pairs = feedback.changes()
    if not pairs:
        return sql
    prompt = calibration_prompt(sql, pairs)
    rewritten = _clean_sql(request_completion(completer, prompt))
    try:
        parse_sql(rewritten)
    except SqlParseError:
        log.warning("calibration rewrite does not parse; applying "
                    "deterministic replacement instead")
        return _deterministic_rewrite(parsed, feedback)
    return rewritten


def _compute_feedback(db: Database, sql: str, config: SelectionConfig
                      ) -> tuple[ParsedQuery | None, CalibrationFeedback]:
    try:
        parsed = parse_sql(sql)
    except SqlParseError as exc:
        # The query executed, so it is valid for the engine even if it is
        # outside the dialect this package can analyze; skip calibration.
        log.debug("skipping calibration for unparseable query: %s", exc)
        return None, CalibrationFeedback()
    return parsed, multi_level_match(db, parsed, config.threshold,
                                     config.backend, config.scan_cap)


def calibrate_deterministic(db: Database, sql: str,
                            config: SelectionConfig
                            ) -> tuple[str, CalibrationFeedback]:
    """Match every text predicate and splice the suggested replacements
    directly into the query's text; no completer involved.

    Unlike the selection loop this requires ``sql`` to parse (raises
    SqlParseError otherwise).  Identity suggestions are dropped; feedback
    proposing no change returns ``sql`` unchanged.
    """
    parsed = parse_sql(sql)
    feedback = multi_level_match(db, parsed, config.threshold,
                                 config.backend, config.scan_cap)
    if not feedback.changes():
        return sql, feedback
    return _deterministic_rewrite(parsed, feedback), feedback


def select_query(question: str, schema: DatabaseSchema, db: Database,
                 sketches: list[SqlSketch],
                 config: SelectionConfig) -> tuple[str | None, SelectionTrace]:
    """Try sketches in rank order; return the first calibrated query whose
    execution yields rows, plus a full trace.

    Null results (and queries the calibration rewrite broke) advance to
    the next sketch.  With everything exhausted, the fallback is the last
    calibrated query that still executed, else the last raw completion,
    with trace status Exhausted.
    """
    if not sketches:
        raise EmptyCandidateError("select_query needs at least one sketch")
    trace = SelectionTrace(question)
    last_calibrated: str | None = None
    last_completion: str | None = None

    for sketch in sorted(sketches, key=lambda s: s.rank):
        record = SketchAttempt(sketch.rank, None)
        trace.sketches.append(record)
        try:
            completion = complete_sketch(config.completer, question, schema,
                                         sketch)
        except IndexResolutionError as exc:
            log.warning("sketch %d has unresolvable index tokens: %s",
                        sketch.rank, exc)
            record.status = "invalid_sketch"
            continue
        record.completion = completion
        last_completion = completion

        executable, outcome = execution_check(
            completion, db, config.patience, config.completer,
            timeout=config.statement_timeout, attempts_out=record.executions)
        record.rewrites = len(record.executions) - 1
        trace.last_run = (executable, outcome)
        if outcome.is_error:
            record.status = "no_executable"
            continue

        parsed, feedback = _compute_feedback(db, executable, config)
        record.calibration = _feedback_to_dicts(feedback)
        calibrated = apply_calibration(config.completer, executable, parsed,
                                       feedback)
        record.calibrated_sql = calibrated

        if calibrated != executable:
            outcome = db.execute(calibrated, config.statement_timeout)
            trace.last_run = (calibrated, outcome)
        record.final_outcome = outcome.kind
        if outcome.is_rows:
            record.status = "selected"
            trace.status = STATUS_SELECTED
            trace.final_sql = calibrated
            return calibrated, trace
        if outcome.is_error:
            record.status = "error_after_calibration"
        else:
            record.status = "null_result"
            last_calibrated = calibrated

    final = last_calibrated if last_calibrated is not None else last_completion
    trace.status = STATUS_EXHAUSTED
    trace.final_sql = final
    return final, trace
