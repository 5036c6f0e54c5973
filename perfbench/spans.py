"""Spans and counters for the benchmark's traced runs.

Tracing wraps, from outside the package, the public functions and methods
each layer module exposes, at the names their callers look up (for
example ``sketchsql.benchmark.select_query`` or ``Database.execute``).
Nothing under ``src/`` is changed; ``install`` returns a function that
puts every original back.  Spans record name, start, end, parent span and
op id; they stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

GATEWAY_KINDS = ("generate", "score", "complete", "repair", "calibrate")
ROLES = ("sketch", "aligner", "completer")
LEVELS = ("column", "table", "database")

# Completion kind from the prompt's fixed opening words.
_PROMPT_KINDS = (("Complete the following SQL sketch", "complete"),
                 ("The SQL query failed to execute.", "repair"),
                 ("SQL query: ", "calibrate"))


def completion_kind(prompt: str) -> str:
    for prefix, kind in _PROMPT_KINDS:
        if prompt.startswith(prefix):
            return kind
    return "complete"


def union_ms(intervals) -> float:
    """Total length, in ms, covered by (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total * 1000.0


def longest_chain(intervals) -> int:
    """Longest run of calls each starting after the previous one ended."""
    calls = sorted(intervals)
    best = [1] * len(calls)
    for i, (start, _) in enumerate(calls):
        for j in range(i):
            if calls[j][1] <= start and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best, default=0)


class Tracer:
    """In-memory spans and counters; safe to use from several threads."""

    def __init__(self):
        self.spans: list = []           # [id, name, start, end, parent, op]
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.last_op = None
        self.counters: dict = defaultdict(float)
        self._epochs: dict = {}
        self._seen: dict = {"statement": set(), "scan": set()}

    # -- ops and spans

    def begin_op(self) -> int:
        op = next(self._ops)
        self._local.op = op
        self.last_op = op
        return op

    def current_op(self):
        return getattr(self._local, "op", self.last_op)

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [next(self._ids), name, time.perf_counter(), None,
                  stack[-1] if stack else None, self.current_op()]
        self.spans.append(record)
        stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    # -- content versions, for the repeat ratios

    def content_changed(self, path: str) -> None:
        """Called after a committed write to the database at ``path``."""
        with self._lock:
            self._epochs[path] = self._epochs.get(path, 0) + 1

    def forget_content(self) -> None:
        """Start the repeat ratios afresh, as for new database handles."""
        with self._lock:
            for seen in self._seen.values():
                seen.clear()

    def first_time(self, kind: str, key: tuple) -> bool:
        """True the first time ``key`` is seen on the current content of
        the database named first in ``key``."""
        with self._lock:
            versioned = key + (self._epochs.get(key[0], 0),)
            if versioned in self._seen[kind]:
                return False
            self._seen[kind].add(versioned)
            return True

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op in self.spans:
                json.dump({"id": sid, "name": name, "start": start,
                           "end": end, "parent": parent, "op": op}, handle)
                handle.write("\n")


# --------------------------------------------------------------------------
# Wrappers

def install(tracer: Tracer):
    """Wrap every traced name; return a function that removes the wrappers."""
    import sketchsql.benchmark as benchmark
    import sketchsql.calibration as calibration
    import sketchsql.execution as execution
    import sketchsql.selection as selection
    import sketchsql.sketches as sketches

    undo = []
    local = threading.local()

    def wrap(owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            raise RuntimeError(f"cannot trace {owner.__name__}.{attr}: "
                               "no such name")
        wrapper = make(original)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))

    def spanned(name, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(args, kwargs, result)
                    return result
            return wrapper
        return make

    # benchmark: op boundaries and scoring
    def translate(original):
        def wrapper(*args, **kwargs):
            tracer.begin_op()
            with tracer.span("benchmark.translate"):
                return original(*args, **kwargs)
        return wrapper

    wrap(benchmark, "translate_question", translate)
    wrap(benchmark, "results_equal", spanned("benchmark.results_equal"))

    # sketches
    wrap(benchmark, "build_sketches", spanned("sketches.build"))

    # gateway: calls, tokens and waiting, per role
    from sketchsql.benchmark import measure_tokens

    def generate_done(args, kwargs, result):
        task_input = args[1] if len(args) > 1 else kwargs["task_input"]
        tracer.count("calls.generate")
        tracer.count("tokens.sketch", measure_tokens([({"input": task_input},
                                                       result)]))

    def score_done(args, kwargs, result):
        sequences = args[1] if len(args) > 1 else kwargs["sequences"]
        tracer.count("calls.score")
        tracer.count("tokens.aligner", measure_tokens(
            [({"sequences": list(sequences)}, result)]))

    wrap(sketches, "request_candidates",
         spanned("gateway.generate", generate_done))
    wrap(sketches, "request_alignment_scores",
         spanned("gateway.score", score_done))

    def completion(original):
        def wrapper(*args, **kwargs):
            prompt = args[1] if len(args) > 1 else kwargs["prompt"]
            kind = completion_kind(prompt)
            with tracer.span(f"gateway.{kind}"):
                result = original(*args, **kwargs)
            tracer.count(f"calls.{kind}")
            tracer.count("tokens.completer",
                         measure_tokens([({"prompt": prompt}, result)]))
            if kind == "calibrate":
                local.calibrate_response = result
            return result
        return wrapper

    wrap(selection, "request_completion", completion)

    # selection
    def select_done(args, kwargs, result):
        _, trace = result
        tracer.count("selection.ops")
        tracer.count("selection.sketches_tried", len(trace.sketches))
        if any(s.status == "selected" and s.rank == 0 for s in trace.sketches):
            tracer.count("selection.first_sketch")

    wrap(benchmark, "select_query", spanned("selection.select", select_done))

    def apply_calibration(original):
        # A fallback is a calibration rewrite the pipeline did not use.
        def wrapper(*args, **kwargs):
            local.calibrate_response = None
            result = original(*args, **kwargs)
            response = local.calibrate_response
            if response is not None and result != response.strip():
                tracer.count("selection.fallback_rewrites")
            return result
        return wrapper

    wrap(selection, "apply_calibration", apply_calibration)

    # execution
    def execute_done(args, kwargs, outcome):
        db, sql = args[0], args[1] if len(args) > 1 else kwargs["sql"]
        tracer.count("execution.statements")
        if not tracer.first_time("statement", (db.path, sql)):
            tracer.count("execution.repeat_statements")
        if outcome.is_error:
            tracer.count("execution.errors")
        elif outcome.result is not None:
            tracer.count("execution.rows", len(outcome.result.rows))

    Database = execution.Database
    wrap(Database, "execute", spanned("execution.execute", execute_done))

    def connect(original):
        def wrapper(*args, **kwargs):
            tracer.count("execution.connects")
            return original(*args, **kwargs)
        return wrapper

    wrap(Database, "connect", connect)

    # calibration
    def scan_done(args, kwargs, values):
        db, table, column = args[:3]
        tracer.count("calibration.scans")
        tracer.count("calibration.values", len(values))
        if not tracer.first_time("scan", (db.path, table.lower(),
                                          column.lower())):
            tracer.count("calibration.repeat_scans")

    wrap(Database, "distinct_text_values",
         spanned("calibration.scan", scan_done))

    def score_candidates_done(args, kwargs, result):
        candidates = args[0] if args else kwargs["candidates"]
        tracer.count("calibration.scores", len(candidates))

    wrap(calibration, "best_match",
         spanned("calibration.score", score_candidates_done))

    def match_done(args, kwargs, feedback):
        tracer.count("calibration.matches")
        for _, match in feedback.replacements:
            tracer.count(f"calibration.level.{match.level.name.lower()}")

    for name in ("multi_level_match", "single_level_match"):
        wrap(selection, name, spanned("calibration.match", match_done))

    # sql_analysis and schema, at every module that looks them up
    for module in (benchmark, selection, sketches):
        wrap(module, "parse_sql", spanned("sql_analysis.parse"))
    for module in (selection, sketches):
        wrap(module, "serialize_schema", spanned("schema.serialize"))

    def schema_read_done(args, kwargs, result):
        tracer.count("execution.connects")

    for module in (benchmark, execution):
        wrap(module, "schema_from_sqlite",
             spanned("schema.read", schema_read_done))

    def remove():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove


# --------------------------------------------------------------------------
# Per-layer metrics from one traced phase

def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer numbers from the spans and counters of ``ops`` ops."""
    spans = [s for s in tracer.spans if s[3] is not None]
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    totals = defaultdict(float)
    selves = defaultdict(float)
    per_op_gateway = defaultdict(list)
    score_ms = 0.0
    for sid, name, start, end, parent, op in spans:
        ms = (end - start) * 1000.0
        totals[name] += ms
        selves[name] += ms - union_ms((c[2], c[3]) for c in children[sid])
        if name.startswith("gateway."):
            per_op_gateway[op].append((start, end))
        if name in ("execution.execute", "benchmark.results_equal"):
            ancestor = parent
            while ancestor is not None and \
                    by_id[ancestor][1] != "benchmark.translate":
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                score_ms += ms

    c = tracer.counters
    n = max(ops, 1)

    def ratio(part, whole):
        return c[part] / c[whole] if c[whole] else 0.0

    out = {
        "sketches.build_ms_per_op": totals["sketches.build"] / n,
        "gateway.wait_ms_per_op":
            sum(union_ms(v) for v in per_op_gateway.values()) / n,
        "selection.self_ms_per_op": selves["selection.select"] / n,
        "selection.sketches_tried_per_op": c["selection.sketches_tried"] / n,
        "selection.first_sketch_ratio": c["selection.first_sketch"] / n,
        "selection.fallback_rewrites": c["selection.fallback_rewrites"] / n,
        "execution.statements_per_op": c["execution.statements"] / n,
        "execution.execute_ms_per_op": totals["execution.execute"] / n,
        "execution.connects_per_op": c["execution.connects"] / n,
        "execution.repeat_statement_ratio":
            ratio("execution.repeat_statements", "execution.statements"),
        "execution.rows_fetched_per_op": c["execution.rows"] / n,
        "execution.error_outcomes_per_op": c["execution.errors"] / n,
        "calibration.match_ms_per_op": totals["calibration.match"] / n,
        "calibration.scans_per_op": c["calibration.scans"] / n,
        "calibration.scan_ms_per_op": totals["calibration.scan"] / n,
        "calibration.values_scanned_per_op": c["calibration.values"] / n,
        "calibration.repeat_scan_ratio":
            ratio("calibration.repeat_scans", "calibration.scans"),
        "calibration.scores_per_op": c["calibration.scores"] / n,
        "calibration.score_ms_per_op": totals["calibration.score"] / n,
        "sql_analysis.parses_per_op":
            sum(1 for s in spans if s[1] == "sql_analysis.parse") / n,
        "sql_analysis.parse_ms_per_op": totals["sql_analysis.parse"] / n,
        "schema.serializations_per_op":
            sum(1 for s in spans if s[1] == "schema.serialize") / n,
        "schema.serialize_ms_per_op": totals["schema.serialize"] / n,
        "benchmark.score_ms_per_op": score_ms / n,
    }
    for kind in GATEWAY_KINDS:
        out[f"gateway.calls_per_op.{kind}"] = c[f"calls.{kind}"] / n
    for role in ROLES:
        out[f"gateway.tokens_per_op.{role}"] = c[f"tokens.{role}"] / n
    matched = sum(c[f"calibration.level.{lv}"] for lv in LEVELS)
    for lv in LEVELS:
        out[f"calibration.matches.{lv}"] = (
            c[f"calibration.level.{lv}"] / matched if matched else 0.0)
    out["model_round_trips_per_op"] = sum(
        longest_chain(v) for v in per_op_gateway.values()) / n
    return out
