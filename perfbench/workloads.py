"""The four benchmark workloads.

Each drives the package only through public entry points, looked up on
their modules at call time so that a traced run's wrappers apply:
``load_dataset``/``evaluate``, ``translate_question`` with the HTTP role
clients, and ``calibrate_deterministic`` on a held ``Database``.  Every
op is checked against the output the generator expects.

A workload's ``setup`` is the program-side set-up the harness times
(``setup_s``); ``run`` measures one phase of ops.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import sketchsql.benchmark as benchmark
import sketchsql.selection as selection
from sketchsql.execution import Database
from sketchsql.gateway import (
    AlignerClient,
    CompleterClient,
    EndpointConfig,
    SketchProviderClient,
    StubScript,
    clients_from_script,
)

from spans import longest_chain
from speed import REFERENCE_S

MODEL_DELAY_MS = 50          # stands in for one model round trip
FAIL_PER_MILLE = 5           # requests that get one 503 before succeeding
RETRY_BACKOFF_S = 0.05       # client backoff, on the scale of a round trip
TRANSLATE_CLIENTS = 2


class OutputMismatch(Exception):
    """A check that fails the whole run rather than one op."""


# Calibration cycles are timed in laps of this many ops, with the speed
# gauge sampled between laps.
LAP_OPS = 10


@dataclass
class Unit:
    """One measured stretch of ops: an evaluate pass, a query cycle, or a
    whole translate-rtt phase; raw and scaled to the reference speed."""

    ops: int
    seconds: float
    latencies_ms: list
    scaled_seconds: float
    scaled_ms: list


@dataclass
class Phase:
    """What one measured phase did."""

    ops: int = 0
    failed: int = 0
    units: list = field(default_factory=list)
    tokens: list = field(default_factory=list)      # per op or per pass
    round_trips: list = field(default_factory=list)
    accuracy: float | None = None
    server: dict | None = None
    mismatches: list = field(default_factory=list)  # the first few


def _note_mismatch(phase: Phase, what: str) -> None:
    phase.failed += 1
    if len(phase.mismatches) < 5:
        phase.mismatches.append(what)


class _UnitLog:
    """Builds a phase's units from laps, each timed at one machine speed:
    the gauge is sampled before and after every lap.  Without a gauge,
    times stay as measured (translate-rtt, whose time is the stub's fixed
    delay rather than the CPU)."""

    def __init__(self, phase: Phase, gauge=None):
        self.phase, self.gauge = phase, gauge
        self.reference = gauge.sample() if gauge is not None else None
        self._start()

    def _start(self):
        self.seconds, self.scaled_seconds = 0.0, 0.0
        self.latencies_ms, self.scaled_ms = [], []

    def lap(self, seconds, latencies_ms):
        factor = 1.0
        if self.gauge is not None:
            after = self.gauge.sample()
            factor = REFERENCE_S / ((self.reference + after) / 2)
            self.reference = after
        self.seconds += seconds
        self.scaled_seconds += seconds * factor
        self.latencies_ms += latencies_ms
        self.scaled_ms += [ms * factor for ms in latencies_ms]

    def close(self, ops):
        self.phase.units.append(Unit(ops, self.seconds, self.latencies_ms,
                                     self.scaled_seconds, self.scaled_ms))
        self._start()


# --------------------------------------------------------------------------

class EvalStub:
    """Closed loop, 1 worker: ``evaluate`` over the whole seeded dataset,
    pass after pass, with in-process stub clients and no model delay."""

    name = "eval-stub"

    def __init__(self, data: Path, work: Path):
        self.data = data
        expected = json.loads((data / "expected.json").read_text("utf-8"))
        self.expected = expected["examples"]
        self.expected_accuracy = expected["execution_accuracy"]

    def setup(self) -> dict:
        started = time.perf_counter()
        bundle = benchmark.load_dataset(self.data / "dataset")
        load_s = time.perf_counter() - started
        clients = clients_from_script(StubScript.load(self.data / "script.json"))
        config = benchmark.EvalConfig(
            selection=selection.SelectionConfig(completer=clients["completer"]),
            provider=clients["sketch"], aligner=clients["aligner"], workers=1)
        return {"bundle": bundle, "config": config, "load_s": load_s}

    def fresh(self):
        """Nothing to reset: the dataset is never written."""

    def run(self, ctx, gauge, seconds, max_units=None, tracer=None,
            start=0) -> Phase:
        """Evaluate passes for ``seconds``, or ``max_units`` passes."""
        phase = Phase()
        log = _UnitLog(phase, gauge)
        started = time.perf_counter()
        passes = 0
        while (time.perf_counter() - started < seconds) if max_units is None \
                else passes < max_units:
            if tracer is not None:
                # evaluate opens new Database handles on every call, so
                # repeats count within one pass only.
                tracer.forget_content()
            t0 = time.perf_counter()
            report = benchmark.evaluate(ctx["config"], ctx["bundle"])
            dt = time.perf_counter() - t0
            passes += 1
            phase.ops += report.total
            log.lap(dt, [r.latency * 1000.0 for r in report.per_example])
            log.close(report.total)
            phase.tokens.append(report.tokens_average)
            for i, (got, want) in enumerate(zip(report.per_example,
                                                self.expected)):
                if (got.status in ("Error", "Timeout") or got.error
                        or got.status != want["status"]
                        or got.predicted_sql != want["predicted_sql"]
                        or got.correct != want["correct"]):
                    _note_mismatch(phase, f"example {i} ({want['path']}): "
                                          f"{got.status} {got.predicted_sql!r} "
                                          f"{got.error or ''}")
            if report.total != len(self.expected):
                raise OutputMismatch(f"report has {report.total} examples, "
                                     f"expected {len(self.expected)}")
            if abs(report.execution_accuracy - self.expected_accuracy) > 1e-12:
                raise OutputMismatch(
                    f"execution_accuracy {report.execution_accuracy} differs "
                    f"from the generator's {self.expected_accuracy}")
            phase.accuracy = report.execution_accuracy
        return phase

    round_units = 1

    def close(self):
        pass


# --------------------------------------------------------------------------

class _Recorder:
    """Model calls of one load client's current op, seen by thin client
    wrappers that the benchmark owns."""

    def __init__(self):
        self.calls: list = []

    def record(self, started, request, response):
        self.calls.append((started, time.perf_counter(), request, response))


class _RecordingProvider:
    def __init__(self, inner, recorder):
        self._inner, self._recorder = inner, recorder

    def generate(self, task_input, k):
        started, result = time.perf_counter(), None
        try:
            result = self._inner.generate(task_input, k)
            return result
        finally:
            self._recorder.record(started, {"input": task_input}, result)


class _RecordingAligner:
    def __init__(self, inner, recorder):
        self._inner, self._recorder = inner, recorder

    def score(self, sequences):
        started, result = time.perf_counter(), None
        try:
            result = self._inner.score(sequences)
            return result
        finally:
            self._recorder.record(started, {"sequences": list(sequences)},
                                  result)


class _RecordingCompleter:
    def __init__(self, inner, recorder):
        self._inner, self._recorder = inner, recorder

    def complete(self, prompt, **params):
        started, result = time.perf_counter(), None
        try:
            result = self._inner.complete(prompt, **params)
            return result
        finally:
            self._recorder.record(started, {"prompt": prompt}, result)


class TranslateRtt:
    """Closed loop, 2 clients: ``translate_question`` with the HTTP role
    clients against the stub model server, which waits a fixed delay per
    request and answers concurrently."""

    name = "translate-rtt"

    def __init__(self, data: Path, work: Path):
        self.data = data
        self.expected = json.loads(
            (data / "expected.json").read_text("utf-8"))["examples"]
        server = Path(__file__).with_name("stub_server.py")
        self.server = subprocess.Popen(
            [sys.executable, str(server), "--script",
             str(data / "script.json"), "--delay-ms", str(MODEL_DELAY_MS),
             "--fail-per-mille", str(FAIL_PER_MILLE)],
            stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub model server did not start")
        self.base_url = f"http://127.0.0.1:{int(line)}"

    def _server(self, path, method="GET"):
        request = urllib.request.Request(self.base_url + path, method=method,
                                         data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read() or b"{}")

    def setup(self) -> dict:
        started = time.perf_counter()
        bundle = benchmark.load_dataset(self.data / "dataset")
        load_s = time.perf_counter() - started
        endpoint = EndpointConfig(self.base_url, backoff=RETRY_BACKOFF_S)
        databases = {db_id: Database(path)
                     for db_id, path in bundle.db_paths.items()}
        for db in databases.values():
            db.schema
        return {"bundle": bundle, "databases": databases,
                "provider": SketchProviderClient(endpoint),
                "aligner": AlignerClient(endpoint),
                "completer": CompleterClient(endpoint), "load_s": load_s}

    def fresh(self):
        """Nothing to reset: the server's counters restart with each run."""

    def run(self, ctx, gauge, seconds, max_units=None, tracer=None,
            start=0) -> Phase:
        """Questions for ``seconds``, or ``max_units`` questions from the
        ``start``-th one on."""
        self._server("/reset", "POST")
        bundle = ctx["bundle"]
        examples = bundle.examples
        phase = Phase()
        lock = threading.Lock()
        latencies: list = []
        started = time.perf_counter()
        deadline = None if max_units is not None else started + seconds

        def client(index):
            recorder = _Recorder()
            provider = _RecordingProvider(ctx["provider"], recorder)
            aligner = _RecordingAligner(ctx["aligner"], recorder)
            config = selection.SelectionConfig(
                completer=_RecordingCompleter(ctx["completer"], recorder))
            op = start + index
            while (time.perf_counter() < deadline) if max_units is None \
                    else op < start + max_units:
                i = op % len(examples)
                example, want = examples[i], self.expected[i]
                recorder.calls = []
                t0 = time.perf_counter()
                problem = None
                try:
                    sql, trace = benchmark.translate_question(
                        example.question, bundle.schemas[example.db_id],
                        ctx["databases"][example.db_id], provider, aligner,
                        config)
                    if sql != want["predicted_sql"] or \
                            trace.status != want["status"]:
                        problem = f"{trace.status} {sql!r}"
                except Exception as exc:  # an op that raises is a failed op
                    problem = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                tokens = benchmark.measure_tokens(
                    [(req, resp) for _, _, req, resp in recorder.calls])
                chain = longest_chain([(s, e) for s, e, _, _ in recorder.calls])
                with lock:
                    phase.ops += 1
                    latencies.append(dt * 1000.0)
                    phase.tokens.append(tokens)
                    phase.round_trips.append(chain)
                    if problem is not None:
                        _note_mismatch(phase, f"question {i} "
                                              f"({want['path']}): {problem}")
                op += TRANSLATE_CLIENTS

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(TRANSLATE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log = _UnitLog(phase)
        log.lap(time.perf_counter() - started, latencies)
        log.close(phase.ops)
        phase.server = self._server("/stats")
        return phase

    round_units = 10 * TRANSLATE_CLIENTS

    def close(self):
        if self.server.poll() is None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()


# --------------------------------------------------------------------------

def _feedback_rows(feedback) -> list:
    return [[pred.column, pred.operator, pred.value, match.column,
             match.value, match.level.name]
            for pred, match in feedback.replacements]


class CalibrateStatic:
    """Closed loop, 1 client: ``calibrate_deterministic`` on one held
    ``Database``, cycling through a fixed query list; content is fixed."""

    name = "calibrate-static"

    def __init__(self, data: Path, work: Path):
        self.path = data / "calib.sqlite"
        self.ops = json.loads((data / "calib.json").read_text("utf-8"))["queries"]

    def fresh(self):
        """Make the phase's database; fixed content needs nothing."""

    def setup(self) -> dict:
        db = Database(self.path)
        db.schema
        return {"db": db, "config": selection.SelectionConfig(completer=None)}

    def write(self, ctx, op, tracer):
        """The write before an op; fixed content has none."""

    def run(self, ctx, gauge, seconds, max_units=None, tracer=None,
            start=0) -> Phase:
        """Whole query cycles for ``seconds``, or ``max_units`` ops."""
        phase = Phase()
        log = _UnitLog(phase, gauge)
        db, config = ctx["db"], ctx["config"]
        started = time.perf_counter()
        lap_started = started
        latencies: list = []
        i = 0
        # Stop only at the end of a cycle, so every run measures the same
        # mix of queries.
        while True:
            if i and (i % LAP_OPS == 0 or i % len(self.ops) == 0):
                now = time.perf_counter()
                log.lap(now - lap_started, latencies)
                if i % len(self.ops) == 0:
                    log.close(len(self.ops))
                    if max_units is None and now - started >= seconds:
                        break
                lap_started, latencies = time.perf_counter(), []
            if max_units is not None and i >= max_units:
                break
            op = self.ops[i % len(self.ops)]
            self.write(ctx, op, tracer)
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            problem = None
            try:
                sql, feedback = selection.calibrate_deterministic(
                    db, op["query"], config)
                if sql != op["expected_sql"] or \
                        _feedback_rows(feedback) != op["feedback"]:
                    problem = f"got {sql!r} {_feedback_rows(feedback)}"
            except Exception as exc:  # an op that raises is a failed op
                problem = f"{type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter() - t0) * 1000.0)
            phase.ops += 1
            if problem is not None:
                _note_mismatch(phase, f"op {i % len(self.ops)}: {problem}")
            i += 1
        return phase

    @property
    def round_units(self) -> int:
        return len(self.ops)

    def close(self):
        pass


class CalibrateChurn(CalibrateStatic):
    """Closed loop, 1 client: the calibration queries with a small
    committed insert or update before each call, through the benchmark's
    own writable connection, on a fresh copy of the generated database."""

    name = "calibrate-churn"

    def __init__(self, data: Path, work: Path):
        self.source = data / "calib.sqlite"
        self.path = work / "churn.sqlite"
        self.ops = json.loads((data / "calib.json").read_text("utf-8"))["churn"]
        self.writer = None

    def fresh(self):
        if self.writer is not None:
            self.writer.close()
        shutil.copyfile(self.source, self.path)
        self.writer = sqlite3.connect(self.path)
        # The benchmark's own writes need no durability.
        self.writer.execute("PRAGMA synchronous=OFF")

    def write(self, ctx, op, tracer):
        self.writer.execute(op["write"]["sql"], op["write"]["params"])
        self.writer.commit()
        if tracer is not None:
            tracer.content_changed(ctx["db"].path)

    def close(self):
        if self.writer is not None:
            self.writer.close()
            self.writer = None
        if self.path.exists():
            os.remove(self.path)


WORKLOADS = {w.name: w for w in (EvalStub, TranslateRtt, CalibrateStatic,
                                 CalibrateChurn)}
