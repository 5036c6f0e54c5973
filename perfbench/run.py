"""Pipeline benchmark for sketchsql.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of a checkout.  The inputs for a seed are generated
once by ``perfbench/gen.py`` into ``.perfbench_cache/`` and reused; the
program under test is imported from ``src/``.  With ``--trace 0`` the run
measures the end-to-end metrics with tracing off, CPU-bound times scaled
to a reference machine speed (see ``speed.py``); with ``--trace 1`` it
alternates untraced and traced rounds of the same ops and reports the
per-layer metrics and the tracing overhead.  Every op is checked against
the generator's expected output.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name
-> value and unit); the line before it summarises the rest (failure rate,
accuracy, tokens, unscaled times, stub-server counters).  ``--list``
prints every metric with its unit and the workloads it applies to.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import GEN_VERSION
from spans import Tracer, install, layer_metrics
from speed import REFERENCE_S, SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
KEEP_SEEDS = 12
# Set-up is repeated until this much time is spent (within the rep
# bounds) and the median is reported: a single set-up takes 1-10 ms.
SETUP_BUDGET_S = 0.3
SETUP_REPS = (9, 200)


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _list_metrics() -> int:
    spec = _load_spec()
    notes = json.loads((HERE / "metrics.json").read_text("utf-8"))
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            note = notes["metrics"][metric["name"]]
            print(f"{metric['name']:45s} {metric['unit']:9s} {kind:10s} "
                  f"{', '.join(note['workloads'])}")
    return 0


def _inputs(seed: int) -> Path:
    """The generated inputs for ``seed``, made on first use."""
    out = CACHE / f"seed-{seed}"
    version = out / "VERSION"
    if not (version.exists() and version.read_text() == str(GEN_VERSION)):
        CACHE.mkdir(exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--seed",
                        str(seed), "--out", str(out)], check=True)
    os.utime(out)
    seeds = sorted(CACHE.glob("seed-*"), key=lambda p: p.stat().st_mtime)
    for old in seeds[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return out


def _p90(values) -> float:
    """Nearest-rank 90th percentile; with >= 100 samples, at least ten lie
    beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _src_lines() -> int:
    return sum(len(p.read_text("utf-8").splitlines())
               for p in (ROOT / "src" / "sketchsql").rglob("*.py"))


def _timed_setups(workload, gauge) -> tuple:
    """Set up repeatedly.  Return the median time scaled to the reference
    speed, the median raw ``load_dataset`` time (0 where the workload has
    none) and the last context."""
    times, loads, ctx = [], [], None
    before = gauge.sample()
    low, high = SETUP_REPS
    while len(times) < low or (sum(times) < SETUP_BUDGET_S
                               and len(times) < high):
        ctx = None
        started = time.perf_counter()
        ctx = workload.setup()
        times.append(time.perf_counter() - started)
        loads.append(ctx.get("load_s", 0.0))
    factor = REFERENCE_S / ((before + gauge.sample()) / 2)
    return statistics.median(times) * factor, statistics.median(loads), ctx


def _seconds_per_op(phase) -> float:
    return sum(unit.seconds for unit in phase.units) / phase.ops


def _absorb(total, phase) -> None:
    """Add one round's phase into the running ``total``."""
    total.ops += phase.ops
    total.failed += phase.failed
    total.units += phase.units
    total.tokens += phase.tokens
    total.round_trips += phase.round_trips
    total.mismatches += phase.mismatches
    total.accuracy = phase.accuracy
    if phase.server is not None:
        server = total.server or {"attempts": 0, "retries": 0,
                                  "max_in_flight": 0}
        for key in ("attempts", "retries"):
            server[key] += phase.server[key]
        server["max_in_flight"] = max(server["max_in_flight"],
                                      phase.server["max_in_flight"])
        total.server = server


def _traced_rounds(workload, ctx, gauge, seconds, tracer) -> tuple:
    """Alternate an untraced and a traced round of the same size until
    ``seconds`` pass.  Adjacent rounds see the same machine speed, so the
    median ratio of their times is the tracing overhead."""
    from workloads import Phase

    plain, traced, ratios = Phase(), Phase(), []
    started, done = time.perf_counter(), 0
    while time.perf_counter() - started < seconds:
        size = workload.round_units
        untraced = workload.run(ctx, gauge, None, size, None, done)
        remove = install(tracer)
        try:
            with_spans = workload.run(ctx, gauge, None, size, tracer,
                                      done + size)
        finally:
            remove()
        done += 2 * size
        ratios.append(_seconds_per_op(with_spans)
                      / _seconds_per_op(untraced) - 1.0)
        _absorb(plain, untraced)
        _absorb(traced, with_spans)
    return plain, traced, statistics.median(ratios)


def _result(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for metric(s) {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def _end_to_end(phase, setup_s) -> tuple:
    """End-to-end values, and the same figures unscaled for the summary."""
    units = phase.units
    latencies = [ms for u in units for ms in u.scaled_ms]
    raw = [ms for u in units for ms in u.latencies_ms]
    if len(latencies) < 100:
        print(f"warning: only {len(latencies)} op latencies; p90 has fewer "
              "than ten samples beyond it", file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            u.ops / u.scaled_seconds for u in units),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": _p90(latencies),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unscaled = {
        "ops_per_s": statistics.median(u.ops / u.seconds for u in units),
        "op_ms_p50": statistics.median(raw),
        "op_ms_p90": _p90(raw),
        "speed_factor": statistics.median(
            u.scaled_seconds / u.seconds for u in units),
    }
    return values, unscaled


def run(args, spec) -> int:
    # Imports the package, so only once src/ is on the path.
    from workloads import WORKLOADS, OutputMismatch

    data = _inputs(args.seed)
    work = CACHE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    gauge = SpeedGauge()
    workload = WORKLOADS[args.workload](data, work)
    phases = []
    try:
        workload.fresh()
        setup_s, load_s, ctx = _timed_setups(workload, gauge)
        if not args.trace:
            phases.append(workload.run(ctx, gauge, args.seconds))
        else:
            tracer = Tracer()
            plain, traced, overhead = _traced_rounds(
                workload, ctx, gauge, args.seconds, tracer)
            phases += [plain, traced]
            trace_dir = CACHE / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    except OutputMismatch as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        for phase in phases:
            for line in phase.mismatches:
                print(f"mismatch: {line}", file=sys.stderr)
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    last = phases[-1]
    extra = {
        "op_fail_rate": failed / attempted,
        "execution_accuracy": last.accuracy or 0.0,
        "tokens_per_op": statistics.fmean(last.tokens) if last.tokens else 0.0,
    }
    if last.round_trips:
        # From the benchmark's own per-client wrappers (translate-rtt).
        extra["model_round_trips_per_op"] = statistics.fmean(last.round_trips)
    server = last.server or {}
    if not args.trace:
        values, unscaled = _end_to_end(last, setup_s)
        metrics = _result(spec["end_to_end"], values)
        print("summary: " + json.dumps(
            {**extra, "ops": last.ops, "unscaled": unscaled,
             "server": server}, sort_keys=True))
    else:
        values = layer_metrics(tracer, traced.ops)
        values.update(extra)
        values.update({
            "gateway.http_attempts": server.get("attempts", 0) / traced.ops,
            "gateway.http_retries": server.get("retries", 0) / traced.ops,
            "gateway.max_in_flight": server.get("max_in_flight", 0),
            "benchmark.load_dataset_ms": load_s * 1000.0,
            "trace.overhead_ratio": overhead,
            "src_lines": _src_lines(),
        })
        metrics = _result(spec["per_layer"], values)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Pipeline benchmark for sketchsql.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list:
        return _list_metrics()
    src = ROOT / "src"
    if not (src / "sketchsql" / "__init__.py").is_file():
        print(f"error: no sketchsql sources under {src}; run from the root "
              "of a sketchsql checkout", file=sys.stderr)
        return 2
    spec = _load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of "
                     f"{', '.join(w['name'] for w in spec['workloads'])}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(src))
    # The pipeline logs expected per-example warnings (fallback rewrites);
    # keep them off the benchmark's output.
    logging.getLogger("sketchsql").addHandler(logging.NullHandler())
    logging.getLogger("sketchsql").propagate = False
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
