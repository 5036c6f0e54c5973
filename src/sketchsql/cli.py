"""Command-line entry points for each pipeline stage.

Subcommands: ``serialize`` (schema text), ``translate`` (one question to
SQL), ``calibrate`` (deterministic predicate rewrite), ``evaluate``
(benchmark run with execution-accuracy report), ``derive-train``
(training-record extraction).  All commands are non-interactive; stdout
carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 error, 2 when ``translate`` exhausts every sketch.

Values can come from a YAML config file (``--config``); flags override
file values.  Endpoint tokens are read only from the environment
(``SKETCH_TOKEN``, ``ALIGNER_TOKEN``, ``COMPLETER_TOKEN``,
``ENCODER_TOKEN``), never from flags or files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .benchmark import (
    DEFAULT_EXAMPLE_TIMEOUT,
    EvalConfig,
    evaluate,
    format_summary,
    load_dataset,
    translate_question,
)
from .calibration import (
    DEFAULT_SCAN_CAP,
    DEFAULT_SIMILARITY_THRESHOLD,
    CharacterFuzzy,
    EmbeddingTable,
    SentenceEncoder,
    WordEmbedding,
)
from .errors import EmptyCandidateError, SketchSqlError
from .execution import Database
from .gateway import (
    AlignerClient,
    CompleterClient,
    EncoderClient,
    EndpointConfig,
    SketchProviderClient,
    StubScript,
    clients_from_script,
)
from .schema import load_schema_file, schema_from_sqlite, serialize_schema
from .selection import (
    DEFAULT_PATIENCE,
    STATUS_EXHAUSTED,
    SelectionConfig,
    calibrate_deterministic,
)
from .sketches import (
    DEFAULT_K_FROM,
    DEFAULT_K_KEYWORDS,
    DEFAULT_K_SELECT,
    combine_candidates,
    derive_aligner_records,
    derive_training_records,
    extract_sketch_from_sql,
    request_candidate_sets,
    write_records_jsonl,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXHAUSTED = 2

BACKENDS = ("fuzzy", "embedding", "encoder")
FORMATS = ("spider", "kaggledbqa")

TOKEN_ENV = {
    "sketch": "SKETCH_TOKEN",
    "aligner": "ALIGNER_TOKEN",
    "completer": "COMPLETER_TOKEN",
    "encoder": "ENCODER_TOKEN",
}


@dataclass
class RunConfig:
    """Every tunable of a run; each field doubles as a config-file key and
    has a flag of the same name."""

    sketch_url: str | None = None
    aligner_url: str | None = None
    completer_url: str | None = None
    encoder_url: str | None = None
    chat_adapter: bool = False
    stub_script: str | None = None
    k_select: int = DEFAULT_K_SELECT
    k_from: int = DEFAULT_K_FROM
    k_keywords: int = DEFAULT_K_KEYWORDS
    patience: int = DEFAULT_PATIENCE
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    backend: str = "fuzzy"
    embeddings: str | None = None
    scan_cap: int = DEFAULT_SCAN_CAP
    statement_timeout: float | None = None
    example_timeout: float = DEFAULT_EXAMPLE_TIMEOUT
    dataset: str | None = None
    format: str = "spider"
    examples_file: str | None = None
    workers: int = 1
    limit: int | None = None
    trace: str | None = None
    output: str | None = None
    record_latency: bool = True


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
# Key -> the value types a config file may give it: ``(int,)``,
# ``(str, NoneType)`` and so on.
_CONFIG_TYPES = {key: typing.get_args(hint) or (hint,)
                 for key, hint in typing.get_type_hints(RunConfig).items()}
# Key -> (least allowed value, whether that value itself is allowed).  A
# statement timeout of 0 clears the deadline.
_CONFIG_BOUNDS = {"k_select": (1, True), "k_from": (1, True),
                  "k_keywords": (1, True), "scan_cap": (1, True),
                  "workers": (1, True), "limit": (0, True),
                  "example_timeout": (0, False), "statement_timeout": (0, True)}


def _check_config_value(key: str, value) -> None:
    """Raise unless ``value`` fits field ``key``.  YAML booleans are not
    integers here; an integer is a valid float."""
    allowed = _CONFIG_TYPES[key]
    if isinstance(value, bool):
        ok = bool in allowed
    elif isinstance(value, int) and float in allowed:
        ok = True
    else:
        ok = isinstance(value, allowed)
    if not ok:
        expected = " or ".join("null" if t is type(None) else t.__name__
                               for t in allowed)
        raise SketchSqlError(f"config key {key!r} must be {expected}, "
                             f"got {type(value).__name__} {value!r}")


def effective_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    config = RunConfig()
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, encoding="utf-8") as handle:
                data = yaml.safe_load(handle) or {}
        except yaml.YAMLError as exc:
            raise SketchSqlError(f"config file is not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise SketchSqlError("config file must be a mapping of keys to values")
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise SketchSqlError(
                f"unknown config key(s): {', '.join(unknown)}")
        for key, value in data.items():
            _check_config_value(key, value)
            setattr(config, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    for key, (least, inclusive) in _CONFIG_BOUNDS.items():
        value = getattr(config, key)
        if value is not None and not (value >= least if inclusive
                                      else value > least):
            relation = "at least" if inclusive else "greater than"
            raise SketchSqlError(f"config key {key!r} must be {relation} "
                                 f"{least}, got {value!r}")
    if config.backend not in BACKENDS:
        raise SketchSqlError(f"unknown backend {config.backend!r}; "
                             f"expected one of {', '.join(BACKENDS)}")
    if config.format not in FORMATS:
        raise SketchSqlError(f"unknown dataset format {config.format!r}; "
                             f"expected one of {', '.join(FORMATS)}")
    return config


def build_clients(config: RunConfig) -> dict:
    """Stub clients from a script file, or HTTP clients from URLs.

    Roles without a URL map to None; commands check for the roles they
    actually need.  Auth tokens come only from the environment.
    """
    if config.stub_script:
        return clients_from_script(StubScript.load(config.stub_script))
    classes = {
        "sketch": SketchProviderClient,
        "aligner": AlignerClient,
        "completer": CompleterClient,
        "encoder": EncoderClient,
    }
    urls = {
        "sketch": config.sketch_url,
        "aligner": config.aligner_url,
        "completer": config.completer_url,
        "encoder": config.encoder_url,
    }
    clients = {}
    for role, url in urls.items():
        if not url:
            clients[role] = None
            continue
        endpoint = EndpointConfig(
            url,
            auth_token=os.environ.get(TOKEN_ENV[role]),
            chat_adapter=config.chat_adapter if role == "completer" else False,
        )
        clients[role] = classes[role](endpoint)
    return clients


def _require(clients: dict, *roles: str):
    for role in roles:
        if clients.get(role) is None:
            raise SketchSqlError(
                f"no {role} endpoint configured; pass --{role}-url "
                f"(--completer-url for completer) or --stub-script")
    return [clients[role] for role in roles]


def build_backend(config: RunConfig, clients: dict):
    if config.backend == "fuzzy":
        return CharacterFuzzy()
    if config.backend == "embedding":
        if not config.embeddings:
            raise SketchSqlError(
                "the embedding backend needs --embeddings <vector file>")
        return WordEmbedding(EmbeddingTable.load(config.embeddings))
    (encoder,) = _require(clients, "encoder")
    return SentenceEncoder(encoder)


def build_selection(config: RunConfig, completer, backend) -> SelectionConfig:
    return SelectionConfig(
        completer=completer,
        patience=config.patience,
        similarity_threshold=config.threshold,
        backend=backend,
        statement_timeout=config.statement_timeout,
        scan_cap=config.scan_cap,
    )


def _config_echo(config: RunConfig) -> dict:
    """The run configuration as echoed into reports and traces.

    Artifact destinations are omitted: they do not affect the run, and
    keeping them would make otherwise-identical reports differ by their
    own file names.
    """
    echo = dataclasses.asdict(config)
    del echo["output"], echo["trace"]
    return echo


# --------------------------------------------------------------------------
# Subcommands

def _schema_from_args(args: argparse.Namespace):
    if args.db:
        return schema_from_sqlite(args.db)
    if args.tables:
        schemas = load_schema_file(args.tables)
        if args.db_id:
            if args.db_id not in schemas:
                raise SketchSqlError(
                    f"database id {args.db_id!r} not in {args.tables} "
                    f"(has: {', '.join(sorted(schemas))})")
            return schemas[args.db_id]
        if len(schemas) == 1:
            return next(iter(schemas.values()))
        raise SketchSqlError(
            f"{args.tables} holds {len(schemas)} schemas; pick one with --db-id")
    raise SketchSqlError("provide a schema source: --db or --tables")


def cmd_serialize(args: argparse.Namespace, config: RunConfig) -> int:
    schema = _schema_from_args(args)
    if args.json:
        print(json.dumps(dataclasses.asdict(schema), indent=2,
                         ensure_ascii=False))
    else:
        print(serialize_schema(schema))
    return EXIT_OK


def _write_json(payload, path=None) -> None:
    """Write ``payload`` as indented, key-sorted JSON and a newline to the
    file at ``path``, or to stdout when ``path`` is None."""
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_translate(args: argparse.Namespace, config: RunConfig) -> int:
    clients = build_clients(config)
    provider, aligner, completer = _require(clients, "sketch", "aligner",
                                            "completer")
    db = Database(args.db)
    backend = build_backend(config, clients)
    selection = build_selection(config, completer, backend)
    sql, trace = translate_question(
        args.question, db.schema, db, provider, aligner, selection,
        config.k_select, config.k_from, config.k_keywords)
    if config.trace:
        _write_json({"config": _config_echo(config), "trace": trace.to_dict()},
                    config.trace)
        log.info("trace written to %s", config.trace)
    if sql is not None:
        print(sql)
    if trace.status == STATUS_EXHAUSTED:
        if sql is not None:
            log.warning("no sketch produced a non-empty result; printed "
                        "the best effort")
        else:
            log.warning("no sketch produced an executable query")
        return EXIT_EXHAUSTED
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace, config: RunConfig) -> int:
    clients = build_clients(config) if config.backend == "encoder" else {}
    backend = build_backend(config, clients)
    db = Database(args.db)
    selection = build_selection(config, None, backend)
    rewritten, feedback = calibrate_deterministic(db, args.sql, selection)
    for predicate, match in feedback.replacements:
        log.info("predicate %s %s %r -> %s = %r (score %.3f, %s level%s)",
                 predicate.column, predicate.operator, predicate.value,
                 match.column, match.value, match.score, match.level.label,
                 ", below threshold" if match.below_threshold else "")
    print(rewritten)
    return EXIT_OK


def _load_bundle(config: RunConfig):
    if not config.dataset:
        raise SketchSqlError("no dataset root; pass --dataset")
    bundle = load_dataset(config.dataset, config.format, config.examples_file)
    if config.limit is not None:
        bundle.examples = bundle.examples[:config.limit]
    return bundle


def cmd_evaluate(args: argparse.Namespace, config: RunConfig) -> int:
    bundle = _load_bundle(config)
    clients = build_clients(config)
    provider, aligner, completer = _require(clients, "sketch", "aligner",
                                            "completer")
    backend = build_backend(config, clients)
    eval_config = EvalConfig(
        selection=build_selection(config, completer, backend),
        provider=provider,
        aligner=aligner,
        k_select=config.k_select,
        k_from=config.k_from,
        k_keywords=config.k_keywords,
        workers=config.workers,
        trace=bool(config.trace),
        example_timeout=config.example_timeout,
        record_latency=config.record_latency,
    )
    report = evaluate(eval_config, bundle)
    payload = {"config": _config_echo(config), **report.to_dict()}
    if config.output:
        _write_json(payload, config.output)
        log.info("report written to %s", config.output)
    else:
        _write_json(payload)
    if config.trace:
        _write_json({"config": _config_echo(config),
                     "traces": [r.trace for r in report.per_example]},
                    config.trace)
        log.info("traces written to %s", config.trace)
    print(format_summary(report), file=sys.stderr)
    return EXIT_OK


def cmd_derive_train(args: argparse.Namespace, config: RunConfig) -> int:
    bundle = _load_bundle(config)
    dataset = [(ex.question, bundle.schemas[ex.db_id], ex.gold_sql)
               for ex in bundle.examples]
    records, diagnostics = derive_training_records(dataset)
    for line in diagnostics:
        log.warning("%s", line)

    clients = build_clients(config) if (config.stub_script
                                        or config.sketch_url) else {}
    provider = clients.get("sketch")
    aligner_records = []
    for example in bundle.examples:
        schema = bundle.schemas[example.db_id]
        try:
            gold = extract_sketch_from_sql(example.gold_sql, schema)
        except Exception:
            continue  # already reported by derive_training_records
        pairs = [(gold.select_part, gold.keywords_part)]
        if provider is not None:
            sets = request_candidate_sets(provider, example.question, schema,
                                          config.k_select, config.k_from,
                                          config.k_keywords)
            try:
                pairs = combine_candidates(list(sets.select_candidates),
                                           list(sets.keyword_candidates))
            except EmptyCandidateError as exc:
                log.warning("no candidate pairs for %r: %s",
                            example.question, exc)
                pairs = []
        aligner_records.extend(derive_aligner_records(
            example.question, pairs,
            gold.select_part.content, gold.keywords_part.content))

    out_dir = Path(config.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    sketch_path = out_dir / "sketch_records.jsonl"
    aligner_path = out_dir / "aligner_records.jsonl"
    write_records_jsonl(records, sketch_path)
    write_records_jsonl(aligner_records, aligner_path)
    log.info("wrote %d sketch record(s) to %s", len(records), sketch_path)
    log.info("wrote %d aligner record(s) to %s", len(aligner_records),
             aligner_path)
    print(json.dumps({
        "sketch_records": len(records),
        "aligner_records": len(aligner_records),
        "skipped_examples": len(diagnostics),
    }))
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing

def _flag(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
    # Sentinel None defaults let effective_config() tell "flag given" from
    # "flag omitted", so config-file values survive unless overridden.
    parser.add_argument(name, default=None, **kwargs)


def _add_common(parser: argparse.ArgumentParser) -> None:
    _flag(parser, "--config", metavar="PATH",
          help="YAML config file; flags override its values")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level diagnostics on stderr")


def _add_endpoints(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model endpoints")
    _flag(group, "--stub-script", metavar="PATH",
          help="scripted stub responses instead of live endpoints")
    _flag(group, "--sketch-url", metavar="URL")
    _flag(group, "--aligner-url", metavar="URL")
    _flag(group, "--completer-url", metavar="URL")
    _flag(group, "--encoder-url", metavar="URL")
    group.add_argument("--chat-adapter", action="store_const", const=True,
                       default=None,
                       help="talk to the completer via a chat-style API")


def _add_pipeline(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline")
    _flag(group, "--k-select", type=int, metavar="N",
          help=f"SELECT-part hypotheses (default {DEFAULT_K_SELECT})")
    _flag(group, "--k-from", type=int, metavar="N",
          help=f"FROM-part hypotheses (default {DEFAULT_K_FROM})")
    _flag(group, "--k-keywords", type=int, metavar="N",
          help=f"keyword hypotheses (default {DEFAULT_K_KEYWORDS})")
    _flag(group, "--patience", type=int, metavar="N",
          help=f"error-feedback rewrites per sketch (default {DEFAULT_PATIENCE})")
    _add_matching(parser)


def _add_matching(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("value matching")
    _flag(group, "--threshold", type=float, metavar="R",
          help=f"similarity threshold (default {DEFAULT_SIMILARITY_THRESHOLD})")
    _flag(group, "--backend", choices=BACKENDS,
          help="similarity backend (default fuzzy)")
    _flag(group, "--embeddings", metavar="PATH",
          help="word-vector file for the embedding backend")
    _flag(group, "--scan-cap", type=int, metavar="N",
          help=f"max distinct values scanned per column (default {DEFAULT_SCAN_CAP})")
    _flag(group, "--statement-timeout", type=float, metavar="SECONDS",
          help="per-statement execution timeout")


def _add_dataset(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("dataset")
    _flag(group, "--dataset", metavar="DIR", help="benchmark root directory")
    _flag(group, "--format", choices=FORMATS,
          help="dataset layout (default spider)")
    _flag(group, "--examples-file", metavar="NAME",
          help="examples JSON inside the dataset root")
    _flag(group, "--limit", type=int, metavar="N",
          help="use only the first N examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchsql",
        description="Sketch-first text-to-SQL pipeline over live databases.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serialize",
                       help="print a database schema in model-input form")
    _add_common(p)
    p.add_argument("--db", metavar="SQLITE", help="database file to introspect")
    p.add_argument("--tables", metavar="JSON", help="schema collection file")
    p.add_argument("--db-id", metavar="ID",
                   help="which schema to pick from --tables")
    p.add_argument("--json", action="store_true",
                   help="emit the structured form instead of text")
    p.set_defaults(handler=cmd_serialize)

    p = sub.add_parser("translate", help="translate one question to SQL")
    _add_common(p)
    p.add_argument("--db", required=True, metavar="SQLITE")
    p.add_argument("--question", required=True)
    _flag(p, "--trace", metavar="PATH", help="write the selection trace JSON")
    _add_endpoints(p)
    _add_pipeline(p)
    p.set_defaults(handler=cmd_translate)

    p = sub.add_parser("calibrate",
                       help="rewrite text predicates against database content")
    _add_common(p)
    p.add_argument("--db", required=True, metavar="SQLITE")
    p.add_argument("--sql", required=True)
    _add_endpoints(p)
    _add_matching(p)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("evaluate",
                       help="run the pipeline over a benchmark and report "
                            "execution accuracy")
    _add_common(p)
    _add_dataset(p)
    _flag(p, "--workers", type=int, metavar="N",
          help="parallel examples (default 1)")
    _flag(p, "--trace", metavar="PATH", help="write per-example trace JSON")
    _flag(p, "--output", metavar="PATH",
          help="report JSON file (default: stdout)")
    _flag(p, "--example-timeout", type=float, metavar="SECONDS",
          help=f"per-example budget (default {DEFAULT_EXAMPLE_TIMEOUT:g})")
    p.add_argument("--no-latency", dest="record_latency",
                   action="store_const", const=False, default=None,
                   help="omit wall-clock latencies for reproducible reports")
    _add_endpoints(p)
    _add_pipeline(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("derive-train",
                       help="extract sketch and aligner training records")
    _add_common(p)
    _add_dataset(p)
    _flag(p, "--output", metavar="DIR",
          help="directory for the JSONL files (default: current)")
    _add_endpoints(p)
    _add_pipeline(p)
    p.set_defaults(handler=cmd_derive_train)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = effective_config(args)
        return args.handler(args, config)
    except (SketchSqlError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
