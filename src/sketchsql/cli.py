"""Command-line entry points for each pipeline stage.

Subcommands: ``serialize`` (schema text), ``translate`` (one question to
SQL), ``calibrate`` (deterministic predicate rewrite), ``evaluate``
(benchmark run with execution-accuracy report), ``derive-train``
(training-record extraction).  All commands are non-interactive; stdout
carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 error, 2 when ``translate`` exhausts every sketch.

Each command accepts only the settings it reads: as flags, or as keys of
a YAML config file (``--config``) whose values the flags override.  Each
setting is declared once, as a field of :class:`RunConfig`.  Endpoint
tokens are read only from the environment (``SKETCH_TOKEN``,
``ALIGNER_TOKEN``, ``COMPLETER_TOKEN``, ``ENCODER_TOKEN``), never from
flags or files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .benchmark import (
    DEFAULT_EXAMPLE_TIMEOUT,
    FORMATS,
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
    SentenceEncoder,
    WordEmbedding,
)
from .errors import SketchSqlError
from .execution import Database
from .gateway import EndpointConfig, HttpClient, StubScript, clients_from_script
from .schema import load_schema_file, schema_from_sqlite, serialize_schema
from .selection import (
    DEFAULT_PATIENCE,
    STATUS_EXHAUSTED,
    SelectionConfig,
    calibrate_deterministic,
    check_ranges,
)
from .sketches import (
    DEFAULT_K_FROM,
    DEFAULT_K_KEYWORDS,
    DEFAULT_K_SELECT,
    derive_training_records,
    write_records_jsonl,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXHAUSTED = 2

BACKENDS = ("fuzzy", "embedding", "encoder")

TOKEN_ENV = {
    "sketch": "SKETCH_TOKEN",
    "aligner": "ALIGNER_TOKEN",
    "completer": "COMPLETER_TOKEN",
    "encoder": "ENCODER_TOKEN",
}


# The commands that read each group of settings.
_PIPELINE = ("translate", "evaluate")
_SKETCHING = ("translate", "evaluate", "derive-train")
_MATCHING = ("translate", "calibrate", "evaluate")
_DATASET = ("evaluate", "derive-train")


def _setting(default, commands: tuple, flag: str | None = None, **options):
    """A RunConfig field read by ``commands``.  Each of them gets the flag
    ``flag`` (default: ``--`` and the field name, dashed) with the argparse
    ``options``; its type and "(default X)" come from the field itself."""
    return dataclasses.field(default=default, metadata={
        "commands": commands, "flag": flag, "options": options})


@dataclass
class RunConfig:
    """Every tunable of a run.  Each field is a config-file key and a flag,
    accepted only by the commands that read it."""

    sketch_url: str | None = _setting(None, _SKETCHING, metavar="URL",
                                      help="sketch model endpoint")
    aligner_url: str | None = _setting(None, _PIPELINE, metavar="URL",
                                       help="aligner model endpoint")
    completer_url: str | None = _setting(None, _PIPELINE, metavar="URL",
                                         help="completion model endpoint")
    encoder_url: str | None = _setting(
        None, _MATCHING, metavar="URL",
        help="sentence-encoder endpoint for the encoder backend")
    chat_adapter: bool = _setting(
        False, _PIPELINE, action="store_const", const=True,
        help="talk to the completer via a chat-style API")
    stub_script: str | None = _setting(
        None, _MATCHING + ("derive-train",), metavar="PATH",
        help="scripted stub responses instead of live endpoints")
    k_select: int = _setting(DEFAULT_K_SELECT, _SKETCHING, metavar="N",
                             help="SELECT-part hypotheses")
    k_from: int = _setting(DEFAULT_K_FROM, _PIPELINE, metavar="N",
                           help="FROM-part hypotheses")
    k_keywords: int = _setting(DEFAULT_K_KEYWORDS, _SKETCHING, metavar="N",
                               help="keyword hypotheses")
    patience: int = _setting(DEFAULT_PATIENCE, _PIPELINE, metavar="N",
                             help="error-feedback rewrites per sketch")
    threshold: float = _setting(DEFAULT_SIMILARITY_THRESHOLD, _MATCHING,
                                metavar="R", help="similarity threshold")
    backend: str = _setting("fuzzy", _MATCHING, choices=BACKENDS,
                            help="similarity backend")
    embeddings: str | None = _setting(
        None, _MATCHING, metavar="PATH",
        help="word-vector file for the embedding backend")
    scan_cap: int = _setting(DEFAULT_SCAN_CAP, _MATCHING, metavar="N",
                             help="max distinct values scanned per column")
    statement_timeout: float | None = _setting(
        None, _PIPELINE, metavar="SECONDS",
        help="per-statement execution timeout")
    example_timeout: float = _setting(DEFAULT_EXAMPLE_TIMEOUT, ("evaluate",),
                                      metavar="SECONDS",
                                      help="per-example budget")
    dataset: str | None = _setting(None, _DATASET, metavar="DIR",
                                   help="benchmark root directory")
    format: str = _setting("spider", _DATASET, choices=FORMATS,
                           help="dataset layout")
    examples_file: str | None = _setting(
        None, _DATASET, metavar="NAME",
        help="examples JSON inside the dataset root")
    workers: int = _setting(1, ("evaluate",), metavar="N",
                            help="parallel examples")
    limit: int | None = _setting(None, _DATASET, metavar="N",
                                 help="use only the first N examples")
    trace: str | None = _setting(
        None, _PIPELINE, metavar="PATH",
        help="write the selection trace JSON, one per example for evaluate")
    output: str | None = _setting(
        None, _DATASET, metavar="PATH",
        help="evaluate's report JSON file (default: stdout), or "
             "derive-train's directory for the JSONL files (default: current)")
    record_latency: bool = _setting(
        True, ("evaluate",), flag="--no-latency", action="store_const",
        const=False, help="omit wall-clock latencies for reproducible reports")


def _settings_read_by(command: str) -> list:
    """The fields of RunConfig that ``command`` reads, in declaration order."""
    return [f for f in fields(RunConfig) if command in f.metadata["commands"]]


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
# Key -> the value types a config file may give it: ``(int,)``,
# ``(str, NoneType)`` and so on.
_CONFIG_TYPES = {key: typing.get_args(hint) or (hint,)
                 for key, hint in typing.get_type_hints(RunConfig).items()}
# Key -> its range: the library configs' own, and the CLI's example limit.
_CONFIG_RANGES = {**SelectionConfig.RANGES, **EvalConfig.RANGES,
                  "limit": (0, True, None)}


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
    """Defaults, overridden by the config file, overridden by flags.  The
    file may set only the keys that ``args.command`` reads."""
    config = RunConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = yaml.safe_load(handle) or {}
        except yaml.YAMLError as exc:
            raise SketchSqlError(f"config file is not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise SketchSqlError("config file must be a mapping of keys to values")
        for key in data:
            # YAML reads an unquoted yes, no, null or number as a non-string.
            if not isinstance(key, str):
                raise SketchSqlError(f"config key {key!r} must be a string, "
                                     f"got {type(key).__name__}")
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise SketchSqlError(
                f"unknown config key(s): {', '.join(unknown)}")
        for key, value in data.items():
            _check_config_value(key, value)
        read = {f.name for f in _settings_read_by(args.command)}
        for key, value in data.items():
            if key not in read:
                raise SketchSqlError(
                    f"config key {key!r} is not read by {args.command}")
            setattr(config, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    try:
        check_ranges(config, _CONFIG_RANGES)
    except ValueError as exc:
        raise SketchSqlError(f"config key {exc}") from None
    if config.backend not in BACKENDS:
        raise SketchSqlError(f"unknown backend {config.backend!r}; "
                             f"expected one of {', '.join(BACKENDS)}")
    if config.format not in FORMATS:
        raise SketchSqlError(f"unknown dataset format {config.format!r}; "
                             f"expected one of {', '.join(FORMATS)}")
    return config


def build_clients(config: RunConfig) -> dict:
    """Stub clients from a script file, or one HTTP client per role URL.

    Roles without a URL map to None; commands check for the roles they
    actually need.  Auth tokens come only from the environment.
    """
    if config.stub_script:
        return clients_from_script(StubScript.load(config.stub_script))
    urls = {"sketch": config.sketch_url, "aligner": config.aligner_url,
            "completer": config.completer_url, "encoder": config.encoder_url}
    return {role: HttpClient(EndpointConfig(
                url, auth_token=os.environ.get(TOKEN_ENV[role]),
                chat_adapter=config.chat_adapter and role == "completer"))
            if url else None
            for role, url in urls.items()}


@contextmanager
def _opened_clients(config: RunConfig):
    """:func:`build_clients`, closing the HTTP clients when the block ends."""
    clients = build_clients(config)
    try:
        yield clients
    finally:
        for client in clients.values():
            if isinstance(client, HttpClient):
                client.close()


def _require(clients: dict, *roles: str):
    for role in roles:
        if clients.get(role) is None:
            raise SketchSqlError(f"no {role} endpoint configured; pass "
                                 f"--{role}-url or --stub-script")
    return [clients[role] for role in roles]


def build_backend(config: RunConfig, clients: dict):
    if config.backend == "fuzzy":
        return CharacterFuzzy()
    if config.backend == "embedding":
        if not config.embeddings:
            raise SketchSqlError(
                "the embedding backend needs --embeddings <vector file>")
        return WordEmbedding.load(config.embeddings)
    (encoder,) = _require(clients, "encoder")
    return SentenceEncoder(encoder)


def _from_run_config(cls, config: RunConfig, **objects):
    """A ``cls`` (SelectionConfig or EvalConfig) with the fields given in
    ``objects`` and every other field copied from the ``config`` key of
    the same name."""
    copied = {f.name: getattr(config, f.name) for f in fields(cls)
              if f.name not in objects}
    return cls(**copied, **objects)


def _config_echo(config: RunConfig, command: str) -> dict:
    """The settings ``command`` reads, as echoed into reports and traces.

    Artifact destinations are omitted: they do not affect the run, and
    keeping them would make otherwise-identical reports differ by their
    own file names.
    """
    return {f.name: getattr(config, f.name) for f in _settings_read_by(command)
            if f.name not in ("output", "trace")}


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
    with _opened_clients(config) as clients:
        provider, aligner, completer = _require(clients, "sketch", "aligner",
                                                "completer")
        with Database(args.db) as db:
            backend = build_backend(config, clients)
            selection = _from_run_config(SelectionConfig, config,
                                         completer=completer, backend=backend)
            sql, trace = translate_question(
                args.question, db.schema, db, provider, aligner, selection,
                config.k_select, config.k_from, config.k_keywords)
    if config.trace:
        _write_json({"config": _config_echo(config, args.command),
                     "trace": dataclasses.asdict(trace)}, config.trace)
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
    with (_opened_clients(config) if config.backend == "encoder"
          else nullcontext({})) as clients:
        backend = build_backend(config, clients)
        with Database(args.db) as db:
            selection = _from_run_config(SelectionConfig, config,
                                         completer=None, backend=backend)
            rewritten, feedback = calibrate_deterministic(db, args.sql,
                                                          selection)
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
    with _opened_clients(config) as clients:
        provider, aligner, completer = _require(clients, "sketch", "aligner",
                                                "completer")
        selection = _from_run_config(SelectionConfig, config,
                                     completer=completer,
                                     backend=build_backend(config, clients))
        eval_config = _from_run_config(EvalConfig, config, selection=selection,
                                       provider=provider, aligner=aligner,
                                       trace=bool(config.trace))
        report = evaluate(eval_config, _load_bundle(config))
    payload = {"config": _config_echo(config, args.command),
               **dataclasses.asdict(report)}
    if config.output:
        _write_json(payload, config.output)
        log.info("report written to %s", config.output)
    else:
        _write_json(payload)
    if config.trace:
        _write_json({"config": _config_echo(config, args.command),
                     "traces": [r["trace"] for r in payload["per_example"]]},
                    config.trace)
        log.info("traces written to %s", config.trace)
    print(format_summary(report), file=sys.stderr)
    return EXIT_OK


def cmd_derive_train(args: argparse.Namespace, config: RunConfig) -> int:
    bundle = _load_bundle(config)
    dataset = [(ex.question, bundle.schemas[ex.db_id], ex.gold_sql)
               for ex in bundle.examples]
    with _opened_clients(config) as clients:
        records, aligner_records, diagnostics = derive_training_records(
            dataset, clients["sketch"], config.k_select, config.k_keywords)
    for line in diagnostics:
        log.warning("%s", line)

    out_dir = Path(config.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for role, items in (("sketch", records), ("aligner", aligner_records)):
        path = out_dir / f"{role}_records.jsonl"
        write_records_jsonl(items, path)
        log.info("wrote %d %s record(s) to %s", len(items), role, path)
    print(json.dumps({"sketch_records": len(records),
                      "aligner_records": len(aligner_records),
                      "skipped_examples": len(diagnostics)}))
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing

class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which reports an argument the command does not
    take with the command's own usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchsql",
        description="Sketch-first text-to-SQL pipeline over live databases.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("serialize",
                       help="print a database schema in model-input form")
    p.add_argument("--db", metavar="SQLITE", help="database file to introspect")
    p.add_argument("--tables", metavar="JSON", help="schema collection file")
    p.add_argument("--db-id", metavar="ID",
                   help="which schema to pick from --tables")
    p.add_argument("--json", action="store_true",
                   help="emit the structured form instead of text")
    p.set_defaults(handler=cmd_serialize)

    p = sub.add_parser("translate", help="translate one question to SQL")
    p.add_argument("--db", required=True, metavar="SQLITE")
    p.add_argument("--question", required=True)
    p.set_defaults(handler=cmd_translate)

    p = sub.add_parser("calibrate",
                       help="rewrite text predicates against database content")
    p.add_argument("--db", required=True, metavar="SQLITE")
    p.add_argument("--sql", required=True)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("evaluate",
                       help="run the pipeline over a benchmark and report "
                            "execution accuracy")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("derive-train",
                       help="extract sketch and aligner training records")
    p.set_defaults(handler=cmd_derive_train)

    for command, p in sub.choices.items():
        p.add_argument("--config", metavar="PATH",
                       help="YAML config file; flags override its values")
        p.add_argument("--verbose", action="store_true",
                       help="debug-level diagnostics on stderr")
        for f in _settings_read_by(command):
            options = dict(f.metadata["options"])
            if "action" not in options:
                options["type"] = _CONFIG_TYPES[f.name][0]
                if f.default is not None:
                    options["help"] += f" (default {f.default})"
            # A None default lets effective_config() tell "flag given" from
            # "flag omitted", so config-file values survive unless overridden.
            flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, default=None, **options)
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
