"""Sketch-first text-to-SQL: schema-aware sketch generation, LLM
completion, database-grounded predicate calibration, and execution-guided
query selection, plus an execution-accuracy benchmark harness.

The names below are the library surface shown in the README; everything
else is reached through its module (``sketchsql.calibration`` and so on).
"""

from .benchmark import EvalConfig, evaluate, load_dataset, translate_question
from .errors import SketchSqlError
from .execution import Database
from .gateway import StubScript, clients_from_script
from .selection import SelectionConfig, calibrate_deterministic, select_query
from .sketches import build_sketches

__version__ = "0.1.0"

__all__ = [
    "Database",
    "SelectionConfig",
    "StubScript",
    "clients_from_script",
    "build_sketches",
    "select_query",
    "translate_question",
    "calibrate_deterministic",
    "EvalConfig",
    "evaluate",
    "load_dataset",
    "SketchSqlError",
]
