"""The benchmark's traced mode wraps public names of the package at the
modules that look them up.  A name it wraps must not disappear in a
simplification, and removing the wrappers must put every original back."""

import importlib.util
from pathlib import Path

from sketchsql import benchmark, calibration, execution, selection, sketches

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (benchmark, calibration, execution, selection, sketches,
          execution.Database)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_are_restored():
    spans = _load_spans()
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    # install raises RuntimeError naming the first traced name that is gone.
    remove = spans.install(spans.Tracer())
    try:
        wrapped = set()
        for owner in OWNERS:
            for name, value in vars(owner).items():
                if value is not before[owner].get(name):
                    assert value.__wrapped__ is before[owner][name]
                    wrapped.add((owner.__name__, name))
        for module in (benchmark, selection, sketches):
            assert (module.__name__, "parse_sql") in wrapped
        for module in (selection, sketches):
            assert (module.__name__, "serialize_schema") in wrapped
        assert (selection.__name__, "apply_calibration") in wrapped
        assert ("Database", "execute") in wrapped
    finally:
        remove()
    for owner in OWNERS:
        assert dict(vars(owner)) == before[owner]
