"""The package root exports exactly the names README's "Library use"
section imports, and each of them resolves."""

import ast
import re
from pathlib import Path

import sketchsql

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_imports() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^from sketchsql import \(.*?\)$", section,
                          re.MULTILINE | re.DOTALL)
    (node,) = ast.parse(block).body
    return [alias.name for alias in node.names]


def test_readme_library_use_lists_the_root_exports():
    names = _library_use_imports()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(sketchsql.__all__)
    for name in names:
        assert getattr(sketchsql, name) is not None
