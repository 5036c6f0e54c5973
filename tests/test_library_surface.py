"""The package root exports exactly the names README's "Library use"
section imports, and each of them resolves."""

import ast
import os
import re
import subprocess
import sys
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


def test_cli_import_leaves_out_third_party_http_libraries():
    """The HTTP client is the standard library's, so importing the console
    script loads neither ``requests`` nor ``urllib3``."""
    src = str(Path(sketchsql.__file__).resolve().parents[1])
    probe = ("import sys, sketchsql.cli; "
             "print(sorted({'requests', 'urllib3'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout == "[]\n"
