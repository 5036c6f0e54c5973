import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    car1_schema as _car1,
    make_school_db,
    stadium_schema as _stadium,
)

from sketchsql.execution import Database

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def school_db_path(tmp_path):
    return make_school_db(tmp_path / "school.sqlite")


@pytest.fixture
def school_db(school_db_path):
    return Database(school_db_path)


@pytest.fixture
def school_schema(school_db):
    return school_db.schema


@pytest.fixture
def car1():
    return _car1()


@pytest.fixture
def stadium():
    return _stadium()


@pytest.fixture(scope="session")
def seed0(tmp_path_factory):
    """perfbench's seed-0 data, generated once per run.  Tests only read
    it: what they write goes under their own ``tmp_path``."""
    out = tmp_path_factory.mktemp("seed0")
    subprocess.run([sys.executable, str(PERFBENCH / "gen.py"),
                    "--seed", "0", "--out", str(out)],
                   check=True, capture_output=True)
    return out


@pytest.fixture(scope="session")
def stub_url(seed0):
    """The URL of perfbench's stub model server, answering every role from
    the seed-0 script with no delay and no 503s.  Every entry of that
    script answers the same each time, so tests may share the server."""
    server = subprocess.Popen(
        [sys.executable, str(PERFBENCH / "stub_server.py"),
         "--script", str(seed0 / "script.json"),
         "--delay-ms", "0", "--fail-per-mille", "0"],
        stdout=subprocess.PIPE, text=True)
    try:
        yield f"http://127.0.0.1:{server.stdout.readline().strip()}"
    finally:
        server.terminate()
        server.wait()
        server.stdout.close()
