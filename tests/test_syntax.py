"""Every source file parses as the oldest Python that pyproject's
``requires-python`` admits (3.10), so syntax newer than that fails here, and
not only on an interpreter of that version."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for tree in ("src/qfpsim", "tests", "perfbench")
                 for path in (ROOT / tree).rglob("*.py"))
OLDEST = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                  (ROOT / "pyproject.toml").read_text()).groups()))


def test_the_sources_and_the_oldest_version_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/qfpsim/cli.py", "tests/test_syntax.py", "perfbench/run.py"} <= names
    assert OLDEST == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_python_3_11_syntax_is_refused():
    # except* is new in 3.11; ast checks what feature_version covers, not all
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
