"""Every public module-level name in `src/cutdg` is used by the program.

The package keeps only what the CLI, the scripts and the benchmark reach:
each public function or class defined at module level must be named again
somewhere in `src/cutdg` outside `__init__.py`, in `scripts/*.py` or in
`bench/*.py`, not counting its own `def`/`class` line.  Helpers that only
tests use live in `tests/`.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cutdg"
READERS = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "bench").glob("*.py"))
)


def public_definitions():
    """(module file, name, line) of each public module-level def/class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node.lineno


DEFINITIONS = list(public_definitions())


def test_finds_definitions():
    names = {name for _, name, _ in DEFINITIONS}
    assert {"DoDScheme", "build_mesh", "main"} <= names


@pytest.mark.parametrize(
    "path,name,lineno", DEFINITIONS, ids=[f"{p.stem}.{n}" for p, n, _ in DEFINITIONS]
)
def test_name_is_used_outside_tests(path, name, lineno):
    word = re.compile(rf"\b{re.escape(name)}\b")
    for reader in READERS:
        for k, line in enumerate(reader.read_text().splitlines(), 1):
            if word.search(line) and (reader, k) != (path, lineno):
                return
    pytest.fail(f"{path.name}:{lineno} `{name}` has no use in src/cutdg, scripts or bench")
