"""Every public name in `src/cutdg` is used by the program.

The package keeps only what the CLI, the scripts and the benchmark reach:
each public function or class defined at module level must be named again
somewhere in `src/cutdg` outside `__init__.py`, in `scripts/*.py` or in
`bench/*.py`, not counting its own `def`/`class` line.  Each public method
or property of a class must be read there as an attribute (`.name`) or
named in a double-quoted string, as the benchmark's patch list names the
methods it wraps.  Helpers that only tests use live in `tests/`.
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


def public_methods():
    """(module file, class.method, line) of each public method or property."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item.lineno


DEFINITIONS = list(public_definitions())
METHODS = list(public_methods())


def used_elsewhere(pattern, path, lineno):
    """Whether a line of the readers other than `path`:`lineno` matches."""
    for reader in READERS:
        for k, line in enumerate(reader.read_text().splitlines(), 1):
            if pattern.search(line) and (reader, k) != (path, lineno):
                return True
    return False


def test_finds_definitions():
    names = {name for _, name, _ in DEFINITIONS}
    assert {"DoDScheme", "build_mesh", "main"} <= names


@pytest.mark.parametrize(
    "path,name,lineno", DEFINITIONS, ids=[f"{p.stem}.{n}" for p, n, _ in DEFINITIONS]
)
def test_name_is_used_outside_tests(path, name, lineno):
    if not used_elsewhere(re.compile(rf"\b{re.escape(name)}\b"), path, lineno):
        pytest.fail(f"{path.name}:{lineno} `{name}` has no use in src/cutdg, scripts or bench")


def test_finds_methods():
    names = {name for _, name, _ in METHODS}
    assert {"DoDScheme.solve", "DoDScheme.h", "RampTestProblem.g_from"} <= names


@pytest.mark.parametrize(
    "path,name,lineno", METHODS, ids=[f"{p.stem}.{n}" for p, n, _ in METHODS]
)
def test_method_is_used_outside_tests(path, name, lineno):
    attr = re.escape(name.split(".")[1])
    if not used_elsewhere(re.compile(rf'\.{attr}\b|"{attr}"'), path, lineno):
        pytest.fail(f"{path.name}:{lineno} `{name}` has no use in src/cutdg, scripts or bench")
