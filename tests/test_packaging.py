"""The package runs on the standard library alone, and its public names
resolve."""

import ast
import re
import sys
from pathlib import Path

import kncross

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_stdlib():
    modules = sorted((ROOT / "src" / "kncross").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"(?m)^dependencies = \[\]$", text)


def test_public_names_resolve_once():
    names = kncross.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(kncross, name), f"kncross.__all__ names missing {name}"


def test_refusals_are_value_errors():
    # bad input of any kind is caught by `except ValueError`; only the
    # internal error of a refused search witness is not a refusal
    classes = [getattr(kncross, name) for name in kncross.__all__]
    errors = [c for c in classes if isinstance(c, type) and issubclass(c, Exception)]
    assert sorted(c.__name__ for c in errors) == [
        "DegenerateInput", "NotGoodDrawing", "ParseError", "WitnessInvalid"]
    assert [c.__name__ for c in errors if not issubclass(c, ValueError)] == ["WitnessInvalid"]
