"""The package runs on the standard library alone, and its public names
resolve."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

import kncross

ROOT = Path(__file__).resolve().parent.parent


SRC = ROOT / "src"
MODULES = sorted((SRC / "kncross").glob("*.py"))


def _absolute_imports(path: Path):
    """The module names of `path`'s absolute imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib():
    assert MODULES
    for path in MODULES:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_no_module_imports_dataclasses():
    # the records are NamedTuples; dataclasses would add milliseconds to
    # every command's start-up
    for path in MODULES:
        for name in _absolute_imports(path):
            assert name.split(".")[0] != "dataclasses", f"{path.name} imports {name}"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # a fresh interpreter without site: only the package's own imports count
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import kncross, kncross.cli; "
            f"print(sorted({{'dataclasses', 'inspect'}} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_reimport_frees_the_first_import():
    # a module-level object that holds a package class, such as a typing
    # subscription, which typing caches for good, would keep the first
    # copy of every module alive after the package is imported again
    code = (f"import gc, sys, weakref; sys.path.insert(0, {str(SRC)!r})\n"
            f"import kncross, kncross.cli\n"
            f"first = weakref.ref(kncross.DeletionView)\n"
            f"for name in [m for m in sys.modules if m.split('.')[0] == 'kncross']:\n"
            f"    del sys.modules[name]\n"
            f"del kncross\n"
            f"import kncross, kncross.cli\n"
            f"gc.collect()\n"
            f"print(first() is None)")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "True\n"


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


def test_readme_library_example_runs(capsys):
    # the Library section's code block runs against the current public names
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("(")


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # every call of the Command line section exits 0, `[--json]` both ways,
    # and a `# prints` comment is the call's whole output
    from kncross.cli import main
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    calls, printed = 0, 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        variants = ([command.replace("[--json]", ""), command.replace("[--json]", "--json")]
                    if "[--json]" in command else [command])
        for variant in variants:
            argv = shlex.split(variant)
            assert argv[0] == "kncross"
            assert main(argv[1:]) == 0, variant
            out = capsys.readouterr().out
            if comment.strip().startswith("prints "):
                assert out == comment.strip()[len("prints "):] + "\n"
                printed += 1
            calls += 1
    assert (calls, printed) == (10, 2)
