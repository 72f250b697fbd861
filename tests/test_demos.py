"""Every demo runs from a copy outside the source tree and exits 0.

Demo 03 writes its gallery next to itself; the copy's gallery must equal
the committed `demos/out/` byte for byte.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_copy(demo: Path, tmp_path: Path) -> None:
    copy = tmp_path / demo.name
    shutil.copyfile(demo, copy)
    # no bytecode caches either: the run writes nothing into the tree
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run_copy(demo, tmp_path)


def test_demo_03_reproduces_committed_gallery(tmp_path):
    _run_copy(ROOT / "demos" / "03_files_and_svg.py", tmp_path)
    committed = ROOT / "demos" / "out"
    written = tmp_path / "out"
    names = sorted(p.name for p in committed.iterdir())
    assert sorted(p.name for p in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (committed / name).read_bytes(), name
