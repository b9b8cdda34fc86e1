"""bold2img runs on numpy alone: its sources import nothing else outside the
standard library, its package declares numpy as its one dependency, and the
CLI loads no second numerical library."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bold2img

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bold2img"

_CLI_PROBE = """
import json
import sys
from pathlib import Path

import bold2img.cli

maps = Path("/proc/self/maps")
lines = maps.read_text().splitlines() if maps.exists() else []
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "openblas": sorted({Path(line.split()[-1]).name for line in lines if "openblas" in line}),
}))
"""


def absolute_imports(source: str) -> set[str]:
    """Top-level package names of a module's absolute imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_absolute_imports_detector():
    src = "import os.path\nfrom numpy import linalg\nfrom . import ops\nfrom .rng import RngKey\nimport scipy.special as s\n"
    assert absolute_imports(src) == {"os", "numpy", "scipy"}


def test_sources_import_numpy_and_the_standard_library_only():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    outside = {
        str(p.relative_to(SRC)): sorted(
            name for name in absolute_imports(p.read_text())
            if name != "numpy" and name not in sys.stdlib_module_names
        )
        for p in modules
    }
    assert {k: v for k, v in outside.items() if v} == {}


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in project["dependencies"]] == ["numpy"]


def test_cli_import_loads_no_scipy_and_one_openblas():
    src = str(Path(bold2img.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _CLI_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["scipy"] == []
    assert len(loaded["openblas"]) <= 1, loaded["openblas"]
