"""The package surface: `import oulab` exports what README.md and the demos import, nothing more."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import oulab

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_oulab(source):
    """Names of every `from oulab import ...` statement in a piece of Python source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "oulab" and node.level == 0
        for alias in node.names
    }


def _documented_names():
    names = set()
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        names |= _imported_from_oulab(block)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names |= _imported_from_oulab(demo.read_text())
    return names


def test_documented_names_resolve():
    documented = _documented_names()
    assert "ExperimentSpec" in documented  # the README example was found
    missing = sorted(n for n in documented if not hasattr(oulab, n))
    assert missing == []


def test_public_surface_is_the_documented_one():
    public = {
        name
        for name, value in vars(oulab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == _documented_names() | {"ConfigError", "DomainError"}


def test_import_binds_ousim():
    # in a fresh interpreter, so no other test's `import oulab.ousim` can bind it
    src = str(Path(oulab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import oulab; print(oulab.ousim.__name__)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "oulab.ousim"
