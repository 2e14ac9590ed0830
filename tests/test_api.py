"""The package surface: `import oulab` exports what README.md and the demos import, nothing more,
and loads a submodule only when one of its names is first used."""

import ast
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    # dir(), not vars(): a lazy module's namespace holds only the names already used
    public = {
        name
        for name in dir(oulab)
        if not name.startswith("_") and not isinstance(getattr(oulab, name), types.ModuleType)
    }
    assert public == _documented_names() | {"ConfigError", "DomainError"}


def test_documented_names_are_listed():
    documented = _documented_names() | {"ConfigError", "DomainError"}
    assert set(oulab.__all__) == documented
    assert documented <= set(dir(oulab))
    for name in documented:
        getattr(oulab, name)


def _fresh(code):
    """Standard output of `code` run in a fresh interpreter that imports oulab from this checkout."""
    src = str(Path(oulab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_binds_ousim():
    # in a fresh interpreter, so no other test's `import oulab.ousim` can bind it
    assert _fresh("import oulab; print(oulab.ousim.__name__)") == "oulab.ousim"


# modules the per-path samplers never call: the block kernels, the process
# pool, the CLI and the standard library they bring
UNUSED_BY_PATH_SAMPLING = (
    "oulab.functionals", "oulab.fnlib", "oulab.reversal", "oulab.parallel", "oulab.cli",
    "multiprocessing", "concurrent.futures", "logging", "statistics", "decimal",
)


def test_import_budget():
    code = f"""
import sys
import oulab
print(sorted(m for m in sys.modules if m.startswith("oulab.")))
from oulab import ousim
from oulab.constants import DriftSpectrum
print(sorted(m for m in {UNUSED_BY_PATH_SAMPLING!r} if m in sys.modules))
stream = ousim.PathStream(42, 300)
ousim.sample_path_1d(1.0, 4096, stream)
ousim.sample_path_timechange(1.0, 8, stream)
ousim.sample_hilbert(DriftSpectrum.quadratic(4), 4, 16, 42, path=300)
print(sorted(m for m in {UNUSED_BY_PATH_SAMPLING!r} if m in sys.modules))
"""
    assert _fresh(code).splitlines() == ["[]", "[]", "[]"]


# (argument name, call with the bad number x) of every entry that takes a positive finite number
POSITIVE_ARGUMENTS = {
    "alpha": ("rate", lambda x: oulab.alpha(x)),
    "exp_moment": ("alpha", lambda x: oulab.functionals.exp_moment([0.1, 0.2], x)),
    "d_lambda": ("rate", lambda x: oulab.d_lambda([1.0, x])),
    "DriftSpectrum": ("eigenvalues", lambda x: oulab.DriftSpectrum((1.0, x))),
    "make_b_weighted": ("spectrum_values", lambda x: oulab.make_b_weighted([1.0, x])),
    "resolve_b": ("omega", lambda x: oulab.resolve_b(f"weighted:sin:omega={x}", [1.0])),
    "resolve_b_const": ("spectrum_values", lambda x: oulab.resolve_b("const:0.5", [x])),
    "make_h": ("spectrum_values", lambda x: oulab.fnlib.make_h([1.0, x], {0: "sin_pi_t"})),
    "zero_shift": ("spectrum_values", lambda x: oulab.zero_shift([1.0, x])),
    "sample_path_1d": ("rate", lambda x: oulab.sample_path_1d(x, 8, oulab.PathStream(1, 0))),
    "block_paths_1d": ("horizon", lambda x: oulab.block_paths_1d(1.0, 8, 1, 0, 0, horizon=x)),
    "marginal_density": ("t", lambda x: oulab.ousim.marginal_density(1.0, x, 0.0)),
    "check_prop21": ("rate", lambda x: oulab.check_prop21(x, oulab.make_b_weighted([1.0]), 8, 8, seed=1)),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("entry", POSITIVE_ARGUMENTS)
def test_positive_arguments_refuse_bad_numbers_by_name(entry, bad):
    name, call = POSITIVE_ARGUMENTS[entry]
    with pytest.raises(oulab.DomainError, match=f"^{name} must be positive and finite, got {bad!r}$"):
        call(bad)


def test_check_prop21_refuses_an_underflowed_alpha_by_name():
    # alpha(400) underflows to 0, which the guard refuses before any path is drawn
    with pytest.raises(oulab.DomainError, match="^alpha must be positive and finite, got 0.0$"):
        oulab.check_prop21(400.0, oulab.make_b_weighted([1.0]), 8, 8, seed=1)
