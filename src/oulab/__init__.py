"""Monte Carlo verification lab for Ornstein-Uhlenbeck exponential bounds.

Layout:

  constants    closed-form rates, drift spectra, analytic property suite
  ousim        exact OU samplers (recursive and time-changed), Hilbert paths
  reversal     time reversal, forward/backward integrals, covariation split
  fnlib        certified drift functions b and shifts h
  functionals  shift functionals, exponential moment checks, tail/moment runs
  parallel     the process pool class, resolvable but used by no module
  cli          reproducible experiment runner (`oulab ...`)

The package exports the names the README and the demos use (__all__);
every other name is imported from its submodule, e.g.
`from oulab.ousim import BLOCK`.

`import oulab` loads no submodule.  A documented name, or a submodule
read as an attribute (`oulab.ousim`), is resolved the first time it is
used: its submodule is imported then, with the submodules that one
imports, and the name is bound in the package, so later uses are plain
attribute reads.  So `from oulab import ousim` loads ousim, constants,
errors and numpy, and `from oulab import check_thm23` loads the sampling,
function library and block kernel layers too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each documented name and each submodule name -> the submodule that defines it
_HOME = {
    "RATE_FLOOR": "constants",
    "DriftSpectrum": "constants",
    "alpha": "constants",
    "alpha_components": "constants",
    "analytic_property_suite": "constants",
    "beta": "constants",
    "d_lambda": "constants",
    "exp_weighted_alpha": "constants",
    "ConfigError": "errors",
    "DomainError": "errors",
    "make_b_weighted": "fnlib",
    "resolve_b": "fnlib",
    "resolve_h": "fnlib",
    "zero_shift": "fnlib",
    "ExperimentSpec": "functionals",
    "check_prop21": "functionals",
    "check_thm23": "functionals",
    "concentration_tail": "functionals",
    "gamma_step_check": "functionals",
    "moment_bound": "functionals",
    "PathStream": "ousim",
    "block_paths_1d": "ousim",
    "marginal_variance": "ousim",
    "sample_hilbert": "ousim",
    "sample_path_1d": "ousim",
    "sample_path_timechange": "ousim",
    "tail_mass_bound": "ousim",
    "backward_integral": "reversal",
    "covariation_check": "reversal",
    "decomposition_verdict": "reversal",
    "forward_integral": "reversal",
    "reversed_drift_coefficient": "reversal",
    **{name: name for name in ("cli", "constants", "errors", "fnlib", "functionals", "ousim", "parallel", "reversal")},
}

__all__ = sorted(name for name, home in _HOME.items() if name != home)


def __getattr__(name):
    """Import the submodule behind a documented name or submodule name and bind the name here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
