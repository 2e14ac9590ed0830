"""Monte Carlo verification lab for Ornstein-Uhlenbeck exponential bounds.

Layout:

  constants    closed-form rates, drift spectra, analytic property suite
  ousim        exact OU samplers (recursive and time-changed), Hilbert paths
  reversal     time reversal, forward/backward integrals, covariation split
  fnlib        certified drift functions b and shifts h
  functionals  shift functionals, exponential moment checks, tail/moment runs
  cli          reproducible experiment runner (`oulab ...`)

The package exports the names the README and the demos use; every other
name is imported from its submodule, e.g. `from oulab.ousim import BLOCK`.
"""

from .constants import (
    RATE_FLOOR,
    DriftSpectrum,
    alpha,
    alpha_components,
    analytic_property_suite,
    beta,
    d_lambda,
    exp_weighted_alpha,
)
from .errors import ConfigError, DomainError
from .fnlib import make_b_weighted, resolve_b, resolve_h, zero_shift
from .functionals import (
    ExperimentSpec,
    check_prop21,
    check_thm23,
    concentration_tail,
    gamma_step_check,
    moment_bound,
)
from .ousim import (
    PathStream,
    block_paths_1d,
    marginal_variance,
    sample_hilbert,
    sample_path_1d,
    sample_path_timechange,
    tail_mass_bound,
)
from .reversal import (
    backward_integral,
    covariation_check,
    forward_integral,
    reversed_drift_coefficient,
    trend_decreasing,
)

__version__ = "0.1.0"
