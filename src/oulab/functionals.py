"""Shift functionals and Monte Carlo checks of the exponential bounds.

The checks, each a one-sided inequality at 0.999 confidence:

  prop21         E exp(alpha |int_0^1 b'(t, Z_t) dt|^2)            <= 3
  thm23          E exp(beta/sup|h|^2 |int b(t,Z+h) - b(t,Z) dt|^2) <= 3
  concentration  P[|int_r^u b(s,Z+h1) - b(s,Z+h2) ds|
                     > eta sqrt(l) sup|h1-h2|]                     <= 3 e^(-beta eta^2)
  moments        E |int_r^u b(s,Z+x) - b(s,Z+y) ds|^p
                     <= 3 p^(p/2) beta^(-p/2) l^(p/2) |x-y|^p

The last three are statements about one random variable,
|int_r^u b(s, Z_s + h1(s)) - b(s, Z_s + h2(s)) ds|, and _pair_values
samples it for all of them: thm23 is the case r = 0, u = 1, x0 = 0,
h2 = 0 at the rescaled rate ell * lam, and moments takes the constant
shifts h1 = x, h2 = y.  Conditioning on the past at time r is realized
as a fixed start value x0 (the Markov property reduces the conditional
statement to exactly this), and l = u - r.  The moment bound is checked
against the exponent the tail-integration step actually yields,
beta^(-p/2); the stated positive exponent is reported alongside, never
verified.

Everything rank-one + diagonal factorizes: the functionals read a single
state coordinate (the descriptor's direction), so only that component is
materialized.  Components never read would be sampled from their own
independent substreams and then discarded; skipping them leaves every
number bitwise unchanged, which test_functionals pins against the full
Hilbert sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DriftSpectrum, alpha as alpha_of, beta as beta_of
from .errors import DomainError
from .fnlib import FunctionDescriptor, ShiftDescriptor, _check_window, shift_difference_norm
from .ousim import _as_vector, _check_count, _grid, block_paths_1d, ndtri, row_chunks
from .parallel import run_blocks

CONFIDENCE = 0.999
EXP_BOUND = 3.0

STATEMENT_PROP21 = "E exp(alpha |int_0^1 b'(t, Z_t) dt|^2) <= 3"
STATEMENT_THM23 = "E exp(beta/sup|h|^2 |int_0^1 b(t, Z_t + h(t)) - b(t, Z_t) dt|^2) <= 3"
STATEMENT_CONCENTRATION = (
    "P[|int_r^u b(s, Z_s + h1(s)) - b(s, Z_s + h2(s)) ds| > eta sqrt(l) sup|h1 - h2|] <= 3 exp(-beta eta^2)"
)
STATEMENT_MOMENTS = "E |int_r^u b(s, Z_s + x) - b(s, Z_s + y) ds|^p <= 3 p^(p/2) beta^(-p/2) l^(p/2) |x - y|^p"
STATEMENT_GAMMA = "(3p/2) Gamma(p/2) <= 3 p^(p/2)"
STATEMENT_DECOMPOSITION = "mean |backward - forward - int b'(t, Z_t) dt| decreases under grid refinement"


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int
    max_summand: float = math.nan

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("an estimate needs at least 2 samples")
        if not (self.stderr >= 0.0):
            raise DomainError("stderr must be nonnegative")

    @classmethod
    def from_samples(cls, samples, max_summand=math.nan) -> "McEstimate":
        """Mean and standard error of a sample vector."""
        n = samples.size
        return cls(
            mean=float(np.mean(samples)),
            stderr=float(np.std(samples, ddof=1) / math.sqrt(n)),
            n=n,
            max_summand=max_summand,
        )

    def upper(self, conf: float) -> float:
        """One-sided upper confidence bound, non-decreasing in conf."""
        if not 0.0 < conf < 1.0:
            raise DomainError("confidence must be in (0, 1)")
        return self.mean + ndtri(conf) * self.stderr


def exp_moment(values, alpha, summand_cap=None) -> McEstimate:
    """MC mean of exp(alpha |S_i|^2) with its standard error.

    values are the per-path amplitudes S_i (signs are irrelevant).  When
    a hard bound on the summand is known, pass it as summand_cap: any
    summand above it means the functional left its certified range,
    which is a bug, not noise.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise DomainError("alpha must be positive and finite")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError("need a vector of at least 2 functional values")
    if not np.all(np.isfinite(arr)):
        raise DomainError("functional values must be finite")
    summands = np.exp(alpha * arr * arr)
    top = float(np.max(summands))
    if summand_cap is not None and top > summand_cap:
        raise RuntimeError(
            f"summand {top:.6g} exceeds the certified cap {summand_cap:.6g}; "
            "a functional value escaped its hard bound"
        )
    return McEstimate.from_samples(summands, max_summand=top)


# ----------------------------------------------------------------------
# experiment description
# ----------------------------------------------------------------------


def _check_certified(b: FunctionDescriptor, need_a_norm: bool):
    if not math.isfinite(b.norm_inf):
        raise DomainError(f"descriptor {b.name!r} has no sup-norm certificate")
    if b.norm_inf > 1.0 + 1e-12:
        raise DomainError(f"descriptor {b.name!r} is not in the unit ball: sup |b| = {b.norm_inf:.6g}")
    if need_a_norm:
        if not math.isfinite(b.norm_inf_A):
            raise DomainError(f"descriptor {b.name!r} has no weighted-norm certificate")
        if b.norm_inf_A > 1.0 + 1e-12:
            raise DomainError(f"descriptor {b.name!r} exceeds the weighted unit ball: {b.norm_inf_A:.6g}")


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """What every Hilbert-space check reads: the process, b and the sampling, picklable.

    b must carry both norm certificates.  The settings only some checks
    read (shifts, constant shifts, the window [r, u], the start value x0
    and ell) are arguments of those checks, validated there before any
    path is drawn.  Equality and hashing are by identity.
    """

    spectrum: DriftSpectrum
    truncation: int
    b: FunctionDescriptor
    seed: int
    m: int = 4096
    n_paths: int = 100_000
    workers: int = 1

    def __post_init__(self):
        if _check_count(self.truncation, "truncation", 1) > len(self.spectrum):
            raise DomainError(f"truncation {self.truncation} outside the listed spectrum")
        _check_count(self.m, "m", 2)
        _check_count(self.n_paths, "n_paths", 2)
        _check_certified(self.b, need_a_norm=True)
        if self.b.direction >= self.truncation:
            raise DomainError("descriptor direction outside the truncation")

    def truncated_spectrum(self) -> DriftSpectrum:
        return self.spectrum.truncate(self.truncation)


def _check_shifts(spec: ExperimentSpec, **shifts):
    """Refuse a shift built on another truncation or spectrum than spec's."""
    for name, h in shifts.items():
        if h.truncation != spec.truncation:
            raise DomainError(f"{name} is built on truncation {h.truncation}, experiment uses {spec.truncation}")
        if h.eigenvalues != spec.spectrum.eigenvalues[: spec.truncation]:
            raise DomainError(f"{name} was built on a different spectrum")


def _start_value(spec: ExperimentSpec, r, u, x0) -> float:
    """x0 along b's direction (0 without x0), once the window [r, u] and x0 are checked."""
    _check_window(r, u)
    if x0 is None:
        return 0.0
    return float(_as_vector(x0, spec.truncation, "x0")[spec.b.direction])


# ----------------------------------------------------------------------
# block workers (module level so they pickle into worker processes)
# ----------------------------------------------------------------------


# Each worker samples the first count paths of its block in row chunks
# (ousim.row_chunks) and writes each chunk's per-path values into one
# preallocated array.  Every row's recursion, profile evaluation and
# reduction along the last axis is independent of the rows sharing its
# array, so the values are bitwise those of one whole-block pass.


def _prop21_block(block, count, seed, lam, m, b):
    times = _grid(m, 1.0)
    out = np.empty(count)
    for start, stop in row_chunks(count, m):
        z = block_paths_1d(lam, m, seed, b.direction, block, rows=(start, stop))
        dphi = np.asarray(b.profile_dx(times, z), dtype=np.float64)
        out[start:stop] = np.abs(np.trapezoid(dphi, dx=1.0 / m, axis=-1)) * b.vector_norm
    return out


def _shifted_pair_block(block, count, seed, rate, horizon, m, b, h1_vals, h2_vals, x0_dir, t_abs):
    """|int [b(t, xi + h1) - b(t, xi + h2)] dt| for one block.

    xi is the descriptor's state coordinate started at x0_dir; t_abs are
    the absolute times fed to the profile (the window offset for
    conditional runs, plain [0,1] otherwise).
    """
    start_decay = np.exp(-rate * _grid(m, horizon)) * x0_dir if x0_dir != 0.0 else None
    out = np.empty(count)
    for start, stop in row_chunks(count, m):
        z = block_paths_1d(rate, m, seed, b.direction, block, horizon=horizon, rows=(start, stop))
        if start_decay is not None:
            z += start_decay
        phi1 = np.asarray(b.profile(t_abs, z + h1_vals), dtype=np.float64)
        phi2 = np.asarray(b.profile(t_abs, z + h2_vals), dtype=np.float64)
        j = np.trapezoid(phi1 - phi2, dx=horizon / m, axis=-1)
        out[start:stop] = np.abs(j) * b.vector_norm
    return out


def _pair_values(spec: ExperimentSpec, rate, r, u, x0_dir, h1, h2):
    """|int_r^u [b(s, xi_s + h1(s)) - b(s, xi_s + h2(s))] ds| per path.

    xi is b's state coordinate at rate `rate`, started at x0_dir at time
    r; h1 and h2 map absolute times to that coordinate's shift values.
    """
    t_abs = r + np.linspace(0.0, u - r, spec.m + 1)
    args = (spec.seed, rate, u - r, spec.m, spec.b, h1(t_abs), h2(t_abs), x0_dir, t_abs)
    return run_blocks(_shifted_pair_block, spec.n_paths, spec.workers, args)


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Prop21Result:
    statement: str
    lam: float
    alpha: float
    estimate: McEstimate
    upper999: float
    bound: float
    passed: bool


def check_prop21(lam, b: FunctionDescriptor, m=4096, n_paths=100_000, *, seed, workers=1) -> Prop21Result:
    """E exp(alpha |int b'(t, Z_t) dt|^2) <= 3 for a smooth certified b."""
    if not b.smooth:
        raise DomainError(f"descriptor {b.name!r} has no derivative; the functional needs b'")
    _check_certified(b, need_a_norm=False)
    lam = float(lam)
    a = alpha_of(lam)
    values = run_blocks(_prop21_block, n_paths, workers, (seed, lam, _check_count(m, "m", 2), b))
    cap = None
    if b.profile_dx_sup is not None:
        cap = math.exp(a * (b.profile_dx_sup * b.vector_norm) ** 2) * (1.0 + 1e-9)
    est = exp_moment(values, a, summand_cap=cap)
    upper = est.upper(CONFIDENCE)
    return Prop21Result(
        statement=STATEMENT_PROP21,
        lam=lam,
        alpha=a,
        estimate=est,
        upper999=upper,
        bound=EXP_BOUND,
        passed=bool(upper <= EXP_BOUND),
    )


@dataclass(frozen=True)
class Thm23Result:
    statement: str
    beta: float
    rate: float
    h_sup: float
    ell: float
    estimate: McEstimate
    upper999: float
    bound: float
    passed: bool


def check_thm23(spec: ExperimentSpec, h: ShiftDescriptor, ell=1.0) -> Thm23Result:
    """Exponential moment of the shift functional for the rescaled process.

    Components are sampled at rates ell * lam_n, with ell in (0, 1];
    beta comes from the truncated spectrum the run actually lives on (a
    declared-unbounded tail still contributes its analytic infimum).
    """
    if not 0.0 < ell <= 1.0:
        raise DomainError("ell must be in (0, 1]")
    _check_shifts(spec, h=h)
    if h.norm_inf <= 0.0:
        raise DomainError("sup |h| must be positive (and finite)")
    d = spec.b.direction
    rate_dir = ell * spec.spectrum.eigenvalues[d]
    values = _pair_values(spec, rate_dir, 0.0, 1.0, 0.0, lambda t: h.component(d, t), np.zeros_like)
    beta_val = beta_of(spec.truncated_spectrum())
    rate = beta_val / h.norm_inf**2
    cap = math.exp(rate * (2.0 * spec.b.norm_inf) ** 2) * (1.0 + 1e-9)
    est = exp_moment(values, rate, summand_cap=cap)
    upper = est.upper(CONFIDENCE)
    return Thm23Result(
        statement=STATEMENT_THM23,
        beta=beta_val,
        rate=rate,
        h_sup=h.norm_inf,
        ell=ell,
        estimate=est,
        upper999=upper,
        bound=EXP_BOUND,
        passed=bool(upper <= EXP_BOUND),
    )


@dataclass(frozen=True)
class ConcentrationRow:
    eta: float
    threshold: float
    empirical: float
    stderr: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ConcentrationResult:
    statement: str
    beta: float
    ell: float
    diff_sup: float
    rows: tuple
    degenerate: bool
    note: str
    passed: bool


def concentration_tail(spec: ExperimentSpec, h1: ShiftDescriptor, h2: ShiftDescriptor, etas, r=0.0, u=1.0,
                       x0=None) -> ConcentrationResult:
    """Empirical exceedance of the window functional against 3 e^(-beta eta^2).

    The run starts from the fixed point x0 (default 0) at time r; l = u - r.
    """
    x0_dir = _start_value(spec, r, u, x0)
    _check_shifts(spec, h1=h1, h2=h2)
    etas = [float(e) for e in etas]
    if not etas or any(e < 0 or not math.isfinite(e) for e in etas):
        raise DomainError("eta grid must be nonempty, nonnegative and finite")
    beta_val = beta_of(spec.truncated_spectrum())
    ell = u - r
    diff_sup = shift_difference_norm(h1, h2, r, u)
    if diff_sup == 0.0:
        rows = [
            ConcentrationRow(eta=e, threshold=0.0, empirical=0.0, stderr=0.0,
                             bound=3.0 * math.exp(-beta_val * e * e), passed=True)
            for e in etas
        ]
    else:
        d = spec.b.direction
        values = _pair_values(spec, spec.spectrum.eigenvalues[d], r, u, x0_dir,
                              lambda t: h1.component(d, t), lambda t: h2.component(d, t))
        n = values.size
        rows = []
        for e in etas:
            thr = e * math.sqrt(ell) * diff_sup
            emp = float(np.mean(values > thr))
            bound = 3.0 * math.exp(-beta_val * e * e)
            rows.append(
                ConcentrationRow(eta=e, threshold=thr, empirical=emp, stderr=math.sqrt(emp * (1.0 - emp) / n),
                                 bound=bound, passed=bool(emp <= bound))
            )
    return ConcentrationResult(
        statement=STATEMENT_CONCENTRATION,
        beta=beta_val,
        ell=ell,
        diff_sup=diff_sup,
        rows=tuple(rows),
        degenerate=diff_sup == 0.0,
        note="h1 = h2 on the window: the functional vanishes and the statement is trivial" if diff_sup == 0.0 else "",
        passed=all(r.passed for r in rows),
    )


@dataclass(frozen=True)
class MomentRow:
    p: int
    moment: float
    stderr: float
    upper999: float
    bound_derived: float
    bound_stated: float
    passed: bool


@dataclass(frozen=True)
class MomentResult:
    statement: str
    beta: float
    ell: float
    separation: float
    rows: tuple
    degenerate: bool
    note: str
    passed: bool


def moment_bound(spec: ExperimentSpec, x, y, ps, r=0.0, u=1.0, x0=None) -> MomentResult:
    """E |int_r^u b(s, Z+x) - b(s, Z+y) ds|^p against both exponent readings.

    x and y are constant shifts, vectors of the truncation's length.
    bound_derived carries beta^(-p/2), which is what integrating the
    tail actually produces; bound_stated carries the positive exponent
    beta^(p/2) as printed in the target inequality.  PASS compares with
    bound_derived only.
    """
    x0_dir = _start_value(spec, r, u, x0)
    ps = [_check_count(p, "moment order p", 1) for p in ps]
    if not ps:
        raise DomainError("need at least one moment order p")
    x = _as_vector(x, spec.truncation, "x")
    y = _as_vector(y, spec.truncation, "y")
    beta_val = beta_of(spec.truncated_spectrum())
    ell = u - r
    sep = float(np.linalg.norm(x - y))
    if sep == 0.0:
        rows = [
            MomentRow(p=p, moment=0.0, stderr=0.0, upper999=0.0, bound_derived=0.0, bound_stated=0.0, passed=True)
            for p in ps
        ]
    else:
        d = spec.b.direction
        values = _pair_values(spec, spec.spectrum.eigenvalues[d], r, u, x0_dir,
                              lambda t: np.full_like(t, x[d]), lambda t: np.full_like(t, y[d]))
        rows = []
        for p in ps:
            est = McEstimate.from_samples(values**p)
            upper = est.upper(CONFIDENCE)
            scale = 3.0 * p ** (p / 2.0) * ell ** (p / 2.0) * sep**p
            derived = scale * beta_val ** (-p / 2.0)
            stated = scale * beta_val ** (p / 2.0)
            rows.append(
                MomentRow(p=p, moment=est.mean, stderr=est.stderr, upper999=upper, bound_derived=derived,
                          bound_stated=stated, passed=bool(upper <= derived))
            )
    return MomentResult(
        statement=STATEMENT_MOMENTS,
        beta=beta_val,
        ell=ell,
        separation=sep,
        rows=tuple(rows),
        degenerate=sep == 0.0,
        note="x = y: the functional vanishes and every moment is zero" if sep == 0.0 else "",
        passed=all(r.passed for r in rows),
    )


def gamma_step_check(p_max=20):
    """(3p/2) Gamma(p/2) <= 3 p^(p/2) for p = 1..p_max, by direct evaluation."""
    p_max = _check_count(p_max, "p_max", 1)
    rows = []
    for p in range(1, p_max + 1):
        lhs = 1.5 * p * math.gamma(p / 2.0)
        rhs = 3.0 * p ** (p / 2.0)
        rows.append((p, lhs, rhs, lhs <= rhs))
    return rows
