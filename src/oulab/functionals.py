"""Shift functionals and Monte Carlo checks of the exponential bounds.

Each check is a one-sided inequality "E f(S) <= L" at 0.999 confidence
over one per-path statistic S >= 0, judged in one or more rows:

  check          f(S)                            L, per row                               S cap
  prop21         exp(alpha S^2)                  3                                        sup|phi'| |v|
  thm23          exp(beta/sup|h|^2 S^2)          3                                        2 sup|b|
  concentration  1{S > eta sqrt(l) sup|h1-h2|}   3 e^(-beta eta^2), one row per eta       2 sup|b| l
  moments        S^p                             3 p^(p/2) beta^(-p/2) l^(p/2) |x-y|^p,   2 sup|b| l
                                                 one row per p

with S = |int_0^1 b'(t, Z_t) dt| for prop21 and
S = |int_r^u b(s, Z_s + h1(s)) - b(s, Z_s + h2(s)) ds| for the others.
Both are trapezoid sums on the coordinate's grid (ousim._trapezoid_rows).
The shift functionals integrate b's pair profile, phi(t, xi + h1) -
phi(t, xi + h2) = FunctionDescriptor.pair(t, h1, h2)(xi), never
a difference of two b values: for sin, cos and tanh it is an exact
identity whose rounding error is about eps (1 + omega |xi|) times
|omega (h1 - h2)|, so S keeps its size for a shift below the spacing of
floats near xi, and sin and cos take one transcendental per path-step.
The other profiles take the difference of two evaluations.
The caps hold by construction (b = phi v with |phi| <= sup|b| / |v|),
so S is refused above its cap once, where it is drawn and before f is
applied: check_prop21 refuses its S above sup|phi'| |v|, and
_pair_values the shift functional's above 2 sup|b| l (l = 1 for thm23).
Where h1 and h2 agree at every time of the coordinate's grid, as for a
b that reads a component the shift leaves alone, _pair_values returns
the functional's zeros and draws no path.
judge() builds every row, a Verdict: the mean of f(S), its stderr, the
one-sided CLT bound upper999, the limit L and the row's pass.  Every
check returns a CheckResult, its statement, rows and coordinate, and
passes when all its rows do.

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
Hilbert sampler.  Each check builds the Coordinate it samples once (the
last three through ExperimentSpec.coordinate) and returns it with its
result.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import DriftSpectrum, alpha as alpha_of, beta as beta_of
from .errors import DomainError, _check_count, _check_positive
from .fnlib import FunctionDescriptor, ShiftDescriptor, _check_window, _norm, shift_difference_norm
from .ousim import (_as_vector, _chunk_views, _grid, _lane_arrays, _trapezoid_rows, block_normals, block_paths_1d,
                    ndtri, run_blocks, run_lanes)

CONFIDENCE = 0.999
EXP_BOUND = 3.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

STATEMENT_PROP21 = "E exp(alpha |int_0^1 b'(t, Z_t) dt|^2) <= 3"
STATEMENT_THM23 = "E exp(beta/sup|h|^2 |int_0^1 b(t, Z_t + h(t)) - b(t, Z_t) dt|^2) <= 3"
STATEMENT_CONCENTRATION = (
    "P[|int_r^u b(s, Z_s + h1(s)) - b(s, Z_s + h2(s)) ds| > eta sqrt(l) sup|h1 - h2|] <= 3 exp(-beta eta^2)"
)
STATEMENT_MOMENTS = "E |int_r^u b(s, Z_s + x) - b(s, Z_s + y) ds|^p <= 3 p^(p/2) beta^(-p/2) l^(p/2) |x - y|^p"
STATEMENT_GAMMA = "(3p/2) Gamma(p/2) <= 3 p^(p/2)"
STATEMENT_DECOMPOSITION = "mean |backward - forward - int b'(t, Z_t) dt| decreases under grid refinement"


@dataclass(frozen=True)
class Verdict:
    """One row of a check: the mean of f(S) over n paths, its 0.999 upper bound and the limit L.

    The row passes, and is true, when upper999 <= limit.
    """

    mean: float
    stderr: float
    n: int
    upper999: float
    limit: float
    max_summand: float
    passed: bool

    def __bool__(self):
        return self.passed


def judge(summands, limit) -> Verdict:
    """The row of the per-path summands f(S_i) against the limit L.

    The only place a stderr, an upper bound or a row's pass is computed:
    the one-sided CLT bound mean + ndtri(0.999) std(ddof=1) / sqrt(n).
    """
    s = np.asarray(summands, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise DomainError("an estimate needs a vector of at least 2 samples")
    n = s.size
    mean = float(np.mean(s))
    stderr = float(np.std(s, ddof=1) / math.sqrt(n))
    upper = mean + ndtri(CONFIDENCE) * stderr
    if not math.isfinite(upper):
        raise DomainError(f"the summands' mean {mean:.6g} or stderr {stderr:.6g} is not finite")
    return Verdict(mean, stderr, n, upper, limit, float(np.max(s)), bool(upper <= limit))


def _in_range(values, cap) -> np.ndarray:
    """The statistic S as a float array, refused unless every value is finite and at most cap (1 + 1e-9).

    S is bounded by construction: a value above its certified cap left
    its range, which is a bug, not noise.
    """
    s = np.asarray(values, dtype=np.float64)
    top = float(np.max(s, initial=0.0))
    if not math.isfinite(top):
        raise DomainError("functional values must be finite")
    if top > cap * (1.0 + 1e-9):
        raise RuntimeError(f"value {top:.6g} exceeds the certified cap {cap:.6g}; a functional value left its range")
    return s


def exp_moment(values, alpha) -> Verdict:
    """The row of exp(alpha S_i^2) against EXP_BOUND, S_i >= 0 the per-path values."""
    alpha = _check_positive(alpha, "alpha")
    s = np.asarray(values, dtype=np.float64)
    return judge(np.exp(alpha * s * s), EXP_BOUND)


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

    spectrum is the run's truncated spectrum, every component of it live:
    a run on the first N rates of a longer spectrum passes
    longer.truncate(N), whose tail_inverse_mass carries the dropped mass.  b must carry both
    norm certificates and read a component of it.  The settings only
    some checks read (shifts, constant shifts, the window [r, u], the
    start value x0 and ell) are arguments of those checks, validated
    there before any path is drawn.  Equality and hashing are by
    identity.
    """

    spectrum: DriftSpectrum
    b: FunctionDescriptor
    seed: int
    m: int = 4096
    n_paths: int = 100_000
    workers: int = 1

    def __post_init__(self):
        _check_count(self.m, "m", 2)
        _check_count(self.n_paths, "n_paths", 2)
        _check_certified(self.b, need_a_norm=True)
        if self.b.direction >= len(self.spectrum):
            raise DomainError("descriptor direction outside the truncation")

    def coordinate(self, ell=1.0, r=0.0, u=1.0, x0=None) -> Coordinate:
        """b's coordinate at rate ell * lam_d on the window [r, u], started at x0 along it (0 without x0)."""
        _check_window(r, u)
        d = self.b.direction
        x0_dir = 0.0 if x0 is None else float(_as_vector(x0, len(self.spectrum), "x0")[d])
        return Coordinate(ell * self.spectrum.eigenvalues[d], self.m, d, u - r, r, x0_dir)


def _check_shifts(spec: ExperimentSpec, **shifts):
    """Refuse a shift built on other rates than spec's spectrum."""
    for name, h in shifts.items():
        if h.eigenvalues != spec.spectrum.eigenvalues:
            raise DomainError(f"{name} was built on a different spectrum (truncation {h.truncation}) than the "
                              f"experiment's (truncation {len(spec.spectrum)})")


def _beta(spec: ExperimentSpec) -> float:
    """beta of spec's spectrum, refused unless positive and finite: the Hilbert checks' rate, before any path is drawn.

    constants.beta is 0 or inf where LAM^-2 leaves the float range (rates
    below about 1e-154 or above about 1e154).
    """
    return _check_positive(beta_of(spec.spectrum), "beta")


# ----------------------------------------------------------------------
# block workers (module level, so a worker and its arguments pickle)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Coordinate:
    """The one OU state coordinate a check samples, picklable.

    Component `component` at rate `rate` on m steps of the window
    [t0, t0 + horizon], started at x0 at time t0: its paths are the
    component's block paths plus the start decay exp(-rate (t - t0)) x0.
    times() and paths() (through _start_decay) are the only copies of the
    window grid and the start decay; the block workers and the CLI's
    --dump read them here.
    """

    rate: float
    m: int
    component: int
    horizon: float = 1.0
    t0: float = 0.0
    x0: float = 0.0

    def times(self) -> np.ndarray:
        """The absolute grid times t0 + [0, horizon], m + 1 of them."""
        return self.t0 + _grid(self.m, self.horizon)

    def paths(self, seed, block, rows, normals=None, out=None, work=None) -> np.ndarray:
        """Rows (start, stop) of the block's paths on the grid, start decay included.

        normals, out and work are block_paths_1d's: a block kernel's lane
        passes the chunk's normals and its workspace.
        """
        z = block_paths_1d(self.rate, self.m, seed, self.component, block, horizon=self.horizon, rows=rows,
                           normals=normals, out=out, work=work)
        if self.x0 != 0.0:
            z += _start_decay(self.rate, self.m, self.horizon, self.x0)
        return z


@functools.lru_cache(maxsize=8)
def _start_decay(rate, m, horizon, x0):
    """exp(-rate tau) x0 on the window grid tau, read-only: computed once, not once per row chunk."""
    decay = np.exp(-rate * _grid(m, horizon)) * x0
    decay.setflags(write=False)
    return decay


def _chunk_integrals(count, seed, coord: Coordinate, b, integrand, lanes):
    """|int integrand(z, work) dt| |v| for paths z in [0, count), integrand a profile of the paths, in `lanes` lanes.

    A lane allocates its workspace (ousim._lane_arrays) once, draws,
    samples, evaluates and reduces each row chunk it takes in it, and
    writes the chunk's values into the one result array.  A chunk's
    paths overwrite its normals (ousim._chunk_views), integrand(z, work)
    may overwrite z and use work, the scan as an array of z's shape
    (dead between the recursion and the trapezoid), and the trapezoid
    runs in the scan, so a lane works in two arrays.  Each row's steps
    read only that row, so the values are bitwise those of whole-block
    passes, one per block.
    """
    m, dx, norm = coord.m, coord.horizon / coord.m, b.vector_norm
    out = np.empty(count)

    def lane(rows, chunks):
        scan, paths = _lane_arrays(rows, m)
        for blk, start, stop, at in chunks:
            n = stop - start
            normals, z = _chunk_views(paths, n, m)
            block_normals(seed, coord.component, blk, m, rows=(start, stop), out=normals)
            z = coord.paths(seed, blk, (start, stop), normals, z, scan)
            y = integrand(z, scan[: z.size].reshape(z.shape))
            out[at : at + n] = np.abs(_trapezoid_rows(y, dx, scan[: n * m].reshape(n, m))) * norm

    run_lanes(count, m, lane, lanes=lanes)
    return out


def _prop21_block(count, seed, coord: Coordinate, b, *, lanes):
    """|int b'(t, xi_t) dt| for paths [0, count), xi the coordinate's paths; b' is evaluated in place on the paths."""
    times = coord.times()
    return _chunk_integrals(count, seed, coord, b, lambda z, work: b.profile_dx(times, z, z), lanes)


def _shifted_pair_block(count, seed, coord: Coordinate, b, h1_vals, h2_vals, *, lanes):
    """|int [b(t, xi + h1) - b(t, xi + h2)] dt| for paths [0, count), h1_vals and h2_vals at coord.times().

    The pair profile is prepared once and evaluated in place on the
    paths, with the lane's scan as its scratch.
    """
    pair = b.pair(coord.times(), h1_vals, h2_vals)
    return _chunk_integrals(count, seed, coord, b, lambda z, work: pair(z, out=z, work=work), lanes)


def _pair_values(spec: ExperimentSpec, coord: Coordinate, h1, h2):
    """|int_r^u [b(s, xi_s + h1(s)) - b(s, xi_s + h2(s))] ds| per path, refused above 2 sup|b| l.

    xi is the coordinate (spec.coordinate) on its window [r, u] of length
    l; h1 and h2 map (component, absolute times) to shift values, as
    ShiftDescriptor.component does.  Where h1 and h2 agree at every time
    of the grid the functional vanishes, and its zeros are returned with
    no path drawn.
    """
    t_abs = coord.times()
    h1_vals, h2_vals = h1(coord.component, t_abs), h2(coord.component, t_abs)
    if np.array_equal(h1_vals, h2_vals):
        return np.zeros(spec.n_paths)
    values = run_blocks(_shifted_pair_block, spec.n_paths, spec.workers, (spec.seed, coord, spec.b, h1_vals, h2_vals))
    return _in_range(values, 2.0 * spec.b.norm_inf * coord.horizon)


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """What every check returns: its statement, its rows (Verdicts) and the coordinate it sampled.

    The check passes when all its rows do.
    """

    statement: str
    rows: tuple
    coordinate: Coordinate

    @property
    def passed(self) -> bool:
        return all(self.rows)


@dataclass(frozen=True)
class Prop21Result(CheckResult):
    alpha: float


def check_prop21(lam, b: FunctionDescriptor, m=4096, n_paths=100_000, *, seed, workers=1) -> Prop21Result:
    """E exp(alpha |int b'(t, Z_t) dt|^2) <= 3 for a smooth certified b."""
    if not b.smooth:
        raise DomainError(f"descriptor {b.name!r} has no derivative; the functional needs b'")
    _check_certified(b, need_a_norm=False)
    lam = float(lam)
    a = _check_positive(alpha_of(lam), "alpha")  # alpha underflows to 0 above lam of about 373: refused before sampling
    coord = Coordinate(lam, _check_count(m, "m", 2), b.direction)
    values = run_blocks(_prop21_block, _check_count(n_paths, "n_paths", 2), workers, (seed, coord, b))
    values = _in_range(values, math.inf if b.profile_dx_sup is None else b.profile_dx_sup * b.vector_norm)
    return Prop21Result(STATEMENT_PROP21, (exp_moment(values, a),), coord, a)


@dataclass(frozen=True)
class Thm23Result(CheckResult):
    beta: float
    rate: float
    h_sup: float
    ell: float


def check_thm23(spec: ExperimentSpec, h: ShiftDescriptor, ell=1.0) -> Thm23Result:
    """Exponential moment of the shift functional for the rescaled process.

    Components are sampled at rates ell * lam_n, with ell in (0, 1];
    beta comes from spec's truncated spectrum, the one the run lives on
    (a declared-unbounded tail still contributes its analytic infimum).
    """
    if not 0.0 < ell <= 1.0:
        raise DomainError("ell must be in (0, 1]")
    _check_shifts(spec, h=h)
    _check_positive(h.norm_inf, "sup |h|")
    beta_val = _beta(spec)
    try:
        rate = beta_val / h.norm_inf**2
    except (OverflowError, ZeroDivisionError):  # sup|h|^2 leaves the float range
        rate = math.inf if h.norm_inf < 1.0 else 0.0
    rate = _check_positive(rate, f"rate beta/sup|h|^2 = {beta_val:.6g}/{h.norm_inf:.6g}^2")
    coord = spec.coordinate(ell)
    values = _pair_values(spec, coord, h.component, lambda d, t: np.zeros_like(t))
    return Thm23Result(STATEMENT_THM23, (exp_moment(values, rate),), coord, beta_val, rate, h.norm_inf, ell)


@dataclass(frozen=True)
class ConcentrationResult(CheckResult):  # one row per eta
    beta: float
    ell: float
    diff_sup: float
    etas: tuple
    thresholds: tuple  # eta sqrt(l) sup|h1 - h2|, per eta
    degenerate: bool
    note: str


def concentration_tail(spec: ExperimentSpec, h1: ShiftDescriptor, h2: ShiftDescriptor, etas, r=0.0, u=1.0,
                       x0=None) -> ConcentrationResult:
    """Exceedance of the window functional against 3 e^(-beta eta^2), judged by its 0.999 upper bound.

    The run starts from the fixed point x0 (default 0) at time r; l = u - r.
    """
    coord = spec.coordinate(1.0, r, u, x0)
    _check_shifts(spec, h1=h1, h2=h2)
    etas = tuple(float(e) for e in etas)
    if not etas or any(e < 0 or not math.isfinite(e) for e in etas):
        raise DomainError("eta grid must be nonempty, nonnegative and finite")
    beta_val = _beta(spec)
    ell = coord.horizon
    diff_sup = shift_difference_norm(h1, h2, r, u)
    values = _pair_values(spec, coord, h1.component, h2.component)
    thresholds = tuple(e * math.sqrt(ell) * diff_sup for e in etas)
    rows = tuple(judge(values > thr, 3.0 * math.exp(-beta_val * e * e)) for e, thr in zip(etas, thresholds))
    note = "h1 = h2 on the window: the functional vanishes and the statement is trivial" if diff_sup == 0.0 else ""
    return ConcentrationResult(STATEMENT_CONCENTRATION, rows, coord, beta_val, ell, diff_sup, etas, thresholds,
                               diff_sup == 0.0, note)


@dataclass(frozen=True)
class MomentResult(CheckResult):  # one row per p
    beta: float
    ell: float
    separation: float
    ps: tuple
    bounds_stated: tuple  # the bound with beta^(+p/2), per p; each row's limit has beta^(-p/2)
    degenerate: bool
    note: str


def _moment_bound(p, ell, sep, beta_val, sign) -> float:
    """3 p^(p/2) l^(p/2) sep^p beta^(sign p/2), inf where that value overflows a float.

    The product is taken left to right.  Where a power or the product
    overflows or underflows (to inf, 0 or NaN; every factor is positive),
    it is taken from its logarithm instead.  sep = 0 (x = y) gives 0.
    """
    if sep == 0.0:
        return 0.0
    try:
        value = 3.0 * p ** (p / 2.0) * ell ** (p / 2.0) * sep**p * beta_val ** (sign * p / 2.0)
    except OverflowError:
        value = math.inf
    if 0.0 < value < math.inf:
        return value
    log = math.log(3.0) + p / 2.0 * (math.log(p) + math.log(ell) + sign * math.log(beta_val)) + p * math.log(sep)
    return math.exp(log) if log <= _LOG_FLOAT_MAX else math.inf


def moment_bound(spec: ExperimentSpec, x, y, ps, r=0.0, u=1.0, x0=None) -> MomentResult:
    """E |int_r^u b(s, Z+x) - b(s, Z+y) ds|^p against both exponent readings.

    x and y are constant shifts, vectors of the truncation's length.
    Each row's limit carries beta^(-p/2), which is what integrating the
    tail actually produces; bounds_stated carries the positive exponent
    beta^(p/2) as printed in the target inequality.  PASS compares with
    the limit only.
    """
    coord = spec.coordinate(1.0, r, u, x0)
    ps = tuple(_check_count(p, "moment order p", 1) for p in ps)
    if not ps:
        raise DomainError("need at least one moment order p")
    x = _as_vector(x, len(spec.spectrum), "x")
    y = _as_vector(y, len(spec.spectrum), "y")
    beta_val = _beta(spec)
    ell = coord.horizon
    sep = _norm(x - y)
    values = _pair_values(spec, coord, lambda d, t: np.full_like(t, x[d]), lambda d, t: np.full_like(t, y[d]))
    rows = tuple(judge(values**p, _moment_bound(p, ell, sep, beta_val, -1)) for p in ps)
    stated = tuple(_moment_bound(p, ell, sep, beta_val, 1) for p in ps)
    note = "x = y: the functional vanishes and every moment is zero" if sep == 0.0 else ""
    return MomentResult(STATEMENT_MOMENTS, rows, coord, beta_val, ell, sep, ps, stated, sep == 0.0, note)


def gamma_step_check(p_max=20):
    """(3p/2) Gamma(p/2) <= 3 p^(p/2) for p = 1..p_max, by direct evaluation."""
    p_max = _check_count(p_max, "p_max", 1)
    rows = []
    for p in range(1, p_max + 1):
        lhs = 1.5 * p * math.gamma(p / 2.0)
        rhs = 3.0 * p ** (p / 2.0)
        rows.append((p, lhs, rhs, lhs <= rhs))
    return rows
