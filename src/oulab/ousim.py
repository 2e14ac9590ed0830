"""Exact sampling of one-dimensional and spectrally truncated OU paths.

The process per component is dZ = -lam Z dt + dB with Z_0 = 0, whose
transition law is Gaussian and known in closed form:

    Z_{t+dt} | Z_t = z   ~   N( e^(-lam dt) z,  (1 - e^(-2 lam dt)) / (2 lam) )

so sampling on a grid is free of discretization error in the marginals:
refining the grid changes which times are observed, never their joint
distribution.  The alternative time-change route builds a Brownian path
on the deformed clock tau(t) = e^(2 lam t) - 1 and rescales,

    Z_t = (2 lam)^(-1/2) e^(-lam t) B~_{tau(t)} ,

which has the same law and cross-validates the recursion.

Reproducibility contract
------------------------
Streams are counter-based (Philox) and keyed by
(seed, domain, component, block), where a block covers BLOCK consecutive
path indices.  A path's Gaussians are row (path mod BLOCK) of the
C-order (BLOCK, M) draw matrix of its block, so any scheduling of blocks
across workers reproduces identical paths.  Any row range of a block is
reached without drawing the rows before it: Philox emits four 64-bit
words per counter step and each normal takes one word, so row r starts
floor(r M / 4) counter steps and (r M) mod 4 discarded words into its
block's stream.  One path costs O(M) draws and O(M) memory, and the
block kernels draw their blocks in row chunks that consume the stream
exactly as one whole-block draw does.  Uniforms map to normals
by the fixed-consumption inverse CDF

    k ~ uniform{0, ..., 2^53 - 1},   u = (k + 1/2) 2^-53,   z = ndtri(u),

one 53-bit draw per step.  Half-integers above 2^52 round, and the top
value k = 2^53 - 1 rounds u to exactly 1.0, so u is clamped one ulp
below 1 to keep ndtri finite; no other value can reach 0 or 1.

Paths are the recursion Z_{k+1} = a Z_k + sigma xi_k evaluated by
scipy's bundled LAPACK dgttrs (see _recursion_paths), so their bits
depend on that routine as well as on numpy's Philox and scipy's ndtri.

Stream domains: 0 = path increments (recursion), 1 = auxiliary draws
(e.g. stationary starts), 2 = time-change increments.  The recursion and
the time-change sampler read different domains so same-seed runs of the
two are independent.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.linalg.lapack import dgttrs
from scipy.special import ndtri

from .constants import DriftSpectrum, _coerce_spectrum
from .errors import DomainError

BLOCK = 256  # paths per RNG block; fixed, worker-independent

DOMAIN_PATH = 0
DOMAIN_AUX = 1
DOMAIN_CLOCK = 2

_U53 = 2.0**-53
_U_MAX = 1.0 - 2.0**-53

# e^(2 lam t) must stay representable for the deformed clock
_CLOCK_LIMIT = 700.0

# entries in each grid-constant cache of the per-path samplers; a grid is (lam, m, horizon)
_GRID_CACHE_SIZE = 32

# 64-bit words Philox emits per counter step
_PHILOX_WORDS = 4


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)):
        raise DomainError("seed must be an integer")
    if not 0 <= int(seed) < 2**64:
        raise DomainError("seed must fit in 64 bits")
    return int(seed)


def stream_key(seed, component, block, domain=DOMAIN_PATH) -> np.ndarray:
    """128-bit Philox key: word0 = seed, word1 packs (domain, component, block)."""
    seed = _check_seed(seed)
    # Python ints, so a narrow numpy integer cannot wrap in the shifts below
    component, block, domain = operator.index(component), operator.index(block), operator.index(domain)
    if not 0 <= component < 2**24:
        raise DomainError("component index must fit in 24 bits")
    if not 0 <= block < 2**32:
        raise DomainError("block index must fit in 32 bits")
    if not 0 <= domain < 2**8:
        raise DomainError("domain must fit in 8 bits")
    word1 = (domain << 56) | (component << 32) | block
    return np.array([seed, word1], dtype=np.uint64)


def substream(seed, component=0, block=0, domain=DOMAIN_PATH) -> Generator:
    """Fresh generator for one block's draws."""
    return Generator(Philox(key=stream_key(seed, component, block, domain)))


def standard_normal(gen: Generator, size=None) -> np.ndarray:
    """Inverse-CDF Gaussians, exactly one 53-bit uniform per value.

    u = min((k + 1/2) 2^-53, 1 - 2^-53) is formed in place in one float
    array, which ndtri then overwrites; size=None gives a scalar.
    """
    k = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    u = np.asarray(k, dtype=np.float64)
    u += 0.5
    u *= _U53
    np.minimum(u, _U_MAX, out=u)
    return ndtri(u, out=u)[()]


def chunk_rows(m) -> int:
    """Rows of a block that a block kernel processes at once.

    About 2^17 values (1 MB of float64) per intermediate array, so the
    arrays of one chunk stay in cache: 32 rows at m = 4096, the whole
    block at m <= 512.
    """
    return min(BLOCK, max(1, 2**17 // int(m)))


def row_chunks(count, m) -> list:
    """(start, stop) row ranges of chunk_rows(m) rows covering rows [0, count) of a block."""
    step = chunk_rows(m)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


def _row_range(rows) -> tuple:
    """Validated (start, stop) of a block's rows; None is the whole block."""
    if rows is None:
        return 0, BLOCK
    try:
        start, stop = rows
    except (TypeError, ValueError):
        raise DomainError("rows must be a (start, stop) pair") from None
    if not all(isinstance(v, (int, np.integer)) for v in (start, stop)):
        raise DomainError("row range bounds must be integers")
    if not 0 <= start <= stop <= BLOCK:
        raise DomainError(f"row range must satisfy 0 <= start <= stop <= {BLOCK}, got ({start}, {stop})")
    return int(start), int(stop)


def _stream_at_row(seed, component, block, m, row, domain) -> Generator:
    """The block's generator positioned at the first draw of row `row` of its (BLOCK, m) matrix.

    The rows before it are skipped by advancing the Philox counter, not drawn.
    """
    gen = substream(seed, component, block, domain)
    skip = int(row) * int(m)
    gen.bit_generator.advance(skip // _PHILOX_WORDS)
    if skip % _PHILOX_WORDS:
        gen.bit_generator.random_raw(skip % _PHILOX_WORDS, output=False)
    return gen


def block_normals(seed, component, block, m, domain=DOMAIN_PATH, rows=None) -> np.ndarray:
    """Rows [start, stop) of the (BLOCK, m) standard normal matrix of one block.

    rows=(start, stop) defaults to the whole block; the result is bitwise
    the same rows of the whole-block draw.
    """
    start, stop = _row_range(rows)
    gen = _stream_at_row(seed, component, block, m, start, domain)
    return standard_normal(gen, (stop - start, m))


@dataclass(frozen=True)
class PathStream:
    """Address of one path's randomness: (seed, path index, component)."""

    seed: int
    path: int
    component: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        for name in ("path", "component"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise DomainError(f"{name} index must be an integer")
        if self.path < 0:
            raise DomainError("path index must be nonnegative")

    @property
    def block(self) -> int:
        return self.path // BLOCK

    @property
    def row(self) -> int:
        return self.path % BLOCK


def path_normals(stream: PathStream, m, domain=DOMAIN_PATH) -> np.ndarray:
    """One path's m Gaussians (a row of its block matrix), in O(m) draws.

    The one-row case of block_normals: the result is bitwise that row.
    """
    gen = _stream_at_row(stream.seed, stream.component, stream.block, m, stream.row, domain)
    return standard_normal(gen, m)


# ----------------------------------------------------------------------
# one-dimensional paths
# ----------------------------------------------------------------------


def _check_rate(lam) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0:
        raise DomainError("rate must be positive and finite")
    return lam


def transition_mean_var(lam, z_current, dt):
    """Closed-form mean and variance of the one-step transition."""
    lam = _check_rate(lam)
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0:
        raise DomainError("dt must be positive and finite")
    if not np.all(np.isfinite(z_current)):
        raise DomainError("state must be finite")
    mean = math.exp(-lam * dt) * np.asarray(z_current, dtype=np.float64)
    var = -math.expm1(-2.0 * lam * dt) / (2.0 * lam)
    return mean, var


def transition_sample(lam, z_current, dt, substream: Generator):
    """One exact transition draw per state entry, one uniform each."""
    mean, var = transition_mean_var(lam, z_current, dt)
    size = None if np.ndim(z_current) == 0 else np.shape(z_current)
    return mean + math.sqrt(var) * standard_normal(substream, size)


@dataclass(frozen=True)
class PathGrid:
    """A sampled path on a uniform grid.

    Sampler output always has values[0] = 0 (the processes start at the
    origin); shifted paths carry their start value instead.
    """

    lam: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise DomainError("times and values must be equal-length vectors")
        if self.times[0] != 0.0:
            raise DomainError("grid must start at t = 0")
        if not np.isfinite(self.values[0]):
            raise DomainError("start value must be finite")

    @property
    def m(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE, typed=True)
def _grid(m, horizon):
    """The read-only uniform grid 0 = t_0 < ... < t_m = horizon."""
    if m < 2:
        raise DomainError("need at least 2 steps")
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0:
        raise DomainError("horizon must be positive")
    times = np.linspace(0.0, horizon, m + 1)
    times.setflags(write=False)
    return times


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE, typed=True)
def _recursion_factors(a, m):
    """Read-only dgttrs factors (dl, d, du, du2, ipiv) of the recursion matrix.

    The (m+1)x(m+1) matrix has 1 on its diagonal and -a below it: a
    tridiagonal matrix already in dgttrf's factored form, with a zero
    upper part and no row swaps (1-based ipiv[k] = k + 1).
    """
    dl = np.full(m, -a)
    d = np.ones(m + 1)
    du = np.zeros(m)
    du2 = np.zeros(m - 1)
    ipiv = np.arange(1, m + 2, dtype=np.int32)
    for factor in (dl, d, du, du2, ipiv):
        factor.setflags(write=False)
    return dl, d, du, du2, ipiv


def _recursion_paths(lam, m, normals, horizon):
    """Z_{k+1} = a Z_k + sigma xi_k along the last axis, Z_0 = 0.

    The paths solve L Z = (0, sigma xi) with L the unit lower-bidiagonal
    matrix of _recursion_factors, one path per right-hand side, by
    LAPACK dgttrs in place in the result.  This is bitwise the scalar
    transition loop: the forward sweep computes b_{k+1} - (-a) Z_k, which
    is fl(b_{k+1} + fl(a Z_k)), the loop's two roundings; the back sweep
    computes (b - 0 Z - 0 Z) / 1, which returns every finite b exactly
    except -0.0, and the recursion cannot produce -0.0 from its +0.0 start.
    """
    dt = horizon / m
    a = math.exp(-lam * dt)
    sigma = math.sqrt(-math.expm1(-2.0 * lam * dt) / (2.0 * lam))
    out = np.empty(normals.shape[:-1] + (m + 1,))
    out[..., 0] = 0.0
    np.multiply(sigma, normals, out=out[..., 1:])
    # no solve without rows: for an empty right-hand side f2py returns a fresh
    # array, not a view, and with scipy 1.17.1 repeated such calls end in a
    # segmentation fault
    if out.size:
        # Fortran-contiguous (m+1, paths) view of out: LAPACK solves in out itself
        paths, info = dgttrs(*_recursion_factors(a, m), out.reshape(-1, m + 1).T, overwrite_b=1)
        if info != 0 or not np.may_share_memory(paths, out):
            raise RuntimeError(f"dgttrs did not solve the recursion in place (info={info})")
    return out


def block_paths_1d(lam, m, seed, component, block, horizon=1.0, domain=DOMAIN_PATH, rows=None) -> np.ndarray:
    """Paths [start, stop) of one block as a (stop - start, m+1) array; rows defaults to all BLOCK paths."""
    lam = _check_rate(lam)
    times = _grid(m, horizon)  # validates m and horizon
    normals = block_normals(seed, component, block, m, domain, rows=rows)
    return _recursion_paths(lam, m, normals, float(times[-1]))


def sample_path_1d(lam, m, stream: PathStream, horizon=1.0) -> PathGrid:
    """One exact path; marginal of values[k] is N(0, (1-e^(-2 lam t_k))/(2 lam))."""
    lam = _check_rate(lam)
    times = _grid(m, horizon)
    normals = path_normals(stream, m)
    values = _recursion_paths(lam, m, normals, horizon)
    return PathGrid(lam=lam, times=times, values=values)


def deformed_clock(lam, t):
    """tau(t) = e^(2 lam t) - 1, the Brownian clock of the time change."""
    lam = _check_rate(lam)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(2.0 * lam * t_arr > _CLOCK_LIMIT):
        raise DomainError(
            f"e^(2 lam t) overflows at lam*t > {_CLOCK_LIMIT / 2:.0f}; "
            "this configuration needs a log-space clock, which the sampler does not implement"
        )
    return np.expm1(2.0 * lam * t_arr)


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE, typed=True)
def _clock_grid(lam, m, horizon):
    """Read-only (times, sqrt(tau_{k+1} - tau_k), e^(-lam t)) of the time-change sampler.

    lam must already be validated; m, horizon and the clock's range are checked here.
    """
    times = _grid(m, horizon)
    deformed_clock(lam, times)  # raises where e^(2 lam t) overflows
    # stable increment: tau_{k+1} - tau_k = e^(2 lam t_k) (e^(2 lam dt) - 1)
    dt = float(times[-1]) / m
    dtau = np.exp(2.0 * lam * times[:-1]) * math.expm1(2.0 * lam * dt)
    sqrt_dtau = np.sqrt(dtau)
    decay = np.exp(-lam * times)
    sqrt_dtau.setflags(write=False)
    decay.setflags(write=False)
    return times, sqrt_dtau, decay


def sample_path_timechange(lam, m, stream: PathStream, horizon=1.0) -> PathGrid:
    """Same law as sample_path_1d via Brownian motion on the deformed clock.

    Reads stream domain 2, so a same-seed pair (recursion, time change)
    is independent.
    """
    lam = _check_rate(lam)
    times, sqrt_dtau, decay = _clock_grid(lam, m, horizon)
    normals = path_normals(stream, m, domain=DOMAIN_CLOCK)
    brownian = np.concatenate(([0.0], np.cumsum(sqrt_dtau * normals)))
    values = decay * brownian / math.sqrt(2.0 * lam)
    values[0] = 0.0
    return PathGrid(lam=lam, times=times, values=values)


def marginal_variance(lam, t):
    """Var Z_t = (1 - e^(-2 lam t)) / (2 lam), exact for all t >= 0."""
    lam = _check_rate(lam)
    t_arr = np.asarray(t, dtype=np.float64)
    return -np.expm1(-2.0 * lam * t_arr) / (2.0 * lam)


def marginal_density(lam, t, x):
    """Density of Z_t started from 0; t must be positive."""
    lam = _check_rate(lam)
    t = float(t)
    if not math.isfinite(t) or t <= 0:
        raise DomainError("marginal density needs t > 0")
    denom = -math.expm1(-2.0 * lam * t)
    x_arr = np.asarray(x, dtype=np.float64)
    return np.sqrt(lam / (math.pi * denom)) * np.exp(-lam * x_arr * x_arr / denom)


# ----------------------------------------------------------------------
# truncated Hilbert paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertPath:
    """Independent OU components on a common grid.

    component_paths[n] uses rate eigenvalues[n] and the substream
    (seed, path, component=n).
    """

    spectrum: DriftSpectrum
    truncation: int
    component_paths: tuple

    @property
    def times(self) -> np.ndarray:
        return self.component_paths[0].times

    def component_values(self, n: int) -> np.ndarray:
        return self.component_paths[n].values

    def state_matrix(self) -> np.ndarray:
        """(m+1, N) array of the truncated state along the grid."""
        return np.stack([p.values for p in self.component_paths], axis=1)

    def norms(self) -> np.ndarray:
        return np.sqrt(np.sum(self.state_matrix() ** 2, axis=1))


def sample_hilbert(spectrum, truncation, m, seed, path=0, horizon=1.0) -> HilbertPath:
    """Truncated Hilbert path: one substream per (path, component)."""
    spec = _coerce_spectrum(spectrum)
    if truncation == 0:
        raise DomainError("truncation must be at least 1")
    if not 1 <= truncation <= len(spec):
        raise DomainError(f"truncation {truncation} exceeds the listed spectrum ({len(spec)})")
    comps = tuple(
        sample_path_1d(spec.eigenvalues[n], m, PathStream(seed=seed, path=path, component=n), horizon=horizon)
        for n in range(truncation)
    )
    return HilbertPath(spectrum=spec, truncation=truncation, component_paths=comps)


def tail_mass_bound(spectrum, truncation) -> float:
    """Invariant mass dropped by the truncation: sum_{n>N} 1/(2 lam_n)
    over the listed tail, plus any certified mass beyond the list."""
    spec = _coerce_spectrum(spectrum)
    arr = spec.array
    listed = float(np.sum(0.5 / arr[truncation:])) if truncation < len(spec) else 0.0
    return listed + spec.tail_inverse_mass


def _as_vector(v, n, name) -> np.ndarray:
    """v as a finite float vector of shape (n,); messages name it `name`."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (n,):
        raise DomainError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def shifted_process(path: HilbertPath, x) -> HilbertPath:
    """Z(t, x) = Z_t + e^(-tA) x, the process started at x."""
    x_arr = _as_vector(x, path.truncation, "start value")
    comps = tuple(
        PathGrid(lam=comp.lam, times=comp.times, values=comp.values + np.exp(-comp.lam * comp.times) * x_arr[n])
        for n, comp in enumerate(path.component_paths)
    )
    return HilbertPath(spectrum=path.spectrum, truncation=path.truncation, component_paths=comps)
