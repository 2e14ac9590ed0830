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

Reproducibility contract (stream contract philox-rowcounter-ziggurat-block256)
-----------------------------------------------------------------------------
Streams are counter-based (Philox4x64; Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011) and keyed by
(seed, domain, component, block), where a block covers BLOCK consecutive
path indices.  A path's Gaussians are row r = (path mod BLOCK) of the
(BLOCK, M) draw matrix of its block, and every row owns a counter
region of its own:

    row r = Generator(Philox(key=stream_key(seed, component, block, domain),
                             counter=[0, r, 0, 0])).standard_normal(M),

numpy's ziggurat.  The ziggurat reads a variable number of 64-bit words
per value, so a row cannot start at an offset computed from the rows
before it; with the row in counter word 1 it starts at a fixed place,
2^64 counter steps from the next row.  One path therefore costs O(M)
draws and O(M) memory, and any grouping of a block's rows (whole block,
row chunks, one path, row chunks of many blocks in one task), any
thread that draws a row (run_lanes deals a task's row chunks, across
its block boundaries, to the caller's thread and, in a serial run, one
lane thread) and any scheduling of blocks across workers
reproduce identical paths.  No generator is built per row: each
thread keeps one Philox generator and, before every row, replaces its
whole state with the fresh state of that row (the key and counter
(0, r, 0, 0), an empty output buffer), which is bitwise a new generator
at the row.

Paths are the recursion Z_{k+1} = a Z_k + sigma xi_k, Z_0 = 0, evaluated
by a blocked scan (see _recursion_paths): chunks of SCAN_STEPS steps are
swept from a zero start, a doubling scan carries the chunk ends across
chunks, and one broadcast adds each chunk's carried start.  Only
elementwise ufuncs touch the data, so a row's bits depend on its own
normals and M, never on how many rows share its array.  Up to SCAN_STEPS
steps the scan is the sequential loop, bit for bit; beyond that it agrees
with the loop to rounding (about 1e-14 of the path's scale at M = 4096).
The rate may differ per row: a truncated Hilbert path is one scan over a
(truncation, M) array whose row n runs at rate lam_n, bitwise the
one-rate scan of each row.

The bits depend on numpy's Philox and on Generator.standard_normal.
NEP 19 keeps bit generator streams stable across numpy versions but not
Generator methods, so every payload records the numpy version next to
STREAM_CONTRACT.

Stream domains: 0 = path increments (recursion), 1 = auxiliary draws
(e.g. stationary starts), 2 = time-change increments.  The recursion and
the time-change sampler read different domains so same-seed runs of the
two are independent.

Importing this module loads constants, errors and numpy, nothing that
single-path sampling does not call.  ndtri, which only a verdict row
needs, imports statistics at its first call.  run_lanes, the block
kernels' second lane, is a plain threading.Thread, so no run loads
concurrent.futures (with its logging, traceback and queue) for it.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .constants import DriftSpectrum, _coerce_spectrum
from .errors import DomainError

STREAM_CONTRACT = "philox-rowcounter-ziggurat-block256"

BLOCK = 256  # paths per RNG block; fixed, worker-independent

DOMAIN_PATH = 0
DOMAIN_AUX = 1
DOMAIN_CLOCK = 2

SCAN_STEPS = 32  # steps per chunk of the recursion scan

# e^(2 lam t) must stay representable for the deformed clock
_CLOCK_LIMIT = 700.0

# entries in each grid-constant cache of the per-path samplers; a grid is (lam, m, horizon)
_GRID_CACHE_SIZE = 32

# whether run_lanes runs a second lane on a helper thread; draw_inline clears it in a pool process
_two_lanes = True


def _check_count(value, name, least, below=None) -> int:
    """value as a Python int with least <= value < below (no upper bound when below is None).

    numpy integers pass; bools, floats and strings do not.  The one
    integer check of the sampling and block-task layers: counts, seeds,
    stream key words, path addresses and row ranges pass through it.
    """
    try:
        value = operator.index(None if isinstance(value, bool) else value)  # a bool is no count
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    if below is not None and value >= below:
        raise DomainError(f"{name} must be below {below}, got {value}")
    return value


def _check_seed(seed) -> int:
    return _check_count(seed, "seed", 0, 2**64)


def _key_words(seed, component, block, domain) -> tuple:
    """The two words of stream_key as Python ints, so a narrow numpy integer cannot wrap in the shifts."""
    seed = _check_seed(seed)
    component = _check_count(component, "component index", 0, 2**24)
    block = _check_count(block, "block index", 0, 2**32)
    domain = _check_count(domain, "domain", 0, 2**8)
    return seed, (domain << 56) | (component << 32) | block


def stream_key(seed, component, block, domain=DOMAIN_PATH) -> np.ndarray:
    """128-bit Philox key: word0 = seed, word1 packs (domain, component, block)."""
    return np.array(_key_words(seed, component, block, domain), dtype=np.uint64)


def substream(seed, component=0, block=0, domain=DOMAIN_PATH, row=0) -> Generator:
    """Fresh generator at the start of row `row` of one block's stream."""
    return Generator(Philox(key=stream_key(seed, component, block, domain), counter=[0, row, 0, 0]))


class _ThreadGenerator(threading.local):
    """The calling thread's one generator for row draws; see _row_generator."""

    def __init__(self):
        self.gen = Generator(Philox(0))


_THREAD = _ThreadGenerator()


def _row_generator(key_words, row) -> Generator:
    """This thread's generator at the start of row `row` of the stream keyed key_words.

    Bitwise substream(..., row=row): the whole Philox state is replaced by
    the state of a fresh generator there (the key, counter (0, row, 0, 0),
    an empty output buffer), so nothing of an earlier draw carries over.
    """
    gen = _THREAD.gen
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, row, 0, 0], "key": key_words},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def standard_normal(gen: Generator, size=None, out=None):
    """numpy's ziggurat Gaussians from gen; size=None without out gives a float."""
    return gen.standard_normal(size, out=out)


@functools.cache
def _standard_normal_law():
    """statistics.NormalDist(), imported at the first ndtri call: sampling never needs it."""
    from statistics import NormalDist

    return NormalDist()


def ndtri(p) -> float:
    """Standard normal quantile of a probability p in (0, 1), the package's one inverse normal CDF."""
    if not 0.0 < p < 1.0:  # NaN fails too
        raise DomainError(f"ndtri needs a probability in (0, 1), got {p!r}")
    return _standard_normal_law().inv_cdf(p)


def chunk_rows(m) -> int:
    """Rows of a block that a block kernel processes at once.

    About 2^16 values (512 KB of float64) per array of a lane's workspace
    (_lane_arrays: normals, scan and paths), so the arrays one chunk
    works on stay in cache: 16 rows at m = 4096, the whole block at
    m <= 256.
    """
    return min(BLOCK, max(1, 2**16 // int(m)))


def row_chunks(count, m) -> list:
    """(start, stop) row ranges of chunk_rows(m) rows covering rows [0, count) of a block."""
    step = chunk_rows(m)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


def _trapezoid_rows(y, dx, out):
    """np.trapezoid(y, dx=dx, axis=-1) of (n, k) y, the same operations in order, through out (n, k-1).

    A block kernel passes a view of its lane's scan array (_lane_arrays),
    so a chunk's reduction allocates only its (n,) result.
    """
    np.add(y[..., 1:], y[..., :-1], out=out)
    np.multiply(dx, out, out=out)
    np.divide(out, 2.0, out=out)
    return out.sum(-1)


def _row_range(rows) -> tuple:
    """Validated (start, stop) of a block's rows, 0 <= start <= stop <= BLOCK; None is the whole block."""
    if rows is None:
        return 0, BLOCK
    try:
        start, stop = rows
    except (TypeError, ValueError):
        raise DomainError("rows must be a (start, stop) pair") from None
    start = _check_count(start, "row range start", 0, BLOCK + 1)
    return start, _check_count(stop, "row range stop", start, BLOCK + 1)


def block_normals(seed, component, block, m, domain=DOMAIN_PATH, rows=None, out=None) -> np.ndarray:
    """Rows [start, stop) of the (BLOCK, m) standard normal matrix of one block.

    rows=(start, stop) defaults to the whole block; out, a C-contiguous
    (stop - start, m) array, receives them in place of a new array.  Each
    row is drawn by the calling thread's generator set to that row,
    bitwise substream(..., row=r) on any thread.
    """
    start, stop = _row_range(rows)
    key_words = _key_words(seed, component, block, domain)
    shape = (stop - start, _check_count(m, "m", 0))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise DomainError(f"out must have shape {shape}, got {out.shape}")
    for row in range(start, stop):
        standard_normal(_row_generator(key_words, row), out=out[row - start])
    return out


def draw_inline():
    """Make every task in this process run one lane, on the caller's thread.

    The initializer of every process pool (parallel.run_blocks): a pool
    runs one lane per process, and only a serial run keeps two.
    """
    global _two_lanes
    _two_lanes = False


def _lane_arrays(rows, m) -> tuple:
    """One lane's workspace for row chunks of up to `rows` rows on up to m steps: (normals, scan, paths).

    normals (rows, m) takes a chunk's draw, the flat scan holds the
    recursion's scan array (_recursion_paths' work) and afterwards serves
    as scratch for up to rows * m values, and paths (rows, m + 1) takes
    the chunk's paths.  A block kernel allocates them once per task and
    lane, and every chunk the lane takes, in any block of the task,
    reuses them.
    """
    steps = min(SCAN_STEPS, m)
    return np.empty((rows, m)), np.empty(rows * steps * -(-m // steps)), np.empty((rows, m + 1))


def block_layout(n_paths) -> list:
    """(block_index, count) pairs covering path indices 0..n_paths-1."""
    full, rem = divmod(_check_count(n_paths, "n_paths", 1), BLOCK)
    return [(b, BLOCK) for b in range(full)] + ([(full, rem)] if rem else [])


def task_chunks(block, count, m) -> list:
    """(block, start, stop, at) of every row chunk of the task's paths block * BLOCK + [0, count), in path order.

    Rows [start, stop) of a chunk's block are the task's paths at + [0,
    stop - start).  count may exceed BLOCK, so a task may span blocks
    (those of block_layout(count), shifted by block), and its first chunk
    is its largest.
    """
    return [(block + k, start, stop, k * BLOCK + start)
            for k, rows in block_layout(count) for start, stop in row_chunks(rows, m)]


def run_lanes(block, count, m, lane):
    """Run lane(rows, chunks) in up to two lanes over the row chunks (task_chunks) of one task's paths.

    chunks is one iterator over the task's chunks, in path order, shared
    by the lanes: each takes the next chunk as soon as it finishes one,
    so the chunks cross block boundaries and neither lane waits for the
    other at the end of a block.  rows is the height of the largest
    chunk, for the lane's workspace (_lane_arrays).  The caller's thread
    is one lane; where there are two chunks or more and draw_inline has
    not run in this process (a serial run, not a pool worker), one
    helper thread is the other.  Each lane draws and computes whole
    chunks and writes their rows of the task's result, so both cores
    draw and compute.  Every row sets its own Philox state on the thread
    that draws it and nothing a row's values read depends on the other
    rows of its chunk, so the bits depend on neither the lane nor the
    dealing.  The helper lives only inside this call: it is joined
    before the call returns or raises, and an exception in either lane
    leaves the call, after the other lane has finished the chunk it
    holds.
    """
    chunks = task_chunks(block, count, m)
    rows = chunks[0][2] - chunks[0][1]
    dealt = iter(chunks)  # a list iterator's next is one step under the GIL, so no chunk goes to both lanes
    if not _two_lanes or len(chunks) == 1:
        lane(rows, dealt)
        return
    failed = []

    def helper_lane():
        try:
            lane(rows, dealt)
        except BaseException as exc:  # raised again on the caller's thread
            failed.append(exc)
            chunks.clear()  # ends the dealing: the caller's lane takes no further chunk

    helper = threading.Thread(target=helper_lane, name="oulab-lane")
    helper.start()
    try:
        lane(rows, dealt)
    finally:
        chunks.clear()  # a list iterator reads its list's length at each step: the helper takes no further chunk
        helper.join()
    if failed:
        raise failed[0]


@dataclass(frozen=True)
class PathStream:
    """Address of one path's randomness: (seed, path index, component)."""

    seed: int
    path: int
    component: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        _check_count(self.path, "path index", 0, BLOCK * 2**32)  # its block fits the key's 32-bit word
        _check_count(self.component, "component index", 0, 2**24)

    @property
    def block(self) -> int:
        return self.path // BLOCK

    @property
    def row(self) -> int:
        return self.path % BLOCK


def path_normals(stream: PathStream, m, domain=DOMAIN_PATH) -> np.ndarray:
    """One path's m Gaussians, bitwise its row of block_normals, in O(m) draws."""
    m = _check_count(m, "m", 0)
    key_words = _key_words(stream.seed, stream.component, stream.block, domain)
    return standard_normal(_row_generator(key_words, stream.row), m)


# ----------------------------------------------------------------------
# one-dimensional paths
# ----------------------------------------------------------------------


def _check_rate(lam) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0:
        raise DomainError("rate must be positive and finite")
    return lam


@dataclass(frozen=True, eq=False)
class PathGrid:
    """A sampled path on a uniform grid.

    Sampler output always has values[0] = 0 (the processes start at the
    origin); a path built by hand may start elsewhere.  Equality and
    hashing are by identity.
    """

    lam: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times, values = self.times, self.values
        if times.shape != values.shape or times.ndim != 1:
            raise DomainError("times and values must be equal-length vectors")
        if times.size < 2:
            raise DomainError("a grid needs at least two points")
        if times[0] != 0.0:
            raise DomainError("grid must start at t = 0")
        if not math.isfinite(values[0]):
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
    m = _check_count(m, "m", 2)
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0:
        raise DomainError("horizon must be positive")
    times = np.linspace(0.0, horizon, m + 1)
    times.setflags(write=False)
    return times


def _step_coefficients(lam, dt) -> tuple:
    """(a, sigma) of one exact step: a = e^(-lam dt), sigma^2 = (1 - e^(-2 lam dt)) / (2 lam)."""
    return math.exp(-lam * dt), math.sqrt(-math.expm1(-2.0 * lam * dt) / (2.0 * lam))


def _recursion_paths(lam, m, normals, horizon, out=None, work=None):
    """Z_{k+1} = a Z_k + sigma xi_k along the last axis, Z_0 = 0, by a blocked scan.

    Step j of chunk c (L = SCAN_STEPS consecutive steps) sits at t[j, ..., c]
    of one contiguous array, so each step of the sweep is one elementwise
    update of a whole row of t.  The sweep solves every chunk from a zero
    start, which is the loop's own rounding, fl(fl(a Z) + fl(sigma xi)).
    The chunk ends then obey end_c += a^L end_{c-1}, solved by doubling:
    log2(chunks) elementwise steps.  Finally step j of chunk c gains
    a^(j+1) end_{c-1}; those products go through the output array before
    the paths are copied into it, so the carry allocates nothing.  The
    last chunk is padded with zeros, which only reach the steps after
    them.

    lam is one rate, or an array of one rate per row (shape
    normals.shape[:-1]).  Per row, a, sigma and the powers of a become
    (..., 1) columns of the same libm calls and float products, so each
    row's bits are those of a one-rate call at its rate.  out, a
    C-contiguous normals.shape[:-1] + (m + 1,) array, receives the paths
    in place of a new array; work, a flat float array (a lane's scan,
    _lane_arrays), holds t in place of a new array.
    """
    dt = horizon / m
    lead = normals.shape[:-1]
    if isinstance(lam, np.ndarray):
        column = lead + (1,)
        a, sigma = np.reshape(np.transpose([_step_coefficients(rate, dt) for rate in lam.ravel()]), (2,) + column)
    else:
        column = (1,) * (len(lead) + 1)  # a scalar rate broadcasts as a column of ones
        a, sigma = _step_coefficients(lam, dt)
    steps = min(SCAN_STEPS, m)
    full, rem = divmod(m, steps)
    chunks = full + (rem > 0)
    shape = (steps,) + lead + (chunks,)
    t = np.empty(shape) if work is None else work[: math.prod(shape)].reshape(shape)
    to_t = (t.ndim - 1,) + tuple(range(t.ndim - 1))  # (..., chunks, steps) axes -> t's (steps, ..., chunks)
    np.multiply(sigma, normals[..., : full * steps].reshape(lead + (full, steps)).transpose(to_t), out=t[..., :full])
    if rem:
        np.multiply(sigma, normals[..., full * steps :].reshape(lead + (1, rem)).transpose(to_t), out=t[:rem, ..., full:])
        t[rem:, ..., full] = 0.0
    for j in range(1, steps):
        t[j] += a * t[j - 1]
    if out is None:
        out = np.empty(lead + (m + 1,))
    if chunks > 1:
        powers = [a]  # a^(j+1) for j < L as float products: no libm pow in the bits
        for _ in range(steps - 1):
            powers.append(powers[-1] * a)
        ends = t[-1]
        shift, factor = 1, powers[-1]
        while shift < chunks:
            ends[..., shift:] += factor * ends[..., :-shift]
            shift, factor = 2 * shift, factor * factor
        carried = ends[..., :-1]  # the products a^(j+1) end_{c-1} go into out, which holds nothing yet
        gains = out.reshape(-1)[: (steps - 1) * carried.size].reshape((steps - 1,) + carried.shape)
        t[:-1, ..., 1:] += np.multiply(np.reshape(powers[:-1], (steps - 1,) + column), carried, out=gains)
    out[..., 0] = 0.0
    out[..., 1 : full * steps + 1].reshape(lead + (full, steps)).transpose(to_t)[...] = t[..., :full]
    if rem:
        out[..., full * steps + 1 :].reshape(lead + (1, rem)).transpose(to_t)[...] = t[:rem, ..., full:]
    return out


def block_paths_1d(lam, m, seed, component, block, horizon=1.0, domain=DOMAIN_PATH, rows=None,
                   normals=None, out=None, work=None) -> np.ndarray:
    """Paths [start, stop) of one block as a (stop - start, m+1) array; rows defaults to all BLOCK paths.

    normals, when given, are those rows' block_normals already drawn (a
    block kernel's lane draws them into its workspace) and replace the
    draw; out and work are _recursion_paths' (the lane's paths and scan).
    """
    lam = _check_rate(lam)
    times = _grid(m, horizon)  # validates m and horizon
    if normals is None:
        normals = block_normals(seed, component, block, m, domain, rows=rows)
    else:
        start, stop = _row_range(rows)
        if normals.shape != (stop - start, m):
            raise DomainError(f"normals must have shape ({stop - start}, {m}), got {normals.shape}")
    return _recursion_paths(lam, m, normals, float(times[-1]), out, work)


def sample_path_1d(lam, m, stream: PathStream, horizon=1.0) -> PathGrid:
    """One exact path: row stream.row of its block's block_paths_1d, bitwise.

    The marginal of values[k] is N(0, (1-e^(-2 lam t_k))/(2 lam)).
    """
    rows = (stream.row, stream.row + 1)
    values = block_paths_1d(lam, m, stream.seed, stream.component, stream.block, horizon, rows=rows)[0]
    return PathGrid(lam=float(lam), times=_grid(m, horizon), values=values)  # both checked by block_paths_1d


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
    values = np.empty(times.size)
    values[0] = 0.0
    brownian = values[1:]
    np.multiply(sqrt_dtau, path_normals(stream, m, DOMAIN_CLOCK), out=brownian)
    brownian.cumsum(out=brownian)
    values *= decay
    values /= math.sqrt(2.0 * lam)
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


@dataclass(frozen=True, eq=False)
class HilbertPath:
    """Independent OU components on a common grid.

    component_paths[n] uses rate eigenvalues[n] and the substream
    (seed, path, component=n).  Equality and hashing are by identity.
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
    """Truncated Hilbert path: one substream per (path, component).

    Component n is bitwise sample_path_1d(lam_n, m, PathStream(seed, path, n)):
    its normals come from path_normals, and one scan with a rate per row
    evolves all components at once.
    """
    spec = _coerce_spectrum(spectrum)
    truncation = _check_count(truncation, "truncation", 1)
    if truncation > len(spec):
        raise DomainError(f"truncation {truncation} exceeds the listed spectrum ({len(spec)})")
    times = _grid(m, horizon)
    rates = spec.eigenvalues[:truncation]
    normals = np.array([path_normals(PathStream(seed, path, n), m) for n in range(truncation)])
    values = _recursion_paths(np.array(rates), m, normals, horizon)
    comps = tuple(PathGrid(lam, times, row) for lam, row in zip(rates, values))
    return HilbertPath(spectrum=spec, truncation=truncation, component_paths=comps)


def tail_mass_bound(spectrum, truncation) -> float:
    """Invariant mass dropped by the truncation: sum_{n>N} 1/(2 lam_n)
    over the listed tail, plus any certified mass beyond the list."""
    return _coerce_spectrum(spectrum).truncate(_check_count(truncation, "truncation", 1)).tail_inverse_mass


def _as_vector(v, n, name) -> np.ndarray:
    """v as a finite float vector of shape (n,); messages name it `name`."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (n,):
        raise DomainError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr
