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
row chunks, one path, row chunks of many blocks in one run) and any
thread that draws a row (run_lanes deals a run's row chunks, across
its block boundaries, to the caller's thread and its lane threads)
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
needs, imports statistics at its first call.  run_lanes' lane threads
are plain threading.Threads, so no run loads concurrent.futures (with
its logging, traceback and queue) or multiprocessing.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .constants import DriftSpectrum, _coerce_spectrum
from .errors import DomainError, _check_count, _check_positive

STREAM_CONTRACT = "philox-rowcounter-ziggurat-block256"

BLOCK = 256  # paths per RNG block; fixed, worker-independent
MAX_WORKERS = 64  # most lanes a run may ask for: each is a thread, and no count above two was ever measured

DOMAIN_PATH = 0
DOMAIN_AUX = 1
DOMAIN_CLOCK = 2

SCAN_STEPS = 32  # steps per chunk of the recursion scan

# e^(2 lam t) must stay representable for the deformed clock
_CLOCK_LIMIT = 700.0

# entries in each grid-constant cache of the per-path samplers; a grid is (lam, m, horizon)
_GRID_CACHE_SIZE = 32


def _check_seed(seed) -> int:
    return _check_count(seed, "seed", 0, 2**64)


def _check_domain(domain) -> int:
    return _check_count(domain, "domain", 0, 2**8)


def _key_words(seed, component, block, domain) -> tuple:
    """The two words of stream_key as Python ints, so a narrow numpy integer cannot wrap in the shifts."""
    seed = _check_seed(seed)
    component = _check_count(component, "component index", 0, 2**24)
    block = _check_count(block, "block index", 0, 2**32)
    return seed, (_check_domain(domain) << 56) | (component << 32) | block


def stream_key(seed, component, block, domain=DOMAIN_PATH) -> np.ndarray:
    """128-bit Philox key: word0 = seed, word1 packs (domain, component, block)."""
    return np.array(_key_words(seed, component, block, domain), dtype=np.uint64)


def substream(seed, component=0, block=0, domain=DOMAIN_PATH, row=0) -> Generator:
    """Fresh generator at the start of row `row` of one block's stream."""
    return Generator(Philox(key=stream_key(seed, component, block, domain), counter=[0, row, 0, 0]))


class _ThreadGenerator(threading.local):
    """The calling thread's one generator for row draws and the state dict it is set from; see _row_generator."""

    def __init__(self):
        self.gen = Generator(Philox(0))
        self.counter = [0, 0, 0, 0]
        self.words = {"counter": self.counter, "key": (0, 0)}
        self.state = {"bit_generator": "Philox", "state": self.words, "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}


_THREAD = _ThreadGenerator()


def _row_generator(key_words, row) -> Generator:
    """This thread's generator at the start of row `row` of the stream keyed key_words.

    Bitwise substream(..., row=row): the whole Philox state is replaced by
    the state of a fresh generator there (the key, counter (0, row, 0, 0),
    an empty output buffer), so nothing of an earlier draw carries over.
    The thread's one state dict changes only in the key and counter word
    1; the setter copies it into the generator and keeps no reference.
    """
    thread = _THREAD
    thread.counter[1] = row
    thread.words["key"] = key_words
    thread.gen.bit_generator.state = thread.state
    return thread.gen


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
    (_lane_arrays: the scan, and the paths written over the chunk's
    normals), so the arrays one chunk works on stay in cache: 16 rows at
    m = 4096, the whole block at m <= 256.
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


def _lane_arrays(rows, m) -> tuple:
    """One lane's workspace for row chunks of up to `rows` rows on up to m steps: two flat arrays (scan, paths).

    scan holds the recursion's scan array (_recursion_paths' work) and
    afterwards serves as scratch for up to rows * (m + 1) values; paths,
    of rows * (m + 1) values, holds a chunk's normals and then its paths
    (_chunk_views).  A block kernel allocates them once per run and
    lane, and every chunk the lane takes, in any block, reuses them.
    """
    steps = min(SCAN_STEPS, m)
    return np.empty(rows * max(steps * -(-m // steps), m + 1)), np.empty(rows * (m + 1))


def _chunk_views(paths, n, m) -> tuple:
    """(normals, paths) of an n-row chunk on m steps in a flat path buffer (_lane_arrays).

    The (n, m) normals are the buffer's first n * m values and the
    (n, m + 1) paths its first n * (m + 1): _recursion_paths reads the
    normals before it writes the paths, so the paths overwrite them.
    """
    return paths[: n * m].reshape(n, m), paths[: n * (m + 1)].reshape(n, m + 1)


def block_layout(n_paths) -> list:
    """(block_index, count) pairs covering path indices 0..n_paths-1."""
    full, rem = divmod(_check_count(n_paths, "n_paths", 1), BLOCK)
    return [(b, BLOCK) for b in range(full)] + ([(full, rem)] if rem else [])


def task_chunks(count, m) -> list:
    """(block, start, stop, at) of every row chunk of a run's paths [0, count), in path order.

    Rows [start, stop) of a chunk's block are the run's paths at + [0,
    stop - start).  The chunks cross the blocks of block_layout(count),
    and the first chunk is the largest.
    """
    return [(blk, start, stop, blk * BLOCK + start)
            for blk, rows in block_layout(count) for start, stop in row_chunks(rows, m)]


def run_lanes(count, m, lane, *, lanes):
    """Run lane(rows, chunks) in min(lanes, chunks) lanes over the row chunks (task_chunks) of paths [0, count).

    chunks is one iterator over the run's chunks, in path order, shared
    by the lanes: each takes the next chunk as soon as it finishes one,
    so the chunks cross block boundaries and no lane waits for another
    at the end of a block.  rows is the height of the largest chunk, for
    the lane's workspace (_lane_arrays).  The caller's thread is one
    lane and each other lane is a helper thread, so p lanes draw and
    compute on p cores as far as the interpreter lock lets them (numpy
    releases it in its draws and ufuncs).  Each lane draws and computes
    whole chunks and writes their rows of the run's result.  Every row
    sets its own Philox state on the thread that draws it and nothing a
    row's values read depends on the other rows of its chunk, so the
    bits depend on neither the lane count nor the dealing.  The helpers
    live only inside this call: they are joined before the call returns
    or raises, and an exception in any lane leaves the call, after the
    other lanes have finished the chunks they hold.

    Beside a busy pure-Python thread of the same process, each lane
    waits out that thread's switch interval whenever it takes the lock
    back after a numpy call: a convoy at any lane count.  One lane is
    the slowest there too (thm23's kernel, n = 512, M = 4096, 2-vCPU VM:
    7.7-8.7 s against 1.7-2.5 s for two lanes; 0.066-0.094 s and
    0.045-0.054 s without the busy thread), so the rule stays at least
    two lanes.
    """
    lanes = _check_count(lanes, "lanes", 1)
    chunks = task_chunks(count, m)
    rows = chunks[0][2] - chunks[0][1]
    dealt = iter(chunks)  # a list iterator's next is one step under the GIL, so no chunk goes to two lanes
    failed = []

    def helper_lane():
        try:
            lane(rows, dealt)
        except BaseException as exc:  # raised again on the caller's thread
            failed.append(exc)
            chunks.clear()  # ends the dealing: no other lane takes a further chunk

    helpers = []
    try:
        for _ in range(min(lanes, len(chunks)) - 1):
            helper = threading.Thread(target=helper_lane, name="oulab-lane")
            helper.start()
            helpers.append(helper)
        lane(rows, dealt)
    finally:
        chunks.clear()  # a list iterator reads its list's length at each step: no helper takes a further chunk
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[0]


def run_blocks(worker, n_paths, workers, args) -> np.ndarray:
    """The (n_paths, ...) rows of worker(n_paths, *args, lanes=...), one call over all of a run's paths.

    The package's one lane rule: a run of `workers` p, 1 <= p <=
    MAX_WORKERS, deals its row chunks to max(2, p) lanes of this one
    process (run_lanes, which runs no more lanes than chunks); the lane
    count never changes a result.  worker(count, *args, lanes=...)
    returns the rows of paths [0, count) and passes lanes to run_lanes.
    """
    workers = _check_count(workers, "workers", 1, MAX_WORKERS + 1)
    return worker(_check_count(n_paths, "n_paths", 1), *args, lanes=max(2, workers))


@dataclass(frozen=True)
class PathStream:
    """Address of one path's randomness: (seed, path index, component)."""

    seed: int
    path: int
    component: int = 0

    def __post_init__(self):
        path = _check_count(self.path, "path index", 0, BLOCK * 2**32)  # its block fits the key's 32-bit word
        # the key at domain 0, checked and packed once for every path_normals call, which ORs in its domain
        object.__setattr__(self, "_words", _key_words(self.seed, self.component, path // BLOCK, DOMAIN_PATH))

    @property
    def block(self) -> int:
        return self.path // BLOCK

    @property
    def row(self) -> int:
        return self.path % BLOCK


def path_normals(stream: PathStream, m, domain=DOMAIN_PATH) -> np.ndarray:
    """One path's m Gaussians, bitwise its row of block_normals, in O(m) draws."""
    m = _check_count(m, "m", 0)
    seed, word = stream._words
    return standard_normal(_row_generator((seed, (_check_domain(domain) << 56) | word), stream.row), m)


# ----------------------------------------------------------------------
# one-dimensional paths
# ----------------------------------------------------------------------


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
    horizon = _check_positive(horizon, "horizon")
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
    in place of a new array, and may hold the normals themselves
    (_chunk_views): they are read only into t, before out is written.
    work, a flat float array (a lane's scan, _lane_arrays), holds t in
    place of a new array.
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
    out = np.empty(lead + (m + 1,)) if out is None else out
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
    lam = _check_positive(lam, "rate")
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
    lam = _check_positive(lam, "rate")
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
    lam = _check_positive(lam, "rate")
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
    lam = _check_positive(lam, "rate")
    t_arr = np.asarray(t, dtype=np.float64)
    return -np.expm1(-2.0 * lam * t_arr) / (2.0 * lam)


def marginal_density(lam, t, x):
    """Density of Z_t started from 0; t must be positive."""
    lam = _check_positive(lam, "rate")
    t = _check_positive(t, "t")
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
    rates = spec.truncate(truncation).eigenvalues
    truncation = len(rates)
    times = _grid(m, horizon)
    normals = np.array([path_normals(PathStream(seed, path, n), m) for n in range(truncation)])
    values = _recursion_paths(np.array(rates), m, normals, horizon)
    comps = tuple(PathGrid(lam, times, row) for lam, row in zip(rates, values))
    return HilbertPath(spectrum=spec, truncation=truncation, component_paths=comps)


def tail_mass_bound(spectrum, truncation) -> float:
    """Invariant mass dropped by the truncation: sum_{n>N} 1/(2 lam_n)
    over the listed tail, plus any certified mass beyond the list."""
    return _coerce_spectrum(spectrum).truncate(truncation).tail_inverse_mass


def _as_vector(v, n, name) -> np.ndarray:
    """v as a finite float vector of shape (n,); messages name it `name`."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (n,):
        raise DomainError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr
