"""Worker-count-independent block scheduling.

Monte Carlo work is split into fixed blocks of BLOCK path indices (the
RNG block size, laid out by ousim.block_layout), each a pure function
of (seed, block).  Blocks may run in any order on any number of
processes; results are reassembled in block order, so every statistic
downstream sees the same concatenated array regardless of scheduling,
and numpy's pairwise reductions then give bitwise identical aggregates.

Each run makes one run_blocks call and therefore starts at most one
process pool, of at most one process per block; a check that needs
several grid sizes computes them all inside one task.  A task covers a
range of paths: the serial path is one task of all n_paths paths, so a
run sets up its lanes, their workspaces and its per-run constants once,
and a pool runs one task per block.  The lanes follow one fixed rule.
A serial run deals its row chunks, in path order and across block
boundaries, to two lanes (ousim.run_lanes), the caller and one lane
thread, each drawing and computing whole chunks, so --workers 1 can use
two cores.  Every pool process runs one lane (ousim.draw_inline), so
--workers p uses min(p, blocks) cores.  Neither the processes nor the
threads change any result.

The pool class, and with it multiprocessing, loads only when run_blocks
starts a pool; ProcessPoolExecutor is still a module attribute, read and
replaceable like any other.
"""

from __future__ import annotations

import sys
from itertools import repeat

import numpy as np

from .ousim import _check_count, block_layout, draw_inline


def __getattr__(name):
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures.process import ProcessPoolExecutor  # with multiprocessing, about 21 ms of import

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def run_blocks(worker, n_paths: int, workers: int, args: tuple) -> np.ndarray:
    """The (n_paths, ...) rows of the worker, worker(block, count, *args) those of paths block * BLOCK + [0, count).

    The serial path makes one call, worker(0, n_paths, *args); a pool
    runs one task per block, one lane per process, and concatenates them
    in block order.
    """
    workers = _check_count(workers, "workers", 1)
    blocks, counts = zip(*block_layout(n_paths))
    if workers == 1 or len(blocks) == 1:
        return worker(0, sum(counts), *args)  # all n_paths paths, one task
    columns = (blocks, counts, *map(repeat, args))
    # fork starts every max_workers process at once, so never more than there are blocks
    pool_class = sys.modules[__name__].ProcessPoolExecutor  # the module attribute, so a replacement is honoured
    with pool_class(max_workers=min(workers, len(blocks)), initializer=draw_inline) as pool:
        return np.concatenate(list(pool.map(worker, *columns)), axis=0)
