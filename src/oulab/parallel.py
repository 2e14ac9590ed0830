"""Worker-count-independent block scheduling.

Monte Carlo work is laid out in fixed blocks of BLOCK path indices (the
RNG block size, ousim.block_layout), each a pure function of (seed,
block), so every statistic downstream sees the same array regardless of
scheduling, and numpy's pairwise reductions then give bitwise identical
aggregates.

Each run makes one run_blocks call, and run_blocks makes one call,
worker(0, n_paths, *args, lanes=...): one task over all the paths, so a
run sets up its lanes, their workspaces and its per-run constants once.
A check that needs several grid sizes computes them all inside that
task.  The task deals its row chunks, in path order and across block
boundaries, to min(max(2, workers), chunks) lanes (ousim.run_lanes): the
caller's thread and lane threads of this one process, each drawing and
computing whole chunks.  So --workers 1 uses two cores and --workers p
up to p, as far as the GIL lets the lanes run together; no worker
process is started.  The lane count never changes a result.
"""

from __future__ import annotations

import numpy as np

from .ousim import _check_count, block_layout  # noqa: F401 - block_layout is re-exported


def __getattr__(name):
    # The library starts no process pool.  ProcessPoolExecutor stays resolvable, loaded at first access, only
    # because the benchmark's tracer reads and subclasses it to count pools; nothing in the package uses it.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures.process import ProcessPoolExecutor  # with multiprocessing, about 21 ms of import

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def run_blocks(worker, n_paths: int, workers: int, args: tuple) -> np.ndarray:
    """The (n_paths, ...) rows of worker(0, n_paths, *args, lanes=max(2, workers)), one task over all the paths.

    worker(block, count, *args, lanes=...) returns the rows of paths
    block * BLOCK + [0, count) and passes lanes to ousim.run_lanes, which
    runs at most one lane per row chunk.
    """
    workers = _check_count(workers, "workers", 1)
    return worker(0, _check_count(n_paths, "n_paths", 1), *args, lanes=max(2, workers))
