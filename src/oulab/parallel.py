"""Worker-count-independent block scheduling.

Monte Carlo work is split into fixed blocks of BLOCK path indices (the
RNG block size), each a pure function of (seed, block).  Blocks may run
in any order on any number of processes; results are reassembled in
block order, so every statistic downstream sees the same concatenated
array regardless of scheduling, and numpy's pairwise reductions then
give bitwise identical aggregates.

Each run makes one run_blocks call and therefore starts at most one
process pool, of at most one process per block; a check that needs
several grid sizes computes them all inside one block task.  Each block
task also runs one helper thread that draws the next row chunk's normals
(ousim.drawn_chunks), so --workers 1 can use two cores; neither the
processes nor the threads change any result.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import numpy as np

from .ousim import BLOCK, _check_count


def block_layout(n_paths: int):
    """(block_index, count) pairs covering path indices 0..n_paths-1."""
    n_paths = _check_count(n_paths, "n_paths", 1)
    full, rem = divmod(n_paths, BLOCK)
    layout = [(b, BLOCK) for b in range(full)]
    if rem:
        layout.append((full, rem))
    return layout


def run_blocks(worker, n_paths: int, workers: int, args: tuple) -> np.ndarray:
    """worker(block, count, *args) -> (count, ...) array; concatenated in
    block order."""
    workers = _check_count(workers, "workers", 1)
    blocks, counts = zip(*block_layout(n_paths))
    columns = (blocks, counts, *map(repeat, args))
    if workers == 1 or len(blocks) == 1:
        return np.concatenate(list(map(worker, *columns)), axis=0)
    # fork starts every max_workers process at once, so never more than there are blocks
    with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        return np.concatenate(list(pool.map(worker, *columns)), axis=0)
