"""The task layout and lane rule of parallel.run_blocks, and its lazy pool class.

The serial path is one task over all the paths; a pool runs one task
per block.  The lane rule is fixed: the serial path deals a task's row
chunks to two lanes, the caller and one lane thread, and every pool
process runs one lane, drawing and computing every row chunk inline.
The tests pin that rule and that the payload bits depend neither on
--workers nor on the number of lanes.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oulab.cli as cli
import oulab.parallel as parallel
from oulab import functionals, ousim
from oulab.errors import DomainError
from oulab.fnlib import make_b_weighted

M = 4096  # 16-row chunks: a whole block has 16, so a lane thread would start


def _helper_threads(block, count):
    """Per path: the threads this process ran beyond its own while its lanes ran the task's chunks."""
    before = threading.active_count()
    seen = []
    # a lane thread counts itself
    ousim.run_lanes(block, count, M, lambda rows, chunks: seen.append(threading.active_count()))
    return np.full(count, max(seen) - before)


def _task(block, count):
    """Per path: the (block, count) of the task that computed it."""
    return np.tile([block, count], (count, 1))


class TestDrawAheadRule:
    @pytest.mark.parametrize(("workers", "blocks", "helpers"), [
        (1, 1, 1),  # the serial path runs two lanes
        (1, 3, 1),  # one lane thread for the whole run, however many blocks
        (2, 2, 0),  # a pool process runs one lane
        (2, 3, 0),
        (3, 3, 0),
        (2, 4, 0),
        (8, 6, 0),  # more workers than blocks: at most six processes, one lane each
    ])
    def test_threads_in_block_tasks(self, workers, blocks, helpers):
        got = parallel.run_blocks(_helper_threads, blocks * ousim.BLOCK, workers, ())
        np.testing.assert_array_equal(got, np.full(blocks * ousim.BLOCK, helpers))

    @pytest.mark.parametrize("argv", [
        ("verify-thm23", "--M", "4096"),
        ("verify-prop21", "--lambda", "1", "--M", "4096"),
        ("concentration", "--M", "4096", "--h1", "e1:sin_pi_t", "--etas", "0.5,1"),
        ("decomposition", "--lambda", "1", "--m-list", "256,4096"),
    ], ids=lambda argv: argv[0])
    def test_payload_is_the_same_on_both_sides_and_any_workers(self, monkeypatch, capsys, tmp_path, argv):
        # the sides are two lanes and one lane in the serial run; pool processes always run one
        docs = {}
        for two_lanes, workers in ((True, "1"), (False, "1"), (True, "2"), (True, "3")):
            monkeypatch.setattr(ousim, "_two_lanes", two_lanes)
            path = tmp_path / f"l{two_lanes}-w{workers}.json"
            assert cli.main([*argv, "--seed", "21", "--n", "600", "--workers", workers, "--out", str(path)]) == 0
            doc = json.loads(path.read_text())
            doc.pop("timing")
            doc["config"].pop("workers", None)
            docs[two_lanes, workers] = doc
        capsys.readouterr()
        first = docs[True, "1"]
        assert all(doc == first for doc in docs.values()), [key for key, doc in docs.items() if doc != first]


class TestTasks:
    N = 13 * ousim.BLOCK - 5  # 13 blocks, the last one partial

    def test_a_serial_run_is_one_task_and_a_pool_one_per_block(self):
        np.testing.assert_array_equal(parallel.run_blocks(_task, self.N, 1, ()), np.tile([0, self.N], (self.N, 1)))
        per_block = np.concatenate([_task(block, count) for block, count in parallel.block_layout(self.N)])
        for workers in (2, 3):
            np.testing.assert_array_equal(parallel.run_blocks(_task, self.N, workers, ()), per_block)

    def test_a_serial_run_sets_up_each_lane_once(self, monkeypatch):
        workspaces, started = [], []
        real_lane_arrays, real_thread = functionals._lane_arrays, ousim.threading.Thread

        def lane_arrays(rows, m):
            workspaces.append((rows, m, threading.current_thread()))
            return real_lane_arrays(rows, m)

        class Thread(real_thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(functionals, "_lane_arrays", lane_arrays)
        monkeypatch.setattr(ousim.threading, "Thread", Thread)
        monkeypatch.setattr(ousim, "_two_lanes", True)
        coord = functionals.Coordinate(4.0, M, 0)
        b = make_b_weighted([4.0], profile="sin")
        values = parallel.run_blocks(functionals._shifted_pair_block, self.N, 1,
                                     (3, coord, b, np.full(M + 1, 0.5), np.zeros(M + 1)))
        assert values.shape == (self.N,)
        assert started == ["oulab-lane"]  # one lane thread for the 13 blocks
        assert [(rows, m) for rows, m, _ in workspaces] == [(16, M), (16, M)]  # one workspace per lane
        assert len({thread for _, _, thread in workspaces}) == 2

    def test_block_layout_refuses_bools(self):
        for bad in (True, False):
            with pytest.raises(DomainError, match="n_paths must be an integer"):
                parallel.block_layout(bad)
        with pytest.raises(DomainError, match="workers must be an integer"):
            parallel.run_blocks(_task, 10, True, ())


class TestLazyPoolClass:
    def test_pool_class_loads_at_first_use(self):
        src = str(Path(parallel.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = """
import sys
from oulab import parallel
print("multiprocessing" in sys.modules, "ProcessPoolExecutor" in vars(parallel))
print(parallel.ProcessPoolExecutor.__module__, "ProcessPoolExecutor" in vars(parallel))
"""
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["False False", "concurrent.futures.process True"]

    def test_other_names_are_missing(self):
        with pytest.raises(AttributeError, match="no attribute 'ThreadPoolExecutor'"):
            parallel.ThreadPoolExecutor
