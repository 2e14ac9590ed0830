"""The task layout and two-lane rule of parallel.run_blocks, and its lazy pool class.

The serial path is one task over all the paths; a pool runs one task
per block.  A pool whose processes, twice over, outnumber the usable
cores has its workers run one lane, drawing and computing every row
chunk inline; the serial path and a pool with a spare core per process
deal a task's chunks to two lanes, the caller and one lane thread.  The
tests replace parallel.usable_cores, the count run_blocks reads, to run
both sides on any machine, and pin that the payload bits do not depend
on the side or on --workers.
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
    @pytest.mark.parametrize(("workers", "cores", "helpers"), [
        (1, 1, 1),  # the serial path keeps two lanes, whatever the cores
        (2, 2, 0),  # two processes fill two cores: one lane
        (3, 3, 0),  # three processes (three blocks) on three cores
        (2, 3, 0),  # one core spare, not one per process
        (2, 4, 1),  # a spare core per process: two lanes
        (8, 6, 1),  # processes are capped at the three blocks
    ])
    def test_threads_in_block_tasks(self, monkeypatch, workers, cores, helpers):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        got = parallel.run_blocks(_helper_threads, 3 * ousim.BLOCK, workers, ())
        np.testing.assert_array_equal(got, np.full(3 * ousim.BLOCK, helpers))

    @pytest.mark.parametrize("argv", [
        ("verify-thm23", "--M", "4096"),
        ("verify-prop21", "--lambda", "1", "--M", "4096"),
        ("concentration", "--M", "4096", "--h1", "e1:sin_pi_t", "--etas", "0.5,1"),
        ("decomposition", "--lambda", "1", "--m-list", "256,4096"),
    ], ids=lambda argv: argv[0])
    def test_payload_is_the_same_on_both_sides_and_any_workers(self, monkeypatch, capsys, tmp_path, argv):
        docs = {}
        for cores in (2, 64):
            monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
            for workers in ("1", "2", "3"):
                path = tmp_path / f"c{cores}-w{workers}.json"
                assert cli.main([*argv, "--seed", "21", "--n", "600", "--workers", workers, "--out", str(path)]) == 0
                doc = json.loads(path.read_text())
                doc.pop("timing")
                doc["config"].pop("workers", None)
                docs[cores, workers] = doc
        capsys.readouterr()
        first = docs[2, "1"]
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


class TestUsableCores:
    def test_affinity_where_the_os_reports_one(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert parallel.usable_cores() == len(os.sched_getaffinity(0))

    def test_cpu_count_elsewhere(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert parallel.usable_cores() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel.usable_cores() == 1


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
