"""The lane rule of ousim.run_blocks, and the lazy pool class of oulab.parallel.

Every run is one call over all its paths, in one process, dealing its
row chunks to the lanes of ousim.run_blocks' rule.  The tests pin that
rule and that the payload bits depend neither on --workers nor on the
number of lanes.
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
from oulab import functionals, ousim, reversal
from oulab.errors import DomainError
from oulab.fnlib import make_b_weighted

M = 4096  # 16-row chunks: a whole block has 16


def _helper_threads(count, *, lanes):
    """Per path: the threads beside the caller's that ran a lane of the run's row chunks."""
    threads = set()
    ousim.run_lanes(count, M, lambda rows, chunks: threads.add(threading.current_thread()), lanes=lanes)
    return np.full(count, len(threads - {threading.current_thread()}))


def _call(count, *, lanes):
    """Per path: the (count, lanes) of the worker call that computed it."""
    return np.tile([count, lanes], (count, 1))


def _one_lane(count, m, lane, *, lanes):
    """ousim.run_lanes with every run in one lane, whatever lane count its caller passes."""
    ousim.run_lanes(count, m, lane, lanes=1)


class TestDrawAheadRule:
    """The lane rule: the lanes a run of --workers p runs, and a payload that does not depend on them."""

    @pytest.mark.parametrize(("workers", "blocks", "helpers"), [
        (1, 1, 1),  # --workers 1 runs two lanes
        (1, 3, 1),  # one lane thread for the whole run, however many blocks
        (2, 2, 1),  # --workers 2 runs two lanes as well
        (2, 3, 1),
        (2, 4, 1),
        (3, 3, 2),  # --workers p >= 2 runs p lanes
        (3, 1, 2),
    ])
    def test_threads_in_block_tasks(self, workers, blocks, helpers):
        before = threading.active_count()
        got = ousim.run_blocks(_helper_threads, blocks * ousim.BLOCK, workers, ())
        np.testing.assert_array_equal(got, np.full(blocks * ousim.BLOCK, helpers))
        assert threading.active_count() == before

    @pytest.mark.parametrize(("workers", "n", "helpers"), [
        (3, 17, 1),  # two row chunks: two lanes
        (3, 16, 0),  # one row chunk: the caller's thread alone
        (1, 10, 0),
    ])
    def test_no_more_lanes_than_row_chunks(self, workers, n, helpers):
        np.testing.assert_array_equal(ousim.run_blocks(_helper_threads, n, workers, ()), np.full(n, helpers))

    @pytest.mark.parametrize("argv", [
        ("verify-thm23", "--M", "4096"),
        ("verify-prop21", "--lambda", "1", "--M", "4096"),
        ("concentration", "--M", "4096", "--h1", "e1:sin_pi_t", "--etas", "0.5,1"),
        ("decomposition", "--lambda", "1", "--m-list", "256,4096"),
    ], ids=lambda argv: argv[0])
    def test_payload_is_the_same_on_both_sides_and_any_workers(self, monkeypatch, capsys, tmp_path, argv):
        # the sides are the rule's lanes and one lane per run, at --workers 1, 2 and 3
        docs = {}
        for one_lane, workers in ((False, "1"), (True, "1"), (False, "2"), (False, "3"), (True, "3")):
            for module in (functionals, reversal):
                monkeypatch.setattr(module, "run_lanes", _one_lane if one_lane else ousim.run_lanes)
            path = tmp_path / f"l{one_lane}-w{workers}.json"
            assert cli.main([*argv, "--seed", "21", "--n", "600", "--workers", workers, "--out", str(path)]) == 0
            doc = json.loads(path.read_text())
            doc.pop("timing")
            doc["config"].pop("workers", None)
            docs[one_lane, workers] = doc
        capsys.readouterr()
        first = docs[False, "1"]
        assert all(doc == first for doc in docs.values()), [key for key, doc in docs.items() if doc != first]


class TestTasks:
    N = 13 * ousim.BLOCK - 5  # 13 blocks, the last one partial

    def test_every_run_is_one_task(self):
        for workers, lanes in ((1, 2), (2, 2), (3, 3)):
            want = np.tile([self.N, lanes], (self.N, 1))
            np.testing.assert_array_equal(ousim.run_blocks(_call, self.N, workers, ()), want)

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
        coord = functionals.Coordinate(4.0, M, 0)
        b = make_b_weighted([4.0], profile="sin")
        values = ousim.run_blocks(functionals._shifted_pair_block, self.N, 1,
                                  (3, coord, b, np.full(M + 1, 0.5), np.zeros(M + 1)))
        assert values.shape == (self.N,)
        assert started == ["oulab-lane"]  # one lane thread for the 13 blocks
        assert [(rows, m) for rows, m, _ in workspaces] == [(16, M), (16, M)]  # one workspace per lane
        assert len({thread for _, _, thread in workspaces}) == 2

    def test_block_layout_refuses_bools(self):
        for bad in (True, False):
            with pytest.raises(DomainError, match="n_paths must be an integer"):
                ousim.block_layout(bad)
        with pytest.raises(DomainError, match="workers must be an integer"):
            ousim.run_blocks(_call, 10, True, ())


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
