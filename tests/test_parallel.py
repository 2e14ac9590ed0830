"""The two-lane rule of parallel.run_blocks, and its lazy pool class.

A pool whose processes, twice over, outnumber the usable cores has its
workers run one lane, drawing and computing every row chunk inline; the
serial path and a pool with a spare core per process deal a block's
chunks to two lanes, the caller and one lane thread.  The tests
replace parallel.usable_cores, the count run_blocks reads, to run both
sides on any machine, and pin that the payload bits do not depend on the
side or on --workers.
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
from oulab import ousim

M = 4096  # 16-row chunks: a whole block has 16, so a lane thread would start


def _helper_threads(block, count):
    """Per path: the threads this process ran beyond its own while its lanes ran the block's chunks."""
    before = threading.active_count()
    seen = []
    ousim.run_lanes(count, M, lambda chunks: seen.append(threading.active_count()))  # a lane thread counts itself
    return np.full(count, max(seen) - before)


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
