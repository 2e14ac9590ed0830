"""The benchmark's child process still finds every library name it reads or patches.

perfbench/child.py wraps module globals of oulab (samplers, run_blocks,
the process pool class, which the library no longer uses, resolvers) by
name.  A library change that drops
or renames one of them breaks the benchmark without failing any other
test, so each mode of the child runs here, at small sizes, with its
sidecar written into a temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def run_child(tmp_path, *args) -> dict:
    """Sidecar of one child run; the run must exit 0."""
    sidecar = tmp_path / f"sidecar-{len(list(tmp_path.iterdir()))}.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(CHILD), str(sidecar), *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    side = json.loads(sidecar.read_text())
    assert side["rc"] == 0
    return side


def test_oracle_digest_is_the_same_traced_and_by_block_rows(tmp_path):
    plain = run_child(tmp_path, "oracle", "--seed", "3")
    traced = run_child(tmp_path, "oracle", "--seed", "3", "--trace", "full")
    reference = run_child(tmp_path, "oracle", "--seed", "3", "--reference")
    assert plain["path_steps"] > 0
    assert traced["digest"] == plain["digest"] == reference["digest"]
    assert traced["spans"]


def test_fully_traced_cli_run(tmp_path):
    # the child wraps profile and profile_dx; the shift functionals call only profile_pair, so
    # thm23 shows the descriptor through resolve_b and prop21 shows the wrapped profile
    names = {}
    for command, *flags in (("verify-thm23",), ("verify-prop21", "--lambda", "1")):
        side = run_child(tmp_path, "cli", "--trace", "full", "--", command, *flags, "--seed", "1", "--n", "300",
                         "--M", "64", "--out", str(tmp_path / f"{command}.json"))
        names[command] = {span[2] for span in side["spans"]}
    assert {"cli.main", "functionals.block", "ousim.block_paths_1d", "fnlib.resolve_b"} <= names["verify-thm23"]
    assert {"functionals.block", "fnlib.profile"} <= names["verify-prop21"]


def test_pool_traced_cli_run_starts_no_pool(tmp_path):
    # --workers 2 runs lane threads of one process; the child's pool counter still resolves and reads 0
    side = run_child(tmp_path, "cli", "--trace", "pool", "--", "decomposition", "--seed", "1", "--n", "600",
                     "--lambda", "1", "--m-list", "16,64", "--workers", "2", "--out", str(tmp_path / "payload.json"))
    assert side["counters"]["parallel.pools"] == 0
    assert side["counters"]["parallel.submit_calls"] == 1


@pytest.mark.parametrize("argv", [
    ("verify-thm23", "--M", "64"),
    ("decomposition", "--lambda", "1", "--m-list", "16,64"),
], ids=lambda argv: argv[0])
def test_untraced_cli_run_stamps_the_first_block(tmp_path, argv):
    # run.py's setup_s ends at this mark, which the child sets when the library first calls run_blocks through
    # the globals of functionals or reversal
    side = run_child(tmp_path, "cli", "--", *argv, "--seed", "1", "--n", "300", "--out", str(tmp_path / "payload.json"))
    marks = side["marks"]
    assert marks["import_end"] < marks["first_block"] < marks["main_end"]
