"""Benchmark of oulab verdicts, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each measured run is a fresh Python process (child.py) that imports oulab
from src/ and produces one verdict (or, for paths-oracle, one batch of
per-path samples).  A run counts as failed when it raises, exits nonzero
or its output digest differs from the reference run made at the same seed
at the start of the invocation:

  thm23-block   measured at --workers 1, reference at --workers 2
  decomp-pool   measured at --workers 2, reference at --workers 1
  paths-oracle  reference reads each path's normals as a row of its whole
                block draw instead of through ousim.path_normals

so the rule "payloads are bitwise identical for any --workers" (and the
block-row contract of ousim) gates every run.  A CLI digest is the sha256
of the payload minus its timing block; an oracle digest is the sha256 of
every sampled array in order.

--trace 0 repeats the measured run for --seconds and reports the median
of each end-to-end metric.  --trace 1 repeats the untraced run at
--workers 1 for --seconds, then makes three traced runs at --workers 1
(spans around every layer entry point) and, for a pooled workload, one
more at its pooled worker count that traces only the parent side of
run_blocks; it reports the median of each per-layer metric over the
traced runs.  The spans of the median traced run are written to
perfbench/out/spans-<workload>-seed<N>[-pool].json, and a record of every
run with the machine's provenance to perfbench/out/<workload>-seed<N>-trace<T>.json.

Units: MB and KB are 10^6 and 10^3 bytes; a path-step is one time step of
one path of one sampled component.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}};
fail_frac = failed / attempted.  The line before it is the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import END, ITEMS, NAME, NBYTES, PARENT, START, covered_length, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 42  # the seed of the README's examples
MIN_RUNS = 3  # measured runs per invocation, however long each takes
TRACED_RUNS = 3  # traced runs per --trace 1 invocation; each per-layer value is their median
CHILD_TIMEOUT = 120.0  # seconds; a run that takes longer is killed and counted failed
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # oulab CLI arguments minus --workers/--seed/--out; () for the oracle
    workers: int  # worker processes of the measured run
    ref_workers: int  # worker processes of the reference run
    path_steps: int  # path-steps per run; 0 means the run reports its own


THM23_N, THM23_M = 3072, 4096
DECOMP_N, DECOMP_M = 3072, (256, 1024, 4096)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thm23-block",
            ("verify-thm23", "--spectrum", "n^2:16", "--b", "weighted:sin", "--h", "e1:sin_pi_t",
             "--M", str(THM23_M), "--n", str(THM23_N)),
            workers=1, ref_workers=2, path_steps=THM23_N * THM23_M,
        ),
        Workload(
            "decomp-pool",
            ("decomposition", "--lambda", "1", "--m-list", ",".join(map(str, DECOMP_M)), "--n", str(DECOMP_N)),
            workers=2, ref_workers=1, path_steps=DECOMP_N * sum(DECOMP_M),
        ),
        Workload("paths-oracle", (), workers=1, ref_workers=1, path_steps=0),
    )
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "path_steps_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.finish_ms": "ms",
    "constants.ms": "ms",
    "fnlib.resolve_ms": "ms",
    "fnlib.profile_ns_per_step": "ns",
    "fnlib.profile_evals_per_step": "count",
    "ousim.uniform_ns_per_step": "ns",
    "ousim.ndtri_ns_per_step": "ns",
    "ousim.recursion_ns_per_step": "ns",
    "ousim.normals_per_step": "ratio",
    "ousim.path_call_us": "us",
    "functionals.reduce_ns_per_step": "ns",
    "functionals.block_mb": "MB",
    "functionals.estimate_ms": "ms",
    "reversal.split_ns_per_step": "ns",
    "reversal.coefficient_calls_per_block": "count",
    "parallel.pools_started": "count",
    "parallel.efficiency": "ratio",
    "parallel.submit_kb_per_block": "KB",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def payload_digest(payload: dict) -> str:
    """sha256 of a CLI payload without its timing block, keys sorted."""
    body = {k: v for k, v in payload.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


@dataclass
class Run:
    """One child process: its parent-side clock readings and its sidecar."""

    label: str
    t_spawn: float
    t_exit: float
    side: dict  # the sidecar; empty when the child died before writing it
    digest: str
    path_steps: int
    error: str = ""

    @property
    def wall(self) -> float:
        return self.t_exit - self.t_spawn

    @property
    def setup(self) -> float:
        return self.side["marks"]["first_block"] - self.t_spawn

    @property
    def rss_mb(self) -> float:
        return (self.side["maxrss_kb"] + self.side["child_maxrss_kb"]) * 1024 / 1e6


class Launcher:
    """Starts child runs of one workload at one seed inside a scratch directory."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))

    def run(self, label, workers, trace=None, reference=False) -> Run:
        self.count += 1
        sidecar = self.tmp / f"{self.count}-{label}.json"
        out_file = self.tmp / f"{self.count}-{label}.payload.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(sidecar)]
        if self.w.command:
            cmd.append("cli")
        else:
            cmd += ["oracle", "--seed", str(self.seed)] + (["--reference"] if reference else [])
        if trace:
            cmd += ["--trace", trace]
        if self.w.command:
            cmd += ["--", *self.w.command, "--workers", str(workers), "--seed", str(self.seed), "--out", str(out_file)]
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
        t_exit = time.perf_counter()
        run = Run(label, t_spawn, t_exit, {}, "", self.w.path_steps)
        tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
        if proc.returncode != 0:
            run.error = f"exit {proc.returncode}: " + " | ".join(tail)
            return run
        try:
            run.side = json.loads(sidecar.read_text())
            run.digest = run.side.get("digest") or payload_digest(json.loads(out_file.read_text()))
        except (OSError, ValueError) as exc:
            run.error = f"unreadable output: {exc}"
            return run
        run.path_steps = run.path_steps or run.side["path_steps"]
        if Path(run.side["versions"]["oulab_file"]).resolve().parent != (SRC / "oulab").resolve():
            run.error = f"imported oulab from {run.side['versions']['oulab_file']}, not from {SRC}"
        return run


def check(runs, reference: Run):
    """Mark every run whose digest differs from the reference as failed."""
    for run in runs:
        if not run.error and (reference.error or run.digest != reference.digest):
            run.error = "reference run failed" if reference.error else "output digest differs from the reference"


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def median_metrics(runs) -> dict:
    good = [r for r in runs if not r.error]
    if not good:
        return {}
    return {
        "wall_s": statistics.median(r.wall for r in good),
        "setup_s": statistics.median(r.setup for r in good),
        "path_steps_per_s": statistics.median(r.path_steps / (r.wall - r.setup) for r in good),
        "peak_rss_mb": statistics.median(r.rss_mb for r in good),
    }


def layer_metrics(full: Run, pool: Run | None, pool_workers: int, untraced_wall: float) -> dict:
    """Per-layer numbers from the traced run (and the pool run's parent-side spans).

    A layer that does not run on a workload reports 0.
    """
    spans = full.side["spans"]
    selfs = self_times(spans)
    steps = full.path_steps
    marks = full.side["marks"]
    counters = full.side["counters"]
    by_id = {s[0]: s for s in spans}

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    def dur(*names):
        return sum(s[END] - s[START] for s in named(*names))

    def self_of(*names):
        return sum(selfs[s[0]] for s in named(*names))

    def per_step_ns(seconds):
        return seconds / steps * 1e9

    def enclosing(span, name):
        while span[PARENT] != -1:
            span = by_id[span[PARENT]]
            if span[NAME] == name:
                return span[0]
        return None

    fn_blocks = named("functionals.block")
    block_bytes = sum(s[NBYTES] for s in spans if enclosing(s, "functionals.block") is not None)
    rv_blocks = named("reversal.block")
    narrow_calls = [s for s in named("ousim.sample_path_timechange") if enclosing(s, "oracle.narrow") is not None]
    run_blocks = named("parallel.run_blocks")
    post_setup = marks["main_end"] - marks["first_block"]
    nested = [s for s in spans if s[PARENT] != -1]
    pool_counters = pool.side["counters"] if pool else counters
    pool_run_blocks = sum(s[END] - s[START] for s in pool.side["spans"] if s[NAME] == "parallel.run_blocks") if pool else 0.0
    busy = dur("functionals.block", "reversal.block")

    return {
        "cli.import_s": marks["import_end"] - marks["import_start"],
        "cli.finish_ms": (marks["main_end"] - max(s[END] for s in run_blocks)) * 1e3 if run_blocks else 0.0,
        "constants.ms": dur("constants.beta", "constants.alpha") * 1e3,
        "fnlib.resolve_ms": dur("fnlib.resolve_b", "fnlib.resolve_h", "fnlib.h_component") * 1e3,
        "fnlib.profile_ns_per_step": per_step_ns(dur("fnlib.profile")),
        "fnlib.profile_evals_per_step": sum(s[ITEMS] for s in named("fnlib.profile")) / steps,
        "ousim.uniform_ns_per_step": per_step_ns(self_of("ousim.standard_normal", "ousim.path_normals")),
        "ousim.ndtri_ns_per_step": per_step_ns(dur("ousim.ndtri")),
        "ousim.recursion_ns_per_step": per_step_ns(
            self_of("ousim.block_paths_1d", "ousim.sample_path_1d", "ousim.sample_path_timechange")
        ),
        "ousim.normals_per_step": sum(s[ITEMS] for s in named("ousim.standard_normal")) / steps,
        "ousim.path_call_us": (
            sum(selfs[s[0]] for s in narrow_calls) / len(narrow_calls) * 1e6 if narrow_calls else 0.0
        ),
        "functionals.reduce_ns_per_step": per_step_ns(self_of("functionals.block")),
        "functionals.block_mb": block_bytes / len(fn_blocks) / 1e6 if fn_blocks else 0.0,
        "functionals.estimate_ms": dur("functionals.exp_moment") * 1e3,
        "reversal.split_ns_per_step": per_step_ns(self_of("reversal.block")),
        "reversal.coefficient_calls_per_block": (
            counters.get("reversal.coefficient_calls", 0) / len(rv_blocks) if rv_blocks else 0.0
        ),
        "parallel.pools_started": pool_counters.get("parallel.pools", 0),
        "parallel.efficiency": busy / (pool_workers * pool_run_blocks) if pool_run_blocks else 0.0,
        "parallel.submit_kb_per_block": (
            pool_counters["parallel.submit_bytes"] / pool_counters["parallel.submit_calls"] / 1e3
            if pool_counters.get("parallel.submit_calls") else 0.0
        ),
        "trace.unattributed_frac": 1.0 - covered_length(nested, marks["first_block"], marks["main_end"]) / post_setup,
        "trace.overhead_frac": (full.wall - untraced_wall) / untraced_wall,
    }


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance(versions: dict) -> dict:
    """What produced these numbers: machine, library versions, source."""
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        "",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit; never report an enclosing repository's
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "oulab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def declared_metrics() -> dict:
    """name -> unit for every metric BENCHMARK.json declares."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_line(correct, attempted, failed, values: dict, units: dict) -> dict:
    """The final output object; every name must be declared in BENCHMARK.json with the same unit."""
    declared = declared_metrics()
    for name, unit in units.items():
        if not METRIC_NAME.match(name) or declared.get(name) != unit:
            raise ValueError(f"metric {name} [{unit}] is not declared in {BENCHMARK_FILE.name}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool, tmp: Path):
    """All runs of one invocation; returns (runs, metric values)."""
    launch = Launcher(workload, seed, tmp)
    reference = launch.run("reference", workload.ref_workers, reference=True)
    workers = 1 if trace else workload.workers
    runs = []
    start = time.perf_counter()
    # stop before a run that, at the average pace so far, would end past the budget
    while len(runs) < MIN_RUNS or (time.perf_counter() - start) * (len(runs) + 1) / len(runs) <= seconds:
        runs.append(launch.run("untraced", workers))
    if not trace:
        check(runs, reference)
        return [reference, *runs], median_metrics(runs)

    traced = [launch.run("traced", 1, trace="full") for _ in range(TRACED_RUNS)]
    pool = launch.run("traced-pool", workload.workers, trace="pool") if workload.workers > 1 else None
    extra = traced + ([pool] if pool else [])
    check(runs + extra, reference)
    all_runs = [reference, *runs, *extra]
    good = [r for r in runs if not r.error]
    if any(r.error for r in extra) or not good:
        return all_runs, {}
    untraced_wall = statistics.median(r.wall for r in good)
    per_run = [layer_metrics(r, pool, workload.workers, untraced_wall) for r in traced]
    typical = sorted(traced, key=lambda r: r.wall)[len(traced) // 2]
    (OUT / f"spans-{workload.name}-seed{seed}.json").write_text(json.dumps(typical.side))
    if pool:
        (OUT / f"spans-{workload.name}-seed{seed}-pool.json").write_text(json.dumps(pool.side))
    return all_runs, {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=json.loads(BENCHMARK_FILE.read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "oulab" / "cli.py").is_file():
        print(f"error: no oulab sources at {SRC}; run from the root of an oulab checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runs, values = measure(workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for r in runs if r.error)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    correct = failed == 0 and bool(values)
    prov = provenance(next((r.side["versions"] for r in runs if r.side), {}))
    line = result_line(correct, len(runs), failed, values if correct else dict.fromkeys(units, 0.0), units)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": prov,
        "fail_frac": failed / len(runs),
        "runs": [
            {"label": r.label, "wall_s": r.wall, "setup_s": r.setup if r.side else None,
             "path_steps": r.path_steps, "peak_rss_mb": r.rss_mb if r.side else None,
             "digest": r.digest, "error": r.error}
            for r in runs
        ],
        "result": line,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for r in runs:
        if r.error:
            print(f"FAILED {r.label} run: {r.error}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} runs={len(runs)} fail_frac={failed / len(runs):.4g} ratio",
          file=sys.stderr)
    for name, m in line["metrics"].items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
