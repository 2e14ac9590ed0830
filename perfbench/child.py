"""One process of one workload: an oulab CLI verdict or the per-path oracle.

run.py starts this script once per measured run; it is not imported:

    python3 child.py SIDECAR cli [--trace full|pool] -- <oulab CLI arguments>
    python3 child.py SIDECAR oracle --seed N [--reference] [--trace full]

oulab comes from the checkout's src/ through PYTHONPATH.  The sidecar
JSON records what the parent cannot see from outside: the import window,
the first Monte Carlo request, the return from main, the peak RSS of this
process and of its largest reaped child (a pool worker), and in trace mode
the spans.  Tracing wraps names the library looks up at call time
(module globals, a class attribute, the descriptor's profile callables);
src/ is never edited.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402

# paths-oracle: per-path library sampling, no CLI, no block kernel
ORACLE_LAM = 1.0
ORACLE_NARROW = (8, 2048)  # (M, consecutive path indices from 0): per-call set-up dominates
ORACLE_WIDE = (1024, 64)  # (M, calls) of sample_path_timechange, one per block
ORACLE_HILBERT = (1024, 12, 16)  # (M, calls, truncation) of sample_hilbert on n^2:16
ROW_STRIDE = 97  # odd, so rows k*97 mod 256 spread over the whole block


def oracle_paths(count, block):
    """Path k sits in block k at row k*ROW_STRIDE mod block."""
    return [k * block + (k * ROW_STRIDE) % block for k in range(count)]


def _stamp_first_call(module, attr, marks):
    fn = getattr(module, attr)

    def stamped(*args, **kwargs):
        marks.setdefault("first_block", time.perf_counter())
        return fn(*args, **kwargs)

    setattr(module, attr, stamped)


def trace_ousim(tracer):
    """Spans around the samplers and the normals draw, down to ndtri."""
    from oulab import ousim

    for attr in ("sample_path_1d", "sample_path_timechange", "sample_hilbert", "path_normals", "standard_normal", "ndtri"):
        tracer.patch(ousim, attr, f"ousim.{attr}")


def trace_cli(tracer, full):
    """Spans around every layer a CLI verdict enters; full=False keeps only the parent side of run_blocks.

    The pool run (full=False) must leave every worker and its arguments
    picklable, so it wraps nothing a worker process calls; it records the
    pickled size of one block task instead.
    """
    import dataclasses

    from oulab import cli, fnlib, functionals, ousim, parallel, reversal

    tracer.counters.update({"parallel.pools": 0, "parallel.submit_bytes": 0, "parallel.submit_calls": 0})
    real_pool = parallel.ProcessPoolExecutor

    class CountedPool(real_pool):
        def __init__(self, *args, **kwargs):
            tracer.counters["parallel.pools"] += 1
            super().__init__(*args, **kwargs)

    parallel.ProcessPoolExecutor = CountedPool

    for mod in (functionals, reversal):
        traced_run = tracer.wrap("parallel.run_blocks", mod.run_blocks)

        def run_blocks(worker, n_paths, workers, args, traced_run=traced_run):
            if not full:
                task = pickle.dumps((worker, 0, ousim.BLOCK, *args))
                tracer.counters["parallel.submit_bytes"] += len(task)
                tracer.counters["parallel.submit_calls"] += 1
                return traced_run(worker, n_paths, workers, args)
            layer = worker.__module__.rpartition(".")[2]
            return traced_run(tracer.wrap(f"{layer}.block", worker), n_paths, workers, args)

        mod.run_blocks = run_blocks
    if not full:
        return

    real_resolve_b = cli.resolve_b

    def resolve_b(*args, **kwargs):
        b = real_resolve_b(*args, **kwargs)
        dx = b.profile_dx and tracer.wrap("fnlib.profile", b.profile_dx)
        return dataclasses.replace(b, profile=tracer.wrap("fnlib.profile", b.profile), profile_dx=dx)

    cli.resolve_b = tracer.wrap("fnlib.resolve_b", resolve_b)
    tracer.patch(cli, "resolve_h", "fnlib.resolve_h")
    fnlib.ShiftDescriptor.component = tracer.wrap("fnlib.h_component", fnlib.ShiftDescriptor.component)
    tracer.patch(functionals, "beta_of", "constants.beta")
    tracer.patch(functionals, "alpha_of", "constants.alpha")
    tracer.patch(functionals, "exp_moment", "functionals.exp_moment")
    tracer.patch(functionals, "block_paths_1d", "ousim.block_paths_1d")
    tracer.patch(reversal, "block_paths_1d", "ousim.block_paths_1d")
    reversal.reversed_drift_coefficient = tracer.count(
        "reversal.coefficient_calls", reversal.reversed_drift_coefficient
    )
    trace_ousim(tracer)


def use_block_rows(ousim):
    """Make path_normals read its row out of the whole (BLOCK, m) block draw.

    This is the reproducibility contract stated in ousim's docstring,
    computed the long way; the oracle's reference run uses it, so a faster
    path_normals must reproduce the block rows bitwise.
    """
    cache = {}

    def path_normals(stream, m, domain=ousim.DOMAIN_PATH):
        key = (stream.seed, stream.component, stream.block, m, domain)
        if key not in cache:
            if len(cache) >= 32:
                cache.clear()
            cache[key] = ousim.block_normals(stream.seed, stream.component, stream.block, m, domain)
        return cache[key][stream.row].copy()

    ousim.path_normals = path_normals


def run_oracle(seed, tracer, marks):
    """Sample the oracle's paths; returns (sha256 of every sampled array, path-steps)."""
    from oulab import ousim
    from oulab.constants import DriftSpectrum

    spectrum = DriftSpectrum.quadratic(ORACLE_HILBERT[2])
    digest = hashlib.sha256()
    steps = 0

    def narrow():
        nonlocal steps
        m, count = ORACLE_NARROW
        for path in range(count):
            digest.update(ousim.sample_path_timechange(ORACLE_LAM, m, ousim.PathStream(seed, path)).values.tobytes())
            steps += m

    def wide():
        nonlocal steps
        m, count = ORACLE_WIDE
        for path in oracle_paths(count, ousim.BLOCK):
            digest.update(ousim.sample_path_timechange(ORACLE_LAM, m, ousim.PathStream(seed, path)).values.tobytes())
            steps += m
        m, count, truncation = ORACLE_HILBERT
        for path in oracle_paths(count, ousim.BLOCK):
            hp = ousim.sample_hilbert(spectrum, truncation, m, seed, path=path)
            for comp in hp.component_paths:
                digest.update(comp.values.tobytes())
            steps += m * truncation

    marks["first_block"] = time.perf_counter()
    for name, part in (("oracle.narrow", narrow), ("oracle.wide", wide)):
        (tracer.wrap(name, part) if tracer else part)()
    return digest.hexdigest(), steps


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    argv, cli_args = argv[:split], argv[split + 1 :]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("sidecar")
    p.add_argument("mode", choices=["cli", "oracle"])
    p.add_argument("--trace", choices=["full", "pool"])
    p.add_argument("--seed", type=int)
    p.add_argument("--reference", action="store_true")
    args = p.parse_args(argv)
    marks = {"start": T_START}
    tracer = Tracer() if args.trace else None
    out = {}

    marks["import_start"] = time.perf_counter()
    if args.mode == "cli":
        import oulab.cli as program
    else:
        import oulab as program
    marks["import_end"] = time.perf_counter()
    import numpy
    import scipy

    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "oulab_file": program.__file__,
    }

    if args.mode == "cli":
        from oulab import functionals, reversal

        _stamp_first_call(functionals, "run_blocks", marks)
        _stamp_first_call(reversal, "run_blocks", marks)
        if tracer:
            trace_cli(tracer, full=args.trace == "full")
        main_fn = tracer.wrap("cli.main", program.main) if tracer else program.main
        out["rc"] = int(main_fn(cli_args))
    else:
        if args.reference:
            use_block_rows(program.ousim)
        if tracer:
            trace_ousim(tracer)
        out["digest"], out["path_steps"] = run_oracle(args.seed, tracer, marks)
        out["rc"] = 0
    marks["main_end"] = time.perf_counter()

    out["marks"] = marks
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["child_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer:
        tracer.dump(args.sidecar, **out)
    else:
        with open(args.sidecar, "w") as fh:
            json.dump(out, fh)
    return out["rc"]


if __name__ == "__main__":
    sys.exit(main())
