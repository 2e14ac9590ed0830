"""The process pool class, resolvable but unused.

No module of the package imports this one: every run deals its row
chunks to lane threads of one process (ousim.run_blocks).  It keeps
ProcessPoolExecutor resolvable, loaded at first access, only because
the benchmark's tracer reads and subclasses it to count pools.
"""


def __getattr__(name):
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures.process import ProcessPoolExecutor  # with multiprocessing, about 21 ms of import

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor
