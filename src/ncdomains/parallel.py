"""Independent jobs in forked worker processes, for the battery's pairs.

``map_in_order(unit, jobs)`` returns [unit(job) for job in jobs], computed in
min(jobs, usable CPUs) forked workers where that is safe and useful, and
serially otherwise.  Only ``harness.run_battery`` imports this module, inside
the call, so no other run compiles or imports it, or the process-pool modules.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence

_OPENBLAS_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS mapped into this process (numpy's), or None
    where /proc/self/maps lists no OpenBLAS that answers."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREADS:
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def map_in_order(unit: Callable, jobs: Sequence) -> list:
    """[unit(job) for job in jobs], run in min(jobs, usable CPUs) forked workers.

    The results, and the first exception in job order, are those of a serial run; the
    ``with`` block joins every worker before this returns or raises.  Fork, not spawn: a
    spawned worker imports numpy and the package again (about 80 ms), more than a
    battery pair takes; the caller must have no other threads, as the command line has
    none.  The jobs run serially here on one CPU, without fork, or unless
    numpy's BLAS is an OpenBLAS running one thread: a worker keeps its parent's BLAS
    threads, and with two per worker 6 battery pairs on 2 CPUs took up to 5.7 s against
    0.3 s serially (and another BLAS, an OpenMP one say, may not survive a fork).
    """
    workers = min(len(jobs), usable_cpus())
    if workers > 1 and blas_threads() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                return list(pool.map(unit, jobs))
    return list(map(unit, jobs))
