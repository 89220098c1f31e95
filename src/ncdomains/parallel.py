"""Independent jobs (the battery's pairs) in forked children: a plain fork-join on
``os.fork``, ``os.pipe`` and ``pickle``, imported only inside ``harness.run_battery``."""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Callable, Sequence
from contextlib import suppress

_OPENBLAS_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def blas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS; None if /proc/self/maps lists none that answers."""
    import ctypes
    with suppress(OSError), open("/proc/self/maps") as fh:
        for path in sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.lower()}):
            with suppress(OSError):  # not loadable: try the next
                lib = ctypes.CDLL(path)
                for get in (getattr(lib, n) for n in _OPENBLAS_THREADS if hasattr(lib, n)):
                    get.argtypes, get.restype = [], ctypes.c_int
                    return get()
    return None


def _pipe() -> tuple:
    read, write = os.pipe()  # the read end unbuffered, so that it takes no record ahead
    return open(read, "rb", buffering=0), open(write, "wb")


def _sendable(i: int, result: tuple) -> tuple:
    """(ok, value) as it pickles, or (False, RuntimeError) naming job i and the error."""
    try:
        pickle.dumps(result)
    except Exception as exc:
        return False, RuntimeError(f"job {i}: its result does not pickle: "
                                   f"{type(exc).__name__}: {exc}")
    return result


def _work(unit: Callable, jobs: Sequence, files: list) -> int:
    """A child: run the jobs whose 4-byte indices it reads from files[0] (a pipe read of
    at most PIPE_BUF bytes is atomic); send [(index, (ok, value))] through files[-1],
    pickled whole before any byte is written, so that a value that does not pickle is
    sent as an error in its place."""
    for f in files[1:-1]:
        f.close()
    done = []
    while len(record := files[0].read(4)) == 4:
        i = int.from_bytes(record, "little")
        try:
            done.append((i, (True, unit(jobs[i]))))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # sent as a RuntimeError that carries its text
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            done.append((i, (False, exc)))
    try:
        data = pickle.dumps(done)
    except Exception:
        data = pickle.dumps([(i, _sendable(i, result)) for i, result in done])
    with files[-1] as out:
        out.write(data)
    return 0


def map_in_order(unit: Callable, jobs: Sequence) -> list:
    """[unit(job) for job in jobs] in min(jobs, usable CPUs) forked children (a spawned
    one imports numpy again, 80 ms) that take job indices from one pipe as they come
    free; the parent runs no job and reaps them.  Results and the first exception in job
    order are a serial run's, except that a result that does not pickle raises a
    RuntimeError naming its job; a failed child raises ChildProcessError with its exit
    status.  Serial on one CPU, without fork, while another thread runs (a forked child
    can deadlock), or unless numpy's BLAS is an OpenBLAS on one thread (at two threads a
    child, 6 battery pairs on 2 CPUs took 5.7 s, against 0.3 s serially)."""
    if ((workers := min(len(jobs), usable_cpus())) < 2 or not hasattr(os, "fork")
            or threading.active_count() != 1 or blas_threads() != 1):
        return list(map(unit, jobs))
    files, children = list(_pipe()), {}  # the job queue's two ends first
    try:
        for _ in range(workers):
            files += _pipe()
            if (pid := os.fork()) == 0:
                try:
                    os._exit(_work(unit, jobs, files))
                finally:  # _work raised
                    os._exit(1)
            children[pid] = files[-2]
            files[-1].close()
        files[0].close()  # the queue is fed after the forks, so a long one cannot block
        with suppress(BrokenPipeError), files[1]:  # broken pipe: every child has ended
            files[1].write(b"".join(i.to_bytes(4, "little") for i in range(len(jobs))))
        sent = {pid: read.read() for pid, read in children.items()}
    finally:
        for f in files:
            f.close()
        status = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children}
    if failed := {pid: code for pid, code in status.items() if code}:
        raise ChildProcessError(f"worker processes failed, exit status by pid: {failed}")
    results = dict(item for data in sent.values() for item in pickle.loads(data))
    ordered = [results[i] for i in range(len(jobs))]
    if failed := [value for ok, value in ordered if not ok]:
        raise failed[0]
    return [value for _, value in ordered]
