"""The fork-join of ``ncdomains.parallel``: job order, a child's failures, the serial
fallback beside another thread, and the modules a forked battery loads."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ncdomains
import ncdomains.parallel as parallel
from ncdomains import RegularPolynomial, run_battery

from conftest import child_pids

Z = RegularPolynomial.single_variable([1.0])
FORK_PLATFORM = hasattr(os, "fork") and any(Path("/proc/self/task").glob("*/children"))
pytestmark = pytest.mark.skipif(not FORK_PLATFORM, reason="no fork, or no /proc child lists")


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Two usable CPUs and a one-thread BLAS, so ``map_in_order`` forks; the list fills
    with one entry per ``os.fork`` call."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def exit_at_three(job: int) -> int:
    if job == 3:
        os._exit(3)
    return job


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its constructor wants two arguments."""

    def __init__(self, job, why):
        super().__init__(f"job {job}: {why}")


def raise_unpicklable(job: int) -> int:
    if job == 4:
        raise TwoArgError(job, "no way back")
    return job


def test_queue_longer_than_a_pipe_buffer(forks):
    """20,000 4-byte indices overfill a 64 KiB pipe buffer (16,384 records); the queue is
    fed after the forks, so it drains, and the results come back in job order."""
    jobs = range(-10_000, 10_000)
    assert parallel.map_in_order(abs, jobs) == [abs(j) for j in jobs]
    assert forks == [1, 1] and child_pids() == []


def test_child_that_exits_raises_with_its_status(forks):
    with pytest.raises(ChildProcessError, match=r"exit status by pid: \{\d+: 3\}"):
        parallel.map_in_order(exit_at_three, range(6))
    assert forks == [1, 1] and child_pids() == []


def test_unpicklable_exception_comes_back_with_its_text(forks):
    with pytest.raises(RuntimeError, match="^TwoArgError: job 4: no way back$"):
        parallel.map_in_order(raise_unpicklable, range(6))
    assert forks == [1, 1] and child_pids() == []


def test_serial_beside_another_thread(forks, monkeypatch):
    """A process with a second thread alive never forks (a forked child can deadlock on
    a lock that thread held), and its battery report is the serial run's."""
    def battery() -> str:
        return run_battery(Z, Z, [0, 1], [3], None, 1e-6).render()

    stop = threading.Event()
    sleeper = threading.Thread(target=stop.wait)
    sleeper.start()
    try:
        beside = battery()
    finally:
        stop.set()
        sleeper.join()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert beside == battery() and forks == []


BATTERY_SCRIPT = """
import contextlib, io, json, os, sys
import ncdomains.parallel as parallel
from ncdomains.cli import main
parallel.usable_cpus = lambda: 2
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["battery", "--count", "6", "--seed", "0", "--dims", "3", "4", "5"])
print(json.dumps([code, len(forks), sorted(m for m in sys.modules
                                         if m.split(".")[0] in ("multiprocessing", "concurrent"))]))
"""


@pytest.mark.skipif(parallel.blas_threads() is None, reason="no OpenBLAS that answers")
def test_forked_battery_loads_no_pool_modules():
    """In a fresh interpreter with one OpenBLAS thread, a battery that forks two workers
    exits 0 and leaves multiprocessing and concurrent.futures out of sys.modules."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(ncdomains.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", BATTERY_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == [0, 2, []]
