"""The benchmark workloads, run once in-process.

``bench/worker.py`` reads attributes of the objects the package returns
(``tf.block_words``, ``tf.fock_size``, ``dil.multiplicity``,
``col.slot_dim``), which the module-attribute scan of
``test_bench_worker.py`` cannot see.  Each workload runs here once at seed 0:
every report must pass and carry the checks recorded in
``bench/signatures.json``.  The scripts are loaded by path and nothing is
written under ``bench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from ncdomains.report import parse_report

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_workload_reports_pass_with_recorded_signature(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "tracer", load("tracer"))  # worker.py's sibling import
    monkeypatch.delenv("NCDOMAINS_TOL", raising=False)  # as run.py's child_env
    worker, run = load("worker"), load("run")
    signatures = json.loads((BENCH / "signatures.json").read_text())
    assert sorted(worker.WORKLOADS) == sorted(signatures)
    for workload, (prepare, execute) in worker.WORKLOADS.items():
        workdir = tmp_path / workload
        workdir.mkdir()
        inputs, _ = prepare(0, str(workdir))
        units, _ = execute(inputs, None)
        expected = signatures[workload]
        assert sorted(name for name, _, _ in units) == sorted(expected), workload
        for name, text, code in units:
            assert code == 0 and parse_report(text).passed, text
            assert run.signature(workload, 0, text) == expected[name], (workload, name)
