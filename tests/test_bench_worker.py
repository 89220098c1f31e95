"""The benchmark scripts' contract with the package.

``bench/worker.py`` (and ``bench/run.py``) import ``ncdomains`` modules and
call their members by attribute.  A deleted or renamed member, or a changed
signature, would only show when the benchmark runs; these tests read the
scripts' syntax trees and check that every module attribute and every imported
name they use exists, that every call of a package function binds to its
signature, and that the functions ``bench/run.py`` names as strings exist.
"""

import ast
import importlib
import inspect
import sys
import tracemalloc
from pathlib import Path

import pytest

import ncdomains.harness as harness
from ncdomains.variety import commutator_generators

from test_bench_workloads import load

BENCH = Path(__file__).resolve().parent.parent / "bench"


def module_aliases(tree: ast.Module) -> dict[str, str]:
    """alias -> module for each ``import ncdomains.<module> as <alias>``."""
    return {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names if a.name.startswith("ncdomains.") and a.asname}


def package_uses(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) for each ncdomains member the script reads."""
    tree = ast.parse(path.read_text())
    aliases, uses = module_aliases(tree), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncdomains"):
            uses += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((aliases[node.value.id], node.attr))
    return sorted(set(uses))


def test_worker_uses_the_package():
    modules = {m for m, _ in package_uses(BENCH / "worker.py")}
    assert {"ncdomains.harness", "ncdomains.transfer", "ncdomains.variety"} <= modules


@pytest.mark.parametrize("script", ["worker.py", "run.py"])
def test_bench_script_reads_existing_members(script):
    missing = [f"{m}.{name}" for m, name in package_uses(BENCH / script)
               if not hasattr(importlib.import_module(m), name)]
    assert not missing, f"bench/{script} uses members the package lacks: {missing}"


def package_calls(path: Path) -> list[tuple[str, str, int, tuple[str, ...]]]:
    """(module, attribute, positional count, keyword names) for each call
    ``<alias>.<attribute>(...)`` of an ncdomains module in the script."""
    tree = ast.parse(path.read_text())
    aliases, out = module_aliases(tree), []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            out.append((aliases[node.func.value.id], node.func.attr, len(node.args),
                        tuple(k.arg for k in node.keywords)))
    return out


def test_worker_calls_bind_to_the_signatures():
    """Each package call of the worker, e.g. ``transfer.fourier_roundtrip_residual(tf, w, 2)``,
    passes arguments its function accepts: the positional count and the keyword names."""
    calls = package_calls(BENCH / "worker.py")
    assert ("ncdomains.transfer", "fourier_roundtrip_residual", 3, ()) in calls
    for module, name, count, keywords in calls:
        fn = getattr(importlib.import_module(module), name)
        try:
            inspect.signature(fn).bind(*range(count), **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"bench/worker.py calls {module}.{name} with {count} positional "
                        f"arguments and keywords {keywords}: {exc}")


def run_names() -> list[str]:
    """The layer.function strings of ``_TRANSFER`` and ``LAYER_MAP`` in bench/run.py,
    and the layer names LAYER_MAP maps each workload to."""
    tree = ast.parse((BENCH / "run.py").read_text())
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("_TRANSFER", "LAYER_MAP")
                for t in node.targets):
            # LAYER_MAP's keys are workloads, not layers
            parts = node.value.values if isinstance(node.value, ast.Dict) else [node.value]
            out += [c.value for part in parts for c in ast.walk(part)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return out


def test_run_names_resolve_in_the_package():
    names = run_names()
    assert {"transfer.fourier_roundtrip_residual", "harness", "variety"} <= set(names)
    for name in names:
        module, _, member = name.partition(".")
        obj = importlib.import_module(f"ncdomains.{module}")
        if member:
            assert inspect.isfunction(getattr(obj, member, None)), f"bench/run.py names {name}"


def test_twovar_size_reads_build_no_dense_letters(tmp_path, monkeypatch):
    """``twovar_run`` records ``dil.right.dim`` inside its timed section.  At the twovar
    pair (f = z1 + z2, dim 4, N = 6), and on a commutator-variety model of it, reading
    ``dim`` and ``n`` of ``right`` and ``left`` builds no letter: no ``_scatter`` or
    ``_row_adjoint`` call, under 1 MB of tracemalloc peak, and the dimension of the
    dilation space, Fock (or model) times r."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written under bench/
    monkeypatch.setitem(sys.modules, "tracer", load("tracer"))  # worker.py's sibling import
    worker = load("worker")
    pair = worker.twovar_prepare(0, str(tmp_path))[0]["pair"]
    plain = harness.ando_dilation(pair, N=worker.TWOVAR_N)
    model = harness.ando_dilation(pair, N=worker.TWOVAR_N, variety=commutator_generators(2))
    calls = []
    for name in ("_scatter", "_row_adjoint"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *args, real=real: calls.append(args) or real(*args))
    for dil, fock in ((plain, plain.transfer.fock_size), (model, model.variety.dim)):
        tracemalloc.start()
        sizes = (dil.right.dim, dil.left.dim, dil.right.n, dil.left.n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sizes == (fock * dil.multiplicity,) * 2 + (1, 2)
        assert peak < 2**20, peak
    assert calls == []
    assert plain.transfer.fock_size * plain.multiplicity == 1016
