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
from pathlib import Path

import pytest

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
