"""The benchmark scripts' contract with the package.

``bench/worker.py`` (and ``bench/run.py``) import ``ncdomains`` modules and
call their members by attribute.  A deleted or renamed member would only show
when the benchmark runs; these tests read the scripts' syntax trees and check
that every module attribute and every imported name they use exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_uses(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) for each ncdomains member the script reads."""
    tree = ast.parse(path.read_text())
    aliases, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("ncdomains.") and a.asname:
                    aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncdomains"):
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
