"""The benchmark tracer's contract with the package.

``bench/tracer.py`` keys per-layer metrics on package functions by name and
reads their arguments by parameter name.  A rename, a wrapper that is not a
plain function, or a renamed parameter would make ``bench/run.py --trace 1``
fail; these tests catch that here.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path
from unittest import mock

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# per-layer metrics whose member does not exist: the package builds no right-side
# creation operators (the tests build them, conftest.right_creation)
UNRESOLVED_METRICS = {"domain.weighted_right_creation"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class ArgumentRecorder(dict):
    """Bound arguments that record which names an entry reads."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return mock.MagicMock()


def entries():
    tracer = load_tracer()
    out = [(name, key_fn) for name, key_fn in tracer.DISTINCT_KEYS.items()]
    out += [(name, dim[1]) for name, dim in tracer.MAX_DIMS.items()]
    return out


@pytest.mark.parametrize("name, read_args", entries())
def test_traced_function_exists_with_read_parameters(name, read_args):
    layer, func = name.split(".", 1)
    fn = getattr(importlib.import_module(f"ncdomains.{layer}"), func)
    # Tracer.install wraps plain functions only
    assert inspect.isfunction(fn), f"{name} is not a plain function"
    args = ArgumentRecorder()
    read_args(args)
    assert args.read, f"the entry for {name} reads no argument"
    params = inspect.signature(fn).parameters
    for arg in args.read:
        assert arg in params, f"{name} has no parameter {arg!r}"
        # BoundArguments.arguments omits defaults, so the entry needs it passed
        assert params[arg].default is inspect.Parameter.empty, (
            f"{name}: parameter {arg!r} has a default the tracer cannot read")


def package_members() -> list[str]:
    """layer.member of each BENCHMARK.json per-layer metric whose layer is an
    ncdomains module (not linalg, trace or untraced) and that names a member."""
    out = []
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        layer, _, member = metric["name"].rsplit(".", 1)[0].partition(".")
        if member and importlib.util.find_spec(f"ncdomains.{layer}") is not None:
            out.append(f"{layer}.{member}")
    return sorted(set(out))


def resolves(name: str) -> bool:
    layer, member = name.split(".", 1)
    obj = importlib.import_module(f"ncdomains.{layer}")
    for attr in member.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_benchmark_metrics_name_existing_members():
    """Every per-layer metric that names an ncdomains member names one that
    exists (a rename of a traced function would leave its metric at 0), except
    the recorded ones; those must still be missing, so the list stays true."""
    members = package_members()
    assert "domain.b_coefficients" in members and "domain.OperatorTuple.word" in members
    assert [m for m in members if not resolves(m)] == sorted(UNRESOLVED_METRICS)
