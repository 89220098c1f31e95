"""Outside-in span tracer for the ncdomains layers.

The tracer wraps, from outside the package, every public function of every
``ncdomains`` module at every place it is bound (modules import each other's
functions with ``from .x import y``, so each binding site is patched), the
methods ``OperatorTuple.word`` and ``VerificationReport.render``, and the
numpy kernels underneath (``numpy.linalg.svd`` ... and ``numpy.kron``), which
form the ``linalg`` layer.

Each call becomes a span (name, start, end, parent span, unit id) kept in
memory; ``spans`` can be written out once the traced section has ended.  A
span's self time is its duration minus the durations of its direct children.
The tracer lives in the benchmark only; the package is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LINALG_FUNCS = ("svd", "eigh", "eigvalsh", "solve", "inv", "norm")
TRACED_METHODS = (("domain", "OperatorTuple", "word"),
                  ("report", "VerificationReport", "render"))


def fock_size(n: int, N: int) -> int:
    """Number of words of length <= N over n letters."""
    return sum(n ** j for j in range(N + 1))


def _poly_key(f) -> tuple:
    return (f.n, tuple(sorted(f.coeffs.items())))


# Argument keys whose distinct count, against the call count, gives the
# reuse ratio of a function that is called again with the same inputs.
DISTINCT_KEYS = {
    "words.enumerate_words": lambda a: (a["n"], a["N"]),
    "domain.weighted_left_creation": lambda a: (_poly_key(a["f"]), a["N"]),
    "harness.grid_sup_norm": lambda a: (type(a["p"]).__name__, a["p"].name,
                                        a["resolution"]),
}

# Problem sizes seen by a function; the metric is the largest one.
MAX_DIMS = {
    "transfer.eval_transfer": ("max_dim", lambda a: a["col"].slot_dim
                               * fock_size(a["col"].triple.f.n, a["N"])),
    "domain.domain_membership": ("max_dim", lambda a: a["T"].rows),
    "variety.build_variety": ("max_fock", lambda a: fock_size(a["f"].n, a["N"])),
}


def _svd_flops(m: int, n: int, uv: bool, full: bool) -> float:
    """Golub-Van Loan operation counts of an m x n SVD."""
    big, k = max(m, n), min(m, n)
    if not uv:
        return 4.0 * big * k * k - 4.0 * k ** 3 / 3.0
    if full:
        return 4.0 * big * big * k + 8.0 * big * k * k + 9.0 * k ** 3
    return 14.0 * big * k * k + 8.0 * k ** 3


def linalg_flops(name: str, args: tuple, kwargs: dict) -> float:
    """Textbook operation count of a numpy kernel call, from its shapes.

    Complex arguments count four real operations per multiply-add.  These
    are computed figures, not hardware counters.
    """
    arrays = [np.asarray(x) for x in args[:2] if isinstance(x, np.ndarray)]
    if not arrays:
        return 0.0
    a = arrays[0]
    scale = 4.0 if any(np.iscomplexobj(x) for x in arrays) else 1.0
    if name == "kron":
        return scale * a.size * (arrays[1].size if len(arrays) > 1 else 1)
    if a.ndim < 2:
        return scale * 2.0 * a.size
    batch = float(np.prod(a.shape[:-2])) if a.ndim > 2 else 1.0
    m, n = a.shape[-2], a.shape[-1]
    if name == "svd":
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        return scale * batch * _svd_flops(m, n, bool(uv), bool(full))
    if name == "eigh":
        return scale * batch * 9.0 * n ** 3
    if name == "eigvalsh":
        return scale * batch * 4.0 * n ** 3 / 3.0
    if name == "inv":
        return scale * batch * 2.0 * n ** 3
    if name == "solve":
        rhs = arrays[1] if len(arrays) > 1 else a
        k = rhs.shape[-1] if rhs.ndim >= 2 else 1
        return scale * batch * (2.0 * n ** 3 / 3.0 + 2.0 * n * n * k)
    if name == "norm":
        ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
        if ord_ in (2, -2):
            axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
            if axis is None and a.ndim != 2:
                return scale * 2.0 * a.size
            return scale * batch * _svd_flops(m, n, False, False)
        return scale * 2.0 * a.size
    return 0.0


class Tracer:
    """Span recorder; install() patches the package, the tracer owns the data."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[list] = []          # [span index, children's time]
        self.unit = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.max_dims: dict[str, int] = {}
        self.flops = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        key_fn = DISTINCT_KEYS.get(name)
        dim = MAX_DIMS.get(name)
        linalg = name[len("linalg."):] if name.startswith("linalg.") else None
        sig = inspect.signature(fn) if key_fn or dim else None
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        if key_fn:
            self.distinct[name] = set()
        if dim:
            self.max_dims[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if key_fn:
                    self.distinct[name].add(key_fn(bound))
                if dim:
                    self.max_dims[name] = max(self.max_dims[name], int(dim[1](bound)))
            if linalg:
                self.flops += linalg_flops(linalg, args, kwargs)
            stack = self.stack
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                self.spans[frame[0]] = (name, start, end, parent, self.unit)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self) -> None:
        """Patch every binding site of the package's public functions."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "ncdomains"
                                           or name.startswith("ncdomains."))}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("ncdomains."):
                    continue
                if id(obj) not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[f"ncdomains.{layer}"], cls_name)
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                          getattr(cls, meth)))
        for fname in LINALG_FUNCS:
            setattr(np.linalg, fname, self._wrap(f"linalg.{fname}",
                                                 getattr(np.linalg, fname)))
        np.kron = self._wrap("linalg.kron", np.kron)

    # -- summaries ---------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-function and per-layer totals for the traced section."""
        layers: dict[str, float] = {}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s
        top = sum(span[2] - span[1] for span in self.spans
                  if span is not None and span[3] == -1)
        # self time plus the numpy kernels a layer calls directly: the share
        # the layer map is checked against
        with_kernels = {layer: 0.0 for layer in layers}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer != "linalg":
                with_kernels[layer] += s
        for span in self.spans:
            if span is None or not span[0].startswith("linalg.") or span[3] < 0:
                continue
            parent = self.spans[span[3]]
            if parent is not None and not parent[0].startswith("linalg."):
                with_kernels[parent[0].split(".", 1)[0]] += span[2] - span[1]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "layers": layers,
            "with_kernels": with_kernels,
            "untraced_s": max(wall_s - top, 0.0),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "max_dims": dict(self.max_dims),
            "flops": self.flops,
            "span_count": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        """One JSON list per line: name, start, end, parent index, unit id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
