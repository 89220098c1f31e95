"""Plain-text matrix exchange format.

Line 1: ``rows cols``; then rows*cols lines of ``re im`` in row-major order.
Floats are written with ``repr`` so a write/read round trip is bit-exact.
"""

from __future__ import annotations

import math

import numpy as np


def dump_matrix(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValueError("only 2-d matrices are supported")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix contains non-finite entries")
    lines = [f"{mat.shape[0]} {mat.shape[1]}"]
    for v in mat.reshape(-1):
        lines.append(f"{float(v.real)!r} {float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'rows cols', got {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if len(lines) - 1 != rows * cols:
        raise ValueError(f"expected {rows * cols} entry lines, got {len(lines) - 1}")
    data = np.empty(rows * cols, dtype=complex)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"entry line {i + 2} must be 're im', got {ln!r}")
        re, im = float(parts[0]), float(parts[1])
        if math.isnan(re) or math.isnan(im) or math.isinf(re) or math.isinf(im):
            raise ValueError(f"non-finite entry on line {i + 2}: {ln!r}")
        data[i] = complex(re, im)
    return data.reshape(rows, cols)


def read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())
