"""JSON experiment configuration.

Words are encoded as comma-separated letter strings ("1", "1,2"; "" is the
empty word).  Unknown keys and malformed values raise ``ConfigError`` with the
offending location.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .domain import OperatorTuple, RegularPolynomial
from .matio import read_matrix
from .variety import Generator, commutator_generators, minpoly_generator
from .words import Word

DEFAULT_TOL_ENV = "NCDOMAINS_TOL"


class ConfigError(ValueError):
    pass


def parse_word(key: str) -> Word:
    key = key.strip()
    if not key:
        return ()
    try:
        return tuple(int(p) for p in key.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad word key {key!r}: {exc}") from None


def word_key(w: Word) -> str:
    return ",".join(str(c) for c in w)


def _scalar(kind: type, v, where: str):
    """int(v) or float(v); a value that does not convert raises ConfigError at where."""
    try:
        return kind(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {v!r}") from None


def _complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"{where}: expected a number or [re, im], got {v!r}")


def parse_polynomial(obj, where: str) -> RegularPolynomial:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object with 'n' and 'coeffs'")
    unknown = set(obj) - {"n", "coeffs"}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    try:
        n = _scalar(int, obj["n"], f"{where}.n")
        raw = obj["coeffs"]
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}.coeffs: expected an object keyed by words")
    coeffs = {parse_word(k): _scalar(float, v, f"{where}.coeffs[{k!r}]")
              for k, v in raw.items()}
    try:
        return RegularPolynomial(n, coeffs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_operator_tuple(obj, where: str, base: str = ".") -> OperatorTuple:
    """A list of matrices; each is inline [[...]] rows or a path string."""
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where}: expected a nonempty list of matrices")
    mats = []
    for i, m in enumerate(obj):
        loc = f"{where}[{i}]"
        if isinstance(m, str):
            path = m if os.path.isabs(m) else os.path.join(base, m)
            try:
                mats.append(read_matrix(path))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{loc}: {exc}") from None
        elif isinstance(m, list):
            try:
                mats.append(np.array([[_complex(v, loc) for v in row] for row in m],
                                     dtype=complex))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{loc}: {exc}") from None
        else:
            raise ConfigError(f"{loc}: expected a path or a nested list")
    try:
        return OperatorTuple(tuple(mats))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_variety_spec(obj, where: str, n: int) -> list[Generator] | None:
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "none":
        return None
    if kind == "commutator":
        return commutator_generators(n)
    if kind == "minpoly":
        if "coeffs" in obj:
            coeffs = [_complex(c, f"{where}.coeffs") for c in obj["coeffs"]]
            if len(coeffs) < 2:
                raise ConfigError(f"{where}: minpoly needs degree >= 1")
            return [{(1,) * j: c for j, c in enumerate(coeffs)}]
        roots = [_complex(r, f"{where}.roots") for r in obj.get("roots", [])]
        if not roots:
            raise ConfigError(f"{where}: minpoly variety needs 'coeffs' or 'roots'")
        return [minpoly_generator(roots)]
    if kind == "custom":
        gens = []
        for i, g in enumerate(obj.get("generators", [])):
            gens.append({parse_word(k): _complex(v, f"{where}.generators[{i}]")
                         for k, v in g.items()})
        if not gens:
            raise ConfigError(f"{where}: custom variety needs 'generators'")
        return gens
    raise ConfigError(f"{where}: unknown variety kind {kind!r}")


def default_tolerance(fallback: float = 1e-9) -> float:
    """Default check tolerance, overridable via the NCDOMAINS_TOL variable."""
    raw = os.environ.get(DEFAULT_TOL_ENV)
    return fallback if raw is None else _scalar(float, raw, DEFAULT_TOL_ENV)


@dataclass
class ExperimentConfig:
    f: RegularPolynomial
    g: RegularPolynomial | None = None
    N: int | None = None
    tol: float = field(default_factory=default_tolerance)
    seed: int = 0
    count: int = 10
    dims: list[int] = field(default_factory=lambda: [2, 3, 4])
    kinds: list[str] | None = None
    T1: OperatorTuple | None = None
    T2: OperatorTuple | None = None
    variety: list[Generator] | None = None
    output: str = "text"  # "text" or "table"
    file_keys: frozenset[str] = frozenset()  # top-level keys the config file set

    KNOWN = {"f", "g", "N", "tol", "seed", "count", "dims", "kinds",
             "matrices", "variety", "output"}

    @staticmethod
    def from_json(text: str, base: str = ".") -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                              f"{exc.msg}") from None
        if not isinstance(obj, dict):
            raise ConfigError("top level must be an object")
        unknown = set(obj) - ExperimentConfig.KNOWN
        if unknown:
            raise ConfigError(f"unknown top-level fields {sorted(unknown)}")
        if "f" not in obj:
            raise ConfigError("missing required field 'f'")
        f = parse_polynomial(obj["f"], "f")
        g = parse_polynomial(obj["g"], "g") if "g" in obj else None
        cfg = ExperimentConfig(f=f, g=g, file_keys=frozenset(obj))
        for key, kind in (("N", int), ("tol", float), ("seed", int), ("count", int)):
            if key in obj:
                setattr(cfg, key, _scalar(kind, obj[key], key))
        if "dims" in obj:
            if not isinstance(obj["dims"], list):
                raise ConfigError(f"dims: expected a list, got {obj['dims']!r}")
            cfg.dims = [_scalar(int, d, f"dims[{i}]") for i, d in enumerate(obj["dims"])]
        if "kinds" in obj:
            cfg.kinds = [str(k) for k in obj["kinds"]]
        if "output" in obj:
            if obj["output"] not in ("text", "table"):
                raise ConfigError(f"output: expected 'text' or 'table', got {obj['output']!r}")
            cfg.output = obj["output"]
        mats = obj.get("matrices", {})
        if not isinstance(mats, dict) or set(mats) - {"T1", "T2"}:
            raise ConfigError("matrices: expected an object with keys T1/T2")
        if "T1" in mats:
            cfg.T1 = parse_operator_tuple(mats["T1"], "matrices.T1", base)
        if "T2" in mats:
            cfg.T2 = parse_operator_tuple(mats["T2"], "matrices.T2", base)
        cfg.variety = parse_variety_spec(obj.get("variety"), "variety", f.n)
        return cfg

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_json(fh.read(), base=os.path.dirname(path) or ".")
