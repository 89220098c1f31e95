"""JSON experiment configuration.

Words are encoded as comma-separated letter strings ("1", "1,2"; "" is the
empty word).  Unknown keys and malformed values raise ``ConfigError`` with the
offending location.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .domain import OperatorTuple, RegularPolynomial
from .harness import PAIR_KINDS
from .matio import read_matrix
from .variety import Generator, check_generator, commutator_generators, minpoly_generator
from .words import Word

DEFAULT_TOL_ENV = "NCDOMAINS_TOL"


# The numeric knobs, each declared once: config key -> flag, type, least value, help
# text and nargs ("+": a nonempty list).  Its one range rule is knob_value's.
Knob = namedtuple("Knob", "flag kind least help nargs")
KNOBS = {
    "tol": Knob("--tol", float, 0, "check tolerance", None),
    "seed": Knob("--seed", int, 0, "battery base seed", None),
    "count": Knob("--count", int, 1, "battery pair count", None),
    "dims": Knob("--dims", int, 1, "battery dims", "+"),
    "N": Knob("--level", int, 0, "Fock truncation level", None),
}


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
    """kind(v), refusing booleans and, for int, fractions; else ConfigError at where."""
    try:
        if isinstance(v, bool) or (kind is int and isinstance(v, float) and not v.is_integer()):
            raise ValueError
        return kind(v)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise ConfigError(f"{where}: expected {kind.__name__}, got {v!r}") from None


def _complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, list) and len(v) == 2:
        z = complex(*(_scalar(float, x, where) for x in v))
    else:
        raise ConfigError(f"{where}: expected a number or [re, im], got {v!r}")
    if not np.isfinite(z):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return z


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


def parse_operator_tuple(obj, where: str, base: str) -> OperatorTuple:
    """A list of matrices; each is inline [[...]] rows or a path string."""
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where}: expected a nonempty list of matrices")
    mats = []
    for i, m in enumerate(obj):
        loc = f"{where}[{i}]"
        if isinstance(m, str):
            try:  # an absolute m is read as is
                mats.append(read_matrix(os.path.join(base, m)))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{loc}: {exc}") from None
        elif isinstance(m, list):
            try:
                mats.append(np.array([[_complex(v, loc) for v in row] for row in m],
                                     dtype=complex))
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{loc}: {exc}") from None
        else:
            raise ConfigError(f"{loc}: expected a path or a nested list")
        if 0 in mats[-1].shape:
            raise ConfigError(f"{loc}: expected at least one row and one column, "
                              f"got shape {mats[-1].shape}")
    try:
        return OperatorTuple(tuple(mats))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{where}: expected a list, got {v!r}")
    return v


def _generator(q: Generator, where: str, n: int) -> Generator:
    try:
        check_generator(q, n)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return q


def parse_variety_spec(obj, where: str, n: int) -> list[Generator] | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object with 'kind', got {obj!r}")
    kind = obj.get("kind")
    if kind == "none":
        return None
    if kind == "commutator":
        return commutator_generators(n)
    if kind == "minpoly":
        if "coeffs" in obj:
            coeffs = [_complex(c, f"{where}.coeffs")
                      for c in _list(obj["coeffs"], f"{where}.coeffs")]
            if len(coeffs) < 2:
                raise ConfigError(f"{where}: minpoly needs degree >= 1")
            return [_generator({(1,) * j: c for j, c in enumerate(coeffs)}, f"{where}.coeffs", n)]
        roots = [_complex(r, f"{where}.roots")
                 for r in _list(obj.get("roots", []), f"{where}.roots")]
        if not roots:
            raise ConfigError(f"{where}: minpoly variety needs 'coeffs' or 'roots'")
        return [minpoly_generator(roots)]
    if kind == "custom":
        gens = []
        for i, g in enumerate(_list(obj.get("generators", []), f"{where}.generators")):
            loc = f"{where}.generators[{i}]"
            if not isinstance(g, dict):
                raise ConfigError(f"{loc}: expected an object keyed by words, got {g!r}")
            gens.append(_generator({parse_word(k): _complex(v, loc) for k, v in g.items()},
                                   loc, n))
        if not gens:
            raise ConfigError(f"{where}: custom variety needs 'generators'")
        return gens
    raise ConfigError(f"{where}: unknown variety kind {kind!r}")


def _check_count(T: OperatorTuple, p: RegularPolynomial, where: str, name: str) -> None:
    """A tuple needs one matrix per indeterminate of its polynomial."""
    if T.n != p.n:
        raise ConfigError(f"{where}: expected {p.n} matrices, one per indeterminate of "
                          f"{name}, got {T.n}")


def _at_least(knob: Knob, value, where: str):
    finite = knob.kind is float
    if value < knob.least or (finite and not math.isfinite(value)):
        raise ConfigError(f"{where}: expected a {'finite ' if finite else ''}value >= "
                          f"{knob.least}, got {value!r}")
    return value


def knob_value(key: str, raw, where: str):
    """raw as a value of KNOBS[key], for config keys, flags and NCDOMAINS_TOL: of the
    knob's type, at least its least value and, for a float knob, finite (a list knob:
    a nonempty list of such values).  A violation raises ConfigError naming where."""
    knob = KNOBS[key]
    if knob.nargs is None:
        return _at_least(knob, _scalar(knob.kind, raw, where), where)
    if not _list(raw, where):
        raise ConfigError(f"{where}: expected a nonempty list")
    return [_at_least(knob, _scalar(knob.kind, v, f"{where}[{i}]"), f"{where}[{i}]")
            for i, v in enumerate(raw)]


def default_tolerance() -> float:
    """Default check tolerance 1e-9, overridable via the NCDOMAINS_TOL variable."""
    raw = os.environ.get(DEFAULT_TOL_ENV)
    return 1e-9 if raw is None else knob_value("tol", raw, DEFAULT_TOL_ENV)


@dataclass
class ExperimentConfig:
    f: RegularPolynomial
    g: RegularPolynomial | None = None
    N: int | None = None
    tol: float | None = None  # None: the CLI reads default_tolerance() when no flag or key sets it
    seed: int = 0
    count: int = 10
    dims: list[int] = field(default_factory=lambda: [2, 3, 4])
    kinds: list[str] | None = None
    T1: OperatorTuple | None = None
    T2: OperatorTuple | None = None
    variety: list[Generator] | None = None
    output: str = "text"  # "text" or "table"
    file_keys: frozenset[str] = frozenset()  # top-level keys the config file set

    KNOWN = {"f", "g", *KNOBS, "kinds", "matrices", "variety", "output"}

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
        for key in KNOBS:
            if key in obj:
                setattr(cfg, key, knob_value(key, obj[key], key))
        if "kinds" in obj:
            cfg.kinds = _list(obj["kinds"], "kinds")
            if not cfg.kinds:
                raise ConfigError("kinds: expected a nonempty list")
            for i, k in enumerate(cfg.kinds):
                if k not in PAIR_KINDS:
                    raise ConfigError(f"kinds[{i}]: expected one of {list(PAIR_KINDS)}, "
                                      f"got {k!r}")
        if "output" in obj:
            if obj["output"] not in ("text", "table"):
                raise ConfigError(f"output: expected 'text' or 'table', got {obj['output']!r}")
            cfg.output = obj["output"]
        mats = obj.get("matrices", {})
        if not isinstance(mats, dict) or set(mats) - {"T1", "T2"}:
            raise ConfigError("matrices: expected an object with keys T1/T2")
        if "T1" in mats:
            cfg.T1 = parse_operator_tuple(mats["T1"], "matrices.T1", base)
            _check_count(cfg.T1, f, "matrices.T1", "f")
            if cfg.T1.rows != cfg.T1.cols:
                raise ConfigError(f"matrices.T1: expected square matrices, got shape "
                                  f"{cfg.T1.mats[0].shape}")
        if "T2" in mats:
            cfg.T2 = parse_operator_tuple(mats["T2"], "matrices.T2", base)
            if g is not None:
                _check_count(cfg.T2, g, "matrices.T2", "g")
            if cfg.T1 is not None and cfg.T2.mats[0].shape != cfg.T1.mats[0].shape:
                raise ConfigError("matrices.T2: expected matrices of the shape of matrices.T1, "
                                  f"{cfg.T1.mats[0].shape}, got {cfg.T2.mats[0].shape}")
        cfg.variety = parse_variety_spec(obj.get("variety"), "variety", f.n)
        return cfg

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # an OSError's strerror omits the path
            raise ConfigError(f"config file {path!r}: {getattr(exc, 'strerror', exc)}") from None
        return ExperimentConfig.from_json(text, base=os.path.dirname(path) or ".")
