"""Command-line interface.

Verbs:
  check-model   domain membership, purity and Poisson-kernel checks for T1
  dilate        build the two-tuple dilation and report its residuals
  verify        run the built-in inequality battery on an explicit pair
  battery       seeded sweep of random commuting pairs
  report        re-render a structured report file as a table

The numeric knobs (tol, seed, count, dims, N) are declared once, with their
flags, types, ranges and help, in the table ``config.KNOBS``.  A flag sets its
knob unless the config file sets the same key; then the file wins and a warning
names both values.  A tolerance set by neither comes from the NCDOMAINS_TOL
environment variable (default 1e-9).  A value outside the table's range, from
a flag, a config key or NCDOMAINS_TOL, exits with code 2 and a message naming
it.  When a tolerance floor (KERNEL_TOL_FLOOR, INEQUALITY_TOL_FLOOR) replaces
a tolerance the user gave, a warning on stderr names both values.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (DEFAULT_TOL_ENV, KNOBS, ConfigError, ExperimentConfig, default_tolerance,
                     knob_value)
from .domain import RegularPolynomial, domain_membership, phi_identity_power
from .harness import (CommutingPair, PairDilation, ando_dilation, builtin_polys, run_battery,
                      verify_inequality)
from .poisson import poisson_kernel, verify_kernel_identities
from .report import VerificationReport, parse_report
from .variety import build_variety, verify_constrained_kernel

Z = RegularPolynomial.single_variable([1.0])  # the default f = g = z

KERNEL_TOL_FLOOR = 1e-9
"""Floor of check-model's kernel_* and variety_* checks: the default tolerance of
config.default_tolerance, a fixed choice that no bound derives."""
INEQUALITY_TOL_FLOOR = 1e-6
"""Floor of the norm_slack_* and eig_slack_* checks of verify and battery: a fixed
choice, equal to the largest purity tail ||Phi^m(I)|| that choose_truncation accepts."""
PURITY_NORM_TOL = 1e-6
"""Tolerance of check-model's purity_norm_at_24 check on ||Phi^24(I)||: a fixed choice."""


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncdomains",
                                 description="truncated dilation models on "
                                             "noncommutative polynomial domains")
    ap.add_argument("--config", help="JSON experiment config")
    for key, knob in KNOBS.items():
        ap.add_argument(knob.flag, type=knob.kind, nargs=knob.nargs, dest=key,
                        help=knob.help)
    ap.add_argument("--output", choices=("text", "table"), default=None)
    ap.add_argument("verb", choices=("check-model", "dilate", "verify",
                                     "battery", "report"))
    ap.add_argument("args", nargs="*", help="verb arguments (report: a file path)")
    return ap


def _merge(cfg: ExperimentConfig, ns: argparse.Namespace) -> ExperimentConfig:
    """A flag sets its knob unless the config file set it; then the file wins."""
    flags = {key: knob.flag for key, knob in KNOBS.items()} | {"output": "--output"}
    for attr, option in flags.items():
        flag = getattr(ns, attr)
        if flag is None:
            continue
        if attr in KNOBS:
            knob_value(attr, flag, option)
        current = getattr(cfg, attr)
        if attr not in cfg.file_keys:
            setattr(cfg, attr, flag)
        elif current != flag:
            print(f"warning: {option} {flag} ignored, config file sets "
                  f"{attr}={current}", file=sys.stderr)
    return cfg


def _floored(cfg: ExperimentConfig, floor: float, tol_given: bool) -> float:
    """max(cfg.tol, floor); a warning on stderr names both values when the floor
    replaces a tolerance the user gave (flag, config key or NCDOMAINS_TOL)."""
    if tol_given and floor > cfg.tol:
        print(f"warning: tol={cfg.tol!r} is below the floor {floor!r} of these checks; "
              f"they use tol={floor!r}", file=sys.stderr)
    return max(cfg.tol, floor)


def _emit(rep: VerificationReport, output: str) -> int:
    sys.stdout.write(rep.render())
    if output == "table":
        sys.stdout.write(rep.render_table())
    return 0 if rep.passed else 1


def _require(cfg: ExperimentConfig, *fields: str) -> None:
    for name in fields:
        if getattr(cfg, name) is None:
            raise ConfigError(f"this verb needs {name!r} (set it in the config file)")


def cmd_check_model(cfg: ExperimentConfig, tol_given: bool) -> int:
    _require(cfg, "T1")
    f, T = cfg.f, cfg.T1
    rep = VerificationReport("check-model", environment={"tol": repr(cfg.tol)})
    mem = domain_membership(f, T, tol=cfg.tol)
    rep.add_slack("domain_min_eig", mem.min_eig, cfg.tol)
    rep.add_slack("ellipsoid_min_eig", mem.min_eig_ellipsoid, cfg.tol)
    if mem.in_domain:
        rep.add_residual("purity_norm_at_24",
                         float(np.linalg.norm(phi_identity_power(f, T, 24), 2)), PURITY_NORM_TOL)
        N = cfg.N if cfg.N is not None else 8
        K = poisson_kernel(f, T, N)
        kernel_tol = _floored(cfg, KERNEL_TOL_FLOOR, tol_given)
        rep.extend(verify_kernel_identities(K, tol=kernel_tol), prefix="kernel_")
        if cfg.variety:
            rep.extend(verify_constrained_kernel(build_variety(f, N, cfg.variety), K,
                                                 tol=kernel_tol), prefix="variety_")
    return _emit(rep, cfg.output)


def _dilation(cfg: ExperimentConfig) -> PairDilation:
    _require(cfg, "g", "T1", "T2")
    pair = CommutingPair(cfg.f, cfg.g, cfg.T1, cfg.T2)
    return ando_dilation(pair, N=cfg.N, variety=cfg.variety, tol=cfg.tol)


def cmd_dilate(cfg: ExperimentConfig) -> int:
    return _emit(_dilation(cfg).report, cfg.output)


def cmd_verify(cfg: ExperimentConfig, tol_given: bool) -> int:
    dil = _dilation(cfg)
    tol = _floored(cfg, INEQUALITY_TOL_FLOOR, tol_given)
    rep = verify_inequality(builtin_polys(), dil, tol=tol)
    rep.extend(dil.report, prefix="dilation_")
    return _emit(rep, cfg.output)


def cmd_battery(cfg: ExperimentConfig, tol_given: bool) -> int:
    g = cfg.g if cfg.g is not None else cfg.f
    seeds = [cfg.seed + i for i in range(cfg.count)]
    rep = run_battery(cfg.f, g, seeds, cfg.dims, cfg.kinds,
                      tol=_floored(cfg, INEQUALITY_TOL_FLOOR, tol_given))
    return _emit(rep, cfg.output)


def cmd_report(cfg: ExperimentConfig, paths: list[str]) -> int:
    if not paths:
        raise ConfigError("report: need a report file path")
    code = 0
    for path in paths:
        try:
            with open(path) as fh:
                rep = parse_report(fh.read())
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise ConfigError(f"report file {path!r}: {exc}") from exc
        sys.stdout.write(rep.render_table())
        code = max(code, 0 if rep.passed else 1)
    return code


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.config:
            cfg = ExperimentConfig.from_file(ns.config)
        else:
            cfg = ExperimentConfig(f=Z, g=Z)
        cfg = _merge(cfg, ns)
        if cfg.tol is None:
            cfg.tol = default_tolerance()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tol_given = (ns.tol is not None or "tol" in cfg.file_keys
                 or DEFAULT_TOL_ENV in os.environ)
    try:
        if ns.verb == "dilate":
            return cmd_dilate(cfg)
        if ns.verb == "report":
            return cmd_report(cfg, ns.args)
        floored_verbs = {"check-model": cmd_check_model, "verify": cmd_verify,
                         "battery": cmd_battery}
        return floored_verbs[ns.verb](cfg, tol_given)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # propagated module errors become failed records, not crashes
        rep = VerificationReport(ns.verb, environment={"error": str(exc)})
        rep.add_flag("pipeline_error", False)
        return _emit(rep, cfg.output)


if __name__ == "__main__":
    sys.exit(main())
