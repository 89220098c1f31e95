"""Command-line interface.

Verbs:
  check-model   domain membership, purity and Poisson-kernel checks for T1
  dilate        build the two-tuple dilation and report its residuals
  verify        run the built-in inequality battery on an explicit pair
  battery       seeded sweep of random commuting pairs
  report        re-render a structured report file as a table

A command-line flag sets its knob unless the config file sets the same key;
then the config file wins and a warning names both values.  A tolerance set
by neither comes from the NCDOMAINS_TOL environment variable (default 1e-9).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig
from .domain import RegularPolynomial, domain_membership, purity_estimate
from .harness import (CommutingPair, ando_dilation, builtin_bipolynomials,
                      builtin_hermitian, builtin_matrix_polys, run_battery,
                      verify_hermitian_inequality, verify_inequality)
from .poisson import poisson_kernel, verify_kernel_identities
from .report import VerificationReport, parse_report
from .variety import build_variety, constrained_poisson, verify_constrained_kernel

Z = RegularPolynomial.single_variable([1.0])  # the default f = g = z


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncdomains",
                                 description="truncated dilation models on "
                                             "noncommutative polynomial domains")
    ap.add_argument("--config", help="JSON experiment config")
    ap.add_argument("--tol", type=float, default=None, help="check tolerance")
    ap.add_argument("--seed", type=int, default=None, help="battery base seed")
    ap.add_argument("--count", type=int, default=None, help="battery pair count")
    ap.add_argument("--dims", type=int, nargs="+", default=None, help="battery dims")
    ap.add_argument("--level", type=int, default=None, dest="N",
                    help="Fock truncation level")
    ap.add_argument("--output", choices=("text", "table"), default=None)
    ap.add_argument("verb", choices=("check-model", "dilate", "verify",
                                     "battery", "report"))
    ap.add_argument("args", nargs="*", help="verb arguments (report: a file path)")
    return ap


def _merge(cfg: ExperimentConfig, ns: argparse.Namespace) -> ExperimentConfig:
    """A flag sets its knob unless the config file set it; then the file wins."""
    for attr in ("tol", "seed", "count", "dims", "N", "output"):
        flag = getattr(ns, attr)
        if flag is None:
            continue
        current = getattr(cfg, attr)
        if attr not in cfg.file_keys:
            setattr(cfg, attr, flag)
        elif current != flag:
            option = "--level" if attr == "N" else f"--{attr}"
            print(f"warning: {option} {flag} ignored, config file sets "
                  f"{attr}={current}", file=sys.stderr)
    return cfg


def _emit(rep: VerificationReport, output: str) -> int:
    sys.stdout.write(rep.render())
    if output == "table":
        sys.stdout.write(rep.render_table())
    return 0 if rep.passed else 1


def _require(cfg: ExperimentConfig, *fields: str) -> None:
    for name in fields:
        if getattr(cfg, name) is None:
            raise ConfigError(f"this verb needs {name!r} (set it in the config file)")


def cmd_check_model(cfg: ExperimentConfig) -> int:
    _require(cfg, "T1")
    f, T = cfg.f, cfg.T1
    rep = VerificationReport("check-model", environment={"tol": repr(cfg.tol)})
    mem = domain_membership(f, T, tol=cfg.tol)
    rep.add_slack("domain_min_eig", mem.min_eig, cfg.tol)
    rep.add_slack("ellipsoid_min_eig", mem.min_eig_ellipsoid, cfg.tol)
    if mem.in_domain:
        decay = purity_estimate(f, T, 24, tol=cfg.tol)
        rep.add_residual("purity_norm_at_24", decay[-1], 1e-6)
        N = cfg.N if cfg.N is not None else 8
        K = poisson_kernel(f, T, N)
        rep.extend(verify_kernel_identities(K, tol=max(cfg.tol, 1e-9)), prefix="kernel_")
        if cfg.variety:
            variety = build_variety(f, N, cfg.variety)
            ck = constrained_poisson(variety, T)
            rep.extend(verify_constrained_kernel(ck, tol=max(cfg.tol, 1e-9)),
                       prefix="variety_")
    return _emit(rep, cfg.output)


def cmd_dilate(cfg: ExperimentConfig) -> int:
    _require(cfg, "g", "T1", "T2")
    pair = CommutingPair(cfg.f, cfg.g, cfg.T1, cfg.T2)
    variety = (build_variety(cfg.f, cfg.N, cfg.variety)
               if cfg.variety and cfg.N is not None else None)
    dil = ando_dilation(pair, N=cfg.N, variety=variety, tol=cfg.tol)
    return _emit(dil.report, cfg.output)


def cmd_verify(cfg: ExperimentConfig) -> int:
    _require(cfg, "g", "T1", "T2")
    pair = CommutingPair(cfg.f, cfg.g, cfg.T1, cfg.T2)
    dil = ando_dilation(pair, N=cfg.N, tol=cfg.tol)
    rep = verify_inequality(pair, builtin_bipolynomials() + builtin_matrix_polys(),
                            dil, tol=max(cfg.tol, 1e-6))
    rep.extend(verify_hermitian_inequality(pair, builtin_hermitian(), dil,
                                           tol=max(cfg.tol, 1e-6)), prefix="")
    rep.extend(dil.report, prefix="dilation_")
    return _emit(rep, cfg.output)


def cmd_battery(cfg: ExperimentConfig) -> int:
    g = cfg.g if cfg.g is not None else cfg.f
    seeds = [cfg.seed + i for i in range(cfg.count)]
    rep = run_battery(cfg.f, g, seeds, cfg.dims, cfg.kinds,
                      tol=max(cfg.tol, 1e-6))
    return _emit(rep, cfg.output)


def cmd_report(cfg: ExperimentConfig, paths: list[str]) -> int:
    if not paths:
        raise ConfigError("report: need a report file path")
    code = 0
    for path in paths:
        with open(path) as fh:
            rep = parse_report(fh.read())
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if ns.verb == "check-model":
            return cmd_check_model(cfg)
        if ns.verb == "dilate":
            return cmd_dilate(cfg)
        if ns.verb == "verify":
            return cmd_verify(cfg)
        if ns.verb == "battery":
            return cmd_battery(cfg)
        return cmd_report(cfg, ns.args)
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
