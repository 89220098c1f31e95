"""One repeat of one benchmark workload, in a fresh Python process.

Usage (normally started by ``bench/run.py``, which sets PYTHONPATH to the
checkout's ``src`` and pins the BLAS thread count):

    python3 bench/worker.py <workload> <seed> --spawned-at <t> --workdir <dir>
        [--setup-only] [--trace-out <spans.jsonl>]

The process generates the workload's inputs from the seed, writes the input
files, validates the inputs, and then runs the timed section.  It prints one
JSON object as the last line of its standard output:

* ``setup_s``: from ``--spawned-at`` (the parent's ``time.monotonic()`` just
  before it started this process) until the inputs were ready;
* ``wall_s``: the timed section;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``units``: ``[name, rendered report, exit code]`` per verification unit;
* ``sizes``: problem sizes read from the inputs and the reports;
* ``trace``: the tracer's summary when ``--trace-out`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import ncdomains.cli as cli
import ncdomains.colligation as colligation
import ncdomains.config as config
import ncdomains.domain as domain
import ncdomains.harness as harness
import ncdomains.matio as matio
import ncdomains.poisson as poisson
import ncdomains.report as report
import ncdomains.transfer as transfer
import ncdomains.variety as variety
from ncdomains.domain import OperatorTuple, RegularPolynomial

from tracer import Tracer, fock_size

Z = RegularPolynomial.single_variable([1.0])
# the entrywise-commutation threshold of CommutingPair and the generator
# annihilation tolerance of constrained_poisson
COMMUTE_TOL = 1e-8
ANNIHILATE_TOL = 1e-8


class InputError(ValueError):
    """A generated input failed validation."""


def _strict_upper(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.triu(rng.standard_normal((dim, dim))
                   + 1j * rng.standard_normal((dim, dim)), 1)


def _poly_tuple(rng: np.random.Generator, nil: np.ndarray, count: int) -> list[np.ndarray]:
    """nil followed by count - 1 random polynomials c0 nil + c1 nil^2."""
    mats = [nil]
    for _ in range(count - 1):
        c = rng.standard_normal(2)
        mats.append(c[0] * nil + c[1] * nil @ nil)
    return mats


def nilpotent_inputs(rng: np.random.Generator, f: RegularPolynomial,
                     dim: int) -> tuple[OperatorTuple, OperatorTuple]:
    """T1 (f.n powers-of-one-nilpotent matrices) and a commuting single T2."""
    T1 = harness.scale_into_domain(
        f, OperatorTuple(tuple(_poly_tuple(rng, _strict_upper(rng, dim), f.n))), 0.9)
    c = rng.standard_normal(2)
    t2 = c[0] * T1.mats[0] + c[1] * T1.mats[0] @ T1.mats[0]
    T2 = harness.scale_into_domain(Z, OperatorTuple((t2,)), 0.9)
    return T1, T2


def require_member(f: RegularPolynomial, T: OperatorTuple, what: str) -> None:
    mem = domain.domain_membership(f, T)
    if not mem.in_domain:
        raise InputError(f"{what} is not in the domain (min eig {mem.min_eig:.3e})")


def require_commuting(T1: OperatorTuple, T2: OperatorTuple, what: str) -> None:
    res = harness.cross_commutation_residual(T1, T2)
    if res > COMMUTE_TOL:
        raise InputError(f"{what} do not commute entrywise (residual {res:.3e})")


def run_cli(argv: list[str]) -> tuple[str, int]:
    """Run the command line in-process, the way `ncdomains <argv>` runs."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


# ---------------------------------------------------------------------------
# battery: `ncdomains battery` on the f = g = z baseline
# ---------------------------------------------------------------------------

BATTERY_COUNT = 6
BATTERY_DIMS = (3, 4, 5)


def battery_prepare(seed: int, workdir: str) -> tuple[list[str], dict]:
    truncations = []
    for idx in range(BATTERY_COUNT):
        kind = harness.PAIR_KINDS[idx % len(harness.PAIR_KINDS)]
        dim = BATTERY_DIMS[idx % len(BATTERY_DIMS)]
        pair = harness.random_commuting_pair(seed + idx, dim, kind, Z, Z)
        require_member(Z, pair.T1, f"pair {idx} T1")
        require_member(Z, pair.T2, f"pair {idx} T2")
        require_commuting(pair.T1, pair.T2, f"pair {idx}")
        truncations.append([harness.choose_truncation(Z, pair.T1),
                            harness.choose_truncation(Z, pair.T2)])
    argv = ["battery", "--count", str(BATTERY_COUNT), "--seed", str(seed),
            "--dims", *map(str, BATTERY_DIMS)]
    sizes = {"n": 1, "pairs": BATTERY_COUNT, "dims": list(BATTERY_DIMS),
             "N_per_pair": truncations,
             "fock_max": max(max(t) for t in truncations) + 1}
    return argv, sizes


def battery_run(argv: list[str], tracer: Tracer | None) -> tuple[list, dict]:
    text, code = run_cli(argv)
    return [["battery", text, code]], {}


# ---------------------------------------------------------------------------
# twovar: two-variable dilation, colligations and transfer check families
# ---------------------------------------------------------------------------

TWOVAR_DIM = 4
TWOVAR_N = 6
TWOVAR_TRIPLES = 2
F_PAIR = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
F_TRIPLE = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
# tolerances already used for these residuals by ando_dilation (1e-7) and
# acceptance criterion 6 (1e-8)
TOL_DILATION = 1e-7
TOL_SCHUR = 1e-8


def twovar_prepare(seed: int, workdir: str) -> tuple[dict, dict]:
    T1, T2 = nilpotent_inputs(np.random.default_rng([seed, 0]), F_PAIR, TWOVAR_DIM)
    require_member(F_PAIR, T1, "pair T1")
    require_member(Z, T2, "pair T2")
    require_commuting(T1, T2, "pair")
    pair = harness.CommutingPair(F_PAIR, Z, T1, T2, kind="nilpotent", seed=seed)
    triples = []
    for k in range(TWOVAR_TRIPLES):
        T1, T2 = nilpotent_inputs(np.random.default_rng([seed, k + 1]),
                                  F_TRIPLE, TWOVAR_DIM)
        require_member(F_TRIPLE, T1, f"triple {k} T1")
        require_member(Z, T2, f"triple {k} T2")
        require_commuting(T1, T2, f"triple {k}")
        triples.append(colligation.IntertwiningTriple(F_TRIPLE, Z, T1, T1, T2))
    sizes = {"n": 2, "N": TWOVAR_N, "dim": TWOVAR_DIM,
             "fock": fock_size(2, TWOVAR_N)}
    return {"pair": pair, "triples": triples}, sizes


def twovar_triple_report(triple, name: str, sizes: dict) -> report.VerificationReport:
    col = colligation.complete_to_unitary(colligation.build_isometry(triple))
    rep = report.VerificationReport(name, environment={"N": str(TWOVAR_N)})
    rep.extend(colligation.series_oracle(col, p_max=3), prefix="series_")
    tf = transfer.eval_transfer(col, TWOVAR_N)
    for w in tf.block_words:
        tag = "".join(map(str, w))
        rep.add_residual(f"fourier_roundtrip_g{tag}",
                         transfer.fourier_roundtrip_residual(tf, w, 2), TOL_SCHUR)
        rep.add_residual(f"multi_analytic_g{tag}",
                         transfer.multi_analytic_residual(tf, w), TOL_DILATION)
    rep.add_residual("defect_identity", transfer.defect_identity_residual(tf), TOL_SCHUR)
    rep.add_residual("contraction_excess", transfer.contraction_excess(tf), TOL_SCHUR)
    K1 = poisson.poisson_kernel(triple.f, triple.T1, TWOVAR_N)
    rep.extend(transfer.dilation_identity_report(tf, K1, K1, tol=TOL_DILATION),
               prefix="dilation_")
    sizes[name] = {"r_out": tf.r_out, "r_in": tf.r_in, "w": col.slot_dim,
                   "fock_w": tf.fock_size * col.slot_dim, **col.dims}
    return rep


def twovar_run(inputs: dict, tracer: Tracer | None) -> tuple[list, dict]:
    units, sizes = [], {}
    dil = harness.ando_dilation(inputs["pair"], N=TWOVAR_N)
    units.append(["ando", dil.report.render(), 0])
    sizes["ando"] = {"r": dil.multiplicity, "fock_r": dil.right.dim}
    for k, triple in enumerate(inputs["triples"]):
        if tracer is not None:
            tracer.unit = k + 1
        name = f"triple{k}"
        units.append([name, twovar_triple_report(triple, name, sizes).render(), 0])
    return units, sizes


# ---------------------------------------------------------------------------
# variety: `ncdomains --config <file> check-model` with the commutator ideal
# ---------------------------------------------------------------------------

VARIETY_DIM = 4
VARIETY_N = 6
F_VARIETY = RegularPolynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0})


def variety_prepare(seed: int, workdir: str) -> tuple[list[str], dict]:
    rng = np.random.default_rng([seed, 0])
    T1 = harness.scale_into_domain(
        F_VARIETY, OperatorTuple(tuple(_poly_tuple(rng, _strict_upper(rng, VARIETY_DIM),
                                                   F_VARIETY.n))), 0.9)
    names = []
    for i, m in enumerate(T1.mats, start=1):
        names.append(f"t1_{i}.txt")
        with open(os.path.join(workdir, names[-1]), "w") as fh:
            fh.write(matio.dump_matrix(m))
    cfg = {"f": {"n": F_VARIETY.n,
                 "coeffs": {config.word_key(w): a for w, a in F_VARIETY.coeffs.items()}},
           "N": VARIETY_N,
           "matrices": {"T1": names},
           "variety": {"kind": "commutator"}}
    path = os.path.join(workdir, "variety.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)

    parsed = config.ExperimentConfig.from_file(path).T1
    if any(not np.array_equal(a, b) for a, b in zip(parsed.mats, T1.mats)):
        raise InputError("matrix files do not parse back bit-exactly")
    require_member(F_VARIETY, parsed, "T1")
    require_commuting(parsed, parsed, "T1 entries")
    for q in variety.commutator_generators(F_VARIETY.n):
        res = float(np.linalg.norm(variety.eval_generator(q, parsed), 2))
        if res > ANNIHILATE_TOL:
            raise InputError(f"a commutator generator does not annihilate T1 ({res:.3e})")
    sizes = {"n": F_VARIETY.n, "N": VARIETY_N, "dim": VARIETY_DIM,
             "fock": fock_size(F_VARIETY.n, VARIETY_N)}
    return ["--config", path, "check-model"], sizes


def variety_run(argv: list[str], tracer: Tracer | None) -> tuple[list, dict]:
    text, code = run_cli(argv)
    return [["check-model", text, code]], {}


WORKLOADS = {
    "battery": (battery_prepare, battery_run),
    "twovar": (twovar_prepare, twovar_run),
    "variety": (variety_prepare, variety_run),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ns = ap.parse_args()
    prepare, run = WORKLOADS[ns.workload]
    out = {"setup_s": None, "wall_s": None, "peak_rss_mb": None, "units": [],
           "sizes": {}, "trace": None, "error": None}
    try:
        inputs, out["sizes"] = prepare(ns.seed, ns.workdir)
    except Exception as exc:  # reported to the parent, which fails the gate
        traceback.print_exc()
        out["error"] = f"setup: {type(exc).__name__}: {exc}"
        print(json.dumps(out))
        return 1
    out["setup_s"] = time.monotonic() - ns.spawned_at
    if not ns.setup_only:
        tracer = None
        if ns.trace_out:
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            units, sizes = run(inputs, tracer)
            out["units"] = units
            out["sizes"].update(sizes)
        except Exception as exc:  # counted against every expected check
            traceback.print_exc()
            out["error"] = f"run: {type(exc).__name__}: {exc}"
        out["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            out["trace"] = tracer.summary(out["wall_s"])
            tracer.write_spans(ns.trace_out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
