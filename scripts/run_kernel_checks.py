#!/usr/bin/env python3
"""Kernel identity sweep over random strict contractions.

For each seed, draw a tuple inside the domain of the chosen polynomial,
build its kernel at the given truncation, and print the isometry and
intertwining residuals together with the truncation tail.

Example:
    python3 scripts/run_kernel_checks.py --poly z+z2 --seeds 10 --level 10
"""

import argparse

import numpy as np

from ncdomains import (OperatorTuple, RegularPolynomial, poisson_kernel,
                       verify_kernel_identities)
from ncdomains.domain import phi_identity_power
from ncdomains.harness import scale_into_domain

POLYS = {
    "z": RegularPolynomial.single_variable([1.0]),
    "2z": RegularPolynomial.single_variable([2.0]),
    "z+z2": RegularPolynomial.single_variable([1.0, 1.0]),
    "z1+z2": RegularPolynomial(2, {(1,): 1.0, (2,): 1.0}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--poly", choices=sorted(POLYS), default="z")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--level", type=int, default=10, help="truncation level N")
    ap.add_argument("--radius", type=float, default=0.6,
                    help="target ellipsoid norm of the scaled tuple")
    args = ap.parse_args(argv)

    f = POLYS[args.poly]
    ok = True
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        mats = tuple(rng.standard_normal((args.dim, args.dim))
                     + 1j * rng.standard_normal((args.dim, args.dim))
                     for _ in range(f.n))
        T = scale_into_domain(f, OperatorTuple(mats), args.radius)
        K = poisson_kernel(f, T, args.level)
        rep = verify_kernel_identities(K)
        gram = float(np.linalg.norm(
            K.matrix.conj().T @ K.matrix - np.eye(args.dim), 2))
        # word-length tail of the kernel: dominated by this Phi iterate
        tail = float(np.linalg.norm(
            phi_identity_power(f, T, args.level // f.degree + 1), 2))
        worst = max(c.value for c in rep.checks
                    if c.name.startswith("intertwine"))
        ok = ok and rep.passed and gram <= tail + 1e-12
        print(f"seed={seed} intertwine={worst:.3e} gram_gap={gram:.3e} "
              f"tail={tail:.3e} {'ok' if rep.passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
