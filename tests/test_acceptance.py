"""Acceptance gate: the ten primary criteria, one printed verdict line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the verdict lines
as they are produced; each test also asserts its criterion.
"""

import time
from math import comb

import numpy as np

from ncdomains import (IntertwiningTriple, OperatorTuple, RegularPolynomial,
                       apply_phi, b_coefficients, build_isometry, build_variety,
                       commutator_generators, complete_to_unitary,
                       constrained_poisson, domain_membership, eval_transfer,
                       minpoly_generator, poisson_kernel,
                       phi_identity_power, series_oracle,
                       verify_kernel_identities, weighted_creation)
from ncdomains.harness import (ando_dilation, builtin_bipolynomials,
                               builtin_hermitian, builtin_matrix_polys,
                               grid_sup_norm, random_commuting_pair, run_battery,
                               scale_into_domain)
from ncdomains.transfer import (contraction_excess, defect_identity_residual,
                                dilation_identity_report,
                                fourier_roundtrip_residual)
from ncdomains.words import enumerate_words, fock_size

from conftest import commutant_lifting, compression_residual, kappa_eval, level_dimensions


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def f_battery():
    return [
        RegularPolynomial.single_variable([1.0]),
        RegularPolynomial.single_variable([2.0]),
        RegularPolynomial.single_variable([1.0, 1.0]),
        RegularPolynomial(2, {(1,): 1.0, (2,): 1.0}),
        RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}),
    ]


Z = RegularPolynomial.single_variable([1.0])


def nilpotent_tuple(seed: int, n: int, dim: int, f=None, target=0.9):
    rng = np.random.default_rng(seed)
    mats = tuple(np.triu(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)), 1)
                 for _ in range(n))
    f = f if f is not None else RegularPolynomial(n, {(i,): 1.0 for i in range(1, n + 1)})
    return scale_into_domain(f, OperatorTuple(mats), target)


def nilpotent_triple(seed: int, dim: int, f, g=Z):
    """T1 over the letters of f (powers of one nilpotent), T2 a polynomial of it."""
    rng = np.random.default_rng(seed)
    nil = np.triu(rng.standard_normal((dim, dim))
                  + 1j * rng.standard_normal((dim, dim)), 1)
    mats = [nil]
    for _ in range(1, f.n):
        c = rng.standard_normal(2)
        mats.append(c[0] * nil + c[1] * nil @ nil)
    T1 = scale_into_domain(f, OperatorTuple(tuple(mats)), 0.9)
    c = rng.standard_normal(2)
    t2 = c[0] * T1.mats[0] + c[1] * T1.mats[0] @ T1.mats[0]
    T2 = scale_into_domain(g, OperatorTuple((t2,)), 0.9)
    return IntertwiningTriple(f, g, T1, T1, T2)


# ---------------------------------------------------------------------------

def test_criterion_1_b_coefficient_oracle():
    def oracle(f, w):
        """Sum over ordered factorizations with coefficient products."""
        if len(w) == 0:
            return 1.0
        total = 0.0
        for m in range(1, min(f.degree, len(w)) + 1):
            a = f.coeffs.get(w[:m], 0.0)
            if a:
                total += a * oracle(f, w[m:])
        return total

    t0 = time.time()
    worst = 0.0
    polys = f_battery() + [RegularPolynomial(3, {(i,): 1.0 for i in (1, 2, 3)})]
    for f in polys:
        for w, b in zip(enumerate_words(f.n, 6).words, b_coefficients(f, 6), strict=True):
            worst = max(worst, abs(b - oracle(f, w)))
    fib = b_coefficients(RegularPolynomial.single_variable([1.0, 1.0]), 6)
    fib_ok = list(fib) == [1, 1, 2, 3, 5, 8, 13]
    elapsed = time.time() - t0
    verdict("criterion-1", worst <= 1e-12 and fib_ok and elapsed <= 1.0,
            f"max deviation {worst:.2e}, fibonacci {'ok' if fib_ok else 'BAD'}, "
            f"{elapsed:.2f}s")


def test_criterion_2_vacuum_projection():
    t0 = time.time()
    worst = 0.0
    N = 8
    for f in f_battery():
        W = OperatorTuple(tuple(s.dense(np.ones((1, 1)))
                                for s in weighted_creation(f, N)))
        size = W.rows
        gap = np.eye(size, dtype=complex) - apply_phi(f, W)
        proj = np.zeros((size, size), dtype=complex)
        proj[0, 0] = 1.0
        top = fock_size(f.n, N - f.degree)
        worst = max(worst, float(np.linalg.norm((gap - proj)[:top, :top], 2)))
    elapsed = time.time() - t0
    verdict("criterion-2", worst <= 1e-10 and elapsed <= 10.0,
            f"max residual {worst:.2e} at N={N}, {elapsed:.2f}s")


def test_criterion_3_poisson_kernel():
    worst = 0.0
    for seed in range(20):
        n = 1 + seed % 3
        dim = 3 + seed % 3  # dims 3..5
        f = RegularPolynomial(n, {(i,): 1.0 for i in range(1, n + 1)})
        T = nilpotent_tuple(seed, n, dim, f)
        K = poisson_kernel(f, T, N=dim)
        gram = float(np.linalg.norm(K.matrix.conj().T @ K.matrix - np.eye(dim), 2))
        rep = verify_kernel_identities(K, tol=1e-9)
        inter = max(c.value for c in rep.checks if c.name.startswith("intertwine"))
        worst = max(worst, gram, inter)
    # scalar strict contractions: Gram defect bounded by the kernel tail
    scalar_ok = True
    for r in (0.2, 0.5, 0.8, 0.95):
        T = OperatorTuple((np.array([[r]]),))
        for N in (3, 6, 10):
            K = poisson_kernel(Z, T, N)
            gram = abs(float((K.matrix.conj().T @ K.matrix).real[0, 0]) - 1.0)
            tail = float(np.linalg.norm(phi_identity_power(Z, T, N + 1), 2))
            scalar_ok = scalar_ok and gram <= tail + 1e-12
    verdict("criterion-3", worst <= 1e-9 and scalar_ok,
            f"20 nilpotent tuples worst residual {worst:.2e}, "
            f"scalar tail bound {'ok' if scalar_ok else 'BAD'}")


def _fifty_triples():
    fz2 = RegularPolynomial.single_variable([1.0, 1.0])
    f2 = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    for seed in range(50):
        f = (Z, fz2, f2)[seed % 3]
        yield seed, nilpotent_triple(seed, 3 + seed % 3, f)


def test_criterion_4_colligation():
    worst_u = worst_p = worst_tp = 0.0
    for seed, tr in _fifty_triples():
        col = complete_to_unitary(build_isometry(tr))
        worst_u = max(worst_u, col.unitarity_residual)
        worst_p = max(worst_p, col.prescribed_residual)
        if seed % 5 == 0:  # two-path word expansion on a subset (it is O(m1^p))
            rep = series_oracle(col, p_max=3)
            worst_tp = max(worst_tp, max(c.value for c in rep.checks
                                         if c.name.startswith("two_path")))
    verdict("criterion-4",
            worst_u <= 1e-10 and worst_p <= 1e-10 and worst_tp <= 1e-10,
            f"50 triples: unitarity {worst_u:.2e}, prescribed {worst_p:.2e}, "
            f"two-path {worst_tp:.2e}")


def test_criterion_5_dilation_identity_and_lifting():
    worst = 0.0
    for seed in (0, 3, 6, 9, 12):
        tr = nilpotent_triple(seed, 4, Z)
        col = complete_to_unitary(build_isometry(tr))
        N = 5  # above the nilpotency order: every series terminates
        tf = eval_transfer(col, N)
        K1 = poisson_kernel(tr.f, tr.T1, N)
        rep = dilation_identity_report(tf, K1, K1, tol=1e-7)
        worst = max(worst, max(c.value for c in rep.checks))
    # commutant lifting: the lifted operator has the norm of the intertwiner
    lift_worst = 0.0
    for seed in (1, 4, 7):
        T1 = nilpotent_tuple(seed, 1, 4, Z)
        rng = np.random.default_rng(100 + seed)
        c = rng.standard_normal(3)
        A = c[0] * np.eye(4) + c[1] * T1.mats[0] + c[2] * T1.mats[0] @ T1.mats[0]
        rep = commutant_lifting(Z, T1, T1, A)
        lift_worst = max(lift_worst, abs(float(rep.environment["lift_norm"]) - 1.0))
        assert rep.passed, rep.render()
    verdict("criterion-5", worst <= 1e-7 and lift_worst <= 1e-8,
            f"dilation identity {worst:.2e}, lift-norm deviation {lift_worst:.2e}")


def test_criterion_6_schur_roundtrip():
    worst_rt = worst_sigma = worst_defect = 0.0
    for seed, tr in _fifty_triples():
        col = complete_to_unitary(build_isometry(tr))
        N = 6 if tr.f.n == 1 else 5
        tf = eval_transfer(col, N)
        worst_sigma = max(worst_sigma, contraction_excess(tf))
        m = 2
        for w in tf.block_words:
            worst_rt = max(worst_rt, fourier_roundtrip_residual(tf, w, m))
        if seed % 5 == 0:
            worst_defect = max(worst_defect, defect_identity_residual(tf))
    verdict("criterion-6",
            worst_rt <= 1e-8 and worst_sigma <= 1e-8 and worst_defect <= 1e-8,
            f"50 colligations: roundtrip {worst_rt:.2e}, sigma excess "
            f"{worst_sigma:.2e}, defect identity {worst_defect:.2e}")


def test_criterion_7_inequality_battery():
    t0 = time.time()
    kinds = ("jointly-nilpotent", "polynomial-of-single",
             "upper-triangular-commuting")
    polys = builtin_bipolynomials() + builtin_matrix_polys()
    herm = builtin_hermitian()
    min_slack = np.inf
    worst_comp = 0.0
    worst_grid = -np.inf
    for seed in range(100):
        kind = kinds[seed % 3]
        dim = 2 + seed % 5  # dims 2..6
        pair = random_commuting_pair(seed, dim, kind, Z, Z)
        dil = ando_dilation(pair)
        dil_sw = ando_dilation(pair.swapped())
        for p in polys:
            lhs = float(np.linalg.norm(p.eval(pair.T1, pair.T2), 2))
            rhs = min(float(np.linalg.norm(p.eval(dil.left, dil.right), 2)),
                      float(np.linalg.norm(p.eval(dil_sw.right, dil_sw.left), 2)))
            min_slack = min(min_slack, rhs - lhs)
            if seed % 10 == 0:  # the torus bound, on a tenth of the pairs
                sup = grid_sup_norm(p, 512)
                worst_grid = max(worst_grid, rhs - (sup + 2e-2))
        for q in herm:
            lhs = float(np.linalg.eigvalsh(q.eval(pair.T1, pair.T2)).max())
            rhs = float(np.linalg.eigvalsh(q.eval(dil.left, dil.right)).max())
            min_slack = min(min_slack, rhs - lhs)
        if kind == "jointly-nilpotent":
            worst_comp = max(worst_comp, max(compression_residual(dil, p)
                                             for p in builtin_bipolynomials()))
    elapsed = time.time() - t0
    verdict("criterion-7",
            min_slack >= -1e-6 and worst_comp <= 1e-7 and worst_grid <= 0.0
            and elapsed <= 300.0,
            f"100 pairs: min slack {min_slack:.2e}, nilpotent compression "
            f"{worst_comp:.2e}, torus-bound excess {worst_grid:.2e}, {elapsed:.1f}s")


def test_criterion_8_variety_structure():
    # symmetric-model graded dimensions
    sym_ok = True
    for n, N in ((2, 6), (3, 6)):
        f = RegularPolynomial(n, {(i,): 1.0 for i in range(1, n + 1)})
        v = build_variety(f, N, commutator_generators(n))
        dims = level_dimensions(v)
        sym_ok = sym_ok and all(dims[m] == comb(n + m - 1, m) for m in range(7)[:N + 1])
    # annihilating-polynomial model space: dimension = degree, stable in N
    roots = [0.25, -0.2 + 0.15j, 0.1j, -0.3]
    gen = minpoly_generator(roots)
    dims = [build_variety(Z, N, [gen]).dim for N in (10, 11)]
    dim_ok = dims == [len(roots), len(roots)]
    # constrained-kernel Gram identity
    T = OperatorTuple((np.diag(roots).astype(complex),))
    v = build_variety(Z, 14, [gen])
    kj = constrained_poisson(v, poisson_kernel(Z, T, 14))
    gram = float(np.linalg.norm(
        kj.conj().T @ kj
        - (np.eye(4) - phi_identity_power(Z, T, 15)), 2))
    # ellipsoid eigenvalue of the dilated second tuple, plain and constrained
    pair = random_commuting_pair(17, 3, "upper-triangular-commuting", Z, Z)
    dil = ando_dilation(pair)
    dil_c = ando_dilation(pair, N=dil.N,
                          variety=[minpoly_generator(list(np.linalg.eigvals(pair.T1.mats[0])))])
    eig_min = min(domain_membership(Z, dil.right).min_eig_ellipsoid,
                  domain_membership(Z, dil_c.right).min_eig_ellipsoid)
    verdict("criterion-8",
            sym_ok and dim_ok and gram <= 1e-9 and eig_min >= -1e-9,
            f"symmetric dims {'ok' if sym_ok else 'BAD'}, model dims {dims}, "
            f"constrained Gram {gram:.2e}, ellipsoid min eig {eig_min:.2e}")


def test_criterion_9_kappa_cross_check():
    rng = np.random.default_rng(2024)
    ok = True
    worst_ratio = 0.0
    for i in range(20):
        f = f_battery()[i % 5]
        # moderate-radius points, rescaled until strictly inside the domain
        mu = list((rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)))
        lam = list((rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)))
        scale = 0.7 / max(max(abs(x) for x in mu), max(abs(x) for x in lam))
        mu = [scale * x for x in mu]
        lam = [scale * x for x in lam]
        m_top = 20 if f.n == 1 else 12
        closed, partial, tail = kappa_eval(f, mu, lam, m_top)
        err = abs(closed - partial)
        ok = ok and err <= max(tail, 1e-13)
        worst_ratio = max(worst_ratio, err / max(tail, 1e-13))
    verdict("criterion-9", ok,
            f"20 point pairs: worst error/tail ratio {worst_ratio:.3f}")


def test_criterion_10_determinism():
    a = run_battery(Z, Z, seeds=[5, 6, 7], dims=[3, 4], kinds=None, tol=1e-6).render()
    b = run_battery(Z, Z, seeds=[5, 6, 7], dims=[3, 4], kinds=None, tol=1e-6).render()
    verdict("criterion-10", a == b and len(a) > 0,
            f"repeated battery renders byte-identical ({len(a)} bytes)")
