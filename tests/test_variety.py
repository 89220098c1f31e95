import tracemalloc
from math import comb

import numpy as np
import pytest

from ncdomains import (OperatorTuple, RegularPolynomial, build_variety,
                       commutator_generators, constrained_poisson, enumerate_words,
                       minpoly_generator, poisson_kernel,
                       verify_constrained_kernel, weighted_creation)
from ncdomains.domain import kron_identity_matmul
from ncdomains.variety import (VarietyModel, _span_complement, _split_span,
                               generator_degree)

from conftest import (dense_compression, dense_creation, f_battery, kappa_eval,
                      level_dimensions)


def drury_poly(n: int) -> RegularPolynomial:
    return RegularPolynomial(n, {(i,): 1.0 for i in range(1, n + 1)})


def assert_left_matches_dense(v: VarietyModel) -> None:
    for got, want in zip(v.left.mats, dense_compression(v, "left").mats, strict=True):
        assert got.shape == (v.dim, v.dim)
        assert np.linalg.norm(got - want, 2) <= 1e-14 * max(1.0, np.linalg.norm(want, 2))


def test_symmetric_fock_dimensions():
    """The graded build is exact up to the top level: C(n+m-1, m) for m = 0..N."""
    weighted = RegularPolynomial(2, {(1,): 0.5, (2,): 2.0})
    for f, N in ((drury_poly(2), 6), (drury_poly(3), 5), (weighted, 6), (drury_poly(3), 7)):
        v = build_variety(f, N, commutator_generators(f.n))
        assert level_dimensions(v) == [comb(f.n + m - 1, m) for m in range(N + 1)]


def test_graded_build_matches_span_oracle():
    """The level-by-level basis spans the model space of one SVD of the whole span,
    and its level-local B_i are the dense compressions P W_i P."""
    mixed = {(1, 1): 1.0, (1, 2): 0.5 - 0.2j, (2, 1): -0.3, (2, 2): 0.25j}
    cases = [(f, 5, gens) for f in f_battery() if f.n > 1
             for gens in (commutator_generators(f.n), [mixed])]
    cases += [(drury_poly(3), 4, commutator_generators(3))]
    # homogeneous generators of degrees 2 and 3
    cubic = {(1, 1, 2): 1.0, (2, 1, 1): -0.5j, (2, 2, 2): 0.3}
    cases += [(f, 5, commutator_generators(2) + [cubic]) for f in f_battery() if f.n > 1]
    # weights that vary within each level (deg f = 2), redundant generators
    varying = RegularPolynomial(2, {(1,): 0.5, (2,): 2.0, (1, 2): 0.7, (2, 2): 0.2})
    cases += [(varying, 5, commutator_generators(2) * 2 + [mixed])]
    varying3 = RegularPolynomial(3, {(1,): 0.5, (2,): 1.0, (3,): 2.0, (1, 3): 0.4, (2, 2): 0.3})
    cases += [(varying3, 5, commutator_generators(3))]
    # the complement is empty from level 3 on: C[z1, z2] / (z1^2, z2^2)
    squares = commutator_generators(2) + [{(1, 1): 1.0}, {(2, 2): 1.0}]
    cases += [(f, 5, squares) for f in f_battery() if f.n > 1]
    cases += [(f, 8, [{(1,) * k: 1.0}]) for f in f_battery() if f.n == 1 for k in (1, 2, 3)]
    for f, N, gens in cases:
        v = build_variety(f, N, gens)
        live = [(q, generator_degree(q)) for q in gens]
        oracle, _ = _span_complement(enumerate_words(f.n, N), weighted_creation(f, N), live)
        assert v.dim == oracle.shape[1]
        assert np.linalg.norm(v.basis.conj().T @ v.basis - np.eye(v.dim), 2) <= 1e-12
        proj_gap = v.basis @ v.basis.conj().T - oracle @ oracle.conj().T
        assert np.linalg.norm(proj_gap, 2) <= 1e-12
        assert_left_matches_dense(v)


def test_split_span_matches_full_svd():
    """The complement of a wide block, taken from the R* of qr(block^*), and of a tall
    one projects as the complement from a full SVD of the block, with the same rank:
    random complex blocks of lower rank and of scales 1e-3 to 1e3, and empty ones."""
    rng = np.random.default_rng(11)
    for rows, cols in ((0, 4), (4, 0), (0, 0), (5, 12), (12, 5), (9, 9), (30, 200), (63, 243)):
        for rank in sorted({0, min(rows, cols) // 2, max(min(rows, cols) - 1, 0)}):
            left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
            right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
            block = 10.0 ** rng.uniform(-3, 3) * left @ right
            got = _split_span(block)
            u_m, s, _ = np.linalg.svd(block)
            want = u_m[:, int(np.sum(s > 1e-9 * (s[0] if s.size else 0.0))):]
            assert got.shape == want.shape == (rows, rows - rank)
            assert np.linalg.norm(got.conj().T @ got - np.eye(got.shape[1])) <= 1e-12
            gap = got @ got.conj().T - want @ want.conj().T
            assert not gap.size or np.linalg.norm(gap, 2) <= 1e-12


def test_span_model_compressions_match_dense_oracle():
    """Generators of mixed degrees take the whole-span build; its basis mixes
    the levels, and its B_i summed level by level are the dense compressions."""
    z = RegularPolynomial.single_variable([1.0])
    mixed_degree = {(1, 2): 1.0, (2, 1): -1.0, (3,): 0.5}
    for f, N, gens in ((z, 8, [minpoly_generator([0.2, -0.3 + 0.2j, 0.1j])]),
                       (RegularPolynomial.single_variable([1.0, 1.0]), 7,
                        [minpoly_generator([0.3, 0.25j])]),
                       (drury_poly(3), 4, [mixed_degree])):
        assert_left_matches_dense(build_variety(f, N, gens))


def symmetric_level_basis(n: int, m: int) -> np.ndarray:
    """Normalized symmetrized monomials: column alpha is the sum of e_w over the
    words w of length m with letter counts alpha, divided by its norm."""
    table = enumerate_words(n, m)
    words = table.words[table.level_slice(m)]
    classes: dict[tuple[int, ...], int] = {}
    label = [classes.setdefault(tuple(sorted(w)), len(classes)) for w in words]
    out = np.zeros((len(words), len(classes)))
    out[np.arange(len(words)), label] = 1.0
    return out / np.sqrt(out.sum(axis=0))


def test_commutator_model_is_the_symmetric_fock_space():
    """Closed-form oracle: for f = z1 + ... + zn every weight is 1, and the model
    of the commutator ideal is the symmetric Fock space at every level.  With
    equal dimensions, ||Q Q^* - S S^*||_2 = ||Q - S S^* Q||_2 for orthonormal Q, S,
    so the level projectors are compared without a Fock^2 matrix."""
    for n, N in ((3, 7), (2, 8)):
        v = build_variety(drury_poly(n), N, commutator_generators(n))
        table = enumerate_words(n, N)
        for m in range(N + 1):
            q = v.basis[table.level_slice(m)]
            q = q[:, np.linalg.norm(q, axis=0) > 0]
            s = symmetric_level_basis(n, m)
            assert q.shape[1] == s.shape[1] == comb(n + m - 1, m)
            assert np.linalg.norm(q - s @ (s.T @ q), 2) <= 1e-12


def test_commutator_build_peak_memory():
    """The level-local build at (n, N) = (3, 7), Fock 3,280 and model dimension
    120, peaks below 10 MB (9.0 MB measured): no Fock-row generator block, no dense
    compression, and a frame from per-letter QRs with no candidate block beside it."""
    f = drury_poly(3)
    build_variety(f, 7, commutator_generators(3))  # warm the word table and weights
    tracemalloc.start()
    try:
        build_variety(f, 7, commutator_generators(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_trivial_variety_is_full_fock():
    v = build_variety(drury_poly(2), 3, [])
    assert v.dim == v.basis.shape[0]
    W = v.left
    W0 = dense_creation(drury_poly(2), 3)
    assert all(np.linalg.norm(a - b) <= 1e-14 for a, b in zip(W.mats, W0.mats))


def test_minpoly_model_dimension_and_stability():
    z = RegularPolynomial.single_variable([1.0])
    roots = [0.2, -0.3 + 0.2j, 0.1j, 0.25]
    gen = minpoly_generator(roots)
    dims = []
    for N in (8, 9, 10):
        v = build_variety(z, N, [gen])
        dims.append(v.dim)
    assert dims == [len(roots)] * 3


def test_minpoly_generator_coefficients():
    gen = minpoly_generator([0.5])
    assert gen[(1,)] == 1.0 and gen[()] == -0.5
    assert generator_degree(gen) == 1


def test_constrained_poisson_reuses_caller_kernel():
    """The kernel passed in is projected as (P (x) I) K; one built from another
    N or f is refused."""
    z = RegularPolynomial.single_variable([1.0])
    roots = [0.3, -0.2 + 0.1j]
    T = OperatorTuple((np.diag(roots).astype(complex),))
    v = build_variety(z, 8, [minpoly_generator(roots)])
    K = poisson_kernel(z, T, 8)
    ck = constrained_poisson(v, K)
    dense = np.kron(v.basis.conj().T, np.eye(K.multiplicity)) @ K.matrix
    assert ck.base is K and np.linalg.norm(ck.matrix - dense, 2) <= 1e-14
    # conj((basis^T (x) I) conj(K)) is (basis^* (x) I) K with the conjugated basis, bitwise
    nil = np.triu(np.arange(1.0, 17.0).reshape(4, 4) * (1 + 0.5j), 1) / 40
    T3 = OperatorTuple((nil, 0.5 * nil @ nil, nil - nil @ nil))
    for model, base in ((v, K), (build_variety(drury_poly(3), 6, commutator_generators(3)),
                                 poisson_kernel(drury_poly(3), T3, 6))):
        assert np.array_equal(constrained_poisson(model, base).matrix,
                              kron_identity_matmul(model.basis.conj().T, base.matrix))
    with pytest.raises(ValueError):
        constrained_poisson(v, poisson_kernel(z, T, 7))
    with pytest.raises(ValueError):
        constrained_poisson(v, poisson_kernel(RegularPolynomial.single_variable([0.5]), T, 8))


def test_generator_annihilation_enforced():
    z = RegularPolynomial.single_variable([1.0])
    v = build_variety(z, 6, [minpoly_generator([0.5])])
    bad = OperatorTuple((np.array([[0.3]]),))
    with pytest.raises(ValueError):
        constrained_poisson(v, poisson_kernel(z, bad, 6))


def test_constrained_kernel_gram_and_intertwining():
    z = RegularPolynomial.single_variable([1.0])
    roots = [0.3, -0.2 + 0.1j, 0.1j]
    T = OperatorTuple((np.diag(roots).astype(complex),))
    v = build_variety(z, 14, [minpoly_generator(roots)])
    ck = constrained_poisson(v, poisson_kernel(z, T, 14))
    rep = verify_constrained_kernel(ck, tol=1e-9)
    assert rep.passed, rep.render()


def test_commutator_model_kernel():
    """Commuting nilpotent pair lives on the symmetric model."""
    f = drury_poly(2)
    N = 5
    nil = np.zeros((3, 3), dtype=complex)
    nil[0, 1] = nil[1, 2] = 0.4
    # two commuting nilpotents: nil and nil^2
    T = OperatorTuple((nil, 0.5 * nil @ nil))
    v = build_variety(f, N, commutator_generators(2))
    ck = constrained_poisson(v, poisson_kernel(f, T, N))
    rep = verify_constrained_kernel(ck, tol=1e-9)
    assert rep.passed, rep.render()


def test_right_compression_matches_dense_construction():
    """The oracle helper's C_i = P L_i P against the dense right creation
    operators; the monomial model Z1 Z2 is not symmetric, so there C_i differs
    from B_i."""
    varying = RegularPolynomial(2, {(1,): 0.5, (2,): 2.0, (1, 2): 0.7, (2, 2): 0.2})
    z = RegularPolynomial.single_variable([1.0])
    for f, N, gens in ((varying, 4, commutator_generators(2)), (drury_poly(2), 4, [{(1, 2): 1.0}]),
                       (drury_poly(3), 3, commutator_generators(3)),
                       (z, 6, [minpoly_generator([0.5, -0.25])])):
        v = build_variety(f, N, gens)
        p = v.basis
        for got, lam in zip(dense_compression(v, "right").mats,
                            dense_creation(f, N, "right").mats, strict=True):
            want = p.conj().T @ lam @ p
            assert got.shape == (v.dim, v.dim)
            assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))


def test_ellipsoid_membership_of_compressed_tuple():
    """B = P W P stays in the ellipsoid of f."""
    from ncdomains import domain_membership
    for n in (2, 3):
        f = drury_poly(n)
        v = build_variety(f, 4, commutator_generators(n))
        rep = domain_membership(f, v.left)
        assert rep.min_eig_ellipsoid >= -1e-9
        rep_r = domain_membership(f, dense_compression(v, "right"))
        assert rep_r.min_eig_ellipsoid >= -1e-9


def test_kappa_cross_check_random_points():
    rng = np.random.default_rng(42)
    for f in f_battery():
        m_top = 20 if f.n == 1 else 10
        for _ in range(4):
            # random points strictly inside the scalar domain
            mu = list((rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)) * 0.2)
            lam = list((rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)) * 0.2)
            closed, partial, tail = kappa_eval(f, mu, lam, m_top)
            # 1e-12 covers the float rounding of the partial sum itself
            assert abs(closed - partial) <= tail + 1e-12


def test_kappa_outside_domain_rejected():
    z = RegularPolynomial.single_variable([1.0])
    with pytest.raises(ValueError):
        kappa_eval(z, [1.1], [1.0], 10)


def test_constant_generator_rejected():
    z = RegularPolynomial.single_variable([1.0])
    with pytest.raises(ValueError):
        build_variety(z, 4, [{(): 1.0}])
