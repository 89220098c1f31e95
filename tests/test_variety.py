from math import comb

import numpy as np
import pytest

from ncdomains import (OperatorTuple, RegularPolynomial, build_variety,
                       commutator_generators, constrained_poisson, kappa_eval,
                       minpoly_generator, verify_constrained_kernel)
from ncdomains.variety import generator_degree

from conftest import dense_creation, f_battery


def drury_poly(n: int) -> RegularPolynomial:
    return RegularPolynomial(n, {(i,): 1.0 for i in range(1, n + 1)})


def test_symmetric_fock_dimensions():
    for n, N in ((2, 6), (3, 5)):
        v = build_variety(drury_poly(n), N, commutator_generators(n))
        dims = v.level_dimensions()
        stable = N - v.unstable_margin
        for m in range(stable + 1):
            assert dims[m] == comb(n + m - 1, m)


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


def test_generator_annihilation_enforced():
    z = RegularPolynomial.single_variable([1.0])
    v = build_variety(z, 6, [minpoly_generator([0.5])])
    bad = OperatorTuple((np.array([[0.3]]),))
    with pytest.raises(ValueError):
        constrained_poisson(v, bad)


def test_constrained_kernel_gram_and_intertwining():
    z = RegularPolynomial.single_variable([1.0])
    roots = [0.3, -0.2 + 0.1j, 0.1j]
    T = OperatorTuple((np.diag(roots).astype(complex),))
    v = build_variety(z, 14, [minpoly_generator(roots)])
    ck = constrained_poisson(v, T)
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
    ck = constrained_poisson(v, T)
    rep = verify_constrained_kernel(ck, tol=1e-9)
    assert rep.passed, rep.render()


def test_ellipsoid_membership_of_compressed_tuple():
    """B = P W P stays in the ellipsoid of f."""
    from ncdomains import domain_membership
    for n in (2, 3):
        f = drury_poly(n)
        v = build_variety(f, 4, commutator_generators(n))
        rep = domain_membership(f, v.left)
        assert rep.min_eig_ellipsoid >= -1e-9
        rep_r = domain_membership(f, v.right)
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
