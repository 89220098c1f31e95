import numpy as np
import pytest

from ncdomains import (OperatorTuple, RegularPolynomial, defect, poisson_kernel,
                       verify_kernel_identities)
from ncdomains.domain import phi_identity_power
from ncdomains.harness import scale_into_domain
from ncdomains.words import enumerate_words

from conftest import b_by_word, f_battery, random_nilpotent_tuple


def test_defect_scalar():
    f = RegularPolynomial.single_variable([1.0])
    dd = defect(f, OperatorTuple((np.array([[0.6]]),)))
    assert dd.rank == 1
    assert abs(dd.delta[0, 0] - np.sqrt(1 - 0.36)) <= 1e-14


def test_defect_outside_domain_raises():
    f = RegularPolynomial.single_variable([1.0])
    with pytest.raises(ValueError):
        defect(f, OperatorTuple((np.array([[2.0]]),)))


def test_defect_rank_deficient():
    # unitary direct sum with a strict contraction: defect rank 1
    f = RegularPolynomial.single_variable([1.0])
    T = OperatorTuple((np.diag([1.0, 0.5]).astype(complex),))
    dd = defect(f, T)
    assert dd.rank == 1
    assert dd.basis.shape == (2, 1)
    assert np.linalg.norm(dd.delta @ dd.delta - (np.eye(2) - T.mats[0] @ T.mats[0].conj().T)) <= 1e-14


def test_kernel_isometric_for_nilpotent():
    for seed in range(5):
        dim = 3 + seed % 3
        T = random_nilpotent_tuple(seed, 2, dim)
        f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
        K = poisson_kernel(f, T, dim)
        gram = K.matrix.conj().T @ K.matrix
        assert np.linalg.norm(gram - np.eye(dim), 2) <= 1e-9
        rep = verify_kernel_identities(K, tol=1e-9)
        assert rep.passed, rep.render()


def test_kernel_gram_tail_scalar_contraction():
    f = RegularPolynomial.single_variable([1.0])
    for r in (0.3, 0.7, 0.95):
        T = OperatorTuple((np.array([[r]]),))
        for N in (4, 8):
            K = poisson_kernel(f, T, N)
            gram = float((K.matrix.conj().T @ K.matrix).real[0, 0])
            tail = float(np.linalg.norm(phi_identity_power(f, T, N + 1), 2))
            assert abs(gram - 1.0) <= tail + 1e-12


def test_kernel_rows_match_formula(fib_poly):
    T = random_nilpotent_tuple(3, 1, 3, fib_poly)
    N = 4
    K = poisson_kernel(fib_poly, T, N)
    b = b_by_word(fib_poly, N)
    dd = K.defect
    table = enumerate_words(1, N)
    r = dd.rank
    for j, w in enumerate(table.words):
        block = K.matrix[j * r:(j + 1) * r]
        expected = np.sqrt(b[w]) * dd.basis.conj().T @ dd.delta @ T.word(w).conj().T
        assert np.linalg.norm(block - expected) <= 1e-13


def test_kernel_contraction_for_battery():
    for f in f_battery():
        T = random_nilpotent_tuple(11, f.n, 3, f, target=0.8)
        K = poisson_kernel(f, T, 5)
        assert np.linalg.norm(K.matrix, 2) <= 1.0 + 1e-10


def test_prefix_kernel_matches_word_path_bitwise():
    """The level-batched T_w give the kernel of the per-word OperatorTuple.word
    path, at N = 5 on the battery of f and at the benchmark shapes: (n, N) =
    (3, 6) of the variety workload, the degree-2 f = z1 + z2 + z1 z2 / 2 of the
    twovar triples at N = 6, and (1, 26), the deepest kernel of the battery."""
    rng = np.random.default_rng(11)
    cases = [(f, 5) for f in f_battery()]
    cases += [(RegularPolynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0}), 6),
              (RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5}), 6),
              (RegularPolynomial.single_variable([1.0]), 26)]
    for seed, (f, N) in enumerate(cases):
        dense = OperatorTuple(tuple(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                                    for _ in range(f.n)))
        for T in (random_nilpotent_tuple(seed, f.n, 4, f), scale_into_domain(f, dense, 0.5)):
            K = poisson_kernel(f, T, N)
            dd, b = K.defect, b_by_word(f, N)
            ref = np.vstack([np.sqrt(b[w]) * dd.coords(dd.delta @ T.word(w).conj().T)
                             for w in enumerate_words(f.n, N).words])
            assert np.array_equal(K.matrix, ref)


def test_horizon_is_formed_once():
    """K.horizon is Phi^{N+1}(I) bitwise, and the same array on every read."""
    for f in f_battery():
        T = random_nilpotent_tuple(5, f.n, 3, f, target=0.8)
        K = poisson_kernel(f, T, 4)
        assert np.array_equal(K.horizon, phi_identity_power(f, T, 5))
        assert K.horizon is K.horizon
