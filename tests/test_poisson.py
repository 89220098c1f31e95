import numpy as np
import pytest

from ncdomains import (OperatorTuple, RegularPolynomial, defect, poisson_kernel,
                       verify_kernel_identities)
from ncdomains.domain import phi_identity_power
from ncdomains.poisson import canonical_phases

from conftest import f_battery, random_nilpotent_tuple


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


def test_canonical_phases():
    v = np.array([[1j], [1.0]])
    out = canonical_phases(v)
    assert abs(out[0, 0].imag) <= 1e-15 and out[0, 0].real > 0


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
    from ncdomains import b_coefficients
    from ncdomains.words import enumerate_words
    b = b_coefficients(fib_poly, N)
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
