import numpy as np
import pytest

from ncdomains import (IntertwiningTriple, OperatorTuple, RegularPolynomial,
                       build_isometry, complete_to_unitary, eval_transfer,
                       fourier_coefficients, fourier_roundtrip_residual,
                       poisson_kernel)
from ncdomains.colligation import Colligation
from ncdomains.domain import weighted_creation
from ncdomains.transfer import (contraction_excess, defect_identity_residual,
                                dilation_identity_report, multi_analytic_residual)

from test_colligation import nilpotent_triple

Z = RegularPolynomial.single_variable([1.0])


def swap_colligation() -> Colligation:
    """The 2x2 swap as a colligation for f = g = z with scalar slots."""
    zero = OperatorTuple((np.zeros((1, 1)),))
    triple = IntertwiningTriple(Z, Z, zero, zero, zero)
    return complete_to_unitary(build_isometry(triple))


def test_swap_transfer_is_lambda():
    """A=0, B=1, C=1, D=0 gives phi(L) = L (the right creation itself)."""
    col = swap_colligation()
    N = 5
    tf = eval_transfer(col, N)
    lam = weighted_creation(Z, N, "right")
    assert np.linalg.norm(tf.block((1,)) - lam[0].dense(), 2) <= 1e-13


def test_swap_fourier_single_coefficient():
    col = swap_colligation()
    tf = eval_transfer(col, 5)
    coefs = fourier_coefficients(tf, (1,), max_level=4)
    assert abs(coefs[(1,)][0, 0] - 1.0) <= 1e-13
    for u, c in coefs.items():
        if u != (1,):
            assert np.linalg.norm(c) <= 1e-13


def test_constant_transfer_when_b_zero():
    """B = 0 forces phi = I (x) A^*."""
    u = np.array([[0.6, 0.8], [0.8, -0.6]])  # unitary with B-block = 0... build directly
    col = Colligation(A=u[:1, :1], B=u[:1, 1:] * 0, C=u[1:, :1], D=u[1:, 1:],
                      dims={"d1": 1, "d1p": 1, "d2": 1, "m1": 1, "m2": 1,
                            "pad_e": 0, "pad_u": 0, "pad_v": 0},
                      unitarity_residual=0.0, prescribed_residual=0.0,
                      triple=IntertwiningTriple(Z, Z,
                                                OperatorTuple((np.zeros((1, 1)),)),
                                                OperatorTuple((np.zeros((1, 1)),)),
                                                OperatorTuple((np.zeros((1, 1)),))))
    tf = eval_transfer(col, 4)
    size = tf.fock_size
    assert np.linalg.norm(tf.block((1,)) - np.kron(np.eye(size), col.A.conj().T)) <= 1e-14
    coefs = fourier_coefficients(tf, (1,), max_level=3)
    assert np.linalg.norm(coefs[()] - col.A.conj().T) <= 1e-14
    assert all(np.linalg.norm(c) <= 1e-14 for u_, c in coefs.items() if u_ != ())


def test_fourier_roundtrip_random_triples(fib_poly):
    for seed in range(5):
        tr = nilpotent_triple(seed, 3, f=fib_poly)
        col = complete_to_unitary(build_isometry(tr))
        tf = eval_transfer(col, 6)
        for m in (2, 3):
            assert fourier_roundtrip_residual(tf, (1,), m) <= 1e-8


def test_fourier_max_level_validation():
    col = swap_colligation()
    tf = eval_transfer(col, 4)
    with pytest.raises(ValueError):
        fourier_coefficients(tf, (1,), max_level=4)


def test_contractivity_and_multianalyticity_many_seeds():
    for seed in range(10):
        tr = nilpotent_triple(seed, 3)
        col = complete_to_unitary(build_isometry(tr))
        tf = eval_transfer(col, 5)
        assert contraction_excess(tf) <= 1e-8
        assert multi_analytic_residual(tf, (1,)) <= 1e-8


def test_defect_identity():
    for seed in (0, 3):
        tr = nilpotent_triple(seed, 3)
        col = complete_to_unitary(build_isometry(tr))
        tf = eval_transfer(col, 5)
        assert defect_identity_residual(tf) <= 1e-8


def test_dilation_identity_nilpotent():
    for seed in range(5):
        tr = nilpotent_triple(seed, 4)
        col = complete_to_unitary(build_isometry(tr))
        N = 5
        tf = eval_transfer(col, N)
        K1 = poisson_kernel(tr.f, tr.T1, N)
        rep = dilation_identity_report(tf, K1, K1, tol=1e-7)
        assert rep.passed, rep.render()


def test_oracle_equivalence():
    """Series oracle and kernel identity agree on the same triple."""
    from ncdomains import series_oracle
    tr = nilpotent_triple(2, 4)
    col = complete_to_unitary(build_isometry(tr))
    tf = eval_transfer(col, 5)
    K1 = poisson_kernel(tr.f, tr.T1, 5)
    kernel_res = max(c.value for c in
                     dilation_identity_report(tf, K1, K1).checks)
    series_res = series_oracle(col, p_max=5).checks[0].value
    assert abs(kernel_res - series_res) <= 1e-8


def test_degree_two_g_blocks(fib_poly):
    """deg g = 2: the transfer row has m2 = 2 blocks, both extracted."""
    tr = nilpotent_triple(1, 4, f=Z, g=fib_poly)
    col = complete_to_unitary(build_isometry(tr))
    assert col.dims["m2"] == 2
    N = 5
    tf = eval_transfer(col, N)
    assert len(tf.blocks) == 2
    K1 = poisson_kernel(Z, tr.T1, N)
    rep = dilation_identity_report(tf, K1, K1, tol=1e-7)
    assert rep.passed, rep.render()
    assert contraction_excess(tf) <= 1e-8
