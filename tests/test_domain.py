import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncdomains import (OperatorTuple, RegularPolynomial, apply_phi, b_coefficients,
                       block_count, coefficient_words, domain_membership,
                       flip_unitary, purity_estimate, purity_horizon, shift_word,
                       weighted_creation)
from ncdomains.words import enumerate_words, words_of_lengths

from conftest import dense_creation, f_battery, random_nilpotent_tuple


# ---------------------------------------------------------------------------
# polynomial validation
# ---------------------------------------------------------------------------

def test_constant_term_rejected():
    with pytest.raises(ValueError):
        RegularPolynomial(1, {(): 1.0, (1,): 1.0})


def test_missing_single_letter_rejected():
    with pytest.raises(ValueError):
        RegularPolynomial(2, {(1,): 1.0, (1, 2): 0.5})


def test_negative_coefficient_rejected():
    with pytest.raises(ValueError):
        RegularPolynomial(1, {(1,): 1.0, (1, 1): -0.1})


def test_zero_coefficients_dropped():
    f = RegularPolynomial(1, {(1,): 1.0, (1, 1): 0.0})
    assert f.degree == 1
    assert block_count(f) == 1


def test_reversal_symmetry():
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    assert not f.is_reversal_symmetric()
    assert f.reversed().coeffs[(2, 1)] == 0.5
    g = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5, (2, 1): 0.5})
    assert g.is_reversal_symmetric()


# ---------------------------------------------------------------------------
# b-coefficients: oracle by ordered factorizations
# ---------------------------------------------------------------------------

def b_oracle(f: RegularPolynomial, w) -> float:
    """Sum over ordered factorizations of w into support blocks of f."""
    if len(w) == 0:
        return 1.0
    total = 0.0
    for m in range(1, min(f.degree, len(w)) + 1):
        a = f.coeffs.get(w[:m], 0.0)
        if a:
            total += a * b_oracle(f, w[m:])
    return total


def b_oracle_flat(f: RegularPolynomial, w) -> float:
    """Second, compositions-based oracle: explicit a_{u1}...a_{uj} products."""
    if len(w) == 0:
        return 1.0

    def compositions(k):
        if k == 0:
            yield ()
            return
        for first in range(1, min(f.degree, k) + 1):
            for rest in compositions(k - first):
                yield (first,) + rest

    total = 0.0
    for comp in compositions(len(w)):
        prod, pos = 1.0, 0
        for part in comp:
            prod *= f.coeffs.get(w[pos:pos + part], 0.0)
            pos += part
            if prod == 0.0:
                break
        total += prod
    return total


def test_b_recursion_vs_factorization_oracles():
    for f in f_battery():
        b = b_coefficients(f, 5)
        for w in enumerate_words(f.n, 5).words:
            assert abs(b[w] - b_oracle(f, w)) <= 1e-12
            assert abs(b[w] - b_oracle_flat(f, w)) <= 1e-12


def test_fibonacci(fib_poly):
    b = b_coefficients(fib_poly, 6)
    assert [b[(1,) * k] for k in range(7)] == [1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0]


def test_b_scaling():
    f = RegularPolynomial.single_variable([2.0])
    b = b_coefficients(f, 5)
    assert all(abs(b[(1,) * k] - 2.0**k) <= 1e-12 for k in range(6))


@given(st.integers(0, 1000))
def test_b_positive(seed):
    rng = np.random.default_rng(seed)
    f = RegularPolynomial(2, {(1,): rng.uniform(0.1, 2), (2,): rng.uniform(0.1, 2),
                              (1, 2): rng.uniform(0, 1), (2, 2): rng.uniform(0, 1)})
    b = b_coefficients(f, 3)
    assert all(v > 0 for w, v in b.values.items() if len(w) <= 1)
    assert all(v >= 0 for v in b.values.values())


# ---------------------------------------------------------------------------
# weighted creation operators
# ---------------------------------------------------------------------------

def test_left_creation_action_elementwise(fib_poly):
    f, N = fib_poly, 5
    W = dense_creation(f, N)
    b = b_coefficients(f, N)
    table = enumerate_words(1, N)
    for j, w in enumerate(table.words):
        col = W.mats[0][:, j]
        if len(w) == N:
            assert np.linalg.norm(col) == 0.0
        else:
            tgt = (1,) + w
            expected = np.zeros(len(table), dtype=complex)
            expected[table.index[tgt]] = np.sqrt(b[w] / b[tgt])
            assert np.linalg.norm(col - expected) == 0.0


def test_right_creation_action_elementwise():
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (2, 1): 0.5})
    N = 3
    L = dense_creation(f, N, "right")
    b = b_coefficients(f, N)
    table = enumerate_words(2, N)
    for i in (1, 2):
        for j, w in enumerate(table.words):
            col = L.mats[i - 1][:, j]
            if len(w) == N:
                assert np.linalg.norm(col) == 0.0
            else:
                tgt = w + (i,)
                assert abs(col[table.index[tgt]] - np.sqrt(b[w] / b[tgt])) == 0.0
                assert np.count_nonzero(col) == 1


def dense_creation_oracle(f: RegularPolynomial, N: int, side: str) -> list[np.ndarray]:
    """Dense creation matrices built entry by entry from their definition."""
    table = enumerate_words(f.n, N)
    b = b_coefficients(f, N)
    mats = []
    for i in range(1, f.n + 1):
        m = np.zeros((len(table), len(table)), dtype=complex)
        for j, w in enumerate(table.words):
            if len(w) < N:
                tgt = (i,) + w if side == "left" else w + (i,)
                m[table.index[tgt], j] = np.sqrt(b[w] / b[tgt])
        mats.append(m)
    return mats


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("r", [1, 3])
def test_weighted_shift_matches_dense_kron(side, r):
    """Gathers, scatters and word composition agree bitwise with dense kron products."""
    rng = np.random.default_rng(11)
    N = 3
    for f in f_battery():
        shifts = weighted_creation(f, N, side)
        dense = dense_creation_oracle(f, N, side)
        size = len(dense[0])
        x = rng.standard_normal((size * r, 4)) + 1j * rng.standard_normal((size * r, 4))
        y = rng.standard_normal((5, size * r)) + 1j * rng.standard_normal((5, size * r))
        inner = rng.standard_normal((r, 2)) + 1j * rng.standard_normal((r, 2))
        for s, m in zip(shifts, dense):
            big = np.kron(m, np.eye(r))
            assert np.array_equal(s.dense(), m)
            assert np.array_equal(s.dense(np.eye(r)), big)
            assert np.array_equal(s.apply(x), big @ x)
            assert np.array_equal(s.apply_adjoint(x), big.conj().T @ x)
            assert np.array_equal(s.rmul(y), y @ big)
        oracle = OperatorTuple(tuple(dense))
        for w in words_of_lengths(f.n, 0, N):
            sw = shift_word(shifts, w)
            assert np.array_equal(sw.dense(), oracle.word(w))
            assert np.array_equal(sw.dense(inner), np.kron(oracle.word(w), inner))
            big = np.kron(oracle.word(w), np.eye(r))
            assert np.array_equal(sw.apply(x), big @ x)
            assert np.array_equal(sw.apply_adjoint(x), big.conj().T @ x)
            assert np.array_equal(sw.rmul(y), y @ big)


def test_weighted_creation_side_checked():
    with pytest.raises(ValueError):
        weighted_creation(RegularPolynomial.single_variable([1.0]), 2, "up")


def test_flip_conjugation_for_reversal_symmetric():
    for f in f_battery():
        if not f.is_reversal_symmetric():
            continue
        N = 4
        U = flip_unitary(f.n, N)
        W = dense_creation(f, N)
        L = dense_creation(f, N, "right")
        assert np.linalg.norm(U @ U.T - np.eye(len(U))) == 0.0
        for i in range(f.n):
            assert np.linalg.norm(U.T @ L.mats[i] @ U - W.mats[i]) <= 1e-14


def test_vacuum_projection_identity():
    """I - Phi_{f,W}(I) is the vacuum projection below the truncation boundary."""
    N = 8
    for f in f_battery():
        W = dense_creation(f, N)
        size = W.rows
        gap = np.eye(size, dtype=complex) - apply_phi(f, W, np.eye(size, dtype=complex))
        proj = np.zeros((size, size), dtype=complex)
        proj[0, 0] = 1.0
        top = enumerate_words(f.n, N).max_level_index(N - f.degree)
        assert np.linalg.norm((gap - proj)[:top, :top], 2) <= 1e-10


def test_left_creation_row_contraction():
    for f in f_battery():
        W = dense_creation(f, 5)
        rep = domain_membership(f, W)
        assert rep.in_domain and rep.in_ellipsoid


# ---------------------------------------------------------------------------
# membership / purity
# ---------------------------------------------------------------------------

def test_membership_scalar():
    f = RegularPolynomial.single_variable([1.0])
    inside = OperatorTuple((np.array([[0.5]]),))
    outside = OperatorTuple((np.array([[1.5]]),))
    assert domain_membership(f, inside).in_domain
    assert not domain_membership(f, outside).in_domain
    with pytest.raises(ValueError):
        purity_estimate(f, outside, 3)


def test_purity_nilpotent():
    T = random_nilpotent_tuple(0, 2, 4)
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    decay = purity_estimate(f, T, 6)
    assert decay[-1] == 0.0
    m, tail = purity_horizon(f, T)
    assert m <= 4 and tail == 0.0


def test_purity_horizon_scalar():
    f = RegularPolynomial.single_variable([1.0])
    T = OperatorTuple((np.array([[0.5]]),))
    m, tail = purity_horizon(f, T, tail_tol=1e-10)
    assert abs(0.25**m - tail) <= 1e-15 and tail <= 1e-10


def test_operator_tuple_word():
    T = OperatorTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),
                       np.array([[0.0, 0.0], [1.0, 0.0]])))
    w = T.word((1, 2))
    assert np.allclose(w, T.mats[0] @ T.mats[1])
    assert np.allclose(T.word(()), np.eye(2))


def test_rectangular_tuple():
    A = OperatorTuple((np.zeros((3, 2)),))
    assert A.rows == 3 and A.cols == 2
    with pytest.raises(ValueError):
        _ = A.dim
    f2 = RegularPolynomial.single_variable([1.0, 1.0])
    with pytest.raises(ValueError):
        apply_phi(f2, A, np.eye(2))


def test_coefficient_words_uniform():
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    ws = coefficient_words(f)
    assert ws == words_of_lengths(2, 1, 2)
    assert block_count(f) == len(ws) == 6
