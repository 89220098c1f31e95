import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncdomains import (OperatorTuple, RegularPolynomial, apply_phi, b_coefficients,
                       block_count, coefficient_words, domain_membership,
                       phi_identity_power, shift_word, weighted_creation)
from ncdomains.domain import kron_identity_matmul, phi_identity_iterates
from ncdomains.harness import choose_truncation
from ncdomains.words import enumerate_words, fock_size, words_of_lengths

from conftest import (b_by_word, b_recursion, creation, dense_creation, f_battery,
                      is_reversal_symmetric, phi_map, random_nilpotent_tuple, shift_rmul,
                      word_index)


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


@pytest.mark.parametrize("coeffs", [
    {(1,): float("nan")},                          # passed the a_g1 > 0 test
    {(1,): 1.0, (1, 1): float("nan")},             # passed the a >= 0 test
    {(1,): 1.0, (1, 1): float("inf")},
])
def test_non_finite_coefficient_rejected(coeffs):
    with pytest.raises(ValueError, match="is not finite"):
        RegularPolynomial(1, coeffs)


def test_zero_coefficients_dropped():
    f = RegularPolynomial(1, {(1,): 1.0, (1, 1): 0.0})
    assert f.degree == 1
    assert block_count(f) == 1


def test_reversal_symmetry():
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    assert not is_reversal_symmetric(f)
    g = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5, (2, 1): 0.5})
    assert is_reversal_symmetric(g)


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
        b = b_by_word(f, 5)
        for w in enumerate_words(f.n, 5).words:
            assert abs(b[w] - b_oracle(f, w)) <= 1e-12
            assert abs(b[w] - b_oracle_flat(f, w)) <= 1e-12


def test_fibonacci(fib_poly):
    b = b_by_word(fib_poly, 6)
    assert [b[(1,) * k] for k in range(7)] == [1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0]


def test_b_scaling():
    f = RegularPolynomial.single_variable([2.0])
    b = b_by_word(f, 5)
    assert all(abs(b[(1,) * k] - 2.0**k) <= 1e-12 for k in range(6))


@given(st.integers(0, 1000))
def test_b_positive(seed):
    rng = np.random.default_rng(seed)
    f = RegularPolynomial(2, {(1,): rng.uniform(0.1, 2), (2,): rng.uniform(0.1, 2),
                              (1, 2): rng.uniform(0, 1), (2, 2): rng.uniform(0, 1)})
    b = b_by_word(f, 3)
    assert all(v > 0 for w, v in b.items() if len(w) <= 1)
    assert all(v >= 0 for v in b.values())


F_TWOVAR = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
F_THREE = RegularPolynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0})


def test_b_levels_match_word_recursion_bitwise():
    """The level-at-a-time weights equal the per-word recursion bitwise: the
    deepest battery shape (n = 1, N = 26) at degree 3, the twovar f at N = 4..8,
    (n, N) = (3, 6) and (3, 8), and polynomials with zero coefficients inside
    their degree (every length-2 word of the second one)."""
    cases = [(RegularPolynomial.single_variable([1.0, 1.0, 1.0]), 26),
             (F_THREE, 6), (F_THREE, 8),
             (RegularPolynomial.single_variable([0.5, 0.0, 0.25]), 12),
             (RegularPolynomial(2, {(1,): 1.0, (2,): 0.5, (2, 1, 2): 0.25}), 7)]
    cases += [(F_TWOVAR, N) for N in range(4, 9)]
    for f, N in cases:
        b = b_coefficients(f, N)
        assert not b.flags.writeable
        assert np.array_equal(b, list(b_recursion(f, N).values()))


# ---------------------------------------------------------------------------
# weighted creation operators
# ---------------------------------------------------------------------------

def test_left_creation_action_elementwise(fib_poly):
    f, N = fib_poly, 5
    W = dense_creation(f, N)
    b = b_by_word(f, N)
    table = enumerate_words(1, N)
    index = word_index(table)
    for j, w in enumerate(table.words):
        col = W.mats[0][:, j]
        if len(w) == N:
            assert np.linalg.norm(col) == 0.0
        else:
            tgt = (1,) + w
            expected = np.zeros(len(table), dtype=complex)
            expected[index[tgt]] = np.sqrt(b[w] / b[tgt])
            assert np.linalg.norm(col - expected) == 0.0


def test_right_creation_action_elementwise():
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (2, 1): 0.5})
    N = 3
    L = dense_creation(f, N, "right")
    b = b_by_word(f, N)
    table = enumerate_words(2, N)
    index = word_index(table)
    for i in (1, 2):
        for j, w in enumerate(table.words):
            col = L.mats[i - 1][:, j]
            if len(w) == N:
                assert np.linalg.norm(col) == 0.0
            else:
                tgt = w + (i,)
                assert abs(col[index[tgt]] - np.sqrt(b[w] / b[tgt])) == 0.0
                assert np.count_nonzero(col) == 1


def dense_creation_oracle(f: RegularPolynomial, N: int, side: str) -> list[np.ndarray]:
    """Dense creation matrices built entry by entry from their definition."""
    table = enumerate_words(f.n, N)
    index, b = word_index(table), b_by_word(f, N)
    mats = []
    for i in range(1, f.n + 1):
        m = np.zeros((len(table), len(table)), dtype=complex)
        for j, w in enumerate(table.words):
            if len(w) < N:
                tgt = (i,) + w if side == "left" else w + (i,)
                m[index[tgt], j] = np.sqrt(b[w] / b[tgt])
        mats.append(m)
    return mats


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("r", [1, 3])
def test_weighted_shift_matches_dense_kron(side, r):
    """Gathers, scatters and word composition agree bitwise with dense kron products."""
    rng = np.random.default_rng(11)
    N = 3
    for f in f_battery():
        shifts = creation(f, N, side)
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
            assert np.array_equal(shift_rmul(s, y), y @ big)
        oracle = OperatorTuple(tuple(dense))
        for w in words_of_lengths(f.n, 0, N):
            sw = shift_word(shifts, w)
            assert np.array_equal(sw.dense(), oracle.word(w))
            assert np.array_equal(sw.dense(inner), np.kron(oracle.word(w), inner))
            big = np.kron(oracle.word(w), np.eye(r))
            assert np.array_equal(sw.apply(x), big @ x)
            assert np.array_equal(sw.apply_adjoint(x), big.conj().T @ x)
            assert np.array_equal(shift_rmul(sw, y), y @ big)


@pytest.mark.parametrize("r", [1, 3])
def test_kron_identity_matmul_matches_kron(r):
    """(A (x) I_r) X by reshape agrees with the np.kron product."""
    rng = np.random.default_rng(12)
    for p, q in ((4, 7), (7, 4), (1, 5), (5, 1)):
        a = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        x = rng.standard_normal((q * r, 6)) + 1j * rng.standard_normal((q * r, 6))
        got = kron_identity_matmul(a, x)
        want = np.kron(a, np.eye(r)) @ x
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_creation_targets_match_word_lookup():
    """The arithmetic targets and the weights of weighted_creation equal the
    word-table lookups of g_i w and sqrt(b_w / b_{g_i w}) from the per-word
    recursion, bitwise; the top level stays put with weight 0."""
    for f, N in [(f, 4) for f in f_battery()] + [(F_THREE, 5), (F_TWOVAR, 0),
                                                 (RegularPolynomial.single_variable([1.0]), 26)]:
        table, b = enumerate_words(f.n, N), b_recursion(f, N)
        index = word_index(table)
        for i, s in enumerate(weighted_creation(f, N), 1):
            tgt = [(i,) + w for w in table.words]
            target = [index[t] if len(w) < N else j
                      for j, (w, t) in enumerate(zip(table.words, tgt))]
            weight = [np.sqrt(b[w] / b[t]) if len(w) < N else 0.0
                      for w, t in zip(table.words, tgt)]
            assert np.array_equal(s.target, target)
            assert np.array_equal(s.weight, weight)


def flip_unitary(n: int, N: int) -> np.ndarray:
    """The basis permutation e_w -> e_{reverse(w)} on the truncated Fock space."""
    table = enumerate_words(n, N)
    index = word_index(table)
    u = np.zeros((len(table), len(table)))
    for j, w in enumerate(table.words):
        u[index[w[::-1]], j] = 1.0
    return u


def test_flip_conjugation_for_reversal_symmetric():
    for f in f_battery():
        if not is_reversal_symmetric(f):
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
        gap = np.eye(size, dtype=complex) - apply_phi(f, W)
        proj = np.zeros((size, size), dtype=complex)
        proj[0, 0] = 1.0
        top = fock_size(f.n, N - f.degree)
        assert np.linalg.norm((gap - proj)[:top, :top], 2) <= 1e-10


def test_left_creation_row_contraction():
    for f in f_battery():
        W = dense_creation(f, 5)
        rep = domain_membership(f, W)
        assert rep.in_domain and rep.min_eig_ellipsoid >= -1e-9


# ---------------------------------------------------------------------------
# membership / purity
# ---------------------------------------------------------------------------

def test_membership_scalar():
    f = RegularPolynomial.single_variable([1.0])
    inside = OperatorTuple((np.array([[0.5]]),))
    outside = OperatorTuple((np.array([[1.5]]),))
    assert domain_membership(f, inside).in_domain
    assert not domain_membership(f, outside).in_domain


def test_phi_iterates_match_the_map():
    """Phi^m(I) from words formed once is bitwise the map applied m times, words formed anew."""
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    rng = np.random.default_rng(3)
    T = OperatorTuple(tuple(0.3 * (rng.standard_normal((4, 4))
                                   + 1j * rng.standard_normal((4, 4))) for _ in range(2)))
    x = np.eye(4, dtype=complex)
    iterates = list(phi_identity_iterates(f, T, 6))
    assert len(iterates) == 6
    for got in iterates:
        x = phi_map(f, T, x)
        assert np.array_equal(got, x)
    assert np.array_equal(apply_phi(f, T), iterates[0])
    assert list(phi_identity_iterates(f, T, 0)) == []
    assert np.array_equal(phi_identity_power(f, T, 0), np.eye(4))


def test_purity_nilpotent():
    """choose_truncation picks N = m + 1, m the first power with Phi^m(I) = 0."""
    T = random_nilpotent_tuple(0, 2, 4)
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    assert not phi_identity_power(f, T, 6).any()
    m = choose_truncation(f, T) - 1
    assert m <= 4 and float(np.linalg.norm(phi_identity_power(f, T, m), 2)) == 0.0


def test_purity_horizon_scalar():
    """At T = 1/2, ||Phi^m(I)|| = 4^-m: m is the first power at or below 1e-13."""
    f = RegularPolynomial.single_variable([1.0])
    T = OperatorTuple((np.array([[0.5]]),))
    m = choose_truncation(f, T) - 1
    tail = float(np.linalg.norm(phi_identity_power(f, T, m), 2))
    assert abs(0.25**m - tail) <= 1e-15 and tail <= 1e-13
    assert float(np.linalg.norm(phi_identity_power(f, T, m - 1), 2)) > 1e-13


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
        apply_phi(f2, A)


def test_coefficient_words_uniform():
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    ws = coefficient_words(f)
    assert ws == words_of_lengths(2, 1, 2)
    assert block_count(f) == len(ws) == 6
