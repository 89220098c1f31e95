import dataclasses
import tracemalloc

import numpy as np
import pytest

import ncdomains.domain
import ncdomains.poisson
from ncdomains import words

from ncdomains import (IntertwiningTriple, OperatorTuple, RegularPolynomial,
                       build_isometry, complete_to_unitary, eval_transfer,
                       fourier_roundtrip_residual, poisson_kernel, realization, transfer)
from ncdomains.colligation import Colligation
from ncdomains.domain import (WeightedShift, b_coefficients, coefficient_words, shift_word,
                              weighted_creation)
from ncdomains.harness import scale_into_domain
from ncdomains.transfer import (TransferFunction, _coefficient_table, _gram, _lambda_max,
                                _row_adjoint, _row_gram, _scatter, contraction_excess,
                                defect_identity_residual, dilation_identity_report,
                                multi_analytic_residual)
from ncdomains.words import enumerate_words, fock_size

from conftest import (b_by_word, dense_block, f_battery, gram_by_gather, reverse,
                      right_creation, word_index)
from test_colligation import nilpotent_triple

Z = RegularPolynomial.single_variable([1.0])
F_TRIPLE = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})


def dense_resolvent(col: Colligation, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the full transfer row, ``realization`` at the dense weighted right
    creations (so X_{w~} = L_{w~}), and M = (I (x) C^*)(I - Q)^{-1} from the dense
    (Fock w)^2 resolvent, Q = sum_w sqrt(a_w) L_{w~} (x) D_(w)^*."""
    f = col.triple.f
    lam = right_creation(f, N)
    size = lam[0].size
    q = 0.0
    for i, w in enumerate(coefficient_words(f)):
        a = f.coeffs.get(w, 0.0)
        if a != 0.0:
            q = q + np.sqrt(a) * np.kron(shift_word(lam, reverse(w)).dense(),
                                         col.d_block(i).conj().T)
    cstar = np.kron(np.eye(size), col.C.conj().T)
    return (realization(col, [s.dense() for s in lam]),
            cstar @ np.linalg.inv(np.eye(size * col.slot_dim) - q))


def oracle_blocks(col: Colligation, N: int) -> list[np.ndarray]:
    phi, _ = dense_resolvent(col, N)
    size, r_out, r_in, m2 = phi.shape[0] // col.r_out, col.r_out, col.r_in, col.dims["m2"]
    shaped = phi.reshape(size * r_out, size, m2, r_in)
    return [shaped[:, :, j, :].reshape(size * r_out, size * r_in) for j in range(m2)]


def commuting_triple(seed: int, dim: int, f: RegularPolynomial,
                     g: RegularPolynomial = Z) -> IntertwiningTriple:
    """T1: f.n polynomials in one nilpotent; T2 (one variable) another one."""
    rng = np.random.default_rng(seed)
    nil = np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 1)
    mats = [nil]
    for _ in range(f.n - 1):
        c = rng.standard_normal(2)
        mats.append(c[0] * nil + c[1] * nil @ nil)
    T1 = scale_into_domain(f, OperatorTuple(tuple(mats)), 0.9)
    c = rng.standard_normal(2)
    t2 = c[0] * T1.mats[0] + c[1] * T1.mats[0] @ T1.mats[0]
    T2 = scale_into_domain(g, OperatorTuple((t2,)), 0.9)
    return IntertwiningTriple(f, g, T1, T1, T2)


def oracle_colligations() -> list[Colligation]:
    """Every f of the battery with g = z, and f = z with the degree-2 g = z + z^2
    (m2 = 2, and a colligation that needs the fallback padding)."""
    triples = [commuting_triple(seed, 3, f) for seed, f in enumerate(f_battery())]
    triples.append(commuting_triple(7, 3, Z, RegularPolynomial.single_variable([1.0, 1.0])))
    cols = [complete_to_unitary(build_isometry(tr)) for tr in triples]
    assert any(col.dims["m2"] > 1 for col in cols)
    assert any(col.fallback_padding for col in cols)
    return cols


def test_table_blocks_match_dense_resolvent():
    for col in oracle_colligations():
        for N in range(6):
            tf = eval_transfer(col, N)
            for w, ref in zip(tf.block_words, oracle_blocks(col, N), strict=True):
                assert np.linalg.norm(dense_block(tf, w) - ref) <= 1e-13 * np.linalg.norm(ref)


def coefficient_table_by_words(col: Colligation, N: int, head, empty: np.ndarray) -> np.ndarray:
    """The oracle of ``_coefficient_table``: Z_u keyed by word, the sum over
    u = v w of sqrt(a_w) head(w)^* (v empty) or sqrt(a_w) D_(w)^* Z_v, one word at a time."""
    f = col.triple.f
    terms = [(w, np.sqrt(a), col.d_block(i).conj().T, head(i).conj().T)
             for i, w in enumerate(coefficient_words(f))
             if (a := f.coeffs.get(w, 0.0)) != 0.0]
    words = enumerate_words(f.n, N).words
    z = {}
    table = np.empty((len(words), *empty.shape), dtype=complex)
    table[0] = empty
    for k, u in enumerate(words[1:], 1):
        acc = np.zeros((col.slot_dim, head(0).shape[0]), dtype=complex)
        for w, s, dstar, hstar in terms:
            m = len(u) - len(w)
            if m >= 0 and u[m:] == w:
                acc += s * (dstar @ z[u[:m]] if m else hstar)
        z[u] = acc
        table[k] = col.C.conj().T @ acc
    return table


def twovar_colligations() -> list[Colligation]:
    """The three colligations of the twovar shape: f = z1 + z2 and two triples
    of f = z1 + z2 + 0.5 z1 z2, dimension 4, g = z."""
    fs = (RegularPolynomial(2, {(1,): 1.0, (2,): 1.0}), F_TRIPLE, F_TRIPLE)
    return [complete_to_unitary(build_isometry(commuting_triple(seed, 4, f)))
            for seed, f in zip((6, 16, 17), fs)]


def test_level_table_matches_word_recursion_bitwise():
    """The level-at-a-time coefficient tables (transfer row and resolvent, the
    b_block and d_block heads) equal the per-word recursion bitwise, on the
    twovar colligations at N = 4, 6 and 8 and on the oracle colligations."""
    cases = [(col, N) for col in twovar_colligations() for N in (4, 6, 8)]
    cases += [(col, 5) for col in oracle_colligations()]
    for col, N in cases:
        for head, empty in ((col.b_block, col.A.conj().T), (col.d_block, col.C.conj().T)):
            assert np.array_equal(_coefficient_table(col, N, head, empty),
                                  coefficient_table_by_words(col, N, head, empty))


class FockLevelTable:
    """A word table above level deg f: reading its words fails the test."""

    def __init__(self, table):
        self.table = table

    def __getattr__(self, name):
        if name == "words":
            pytest.fail(f"{name} of the level-{self.table.N} word table read")
        return getattr(self.table, name)

    def __len__(self):
        return len(self.table)


def test_runtime_paths_read_no_word_table_above_deg_f(monkeypatch):
    """b_coefficients, weighted_creation, poisson_kernel, eval_transfer and the
    transfer checks address the Fock space by level arithmetic: given word
    tables whose words fail above level deg f, and no word lists
    above it, they return bitwise what they return without the guard."""
    def run(col, N):
        f, T = col.triple.f, col.triple.T1
        tf = eval_transfer(col, N)
        K = poisson_kernel(f, T, N)
        shifts = weighted_creation(f, N)
        return [b_coefficients(f, N), tf.theta, K.matrix,
                *[a for s in shifts for a in (s.target, s.weight)],
                contraction_excess(tf), defect_identity_residual(tf),
                multi_analytic_residual(tf, (1,)), fourier_roundtrip_residual(tf, (1,), 2),
                dilation_identity_report(tf, K, K, tol=1e-7).render()]

    cases = [(col, 6) for col in twovar_colligations()[:2]]
    cases.append((complete_to_unitary(build_isometry(
        commuting_triple(3, 3, RegularPolynomial.single_variable([1.0, 0.5])))), 12))
    for col, N in cases:
        want = run(col, N)
        degree = col.triple.f.degree
        with monkeypatch.context() as m:
            tables, lists = words.enumerate_words, words.words_of_lengths

            def guarded_tables(n, N_):
                return tables(n, N_) if N_ <= degree else FockLevelTable(tables(n, N_))

            def guarded_lists(n, lo, hi):
                if hi > degree:
                    pytest.fail(f"words of length up to {hi} listed")
                return lists(n, lo, hi)

            # also in the modules that bind no enumerate_words today, so an import
            # that comes back is guarded
            for module in (words, ncdomains.domain, transfer, ncdomains.poisson):
                m.setattr(module, "enumerate_words", guarded_tables, raising=False)
            m.setattr(ncdomains.domain, "words_of_lengths", guarded_lists)
            got = run(col, N)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_fourier_coefficients_match_vacuum_columns():
    """The coefficient of L_u, Theta_{u~} (the table at the digit-reversed
    word), is sqrt(b_{u~}) (rows of u~, vacuum columns) of the oracle block,
    for every u with |u| <= N."""
    for col in oracle_colligations():
        f, N = col.triple.f, 5
        tf = eval_transfer(col, N)
        index, b = word_index(enumerate_words(f.n, N)), b_by_word(f, N)
        for j, ref in enumerate(oracle_blocks(col, N)):
            for u in enumerate_words(f.n, N).words:
                i = index[reverse(u)]
                old = np.sqrt(b[reverse(u)]) * ref[i * tf.r_out:(i + 1) * tf.r_out, :tf.r_in]
                assert (np.linalg.norm(tf.theta[i, :, j] - old)
                        <= 1e-12 * max(np.linalg.norm(ref), 1.0))


def test_resolvent_corner_matches_inverse():
    """The Y-table M is the corner of the dense inverse; its other columns vanish."""
    for col in oracle_colligations():
        f, N = col.triple.f, 5
        K = N - f.degree
        _, m_ref = dense_resolvent(col, N)
        table = _coefficient_table(col, K, col.d_block, col.C.conj().T)
        m = _scatter(table, f, K, table.shape[1:])
        rows, cols = m.shape
        assert np.linalg.norm(m - m_ref[:rows, :cols]) <= 1e-12 * np.linalg.norm(m_ref)
        assert np.linalg.norm(m_ref[:rows, cols:]) <= 1e-12 * np.linalg.norm(m_ref)


def gram_colligations() -> list[Colligation]:
    """n = 1 and n = 2 with deg f = 2, both with g = z + z^2 (m2 = 2 blocks)."""
    g = RegularPolynomial.single_variable([1.0, 1.0])
    fs = [RegularPolynomial.single_variable([1.0, 0.5]),
          RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})]
    cols = [complete_to_unitary(build_isometry(commuting_triple(seed, 3, f, g)))
            for seed, f in enumerate(fs)]
    assert all(col.dims["m2"] >= 2 for col in cols)
    return cols


def test_row_gram_matches_dense_blocks():
    """The table Gram equals the Gram of the stacked dense blocks, on every row
    level, also with a non-constant scale on the column blocks."""
    rng = np.random.default_rng(0)
    for col in gram_colligations():
        N = 4
        tf = eval_transfer(col, N)
        table = enumerate_words(col.triple.f.n, N)
        for K in range(N + 1):
            rows = fock_size(table.n, K) * tf.r_out
            for words in (None, [(1,)], [(1, 1)], list(tf.block_words)):
                x = np.hstack([dense_block(tf, w)[:rows] for w in (words or tf.block_words)])
                ref = x @ x.conj().T
                err = np.linalg.norm(_row_gram(tf, K, words) - ref)
                assert err <= 1e-13 * np.linalg.norm(ref)

            # sum_y s[y] B_y B_y^*: columns of level > K do not reach these rows
            size = fock_size(table.n, K)
            scale = rng.standard_normal(size)
            cols = [dense_block(tf, w)[:rows, :size * tf.r_in] for w in tf.block_words]
            ref = sum((m * np.repeat(scale, tf.r_in)) @ m.conj().T for m in cols)
            theta = tf.theta.reshape(len(tf.theta), tf.r_out, -1)
            err = np.linalg.norm(_gram(theta, col.triple.f, K, scale) - ref)
            assert err <= 1e-13 * np.linalg.norm(ref)



def gram_calls(monkeypatch, check) -> list[tuple]:
    """The (table, f, K, scale) arguments of each ``_gram`` call made by check()."""
    calls, real = [], transfer._gram

    def spy(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(transfer, "_gram", spy)
        check()
    return calls


def test_gram_matches_the_gathered_oracle_bitwise(monkeypatch):
    """The Gram added through level-block views equals the gathered fancy-index
    form bitwise: n = 1 at N = 26 with a generic scale (one square block per y),
    the twovar tables at N = 4..7 and n = 3 at N = 4 with the unit scale of the
    row Gram and the scale 1 - lambda of the defect identity (1 at the empty
    word and 0 elsewhere on these tables).  For n >= 2 and a
    generic scale the mirror block is the conjugate transpose of the product
    of the other, with the scale on the other factor: equal to rounding."""
    rng = np.random.default_rng(1)
    one_letter = complete_to_unitary(build_isometry(
        commuting_triple(1, 3, RegularPolynomial.single_variable([1.0, 0.5, 0.25]))))
    theta = _coefficient_table(one_letter, 26, one_letter.b_block, one_letter.A.conj().T)
    scale = rng.standard_normal(len(theta))
    assert np.array_equal(_gram(theta, one_letter.triple.f, 26, scale),
                          gram_by_gather(theta, one_letter.triple.f, 26, scale))

    f3 = RegularPolynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0})
    cases = [(col, N) for col in twovar_colligations() for N in (4, 5, 6, 7)]
    cases.append((complete_to_unitary(build_isometry(commuting_triple(3, 4, f3))), 4))
    for col, N in cases:
        tf = eval_transfer(col, N)
        calls = gram_calls(monkeypatch, lambda: (_row_gram(tf, N), defect_identity_residual(tf)))
        assert len(calls) == 3 and np.flatnonzero(calls[2][3]).tolist() == [0]
        for table, f, K, scale in calls:
            assert np.array_equal(_gram(table, f, K, scale), gram_by_gather(table, f, K, scale))
        table, f, K, scale = calls[0]
        scale = rng.standard_normal(len(scale))
        ref = gram_by_gather(table, f, K, scale)
        assert np.linalg.norm(_gram(table, f, K, scale) - ref) <= 1e-15 * np.linalg.norm(ref)


def test_gram_skips_levels_with_zero_scale(monkeypatch):
    """The defect identity's scale 1 - lambda is zero on every y of levels >= 1 on
    the twovar tables: _gram adds no level-block view for them (no einsum call,
    where the unit scale makes some) and still equals the gathered oracle."""
    tf = eval_transfer(twovar_colligations()[0], 6)
    calls = gram_calls(monkeypatch, lambda: defect_identity_residual(tf))
    table, f, K, scale = calls[1]
    assert np.flatnonzero(scale).tolist() == [0]
    for s, expect_views in ((scale, False), (np.ones_like(scale), True)):
        views, real = [], np.einsum
        with monkeypatch.context() as m:
            m.setattr(transfer.np, "einsum", lambda *a: views.append(a) or real(*a))
            gram = _gram(table, f, K, s)
        assert bool(views) == expect_views
        assert np.array_equal(gram, gram_by_gather(table, f, K, s))


def test_row_gram_peaks_below_one_and_a_half_grams():
    """Memory guard: under tracemalloc the N = 7 twovar row Gram (1020^2 complex,
    16.6 MB) peaks at most 1.4 times its own bytes: no gathered copy of a level
    product and no index array (the gathered form peaked at 2.06 times)."""
    tf = eval_transfer(twovar_colligations()[1], 7)
    tracemalloc.start()
    try:
        gram = _row_gram(tf, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.shape == (1020, 1020)
    assert peak <= 1.4 * gram.nbytes


def test_defect_identity_residual_bounds_the_spectral_oracle(monkeypatch):
    """The Frobenius residual lies between the spectral norm of the dense
    difference I - G - R of the gathered Grams and sqrt(dim) times it."""
    tfs = [eval_transfer(col, N) for col in twovar_colligations() for N in (4, 6)]
    tfs += [eval_transfer(col, 4) for col in gram_colligations()]
    for tf in tfs:
        got = []
        calls = gram_calls(monkeypatch, lambda: got.append(defect_identity_residual(tf)))
        lhs, rhs = (gram_by_gather(*args) for args in calls)
        dim = len(lhs)
        ref = float(np.linalg.norm(np.eye(dim) - lhs - rhs, 2))
        assert ref <= got[0] <= np.sqrt(dim) * ref


def twovar_transfers() -> list[TransferFunction]:
    """The transfer rows of the twovar triple shape (f = z1 + z2 + 0.5 z1 z2,
    dimension 4) at N = 4..6."""
    return [eval_transfer(complete_to_unitary(build_isometry(
        commuting_triple(N + 10, 4, F_TRIPLE))), N) for N in (4, 5, 6)]


def assert_lambda_max_is_eigvalsh(gram: np.ndarray) -> float:
    """_lambda_max of a copy of gram against the eigvalsh oracle, to 1e-13 ||G||."""
    ref = np.linalg.eigvalsh(gram)
    got = _lambda_max(gram.copy())
    assert abs(got - ref[-1]) <= 1e-13 * np.abs(ref).max()
    return got


def test_lambda_max_matches_eigvalsh_on_row_grams():
    """The certified Ritz value equals the eigvalsh value on the twovar-shaped row
    Grams, and on tables whose levels >= 2 are scaled by 0.97 or 1.003: rows that
    are no contraction, whose Gram is not I minus a low-rank matrix."""
    for tf in twovar_transfers():
        assert abs(assert_lambda_max_is_eigvalsh(_row_gram(tf, tf.N)) - 1.0) <= 1e-13
        level2 = fock_size(tf.f.n, 1)
        for s in (0.97, 1.003):
            theta = tf.theta.copy()
            theta[level2:] *= s
            broken = TransferFunction(tf.colligation, tf.N, theta)
            lam = assert_lambda_max_is_eigvalsh(_row_gram(broken, tf.N))
            assert contraction_excess(broken) == np.sqrt(lam) - 1.0 > 1e-3


def test_lambda_max_on_small_dense_grams():
    """Generic spectra where the Krylov space closes at the full dimension, and
    the zero Gram; two runs on the same Gram agree bitwise (seeded start)."""
    rng = np.random.default_rng(3)
    for dim in range(1, 13):
        x = rng.standard_normal((dim, dim + 2)) + 1j * rng.standard_normal((dim, dim + 2))
        gram = x @ x.conj().T
        assert assert_lambda_max_is_eigvalsh(gram) == _lambda_max(gram.copy())
    assert _lambda_max(np.zeros((5, 5), dtype=complex)) == 0.0


def spy_eigvalsh(monkeypatch) -> list[int]:
    """The heights of the matrices np.linalg.eigvalsh gets from now on."""
    heights, real = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        heights.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return heights


def test_lambda_max_falls_back_to_eigvalsh(monkeypatch):
    """A certificate that fails at every closure, or Lanczos at its step cap,
    reports the eigvalsh value through one eigvalsh call as tall as the Gram."""
    grams = [_row_gram(tf, tf.N) for tf in twovar_transfers()]
    heights = spy_eigvalsh(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(transfer, "_residual_norm", lambda *args: np.inf)
        for gram in grams:
            heights.clear()
            assert_lambda_max_is_eigvalsh(gram)
            assert heights.count(len(gram)) == 2  # the oracle's and the fallback's
            assert max(heights[1:-1]) == transfer.LANCZOS_STEPS  # closures up to the cap
    monkeypatch.setattr(transfer, "LANCZOS_STEPS", 2)  # the twovar Grams need w + 2 = 6
    for gram in grams:
        heights.clear()
        assert_lambda_max_is_eigvalsh(gram)
        assert heights == [len(gram), len(gram)]  # no closure before the cap


def unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def test_lambda_max_refuses_a_top_eigenvector_outside_the_krylov_space(monkeypatch):
    """G = I + 1e-6 u u^*, u orthogonal to the seeded start v: G v = v, so the
    first Krylov space closes at theta = 1 below lambda_max = 1 + 1e-6.  The
    certificate refuses it and every later closure (R = 1e-6 on the rest of
    the space), and with dim above the step cap the value is eigvalsh's."""
    dim = transfer.LANCZOS_STEPS + 16
    rng = np.random.default_rng(0)  # the start of _lambda_max
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u = unitary(dim, 1)[:, 0]
    u -= v * (np.vdot(v, u) / np.vdot(v, v))
    u /= np.linalg.norm(u)
    gram = np.eye(dim) + 1e-6 * np.outer(u, u.conj())
    heights = spy_eigvalsh(monkeypatch)
    assert assert_lambda_max_is_eigvalsh(gram) - 1.0 > 0.9e-6
    assert heights[1] == 1 and heights[-1] == dim  # closed at k = 1, refused


def test_lambda_max_certifies_a_repeated_eigenvalue_after_a_restart(monkeypatch):
    """Spectrum 1 (dim - 3 times), 0.5 (twice) and 0.2: the first Krylov space
    holds one vector of the 0.5 eigenspace and closes at k = 3, where
    R = 0.5 on the other one refuses it; the restart orthogonal to it closes
    at k = 5 and certifies, with no eigvalsh call as tall as the Gram."""
    dim = 40
    q = unitary(dim, 2)
    spectrum = np.ones(dim)
    spectrum[:3] = 0.5, 0.5, 0.2
    gram = (q * spectrum) @ q.conj().T
    heights = spy_eigvalsh(monkeypatch)
    assert abs(assert_lambda_max_is_eigvalsh(gram) - 1.0) <= 1e-14
    assert heights[1:] == [3, 5]


def test_lambda_max_drops_zero_rows(monkeypatch):
    """Exactly-zero rows and columns add only the eigenvalue 0: they are dropped
    and the rest certifies at the full dimension of its Krylov space (kept, the
    zero rows would refuse every closure: R = theta on them).  A negative
    semidefinite rest gives the 0 of the zero rows."""
    rng = np.random.default_rng(4)
    x = np.zeros((14, 16), dtype=complex)
    x[[0, 2, 3, 7, 8, 12]] = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
    gram = x @ x.conj().T
    heights = spy_eigvalsh(monkeypatch)
    assert_lambda_max_is_eigvalsh(gram)
    assert heights[1:] == [6]
    assert assert_lambda_max_is_eigvalsh(-gram) == 0.0


def test_lambda_max_keeps_the_gram_and_allocates_below_a_quarter_of_it():
    """Memory guard at the N = 7 twovar row Gram (1020^2, 16.6 MB): under
    tracemalloc the certified route peaks below a quarter of the Gram's bytes
    (R is formed a block of rows at a time), and the Gram is not written."""
    tf = eval_transfer(complete_to_unitary(build_isometry(commuting_triple(17, 4, F_TRIPLE))), 7)
    gram = _row_gram(tf, tf.N)
    before = gram.copy()
    assert len(gram) == 1020
    tracemalloc.start()
    try:
        lam = _lambda_max(gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * gram.nbytes
    assert np.array_equal(gram, before)
    assert abs(lam - 1.0) <= 1e-13


def test_row_adjoint_matches_dense_block():
    """phi_(w)^* x from the column plan equals the dense block^* x."""
    rng = np.random.default_rng(1)
    padded = [col for col in oracle_colligations() if col.fallback_padding][:1]
    for col in gram_colligations() + padded:
        N = 4
        tf = eval_transfer(col, N)
        x = (rng.standard_normal((tf.fock_size * tf.r_out, 3))
             + 1j * rng.standard_normal((tf.fock_size * tf.r_out, 3)))
        for j, w in enumerate(tf.block_words):
            ref = dense_block(tf, w).conj().T @ x
            got = _row_adjoint(tf.theta[:, :, j], col.triple.f, N, x)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def dense_commutator_norm(tf, w, left) -> float:
    """Oracle: max_i ||[W_i (x) I, phi_(w)]|| on columns of level <= N-1, all dense."""
    phi = dense_block(tf, w)
    cols = fock_size(tf.f.n, tf.N - 1) * tf.r_in
    out = 0.0
    for wi in left:
        comm = (wi.dense(np.eye(tf.r_out)) @ phi - phi @ wi.dense(np.eye(tf.r_in)))[:, :cols]
        out = max(out, float(np.linalg.norm(comm, 2)))
    return out


def perturbed(shift: WeightedShift, col: int, scale: float) -> WeightedShift:
    weight = shift.weight.copy()
    weight[col] *= scale
    return WeightedShift(shift.target, weight)


def test_multi_analytic_bound_against_dense_commutator(monkeypatch):
    """The bound dominates the dense commutator and becomes nonzero when a shift
    is disturbed: a weight scaled by 1 + 1e-3 or 1.1, or (n = 2) two targets of
    one level swapped, so that targets disagree and the sum of weights bounds."""
    for col in gram_colligations():
        f, N = col.triple.f, 4
        tf = eval_transfer(col, N)
        left = weighted_creation(f, N)
        for w in tf.block_words:
            assert multi_analytic_residual(tf, w) <= 1e-14
            assert dense_commutator_norm(tf, w, left) <= 1e-13
        cases = [(perturbed(left[0], 0, 1.0 + 1e-3),) + left[1:],
                 left[:-1] + (perturbed(left[-1], 3, 1.1),)]
        if f.n == 2:  # the targets of the words 1 and 2, both one level up
            swapped = left[0].target.copy()
            swapped[[1, 2]] = swapped[[2, 1]]
            cases.append((WeightedShift(swapped, left[0].weight),) + left[1:])
        for bad in cases:
            monkeypatch.setattr(transfer, "weighted_creation", lambda f_, N_, bad=bad: bad)
            for w in tf.block_words:
                ref = dense_commutator_norm(tf, w, bad)
                assert ref > 1e-6
                assert ref <= multi_analytic_residual(tf, w) * (1 + 1e-12)
            monkeypatch.undo()


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
    lam = right_creation(Z, N)
    assert np.linalg.norm(dense_block(tf, (1,)) - lam[0].dense(), 2) <= 1e-13


def test_swap_fourier_single_coefficient():
    """phi = L_{1}: the one nonzero coefficient is Theta_(1) = 1 (n = 1, so each
    word is its own reversal)."""
    col = swap_colligation()
    tf = eval_transfer(col, 5)
    coefs = tf.theta[:, :, 0]  # u = (1,) has index 1
    assert abs(coefs[1][0, 0] - 1.0) <= 1e-13
    for c in np.delete(coefs, 1, axis=0):
        assert np.linalg.norm(c) <= 1e-13


def test_constant_transfer_when_b_zero():
    """B = 0 forces phi = I (x) A^*."""
    u = np.array([[0.6, 0.8], [0.8, -0.6]])  # unitary with B-block = 0... build directly
    col = Colligation(A=u[:1, :1], B=u[:1, 1:] * 0, C=u[1:, :1], D=u[1:, 1:],
                      dims={"d1": 1, "d1p": 1, "d2": 1, "m1": 1, "m2": 1,
                            "pad_e": 0, "pad_u": 0, "pad_v": 0},
                      unitarity_residual=0.0, prescribed_residual=0.0,
                      fallback_padding=False, partial=None,
                      triple=IntertwiningTriple(Z, Z,
                                                OperatorTuple((np.zeros((1, 1)),)),
                                                OperatorTuple((np.zeros((1, 1)),)),
                                                OperatorTuple((np.zeros((1, 1)),))))
    tf = eval_transfer(col, 4)
    size = tf.fock_size
    assert np.linalg.norm(dense_block(tf, (1,)) - np.kron(np.eye(size), col.A.conj().T)) <= 1e-14
    coefs = tf.theta[:, :, 0]
    assert np.linalg.norm(coefs[0] - col.A.conj().T) <= 1e-14
    assert all(np.linalg.norm(c) <= 1e-14 for c in coefs[1:])


def test_fourier_roundtrip_random_triples(fib_poly):
    for seed in range(5):
        tr = nilpotent_triple(seed, 3, f=fib_poly)
        col = complete_to_unitary(build_isometry(tr))
        tf = eval_transfer(col, 6)
        for m in (2, 3):
            assert fourier_roundtrip_residual(tf, (1,), m) <= 1e-8


def test_fourier_max_level_validation():
    """max_level runs over 0..N; N itself is checked."""
    col = swap_colligation()
    tf = eval_transfer(col, 4)
    assert fourier_roundtrip_residual(tf, (1,), 4) <= 1e-15
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=r"outside 0\.\.N = 0\.\.4"):
            fourier_roundtrip_residual(tf, (1,), bad)


def test_fourier_roundtrip_reads_every_level_exactly():
    """On the twovar-shaped triples the round trip reads rounding only, at
    every max_level 0..N (measured at most 9e-17)."""
    for col in twovar_colligations()[1:]:
        tf = eval_transfer(col, 6)
        for w in tf.block_words:
            for m in range(tf.N + 1):
                assert fourier_roundtrip_residual(tf, w, m) <= 1e-15


def test_fourier_roundtrip_sees_a_wrong_table_entry():
    """Scaling the largest entry of one level-1 or level-2 Theta_u by 1.001 moves
    the round trip at max_level 2 above 1e-8 (measured 1.4e-6 to 2.9e-4)."""
    for col in twovar_colligations()[1:]:
        tf = eval_transfer(col, 6)
        for k in range(1, fock_size(2, 2)):
            theta = tf.theta.copy()
            entry = theta[k].reshape(-1)
            entry[np.argmax(np.abs(entry))] *= 1.001
            assert fourier_roundtrip_residual(TransferFunction(col, 6, theta), (1,), 2) > 1e-8


def test_fourier_roundtrip_sees_the_weights_of_the_d_term():
    """A table built without sqrt(a_w) on the D term of ``_coefficient_table``
    (D_(w) divided by sqrt(a_w) first, so sqrt(a_w) D_(w)^* becomes D_(w)^*)
    fails the round trip at max_level N: f = z1 + z2 + 0.5 z1 z2, so the 0.5 z1 z2
    D term enters at level 3 (measured 4.3e-6 and 3.0e-5 at N = 6),
    while ``multi_analytic_residual``, which reads only f's weights and the
    ||Theta_u||, stays at 0.0."""
    for col in twovar_colligations()[1:]:
        f, w, N = col.triple.f, col.slot_dim, 6
        d = col.D.copy()
        for i, word in enumerate(coefficient_words(f)):
            if f.coeffs.get(word, 0.0):
                d[:, i * w:(i + 1) * w] /= np.sqrt(f.coeffs[word])
        mutant = TransferFunction(col, N, eval_transfer(dataclasses.replace(col, D=d), N).theta)
        assert fourier_roundtrip_residual(mutant, (1,), 2) <= 1e-15
        assert fourier_roundtrip_residual(mutant, (1,), N) > 1e-8
        assert multi_analytic_residual(mutant, (1,)) == 0.0


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
    # deg f = 2, so the weights sqrt(b_y / b_{yw}) of L_{w~} are not all 1
    for col in gram_colligations():
        assert defect_identity_residual(eval_transfer(col, 4)) <= 1e-12


def test_defect_identity_needs_a_checked_level(fib_poly):
    """N < deg f leaves no row on which the identity is exact."""
    col = complete_to_unitary(build_isometry(nilpotent_triple(0, 3, f=fib_poly)))
    assert defect_identity_residual(eval_transfer(col, 2)) <= 1e-8
    with pytest.raises(ValueError, match="deg f"):
        defect_identity_residual(eval_transfer(col, 1))


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
                     dilation_identity_report(tf, K1, K1, tol=1e-7).checks)
    series_res = series_oracle(col, p_max=5).checks[0].value
    assert abs(kernel_res - series_res) <= 1e-8


def test_degree_two_g_blocks(fib_poly):
    """deg g = 2: the transfer row has m2 = 2 blocks, both extracted."""
    tr = nilpotent_triple(1, 4, f=Z, g=fib_poly)
    col = complete_to_unitary(build_isometry(tr))
    assert col.dims["m2"] == 2
    N = 5
    tf = eval_transfer(col, N)
    assert len(tf.block_words) == 2
    K1 = poisson_kernel(Z, tr.T1, N)
    rep = dilation_identity_report(tf, K1, K1, tol=1e-7)
    assert rep.passed, rep.render()
    assert contraction_excess(tf) <= 1e-8
