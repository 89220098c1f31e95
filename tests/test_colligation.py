import dataclasses
import itertools

import numpy as np
import pytest

import ncdomains.colligation
from ncdomains import (IntertwiningTriple, OperatorTuple, RegularPolynomial,
                       build_isometry, complete_to_unitary, series_oracle)
from ncdomains.colligation import (Colligation, _delta1_hat, series_term_by_words,
                                   solve_padding)

from conftest import colligation_matrix, phi_map, random_nilpotent_tuple, seeded_unitary

Z = RegularPolynomial.single_variable([1.0])


def scalar_zero_triple():
    zero = OperatorTuple((np.zeros((1, 1)),))
    return IntertwiningTriple(Z, Z, zero, zero, zero)


def nilpotent_triple(seed: int, dim: int, f=Z, g=Z):
    """T1 strictly upper, T2 a constant-free polynomial of T1 (so they commute)."""
    rng = np.random.default_rng(seed)
    T1 = random_nilpotent_tuple(seed, 1, dim, f)
    c = rng.standard_normal(2)
    t2 = c[0] * T1.mats[0] + c[1] * (T1.mats[0] @ T1.mats[0])
    from ncdomains.harness import scale_into_domain
    T2 = scale_into_domain(g, OperatorTuple((t2,)), 0.9)
    return IntertwiningTriple(f, g, T1, T1, T2)


def test_scalar_swap_example():
    """f = g = z, all tuples zero: domain column (1,0), range column (0,1)."""
    partial = build_isometry(scalar_zero_triple())
    assert np.allclose(partial.domain_vectors, [[1.0], [0.0]])
    assert np.allclose(partial.range_vectors, [[0.0], [1.0]])
    col = complete_to_unitary(partial)
    # the completion is the 2x2 swap
    assert np.allclose(colligation_matrix(col), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert col.unitarity_residual <= 1e-12
    assert col.prescribed_residual <= 1e-12


def test_build_isometry_reuses_the_defect_of_t1_as_that_of_t1p(monkeypatch):
    """An Ando triple (T1' is T1) computes T1's defect once and T2's once; an equal
    but distinct T1' still gets its own defect."""
    calls = []
    defect = ncdomains.colligation.defect
    monkeypatch.setattr(ncdomains.colligation, "defect",
                        lambda f, T: calls.append(T) or defect(f, T))
    triple = nilpotent_triple(3, 4)
    ando = build_isometry(triple)
    assert len(calls) == 2 and ando.d1p_defect is ando.d1_defect
    calls.clear()
    T1p = OperatorTuple(tuple(m.copy() for m in triple.T1.mats))
    distinct = build_isometry(dataclasses.replace(triple, T1p=T1p))
    assert len(calls) == 3
    assert np.array_equal(distinct.domain_vectors, ando.domain_vectors)
    assert np.array_equal(distinct.range_vectors, ando.range_vectors)


def test_complete_to_unitary_rejects_row_mismatch():
    partial = build_isometry(scalar_zero_triple())
    short = dataclasses.replace(partial, range_vectors=partial.range_vectors[:-1])
    with pytest.raises(ValueError, match="do not match the dims"):
        complete_to_unitary(short)


def test_zero_second_tuple_range():
    """T2 = 0: the range column is 0 (+) Delta_{T2} h with Delta_{T2} = I."""
    T1 = random_nilpotent_tuple(1, 1, 3)
    zero = OperatorTuple((np.zeros((3, 3)),))
    partial = build_isometry(IntertwiningTriple(Z, Z, T1, T1, zero))
    d1p = partial.d1p_defect.rank
    assert np.linalg.norm(partial.range_vectors[:d1p]) == 0.0
    assert np.allclose(partial.range_vectors[d1p:], np.eye(3))


def test_gram_identity_random_triples():
    for seed in range(8):
        partial = build_isometry(nilpotent_triple(seed, 4))
        assert partial.gram_residual <= 1e-12


def test_defect_identity_direct():
    """Delta1^2 + Phi_f(Delta2^2) = Phi_g(Delta1'^2) + Delta2^2 for triples."""
    from ncdomains import defect
    tr = nilpotent_triple(4, 4)
    d1 = defect(tr.f, tr.T1).delta
    d1p = defect(tr.f, tr.T1p).delta
    d2 = defect(tr.g, tr.T2).delta
    lhs = d1 @ d1 + phi_map(tr.f, tr.T1, d2 @ d2)
    rhs = phi_map(tr.g, tr.T2, d1p @ d1p) + d2 @ d2
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_non_intertwining_rejected():
    rng = np.random.default_rng(0)
    a = np.triu(rng.standard_normal((3, 3)), 1) * 0.1
    b = np.triu(rng.standard_normal((3, 3)), 1) * 0.1
    assert np.linalg.norm(a @ b - b @ a) > 1e-6  # generic non-commuting
    with pytest.raises(ValueError):
        IntertwiningTriple(Z, Z, OperatorTuple((a,)), OperatorTuple((a,)),
                           OperatorTuple((b,)))


def test_rectangular_t2_deg2_rejected():
    f2 = RegularPolynomial.single_variable([1.0, 0.5])
    T1 = random_nilpotent_tuple(2, 1, 3, f2)
    T1p = OperatorTuple((T1.mats[0][:2, :2],))
    A = np.zeros((3, 2), dtype=complex)
    A[:2] = np.eye(2)
    with pytest.raises(ValueError):
        IntertwiningTriple(f2, f2, T1, T1p, OperatorTuple((A,)))


def test_solve_padding_balanced():
    # m1 = m2 = 1: balance requires d1 = d1p
    assert solve_padding(3, 3, 2, 1, 1) == (0, 0, 0, False)
    # theorem regime: d1 + m1 d2 = d2 + m2 d1 with d1p = d1
    assert solve_padding(2, 2, 2, 3, 3) == (0, 0, 0, False)
    # e-solvable: d1=1, d1p=1, d2=0, m1=2, m2=1: 1+2e = 1+e only at e=0
    assert solve_padding(1, 1, 0, 2, 1) == (0, 0, 0, False)


def test_solve_padding_fallback():
    e, u, v, fb = solve_padding(3, 1, 2, 1, 1)
    assert fb
    assert 3 + u + (2 + e) == 1 + v + (2 + e)
    e, u, v, fb = solve_padding(1, 1, 1, 2, 1)  # domain bigger, must pad range
    assert fb and u >= 0 and v >= 0
    assert 1 + u + 2 * (1 + e) == (1 + v) + (1 + e)


def test_solve_padding_matches_the_search():
    """The closed form (m1 - 1) e = gap against the former search for the first
    e in 0..512 with d1 + m1 (d2 + e) = m2 d1p + d2 + e, whose fallback it
    keeps, for d1, d1p, d2 <= 8 and m1, m2 <= 15 (164,025 cases)."""
    cases = np.stack(np.meshgrid(*[np.arange(9)] * 3, *[np.arange(1, 16)] * 2,
                                 indexing="ij")).reshape(5, -1).T
    e = np.arange(513)
    for chunk in np.array_split(cases, 64):
        d1, d1p, d2, m1, m2 = (c[:, None] for c in chunk.T)
        solves = d1 + m1 * (d2 + e) == m2 * d1p + d2 + e
        for case, hit, first in zip(chunk.tolist(), solves.any(axis=1), solves.argmax(axis=1)):
            d1, d1p, d2, m1, m2 = case
            gap = m2 * d1p + d2 - d1 - m1 * d2
            v = max(0, (-gap + m2 - 1) // m2)
            want = ((int(first), 0, 0, False) if hit else
                    (0, gap, 0, True) if gap >= 0 else (0, gap + m2 * v, v, True))
            assert solve_padding(*case) == want, case
    # an exact e above the former search range is used, with no fallback
    assert solve_padding(0, 600, 0, 2, 1) == (600, 0, 0, False)


def test_unitarity_and_prescribed_action_many_seeds():
    for seed in range(10):
        col = complete_to_unitary(build_isometry(nilpotent_triple(seed, 3 + seed % 3)))
        assert col.unitarity_residual <= 1e-10
        assert col.prescribed_residual <= 1e-10


def seeded_partials():
    """Structural isometries of f = g = z triples (no padding, so C^total is both the
    domain and the range space), and one of rank 2 on four columns: a seeded
    (6 x 2)(2 x 4) block and its image under a seeded unitary."""
    partials = [build_isometry(nilpotent_triple(seed, 3 + seed % 3)) for seed in range(8)]
    rng = np.random.default_rng(11)
    low = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4)) / 4
    partials.append(dataclasses.replace(partials[0], domain_vectors=low,
                                        range_vectors=seeded_unitary(12, 6) @ low))
    return partials


def test_completion_is_the_polar_part_of_x_and_follows_a_change_of_basis():
    """U = X (X^* X)^{-1/2} with V = ran dom^+ and X = V + (I - V V^*)(I + V^*)(I - V^* V),
    U dom = ran, and the completion of (L dom, L ran) is L U L^* for a unitary L on
    C^total.  The eigh route to the polar part loses eps / sigma_min(X)^2 (3.1e-14 at
    sigma_min 0.063, seed 7), so it is held to 1e-12."""
    for k, partial in enumerate(seeded_partials()):
        dom, ran = partial.domain_vectors, partial.range_vectors
        u = colligation_matrix(complete_to_unitary(partial))
        assert np.abs(u @ dom - ran).max() <= 1e-13
        lam = seeded_unitary(100 + k, len(dom))
        moved = complete_to_unitary(dataclasses.replace(
            partial, domain_vectors=lam @ dom, range_vectors=lam @ ran))
        assert np.abs(colligation_matrix(moved) - lam @ u @ lam.conj().T).max() <= 1e-13
        v = ran @ np.linalg.pinv(dom, rcond=1e-10)
        eye = np.eye(len(v))
        x = v + (eye - v @ v.conj().T) @ (eye + v.conj().T) @ (eye - v.conj().T @ v)
        evals, evecs = np.linalg.eigh(x.conj().T @ x)
        assert np.abs(u - x @ (evecs / np.sqrt(evals)) @ evecs.conj().T).max() <= 1e-12


def test_series_oracle_nilpotent_terminates():
    for seed in (0, 5, 9):
        tr = nilpotent_triple(seed, 4)
        col = complete_to_unitary(build_isometry(tr))
        rep = series_oracle(col, p_max=5)
        assert rep.passed, rep.render()
        assert max(rec.value for rec in rep.checks if rec.kind == "residual") <= 1e-10


def test_series_oracle_t1_zero_single_term():
    """T1 = 0: the series reduces to A Delta_1 alone."""
    d = 3
    rng = np.random.default_rng(7)
    zero = OperatorTuple((np.zeros((d, d)),))
    t2 = rng.standard_normal((d, d)) * 0.2
    T2 = OperatorTuple((t2.astype(complex),))
    tr = IntertwiningTriple(Z, Z, zero, zero, T2)
    col = complete_to_unitary(build_isometry(tr))
    rep = series_oracle(col, p_max=0)
    assert rep.passed, rep.render()


def test_series_oracle_scalar_contraction_tail():
    """Non-nilpotent scalar: residual bounded by the reported tail."""
    t1 = OperatorTuple((np.array([[0.6]]),))
    t2 = OperatorTuple((np.array([[0.5]]),))
    tr = IntertwiningTriple(Z, Z, t1, t1, t2)
    col = complete_to_unitary(build_isometry(tr))
    for p_max in (2, 6, 12):
        rep = series_oracle(col, p_max=p_max)
        res = rep.checks[0].value
        tail = float(rep.environment["tail_bound"])
        assert res <= tail + 1e-10
        assert abs(tail - 0.6 ** (p_max + 2)) <= 1e-12
    # residual decays as p_max grows
    r_small = series_oracle(col, p_max=2).checks[0].value
    r_big = series_oracle(col, p_max=20).checks[0].value
    assert r_big < r_small


def test_two_path_degree_two(fib_poly):
    """Nested-diag recursion vs word-indexed products for deg f = 2."""
    tr = nilpotent_triple(3, 4, f=fib_poly)
    col = complete_to_unitary(build_isometry(tr))
    rep = series_oracle(col, p_max=3)
    two_path = [c for c in rep.checks if c.name.startswith("two_path")]
    assert len(two_path) == 4
    assert all(c.value <= 1e-10 for c in two_path)


def series_term_from_scratch(col: Colligation, p: int) -> np.ndarray:
    """Oracle of ``series_term_by_words``: every prefix product and every T1 word
    rebuilt for each word tuple (the body before the products were shared)."""
    f, T1 = col.triple.f, col.triple.T1
    words = f.support()
    cd1 = col.C @ _delta1_hat(col)
    h = cd1.shape[1]
    blocks = []
    for w_outer in words:
        acc = np.zeros((col.slot_dim, h), dtype=complex)
        for tup in itertools.product(range(len(words)), repeat=p):
            coef = f.coeffs[w_outer]
            mat = cd1
            for idx in tup:
                coef *= f.coeffs[words[idx]]
                mat = col.d_block(idx) @ mat
            full_word = w_outer
            for idx in reversed(tup):
                full_word = full_word + words[idx]
            acc += np.sqrt(coef) * (mat @ T1.word(full_word).conj().T)
        blocks.append(acc)
    return col.B @ np.vstack(blocks)


def test_series_term_by_words_matches_the_from_scratch_build():
    """Sharing the prefix products and T1 words changes no bit: the twovar-shaped
    triples (f = z1 + z2 + 0.5 z1 z2) and the n = 1, 2 Gram colligations
    (g = z + z^2), p = 0..3."""
    from test_transfer import F_TRIPLE, commuting_triple, gram_colligations
    cols = [complete_to_unitary(build_isometry(commuting_triple(N + 10, 4, F_TRIPLE)))
            for N in (4, 5, 6)] + gram_colligations()
    for col in cols:
        for p in range(4):
            assert np.array_equal(series_term_by_words(col, p), series_term_from_scratch(col, p))


def test_dims_recorded():
    col = complete_to_unitary(build_isometry(nilpotent_triple(0, 3)))
    dims = col.dims
    total_dom = dims["d1"] + dims["pad_u"] + dims["m1"] * (dims["d2"] + dims["pad_e"])
    total_ran = dims["m2"] * (dims["d1p"] + dims["pad_v"]) + dims["d2"] + dims["pad_e"]
    assert total_dom == total_ran == colligation_matrix(col).shape[0]
