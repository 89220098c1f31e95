import dataclasses
import json
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncdomains.variety as variety
from ncdomains import (OperatorTuple, RegularPolynomial, b_coefficients, build_variety,
                       commutator_generators, constrained_poisson, enumerate_words,
                       minpoly_generator, poisson_kernel,
                       verify_constrained_kernel, weighted_creation)
from ncdomains.cli import main
from ncdomains.domain import kron_identity_matmul
from ncdomains.harness import scale_into_domain
from ncdomains.report import parse_report
from ncdomains.words import fock_size
from ncdomains.variety import (VarietyModel, _graded_complement, _span_complement,
                               _split_span, generator_degree)

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


def assert_symmetric_fock(basis: np.ndarray, n: int, N: int) -> None:
    """Closed-form oracle: for f = z1 + ... + zn every weight is 1, and the model
    of the commutator ideal is the symmetric Fock space at every level.  With
    equal dimensions, ||Q Q^* - S S^*||_2 = ||Q - S S^* Q||_2 for orthonormal Q, S,
    so the level projectors are compared without a Fock^2 matrix."""
    table = enumerate_words(n, N)
    for m in range(N + 1):
        q = basis[table.level_slice(m)]
        q = q[:, np.linalg.norm(q, axis=0) > 0]
        s = symmetric_level_basis(n, m)
        assert q.shape[1] == s.shape[1] == comb(n + m - 1, m)
        assert np.linalg.norm(q - s @ (s.T @ q), 2) <= 1e-12


def graded_commutator_basis(f: RegularPolynomial, N: int) -> np.ndarray:
    """The level-by-level build of the commutator ideal's model, called directly."""
    live = [(q, 2) for q in commutator_generators(f.n)]
    return _graded_complement(enumerate_words(f.n, N), weighted_creation(f, N), live)[0]


def test_commutator_model_is_the_symmetric_fock_space():
    """The closed-form build of ``build_variety`` (see ``assert_symmetric_fock``)."""
    for n, N in ((3, 7), (2, 8)):
        assert_symmetric_fock(build_variety(drury_poly(n), N, commutator_generators(n)).basis,
                              n, N)


def test_graded_commutator_model_is_the_symmetric_fock_space():
    """The level-by-level build on the same cases (see ``assert_symmetric_fock``)."""
    for n, N in ((3, 7), (2, 8)):
        assert_symmetric_fock(graded_commutator_basis(drury_poly(n), N), n, N)


def traced_peak(build) -> int:
    """The ``tracemalloc`` peak of one call of build, after a warm-up call."""
    build()  # warm the word table and weights
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_commutator_build_peak_memory():
    """The closed-form build at (n, N) = (3, 7), Fock 3,280 and model dimension
    120, peaks below 10 MB (7.2 MB measured, 6.3 MB of it the basis): no factorization
    and no dense compression."""
    f = drury_poly(3)
    peak = traced_peak(lambda: build_variety(f, 7, commutator_generators(3)))
    assert peak < 10e6, peak


def test_graded_commutator_build_peak_memory():
    """The level-by-level build of the same model, its weights included, peaks below
    10 MB (9.0 MB measured): no Fock-row generator block, and a frame from per-letter
    QRs with no candidate block beside it."""
    f = drury_poly(3)
    peak = traced_peak(lambda: graded_commutator_basis(f, 7))
    assert peak < 10e6, peak


def content_beta(f: RegularPolynomial, N: int) -> dict[tuple[int, ...], float]:
    """beta_alpha = sum of b_w over the words w of content (letter counts) alpha, word by word."""
    table, b = enumerate_words(f.n, N), b_coefficients(f, N)
    beta: dict[tuple[int, ...], float] = {}
    for w, bw in zip(table.words, b):
        alpha = tuple(w.count(i) for i in range(1, f.n + 1))
        beta[alpha] = beta.get(alpha, 0.0) + bw
    return beta


def assert_closed_form_entries(v: VarietyModel) -> None:
    """Each basis column lives on the words of one content alpha, and B_i maps it to
    sqrt(beta_alpha / beta_{alpha + e_i}) times the column of alpha + e_i, and nowhere else."""
    table, beta = enumerate_words(v.f.n, v.N), content_beta(v.f, v.N)
    column = {}
    for j in range(v.dim):
        contents = {tuple(table.words[k].count(i) for i in range(1, v.f.n + 1))
                    for k in np.flatnonzero(v.basis[:, j])}
        assert len(contents) == 1
        column[contents.pop()] = j
    assert sorted(column) == sorted(beta)
    for i, got in enumerate(v.left.mats):
        want = np.zeros_like(got)
        for alpha, j in column.items():
            up = tuple(a + (k == i) for k, a in enumerate(alpha))
            if up in column:
                want[column[up], j] = np.sqrt(beta[alpha] / beta[up])
        assert np.abs(got - want).max() <= 1e-15


def projector_gap(q: np.ndarray, s: np.ndarray) -> float:
    """||Q Q^* - S S^*||_2 for orthonormal Q, S of one shape, as ||Q - S S^* Q||_2."""
    assert q.shape == s.shape
    return float(np.linalg.norm(q - s @ (s.conj().T @ q), 2))


def test_closed_form_matches_graded_and_span_builds():
    """The closed-form commutator model against ``_graded_complement`` and
    ``_span_complement`` called directly: level dimensions C(n+m-1, m) up to N, the
    same projector to 1e-12, B_i equal to the dense compressions, and the B_i
    entries sqrt(beta_alpha / beta_{alpha + e_i}) from a word-by-word beta."""
    varying = RegularPolynomial(2, {(1,): 0.5, (2,): 2.0, (1, 2): 0.7, (2, 2): 0.2})
    varying3 = RegularPolynomial(3, {(1,): 0.5, (2,): 1.0, (3,): 2.0, (1, 3): 0.4, (2, 2): 0.3})
    asymmetric = RegularPolynomial(2, {(1,): 0.5, (2,): 0.3, (1, 2): 0.1})
    for f, N in ((drury_poly(2), 6), (drury_poly(3), 5), (drury_poly(3), 6),
                 (asymmetric, 5), (varying, 5), (varying3, 5)):
        v = build_variety(f, N, commutator_generators(f.n))
        assert level_dimensions(v) == [comb(f.n + m - 1, m) for m in range(N + 1)]
        assert np.linalg.norm(v.basis.conj().T @ v.basis - np.eye(v.dim), 2) <= 1e-12
        table, W = enumerate_words(f.n, N), weighted_creation(f, N)
        live = [(q, 2) for q in commutator_generators(f.n)]
        for build in (_graded_complement, _span_complement):
            assert projector_gap(v.basis, build(table, W, live)[0]) <= 1e-12
        assert_left_matches_dense(v)
        assert_closed_form_entries(v)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([2, 3]), N=st.integers(1, 5),
       letters=st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3),
       squares=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=9, max_size=9))
def test_closed_form_matches_span_oracle_on_random_f(n, N, letters, squares):
    """Random positive f with degree-1 and degree-2 support words: the closed-form
    model projects as the whole-span complement, to 1e-12."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    f = RegularPolynomial(n, {**{(i,): letters[i - 1] for i in range(1, n + 1)},
                              **dict(zip(pairs, squares))})
    v = build_variety(f, N, commutator_generators(n))
    live = [(q, 2) for q in commutator_generators(n)]
    oracle = _span_complement(enumerate_words(n, N), weighted_creation(f, N), live)[0]
    assert v.dim == oracle.shape[1] == comb(n + N, N)
    assert np.linalg.norm(v.basis.conj().T @ v.basis - np.eye(v.dim), 2) <= 1e-12
    assert projector_gap(v.basis, oracle) <= 1e-12


class Refusing:
    """A module stand-in: the ``override`` attributes, and the rest of ``inner``."""

    def __init__(self, inner, **override):
        self.inner, self.override = inner, override

    def __getattr__(self, name):
        return self.override[name] if name in self.override else getattr(self.inner, name)


def refuse_factorizations(monkeypatch) -> None:
    """``np.linalg.qr`` and ``np.linalg.svd`` raise when ``ncdomains.variety`` calls them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a QR or SVD in ncdomains.variety")
    linalg = Refusing(np.linalg, qr=refuse, svd=refuse)
    monkeypatch.setattr(variety, "np", Refusing(np, linalg=linalg))


def entries(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def commutator_check_model_config(tmp_path) -> str:
    """The variety workload's shape: f = z1 + z2 + z3, N = 6, the commutator ideal and
    a 4 x 4 T1 of three polynomials in one nilpotent, scaled to level 0.9."""
    f = drury_poly(3)
    rng = np.random.default_rng(3)
    nil = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
    T1 = scale_into_domain(f, OperatorTuple((nil, nil @ nil - 0.5 * nil, 0.3 * nil @ nil)), 0.9)
    obj = {"f": {"n": 3, "coeffs": {"1": 1.0, "2": 1.0, "3": 1.0}}, "N": 6,
           "matrices": {"T1": [entries(m) for m in T1.mats]}, "variety": {"kind": "commutator"}}
    path = tmp_path / "commutator.json"
    path.write_text(json.dumps(obj))
    return str(path)


def commutator_dilate_config(tmp_path) -> str:
    """f = z1 + z2 over g = z at N = 4 with the commutator ideal: T1 two polynomials in
    one nilpotent and T2 a third one, each scaled to level 0.9."""
    f = drury_poly(2)
    rng = np.random.default_rng(5)
    nil = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 1)
    T1 = scale_into_domain(f, OperatorTuple((nil, 0.4 * nil - nil @ nil)), 0.9)
    T2 = scale_into_domain(RegularPolynomial.single_variable([1.0]),
                           OperatorTuple((0.7 * nil + nil @ nil,)), 0.9)
    obj = {"f": {"n": 2, "coeffs": {"1": 1.0, "2": 1.0}}, "g": {"n": 1, "coeffs": {"1": 1.0}},
           "N": 4, "matrices": {"T1": [entries(m) for m in T1.mats],
                                "T2": [entries(m) for m in T2.mats]},
           "variety": {"kind": "commutator"}}
    path = tmp_path / "dilate.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_commutator_model_takes_no_factorization(tmp_path, capsys, monkeypatch):
    """With ``np.linalg.qr`` and ``np.linalg.svd`` refused inside ``ncdomains.variety``,
    the commutator ideal's model still builds, and so does ``check-model`` through a
    config; the graded build of the same ideal, from its generators in another order,
    is refused."""
    refuse_factorizations(monkeypatch)
    for n, N in ((2, 6), (3, 6)):
        assert build_variety(drury_poly(n), N, commutator_generators(n)).dim == comb(n + N, N)
    with pytest.raises(AssertionError):
        build_variety(drury_poly(3), 4, commutator_generators(3)[::-1])
    assert main(["--config", commutator_check_model_config(tmp_path), "check-model"]) == 0
    rep = parse_report(capsys.readouterr().out)
    assert rep.passed and rep.environment["variety_model_dim"] == "84"


def test_closed_form_needs_int64_content_codes():
    """The content codes are base N + 1 in int64: the closed form is taken while
    (N + 1)^n fits there (3^39 < 2^63 < 3^40), and only for the commutator list itself."""
    assert variety._is_commutator_ideal(commutator_generators(39), 39, 2)
    assert not variety._is_commutator_ideal(commutator_generators(40), 40, 2)
    assert not variety._is_commutator_ideal(commutator_generators(3)[::-1], 3, 5)
    assert not variety._is_commutator_ideal(commutator_generators(3) + [{(1, 1): 1.0}], 3, 5)


@pytest.mark.parametrize("verb, config", [("check-model", commutator_check_model_config),
                                          ("dilate", commutator_dilate_config)])
def test_commutator_reports_match_the_graded_build(tmp_path, capsys, monkeypatch, verb, config):
    """The reports from the closed-form model and from a run forced onto the graded
    build have the same check names, kinds and env keys, and every value within 1e-12."""
    path = config(tmp_path)
    reports = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(variety, "_is_commutator_ideal", lambda *args: False)
        assert main(["--config", path, verb]) == 0
        reports.append(parse_report(capsys.readouterr().out))
    closed, graded = reports
    assert [(c.name, c.kind) for c in closed.checks] == [(c.name, c.kind) for c in graded.checks]
    for a, b in zip(closed.checks, graded.checks):
        assert abs(a.value - b.value) <= 1e-12 and a.tolerance == b.tolerance, a.name
    assert closed.environment.keys() == graded.environment.keys()
    for key, value in closed.environment.items():
        try:
            assert abs(float(value) - float(graded.environment[key])) <= 1e-12, key
        except ValueError:
            assert value == graded.environment[key], key


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
    dense = np.kron(v.basis.conj().T, np.eye(K.multiplicity)) @ K.matrix
    assert np.linalg.norm(constrained_poisson(v, K) - dense, 2) <= 1e-14
    # conj((basis^T (x) I) conj(K)) is (basis^* (x) I) K with the conjugated basis, bitwise
    nil = np.triu(np.arange(1.0, 17.0).reshape(4, 4) * (1 + 0.5j), 1) / 40
    T3 = OperatorTuple((nil, 0.5 * nil @ nil, nil - nil @ nil))
    for model, base in ((v, K), (build_variety(drury_poly(3), 6, commutator_generators(3)),
                                 poisson_kernel(drury_poly(3), T3, 6))):
        assert np.array_equal(constrained_poisson(model, base),
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
    rep = verify_constrained_kernel(v, poisson_kernel(z, T, 14), tol=1e-9)
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
    rep = verify_constrained_kernel(v, poisson_kernel(f, T, N), tol=1e-9)
    assert rep.passed, rep.render()


def slow_minpoly_case() -> tuple:
    """f = z, T = diag(0.7, 0.5) + 0.3 * superdiagonal scaled to lambda_max Phi(I) = 0.95,
    N = 10 and the minimal polynomial of T: the kernel's tail decays slowly."""
    t = np.diag([0.7, 0.5]) + 0.3 * np.eye(2, k=1)
    t *= np.sqrt(0.95 / np.linalg.eigvalsh(t @ t.T).max())
    z = RegularPolynomial.single_variable([1.0])
    return z, OperatorTuple((t.astype(complex),)), 10, [minpoly_generator(list(np.diag(t)))]


def roots_case() -> tuple:
    roots = [0.8, -0.6 + 0.2j, 0.3j]
    return (RegularPolynomial.single_variable([1.0]), OperatorTuple((np.diag(roots).astype(complex),)),
            12, [minpoly_generator(roots)])


def commuting_case(n: int, N: int) -> tuple:
    """The commutator ideal of f = z1 + ... + zn at N, with a diagonalizable commuting
    3 x 3 tuple S D_i S^{-1} scaled to level 0.5."""
    f = drury_poly(n)
    rng = np.random.default_rng(n)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mats = tuple(s @ np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3)) @ np.linalg.inv(s)
                 for _ in range(n))
    return f, scale_into_domain(f, OperatorTuple(mats), 0.5), N, commutator_generators(n)


INTERTWINING_CASES = [("slow-minpoly", slow_minpoly_case, False), ("roots", roots_case, False),
                      ("commutator-3-5", lambda: commuting_case(3, 5), False),
                      ("commutator-3-5-graded", lambda: commuting_case(3, 5), True),
                      ("commutator-2-6", lambda: commuting_case(2, 6), False),
                      ("commutator-2-6-graded", lambda: commuting_case(2, 6), True)]


@pytest.mark.parametrize("case, graded", [c[1:] for c in INTERTWINING_CASES],
                         ids=[c[0] for c in INTERTWINING_CASES])
def test_constrained_intertwining_reads_every_model_direction(monkeypatch, case, graded):
    """On the rows below level N, K_J T_i^* = (B_i^* (x) I) K_J holds to rounding in the
    closed form, the graded build and the whole-span build, while the full residual,
    which adds the level-N rows, is far from it; the two differ by exactly the level-N
    cut (basis_N^* (x) I)(K T_i^*)_N, taken here by a dense kron."""
    f, T, N, gens = case()
    if graded:
        monkeypatch.setattr(variety, "_is_commutator_ideal", lambda *args: False)
    v = build_variety(f, N, gens)
    K = poisson_kernel(f, T, N)
    rep = verify_constrained_kernel(v, K, tol=1e-9)
    assert rep.passed, rep.render()
    values = {c.name: c.value for c in rep.checks}
    kj, r, top = constrained_poisson(v, K), K.multiplicity, fock_size(f.n, N - 1)
    for i in range(f.n):
        t_h = T.mats[i].conj().T
        full = kj @ t_h - np.kron(v.left.mats[i].conj().T, np.eye(r)) @ kj
        cut = np.kron(v.basis[top:].conj().T, np.eye(r)) @ (K.matrix[top * r:] @ t_h)
        assert values[f"intertwine_B{i + 1}"] <= 1e-13
        assert values[f"intertwine_B{i + 1}_full"] >= 1e-5
        assert abs(np.linalg.norm(full - cut, 2) - values[f"intertwine_B{i + 1}"]) <= 1e-13


def test_constrained_intertwining_catches_a_planted_fault():
    """A 1e-6 error in B_1 fails intertwine_B1 on the slow-decay minpoly model, where
    intertwine_B1_full stays within its tail bound."""
    f, T, N, gens = slow_minpoly_case()
    v = build_variety(f, N, gens)
    bad = dataclasses.replace(v, left=OperatorTuple((v.left.mats[0] + 1e-6 * np.eye(v.dim, k=-1),)))
    rep = verify_constrained_kernel(bad, poisson_kernel(f, T, N), tol=1e-9)
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == ["intertwine_B1"], rep.render()


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
