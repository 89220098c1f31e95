import dataclasses
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ncdomains.colligation
import ncdomains.harness
import ncdomains.parallel
import ncdomains.transfer
from ncdomains import (BiPolynomial, OperatorTuple,
                       RegularPolynomial, apply_phi, ando_dilation, build_isometry,
                       builtin_bipolynomials, builtin_hermitian, builtin_matrix_polys,
                       builtin_polys, complete_to_unitary, domain_membership, grid_sup_norm,
                       poisson_kernel, random_commuting_pair, run_battery,
                       verify_inequality)
from ncdomains.colligation import embed_inner
from ncdomains.domain import kron_identity_matmul, weighted_creation
from ncdomains.harness import (MAX_CHOSEN_WORDS, PAIR_KINDS, TORUS_RESOLUTION, CommutingPair,
                               choose_truncation, cross_commutation_residual,
                               scale_into_domain, spectral_norms, von_neumann_check)
from ncdomains.report import parse_report
from ncdomains.transfer import (_lambda_max, contraction_excess,
                                defect_identity_residual, dilation_identity_report,
                                eval_transfer, fourier_roundtrip_residual,
                                multi_analytic_residual, realization)
from ncdomains.variety import commutator_generators, minpoly_generator

from conftest import (bisection_scale, commutant_lifting, compression_residual, dense_block,
                      dense_compression, power_pair_tuple, random_nilpotent_tuple)
from test_transfer import commuting_triple

Z = RegularPolynomial.single_variable([1.0])
EPS = np.finfo(float).eps


def test_scale_into_domain():
    rng = np.random.default_rng(0)
    T = OperatorTuple((rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),))
    S = scale_into_domain(Z, T, 0.4)
    top = float(np.linalg.norm(S.mats[0] @ S.mats[0].conj().T, 2))
    assert top <= 0.4 + 1e-9
    assert top >= 0.4 - 1e-9  # the closed form is exact for deg f = 1


def _dense_tuple(seed: int, n: int) -> OperatorTuple:
    rng = np.random.default_rng(seed)
    return OperatorTuple(tuple(3.0 * (rng.standard_normal((4, 4))
                                      + 1j * rng.standard_normal((4, 4))) for _ in range(n)))


def test_scale_into_domain_matches_the_bisection_for_degree_one():
    """For deg f = 1, Phi_{f,sT}(I) = s^2 Phi_{f,T}(I): the closed-form scale is the one
    the 80-step bisection closes in on, to the rounding of lambda_max.  Each side reads
    lambda_max from eigvalsh, with a relative error of a few eps that the square root
    halves; 6 eps bounds the 3.9 eps seen over 4,000 seeded 4 x 4 tuples, where 2 eps
    is exceeded by one in twelve."""
    f2 = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    for seed in range(12):
        for f in (Z, f2):
            T = _dense_tuple(seed, f.n)
            for target in (0.4, 0.9):
                s = bisection_scale(f, T, target)
                S = scale_into_domain(f, T, target)
                for a, m in zip(S.mats, T.mats):
                    assert np.allclose(a, s * m, rtol=6 * EPS, atol=0.0)


def test_scale_into_domain_bounds_higher_degrees():
    """For deg f >= 2 the scale is the provable one: Phi_{f,sT}(I) <= s^2 Phi_{f,T}(I)."""
    for f in (RegularPolynomial.single_variable([1.0, 1.0]),
              RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})):
        for seed in range(12):
            for target in (0.4, 0.9):
                val = apply_phi(f, scale_into_domain(f, _dense_tuple(seed, f.n), target))
                top = float(np.linalg.eigvalsh((val + val.conj().T) / 2).max())
                assert top <= target * (1 + 4 * EPS)


def test_scale_into_domain_keeps_inner_tuples_and_refuses_bad_targets():
    T = OperatorTuple((np.array([[0.0, 0.5], [0.0, 0.0]]),))
    assert scale_into_domain(Z, T, 0.4) is T
    assert scale_into_domain(Z, T, 0.25) is T  # lambda_max(Phi(I)) = 0.25, at the target
    for target in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="target"):
            scale_into_domain(Z, T, target)


def test_random_pairs_commute_and_are_members():
    from ncdomains import domain_membership
    for seed in range(6):
        for kind in ("jointly-nilpotent", "polynomial-of-single",
                     "upper-triangular-commuting"):
            pair = random_commuting_pair(seed, 4, kind, Z, Z)
            assert cross_commutation_residual(pair.T1, pair.T2) <= 1e-10
            assert domain_membership(Z, pair.T1).in_domain
            assert domain_membership(Z, pair.T2).in_domain


@pytest.mark.parametrize("slot", ["T1", "T2"])
def test_pair_refuses_a_wrong_length_when_constructed(slot):
    """A tuple whose length misses its polynomial is refused by the pair's own triple,
    before any dilation, even when its letters commute."""
    letters = {"T1": (0.3 * np.eye(2),), "T2": (0.2 * np.eye(2),)}
    letters[slot] = letters[slot] * 2
    with pytest.raises(ValueError, match="length must match"):
        CommutingPair(Z, Z, OperatorTuple(letters["T1"]), OperatorTuple(letters["T2"]))


def test_non_commuting_pair_is_refused_with_the_triple_residual():
    up, down = np.array([[0.0, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match=r"intertwining residual 2\.500e-01 exceeds tol"):
        CommutingPair(Z, Z, OperatorTuple((up,)), OperatorTuple((down,)))


def test_battery_pair_checks_its_commutation_once_per_pair(monkeypatch):
    """A battery pair and its swap each validate their triple; the two dilations
    reuse those triples and compute no further residual."""
    calls = []
    residual = ncdomains.colligation.intertwining_residual
    monkeypatch.setattr(ncdomains.colligation, "intertwining_residual",
                        lambda *args: calls.append(args) or residual(*args))
    ncdomains.harness._battery_pair(Z, Z, builtin_polys(), 1e-6, (0, "jointly-nilpotent", 3))
    assert len(calls) == 2


DILATION_CHECKS = ("colligation_report", "dilation_identity_report", "multi_analytic_residual",
                   "_lambda_max")


def spy_checks(monkeypatch) -> list[str]:
    """The names of the dilation checks called through ``harness`` from now on."""
    calls = []
    for name in DILATION_CHECKS:
        real = getattr(ncdomains.harness, name)
        monkeypatch.setattr(ncdomains.harness, name, lambda *args, name=name, real=real, **kw:
                            calls.append(name) or real(*args, **kw))
    return calls


def test_battery_pair_builds_no_dilation_report(monkeypatch):
    """ando_dilation only assembles and the battery reads no ``report``, so a battery
    pair runs none of the dilation checks."""
    calls = spy_checks(monkeypatch)
    ncdomains.harness._battery_pair(Z, Z, builtin_polys(), 1e-6, (0, "jointly-nilpotent", 3))
    assert calls == []


def test_dilation_report_is_built_once_on_first_read(monkeypatch):
    """The checks run on the first read of ``report``, once each, and the report is kept."""
    calls = spy_checks(monkeypatch)
    dil = ando_dilation(random_commuting_pair(0, 3, "jointly-nilpotent", Z, Z))
    assert calls == []
    rep = dil.report
    assert rep is dil.report and rep.passed, rep.render()
    assert sorted(calls) == sorted(DILATION_CHECKS)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        random_commuting_pair(0, 3, "bogus", Z, Z)


def test_bipoly_eval_scalar_matches_matrix():
    """On 1 x 1 tuples the matrix evaluation is the scalar one, for every built-in."""
    for z, w in ((0.3, 0.2), (0.4 - 0.3j, -0.2 + 0.5j), (-0.6j, 0.1 + 0.7j)):
        X, Y = OperatorTuple((np.array([[z]]),)), OperatorTuple((np.array([[w]]),))
        for p in builtin_polys():
            want = p.eval_scalar(np.array(z), np.array(w))
            assert np.abs(p.eval(X, Y) - want).max() <= 1e-14, (p.name, z, w)


def test_builtin_eval_matches_written_formulas():
    pair = random_commuting_pair(11, 3, "polynomial-of-single", Z, Z)
    X, Y = pair.T1.mats[0], pair.T2.mats[0]
    I, O = np.eye(3), np.zeros((3, 3))

    def sym(m):
        return (m + m.conj().T) / 2

    def h(m):
        return m.conj().T

    formulas = {
        "sum": X + Y,
        "product": X @ Y,
        "affine": I + 0.5 * X + 0.5 * Y,
        "diff_squares": X @ X - Y @ Y,
        "balanced": 2 * X @ Y - X - Y,
        "cubic_mix": X @ X @ X + Y @ Y @ Y + X @ Y,
        "square_of_sum": X @ X + 2 * X @ Y + Y @ Y,
        "biquadratic": X @ X @ Y @ Y,
        "complex_mix": (0.5 + 0.5j) * X + (0.5 - 0.5j) * Y + 1j * X @ Y @ Y,
        "one_minus_product": I - X @ Y,
        "shear": np.block([[I, X], [O, Y]]),
        "full": np.block([[X, X @ Y], [Y, I]]),
        "sandwich": sym(X @ Y @ h(Y) @ h(X)),
        "two_squares": sym(X @ h(X) + Y @ h(Y)),
        "mixed_gram": sym((X + Y) @ h(X + Y)),
    }
    polys = builtin_polys()
    assert sorted(p.name for p in polys) == sorted(formulas)
    for p in polys:
        np.testing.assert_allclose(p.eval(pair.T1, pair.T2), formulas[p.name],
                                   rtol=0.0, atol=1e-12, err_msg=p.name)
        assert p.hermitian == (p.name in ("sandwich", "two_squares", "mixed_gram"))


def eval_with_identities(p: BiPolynomial, X: OperatorTuple, Y: OperatorTuple) -> np.ndarray:
    """The oracle of ``BiPolynomial.eval``: every term as the product of all four
    (or two) words, an empty word as the dense identity."""
    d, herm = X.rows, p.hermitian
    out = np.zeros((len(p.entries) * d,) * 2, dtype=complex)
    for r, col, (u, v, s, t), c in p._terms():
        m = X.word(u) @ Y.word(v)
        if herm:
            m = m @ Y.word(s).conj().T @ X.word(t).conj().T
        out[r * d:(r + 1) * d, col * d:(col + 1) * d] += c * m
    return (out + out.conj().T) / 2 if herm else out


def test_bipoly_eval_skips_identity_factors_bitwise():
    """Leaving out the identity of an empty word changes no bit of the value, on
    the pair and on both of its dilated sides."""
    pair = random_commuting_pair(4, 3, "upper-triangular-commuting", Z, Z)
    dil, dil_sw = ando_dilation(pair), ando_dilation(pair.swapped())
    sides = [(pair.T1, pair.T2), (dil.left, dil.right), (dil_sw.right, dil_sw.left)]
    for p in builtin_polys():
        for X, Y in sides:
            assert np.array_equal(p.eval(X, Y), eval_with_identities(p, X, Y)), p.name


def test_bipoly_construction_checks_letters_and_drops_zeros():
    with pytest.raises(ValueError):
        BiPolynomial("bad", 1, 1, (({((2,), (), (), ()): 1.0},),))
    with pytest.raises(ValueError):
        BiPolynomial("bad_adjoint", 1, 1, (({((), (), (1, 2), ()): 1.0},),))
    p = BiPolynomial("x", 1, 1, (({((1,), (), (), ()): 1.0, ((), (1,), (), ()): 0.0},),))
    assert p.entries == (({((1,), (), (), ()): 1.0},),)
    assert not p.hermitian


def test_grid_sup_norm_known_values():
    p = BiPolynomial("xy", 1, 1, (({((1,), (1,), (), ()): 1.0},),))
    assert abs(grid_sup_norm(p, 64) - 1.0) <= 1e-12
    s = BiPolynomial("sum", 1, 1, (({((1,), (), (), ()): 1.0, ((), (1,), (), ()): 1.0},),))
    assert abs(grid_sup_norm(s, 512) - 2.0) <= 1e-3


def test_battery_peak_below_one_grid_array(monkeypatch):
    """Memory guard of the baseline battery, seeds 0..5 at dims 3, 4, 5: under
    tracemalloc run_battery peaked at 3.1 MB (28-29 MB while the torus sups built
    the whole grid).  The bound, 4 MB, lies below one 512 x 512 complex array
    (4.2 MB), so a whole-grid array of any battery polynomial exceeds it.  The
    battery runs serially here: tracemalloc sees no allocation of a forked worker,
    and a worker forked while tracing traces too, many times slower."""
    monkeypatch.setattr(ncdomains.parallel, "usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        rep = run_battery(Z, Z, list(range(6)), [3, 4, 5], None, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 4e6


def test_spectral_norms_closed_form_matches_svd():
    """The closed-form 2 x 2 spectral norm agrees with np.linalg.norm(., 2) to 1e-15."""
    rng = np.random.default_rng(5)

    def check(vals):
        want = np.linalg.norm(vals, 2, axis=(-2, -1))
        np.testing.assert_allclose(spectral_norms(vals), want, rtol=1e-15, atol=0.0)

    for scale in (1e-100, 1e-8, 1.0, 1e8, 1e100):
        check(scale * (rng.standard_normal((2000, 2, 2))
                       + 1j * rng.standard_normal((2000, 2, 2))))
    # equal singular values: multiples of unitaries
    th = rng.uniform(0.0, 2.0 * np.pi, (200, 3))
    c, s = np.cos(th[:, 0]), np.sin(th[:, 0])
    u = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    check(u * (np.exp(1j * th[:, 1]) * (1.0 + th[:, 2]))[:, None, None])
    # rank one
    x = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    y = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    check(x[:, :, None] * y[:, None, :].conj())
    check(np.zeros((3, 2, 2), dtype=complex))
    angles = 2.0 * np.pi * np.arange(64) / 64
    for p in builtin_matrix_polys():
        check(p.eval_scalar(np.exp(1j * angles)[:, None], np.exp(1j * angles)[None, :]))
    # other sizes go through np.linalg.norm
    check(rng.standard_normal((10, 3, 3)) + 1j * rng.standard_normal((10, 3, 3)))


def test_dilation_reports_pass_nilpotent():
    pair = random_commuting_pair(0, 4, "jointly-nilpotent", Z, Z)
    dil = ando_dilation(pair)
    assert dil.report.passed, dil.report.render()
    # kernel columns are isometric (pure tuple)
    assert np.linalg.norm(dil.kernel.conj().T @ dil.kernel - np.eye(4), 2) <= 1e-10


def test_compression_identity_nilpotent():
    pair = random_commuting_pair(5, 4, "jointly-nilpotent", Z, Z)
    dil = ando_dilation(pair)
    for p in builtin_bipolynomials():
        assert compression_residual(dil, p) <= 1e-7


def test_inequality_basics_all_kinds():
    for kind in ("jointly-nilpotent", "polynomial-of-single",
                 "upper-triangular-commuting"):
        pair = random_commuting_pair(2, 3, kind, Z, Z)
        dil = ando_dilation(pair)
        rep = verify_inequality(builtin_bipolynomials(), dil, tol=1e-6)
        assert rep.passed, rep.render()
        hrep = verify_inequality(builtin_hermitian(), dil, tol=1e-6)
        assert hrep.passed, hrep.render()


def test_matrix_polynomials():
    pair = random_commuting_pair(9, 4, "jointly-nilpotent", Z, Z)
    dil = ando_dilation(pair)
    rep = verify_inequality(builtin_matrix_polys(), dil, tol=1e-6)
    assert rep.passed, rep.render()


def test_swapped_dilation_tightens():
    pair = random_commuting_pair(4, 3, "polynomial-of-single", Z, Z)
    dil = ando_dilation(pair)
    dil_sw = ando_dilation(pair.swapped())
    rep = verify_inequality(builtin_bipolynomials(), dil, dil_sw, tol=1e-6)
    assert rep.passed, rep.render()


def test_von_neumann_baseline():
    pair = random_commuting_pair(3, 4, "upper-triangular-commuting", Z, Z)
    rep = von_neumann_check(ando_dilation(pair), builtin_bipolynomials() + builtin_matrix_polys())
    assert rep.passed, rep.render()
    assert rep.environment["margin"] == "0.0"


def test_von_neumann_requires_baseline():
    f2 = RegularPolynomial.single_variable([1.0, 1.0])
    pair = random_commuting_pair(3, 3, "jointly-nilpotent", f2, Z)
    with pytest.raises(ValueError):
        von_neumann_check(ando_dilation(pair), builtin_bipolynomials())


def test_von_neumann_check_fails_above_the_variety_bound():
    """The check can fail: with the pair of a dilation tripled (still commuting),
    ||T1 T2|| exceeds 1, the maximum of |z w| on the torus, and the product's slack
    is negative."""
    dil = ando_dilation(random_commuting_pair(3, 4, "upper-triangular-commuting", Z, Z))
    big = CommutingPair(Z, Z, OperatorTuple((3 * dil.pair.T1.mats[0],)),
                        OperatorTuple((3 * dil.pair.T2.mats[0],)))
    rep = von_neumann_check(dataclasses.replace(dil, pair=big), builtin_bipolynomials())
    failed = {c.name for c in rep.checks if not c.passed}
    assert "torus_slack_product" in failed, rep.render()


@functools.cache
def battery_dilations() -> tuple:
    """The dilations of the baseline battery at seeds 0..5 (dims 3, 4, 5, the
    kinds in turn, as run_battery builds them) and of the swapped pairs."""
    out = []
    for seed in range(6):
        pair = random_commuting_pair(seed, 3 + seed % 3, PAIR_KINDS[seed % 3], Z, Z)
        out += [ando_dilation(pair), ando_dilation(pair.swapped())]
    return tuple(out)


def variety_maxima(dil, polys) -> dict[str, tuple[float, float]]:
    """(max_k ||p(z_k, w)||, ||p(T1, T2)||) for each polynomial, the maximum read
    back from the slack that von_neumann_check reports."""
    rep = von_neumann_check(dil, polys)
    out = {}
    for p, check in zip(polys, rep.checks, strict=True):
        lhs = float(np.linalg.norm(p.eval(dil.pair.T1, dil.pair.T2), 2))
        out[p.name] = (check.value + lhs, lhs)
    return out


def test_psi_closed_form_matches_the_table():
    """Psi(1/2) in closed form against the table's sum_u Theta_u 2^-|u| (n = 1, so
    the k-th word has length k): every Theta_k, k >= 1, is C^* (D^*)^(k-1) B^*,
    a product of blocks of a unitary, so the terms beyond N sum to at most
    |z|^(N+1) / (1 - |z|)."""
    z = 0.5
    for dil in battery_dilations():
        tf = dil.transfer
        series = sum(z**k * tf.theta[k, :, 0, :] for k in range(tf.N + 1))
        closed = realization(tf.colligation, (np.array([[z]]),))
        err = float(np.linalg.norm(closed - series, 2))
        assert err <= z ** (tf.N + 1) / (1 - z) + 1e-14, (dil.pair.kind, err)


def test_variety_points_match_the_dense_psi_norms():
    """The maximum of ||p(z_k, w)|| over the normalized eigenvalues w of Psi(z_k)
    that von_neumann_check takes, against max_k ||p(z_k I, Psi(z_k))||, the
    polynomial evaluated on the matrices (Psi inner, so p(z_k I, Psi(z_k)) is
    normal with the values p(z_k, w) as its eigenvalue blocks), for the 12
    built-ins without adjoint words.  Psi(z_k) is unitary to 1e-13 (1.9e-14
    measured over 260 battery-shaped dilations)."""
    polys = builtin_bipolynomials() + builtin_matrix_polys()
    z = np.exp(2.0j * np.pi * np.arange(TORUS_RESOLUTION) / TORUS_RESOLUTION)
    for dil in battery_dilations():
        psi = realization(dil.transfer.colligation, (z[:, None, None],))
        maxima = variety_maxima(dil, polys)
        r = psi.shape[-1]
        assert np.abs(psi.conj().transpose(0, 2, 1) @ psi - np.eye(r)).max() <= 1e-13
        powers = [np.broadcast_to(np.eye(r), psi.shape)]
        for _ in range(3):
            powers.append(powers[-1] @ psi)
        for p in polys:
            k = len(p.entries)
            dense = np.zeros((len(z), k * r, k * r), dtype=complex)
            for row, col, (u, v, _, _), c in p._terms():
                dense[:, row * r:(row + 1) * r, col * r:(col + 1) * r] += (
                    c * z[:, None, None] ** len(u) * powers[len(v)])
            want = float(np.linalg.norm(dense, 2, axis=(-2, -1)).max())
            got = maxima[p.name][0]
            assert abs(got - want) <= 1e-12 * want, (dil.pair.kind, p.name, got, want)


def test_variety_points_bound_the_pair_below_the_torus_grid():
    """The variety maximum of von_neumann_check is at least ||p(T1, T2)|| and at
    most the 2048^2 torus grid maximum plus its sampling allowance.  A polynomial of
    degrees (d_z, d_w) has angular derivatives at most d_z ||p|| and d_w ||p||
    (Bernstein), and every torus point is within pi / 2048 of a grid point in
    each angle, so sup ||p|| <= grid / (1 - q), q = pi (d_z + d_w) / 2048: the
    allowance is grid q / (1 - q), plus 1e-12 for rounding."""
    polys = builtin_bipolynomials() + builtin_matrix_polys()
    grid = {p.name: grid_sup_norm(p, 2048) for p in polys}
    for dil in battery_dilations():
        maxima = variety_maxima(dil, polys)
        for p in polys:
            degree = max(len(u) for _, _, (u, _, _, _), _ in p._terms()) + max(
                len(v) for _, _, (_, v, _, _), _ in p._terms())
            q = np.pi * degree / 2048
            sup, lhs = maxima[p.name]
            assert lhs <= sup, (dil.pair.kind, p.name)
            assert sup <= grid[p.name] * (1 + q / (1 - q)) + 1e-12, (dil.pair.kind, p.name)


def test_degree_two_f_dilation():
    f2 = RegularPolynomial.single_variable([1.0, 0.5])
    pair = random_commuting_pair(8, 4, "jointly-nilpotent", f2, Z)
    dil = ando_dilation(pair)
    assert dil.report.passed, dil.report.render()
    rep = verify_inequality(builtin_bipolynomials(), dil, tol=1e-6)
    assert rep.passed, rep.render()


def test_variety_constrained_dilation():
    """Single-variable pair dilated on its annihilating-polynomial model, built
    by ando_dilation at the truncation it picks."""
    pair = random_commuting_pair(6, 3, "upper-triangular-commuting", Z, Z)
    # characteristic polynomial of T1 annihilates it (spectrum in the disk)
    roots = list(np.linalg.eigvals(pair.T1.mats[0]))
    assert max(abs(r) for r in roots) < 1.0
    dil = ando_dilation(pair, variety=[minpoly_generator(roots)])
    for p in builtin_bipolynomials():
        lhs = float(np.linalg.norm(p.eval(pair.T1, pair.T2), 2))
        rhs = float(np.linalg.norm(p.eval(dil.left, dil.right), 2))
        assert rhs - lhs >= -1e-6
        assert compression_residual(dil, p) <= 1e-6


SHARP = ("norm_slack_product", "norm_slack_shear", "eig_slack_sandwich",
         "eig_slack_two_squares")


def test_sharp_jordan_pair_sees_a_one_percent_error_in_psi(monkeypatch):
    """(J5, J5^2), J5 the nilpotent 5 x 5 Jordan block, attains Ando's bound on the
    SHARP polynomials: their slacks sit within 8 eps of 0 (c = 8, measured 0.0).
    So psi scaled by 0.99 fails all four (measured -1.0e-2, -4.4e-3, -2.0e-2, -2.0e-2)."""
    J = np.diag(np.ones(4), 1).astype(complex)
    pair = CommutingPair(Z, Z, OperatorTuple((J,)), OperatorTuple((J @ J,)))
    dil = ando_dilation(pair, N=6)
    polys = builtin_polys()
    rep = verify_inequality(polys, dil, tol=1e-6)
    assert rep.passed, rep.render()
    slacks = {c.name: c.value for c in rep.checks}
    for name in SHARP:
        assert abs(slacks[name]) <= 8 * np.finfo(float).eps, (name, slacks[name])
    psi = ncdomains.harness._psi  # the letters of ``right``, built on a dense read
    monkeypatch.setattr(ncdomains.harness, "_psi",
                        lambda *args: tuple(0.99 * m for m in psi(*args)))
    rep = verify_inequality(polys, ando_dilation(pair, N=6), tol=1e-6)
    failed = {c.name: c.value for c in rep.checks if not c.passed}
    assert sorted(failed) == sorted(SHARP), rep.render()
    assert all(v < -4e-3 for v in failed.values()), failed


def test_dilated_tuples_build_their_letters_once(monkeypatch):
    """``right`` knows its size without a scatter; its first dense read scatters each
    psi_j once, and a second read of ``mats`` or a ``word``, or of the dilation's
    ``right`` again, none.  On a variety model ``ncdomains verify`` reads ``right`` in
    the Gram of ``report`` and in verify_inequality; the compressed psi is built once, one
    ``_row_adjoint`` call per letter of g (g = z and g = 0.5 z1 + z2; minpoly and
    commutator models)."""
    dil = ando_dilation(random_commuting_pair(17, 3, "upper-triangular-commuting", Z, Z))
    calls = []
    scatter = ncdomains.harness._scatter
    monkeypatch.setattr(ncdomains.harness, "_scatter",
                        lambda *args: calls.append(args) or scatter(*args))
    right, left = dil.right, dil.left
    assert (right.n, right.dim, right.rows, right.cols) == (1,) + (len(dil.kernel),) * 3
    assert (left.n, left.dim) == (1, len(dil.kernel)) and calls == []
    mats = right.mats
    assert len(calls) == 1 and mats[0].shape == (right.dim,) * 2
    assert right.mats is mats and np.array_equal(right.word((1, 1)), mats[0] @ mats[0])
    assert left.mats is left.mats and len(calls) == 1
    assert dil.right.mats is mats and dil.left is left and len(calls) == 1

    adjoint, calls = ncdomains.harness._row_adjoint, []
    monkeypatch.setattr(ncdomains.harness, "_row_adjoint",
                        lambda *args: calls.append(args) or adjoint(*args))
    models = [d for d in psi_dilations() if d.variety is not None]
    assert len(models) == 4 and {d.pair.g.n for d in models} == {1, 2}
    for d in models:
        assert d.report.passed, d.report.render()
        verify_inequality(builtin_bipolynomials(), d, tol=1e-6)
    assert len(calls) == sum(d.pair.g.n for d in models)


def test_commutant_lifting_square_and_rectangular():
    f = Z
    T1 = random_nilpotent_tuple(5, 1, 4, f)
    A = 0.7 * np.eye(4) + 0.3 * T1.mats[0]
    rep = commutant_lifting(f, T1, T1, A)
    assert rep.passed, rep.render()
    assert abs(float(rep.environment["lift_norm"]) - 1.0) <= 1e-8
    assert rep.environment["norm_A"] == repr(float(np.linalg.norm(A, 2)))
    # leading-block restriction of an upper-triangular tuple
    T1p = OperatorTuple((T1.mats[0][:3, :3],))
    inj = np.zeros((4, 3), dtype=complex)
    inj[:3] = np.eye(3)
    rep2 = commutant_lifting(f, T1, T1p, inj)
    assert rep2.passed, rep2.render()


def test_battery_small_run():
    rep = run_battery(Z, Z, seeds=[0, 1, 2], dims=[3, 4], kinds=None, tol=1e-6)
    assert rep.passed, rep.render()
    assert rep.environment["pairs"] == "3"


def test_battery_determinism():
    a = run_battery(Z, Z, seeds=[7, 8], dims=[3], kinds=None, tol=1e-6).render()
    b = run_battery(Z, Z, seeds=[7, 8], dims=[3], kinds=None, tol=1e-6).render()
    assert a == b


def check_value(rep, name: str) -> float:
    return next(c.value for c in rep.checks if c.name == name)


def psi_dilations() -> list:
    """Dilations with and without a variety model: n = 1 and n = 2, padded rows
    (r_in > r_out), a g with two degree-one blocks, g = 0.5 z over
    f = z1 + z2 + 0.5 z1 z2 (c_1 != 1 and weights != 1), and the monomial
    generator Z1 Z2, whose model space is not symmetric: there B_i and C_i differ."""
    pair = random_commuting_pair(17, 3, "upper-triangular-commuting", Z, Z)
    dil = ando_dilation(pair)
    roots = list(np.linalg.eigvals(pair.T1.mats[0]))
    dils = [dil, ando_dilation(pair, N=dil.N, variety=[minpoly_generator(roots)])]
    f2 = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    tr = commuting_triple(3, 3, f2)
    pair2 = CommutingPair(f2, Z, tr.T1, tr.T2)
    dils += [ando_dilation(pair2, N=4),
             ando_dilation(pair2, N=4, variety=commutator_generators(2))]
    f3 = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    g_half = RegularPolynomial.single_variable([0.5])
    tr = commuting_triple(3, 3, f3)
    dils.append(ando_dilation(CommutingPair(f3, g_half, tr.T1,
                                            scale_into_domain(g_half, tr.T2, 0.9)), N=4))
    # g = 0.5 z1 + z2: two degree-one blocks, one rescaled by 1/sqrt(0.5)
    g2 = RegularPolynomial(2, {(1,): 0.5, (2,): 1.0})
    rng = np.random.default_rng(5)
    nil = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
    T1 = scale_into_domain(Z, OperatorTuple((nil,)), 0.9)
    T2 = scale_into_domain(g2, OperatorTuple((nil - 0.7 * nil @ nil, 0.4 * nil + nil @ nil)), 0.9)
    pair3 = CommutingPair(Z, g2, T1, T2)
    dil3 = ando_dilation(pair3)
    dils += [dil3, ando_dilation(pair3, N=dil3.N, variety=[minpoly_generator([0.0] * 4)])]
    e = np.eye(3)  # T1_1 T1_2 = 0
    T1 = scale_into_domain(f2, OperatorTuple((np.outer(e[1], e[2]), np.outer(e[0], e[1]))), 0.9)
    pair4 = CommutingPair(f2, Z, T1, OperatorTuple((0.5 * e,)))
    dils += [ando_dilation(pair4, N=4), ando_dilation(pair4, N=4, variety=[{(1, 2): 1.0}])]
    monomial = dils[-1].variety
    assert not np.allclose(monomial.left.mats[0], dense_compression(monomial, "right").mats[0])
    assert any(d.transfer.r_in > d.transfer.r_out for d in dils)  # padded rows occur
    return dils


def test_variety_kernel_matches_the_compressed_plain_kernel():
    """On a model the kernel comes from constrained_poisson, padded to r; it equals
    the compression of the padded plain kernel, (P (x) I) embed_inner(K1), bitwise."""
    for d in psi_dilations():
        if d.variety is None:
            continue
        K1 = poisson_kernel(d.pair.f, d.pair.T1, d.N)
        padded = embed_inner(K1.matrix, d.transfer.fock_size, K1.multiplicity, d.multiplicity)
        assert np.array_equal(d.kernel,
                              kron_identity_matmul(d.variety.basis.conj().T, padded))


def test_psi_ellipsoid_gap_matches_dense_membership():
    """1 - lambda_max of the content-row Gram equals the least eigenvalue of the
    dense padded gap, with and without a variety model."""
    for d in psi_dilations():
        g = d.pair.g
        assert all(len(w) == 1 for w in g.coeffs)
        dense = domain_membership(g, d.right).min_eig_ellipsoid
        assert abs(check_value(d.report, "psi_ellipsoid_min_eig") - dense) <= 1e-12


def test_lambda_max_matches_eigvalsh_on_psi_grams():
    """The Gram sum_j c_j psi_j psi_j^* of the dense psi tuple, with and without a
    variety model (then it is the Gram ando_dilation reads): the certified Ritz
    value of transfer._lambda_max against eigvalsh, to 1e-13 ||G||."""
    for d in psi_dilations():
        gram = sum(d.pair.g.coeffs[(j,)] * (m @ m.conj().T) for j, m in enumerate(d.right.mats, 1))
        ref = np.linalg.eigvalsh(gram)
        assert abs(_lambda_max(gram.copy()) - ref[-1]) <= 1e-13 * np.abs(ref).max()


def dense_views(d) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The oracle of ``left`` and ``right``: W_i (x) I_r as dense matrices, the
    scattered blocks phi_(j) zero-padded to r x r over sqrt(c_j), and on a variety
    model both compressed by (P (x) I) m (P (x) I)^*, P = basis^*."""
    tf, g, r = d.transfer, d.pair.g, d.multiplicity
    left = [w.dense(np.eye(r)) for w in weighted_creation(d.pair.f, d.N)]
    right = []
    for j in range(1, g.n + 1):
        blk = embed_inner(dense_block(tf, (j,)), tf.fock_size, tf.r_out, r)
        blk = embed_inner(blk.T, tf.fock_size, tf.r_in, r).T
        right.append(blk / np.sqrt(g.coeffs[(j,)]))
    if d.variety is None:
        return left, right
    p_h = d.variety.basis.conj().T

    def compress(m: np.ndarray) -> np.ndarray:
        return kron_identity_matmul(p_h, kron_identity_matmul(p_h, m).conj().T).conj().T

    return [compress(m) for m in left], [compress(m) for m in right]


def test_dilation_views_match_dense_construction():
    """``left`` and ``right`` against the dense oracle: bitwise without a variety
    model where c_j = 1; where c_j != 1, ``right`` divides the table before the
    scatter and the oracle the block after it, so entrywise within 4 eps relative;
    1e-13 relative with a model (B_i (x) I_r and X^* psi_j X take other paths)."""
    eps = np.finfo(float).eps
    for d in psi_dilations():
        left, right = dense_views(d)
        coeffs = [1.0] * d.pair.f.n + [d.pair.g.coeffs[(j,)] for j in range(1, d.pair.g.n + 1)]
        for got, want, c in zip(d.left.mats + d.right.mats, left + right, coeffs, strict=True):
            assert got.shape == want.shape
            if d.variety is not None:
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            elif c == 1.0:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want))


def test_transfer_checks_stay_on_the_fock_r_out_side(monkeypatch):
    """Complexity guard on twovar-shaped inputs at N = 4..6.

    ando_dilation and the transfer checks pass eigvalsh, eigh, svd and cholesky
    no matrix taller than Fock r_out.  None of them scatters a dense block: the
    table readers follow the column plan, and the Fourier round trip compares
    the table with ``realization`` at (M + 1) x (M + 1) matrices, so every
    ``_scatter`` call fails the test while they run (``PairDilation.right`` is
    its only reader).  The row Grams take the certified route: no Cholesky runs,
    and no eigvalsh call gets a matrix as tall as a row Gram.
    """
    calls = []
    for name in ("eigvalsh", "eigh", "svd", "cholesky"):
        def spy(a, *args, name=name, real=getattr(np.linalg, name), **kwargs):
            calls.append((name, np.shape(a)[-2]))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)

    def assert_certified_route(height: int) -> None:
        assert calls and max(h for _, h in calls) <= height
        assert [h for name, h in calls if name == "cholesky"] == []
        assert all(h < height for name, h in calls if name == "eigvalsh")

    f_pair = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    f_triple = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    for N in (4, 5, 6):
        tr = commuting_triple(N, 4, f_pair)
        pair = CommutingPair(f_pair, Z, tr.T1, tr.T2)
        calls.clear()
        dil = ando_dilation(pair, N=N)
        assert dil.report.passed, dil.report.render()
        assert dil.transfer.r_in > dil.transfer.r_out
        assert_certified_route(dil.transfer.fock_size * dil.transfer.r_out)

        tr = commuting_triple(N + 10, 4, f_triple)
        col = complete_to_unitary(build_isometry(tr))
        calls.clear()
        tf = eval_transfer(col, N)
        K1 = poisson_kernel(f_triple, tr.T1, N)

        def checks():
            return [contraction_excess(tf), defect_identity_residual(tf),
                    multi_analytic_residual(tf, (1,)), fourier_roundtrip_residual(tf, (1,), 2),
                    dilation_identity_report(tf, K1, K1, tol=1e-7).render()]

        values = checks()
        assert_certified_route(tf.fock_size * tf.r_out)
        with monkeypatch.context() as m:
            for module in (ncdomains.transfer, ncdomains.harness):  # each binds its own name
                m.setattr(module, "_scatter", raising=False,
                          value=lambda table, f, K, inner: pytest.fail(
                              f"level-{K} block scattered"))
            assert checks() == values
            assert ando_dilation(pair, N=N).report.render() == dil.report.render()
        assert max(h for _, h in calls) <= tf.fock_size * tf.r_out


def test_transfer_checks_peak_below_one_dense_block():
    """Memory guard at twovar shapes (N = 6, r_out 4, r_in 12): under tracemalloc
    every transfer check and the dilation identity peaks below one dense
    (Fock r_out) x (Fock r_in) complex block, 508 x 1524 or 12.4 MB."""
    f_triple = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 0.5})
    N = 6
    tr = commuting_triple(N + 10, 4, f_triple)
    tf = eval_transfer(complete_to_unitary(build_isometry(tr)), N)
    assert (tf.fock_size, tf.r_out, tf.r_in) == (127, 4, 12)
    block_bytes = tf.fock_size * tf.r_out * tf.fock_size * tf.r_in * 16
    K1 = poisson_kernel(f_triple, tr.T1, N)
    for check in (lambda: contraction_excess(tf), lambda: defect_identity_residual(tf),
                  lambda: multi_analytic_residual(tf, (1,)),
                  lambda: fourier_roundtrip_residual(tf, (1,), 2),
                  lambda: dilation_identity_report(tf, K1, K1, tol=1e-7)):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes


def test_ando_dilation_peak_below_one_padded_psi_block():
    """Memory guard at the twovar pair shape (f = z1 + z2, N = 6, r = 8): under
    tracemalloc ando_dilation and the first read of its ``report`` peak below one
    padded psi block, 1016 x 1016 complex or 16.5 MB, and the dilation with its
    report holds less than 1 MB."""
    f_pair = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    tr = commuting_triple(6, 4, f_pair)
    pair = CommutingPair(f_pair, Z, tr.T1, tr.T2)
    tracemalloc.start()
    try:
        dil = ando_dilation(pair, N=6)
        assert dil.report.passed, dil.report.render()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (dil.transfer.fock_size, dil.multiplicity) == (127, 8)
    assert peak < (127 * 8) ** 2 * 16
    assert retained < 1e6


def test_choose_truncation_refuses_an_oversized_fock_space(monkeypatch):
    f, T = power_pair_tuple()
    msg = (r"N = 18 over n = 2 letters, 524287 words, above the limit of "
           rf"{MAX_CHOSEN_WORDS}; give N")
    with pytest.raises(ValueError, match=msg):
        choose_truncation(f, T)
    pair = CommutingPair(f, Z, T, OperatorTuple((T.mats[0],)))

    def no_tables(n, N):
        raise AssertionError(f"word table ({n}, {N}) built before the refusal")

    monkeypatch.setattr("ncdomains.words._word_table", no_tables)
    with pytest.raises(ValueError, match=msg):
        ando_dilation(pair)


POOL_SCRIPT = """
import contextlib, glob, io, json, sys
import ncdomains.harness as harness
import ncdomains.parallel as parallel
from ncdomains.cli import main
seed, fail = json.loads(sys.argv[1])
dilation, make_pair, calls = harness.ando_dilation, harness.random_commuting_pair, []
harness.ando_dilation = lambda *args, **kw: calls.append(args) or dilation(*args, **kw)

def failing(s, *args):
    if s in fail:
        raise ValueError(f"injected failure at seed {s}")
    return make_pair(s, *args)

harness.random_commuting_pair = failing

def children():
    return sum(len(open(p).read().split()) for p in glob.glob("/proc/self/task/*/children"))

runs = []
for cpus in (1, 2):
    parallel.usable_cpus = lambda: cpus
    calls.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["battery", "--count", "6", "--seed", str(seed), "--dims", "3", "4", "5"])
    runs.append([out.getvalue(), code, len(calls), children()])
print(json.dumps(runs))
"""
POOL_PLATFORM = (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
                 and any(Path("/proc/self/task").glob("*/children"))
                 and ncdomains.parallel.blas_threads() is not None)


def battery_paths(seed: int, fail: list[int], threads: str = "1") -> list[list]:
    """``ncdomains battery --count 6 --dims 3 4 5`` run serially (1 usable CPU) and in two
    forked workers (2 usable CPUs, also on a one-CPU machine), in a fresh interpreter with
    ``threads`` OpenBLAS threads (forking needs one); the pairs of the seeds in ``fail``
    raise ValueError, patched in before the fork.  Per run: standard output, exit code,
    the ando_dilation calls made in the parent process (none of a worker's count) and
    the child processes, live or unreaped, that /proc lists after ``main`` returned."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": str(Path(ncdomains.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", POOL_SCRIPT, json.dumps([seed, fail])],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


@pytest.mark.skipif(not POOL_PLATFORM, reason="the battery runs serially on this platform")
@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_pooled_battery_matches_the_serial_run(seed):
    """The battery's pairs in two forked workers give the serial run's report byte for
    byte, no dilation runs in the parent process, and every worker is joined."""
    serial, pooled = battery_paths(seed, [])
    assert serial == [pooled[0], 0, 12, 0]
    assert pooled[1:] == [0, 0, 0]


@pytest.mark.skipif(not POOL_PLATFORM, reason="the battery runs serially on this platform")
def test_pooled_battery_reports_the_first_failing_pair():
    """A ValueError in the pairs of seeds 2 and 4 ends as the same pipeline_error record,
    naming seed 2, with the same exit code on both paths, and every worker is joined."""
    serial, pooled = battery_paths(0, [2, 4])
    assert serial[:2] == pooled[:2] and serial[3] == pooled[3] == 0
    assert pooled[2] == 0 and serial[2] == 4  # the dilations of seeds 0 and 1
    rep = parse_report(pooled[0])
    assert pooled[1] == 1 and [c.name for c in rep.checks] == ["pipeline_error"]
    assert rep.environment["error"] == "injected failure at seed 2"


@pytest.mark.skipif(not POOL_PLATFORM, reason="the battery runs serially on this platform")
def test_battery_with_threaded_blas_runs_serially():
    """With two OpenBLAS threads a worker per CPU would oversubscribe the CPUs, so both
    runs stay in the parent process and agree."""
    serial, pooled = battery_paths(0, [], threads="2")
    assert serial == pooled and serial[1:] == [0, 12, 0]
