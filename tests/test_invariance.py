"""Every printed value is a property of the pair, not of the basis it is written in:
conjugating (T1, T2) by a seeded unitary Q moves no inequality slack, distinguished-
variety slack or dilation-report value by more than 1e-12 (1.3e-14 was the largest
move seen), because the completion is the polar part of a map formed from the
prescribed isometry alone (``colligation.complete_to_unitary``)."""

import numpy as np
import pytest

from ncdomains import OperatorTuple, RegularPolynomial
from ncdomains.harness import (PAIR_KINDS, CommutingPair, PairDilation, ando_dilation,
                               builtin_polys, random_commuting_pair, scale_into_domain,
                               verify_inequality, von_neumann_check)
from ncdomains.variety import minpoly_generator

from conftest import seeded_unitary

Z = RegularPolynomial.single_variable([1.0])
TOL = 1e-12


def conjugated(pair: CommutingPair, q: np.ndarray) -> CommutingPair:
    def conj(T: OperatorTuple) -> OperatorTuple:
        return OperatorTuple(tuple(q @ m @ q.conj().T for m in T.mats))
    return CommutingPair(pair.f, pair.g, conj(pair.T1), conj(pair.T2),
                         kind=pair.kind, seed=pair.seed)


def values(dil: PairDilation, dil_swapped: PairDilation | None = None) -> dict[str, float]:
    """Every check value that ``verify`` and the battery print for this dilation."""
    reports = [verify_inequality(builtin_polys(), dil, dil_swapped, tol=1e-6), dil.report]
    if dil.pair.f.coeffs == {(1,): 1.0} and dil.pair.g.coeffs == {(1,): 1.0}:
        reports.append(von_neumann_check(dil, [p for p in builtin_polys() if not p.hermitian]))
    return {f"{rep.name}:{c.name}": c.value for rep in reports for c in rep.checks}


def assert_invariant(dilate, pair: CommutingPair, q: np.ndarray) -> None:
    """dilate(pair) -> (N, values) agrees with dilate(Q pair Q^*) to TOL."""
    (n, before), (n_q, after) = dilate(pair), dilate(conjugated(pair, q))
    assert n == n_q and before.keys() == after.keys()
    moves = {name: abs(before[name] - after[name]) for name in before}
    worst = max(moves, key=moves.get)
    assert moves[worst] <= TOL, (pair.kind, pair.seed, worst, moves[worst])


def battery_values(pair: CommutingPair) -> tuple[int, dict[str, float]]:
    dil = ando_dilation(pair, tol=1e-6)
    return dil.N, values(dil, ando_dilation(pair.swapped(), tol=1e-6))


@pytest.mark.parametrize("seed", range(4))
def test_battery_values_do_not_depend_on_the_basis(seed):
    """Battery pairs (f = g = z) at seeds 0..3, each kind, with dims 3..5 in turn, so
    that every kind meets every dim: slacks with the swapped dilation, the
    distinguished-variety slacks and the dilation report."""
    for k, kind in enumerate(PAIR_KINDS):
        dim = 3 + (seed + k) % 3
        pair = random_commuting_pair(seed, dim, kind, Z, Z)
        assert_invariant(battery_values, pair, seeded_unitary(seed, dim))


def test_two_variable_values_do_not_depend_on_the_basis():
    """f = z1 + z2, g = z at N = 4, the twovar shape: m1 = 2 and the range side padded
    by d2, so the completion pairs slots of different defect spaces."""
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    rng = np.random.default_rng(5)
    nil = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), 1)
    T1 = scale_into_domain(f, OperatorTuple((nil, 0.5 * nil - 0.3 * nil @ nil)), 0.9)
    T2 = scale_into_domain(Z, OperatorTuple((0.7 * nil + 0.2 * nil @ nil,)), 0.9)

    def dilate(pair):
        dil = ando_dilation(pair, N=4)
        return dil.N, values(dil)
    assert_invariant(dilate, CommutingPair(f, Z, T1, T2), seeded_unitary(5, 4))


def test_minpoly_variety_dilation_does_not_depend_on_the_basis():
    """A pair dilated on the model of T1's characteristic polynomial; the generator is
    formed once, from the unconjugated T1, and annihilates both versions."""
    pair = random_commuting_pair(6, 3, "upper-triangular-commuting", Z, Z)
    generator = minpoly_generator(list(np.linalg.eigvals(pair.T1.mats[0])))

    def dilate(pair):
        dil = ando_dilation(pair, variety=[generator])
        return dil.N, values(dil)
    assert_invariant(dilate, pair, seeded_unitary(6, 3))
