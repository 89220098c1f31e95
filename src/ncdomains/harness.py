"""Two-tuple dilations and operator-inequality verification.

A commuting pair (T1 in the f-domain, T2 in the g-domain, entrywise
commuting) with T1 pure dilates to

    (W_i (x) I,  psi_j)   on (truncated f-Fock) (x) C^r,

where psi_j = phi_(g_j) / sqrt(c_{g_j}) comes from the transfer function of a
unitary colligation built on the triple (T1, T1, T2).  The Poisson kernel of
T1 compresses the dilation back to the pair, which yields

    || [p_rs(T1, T2)] || <= || [p_rs(W (x) I, psi)] ||

for every matrix of polynomials in the two tuples, and the analogous bound
with the roles of T1 and T2 swapped (the harness reports the minimum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .colligation import (IntertwiningTriple, build_isometry, colligation_report,
                          complete_to_unitary, embed_inner)
from .domain import (OperatorTuple, RegularPolynomial, apply_phi,
                     domain_membership, purity_horizon, weighted_creation)
from .poisson import poisson_kernel
from .report import VerificationReport
from .transfer import (TransferFunction, dilation_identity_report, eval_transfer,
                       multi_analytic_residual)
from .variety import VarietyModel
from .words import Word, check_word

BATTERY_VERSION = "v1"


# ---------------------------------------------------------------------------
# polynomials in two tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiPolynomial:
    """p(X, Y) = sum c_{u,v} X_u Y_v over words u in X-letters, v in Y-letters."""

    name: str
    n1: int
    n2: int
    terms: dict[tuple[Word, Word], complex]

    def __post_init__(self) -> None:
        clean = {}
        for (u, v), c in self.terms.items():
            u, v = tuple(u), tuple(v)
            check_word(u, self.n1)
            check_word(v, self.n2)
            if c != 0:
                clean[(u, v)] = complex(c)
        object.__setattr__(self, "terms", clean)

    def eval(self, X: OperatorTuple, Y: OperatorTuple) -> np.ndarray:
        d = X.rows
        out = np.zeros((d, d), dtype=complex)
        for (u, v), c in self.terms.items():
            out += c * (X.word(u) @ Y.word(v))
        return out

    def eval_scalar(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Pointwise value for n1 = n2 = 1 on arrays of scalars."""
        if self.n1 != 1 or self.n2 != 1:
            raise ValueError("scalar evaluation needs single-variable slots")
        out = np.zeros(np.broadcast(z, w).shape, dtype=complex)
        for (u, v), c in self.terms.items():
            out = out + c * z ** len(u) * w ** len(v)
        return out


@dataclass(frozen=True)
class HermitianBiPolynomial:
    """q(X, Y) = sum a X_u Y_v Y_s^* X_t^*, with a coefficient set making it
    Hermitian for every commuting pair (each term is paired with its adjoint).
    """

    name: str
    n1: int
    n2: int
    terms: dict[tuple[Word, Word, Word, Word], complex]

    def eval(self, X: OperatorTuple, Y: OperatorTuple) -> np.ndarray:
        d = X.rows
        out = np.zeros((d, d), dtype=complex)
        for (u, v, s, t), a in self.terms.items():
            out += a * (X.word(u) @ Y.word(v) @ Y.word(s).conj().T @ X.word(t).conj().T)
        return (out + out.conj().T) / 2


@dataclass(frozen=True)
class MatrixBiPolynomial:
    """A k x k matrix [p_rs] of BiPolynomials, evaluated as a block matrix."""

    name: str
    entries: tuple[tuple[BiPolynomial, ...], ...]

    def eval(self, X: OperatorTuple, Y: OperatorTuple) -> np.ndarray:
        return np.block([[p.eval(X, Y) for p in row] for row in self.entries])

    def eval_scalar(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Pointwise block values, stacked along two new trailing axes."""
        vals = [[p.eval_scalar(z, w) for p in row] for row in self.entries]
        return np.stack([np.stack(r, axis=-1) for r in vals], axis=-2)


def grid_sup_norm(p: BiPolynomial | MatrixBiPolynomial, resolution: int) -> float:
    """sup over the torus grid of |p(z, w)| (largest singular value if matrix)."""
    angles = 2.0 * np.pi * np.arange(resolution) / resolution
    z = np.exp(1j * angles)[:, None]
    w = np.exp(1j * angles)[None, :]
    vals = p.eval_scalar(z, w)
    if isinstance(p, MatrixBiPolynomial):
        return float(np.linalg.norm(vals, 2, axis=(-2, -1)).max())
    return float(np.abs(vals).max())


# ---------------------------------------------------------------------------
# commuting pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutingPair:
    f: RegularPolynomial
    g: RegularPolynomial
    T1: OperatorTuple
    T2: OperatorTuple
    kind: str = "explicit"
    seed: int | None = None

    def __post_init__(self) -> None:
        res = cross_commutation_residual(self.T1, self.T2)
        if res > 1e-8:
            raise ValueError(f"tuples do not commute entrywise (residual {res:.3e})")

    def swapped(self) -> "CommutingPair":
        return CommutingPair(self.g, self.f, self.T2, self.T1,
                             kind=self.kind + "-swapped", seed=self.seed)


def cross_commutation_residual(T1: OperatorTuple, T2: OperatorTuple) -> float:
    res = 0.0
    for a in T1.mats:
        for b in T2.mats:
            res = max(res, float(np.linalg.norm(a @ b - b @ a, 2)))
    return res


def scale_into_domain(f: RegularPolynomial, T: OperatorTuple,
                      target: float = 0.4, iters: int = 80) -> OperatorTuple:
    """Scale T so that lambda_max(Phi_{f,sT}(I)) is at most `target` (< 1).

    Phi grows monotonically in the scale, so a bisection suffices.  Tuples
    already below the target are returned unchanged.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")

    def top(s: float) -> float:
        st = OperatorTuple(tuple(s * m for m in T.mats))
        val = apply_phi(f, st, np.eye(T.cols, dtype=complex))
        return float(np.linalg.eigvalsh((val + val.conj().T) / 2).max())

    if top(1.0) <= target:
        return T
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if top(mid) <= target:
            lo = mid
        else:
            hi = mid
    return OperatorTuple(tuple(lo * m for m in T.mats))


PAIR_KINDS = ("jointly-nilpotent", "polynomial-of-single", "upper-triangular-commuting")


def random_commuting_pair(seed: int, dim: int, kind: str,
                          f: RegularPolynomial, g: RegularPolynomial,
                          target: float | None = None) -> CommutingPair:
    """Seeded commuting pair generators (single-variable slots).

    * jointly-nilpotent: strictly upper-triangular pair, either a tensor
      split kron(N1, I), kron(I, N2) when dim factors, or two polynomials
      without constant term in one random strictly upper N.
    * polynomial-of-single: dense random T1, T2 a quadratic polynomial of T1.
    * upper-triangular-commuting: both quadratic polynomials (with constant
      term) in a common strictly upper N.

    Both tuples are rescaled into their domains; nilpotent pairs to level
    0.9, others to 0.4 so that truncated checks converge quickly.
    """
    if f.n != 1 or g.n != 1:
        raise ValueError("the pair generators are single-variable")
    rng = np.random.default_rng(seed)

    def cmat(p: int, q: int) -> np.ndarray:
        return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))

    def strict_upper(d: int) -> np.ndarray:
        return np.triu(cmat(d, d), 1)

    if kind == "jointly-nilpotent":
        split = next((p for p in range(2, dim) if dim % p == 0), None)
        if split is not None and dim // split >= 2:
            a = np.kron(strict_upper(split), np.eye(dim // split))
            b = np.kron(np.eye(split), strict_upper(dim // split))
        else:
            nil = strict_upper(dim)
            c1, c2 = rng.standard_normal(2), rng.standard_normal(2)
            a = c1[0] * nil + c1[1] * (nil @ nil)
            b = c2[0] * nil + c2[1] * (nil @ nil)
        default_target = 0.9
    elif kind == "polynomial-of-single":
        a = cmat(dim, dim) / np.sqrt(dim)
        c = rng.standard_normal(3)
        b = c[0] * np.eye(dim) + c[1] * a + c[2] * (a @ a)
        default_target = 0.4
    elif kind == "upper-triangular-commuting":
        nil = strict_upper(dim)
        c1, c2 = rng.standard_normal(3), rng.standard_normal(3)
        a = c1[0] * np.eye(dim) + c1[1] * nil + c1[2] * (nil @ nil)
        b = c2[0] * np.eye(dim) + c2[1] * nil + c2[2] * (nil @ nil)
        default_target = 0.4
    else:
        raise ValueError(f"unknown pair kind {kind!r}; expected one of {PAIR_KINDS}")

    target = default_target if target is None else target
    t1 = scale_into_domain(f, OperatorTuple((a,)), target)
    t2 = scale_into_domain(g, OperatorTuple((b,)), target)
    return CommutingPair(f, g, t1, t2, kind=kind, seed=seed)


# ---------------------------------------------------------------------------
# dilation of a commuting pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairDilation:
    """(left, right) dilation of (T1, T2) with the compressing kernel."""

    pair: CommutingPair
    N: int
    left: OperatorTuple    # W_i (x) I_r (or compressed to a variety model)
    right: OperatorTuple   # psi_j, square on the same space
    kernel: np.ndarray     # columns: the (padded/compressed) Poisson kernel of T1
    transfer: TransferFunction = field(repr=False)
    variety: VarietyModel | None = field(default=None, repr=False)
    report: VerificationReport = field(default_factory=lambda: VerificationReport("dilation"))

    @property
    def multiplicity(self) -> int:
        """Common inner dimension r of the dilation space (Fock) (x) C^r."""
        return max(self.transfer.r_out, self.transfer.r_in)


def choose_truncation(f: RegularPolynomial, T: OperatorTuple,
                      tail_tol: float = 1e-13, cap: int = 48) -> int:
    """Truncation level from the purity decay of T (plus a one-level margin)."""
    m, tail = purity_horizon(f, T, tail_tol=tail_tol, cap=cap)
    if tail > 1e-6:
        raise ValueError(f"tuple is not pure enough for a truncated dilation "
                         f"(||Phi^{m}(I)|| = {tail:.3e})")
    return m + 1


def ando_dilation(pair: CommutingPair, N: int | None = None,
                  variety: VarietyModel | None = None,
                  tol: float = 1e-8) -> PairDilation:
    """Dilate a commuting pair via the transfer function of its colligation.

    The transfer blocks of the degree-one words of g, divided by the square
    roots of their coefficients, are embedded into a common inner dimension
    r = max(r_out, r_in); padding coordinates carry no content, so the
    compression identities are unaffected.
    """
    f, g, T1, T2 = pair.f, pair.g, pair.T1, pair.T2
    N = N if N is not None else choose_truncation(f, T1)
    triple = IntertwiningTriple(f, g, T1, T1, T2)
    col = complete_to_unitary(build_isometry(triple, tol=max(tol, 1e-8)))
    tf = eval_transfer(col, N)

    r = max(tf.r_out, tf.r_in)
    size = tf.fock_size
    psi = []
    for j in range(1, g.n + 1):
        blk = tf.block((j,))
        blk = embed_inner(blk, size, tf.r_out, r, axis=0)
        blk = embed_inner(blk, size, tf.r_in, r, axis=1)
        psi.append(blk / np.sqrt(g.coeffs[(j,)]))
    K1 = poisson_kernel(f, T1, N)
    kmat = embed_inner(K1.matrix, size, K1.multiplicity, r, axis=0)
    left = [w.dense(np.eye(r)) for w in weighted_creation(f, N)]

    if variety is not None:
        if variety.N != N or variety.f.coeffs != f.coeffs:
            raise ValueError("variety model must be built from f at the dilation truncation")
        proj = np.kron(variety.basis.conj().T, np.eye(r))
        left = [proj @ m @ proj.conj().T for m in left]
        psi = [proj @ m @ proj.conj().T for m in psi]
        kmat = proj @ kmat

    rep = VerificationReport("pair-dilation", environment={
        "N": str(N), "r": str(r), "kind": pair.kind, "seed": str(pair.seed)})
    rep.extend(colligation_report(col), prefix="colligation_")
    rep.add_residual("kernel_isometry",
                     float(np.linalg.norm(kmat.conj().T @ kmat - np.eye(T1.dim), 2)),
                     max(tol, 1e-7))
    rep.extend(dilation_identity_report(tf, K1, K1, tol=max(tol, 1e-7)),
               prefix="")
    for j in range(1, g.n + 1):
        rep.add_residual(f"psi{j}_multi_analytic", multi_analytic_residual(tf, (j,)),
                         max(tol, 1e-7))
    mem = domain_membership(RegularPolynomial(g.n, {(j,): g.coeffs[(j,)]
                                                    for j in range(1, g.n + 1)}),
                            OperatorTuple(tuple(psi)))
    rep.add_slack("psi_ellipsoid_min_eig", mem.min_eig_ellipsoid, 1e-8)

    return PairDilation(pair=pair, N=N, left=OperatorTuple(tuple(left)),
                        right=OperatorTuple(tuple(psi)), kernel=kmat,
                        transfer=tf, variety=variety, report=rep)


def compression_residual(dil: PairDilation, p: BiPolynomial) -> float:
    """|| p(T1, T2) - K^* p(left, psi) K || (exact for nilpotent pairs)."""
    lhs = p.eval(dil.pair.T1, dil.pair.T2)
    rhs = dil.kernel.conj().T @ p.eval(dil.left, dil.right) @ dil.kernel
    return float(np.linalg.norm(lhs - rhs, 2))


def commutant_lifting(f: RegularPolynomial, T1: OperatorTuple, T1p: OperatorTuple,
                      A: np.ndarray, N: int | None = None,
                      tol: float = 1e-8) -> VerificationReport:
    """Lift an intertwiner A (A T1p_i = T1_i A) through the Poisson kernels.

    This is the g = z specialization: the single transfer block psi satisfies
    psi^* K_{T1} = K_{T1p} A^* and has the same norm as A.  A is normalized to
    norm one before lifting.
    """
    g = RegularPolynomial.single_variable([1.0])
    a_norm = float(np.linalg.norm(A, 2))
    if a_norm == 0.0:
        raise ValueError("cannot normalize the zero intertwiner")
    A = np.asarray(A, dtype=complex) / a_norm
    triple = IntertwiningTriple(f, g, T1, T1p, OperatorTuple((A,)))
    col = complete_to_unitary(build_isometry(triple, tol=max(tol, 1e-8)))
    N = N if N is not None else max(choose_truncation(f, T1),
                                    choose_truncation(f, T1p))
    tf = eval_transfer(col, N)
    psi = tf.block((1,))

    rep = VerificationReport("commutant-lifting",
                             environment={"N": str(N), "norm_A": repr(1.0)})
    K1 = poisson_kernel(f, T1, N)
    K1p = poisson_kernel(f, T1p, N)
    rep.extend(dilation_identity_report(tf, K1, K1p, tol=max(tol, 1e-7)), prefix="")
    lift_norm = float(np.linalg.norm(psi, 2))
    rep.environment["lift_norm"] = repr(lift_norm)
    rep.add_residual("lift_norm_vs_A", abs(lift_norm - 1.0), max(tol, 1e-8))
    rep.add_residual("lift_multi_analytic", multi_analytic_residual(tf, (1,)),
                     max(tol, 1e-7))
    return rep


# ---------------------------------------------------------------------------
# the inequality harness
# ---------------------------------------------------------------------------

def verify_inequality(pair: CommutingPair,
                      polys: list[BiPolynomial | MatrixBiPolynomial],
                      dil: PairDilation | None = None,
                      dil_swapped: PairDilation | None = None,
                      tol: float = 1e-6) -> VerificationReport:
    """Check ||p(T1, T2)|| <= min over available dilations of ||p(dilated)||.

    With the swapped dilation the polynomial is evaluated as
    p(psi', W^g (x) I): the second tuple becomes the creation side.
    """
    dil = dil if dil is not None else ando_dilation(pair)
    rep = VerificationReport("inequality-battery",
                             environment={"battery": BATTERY_VERSION,
                                          "kind": pair.kind, "seed": str(pair.seed)})
    for p in polys:
        lhs = float(np.linalg.norm(p.eval(pair.T1, pair.T2), 2))
        rhs = float(np.linalg.norm(p.eval(dil.left, dil.right), 2))
        if dil_swapped is not None:
            rhs = min(rhs, float(np.linalg.norm(
                p.eval(dil_swapped.right, dil_swapped.left), 2)))
        rep.add_slack(f"norm_slack_{p.name}", rhs - lhs, tol)
    return rep


def verify_hermitian_inequality(pair: CommutingPair,
                                polys: list[HermitianBiPolynomial],
                                dil: PairDilation | None = None,
                                tol: float = 1e-6) -> VerificationReport:
    """Check lambda_max(q(T1, T2)) <= lambda_max(q(dilated)) for Hermitian q."""
    dil = dil if dil is not None else ando_dilation(pair)
    rep = VerificationReport("hermitian-battery",
                             environment={"battery": BATTERY_VERSION,
                                          "kind": pair.kind, "seed": str(pair.seed)})
    for q in polys:
        lhs = float(np.linalg.eigvalsh(q.eval(pair.T1, pair.T2)).max())
        rhs = float(np.linalg.eigvalsh(q.eval(dil.left, dil.right)).max())
        rep.add_slack(f"eig_slack_{q.name}", rhs - lhs, tol)
    return rep


def von_neumann_check(pair: CommutingPair,
                      polys: list[BiPolynomial | MatrixBiPolynomial],
                      resolution: int = 512, margin: float = 2e-2,
                      tol: float = 1e-9) -> VerificationReport:
    """For f = g = z only: ||p(T1, T2)|| <= sup-norm of p on the torus grid.

    The grid sup-norm underestimates the true sup-norm, so a stated margin
    is added on the right-hand side.
    """
    if pair.f.coeffs != {(1,): 1.0} or pair.g.coeffs != {(1,): 1.0}:
        raise ValueError("the torus bound applies to the f = g = z baseline only")
    rep = VerificationReport("von-neumann",
                             environment={"resolution": str(resolution),
                                          "margin": repr(margin)})
    for p in polys:
        lhs = float(np.linalg.norm(p.eval(pair.T1, pair.T2), 2))
        sup = grid_sup_norm(p, resolution)
        rep.add_slack(f"torus_slack_{p.name}", sup + margin - lhs, tol)
    return rep


# ---------------------------------------------------------------------------
# built-in polynomial battery (version v1)
# ---------------------------------------------------------------------------

def _bp(name: str, terms: dict[tuple[Word, Word], complex]) -> BiPolynomial:
    return BiPolynomial(name, 1, 1, terms)


_X: Word = (1,)
_E: Word = ()


def builtin_bipolynomials() -> list[BiPolynomial]:
    """Ten fixed polynomials in (X, Y), single variable in each slot."""
    return [
        _bp("sum", {(_X, _E): 1, (_E, _X): 1}),
        _bp("product", {(_X, _X): 1}),
        _bp("affine", {(_E, _E): 1, (_X, _E): 0.5, (_E, _X): 0.5}),
        _bp("diff_squares", {(_X * 2, _E): 1, (_E, _X * 2): -1}),
        _bp("balanced", {(_X, _X): 2, (_X, _E): -1, (_E, _X): -1}),
        _bp("cubic_mix", {(_X * 3, _E): 1, (_E, _X * 3): 1, (_X, _X): 1}),
        _bp("square_of_sum", {(_X * 2, _E): 1, (_X, _X): 2, (_E, _X * 2): 1}),
        _bp("biquadratic", {(_X * 2, _X * 2): 1}),
        _bp("complex_mix", {(_X, _E): 0.5 + 0.5j, (_E, _X): 0.5 - 0.5j,
                            (_X, _X * 2): 1j}),
        _bp("one_minus_product", {(_E, _E): 1, (_X, _X): -1}),
    ]


def builtin_hermitian() -> list[HermitianBiPolynomial]:
    """Three fixed Hermitian expressions sum a X_u Y_v Y_s^* X_t^*."""
    return [
        HermitianBiPolynomial("sandwich", 1, 1, {(_X, _X, _X, _X): 1.0}),
        HermitianBiPolynomial("two_squares", 1, 1,
                              {(_X, _E, _E, _X): 1.0, (_E, _X, _X, _E): 1.0}),
        HermitianBiPolynomial("mixed_gram", 1, 1,
                              {(_X, _E, _E, _X): 1.0, (_X, _E, _X, _E): 1.0,
                               (_E, _X, _E, _X): 1.0, (_E, _X, _X, _E): 1.0}),
    ]


def builtin_matrix_polys() -> list[MatrixBiPolynomial]:
    """Two fixed 2 x 2 matrices of battery polynomials."""
    zero = _bp("zero", {})
    one = _bp("one", {(_E, _E): 1})
    x = _bp("x", {(_X, _E): 1})
    y = _bp("y", {(_E, _X): 1})
    xy = _bp("xy", {(_X, _X): 1})
    return [
        MatrixBiPolynomial("shear", ((one, x), (zero, y))),
        MatrixBiPolynomial("full", ((x, xy), (y, one))),
    ]


def run_battery(f: RegularPolynomial, g: RegularPolynomial, seeds: list[int],
                dims: list[int], kinds: list[str] | None = None,
                tol: float = 1e-6, with_swapped: bool = True,
                with_von_neumann: bool = True) -> VerificationReport:
    """Seeded sweep of the inequality battery; deterministic for fixed inputs."""
    kinds = list(PAIR_KINDS) if kinds is None else kinds
    polys = builtin_bipolynomials() + builtin_matrix_polys()
    herm = builtin_hermitian()
    rep = VerificationReport("battery", environment={"battery": BATTERY_VERSION,
                                                     "pairs": "0"})
    count = 0
    baseline = f.coeffs == {(1,): 1.0} and g.coeffs == {(1,): 1.0}
    for idx, seed in enumerate(seeds):
        kind = kinds[idx % len(kinds)]
        dim = dims[idx % len(dims)]
        pair = random_commuting_pair(seed, dim, kind, f, g)
        dil = ando_dilation(pair, tol=tol)
        dil_sw = ando_dilation(pair.swapped(), tol=tol) if with_swapped else None
        pre = f"s{seed}_{kind}_"
        rep.extend(verify_inequality(pair, polys, dil, dil_sw, tol=tol), prefix=pre)
        rep.extend(verify_hermitian_inequality(pair, herm, dil, tol=tol), prefix=pre)
        if baseline and with_von_neumann:
            rep.extend(von_neumann_check(pair, polys), prefix=pre)
        count += 1
    rep.environment["pairs"] = str(count)
    return rep
