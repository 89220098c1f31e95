"""Two-tuple dilations and operator-inequality verification.

A commuting pair (T1 in the f-domain, T2 in the g-domain, entrywise
commuting) with T1 pure dilates to

    (W_i (x) I,  psi_j)   on (truncated f-Fock) (x) C^r,

where psi_j = phi_(g_j) / sqrt(c_{g_j}) comes from the transfer function of a
unitary colligation built on the triple (T1, T1, T2).  The Poisson kernel of
T1 compresses the dilation back to the pair, which yields

    || [p_rs(T1, T2)] || <= || [p_rs(W (x) I, psi)] ||

for every matrix of polynomials in the two tuples, and the analogous bound
with the roles of T1 and T2 swapped (the harness reports the minimum).  On
f = g = z the bound by sup over the torus of ||p|| is checked on the dilation's
distinguished variety (``von_neumann_check``).
A ``CommutingPair`` is validated on construction as the triple (f, g, T1, T1, T2) that
``ando_dilation`` dilates.  ``ando_dilation`` only assembles: a ``PairDilation`` stores
the transfer table, the kernels and the variety model (if any), W comes from f and N as
index maps, and its checks run on the first read of ``PairDilation.report``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .colligation import (IntertwiningTriple, build_isometry, colligation_report,
                          complete_to_unitary, embed_inner, intertwining_residual)
from .domain import (OperatorTuple, RegularPolynomial, apply_phi, kron_identity_matmul,
                     phi_identity_iterates, weighted_creation)
from .poisson import PoissonKernel, poisson_kernel
from .report import VerificationReport
from .transfer import (TransferFunction, _lambda_max, _row_adjoint, _row_gram, _scatter,
                       dilation_identity_report, eval_transfer, multi_analytic_residual,
                       realization)
from .variety import Generator, VarietyModel, build_variety, constrained_poisson
from .words import Word, check_word, fock_size

BATTERY_VERSION = "v1"
TORUS_RESOLUTION = 512  # circle points z_k of the distinguished-variety check
MAX_CHOSEN_WORDS = 4096  # largest Fock space choose_truncation may pick


# ---------------------------------------------------------------------------
# polynomials in two tuples
# ---------------------------------------------------------------------------

Term = tuple[Word, Word, Word, Word]


@dataclass(frozen=True)
class BiPolynomial:
    """A k x k matrix [p_rs] of polynomials in two tuples, evaluated as a block matrix.

    Entry (r, s) maps terms (u, v, s, t) to c, meaning c X_u Y_v Y_s^* X_t^*
    (u, t in the n1 letters of X; v, s in the n2 letters of Y).  With adjoint
    words the polynomial is Hermitian: evaluation returns (q + q^*)/2.
    """

    name: str
    n1: int
    n2: int
    entries: tuple[tuple[dict[Term, complex], ...], ...]

    def __post_init__(self) -> None:
        def clean(terms: dict[Term, complex]) -> dict[Term, complex]:
            out = {}
            for key, c in terms.items():
                key = tuple(tuple(w) for w in key)
                for w, n in zip(key, (self.n1, self.n2, self.n2, self.n1)):
                    check_word(w, n)
                if c != 0:
                    out[key] = complex(c)
            return out
        object.__setattr__(self, "entries",
                           tuple(tuple(clean(terms) for terms in row) for row in self.entries))

    def _terms(self) -> list[tuple[int, int, Term, complex]]:
        """(row, column, (u, v, s, t), c) for every term, entry by entry."""
        return [(r, col, key, c) for r, row in enumerate(self.entries)
                for col, terms in enumerate(row) for key, c in terms.items()]

    @property
    def hermitian(self) -> bool:
        return any(s or t for _, _, (_, _, s, t), _ in self._terms())

    def eval(self, X: OperatorTuple, Y: OperatorTuple) -> np.ndarray:
        d, herm = X.rows, self.hermitian
        out = np.zeros((len(self.entries) * d,) * 2, dtype=complex)
        for r, col, (u, v, s, t), c in self._terms():
            words = ((X, u, False), (Y, v, False), (Y, s, True), (X, t, True))[:4 if herm else 2]
            factors = [T.word(w).conj().T if adj else T.word(w) for T, w, adj in words if w]
            m = functools.reduce(np.matmul, factors) if factors else np.eye(d)
            out[r * d:(r + 1) * d, col * d:(col + 1) * d] += c * m
        return (out + out.conj().T) / 2 if herm else out

    def eval_scalar(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Pointwise values for n1 = n2 = 1 on arrays of scalars, shape (..., k, k)."""
        if self.n1 != 1 or self.n2 != 1:
            raise ValueError("scalar evaluation needs single-variable slots")
        k, herm = len(self.entries), self.hermitian
        vals = np.zeros(np.broadcast(z, w).shape + (k, k), dtype=complex)
        for r, col, (u, v, s, t), c in self._terms():
            m = c * z ** len(u) * w ** len(v)
            if herm:
                m = m * np.conj(w) ** len(s) * np.conj(z) ** len(t)
            vals[..., r, col] += m
        return (vals + np.conj(np.swapaxes(vals, -1, -2))) / 2 if herm else vals


def spectral_norms(vals: np.ndarray) -> np.ndarray:
    """The largest singular value of each k x k matrix in a stack (..., k, k).

    For k = 2 it comes from the Gram entries g = A^* A in closed form,
    sigma^2 = (g11 + g22)/2 + hypot((g11 - g22)/2, |g12|), which adds only
    nonnegative terms (unlike the form built from the Frobenius norm and the
    determinant); k = 1 is the modulus and other k go through np.linalg.norm.
    The squares of the entries must neither overflow nor underflow (|entries|
    within about 1e-150 .. 1e150), as holds for polynomial values on the torus.
    """
    if vals.shape[-2:] == (1, 1):
        return np.abs(vals[..., 0, 0])
    if vals.shape[-2:] != (2, 2):
        return np.linalg.norm(vals, 2, axis=(-2, -1))
    a, b, c, d = vals[..., 0, 0], vals[..., 0, 1], vals[..., 1, 0], vals[..., 1, 1]
    g11 = a.real**2 + a.imag**2 + c.real**2 + c.imag**2
    g22 = b.real**2 + b.imag**2 + d.real**2 + d.imag**2
    g12 = np.abs(a.conj() * b + c.conj() * d)
    return np.sqrt((g11 + g22) / 2 + np.hypot((g11 - g22) / 2, g12))


def grid_sup_norm(p: BiPolynomial, resolution: int) -> float:
    """max of the largest singular value of p(z, w) over the resolution^2 torus grid,
    a lower bound of the sup-norm: the reference for ``von_neumann_check``'s points."""
    z = np.exp(1j * (2.0 * np.pi * np.arange(resolution) / resolution))
    return float(spectral_norms(p.eval_scalar(z[:, None], z[None, :])).max())


# ---------------------------------------------------------------------------
# commuting pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutingPair:
    """A pair in D_f x_c D_g, validated on construction as its triple (f, g, T1, T1, T2)."""

    f: RegularPolynomial
    g: RegularPolynomial
    T1: OperatorTuple
    T2: OperatorTuple
    kind: str = "explicit"
    seed: int | None = None

    def __post_init__(self) -> None:
        self.triple  # built, and so validated, once

    @functools.cached_property
    def triple(self) -> IntertwiningTriple:
        return IntertwiningTriple(self.f, self.g, self.T1, self.T1, self.T2)

    def swapped(self) -> "CommutingPair":
        return CommutingPair(self.g, self.f, self.T2, self.T1,
                             kind=self.kind + "-swapped", seed=self.seed)


def cross_commutation_residual(T1: OperatorTuple, T2: OperatorTuple) -> float:
    return intertwining_residual(T1, T1, T2)


def scale_into_domain(f: RegularPolynomial, T: OperatorTuple, target: float) -> OperatorTuple:
    """sT with s = sqrt(target / lambda_max(Phi_{f,T}(I))), so that lambda_max(Phi_{f,sT}(I))
    is at most `target` (< 1).  Tuples already at or below the target are returned unchanged.

    Every word of f has length >= 1, so Phi_{f,sT}(I) <= s^2 Phi_{f,T}(I) for s <= 1: the
    scale is exact when deg f = 1, and above that the provable one, not the largest one.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    val = apply_phi(f, T)
    top = float(np.linalg.eigvalsh((val + val.conj().T) / 2).max())
    if top <= target:
        return T
    s = float(np.sqrt(target / top))
    return OperatorTuple(tuple(s * m for m in T.mats))


PAIR_KINDS = ("jointly-nilpotent", "polynomial-of-single", "upper-triangular-commuting")


def random_commuting_pair(seed: int, dim: int, kind: str,
                          f: RegularPolynomial, g: RegularPolynomial) -> CommutingPair:
    """Seeded commuting pair generators (single-variable slots).

    * jointly-nilpotent: strictly upper-triangular pair, either a tensor
      split kron(N1, I), kron(I, N2) when dim factors, or two polynomials
      without constant term in one random strictly upper N.
    * polynomial-of-single: dense random T1, T2 a quadratic polynomial of T1.
    * upper-triangular-commuting: both quadratic polynomials (with constant
      term) in a common strictly upper N.

    Both tuples are rescaled into their domains by ``scale_into_domain``: nilpotent pairs
    to level 0.9, others to 0.4 so that truncated checks converge quickly.  The level is
    reached when deg f = 1; for deg f >= 2 the scale is the provable one, so the level
    lambda_max(Phi(I)) is at most 0.9 or 0.4.
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
        target = 0.9
    elif kind == "polynomial-of-single":
        a = cmat(dim, dim) / np.sqrt(dim)
        c = rng.standard_normal(3)
        b = c[0] * np.eye(dim) + c[1] * a + c[2] * (a @ a)
        target = 0.4
    elif kind == "upper-triangular-commuting":
        nil = strict_upper(dim)
        c1, c2 = rng.standard_normal(3), rng.standard_normal(3)
        a = c1[0] * np.eye(dim) + c1[1] * nil + c1[2] * (nil @ nil)
        b = c2[0] * np.eye(dim) + c2[1] * nil + c2[2] * (nil @ nil)
        target = 0.4
    else:
        raise ValueError(f"unknown pair kind {kind!r}; expected one of {PAIR_KINDS}")

    t1 = scale_into_domain(f, OperatorTuple((a,)), target)
    t2 = scale_into_domain(g, OperatorTuple((b,)), target)
    return CommutingPair(f, g, t1, t2, kind=kind, seed=seed)


# ---------------------------------------------------------------------------
# dilation of a commuting pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilatedTuple:
    """n square dim x dim letters, known unbuilt; ``build`` runs once, on the first dense read."""

    n: int
    dim: int
    build: Callable[[], tuple[np.ndarray, ...]]
    rows = cols = property(lambda self: self.dim)
    mats = property(lambda self: self.dense.mats)
    word = OperatorTuple.word

    @functools.cached_property
    def dense(self) -> OperatorTuple:
        return OperatorTuple(self.build())


@dataclass(frozen=True)
class PairDilation:
    """The dilation of (T1, T2), each object stored once (module docstring); ``left`` and
    ``right`` are DilatedTuples on the kernel's range, (Fock or model) (x) C^r, made on their
    first read and kept, so each dilation builds its dense letters at most once.  Their
    builders hold the fields they read, not the dilation, so no reference cycle delays
    freeing a dilation and its letters."""

    pair: CommutingPair
    N: int
    kernel: np.ndarray     # columns: the (padded/compressed) Poisson kernel of T1
    transfer: TransferFunction
    variety: VarietyModel | None
    K1: PoissonKernel      # T1's unpadded kernel, read by the dilation identity
    tol: float             # the tolerance ando_dilation was given

    @property
    def multiplicity(self) -> int:
        """Common inner dimension r of the dilation space (Fock) (x) C^r."""
        return max(self.transfer.r_out, self.transfer.r_in)

    @functools.cached_property
    def left(self) -> DilatedTuple:
        """W_i (x) I_r, or B_i (x) I_r = (P (x) I) (W_i (x) I_r) (P (x) I)^* on a variety model."""
        f, N, eye, model = self.pair.f, self.N, np.eye(self.multiplicity), self.variety
        return DilatedTuple(f.n, len(self.kernel), lambda: (
            tuple(w.dense(eye) for w in weighted_creation(f, N)) if model is None
            else tuple(np.kron(b, eye) for b in model.left.mats)))

    @functools.cached_property
    def right(self) -> DilatedTuple:
        """psi_j = phi_(j) / sqrt(c_j), j the words (j,) of g, from the table over sqrt(c_j),
        scattered into the padded (Fock r)^2 layout, or on a variety model X^* psi_j X =
        ((basis^T (x) I) conj(psi_j^* X))^T, X = basis (x) I_r, with no dense block."""
        return DilatedTuple(self.pair.g.n, len(self.kernel), functools.partial(
            _psi, self.transfer, self.pair.g, self.variety, self.multiplicity))

    @functools.cached_property
    def report(self) -> VerificationReport:
        """The checks of the dilation, run on the first read and kept.

        psi_ellipsoid_min_eig is the least eigenvalue of I - sum_j c_j psi_j psi_j^*,
        1 - lambda_max of the Gram of the content rows: the padded rows only add
        the eigenvalue 1.  Without a variety model the Gram comes from the
        coefficient table (transfer._row_gram), with one from the compressed psi_j
        of ``right`` (its padded rows are zero; _lambda_max drops the exactly-zero
        rows).  lambda_max is read as the certified Ritz value theta of
        transfer._lambda_max, lambda_max <= theta + delta, with no factorization.

        psi{j}_multi_analytic checks the shift structure of the table, the bound
        of transfer.multi_analytic_residual, not the dense letters of ``right``;
        nothing in this report compares the dense psi with the table.
        """
        tf, g, tol = self.transfer, self.pair.g, self.tol
        rep = VerificationReport("pair-dilation", environment={
            "N": str(self.N), "r": str(self.multiplicity), "kind": self.pair.kind,
            "seed": str(self.pair.seed)})
        rep.extend(colligation_report(tf.colligation), prefix="colligation_")
        rep.add_residual("kernel_isometry", float(np.linalg.norm(
            self.kernel.conj().T @ self.kernel - np.eye(self.pair.T1.dim), 2)), max(tol, 1e-7))
        rep.extend(dilation_identity_report(tf, self.K1, self.K1, tol=max(tol, 1e-7)))
        for j in range(1, g.n + 1):
            rep.add_residual(f"psi{j}_multi_analytic", multi_analytic_residual(tf, (j,)),
                             max(tol, 1e-7))
        gram = (_row_gram(tf, self.N, [(j,) for j in range(1, g.n + 1)]) if self.variety is None
                else sum(g.coeffs[(j,)] * (m @ m.conj().T)
                         for j, m in enumerate(self.right.mats, 1)))
        rep.add_slack("psi_ellipsoid_min_eig", 1.0 - _lambda_max(gram), 1e-8)
        return rep


def _psi(tf: TransferFunction, g: RegularPolynomial, model: VarietyModel | None,
         r: int) -> tuple[np.ndarray, ...]:
    """The letters of ``PairDilation.right``."""
    x = None if model is None else np.kron(model.basis, np.eye(r))
    table = None if x is None else np.zeros((tf.fock_size, r, r), dtype=complex)
    psi = []
    for j in range(1, g.n + 1):
        theta = tf.theta[:, :, tf.block_words.index((j,))] / np.sqrt(g.coeffs[(j,)])
        if x is None:
            psi.append(_scatter(theta, tf.f, tf.N, (r, r)))
            continue
        table[:, :tf.r_out, :tf.r_in] = theta
        adjoint = _row_adjoint(table, tf.f, tf.N, x)  # psi_j^* X, conjugated in place
        psi.append(kron_identity_matmul(model.basis.T, np.conjugate(adjoint, out=adjoint)).T)
    return tuple(psi)


def choose_truncation(f: RegularPolynomial, T: OperatorTuple) -> int:
    """Truncation level from the purity decay of T: N = m + 1 for the smallest m <= 48 with
    ||Phi^m(I)|| <= 1e-13 (else m = 48), accepted when ||Phi^m(I)|| <= 1e-6, and refused
    before anything is built when its Fock space has more than MAX_CHOSEN_WORDS words."""
    for m, x in enumerate(phi_identity_iterates(f, T, 48), start=1):
        tail = float(np.linalg.norm(x, 2))
        if tail <= 1e-13:
            break
    if tail > 1e-6:
        raise ValueError(f"tuple is not pure enough for a truncated dilation "
                         f"(||Phi^{m}(I)|| = {tail:.3e})")
    words = fock_size(f.n, m + 1)
    if words > MAX_CHOSEN_WORDS:
        raise ValueError(f"the purity decay asks for N = {m + 1} over n = {f.n} letters, "
                         f"{words} words, above the limit of {MAX_CHOSEN_WORDS}; give N")
    return m + 1


def ando_dilation(pair: CommutingPair, N: int | None = None,
                  variety: list[Generator] | None = None,
                  tol: float = 1e-8) -> PairDilation:
    """Dilate a commuting pair via the transfer function of its colligation.

    The transfer blocks of the degree-one words of g, divided by the square
    roots of their coefficients, are embedded into a common inner dimension
    r = max(r_out, r_in); padding coordinates carry no content, so the
    compression identities are unaffected.  The dilation keeps the table; its dense
    psi is built only on a dense read of ``right``.  This assembles only: the checks
    run on the first read of ``PairDilation.report``, with ``tol``.

    Given generators (``variety``, nonempty) the model is built from f at the
    chosen N, and the kernel is that of ``constrained_poisson``, padded to r.
    """
    f, T1 = pair.f, pair.T1
    N = N if N is not None else choose_truncation(f, T1)
    col = complete_to_unitary(build_isometry(pair.triple, tol=max(tol, 1e-8)))
    tf = eval_transfer(col, N)

    r = max(tf.r_out, tf.r_in)
    K1 = poisson_kernel(f, T1, N)
    model = build_variety(f, N, variety) if variety else None
    kmat = (embed_inner(K1.matrix, tf.fock_size, K1.multiplicity, r) if model is None else
            embed_inner(constrained_poisson(model, K1).matrix, model.dim, K1.multiplicity, r))
    return PairDilation(pair=pair, N=N, kernel=kmat, transfer=tf, variety=model, K1=K1, tol=tol)


# ---------------------------------------------------------------------------
# the inequality harness
# ---------------------------------------------------------------------------

def verify_inequality(polys: list[BiPolynomial], dil: PairDilation,
                      dil_swapped: PairDilation | None = None, *,
                      tol: float) -> VerificationReport:
    """Check ||p(T1, T2)|| <= min over available dilations of ||p(dilated)||, and
    lambda_max(q(T1, T2)) <= lambda_max(q(dilated)) for Hermitian q; (T1, T2) = dil.pair.

    With the swapped dilation the polynomial is evaluated as
    p(psi', W^g (x) I): the second tuple becomes the creation side.  Hermitian
    polynomials are checked on ``dil`` only.
    """
    pair = dil.pair
    rep = VerificationReport("inequality-battery",
                             environment={"battery": BATTERY_VERSION,
                                          "kind": pair.kind, "seed": str(pair.seed)})
    left, right = dil.left.dense, dil.right.dense
    swapped = None if dil_swapped is None else (dil_swapped.right.dense, dil_swapped.left.dense)
    for p in polys:
        if p.hermitian:
            lhs = float(np.linalg.eigvalsh(p.eval(pair.T1, pair.T2)).max())
            rhs = float(np.linalg.eigvalsh(p.eval(left, right)).max())
            rep.add_slack(f"eig_slack_{p.name}", rhs - lhs, tol)
            continue
        lhs = float(np.linalg.norm(p.eval(pair.T1, pair.T2), 2))
        rhs = float(np.linalg.norm(p.eval(left, right), 2))
        if swapped is not None:
            rhs = min(rhs, float(np.linalg.norm(p.eval(*swapped), 2)))
        rep.add_slack(f"norm_slack_{p.name}", rhs - lhs, tol)
    return rep


def von_neumann_check(dil: PairDilation, polys: list[BiPolynomial]) -> VerificationReport:
    """For f = g = z and p without adjoint words: ||p(T1, T2)|| <= max of ||p|| on the
    distinguished variety V = {det(w I - Psi(z)) = 0} on the torus, (T1, T2) = dil.pair.

    Psi(z) = A^* + z C^* (I - z D^*)^{-1} B^* (``realization`` of the dilation's
    colligation at the 1 x 1 matrices z_k) is inner here; its eigenvalues w
    at the TORUS_RESOLUTION circle points z_k are divided by |w|, so each (z_k, w) is a
    torus point, on V to rounding.  The slack max_k ||p(z_k, w)|| - ||p(T1, T2)|| is a
    lower bound of sup_V ||p|| - ||p(T1, T2)||: a pass proves Ando's bound and, to
    rounding, Agler-McCarthy's.  No margin is added; the env key ``margin`` (0.0)
    stays only because the recorded report signature lists it."""
    pair = dil.pair
    if pair.f.coeffs != {(1,): 1.0} or pair.g.coeffs != {(1,): 1.0}:
        raise ValueError("the torus bound applies to the f = g = z baseline only")
    z = np.exp(2.0j * np.pi * np.arange(TORUS_RESOLUTION) / TORUS_RESOLUTION)
    w = np.linalg.eigvals(realization(dil.transfer.colligation, (z[:, None, None],)))
    w /= np.abs(w)
    rep = VerificationReport("von-neumann",
                             environment={"resolution": str(TORUS_RESOLUTION),
                                          "margin": repr(0.0)})
    for p in polys:
        lhs = float(np.linalg.norm(p.eval(pair.T1, pair.T2), 2))
        sup = float(spectral_norms(p.eval_scalar(z[:, None], w)).max())
        rep.add_slack(f"torus_slack_{p.name}", sup - lhs, 1e-9)
    return rep


# ---------------------------------------------------------------------------
# built-in polynomial battery (version v1)
# ---------------------------------------------------------------------------

_X: Word = (1,)
_E: Word = ()


def _entry(terms: dict[tuple[Word, Word], complex]) -> dict[Term, complex]:
    """The terms c X_u Y_v of a polynomial without adjoint words, keyed by (u, v)."""
    return {(u, v, _E, _E): c for (u, v), c in terms.items()}


def _bp(name: str, terms: dict[tuple[Word, Word], complex]) -> BiPolynomial:
    return BiPolynomial(name, 1, 1, ((_entry(terms),),))


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


def builtin_hermitian() -> list[BiPolynomial]:
    """Three fixed Hermitian expressions sum a X_u Y_v Y_s^* X_t^*."""
    # the terms X X^*, X Y^*, Y X^* and Y Y^*
    xx, xy, yx, yy = (_X, _E, _E, _X), (_X, _E, _X, _E), (_E, _X, _E, _X), (_E, _X, _X, _E)
    return [
        BiPolynomial("sandwich", 1, 1, (({(_X, _X, _X, _X): 1.0},),)),
        BiPolynomial("two_squares", 1, 1, (({xx: 1.0, yy: 1.0},),)),
        BiPolynomial("mixed_gram", 1, 1, (({xx: 1.0, xy: 1.0, yx: 1.0, yy: 1.0},),)),
    ]


def builtin_matrix_polys() -> list[BiPolynomial]:
    """Two fixed 2 x 2 matrices of battery polynomials."""
    one, x = _entry({(_E, _E): 1}), _entry({(_X, _E): 1})
    y, xy = _entry({(_E, _X): 1}), _entry({(_X, _X): 1})
    return [BiPolynomial("shear", 1, 1, ((one, x), ({}, y))),
            BiPolynomial("full", 1, 1, ((x, xy), (y, one)))]


def builtin_polys() -> list[BiPolynomial]:
    """The polynomials that ``verify`` and the battery check, in report order."""
    return builtin_bipolynomials() + builtin_matrix_polys() + builtin_hermitian()


def _battery_pair(f: RegularPolynomial, g: RegularPolynomial, polys: list[BiPolynomial],
                  tol: float, job: tuple[int, str, int]) -> list[VerificationReport]:
    """The reports of one battery pair (seed, kind, dim): its two dilations' inequality
    slacks and, on the f = g = z baseline, its distinguished-variety check."""
    seed, kind, dim = job
    pair = random_commuting_pair(seed, dim, kind, f, g)
    dil = ando_dilation(pair, tol=tol)
    dil_sw = ando_dilation(pair.swapped(), tol=tol)
    reports = [verify_inequality(polys, dil, dil_sw, tol=tol)]
    if f.coeffs == {(1,): 1.0} and g.coeffs == {(1,): 1.0}:
        reports.append(von_neumann_check(dil, [p for p in polys if not p.hermitian]))
    return reports


def run_battery(f: RegularPolynomial, g: RegularPolynomial, seeds: list[int],
                dims: list[int], kinds: list[str] | None,
                tol: float) -> VerificationReport:
    """Seeded, deterministic sweep of the battery (all PAIR_KINDS when ``kinds`` is None).

    Each pair depends only on its seed, kind and dim, so the pairs run side by side
    (``parallel.map_in_order``); the report is byte-identical to a serial run's.
    """
    from .parallel import map_in_order  # only the battery compiles and imports it
    import numpy.random  # noqa: F401  each pair's first use; loaded once, before the forks
    kinds = list(PAIR_KINDS) if kinds is None else kinds
    polys = builtin_polys()
    rep = VerificationReport("battery", environment={"battery": BATTERY_VERSION,
                                                     "pairs": str(len(seeds))})
    jobs = [(seed, kinds[idx % len(kinds)], dims[idx % len(dims)])
            for idx, seed in enumerate(seeds)]
    unit = functools.partial(_battery_pair, f, g, polys, tol)
    for (seed, kind, _), reports in zip(jobs, map_in_order(unit, jobs)):
        for part in reports:
            rep.extend(part, prefix=f"s{seed}_{kind}_")
    return rep
