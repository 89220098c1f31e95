"""Structural isometries from intertwining triples and their unitary completions.

Given tuples T1 (on H), T1' (on H') in the f-domain and an intertwining tuple
T2 : H' -> H in the g-domain, the map

    Delta_1 h (+) (+)_a sqrt(a_w) Delta_2 T1_w^* h
        |->  (+)_b sqrt(c_b) Delta_1' T2_b^* h (+) Delta_2 h

is an isometry on its span (the last range component is forced by the defect
identity; the bare display of the relation omits it).  Completing it to a
unitary U = [[A, B], [C, D]] yields the colligation whose adjoint generates
the transfer function.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .domain import OperatorTuple, RegularPolynomial, phi_identity_power
from .poisson import DefectData, canonical_phases, defect
from .report import VerificationReport
from .words import Word

# flags echoed into every report that depends on these interpretive choices
INTERPRETIVE_FLAGS = {
    "iso_range_includes_defect2": "1",
    "completion": "svd-span-match+ordered-complement",
}


@dataclass(frozen=True)
class IntertwiningTriple:
    f: RegularPolynomial
    g: RegularPolynomial
    T1: OperatorTuple   # on H
    T1p: OperatorTuple  # on H'
    T2: OperatorTuple   # H' -> H

    def __post_init__(self) -> None:
        if self.T1.n != self.f.n or self.T1p.n != self.f.n:
            raise ValueError("T1/T1' length must match f")
        if self.T2.n != self.g.n:
            raise ValueError("T2 length must match g")
        if self.T2.rows != self.T1.dim or self.T2.cols != self.T1p.dim:
            raise ValueError("T2 must map the space of T1' into the space of T1")
        if self.g.degree >= 2 and self.T2.rows != self.T2.cols:
            raise ValueError("deg g >= 2 requires a square intertwining tuple")
        res = intertwining_residual(self.T1, self.T1p, self.T2)
        if res > 1e-8:
            raise ValueError(f"intertwining residual {res:.3e} exceeds tol 1.0e-08")


def intertwining_residual(T1: OperatorTuple, T1p: OperatorTuple, T2: OperatorTuple) -> float:
    """max ||T2_j T1'_i - T1_i T2_j|| over the letters i of T1, T1' and j of T2."""
    res = 0.0
    for t2 in T2.mats:
        for t1, t1p in zip(T1.mats, T1p.mats):
            res = max(res, float(np.linalg.norm(t2 @ t1p - t1 @ t2, 2)))
    return res


@dataclass(frozen=True)
class PartialIsometry:
    """Prescribed domain/range columns of the structural isometry, unpadded."""

    triple: IntertwiningTriple
    d1_defect: DefectData
    d1p_defect: DefectData
    d2_defect: DefectData
    domain_vectors: np.ndarray  # (d1 + m1*d2) x dim H
    range_vectors: np.ndarray   # (m2*d1p + d2) x dim H
    gram_residual: float

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return (self.d1_defect.rank, self.d1p_defect.rank, self.d2_defect.rank,
                len(self.triple.f.coeffs), len(self.triple.g.coeffs))


def build_isometry(triple: IntertwiningTriple, tol: float = 1e-8) -> PartialIsometry:
    """Evaluate the prescribed isometry on a basis of H, in defect coordinates.

    Raises when the domain/range Gram matrices disagree beyond tol, which
    flags a broken precondition (typically non-membership).
    """
    f, g, T1, T1p, T2 = triple.f, triple.g, triple.T1, triple.T1p, triple.T2
    dd1 = defect(f, T1)
    dd1p = dd1 if T1p is T1 else defect(f, T1p)
    dd2 = defect(g, T2)

    dom = np.vstack([dd1.coords(dd1.delta)] + [
        np.sqrt(f.coeffs[w]) * dd2.coords(dd2.delta @ T1.word(w).conj().T)
        for w in f.support()])
    ran = np.vstack([
        np.sqrt(g.coeffs[w]) * dd1p.coords(dd1p.delta @ T2.word(w).conj().T)
        for w in g.support()] + [dd2.coords(dd2.delta)])
    gram_res = float(np.linalg.norm(dom.conj().T @ dom - ran.conj().T @ ran, 2))
    if gram_res > tol:
        raise ValueError(f"prescribed map is not isometric on its span "
                         f"(Gram residual {gram_res:.3e}); check memberships")
    return PartialIsometry(triple, dd1, dd1p, dd2, dom, ran, gram_res)


def solve_padding(d1: int, d1p: int, d2: int, m1: int, m2: int) -> tuple[int, int, int, bool]:
    """Pads (e, u, v) with d1+u + m1*(d2+e) == m2*(d1p+v) + d2+e.

    e enlarges the auxiliary space next to the second defect (the finite
    stand-in for an infinite padding space) and solves (m1 - 1) e = gap, the
    range minus the domain dimension at e = 0.  u and v enlarge the outer defect
    blocks, as a fallback when no e >= 0 does.  Returns (e, u, v, fallback_used).
    """
    gap = m2 * d1p + d2 - d1 - m1 * d2  # range minus domain at e = 0
    if gap == 0 or (m1 != 1 and gap % (m1 - 1) == 0 and gap // (m1 - 1) > 0):
        return (gap // (m1 - 1) if gap else 0), 0, 0, False
    if gap >= 0:
        return 0, gap, 0, True
    v = (-gap + m2 - 1) // m2
    u = gap + m2 * v
    return 0, u, v, True


def embed_inner(mat: np.ndarray, fock: int, inner_from: int, inner_to: int) -> np.ndarray:
    """Zero-pad the inner (per-Fock-block) dimension of the rows of a tensor-shaped
    matrix: its rows are ``fock`` blocks of ``inner_from``, and each block gets
    ``inner_to - inner_from`` zero rows appended.
    """
    if inner_from == inner_to:
        return mat
    out = np.zeros((fock, inner_to, mat.shape[1]), dtype=complex)
    out[:, :inner_from] = mat.reshape(fock, inner_from, mat.shape[1])
    return out.reshape(fock * inner_to, mat.shape[1])


@dataclass(frozen=True)
class Colligation:
    """Unitary U = [[A, B], [C, D]] completing the structural isometry.

    Block shapes (w = d2 + pad_e, r_out = d1 + pad_u, r_in = d1p + pad_v, m1 and m2
    the support sizes of f and g): A: m2*r_in x r_out, B: m2*r_in x m1*w, C: w x r_out,
    D: w x m1*w.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    dims: dict[str, int]
    unitarity_residual: float
    prescribed_residual: float
    fallback_padding: bool
    triple: IntertwiningTriple
    partial: PartialIsometry

    @property
    def slot_dim(self) -> int:
        """w = d2 + pad_e, the padded middle-space dimension."""
        return self.dims["d2"] + self.dims["pad_e"]

    @property
    def r_out(self) -> int:
        return self.dims["d1"] + self.dims["pad_u"]

    @property
    def r_in(self) -> int:
        return self.dims["d1p"] + self.dims["pad_v"]

    def d_block(self, i: int) -> np.ndarray:
        """D_(w) for the i-th support word w of f (graded-lex)."""
        w = self.slot_dim
        return self.D[:, i * w:(i + 1) * w]

    def b_block(self, i: int) -> np.ndarray:
        """B_(w) for the i-th support word w of f (graded-lex)."""
        w = self.slot_dim
        return self.B[:, i * w:(i + 1) * w]


def _ordered_frames(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The full SVD u, s, vh of mat and its rank: the first rank columns of u
    are an orthonormal basis of col(mat), the others its ordered complement."""
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(s[0] if s.size else 1.0, 1.0)))
    return u, s, vh, rank


def complete_to_unitary(partial: PartialIsometry) -> Colligation:
    """Pad dimensions, then extend the prescribed isometry to a unitary.

    The prescribed spans are matched through the SVD of the domain columns;
    both orthocomplements are mapped onto each other in index order, and the
    result is snapped to the nearest unitary.
    """
    d1, d1p, d2, m1, m2 = partial.dims
    rows = (partial.domain_vectors.shape[0], partial.range_vectors.shape[0])
    if rows != (d1 + m1 * d2, m2 * d1p + d2):
        raise ValueError(f"domain/range rows {rows} do not match the dims {partial.dims}")
    e, uu, vv, fallback = solve_padding(d1, d1p, d2, m1, m2)

    dom = np.vstack([
        embed_inner(partial.domain_vectors[:d1], 1, d1, d1 + uu),
        embed_inner(partial.domain_vectors[d1:], m1, d2, d2 + e),
    ])
    ran = np.vstack([
        embed_inner(partial.range_vectors[:m2 * d1p], m2, d1p, d1p + vv),
        embed_inner(partial.range_vectors[m2 * d1p:], 1, d2, d2 + e),
    ])
    total = dom.shape[0]

    u_d, s_d, vh, rank = _ordered_frames(dom)
    qx = u_d[:, :rank]
    qy = ran @ vh.conj().T[:, :rank] / s_d[:rank]  # orthonormal: the Gram matrices agree
    u_r, _, _, rank_r = _ordered_frames(ran)
    # the ranks agree when the Gram matrices do; complement bases are mapped
    # onto each other in SVD order with canonical column phases
    comp_d = canonical_phases(u_d[:, rank:])
    comp_r = canonical_phases(u_r[:, rank_r:])
    u0 = qy @ qx.conj().T + comp_r @ comp_d.conj().T
    pu, _, pvh = np.linalg.svd(u0)
    unitary = pu @ pvh

    dims = {"d1": d1, "d1p": d1p, "d2": d2, "m1": m1, "m2": m2,
            "pad_e": e, "pad_u": uu, "pad_v": vv}
    w = d2 + e
    top = m2 * (d1p + vv)
    left = d1 + uu
    col = Colligation(
        A=unitary[:top, :left], B=unitary[:top, left:],
        C=unitary[top:, :left], D=unitary[top:, left:],
        dims=dims,
        unitarity_residual=float(max(
            np.linalg.norm(unitary.conj().T @ unitary - np.eye(total), 2),
            np.linalg.norm(unitary @ unitary.conj().T - np.eye(total), 2))),
        prescribed_residual=float(np.linalg.norm(unitary @ dom - ran, 2)),
        fallback_padding=fallback,
        triple=partial.triple,
        partial=partial,
    )
    if col.prescribed_residual > max(1e-8, 10 * partial.gram_residual + 1e-12):
        raise ValueError(f"unitary completion failed to reproduce the prescribed "
                         f"action (residual {col.prescribed_residual:.3e})")
    return col


def _delta1_hat(col: Colligation) -> np.ndarray:
    d1 = col.dims["d1"]
    return embed_inner(col.partial.domain_vectors[:d1], 1, d1, d1 + col.dims["pad_u"])


def series_terms(col: Colligation, p_max: int) -> list[np.ndarray]:
    """Nested-diag partial-sum terms of the structural series, term p for p=0..p_max."""
    f, T1 = col.triple.f, col.triple.T1
    xstar = [np.sqrt(f.coeffs[w]) * T1.word(w).conj().T for w in f.support()]
    g_cur = col.C @ _delta1_hat(col)
    terms = []
    for _ in range(p_max + 1):
        stacked = np.vstack([g_cur @ xb for xb in xstar])
        terms.append(col.B @ stacked)
        g_cur = col.D @ stacked
    return terms


def series_term_by_words(col: Colligation, p: int) -> np.ndarray:
    """Term p computed from explicit word-indexed products (independent path).

    Stacked over the outermost support word w_{p+1} of f:
      sum over (w_1..w_p) of D_(w_p)...D_(w_1) C Delta1 *
          sqrt(a_{w_1}...a_{w_{p+1}}) (T1_{w_{p+1} w_p ... w_1})^*.
    Each prefix product D_(w_j)...D_(w_1) C Delta1 and each T1 word is formed
    once per call, by the same products as a from-scratch build
    (T1_{v c} = T1_v T1_c, the order of ``OperatorTuple.word``).
    """
    f, T1 = col.triple.f, col.triple.T1
    words = f.support()

    @functools.cache
    def chain(tup: tuple[int, ...]) -> np.ndarray:
        return col.C @ _delta1_hat(col) if not tup else col.d_block(tup[-1]) @ chain(tup[:-1])

    @functools.cache
    def t1_word(w: Word) -> np.ndarray:
        return T1.mats[w[0] - 1] if len(w) == 1 else t1_word(w[:-1]) @ T1.mats[w[-1] - 1]

    blocks = []
    for w_outer in words:
        acc = np.zeros((col.slot_dim, T1.dim), dtype=complex)
        for tup in itertools.product(range(len(words)), repeat=p):
            coef = f.coeffs[w_outer]
            for idx in tup:
                coef *= f.coeffs[words[idx]]
            full_word: Word = w_outer
            for idx in reversed(tup):
                full_word = full_word + words[idx]
            acc += np.sqrt(coef) * (chain(tup) @ t1_word(full_word).conj().T)
        blocks.append(acc)
    return col.B @ np.vstack(blocks)


def series_oracle(col: Colligation, p_max: int) -> VerificationReport:
    """Check the structural series against the stacked intertwining data.

    Compares A Delta_1 + B sum_p term_p with the stored range rows diag(Delta_1')
    [sqrt(c_b) T2_b^*], reports the residual and the tail ||Phi^{p_max+2}(I)||^{1/2},
    and cross-checks the nested-diag terms p <= 3 against the word-indexed
    expansion.
    """
    tol = 1e-10
    f, T1 = col.triple.f, col.triple.T1
    rep = VerificationReport("series-oracle", environment=dict(INTERPRETIVE_FLAGS))
    rep.environment.update({k: str(v) for k, v in col.dims.items()})

    terms = series_terms(col, p_max)
    rhs = col.A @ _delta1_hat(col) + sum(terms)
    d1p, m2 = col.dims["d1p"], col.dims["m2"]
    lhs = embed_inner(col.partial.range_vectors[:m2 * d1p], m2, d1p, d1p + col.dims["pad_v"])
    residual = float(np.linalg.norm(lhs - rhs, 2))
    tail = float(np.linalg.norm(phi_identity_power(f, T1, p_max + 2), 2)) ** 0.5
    rep.add_residual("series_vs_intertwining", residual, max(tol, tail + tol))
    rep.environment["tail_bound"] = repr(tail)

    for q in range(min(p_max, 3) + 1):
        two_path = float(np.linalg.norm(terms[q] - series_term_by_words(col, q), 2))
        rep.add_residual(f"two_path_term_{q}", two_path, tol)
    return rep


def colligation_report(col: Colligation) -> VerificationReport:
    rep = VerificationReport("colligation", environment=dict(INTERPRETIVE_FLAGS))
    rep.environment.update({k: str(v) for k, v in col.dims.items()})
    rep.environment["fallback_padding"] = str(int(col.fallback_padding))
    rep.add_residual("unitarity", col.unitarity_residual, 1e-10)
    rep.add_residual("prescribed_action", col.prescribed_residual, 1e-10)
    return rep
