"""Transfer functions of unitary colligations on the truncated weighted Fock space.

For a colligation U = [[A, B], [C, D]] built from an intertwining triple, the
row of multi-analytic operators

    phi_(b) = I (x) A_(b)^* + (I (x) C^*) (I - Q)^{-1} Gamma (I (x) B_(b)^*),
    Q = sum_w sqrt(a_w) L_{w~} (x) D_(w)^*,

is evaluated at the boundary (radius 1).  Since the right creation operators
raise the grading, I - Q is unit lower-triangular in the graded basis and the
resolvent is a single linear solve (exact, no series truncation).

Tensor convention throughout: np.kron(Fock factor, inner factor).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .colligation import Colligation, INTERPRETIVE_FLAGS, embed_inner
from .domain import (RegularPolynomial, b_coefficients, coefficient_words,
                     shift_word, weighted_creation)
from .poisson import PoissonKernel, verify_kernel_identities
from .report import VerificationReport
from .words import Word, enumerate_words, reverse


@dataclass(frozen=True)
class TransferFunction:
    """phi_(b) blocks of the transfer row, one per coefficient word of g.

    Each block maps (Fock) (x) C^{r_in} -> (Fock) (x) C^{r_out}.
    """

    colligation: Colligation
    f: RegularPolynomial
    N: int
    blocks: tuple[np.ndarray, ...]
    block_words: tuple[Word, ...]
    fock_size: int

    @property
    def r_out(self) -> int:
        return self.colligation.r_out

    @property
    def r_in(self) -> int:
        return self.colligation.r_in

    def block(self, w: Word) -> np.ndarray:
        return self.blocks[self.block_words.index(tuple(w))]


def _lambda_sum(col: Colligation, N: int, block: Callable[[int], np.ndarray]) -> np.ndarray:
    """sum_w sqrt(a_w) L_{w~} (x) block(i)^*, w the i-th coefficient word of f.

    With block = col.d_block this is Q; each term is scattered into Fock blocks.
    """
    f = col.triple.f
    lam = weighted_creation(f, N, "right")
    size = lam[0].size
    rows, cols = block(0).shape[::-1]
    out = np.zeros((size * rows, size * cols), dtype=complex)
    for i, w in enumerate(coefficient_words(f)):
        a = f.coeffs.get(w, 0.0)
        if a != 0.0:
            shift_word(lam, reverse(w)).add_kron(out, block(i).conj().T, np.sqrt(a))
    return out


def eval_transfer(col: Colligation, N: int) -> TransferFunction:
    """Evaluate the transfer row of a colligation at truncation level N."""
    f = col.triple.f
    g = col.triple.g
    size = len(enumerate_words(f.n, N))
    w_mid = col.slot_dim
    r_out, r_in = col.r_out, col.r_in
    m2 = col.dims["m2"]

    q = _lambda_sum(col, N, col.d_block)
    gamma_bstar = _lambda_sum(col, N, col.b_block)
    rhs = np.kron(np.eye(size), col.C.conj().T) @ np.linalg.solve(
        np.eye(size * w_mid) - q, gamma_bstar)
    phi_full = np.kron(np.eye(size), col.A.conj().T) + rhs

    # split the m2 inner column blocks into one matrix per coefficient word of g
    shaped = phi_full.reshape(size * r_out, size, m2, r_in)
    blocks = tuple(shaped[:, :, j, :].reshape(size * r_out, size * r_in)
                   for j in range(m2))
    return TransferFunction(colligation=col, f=f, N=N, blocks=blocks,
                            block_words=tuple(coefficient_words(g)),
                            fock_size=size)


def fourier_coefficients(tf: TransferFunction, w: Word,
                         max_level: int) -> dict[Word, np.ndarray]:
    """Coefficients of phi_(w) = sum_u L_u (x) coef_u for |u| <= max_level.

    coef_u = sqrt(b_{u~}) * (block of phi_(w) from the vacuum columns to the
    rows of the word u~).
    """
    f, N = tf.f, tf.N
    if max_level > N - f.degree:
        raise ValueError(f"max_level {max_level} exceeds N - deg f = {N - f.degree}")
    table = enumerate_words(f.n, N)
    b = b_coefficients(f, N)
    phi = tf.block(w)
    out: dict[Word, np.ndarray] = {}
    for u in table.words:
        if len(u) > max_level:
            continue
        ut = reverse(u)
        i = table.index[ut]
        rows = slice(i * tf.r_out, (i + 1) * tf.r_out)
        out[u] = np.sqrt(b[ut]) * phi[rows, :tf.r_in]
    return out


def fourier_roundtrip_residual(tf: TransferFunction, w: Word, max_level: int) -> float:
    """|| P_rows (phi_(w) - sum_{|u|<=M} L_u (x) coef_u) P_cols ||.

    Rows are restricted to levels <= min(M, N-M) and columns to levels
    <= N-M: on that corner the truncated transfer block agrees exactly with
    its multi-analytic Fourier expansion.
    """
    f, N = tf.f, tf.N
    table = enumerate_words(f.n, N)
    lam = weighted_creation(f, N, "right")
    recon = np.zeros_like(tf.block(w))
    for u, c in fourier_coefficients(tf, w, max_level).items():
        shift_word(lam, u).add_kron(recon, c)
    diff = tf.block(w) - recon
    rows = table.max_level_index(min(max_level, N - max_level)) * tf.r_out
    cols = table.max_level_index(N - max_level) * tf.r_in
    return float(np.linalg.norm(diff[:rows, :cols], 2))


def multi_analytic_residual(tf: TransferFunction, w: Word) -> float:
    """|| phi_(w) (W_i (x) I) - (W_i (x) I) phi_(w) || on columns of level <= N-1.

    Both compositions agree exactly below the truncation boundary because the
    creation operators raise the grading monotonically.
    """
    f, N = tf.f, tf.N
    phi = tf.block(w)
    cols = enumerate_words(f.n, N).max_level_index(N - 1) * tf.r_in
    res = 0.0
    for wi in weighted_creation(f, N):
        diff = wi.rmul(phi) - wi.apply(phi)
        res = max(res, float(np.linalg.norm(diff[:, :cols], 2)))
    return res


def defect_identity_residual(tf: TransferFunction) -> float:
    """Residual of I - phi phi* = M ((I - sum a_w L_{w~} L_{w~}^*) (x) I) M^*.

    M = (I (x) C^*)(I - Q)^{-1}.  Exact on the corner of levels <= N - deg f.
    """
    col = tf.colligation
    f, N = tf.f, tf.N
    table = enumerate_words(f.n, N)
    size = len(table)
    w_mid = col.slot_dim
    lam = weighted_creation(f, N, "right")

    lam_gram = np.zeros(size)  # the diagonal of sum_w a_w L_{w~} L_{w~}^*
    for w in f.support():
        lw = shift_word(lam, reverse(w))
        live = np.flatnonzero(lw.weight)
        lam_gram[lw.target[live]] += f.coeffs[w] * lw.weight[live] ** 2

    q = _lambda_sum(col, N, col.d_block)
    m = np.kron(np.eye(size), col.C.conj().T) @ np.linalg.inv(np.eye(size * w_mid) - q)
    phi_row = np.hstack(tf.blocks)
    lhs = np.eye(size * tf.r_out) - phi_row @ phi_row.conj().T
    rhs = (m * np.repeat(1.0 - lam_gram, w_mid)) @ m.conj().T
    rows = table.max_level_index(N - f.degree) * tf.r_out
    return float(np.linalg.norm((lhs - rhs)[:rows, :rows], 2))


def contraction_excess(tf: TransferFunction) -> float:
    """max(0, sigma_max(full transfer row) - 1)."""
    return max(0.0, float(np.linalg.norm(np.hstack(tf.blocks), 2)) - 1.0)


def dilation_identity_report(tf: TransferFunction, K1: PoissonKernel,
                             K1p: PoissonKernel, tol: float = 1e-7) -> VerificationReport:
    """Check K' T2_w^* = (1/sqrt(c_w)) phi_(w)^* K for all support words of g.

    K is the kernel of T1, K' the kernel of T1'; both are zero-padded into the
    colligation's inner dimensions (pad coordinates carry no content).
    """
    col = tf.colligation
    g, T2 = col.triple.g, col.triple.T2
    rep = VerificationReport("dilation-identity",
                             environment={"N": str(tf.N), **INTERPRETIVE_FLAGS})
    k1 = embed_inner(K1.matrix, tf.fock_size, K1.multiplicity, tf.r_out, axis=0)
    k1p = embed_inner(K1p.matrix, tf.fock_size, K1p.multiplicity, tf.r_in, axis=0)
    for w in g.support():
        c = g.coeffs[w]
        lhs = k1p @ T2.word(w).conj().T
        rhs = tf.block(w).conj().T @ k1 / np.sqrt(c)
        name = "g" + "".join(str(c_) for c_ in w)
        rep.add_residual(f"kernel_intertwine_{name}", float(np.linalg.norm(lhs - rhs, 2)), tol)
    # the two creation intertwinings accompanying the identity
    for tag, kern in (("K1", K1), ("K1p", K1p)):
        sub = verify_kernel_identities(kern, tol=tol)
        for rec in sub.checks:
            if rec.name.startswith("intertwine_"):
                rep.checks.append(type(rec)(f"{tag}_{rec.name}", rec.value,
                                            rec.tolerance, rec.passed, rec.kind))
    return rep
