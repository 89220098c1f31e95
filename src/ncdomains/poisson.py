"""Defect operators and noncommutative Poisson kernels at finite truncation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (BCoefficients, OperatorTuple, RegularPolynomial, apply_phi,
                     b_coefficients, phi_identity_power, weighted_creation)
from .report import VerificationReport
from .words import WordTable, enumerate_words


def canonical_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry of magnitude > 1e-12 is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            out[:, j] = col * (np.abs(col[nz[0]]) / col[nz[0]])
    return out


@dataclass(frozen=True)
class DefectData:
    """Hermitian square root of I - Phi(I) plus an orthonormal range basis."""

    delta: np.ndarray
    basis: np.ndarray  # columns: orthonormal basis of the defect space
    rank: int

    @property
    def dim(self) -> int:
        return self.delta.shape[0]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Express vectors/columns of x in defect-basis coordinates."""
        return self.basis.conj().T @ x


def defect(f: RegularPolynomial, T: OperatorTuple, tol: float = 1e-9,
           rank_tol: float = 1e-9) -> DefectData:
    """Defect operator (I - Phi_{f,T}(I))^{1/2} with a deterministic range basis.

    Eigenvalues are sorted descending; tiny negatives (>= -tol) are clamped
    to zero, anything below -tol means the tuple is outside the domain.
    """
    gap = np.eye(T.rows) - apply_phi(f, T)
    gap = (gap + gap.conj().T) / 2
    evals, evecs = np.linalg.eigh(gap)
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    if evals[-1] < -tol:
        raise ValueError(f"tuple outside the domain: min eigenvalue {evals[-1]:.3e}")
    evals = np.clip(evals, 0.0, None)
    evecs = canonical_phases(evecs)
    delta = (evecs * np.sqrt(evals)) @ evecs.conj().T
    rank = int(np.sum(evals > rank_tol))
    return DefectData(delta=delta, basis=evecs[:, :rank], rank=rank)


@dataclass(frozen=True)
class PoissonKernel:
    """K : H -> (truncated Fock) (x) defect space, in defect-basis coordinates.

    Row block of word w (graded-lex order) is sqrt(b_w) * basis^H Delta T_w^*.
    """

    matrix: np.ndarray
    N: int
    f: RegularPolynomial
    T: OperatorTuple
    defect: DefectData
    b: BCoefficients

    @property
    def multiplicity(self) -> int:
        return self.defect.rank


def _word_operators(T: OperatorTuple, table: WordTable) -> list[np.ndarray]:
    """T_w for every word of the table, each from its prefix: T_{w i} = T_w T_i.

    OperatorTuple.word multiplies left to right in the same way, so every
    T_w is bitwise identical to T.word(w), at one product per word.
    """
    ops: list[np.ndarray] = []
    for w in table.words:
        if len(w) <= 1:
            ops.append(T.word(w))
        else:
            ops.append(ops[table.index[w[:-1]]] @ T.mats[w[-1] - 1])
    return ops


def poisson_kernel(f: RegularPolynomial, T: OperatorTuple, N: int,
                   dd: DefectData | None = None, tol: float = 1e-9) -> PoissonKernel:
    dd = dd if dd is not None else defect(f, T, tol)
    table = enumerate_words(f.n, N)
    b = b_coefficients(f, N)
    blocks = [np.sqrt(b[w]) * dd.coords(dd.delta @ tw.conj().T)
              for w, tw in zip(table.words, _word_operators(T, table))]
    return PoissonKernel(matrix=np.vstack(blocks), N=N, f=f, T=T, defect=dd, b=b)


def add_gram_check(rep: VerificationReport, kmat: np.ndarray, f: RegularPolynomial,
                   T: OperatorTuple, N: int, horizon: int, tol: float,
                   tail: np.ndarray | None = None) -> None:
    """Compare the Gram matrix of a kernel truncated at N with I - Phi^M(I).

    M is the horizon; ``tail`` is Phi^M(I) when the caller has it.  For
    deg f >= 2 the word-length truncation does not line up with any Phi
    horizon; both mismatched tails are dominated by Phi^m(I) with
    m = floor(N / deg f) + 1, so 2 ||Phi^m(I)|| is allowed on top of tol and
    recorded as graded_tail_bound.
    """
    if f.degree >= 2:
        bound = 2.0 * float(np.linalg.norm(phi_identity_power(f, T, N // f.degree + 1), 2))
        rep.environment["graded_tail_bound"] = repr(bound)
        tol = max(tol, bound + tol)
    tail = tail if tail is not None else phi_identity_power(f, T, horizon)
    gram = kmat.conj().T @ kmat
    rep.add_residual("gram_vs_defect_horizon",
                     float(np.linalg.norm(gram - (np.eye(T.dim) - tail), 2)), tol)
    rep.environment["horizon"] = str(horizon)


def verify_kernel_identities(K: PoissonKernel, tol: float = 1e-9,
                             horizon: int | None = None) -> VerificationReport:
    """Check the creation intertwinings and the Gram identity of a kernel.

    The intertwining K T_i^* = (W_i^* (x) I) K is compared on word rows of
    length <= N-1 only: the top level is cut by the truncation.  The Gram
    matrix K^* K is compared against I - Phi^M(I) at the given horizon M
    (:func:`add_gram_check`).
    """
    f, T, N = K.f, K.T, K.N
    rep = VerificationReport("poisson-kernel",
                             environment={"N": str(N), "rank": str(K.defect.rank)})
    r = K.defect.rank
    table = enumerate_words(f.n, N)
    low_rows = table.max_level_index(N - 1) * r if N >= 1 else 0
    for i, wi in enumerate(weighted_creation(f, N)):
        lhs = K.matrix @ T.mats[i].conj().T
        rhs = wi.apply_adjoint(K.matrix)
        res = float(np.linalg.norm((lhs - rhs)[:low_rows], 2)) if low_rows else 0.0
        rep.add_residual(f"intertwine_W{i + 1}", res, tol)

    add_gram_check(rep, K.matrix, f, T, N, horizon if horizon is not None else N + 1, tol)
    sigma = float(np.linalg.norm(K.matrix, 2))
    rep.add_residual("contraction_sigma_max_minus_1", max(sigma - 1.0, 0.0), 1e-10)
    return rep
