"""Defect operators and noncommutative Poisson kernels at finite truncation."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .domain import (OperatorTuple, RegularPolynomial, apply_phi, b_coefficients,
                     phi_identity_power, weighted_creation)
from .report import VerificationReport
from .words import fock_size


@dataclass(frozen=True)
class DefectData:
    """Hermitian square root of I - Phi(I) plus an orthonormal range basis."""

    delta: np.ndarray
    basis: np.ndarray  # columns: orthonormal basis of the defect space
    rank: int

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Express vectors/columns of x in defect-basis coordinates."""
        return self.basis.conj().T @ x


def defect(f: RegularPolynomial, T: OperatorTuple) -> DefectData:
    """Defect operator (I - Phi_{f,T}(I))^{1/2} with an orthonormal range basis.

    Eigenvalues are sorted descending; tiny negatives (>= -1e-9) are clamped
    to zero, anything below -1e-9 means the tuple is outside the domain.  The
    rank counts the eigenvalues above 1e-9.  The basis keeps ``eigh``'s column phases:
    delta does not depend on them, and for an Ando pair on f = g = z another basis is one
    unitary on the colligation's C^total, which its polar completion follows.
    """
    gap = np.eye(T.rows) - apply_phi(f, T)
    gap = (gap + gap.conj().T) / 2
    evals, evecs = np.linalg.eigh(gap)
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    if evals[-1] < -1e-9:
        raise ValueError(f"tuple outside the domain: min eigenvalue {evals[-1]:.3e}")
    evals = np.clip(evals, 0.0, None)
    delta = (evecs * np.sqrt(evals)) @ evecs.conj().T
    rank = int(np.sum(evals > 1e-9))
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

    @property
    def multiplicity(self) -> int:
        return self.defect.rank

    @functools.cached_property
    def horizon(self) -> np.ndarray:
        """Phi^{N+1}(I), the kernel mass beyond the truncation, formed on the first read."""
        return phi_identity_power(self.f, self.T, self.N + 1)


def poisson_kernel(f: RegularPolynomial, T: OperatorTuple, N: int) -> PoissonKernel:
    """Row blocks sqrt(b_w) basis^H Delta T_w^*, a Fock level at a time: level m
    is one batched product T_{w i} = T_w T_i of level m-1 with the T_i (the order
    of OperatorTuple.word; I T_i is exact), so each block is bitwise the per-word
    one, and Delta and the defect coordinates act on all levels in one product."""
    dd = defect(f, T)
    mats, stacks = np.stack(T.mats)[None], [np.eye(T.rows, T.cols, dtype=complex)[None]]
    for _ in range(N):
        stacks.append((stacks[-1][:, None] @ mats).reshape(-1, T.rows, T.cols))
    tw_h = np.concatenate(stacks).conj().transpose(0, 2, 1)
    blocks = np.sqrt(b_coefficients(f, N))[:, None, None] * dd.coords(dd.delta @ tw_h)
    return PoissonKernel(matrix=blocks.reshape(-1, T.rows), N=N, f=f, T=T, defect=dd)


def add_gram_check(rep: VerificationReport, kmat: np.ndarray, K: PoissonKernel,
                   tol: float) -> None:
    """Compare the Gram matrix of ``kmat`` (K's matrix, or a projection of it that
    keeps its Gram matrix) with I - Phi^{N+1}(I), read from ``K.horizon``.

    N + 1 is the horizon recorded in the report.  For deg f >= 2 the word-length
    truncation does not line up with any Phi horizon; both mismatched tails are
    dominated by Phi^m(I) with m = floor(N / deg f) + 1, so 2 ||Phi^m(I)|| is allowed
    on top of tol and recorded as graded_tail_bound.
    """
    f, T, N = K.f, K.T, K.N
    if f.degree >= 2:
        bound = 2.0 * float(np.linalg.norm(phi_identity_power(f, T, N // f.degree + 1), 2))
        rep.environment["graded_tail_bound"] = repr(bound)
        tol = max(tol, bound + tol)
    gram = kmat.conj().T @ kmat
    rep.add_residual("gram_vs_defect_horizon",
                     float(np.linalg.norm(gram - (np.eye(T.dim) - K.horizon), 2)), tol)
    rep.environment["horizon"] = str(N + 1)


def kernel_intertwining(K: PoissonKernel, tol: float) -> VerificationReport:
    """The creation intertwinings K T_i^* = (W_i^* (x) I) K of a kernel.

    They are compared on word rows of length <= N-1 only: the top level is cut
    by the truncation.  The report has no environment.
    """
    f, T, N = K.f, K.T, K.N
    rep = VerificationReport("kernel-intertwining")
    low_rows = fock_size(f.n, N - 1) * K.defect.rank
    for i, wi in enumerate(weighted_creation(f, N)):
        lhs = K.matrix @ T.mats[i].conj().T
        rhs = wi.apply_adjoint(K.matrix)
        res = float(np.linalg.norm((lhs - rhs)[:low_rows], 2)) if low_rows else 0.0
        rep.add_residual(f"intertwine_W{i + 1}", res, tol)
    return rep


def verify_kernel_identities(K: PoissonKernel, tol: float) -> VerificationReport:
    """Check the creation intertwinings (:func:`kernel_intertwining`) and the
    Gram identity of a kernel against I - Phi^{N+1}(I) (:func:`add_gram_check`).
    """
    rep = VerificationReport("poisson-kernel",
                             environment={"N": str(K.N), "rank": str(K.defect.rank)})
    rep.extend(kernel_intertwining(K, tol))
    add_gram_check(rep, K.matrix, K, tol)
    sigma = float(np.linalg.norm(K.matrix, 2))
    rep.add_residual("contraction_sigma_max_minus_1", max(sigma - 1.0, 0.0), 1e-10)
    return rep
