"""Constrained model spaces cut out by polynomial relations.

Given a positive regular polynomial f and generators q_s (polynomials in the
weighted left creation operators W), the constrained model space is

    N_J = (truncated Fock) minus span{ W_u q_s(W) e_v },

with compressed tuples B_i = P W_i P (left) and C_i = P L_i P (right).  Tuples
T that annihilate every generator admit a constrained Poisson kernel obtained
by projecting the unconstrained one onto N_J.

Truncation semantics: the span above is only reliable at levels
|u| + deg q_s + |v| <= N, so levels within max(deg q_s) of the boundary are
marked unstable and excluded from exact checks.  Only homogeneous-friendly
generator families (graded ideals, or single-variable minimal polynomials)
are exercised by the built-in checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (OperatorTuple, RegularPolynomial, WeightedShift, b_coefficients,
                     phi_identity_power, shift_word, weighted_creation)
from .poisson import PoissonKernel, add_gram_check, canonical_phases, poisson_kernel
from .report import VerificationReport
from .words import Word, check_word, enumerate_words

Generator = dict[Word, complex]  # polynomial sum coeff * Z_w with |w| >= 1


def generator_degree(q: Generator) -> int:
    return max((len(w) for w, c in q.items() if c != 0), default=0)


def eval_generator(q: Generator, T: OperatorTuple) -> np.ndarray:
    out = np.zeros((T.rows, T.cols), dtype=complex)
    for w, c in q.items():
        if c != 0:
            out += c * T.word(w)
    return out


def _generator_on_shifts(q: Generator, W: tuple[WeightedShift, ...]) -> np.ndarray:
    """The dense matrix q(W) of a nonconstant generator, from the word shifts W_w."""
    return sum(c * shift_word(W, w).dense() for w, c in q.items() if c != 0)


def commutator_generators(n: int) -> list[Generator]:
    """Z_j Z_i - Z_i Z_j for i < j: the commutation (symmetric-model) ideal."""
    return [{(j, i): 1.0, (i, j): -1.0}
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def minpoly_generator(roots: list[complex]) -> Generator:
    """Single-variable generator prod (Z - mu_j), encoded by word length."""
    coeffs = np.array([1.0 + 0.0j])
    for mu in roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -complex(mu)]))
    # coeffs[i] multiplies Z^{deg-i}
    deg = len(coeffs) - 1
    return {(1,) * (deg - i): coeffs[i] for i in range(len(coeffs))}


@dataclass(frozen=True)
class VarietyModel:
    f: RegularPolynomial
    N: int
    generators: tuple[Generator, ...]
    basis: np.ndarray          # Fock-size x model-dim, orthonormal columns
    left: OperatorTuple        # B_i = P W_i P on the model space
    right: OperatorTuple       # C_i = P L_i P on the model space
    unstable_margin: int       # levels > N - margin are boundary-affected

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def level_dimensions(self) -> list[int]:
        """Rank of the level-m compression of the model space, m = 0..N.

        For graded (homogeneous) generator ideals these are the graded
        component dimensions; levels beyond N - unstable_margin are boundary
        artifacts.
        """
        table = enumerate_words(self.f.n, self.N)
        out = []
        for m in range(self.N + 1):
            block = self.basis[table.level_slice(m), :]
            s = np.linalg.svd(block, compute_uv=False)
            out.append(int(np.sum(s > 1e-9)))
        return out


def _is_homogeneous(q: Generator) -> bool:
    lengths = {len(w) for w, c in q.items() if c != 0}
    return len(lengths) <= 1


def _ideal_span_homogeneous(W: tuple[WeightedShift, ...], generators: list[Generator],
                            table, N: int, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of span{W_u q(W) e_v} via closure under the W_i.

    Valid for homogeneous generators only: there a column whose level exceeds
    N is truncated to zero rather than to a spurious lower-level vector, so
    repeatedly applying the creations to the seed columns q(W) e_v reproduces
    the ideal span exactly.
    """
    seeds = []
    for q in generators:
        dq = generator_degree(q)
        if dq == 0:
            continue
        qw = _generator_on_shifts(q, W)
        seeds.append(qw[:, :table.max_level_index(N - dq)])
    if not seeds:
        return np.zeros((len(table), 0), dtype=complex)
    seed = np.hstack(seeds)
    u_m, s, _ = np.linalg.svd(seed, full_matrices=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > rank_tol * scale))
    span = u_m[:, :rank]
    frontier = span
    for _ in range(N):
        new = np.hstack([w.apply(frontier) for w in W])
        new = new - span @ (span.conj().T @ new)
        new = new - span @ (span.conj().T @ new)  # second pass for orthogonality
        u_m, s, _ = np.linalg.svd(new, full_matrices=False)
        added = int(np.sum(s > rank_tol * scale))
        if added == 0:
            break
        frontier = u_m[:, :added]
        span = np.hstack([span, frontier])
    return span


def build_variety(f: RegularPolynomial, N: int, generators: list[Generator],
                  rank_tol: float = 1e-9) -> VarietyModel:
    """Orthonormal basis of N_J and the compressed creation tuples."""
    for q in generators:
        for w in q:
            check_word(w, f.n)
        if generator_degree(q) == 0 and any(c != 0 for c in q.values()):
            raise ValueError("a nonzero constant generator collapses the model space")
    table = enumerate_words(f.n, N)
    size = len(table)
    W = weighted_creation(f, N, "left")
    lam = weighted_creation(f, N, "right")

    if generators and all(_is_homogeneous(q) for q in generators):
        span = _ideal_span_homogeneous(W, generators, table, N, rank_tol)
        if span.shape[1] == 0:
            basis = np.eye(size, dtype=complex)
        else:
            u_m, s, _ = np.linalg.svd(span, full_matrices=True)
            rank = int(np.sum(s > 0.5))  # span columns are orthonormal
            basis = canonical_phases(u_m[:, rank:])
    else:
        cols = []
        for q in generators:
            dq = generator_degree(q)
            if dq == 0:
                continue
            qw = _generator_on_shifts(q, W)
            for u in table.words:
                if len(u) > N - dq:
                    break
                mat = shift_word(W, u).apply(qw)
                top = table.max_level_index(N - dq - len(u))
                cols.append(mat[:, :top])
        if not cols:
            basis = np.eye(size, dtype=complex)
        else:
            u_m, s, _ = np.linalg.svd(np.hstack(cols), full_matrices=True)
            scale = s[0] if s.size and s[0] > 0 else 1.0
            rank = int(np.sum(s > rank_tol * scale))
            basis = canonical_phases(u_m[:, rank:])

    basis_h = basis.conj().T
    left = OperatorTuple(tuple(w.rmul(basis_h) @ basis for w in W))
    right = OperatorTuple(tuple(l.rmul(basis_h) @ basis for l in lam))
    margin = max((generator_degree(q) for q in generators), default=0)
    return VarietyModel(f=f, N=N, generators=tuple(generators), basis=basis,
                        left=left, right=right, unstable_margin=margin)


@dataclass(frozen=True)
class ConstrainedKernel:
    matrix: np.ndarray  # (model-dim * rank) x dim H
    variety: VarietyModel
    base: PoissonKernel


def constrained_poisson(variety: VarietyModel, T: OperatorTuple,
                        annihilation_tol: float = 1e-8) -> ConstrainedKernel:
    """(P_{N_J} (x) I) K_{f,T} for a tuple satisfying the generators."""
    for q in variety.generators:
        res = float(np.linalg.norm(eval_generator(q, T), 2))
        if res > annihilation_tol:
            raise ValueError(f"tuple does not satisfy a generator (residual {res:.3e})")
    base = poisson_kernel(variety.f, T, variety.N)
    r = base.multiplicity
    proj = np.kron(variety.basis.conj().T, np.eye(r))
    return ConstrainedKernel(matrix=proj @ base.matrix, variety=variety, base=base)


def verify_constrained_kernel(ck: ConstrainedKernel, tol: float = 1e-9,
                              horizon: int | None = None) -> VerificationReport:
    """Intertwining K_J T_i^* = (B_i^* (x) I) K_J and the Gram identity.

    The intertwining is checked on model rows supported at stable levels
    <= N - 1 - unstable_margin; the Gram matrix is compared with I - Phi^M(I).
    """
    variety, base = ck.variety, ck.base
    f, T, N = base.f, base.T, base.N
    r = base.multiplicity
    rep = VerificationReport("constrained-kernel",
                             environment={"N": str(N), "model_dim": str(variety.dim),
                                          "margin": str(variety.unstable_margin)})
    table = enumerate_words(f.n, N)
    stable_top = table.max_level_index(max(N - 1 - variety.unstable_margin, 0))
    # model rows living (numerically) inside the stable levels
    tail = variety.basis[stable_top:, :]
    stable_cols = np.flatnonzero(np.linalg.norm(tail, axis=0) < 1e-12)
    row_idx = np.concatenate([j * r + np.arange(r) for j in stable_cols]) \
        if stable_cols.size else np.array([], dtype=int)

    horizon = horizon if horizon is not None else N + 1
    # kernel mass beyond the truncation; bounds the boundary leakage of the
    # non-graded part of the intertwining
    edge = phi_identity_power(f, T, N + 1)
    leak = float(np.linalg.norm(edge, 2)) ** 0.5
    for i in range(f.n):
        lhs = ck.matrix @ T.mats[i].conj().T
        rhs = np.kron(variety.left.mats[i].conj().T, np.eye(r)) @ ck.matrix
        res = float(np.linalg.norm((lhs - rhs)[row_idx], 2)) if row_idx.size else 0.0
        rep.add_residual(f"intertwine_B{i + 1}", res, tol)
        full = float(np.linalg.norm(lhs - rhs, 2))
        rep.add_residual(f"intertwine_B{i + 1}_full", full, max(tol, 10.0 * leak))
    rep.environment["tail_leak"] = repr(leak)
    add_gram_check(rep, ck.matrix, f, T, N, horizon, tol,
                   tail=edge if horizon == N + 1 else None)
    return rep


def kappa_eval(f: RegularPolynomial, mu: list[complex], lam: list[complex],
               M: int) -> tuple[complex, complex, float]:
    """Reproducing-kernel value at two domain points, three ways.

    Returns (closed, partial, tail_bound):
      closed  = 1 / (1 - sum_w a_w mu_w conj(lam)_w),
      partial = sum_{|w| <= M} b_w mu_w conj(lam)_w,
      tail_bound = t^(floor(M/k)+1) / (1 - t) with
      t = sum_w a_w |mu_w| |lam_w| < 1 (raises otherwise).
    """
    if len(mu) != f.n or len(lam) != f.n:
        raise ValueError("points must have one coordinate per indeterminate")

    def point_word(pt: list[complex], w: Word) -> complex:
        out = 1.0 + 0.0j
        for c in w:
            out *= pt[c - 1]
        return out

    s = sum(a * point_word(mu, w) * np.conj(point_word(lam, w))
            for w, a in f.coeffs.items())
    t = sum(a * abs(point_word(mu, w)) * abs(point_word(lam, w))
            for w, a in f.coeffs.items())
    if t >= 1.0:
        raise ValueError(f"points outside the open scalar domain (t = {t:.6f})")
    closed = 1.0 / (1.0 - s)
    b = b_coefficients(f, M)
    table = enumerate_words(f.n, M)
    partial = sum(b[w] * point_word(mu, w) * np.conj(point_word(lam, w))
                  for w in table.words)
    tail = float(t) ** (M // f.degree + 1) / (1.0 - float(t))
    return complex(closed), complex(partial), float(tail)
