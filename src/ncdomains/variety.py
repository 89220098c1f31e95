"""Constrained model spaces cut out by polynomial relations.

Given a positive regular polynomial f and generators q_s (polynomials in the
weighted left creation operators W), the constrained model space is

    N_J = (truncated Fock) minus J,   J = span{ W_u q_s(W) e_v },

with the compressed tuple B_i = P W_i P.  Tuples T that annihilate every
generator admit a constrained Poisson kernel obtained by projecting the
unconstrained one onto N_J.

For homogeneous generators J is graded: W_i raises the level by one, so
J_m = sum_i W_i J_{m-1} + span{ q_s(W) e_v : |v| = m - deg q_s }.  N_J is then
co-invariant (W_i^* N_J in N_J), and its level m is cut from the n d_{m-1}
vectors W_i (W_i^* W_i)^{-1} N_{m-1} by the generator columns at level m, read as the
frame rows at the shift targets.  W_i maps level m-1 onto its own run of level m, so the
frame is n thin QRs of n^{m-1} x d_{m-1} blocks, taken in one batched call, and each level
ends in one SVD of an (n d_{m-1})-row block (of its R factor when the block is wide), with
no basis of J and no Fock-row generator block.  The model basis is the level complements
b_m in level order, and B_i is formed a level at a time as b_{m+1}^* (W_i b_m).  Other
generators go through one SVD of the whole span.  Both use one rank rule, ``RANK_RTOL``.
Constrained kernels are applied as (P (x) I) K by reshape, not ``kron``; the right
compressions P L_i P are not built (the tests keep them as an oracle).

Truncation semantics: the span above is only reliable at levels
|u| + deg q_s + |v| <= N, so levels within max(deg q_s) of the boundary are
marked unstable and excluded from exact checks.  Only homogeneous-friendly
generator families (graded ideals, or single-variable minimal polynomials)
are exercised by the built-in checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (OperatorTuple, RegularPolynomial, WeightedShift,
                     kron_identity_matmul, phi_identity_power, shift_word,
                     weighted_creation)
from .poisson import PoissonKernel, add_gram_check
from .report import VerificationReport
from .words import Word, WordTable, check_word, enumerate_words, fock_size

Generator = dict[Word, complex]  # polynomial sum coeff * Z_w with |w| >= 1


def generator_degree(q: Generator) -> int:
    return max((len(w) for w, c in q.items() if c != 0), default=0)


def check_generator(q: Generator, n: int) -> None:
    """Raise ValueError unless every letter is in 1..n and q is not a nonzero constant."""
    for w in q:
        check_word(w, n)
    if generator_degree(q) == 0 and any(c != 0 for c in q.values()):
        raise ValueError("a nonzero constant generator collapses the model space")


def eval_generator(q: Generator, T: OperatorTuple) -> np.ndarray:
    out = np.zeros((T.rows, T.cols), dtype=complex)
    for w, c in q.items():
        if c != 0:
            out += c * T.word(w)
    return out


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
    unstable_margin: int       # levels > N - margin are boundary-affected

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _is_homogeneous(q: Generator) -> bool:
    lengths = {len(w) for w, c in q.items() if c != 0}
    return len(lengths) <= 1


RANK_RTOL = 1e-9
"""The one rank rule of the model build: a singular value of a block counts when it
exceeds RANK_RTOL times the largest one of that block.

It decides which directions of a generator block lie in J, so it sets every level
dimension of N_J (and the dimension of a whole-span model): below it a singular value is
taken as the rounding of dependent columns, near eps times the largest one.
``_split_span`` first reduces a wide block to the R* of a Householder QR of its conjugate
transpose.  That QR is backward stable: R* is the exact factor of the block plus an E with
||E|| <= c eps ||block||, c a low multiple of the block's size, so by Weyl's inequality
each singular value moves by at most c eps ||block||.  For blocks of a few hundred columns
that is near 1e-13 of the largest value, four orders below the cut, and the rule counts
the same values on R* as on the block.
"""


def _split_span(cand: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of the column span of cand, by ``RANK_RTOL``.

    A tall block takes the full left factor of its SVD.  A wide one (rows < cols) is first
    reduced to the square R* of ``qr(cand^*)``: cand = R* Q^* has the column span and the
    singular values of R*, and the SVD of R* forms no rows x cols right factor.
    """
    if cand.shape[0] < cand.shape[1]:
        cand = np.linalg.qr(cand.conj().T, mode="r").conj().T
    u_m, s, _ = np.linalg.svd(cand, full_matrices=cand.shape[0] > cand.shape[1])
    rank = int(np.sum(s > RANK_RTOL * (s[0] if s.size else 0.0)))
    return u_m[:, rank:]


def _next_level(table: WordTable, W: tuple[WeightedShift, ...],
                shifts: list[tuple[int, list[tuple[complex, WeightedShift]]]],
                below: np.ndarray, m: int) -> np.ndarray:
    """N_m from N_{m-1} = ``below``, by the co-invariance W_i^* N_J in N_J.

    x at level m lies in N_m exactly when each W_i^* x lies in N_{m-1} and x is
    orthogonal to the generator columns q(W) e_v at level m.  The first condition
    puts the slot-i block of x in N_{m-1} / w_i, so N_m is the complement of the
    generator columns inside the span V_m of those n d_{m-1} candidates, met as
    frame^* q(W) e_v = sum_w c_w s_w(v) frame^* e_{wv}, with no Fock-row block.  The
    candidates of letter i fill only the rows W_i maps level m - 1 to, so the frame is
    the thin QRs of the n blocks ``below / w_i``, scattered to those rows.
    """
    prev, cur = table.level_slice(m - 1), table.level_slice(m)
    d = below.shape[1]
    blocks = np.linalg.qr(below / np.stack([w.weight[prev] for w in W])[:, :, None])[0]
    frame = np.zeros((cur.stop - cur.start, len(W) * d), dtype=complex)
    for i, (w, q) in enumerate(zip(W, blocks)):
        frame[w.target[prev] - cur.start, i * d:(i + 1) * d] = q
    gens = [np.zeros((frame.shape[1], 0), dtype=complex)]
    for dq, terms in shifts:
        if dq <= m:
            v = np.arange(len(table))[table.level_slice(m - dq)]
            gens.append(sum(c * s.weight[v] * frame[s.target[v] - cur.start].conj().T
                            for c, s in terms))
    return frame @ _split_span(np.hstack(gens))


def _graded_complement(table: WordTable, W: tuple[WeightedShift, ...],
                       live: list[tuple[Generator, int]]) -> tuple[np.ndarray, list[slice]]:
    """N_J one level at a time (:func:`_next_level`), and the basis columns of each level."""
    shifts = [(dq, [(c, shift_word(W, w)) for w, c in q.items() if c != 0]) for q, dq in live]
    levels = [np.ones((1, 1), dtype=complex)]  # N_0 = C e_empty: generators have degree >= 1
    for m in range(1, table.N + 1):
        levels.append(_next_level(table, W, shifts, levels[-1], m))
    basis = np.zeros((len(table), sum(b.shape[1] for b in levels)), dtype=complex)
    cols, col = [], 0
    for m, b in enumerate(levels):
        cols.append(slice(col, col + b.shape[1]))
        basis[table.level_slice(m), cols[-1]] = b
        col += b.shape[1]
    return basis, cols


def _compress(w: WeightedShift, table: WordTable, basis: np.ndarray,
              cols: list[slice]) -> np.ndarray:
    """P W P on the model space as b_{m+1}^* (W b_m), level by level, where b_m
    is the level-m rows of the basis on the columns cols[m] they occupy."""
    out = np.zeros((basis.shape[1],) * 2, dtype=complex)
    for m in range(table.N):
        lo = table.level_slice(m)
        out[cols[m + 1], cols[m]] += (basis[w.target[lo], cols[m + 1]].conj().T
                                      @ (w.weight[lo, None] * basis[lo, cols[m]]))
    return out


def _span_complement(table: WordTable, W: tuple[WeightedShift, ...],
                     live: list[tuple[Generator, int]]) -> tuple[np.ndarray, list[slice]]:
    """N_J for any generators: one SVD of {W_u q(W) e_v : |u| + deg q + |v| <= N};
    every level may occupy every basis column."""
    cols = [np.zeros((len(table), 0), dtype=complex)]
    for q, dq in live:
        v = np.arange(fock_size(table.n, table.N - dq))
        qw = np.zeros((len(table), v.size), dtype=complex)  # the columns q(W) e_v
        for w, c in q.items():
            s = shift_word(W, w)
            qw[s.target[v], v] += c * s.weight[v]
        for u in table.words:
            if len(u) > table.N - dq:
                break
            top = fock_size(table.n, table.N - dq - len(u))
            cols.append(shift_word(W, u).apply(qw[:, :top]))
    return _split_span(np.hstack(cols)), [slice(None)] * (table.N + 1)


def build_variety(f: RegularPolynomial, N: int, generators: list[Generator]) -> VarietyModel:
    """Orthonormal basis of N_J and the compressed left creation tuple.

    Built level by level from the level below when every generator is
    homogeneous, else by one SVD of the whole span (module docstring).
    """
    for q in generators:
        check_generator(q, f.n)
    table = enumerate_words(f.n, N)
    W = weighted_creation(f, N)
    live = [(q, generator_degree(q)) for q in generators if generator_degree(q) > 0]
    build = _graded_complement if all(_is_homogeneous(q) for q, _ in live) else _span_complement
    basis, cols = build(table, W, live)
    left = OperatorTuple(tuple(_compress(w, table, basis, cols) for w in W))
    margin = max((generator_degree(q) for q in generators), default=0)
    return VarietyModel(f=f, N=N, generators=tuple(generators), basis=basis,
                        left=left, unstable_margin=margin)


@dataclass(frozen=True)
class ConstrainedKernel:
    matrix: np.ndarray  # (model-dim * rank) x dim H
    variety: VarietyModel
    base: PoissonKernel


def constrained_poisson(variety: VarietyModel, base: PoissonKernel) -> ConstrainedKernel:
    """(P_{N_J} (x) I) K_{f,T} for the kernel ``base`` of a tuple T satisfying
    the generators (each q(T) of norm <= 1e-8), built from the model's f and N.
    """
    for q in variety.generators:
        res = float(np.linalg.norm(eval_generator(q, base.T), 2))
        if res > 1e-8:
            raise ValueError(f"tuple does not satisfy a generator (residual {res:.3e})")
    if base.N != variety.N or base.f.coeffs != variety.f.coeffs:
        raise ValueError("the Poisson kernel must be built from the model's f and N")
    # basis^* K = conj((basis^T (x) I) conj(K)): the Fock x dim basis is not conjugated
    matrix = kron_identity_matmul(variety.basis.T, base.matrix.conj()).conj()
    return ConstrainedKernel(matrix=matrix, variety=variety, base=base)


def verify_constrained_kernel(ck: ConstrainedKernel, tol: float) -> VerificationReport:
    """Intertwining K_J T_i^* = (B_i^* (x) I) K_J and the Gram identity.

    intertwine_B{i} checks the model columns that live (to 1e-12) at the stable levels
    <= N - 1 - unstable_margin and reads 0.0 if none do, as on a minimal-polynomial
    model: then only intertwine_B{i}_full, against the leak bound, is a real check.
    The Gram matrix is compared with I - Phi^{N+1}(I).
    """
    variety, base = ck.variety, ck.base
    f, T, N = base.f, base.T, base.N
    r = base.multiplicity
    rep = VerificationReport("constrained-kernel",
                             environment={"N": str(N), "model_dim": str(variety.dim),
                                          "margin": str(variety.unstable_margin)})
    # model rows living (numerically) inside the stable levels: the column norms of
    # the tail summed from its real and imaginary views, with no copy of the tail
    tail = variety.basis[fock_size(f.n, max(N - 1 - variety.unstable_margin, 0)):]
    norms = np.einsum("ij,ij->j", tail.real, tail.real) + np.einsum("ij,ij->j", tail.imag, tail.imag)
    stable_cols = np.flatnonzero(np.sqrt(norms) < 1e-12)
    row_idx = np.concatenate([j * r + np.arange(r) for j in stable_cols]) \
        if stable_cols.size else np.array([], dtype=int)

    # kernel mass beyond the truncation; bounds the boundary leakage of the
    # non-graded part of the intertwining
    edge = phi_identity_power(f, T, N + 1)
    leak = float(np.linalg.norm(edge, 2)) ** 0.5
    for i in range(f.n):
        lhs = ck.matrix @ T.mats[i].conj().T
        rhs = kron_identity_matmul(variety.left.mats[i].conj().T, ck.matrix)
        res = float(np.linalg.norm((lhs - rhs)[row_idx], 2)) if row_idx.size else 0.0
        rep.add_residual(f"intertwine_B{i + 1}", res, tol)
        full = float(np.linalg.norm(lhs - rhs, 2))
        rep.add_residual(f"intertwine_B{i + 1}_full", full, max(tol, 10.0 * leak))
    rep.environment["tail_leak"] = repr(leak)
    add_gram_check(rep, ck.matrix, f, T, N, tol, edge)
    return rep
