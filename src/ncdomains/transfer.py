"""Transfer functions of unitary colligations on the truncated weighted Fock space.

For a colligation U = [[A, B], [C, D]] built from an intertwining triple, the
row of multi-analytic operators

    phi_(b) = I (x) A_(b)^* + (I (x) C^*) (I - Q)^{-1} Gamma (I (x) B_(b)^*),
    Q = sum_w sqrt(a_w) L_{w~} (x) D_(w)^*,

is evaluated at the boundary (radius 1).  L_{w~} appends the word w, so
L_{w~} L_{v~} appends v then w and Q is nilpotent: the row is the finite sum
phi = sum_{|u| <= N} L_{u~} (x) Theta_u with Theta_empty = A^* and
Theta_u = C^* X_u, where

    X_u = [u = w] sqrt(a_w) B_(w)^* + sum_{u = v w, v nonempty} sqrt(a_w) D_(w)^* X_v

(the structured noncommutative realization formula of Ball, Groenewald and
Malakorn).  The coefficient table is exact, with no series truncation, and it
is the stored form of the row: a dense block is scattered from it on demand,
one Fock block per column of L_{u~} (``TransferFunction.block``).

The checks read the table, not the dense blocks.  L_{u~} e_y =
sqrt(b_y / b_{yu}) e_{yu}, so column block y of the row is
sum_u sqrt(b_y / b_{yu}) e_{yu} (x) Theta_u and its row Gram is one batched
product per level of y (``_row_gram``).  Left and right creation operators
commute, so [W_i (x) I, phi] = sum_u [W_i, L_{u~}] (x) Theta_u is bounded from
the index maps and the norms of Theta_u (``multi_analytic_residual``).

Tensor convention throughout: np.kron(Fock factor, inner factor).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .colligation import Colligation, INTERPRETIVE_FLAGS, embed_inner
from .domain import (RegularPolynomial, WeightedShift, b_coefficients,
                     coefficient_words, shift_word, weighted_creation)
from .poisson import PoissonKernel, kernel_intertwining
from .report import VerificationReport
from .words import Word, enumerate_words, reverse


@dataclass(frozen=True)
class TransferFunction:
    """The transfer row as its coefficient table: ``theta[k, :, j]`` is Theta_u
    (r_out x r_in) of the block phi_(b_j), b_j the j-th coefficient word of g,
    for the k-th word u (|u| <= N, graded-lex), the coefficient of the operator
    appending u.  ``block`` scatters one (Fock r_out) x (Fock r_in) block.
    """

    colligation: Colligation
    N: int
    theta: np.ndarray  # (Fock_N, r_out, m2, r_in)

    @property
    def f(self) -> RegularPolynomial:
        return self.colligation.triple.f

    @property
    def fock_size(self) -> int:
        return len(self.theta)

    @property
    def block_words(self) -> tuple[Word, ...]:
        return tuple(coefficient_words(self.colligation.triple.g))

    @property
    def r_out(self) -> int:
        return self.colligation.r_out

    @property
    def r_in(self) -> int:
        return self.colligation.r_in

    def block(self, w: Word) -> np.ndarray:
        """The dense phi_(w), scattered from the table."""
        return _scatter(self.theta[:, :, self.block_words.index(tuple(w))], self.f, self.N)


def _coefficient_table(col: Colligation, N: int, head: Callable[[int], np.ndarray],
                       empty: np.ndarray) -> np.ndarray:
    """``empty`` at the empty word and C^* Z_u for 1 <= |u| <= N, where Z_u is
    the sum over u = v w, w a coefficient word of f, of sqrt(a_w) head(w)^*
    when v is empty and sqrt(a_w) D_(w)^* Z_v otherwise; one entry per word
    in graded-lex order.

    head(i) is the block of the i-th coefficient word of f.  Z_u is the inner
    coefficient, at the operator appending u, of (I - Q)^{-1} Gamma (I (x) B^*)
    for head = col.b_block and of (I - Q)^{-1} - I for head = col.d_block.
    """
    f = col.triple.f
    terms = [(w, np.sqrt(a), col.d_block(i).conj().T, head(i).conj().T)
             for i, w in enumerate(coefficient_words(f))
             if (a := f.coeffs.get(w, 0.0)) != 0.0]
    shape = (col.slot_dim, head(0).shape[0])
    cstar = col.C.conj().T
    words = enumerate_words(f.n, N).words
    z: dict[Word, np.ndarray] = {}
    table = np.empty((len(words), *empty.shape), dtype=complex)
    table[0] = empty
    for k, u in enumerate(words[1:], 1):
        acc = np.zeros(shape, dtype=complex)
        for w, s, dstar, hstar in terms:
            m = len(u) - len(w)
            if m >= 0 and u[m:] == w:
                acc += s * (dstar @ z[u[:m]] if m else hstar)
        z[u] = acc
        table[k] = cstar @ acc
    return table


def _scatter(table: np.ndarray, f: RegularPolynomial, N: int) -> np.ndarray:
    """The dense sum_u L_{u~} (x) table[k], u the k-th word of length <= N.

    Exactly one u writes each entry (row yu, column y), so the sum is a scatter.
    """
    lam = weighted_creation(f, N, "right")
    _, rows, cols = table.shape
    size = lam[0].size
    out = np.zeros((size * rows, size * cols), dtype=complex)
    for u, coef in zip(enumerate_words(f.n, N).words, table):
        shift_word(lam, reverse(u)).add_kron(out, coef)
    return out


def eval_transfer(col: Colligation, N: int) -> TransferFunction:
    """Evaluate the transfer row of a colligation at truncation level N.

    The coefficient table Theta comes from the word recursion of X_u (module
    docstring), with no resolvent solve and no dense block.
    """
    theta = _coefficient_table(col, N, col.b_block, col.A.conj().T)
    return TransferFunction(col, N, theta.reshape(len(theta), col.r_out, -1, col.r_in))


def fourier_coefficients(tf: TransferFunction, w: Word,
                         max_level: int) -> dict[Word, np.ndarray]:
    """Coefficients of phi_(w) = sum_u L_u (x) coef_u for |u| <= max_level.

    L_u = shift_word(lam, u) appends u~, so coef_u is the phi_(w) block of
    Theta_{u~}.
    """
    f, N = tf.f, tf.N
    if max_level > N - f.degree:
        raise ValueError(f"max_level {max_level} exceeds N - deg f = {N - f.degree}")
    j = tf.block_words.index(tuple(w))
    index = enumerate_words(f.n, N).index
    return {u: tf.theta[index[reverse(u)], :, j]
            for u in enumerate_words(f.n, max_level).words}


def fourier_roundtrip_residual(tf: TransferFunction, w: Word, max_level: int) -> float:
    """|| P_rows (phi_(w) - sum_{|u|<=M} L_u (x) coef_u) P_cols ||.

    Rows are restricted to levels <= min(M, N-M) and columns to levels
    <= N-M: on that corner the truncated transfer block agrees exactly with
    its multi-analytic Fourier expansion.  The expansion is formed on the
    corner only, where it equals the expansion at truncation N-M.

    Both the block and the coefficients come from ``tf.theta``, so this
    compares the dense scatter with table lookups only; it is not an
    independent test of Theta (the dense-resolvent oracle tests are).
    """
    f, N = tf.f, tf.N
    K = N - max_level
    index = enumerate_words(f.n, K).index
    table = np.zeros((len(index), tf.r_out, tf.r_in), dtype=complex)
    for u, c in fourier_coefficients(tf, w, min(max_level, K)).items():
        table[index[reverse(u)]] = c
    recon = _scatter(table, f, K)
    rows = enumerate_words(f.n, N).max_level_index(min(max_level, K)) * tf.r_out
    diff = tf.block(w)[:rows, :recon.shape[1]] - recon[:rows]
    return float(np.linalg.norm(diff, 2))


def _row_gram(tf: TransferFunction, K: int, words: list[Word] | None = None) -> np.ndarray:
    """G = sum_j B_j B_j^* on the rows of levels <= K, from the coefficient table.

    B_j runs over the blocks phi_(w), w in ``words`` (default: all of them).
    Column block y of the row is sum_{|u| <= K - |y|} sqrt(b_y / b_{yu})
    e_{yu} (x) Theta_u on those rows, and distinct columns of one level reach
    disjoint rows, so each level of y is one batched product and one
    scattered sum.  In graded-lex order the row of yu is arithmetic: the start
    of level |y| + |u|, plus rank(y) n^|u| + rank(u).  G is (Fock_K r_out)^2;
    no dense block is read.
    """
    n, r = tf.f.n, tf.r_out
    table = enumerate_words(n, K)
    b = b_coefficients(tf.f, K)
    bw = np.array([b[w] for w in table.words])
    start = np.array([table.max_level_index(m - 1) for m in range(K + 1)])
    theta = tf.theta[:len(table)]
    if words is not None:
        theta = theta[:, :, [tf.block_words.index(tuple(w)) for w in words]]
    theta = theta.reshape(len(table), r, -1)
    gram = np.zeros((len(table) * r, len(table) * r), dtype=complex)
    for lev in range(K + 1):
        # y in rows, u in columns: the Fock row of yu and the weight of L_{u~} e_y
        ulev = np.repeat(np.arange(K - lev + 1), n ** np.arange(K - lev + 1))
        y = np.arange(n**lev)[:, None]
        rows = start[lev + ulev] + y * n**ulev + np.arange(len(ulev)) - start[ulev]
        weights = np.sqrt(bw[start[lev] + y] / bw[rows])
        count, span = rows.shape
        v = (weights[:, :, None, None] * theta[:span]).reshape(count, span * r, -1)
        idx = (rows[:, :, None] * r + np.arange(r)).reshape(count, span * r)
        gram[idx[:, :, None], idx[:, None, :]] += v @ v.conj().transpose(0, 2, 1)
    return gram


def _row_norm(tf: TransferFunction) -> float:
    """||[phi_(w) : all w]|| = sqrt(lambda_max) of the row Gram on all rows."""
    lam = float(np.linalg.eigvalsh(_row_gram(tf, tf.N))[-1])
    return float(np.sqrt(max(lam, 0.0)))


def _difference_norm(x: WeightedShift, y: WeightedShift, cols: int) -> float:
    """A bound on ||x - y|| over the first ``cols`` columns.

    x and y are words in creation operators, whose live targets are distinct.
    Where x and y are live on the same columns and send each of them to the
    same row, x - y holds one entry per column, in distinct rows, and its norm
    is the largest weight difference; otherwise ||x|| + ||y|| bounds it.
    """
    tx, wx, ty, wy = x.target[:cols], x.weight[:cols], y.target[:cols], y.weight[:cols]
    if np.all(((wx != 0) == (wy != 0)) & ((tx == ty) | (wx == 0))):
        return float(np.abs(wx - wy).max(initial=0.0))
    return float(np.abs(wx).max(initial=0.0) + np.abs(wy).max(initial=0.0))


def _commutator_norms(left: tuple[WeightedShift, ...], right: tuple[WeightedShift, ...],
                      N: int) -> np.ndarray:
    """Bounds on ||[W_i, L_{u~}]|| over the columns of levels <= N-1.

    Row i - 1 is the letter i, column k the k-th word u of length <= N in
    graded-lex order.  L_{(u i)~} = L_i L_{u~}, so each word costs one
    composition; [W_i, L_{u~}] is a difference of two weighted shifts.
    """
    table = enumerate_words(len(right), N)
    below = table.max_level_index(N - 1)
    lam: list[WeightedShift] = []
    out = np.zeros((len(left), len(table)))
    for k, u in enumerate(table.words):
        lam.append(right[u[-1] - 1] @ lam[table.index[u[:-1]]] if u else shift_word(right, ()))
        for i, wi in enumerate(left):
            out[i, k] = _difference_norm(wi @ lam[k], lam[k] @ wi, below)
    return out


def multi_analytic_residual(tf: TransferFunction, w: Word) -> float:
    """A bound on || phi_(w) (W_i (x) I) - (W_i (x) I) phi_(w) || on columns of level <= N-1.

    phi_(w) = sum_u L_{u~} (x) Theta_u (block w), so the commutator is
    sum_u [W_i, L_{u~}] (x) Theta_u and its norm is at most
    max_i sum_u ||[W_i, L_{u~}]|| ||Theta_u||.  The commutator norms come from
    the index maps; left and right creation operators commute, so they vanish
    up to rounding in the weights.
    """
    f, N = tf.f, tf.N
    theta = tf.theta[:, :, tf.block_words.index(tuple(w))]
    comm = _commutator_norms(weighted_creation(f, N), weighted_creation(f, N, "right"), N)
    return float((comm @ np.linalg.norm(theta, 2, axis=(1, 2))).max())


def _resolvent_corner(col: Colligation, K: int) -> np.ndarray:
    """M = (I (x) C^*)(I - Q)^{-1} on the rows of levels <= K.

    M = sum_u L_{u~} (x) C^* Y_u with Y_empty = I and
    Y_u = sum_{u = v w} sqrt(a_w) D_(w)^* Y_v.  On those rows only |u| <= K
    and columns of level <= K contribute, so the corner (its other columns
    vanish) is M at truncation K, whatever the truncation of the transfer row.
    """
    return _scatter(_coefficient_table(col, K, col.d_block, col.C.conj().T),
                    col.triple.f, K)


def defect_identity_residual(tf: TransferFunction) -> float:
    """Residual of I - phi phi* = M ((I - sum a_w L_{w~} L_{w~}^*) (x) I) M^*.

    M = (I (x) C^*)(I - Q)^{-1}.  The identity is exact on the rows of levels
    <= K = N - deg f, and both sides are formed on those rows only; N < deg f
    leaves no such row and raises ValueError.
    """
    col = tf.colligation
    f = tf.f
    K = tf.N - f.degree
    if K < 0:
        raise ValueError(f"N = {tf.N} is below deg f = {f.degree}: no level is checked")
    lam = weighted_creation(f, K, "right")

    lam_gram = np.zeros(lam[0].size)  # the diagonal of sum_w a_w L_{w~} L_{w~}^*
    for w in f.support():
        lw = shift_word(lam, reverse(w))
        live = np.flatnonzero(lw.weight)
        lam_gram[lw.target[live]] += f.coeffs[w] * lw.weight[live] ** 2

    m = _resolvent_corner(col, K)
    lhs = np.eye(m.shape[0]) - _row_gram(tf, K)
    rhs = (m * np.repeat(1.0 - lam_gram, col.slot_dim)) @ m.conj().T
    return float(np.linalg.norm(lhs - rhs, 2))


def contraction_excess(tf: TransferFunction) -> float:
    """max(0, sigma_max(full transfer row) - 1), from the row Gram of the table."""
    return max(0.0, _row_norm(tf) - 1.0)


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
    k1_rep = kernel_intertwining(K1, tol)
    rep.extend(k1_rep, prefix="K1_")
    rep.extend(k1_rep if K1p is K1 else kernel_intertwining(K1p, tol), prefix="K1p_")
    return rep
