"""Transfer functions of unitary colligations on the truncated weighted Fock space.

For a colligation U = [[A, B], [C, D]] built from an intertwining triple, the
row of multi-analytic operators

    phi_(b) = I (x) A_(b)^* + (I (x) C^*) (I - Q)^{-1} Gamma (I (x) B_(b)^*),
    Q = sum_w sqrt(a_w) L_{w~} (x) D_(w)^*,

is evaluated at the boundary (radius 1).  L_{w~} appends the word w, so Q is
nilpotent and the row is the finite sum phi = sum_{|u| <= N} L_{u~} (x) Theta_u
with Theta_empty = A^* and Theta_u = C^* X_u, where

    X_u = [u = w] sqrt(a_w) B_(w)^* + sum_{u = v w, v nonempty} sqrt(a_w) D_(w)^* X_v

(the structured noncommutative realization formula of Ball, Groenewald and
Malakorn).  The coefficient table is exact and is the stored form of the row;
the Fourier round trip checks it against the closed form ``realization``.

The Fock space is addressed by level arithmetic (``words.fock_size``), never
by word lookups: the table is built a level at a time, and every reader follows
one column plan (``_columns``): L_{u~} e_y = sqrt(b_y / b_{yu}) e_{yu}, the row
of yu arithmetic in graded-lex order.  Its readers are the scatter, the row Gram (added
in place through views of its level blocks), phi_(w)^* X level by level (the dilation
identity; X^* psi X on a variety model) and the multi-analyticity bound.  The defect
identity is read as a Frobenius norm.  Only ``_scatter`` forms dense blocks, on the first
dense read of a ``PairDilation.right``; the N-level dense phi_(w) is a test oracle.

By the defect identity the row Gram G is I minus a matrix of rank at most w,
so its lambda_max (contraction check, psi ellipsoid gap, the tests' lift norm) is
read as the certified Ritz value theta of ``_lambda_max``: Lanczos until its
Krylov space closes, then the Rayleigh-Ritz residual R of that space
certifies theta <= lambda_max <= theta + delta with no factorization.

Tensor convention throughout: np.kron(Fock factor, inner factor).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .colligation import Colligation, INTERPRETIVE_FLAGS, embed_inner
from .domain import RegularPolynomial, b_coefficients, weighted_creation
from .poisson import PoissonKernel, kernel_intertwining
from .report import VerificationReport
from .words import Word, fock_size, level_rank


@dataclass(frozen=True)
class TransferFunction:
    """The transfer row as its coefficient table: ``theta[k, :, j]`` is Theta_u
    (r_out x r_in) of the block phi_(b_j), b_j the j-th support word of g,
    for the k-th word u (|u| <= N, graded-lex), the coefficient of the operator
    appending u.
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
        return tuple(self.colligation.triple.g.support())

    @property
    def r_out(self) -> int:
        return self.colligation.r_out

    @property
    def r_in(self) -> int:
        return self.colligation.r_in


def _coefficient_table(col: Colligation, N: int, head: Callable[[int], np.ndarray],
                       empty: np.ndarray) -> np.ndarray:
    """``empty`` at the empty word and C^* Z_u for 1 <= |u| <= N (graded-lex),
    Z_u the sum over u = v w, w a support word of f, of sqrt(a_w) head(w)^*
    if v is empty, else of sqrt(a_w) D_(w)^* Z_v.  head(i) is the block of the
    i-th support word: Z_u is the coefficient of L_{u~} in
    (I - Q)^{-1} Gamma (I (x) B^*) for col.b_block, in (I - Q)^{-1} - I for col.d_block.

    A level at a time: the words of level L ending in w (length k, rank s) are
    the slice s::n^k, their prefixes v the level L - k in order.
    """
    f, n = col.triple.f, col.triple.f.n
    terms = [(len(w), level_rank(w, n), np.sqrt(f.coeffs[w]),
              col.d_block(i).conj().T, head(i).conj().T)
             for i, w in enumerate(f.support())]
    cstar = col.C.conj().T
    z = [None]
    table = np.empty((fock_size(n, N), *empty.shape), dtype=complex)
    table[0] = empty
    for lev in range(1, N + 1):
        acc = np.zeros((n**lev, col.slot_dim, head(0).shape[0]), dtype=complex)
        for k, rank, s, dstar, hstar in terms:
            if k < lev:
                acc[rank::n**k] += s * (dstar @ z[lev - k])
            elif k == lev:
                acc[rank] += s * hstar
        z.append(acc)
        table[fock_size(n, lev - 1):fock_size(n, lev)] = cstar @ acc
    return table


def _columns(f: RegularPolynomial, K: int):
    """The plan of sum_{|u| <= K} L_{u~} (x) Theta_u, L_{u~} e_y = sqrt(b_y / b_{yu}) e_{yu}.

    For each level of y yields the Fock indices y, the rows yu (y down, the
    k-th word u across, |u| <= K - |y|) and the weights sqrt(b_y / b_{yu}).
    In graded-lex order the row of yu is arithmetic: the start of level
    |y| + |u|, plus rank(y) n^|u| + rank(u).  Distinct y reach disjoint rows.
    """
    n, b = f.n, b_coefficients(f, K)
    start = np.array([fock_size(n, m - 1) for m in range(K + 1)])
    for lev in range(K + 1):
        ulev = np.repeat(np.arange(K - lev + 1), n ** np.arange(K - lev + 1))
        y = np.arange(n**lev)[:, None]
        rows = start[lev + ulev] + y * n**ulev + np.arange(len(ulev)) - start[ulev]
        yield start[lev] + y[:, 0], rows, np.sqrt(b[start[lev] + y] / b[rows])


def _scatter(table: np.ndarray, f: RegularPolynomial, K: int, inner: tuple[int, int]) -> np.ndarray:
    """The dense sum_u L_{u~} (x) table[k], u the k-th word of length <= K, each
    block zero-padded to ``inner`` = (rows, columns), at least table[k]'s shape.

    Exactly one u writes each entry (row yu, column y), so the sum is a scatter;
    no padding entry is written.
    """
    size = fock_size(f.n, K)
    _, rows_in, cols_in = table.shape
    out = np.zeros((size * inner[0], size * inner[1]), dtype=complex)
    view = out.reshape(size, inner[0], size, inner[1])[:, :rows_in, :, :cols_in]
    for y, rows, weights in _columns(f, K):
        view[rows, :, y[:, None], :] = weights[:, :, None, None] * table[:rows.shape[1]]
    return out


def _gram(table: np.ndarray, f: RegularPolynomial, K: int, scale: np.ndarray) -> np.ndarray:
    """sum_y scale[y] B_y B_y^* on the rows of levels <= K, B_y the column block
    y of sum_u L_{u~} (x) table[k], added in place with no gathered copy.  One y
    (the empty word, or any y if n = 1) reaches one run of rows: one square block,
    the empty word's the initial Gram.  Else the rows yu, |u| = j, of the y of a
    level are the runs start(|y| + j) + rank(y) n^j: each pair of u-levels j >= jj
    is one batched product, added through the diagonal view of its level block,
    and its conjugate transpose through the mirror block if jj < j.  A level >= 1
    whose scale is zero on every y adds nothing and is skipped."""
    r = table.shape[1]
    level = [slice(fock_size(f.n, m - 1) * r, fock_size(f.n, m) * r) for m in range(K + 1)]
    for lev, (y, rows, weights) in enumerate(_columns(f, K)):
        if lev and not scale[y].any():
            continue
        count, span = rows.shape
        v = (weights[:, :, None, None] * table[:span]).reshape(count, span * r, -1)
        sv, vh = v * scale[y, None, None], v.conj().transpose(0, 2, 1)
        if lev == 0:
            gram = sv[0] @ vh[0]
        elif count == 1:
            gram[level[lev].start:, level[lev].start:] += sv[0] @ vh[0]
        else:
            for j in range(K - lev + 1):
                for jj in range(j + 1):
                    prod = sv[:, level[j]] @ vh[:, :, level[jj]]
                    for a, b in ((j, jj), (jj, j))[:1 + (jj < j)]:
                        block = gram[level[lev + a], level[lev + b]]
                        view = block.reshape(count, -1, count, prod.shape[2])
                        np.einsum("ajak->ajk", view)[...] += prod
                        prod = np.conjugate(prod, out=prod).transpose(0, 2, 1)
    return gram


def eval_transfer(col: Colligation, N: int) -> TransferFunction:
    """Evaluate the transfer row of a colligation at truncation level N.

    The coefficient table Theta comes from the word recursion of X_u (module
    docstring), with no resolvent solve and no dense block.
    """
    theta = _coefficient_table(col, N, col.b_block, col.A.conj().T)
    return TransferFunction(col, N, theta.reshape(len(theta), col.r_out, -1, col.r_in))


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron over the last two axes, the leading axes broadcast."""
    out = np.einsum("...ab,...cd->...acbd", x, y)
    return out.reshape(*out.shape[:-4], x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1])


def realization(col: Colligation, X: Sequence[np.ndarray]) -> np.ndarray:
    """The transfer row in closed form at a tuple X of d x d matrices (leading batch
    axes allowed), X_{w~} = X_{w_k} ... X_{w_1}: I (x) A^* + (I (x) C^*) (I - sum_w sqrt(a_w)
    X_{w~} (x) D_(w)^*)^{-1} sum_w sqrt(a_w) X_{w~} (x) B_(w)^*, equal to sum_u X_{u~}
    (x) Theta_u where the inverse is its Neumann series (X nilpotent, or small).
    Block phi_(b_j) is the j-th of the m2 groups of r_in columns of each X column."""
    f, eye = col.triple.f, np.eye(X[0].shape[-1])
    xw = [(i, np.sqrt(f.coeffs[w]) * functools.reduce(lambda p, c: X[c - 1] @ p, w, eye))
          for i, w in enumerate(f.support())]
    q = sum(_kron(x, col.d_block(i).conj().T) for i, x in xw)
    head = sum(_kron(x, col.b_block(i).conj().T) for i, x in xw)
    y = np.linalg.solve(np.eye(q.shape[-1]) - q, head)
    return _kron(eye, col.A.conj().T) + _kron(eye, col.C.conj().T) @ y


def fourier_roundtrip_residual(tf: TransferFunction, w: Word, max_level: int) -> float:
    """||realization(X) - sum_{|u| <= M} X_{u~} (x) Theta_u||_2 on block w, M = max_level
    in 0..N (else ValueError), X a seeded strictly upper-triangular n-tuple of size
    M + 1 with sum_i ||X_i||_F <= 1/2: X_{u~} = 0 for |u| > M, so the series is exact,
    its terms summing to at most 2 max_u ||Theta_u||.  The closed form reads A, B, C
    and D, the series only the table: a wrong Theta_u with |u| <= M shows."""
    f, d, j = tf.f, max_level + 1, tf.block_words.index(tuple(w))
    if not 0 <= max_level <= tf.N:
        raise ValueError(f"max_level {max_level} is outside 0..N = 0..{tf.N}")
    x = np.triu(np.random.default_rng(0).standard_normal((f.n, d, 2 * d)).view(complex), 1)
    x /= 2 * (np.linalg.norm(x, axis=(1, 2)).sum() or 1.0)
    powers = [np.eye(d)[None]]  # X_{u~} a level at a time: X_{(v c)~} = X_c X_{v~}
    for _ in range(max_level):
        powers.append((x[None] @ powers[-1][:, None]).reshape(-1, d, d))
    series = np.einsum("kab,kij->aibj", np.concatenate(powers),
                       tf.theta[:fock_size(f.n, max_level), :, j])
    closed = realization(tf.colligation, x).reshape(d, tf.r_out, d, -1, tf.r_in)[:, :, :, j]
    return float(np.linalg.norm((closed - series).reshape(d * tf.r_out, -1), 2))


def _row_gram(tf: TransferFunction, K: int, words: list[Word] | None = None) -> np.ndarray:
    """G = sum_j B_j B_j^* on the rows of levels <= K, B_j the blocks phi_(w) for
    w in ``words`` (default: all of them), from the table; G is (Fock_K r_out)^2."""
    theta = tf.theta if words is None else tf.theta[
        :, :, [tf.block_words.index(tuple(w)) for w in words]]
    return _gram(theta.reshape(len(theta), tf.r_out, -1), tf.f, K,
                 np.ones(fock_size(tf.f.n, K)))


LANCZOS_GAP = 8.0
"""c in the certificate gap delta = c eps dim max(1, theta) of ``_lambda_max``.

theta I - G = Q (theta I - S) Q^* + R holds exactly for the computed Q, S and
theta, so rounding reaches the certificate only through theta I - S >= 0 and
the computed ||R||_F.  To first order, for a positive semidefinite G:

- theta: ``eigvalsh`` of the k x k matrix S is backward stable, so
  theta I - S >= -k eps max(1, theta) I;
- R: each entry is theta [i = j] - G_ij minus an inner product of length k,
  so the computed ||R||_F is within
  k eps (||theta I - G||_F + k ||theta I - S||) <= k eps (sqrt(dim) + k) max(1, theta)
  of the exact one.

A computed ||R||_F <= delta / 2 therefore gives lambda_max <= theta + delta
while k (sqrt(dim) + k + 1) <= (c / 2) dim.  With c = 8 the twovar Grams
(k = 6, dim >= 124) meet this with room and the battery psi Grams (k <= 10,
dim 15 to 140) at about the bound; the worst-case factors k overstate the
rounding, which grows like sqrt(k) in practice (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 3).  At k = dim, Q is unitary and theta is the
top eigenvalue of Q^* G Q, as accurate as ``eigvalsh`` of G.  These Grams also
carry an ||R||_F of their own rounding, up to 2 eps dim measured: c = 8 leaves
it at half of delta / 2, where c = 4 left no room (3.0e-14 against 3.0e-14 on
a battery Gram of dim 68).  A larger c only widens the bound theta + delta.
"""

LANCZOS_STEPS = 64
"""The Lanczos step cap of ``_lambda_max``, after which it returns ``eigvalsh``.

A row Gram is I minus a matrix of rank at most w (the defect identity), so its
Krylov space closes after w + 1 steps in exact arithmetic; the twovar Grams
(w = 4) close at k = 6.  A Gram that is not of that form, such as the row of a
non-contraction, runs to the cap and then pays for ``eigvalsh`` as well.  A step costs one product
with G, about 8 dim^2 flops, and ``eigvalsh`` about 16 dim^3 / 3 for its
tridiagonal reduction, so in flops the 64 wasted steps cost 96 / dim of the
fallback.  Measured with one BLAS thread, the memory-bound steps cost more:
27% of ``eigvalsh`` at dim = 508 and 17% at dim = 1020 (a twovar table with
its levels >= 2 scaled by 0.97).
"""

_RESIDUAL_ROWS = 32
"""Rows of R that ``_lambda_max`` forms at once: a block of 32 dim entries, so
R takes no second dim^2 array once dim > 32.  The time of the N = 6..8 twovar
Grams changed by under 10% between 16 and 128 rows."""


def _lambda_max(gram: np.ndarray) -> float:
    """The largest eigenvalue of a Hermitian (row Gram) matrix G, certified.

    Exactly-zero rows (and columns) only add the eigenvalue 0 and are dropped
    first; an all-zero G gives 0.0.  Lanczos with full reorthogonalization
    from a seeded complex Gaussian start runs until its Krylov space closes:
    the reorthogonalized residual is at most delta / 2, delta =
    LANCZOS_GAP eps dim max(1, theta) (theta estimated by the largest Lanczos
    diagonal so far).  Then theta = lambda_max(S), S = Q^* G Q over the basis
    Q so far, and R = theta I - G - Q (theta I - S) Q^*: as theta I - S >= 0,
    x^* G x <= theta + ||R||_2 <= theta + ||R||_F for every unit x, while theta,
    a Ritz value, is at most lambda_max.  ||R||_F <= delta / 2 therefore
    certifies theta <= lambda_max <= theta + delta (``LANCZOS_GAP``), and theta
    is returned.  R is formed a block of rows at a time and G is not written.

    A closure that fails the certificate (an eigenvalue of G above theta, or
    one below it that the Krylov space holds only part of) restarts from a
    fresh seeded vector orthogonal to Q; the trace bound
    |tr R| <= sqrt(dim) ||R||_F refuses most such closures before R is
    formed.  At ``LANCZOS_STEPS`` basis vectors the value is ``eigvalsh``'s.
    """
    zero = np.flatnonzero(gram.diagonal() == 0)  # a zero row has a zero diagonal
    zero = zero[~np.any(gram[zero] != 0, axis=1)]
    if len(zero):
        keep = np.delete(np.arange(len(gram)), zero)
        return max(_lambda_max(gram[np.ix_(keep, keep)]), 0.0) if len(keep) else 0.0
    dim = len(gram)
    scale = LANCZOS_GAP * np.finfo(float).eps * dim
    rng = np.random.default_rng(0)
    steps = min(dim, LANCZOS_STEPS)
    basis = np.empty((steps, dim), dtype=complex)
    rayleigh = np.zeros((steps, steps), dtype=complex)  # S: q_i^* G q_j, i <= j
    x, k, top = None, 0, 1.0
    while k < steps:
        if x is None:  # a start, or a restart orthogonal to the closed space
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for _ in range(2):
                x -= basis[:k].T @ (basis[:k].conj() @ x)
        basis[k] = x / np.linalg.norm(x)
        q = basis[:k + 1]
        x = gram @ basis[k]
        rayleigh[:k + 1, k] = c = q.conj() @ x
        x -= q.T @ c
        x -= q.T @ (q.conj() @ x)  # twice is enough (Kahan, Parlett)
        k += 1
        top = max(top, c[-1].real)
        if np.linalg.norm(x) > scale * top / 2:
            continue
        s = rayleigh[:k, :k]
        theta = float(np.linalg.eigvalsh(s, UPLO="U")[-1])
        delta = scale * max(1.0, theta)
        trace = (dim - k) * theta - np.trace(gram).real + np.trace(s).real
        if (abs(trace) <= np.sqrt(dim) * delta / 2
                and _residual_norm(gram, basis[:k], s, theta) <= delta / 2):
            return theta
        x = None
    return float(np.linalg.eigvalsh(gram)[-1])


def _residual_norm(gram: np.ndarray, basis: np.ndarray, s: np.ndarray, theta: float) -> float:
    """||theta I - G - Q (theta I - S) Q^*||_F, Q = basis^T and S Hermitian from
    its upper triangle, formed ``_RESIDUAL_ROWS`` rows at a time."""
    upper = np.triu(s, 1)
    qm = basis.T @ (theta * np.eye(len(s)) - upper - upper.conj().T - np.diag(s.diagonal().real))
    qh, total = basis.conj(), 0.0
    for a in range(0, len(gram), _RESIDUAL_ROWS):
        block = qm[a:a + _RESIDUAL_ROWS] @ qh
        block += gram[a:a + _RESIDUAL_ROWS]
        rows = np.arange(len(block))
        block[rows, a + rows] -= theta
        total += np.vdot(block, block).real
    return float(np.sqrt(total))


def _row_adjoint(table: np.ndarray, f: RegularPolynomial, K: int, x: np.ndarray) -> np.ndarray:
    """(sum_u L_{u~} (x) table[k])^* x with no dense block: row block y is
    sum_u sqrt(b_y / b_{yu}) table[k]^* x_{yu}, x_{yu} row block yu of x."""
    r_out, r_in = table.shape[1:]
    xb = x.reshape(-1, r_out, x.shape[1])
    out = np.empty((len(xb), r_in, x.shape[1]), dtype=complex)
    for y, rows, weights in _columns(f, K):
        count, span = rows.shape
        v = (weights[:, :, None, None] * table[:span]).reshape(count, span * r_out, r_in)
        out[y] = v.conj().transpose(0, 2, 1) @ xb[rows].reshape(count, span * r_out, -1)
    return out.reshape(len(xb) * r_in, x.shape[1])


def multi_analytic_residual(tf: TransferFunction, w: Word) -> float:
    """A bound on || phi_(w) (W_i (x) I) - (W_i (x) I) phi_(w) || on columns of level <= N-1.

    phi_(w) = sum_u L_{u~} (x) Theta_u (block w), so the commutator is
    sum_u [W_i, L_{u~}] (x) Theta_u and its norm is at most
    max_i sum_u ||[W_i, L_{u~}]|| ||Theta_u||.  With W_i e_x = w(x) e_{t(x)}
    (t(x) one level up) and l(y, u) the weights of ``_columns``,
    [W_i, L_{u~}] e_y = w(yu) l(y, u) e_{t(yu)} - l(t(y), u) w(y) e_{t(y)u}
    for |y| + |u| <= N - 1 (both terms vanish above).  Per level of y each term
    is injective, so the norm is the largest |difference| where all targets
    agree, else at most the sum of the two largest weights.  Left and right
    creation operators commute, so the bound is rounding in the weights alone:
    blind to a wrong Theta entry (sqrt(a_w) dropped on the D term reads 0.0),
    whose check is ``fourier_roundtrip_residual``, against the colligation.
    """
    f, N = tf.f, tf.N
    theta = tf.theta[:, :, tf.block_words.index(tuple(w))]
    plan = list(_columns(f, N))
    norms = np.zeros((f.n, fock_size(f.n, N - 1)))
    for wi, out in zip(weighted_creation(f, N), norms):
        for (y, rows, weights), (up, rows_up, weights_up) in zip(plan, plan[1:]):
            span = rows_up.shape[1]  # the words u with |y| + |u| <= N - 1
            at = wi.target[y] - up[0]  # t(y) on the level above
            yu, l_yu = rows[:, :span], weights[:, :span]
            v1, v2 = wi.weight[yu] * l_yu, wi.weight[y, None] * weights_up[at]
            agree = (wi.target[yu] == rows_up[at]).all(axis=0)
            norm = np.where(agree, np.abs(v1 - v2).max(axis=0),
                            np.abs(v1).max(axis=0) + np.abs(v2).max(axis=0))
            out[:span] = np.maximum(out[:span], norm)
    return float((norms @ np.linalg.norm(theta[:norms.shape[1]], 2, axis=(1, 2))).max())


def defect_identity_residual(tf: TransferFunction) -> float:
    """Residual of I - phi phi* = M ((I - sum a_w L_{w~} L_{w~}^*) (x) I) M^*.

    M = (I (x) C^*)(I - Q)^{-1} = sum_u L_{u~} (x) C^* Y_u, Y_empty = I and
    Y_u = sum_{u = v w} sqrt(a_w) D_(w)^* Y_v.  The identity is exact on the
    rows of levels <= K = N - deg f, reached only by |u| <= K and columns of
    level <= K: both sides are table Grams there.  N < deg f raises ValueError.
    The residual is ||E||_F, E the difference: no factorization, and
    ||E||_2 <= ||E||_F <= sqrt(dim) ||E||_2.
    """
    col, f = tf.colligation, tf.f
    K = tf.N - f.degree
    if K < 0:
        raise ValueError(f"N = {tf.N} is below deg f = {f.degree}: no level is checked")
    # the diagonal of sum_w a_w L_{w~} L_{w~}^*: L_{w~} appends w, column index(w)
    terms = [(fock_size(f.n, len(w) - 1) + level_rank(w, f.n), f.coeffs[w])
             for w in f.support() if len(w) <= K]
    lam_gram = np.zeros(fock_size(f.n, K))
    for _, rows, weights in _columns(f, K):
        for k, a in terms:
            if k < rows.shape[1]:
                lam_gram[rows[:, k]] += a * weights[:, k] ** 2

    diff = _row_gram(tf, K)  # phi phi^* + M (...) M^* - I, the negated difference
    diff += _gram(_coefficient_table(col, K, col.d_block, col.C.conj().T), f, K, 1.0 - lam_gram)
    diff[np.diag_indices(len(diff))] -= 1.0
    return float(np.linalg.norm(diff))


def contraction_excess(tf: TransferFunction) -> float:
    """max(0, sigma_max(full transfer row) - 1), from the row Gram of the table;
    sigma_max^2 is the certified Ritz value theta of ``_lambda_max``, so the
    true lambda_max of the Gram is at most theta + delta."""
    return max(0.0, float(np.sqrt(max(_lambda_max(_row_gram(tf, tf.N)), 0.0))) - 1.0)


def dilation_identity_report(tf: TransferFunction, K1: PoissonKernel,
                             K1p: PoissonKernel, tol: float) -> VerificationReport:
    """Check K' T2_w^* = (1/sqrt(c_w)) phi_(w)^* K for all support words of g.

    K is the kernel of T1, K' the kernel of T1'; both are zero-padded into the
    colligation's inner dimensions (pad coordinates carry no content).
    phi_(w)^* K is read from the table level by level, with no dense block.
    """
    col = tf.colligation
    g, T2 = col.triple.g, col.triple.T2
    rep = VerificationReport("dilation-identity",
                             environment={"N": str(tf.N), **INTERPRETIVE_FLAGS})
    k1 = embed_inner(K1.matrix, tf.fock_size, K1.multiplicity, tf.r_out)
    k1p = embed_inner(K1p.matrix, tf.fock_size, K1p.multiplicity, tf.r_in)
    for w in g.support():
        c = g.coeffs[w]
        lhs = k1p @ T2.word(w).conj().T
        theta = tf.theta[:, :, tf.block_words.index(w)]
        rhs = _row_adjoint(theta, tf.f, tf.N, k1) / np.sqrt(c)
        name = "g" + "".join(str(c_) for c_ in w)
        rep.add_residual(f"kernel_intertwine_{name}", float(np.linalg.norm(lhs - rhs, 2)), tol)
    # the two creation intertwinings accompanying the identity
    k1_rep = kernel_intertwining(K1, tol)
    rep.extend(k1_rep, prefix="K1_")
    rep.extend(k1_rep if K1p is K1 else kernel_intertwining(K1p, tol), prefix="K1p_")
    return rep
