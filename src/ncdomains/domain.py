"""Positive regular polynomials, their inverse-series weights, and truncated
weighted creation operators.

A positive regular polynomial f = sum a_w Z_w (no constant term, strictly
positive single-letter coefficients) defines

* the regular domain: tuples X with Phi_{f,X}(I) = sum a_w X_w X_w* <= I, by ``apply_phi``
  (membership: ``domain_membership``; the iterates Phi^m(I): ``phi_identity_iterates``),
* the weights b_w of the inverse series (1 - f)^{-1}, one read-only array in word-table
  order built a level at a time (``b_coefficients``),
* the weighted left creation operators W_i on the truncated Fock space, stored as weighted
  shifts (a target index, by level arithmetic, and a weight per basis vector), not as
  dense matrices.  The right creations L_i are not built: ``transfer._columns`` applies
  their words by level arithmetic, and the tests build them from word lookups as an
  oracle.  No runtime path reads a word table above level deg f.

Truncation semantics: creation operators are compressions to levels <= N, so
the top level maps to 0.  Identities that involve only adjoints of creation
operators hold exactly below the truncation boundary.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .words import EMPTY, Word, check_word, fock_size, words_of_lengths


@dataclass(frozen=True)
class RegularPolynomial:
    """f = sum_{1 <= |w| <= k} a_w Z_w with a_w >= 0 and a_{g_i} > 0."""

    n: int
    coeffs: dict[Word, float]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one indeterminate")
        clean: dict[Word, float] = {}
        for w, a in self.coeffs.items():
            w = tuple(int(c) for c in w)
            check_word(w, self.n)
            a = float(a)
            if w == EMPTY:
                if a != 0.0:
                    raise ValueError("constant term must vanish (positive regularity)")
                continue
            if not np.isfinite(a):
                raise ValueError(f"coefficient a_{w} = {a} is not finite")
            if a < 0.0:
                raise ValueError(f"coefficient a_{w} = {a} is negative")
            if a != 0.0:
                clean[w] = a
        for i in range(1, self.n + 1):
            if clean.get((i,), 0.0) <= 0.0:
                raise ValueError(f"single-letter coefficient a_g{i} must be > 0")
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max(len(w) for w in self.coeffs)

    def support(self) -> list[Word]:
        """The words with a nonzero coefficient in graded-lex order: the index set of
        every block row and column built from f."""
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    @staticmethod
    def single_variable(coeffs: list[float]) -> "RegularPolynomial":
        """One indeterminate; coeffs[j] is the coefficient of Z^{j+1}."""
        return RegularPolynomial(1, {(1,) * (j + 1): c for j, c in enumerate(coeffs)})


def b_coefficients(f: RegularPolynomial, N: int) -> np.ndarray:
    """Weights b_w of (1 - f)^{-1} for |w| <= N (b_empty = 1, all positive), a
    read-only array in graded-lex word order.

    b_w = sum_{uv=w, u in supp f} a_u b_v, a level at a time: the word of length
    m and rank rho is u v with |u| = k, rank(u) = rho // n^(m-k) and rank(v) =
    rho % n^(m-k), so level m is sum_{k <= deg f} kron(a_k, b_{m-k}), a_k the
    coefficients of the words of length k by rank, summed from k = 1 up.
    """
    if N < 0:
        raise ValueError("level must be >= 0")
    a = [np.array([f.coeffs.get(w, 0.0) for w in words_of_lengths(f.n, k, k)])
         for k in range(f.degree + 1)]
    levels = [np.ones(1)]
    for m in range(1, N + 1):
        level = np.multiply.outer(a[1], levels[m - 1]).ravel()
        for k in range(2, min(f.degree, m) + 1):
            level += np.multiply.outer(a[k], levels[m - k]).ravel()
        levels.append(level)
    out = np.concatenate(levels)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class OperatorTuple:
    """A tuple of complex matrices with a common shape (rows x cols)."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = tuple(np.asarray(m, dtype=complex) for m in self.mats)
        if not mats:
            raise ValueError("empty operator tuple")
        shape = mats[0].shape
        if any(m.ndim != 2 or m.shape != shape for m in mats):
            raise ValueError("all matrices in a tuple must share one shape")
        object.__setattr__(self, "mats", mats)

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def rows(self) -> int:
        return self.mats[0].shape[0]

    @property
    def cols(self) -> int:
        return self.mats[0].shape[1]

    @property
    def dim(self) -> int:
        if self.rows != self.cols:
            raise ValueError("rectangular tuple has no single dimension")
        return self.rows

    def word(self, w: Word) -> np.ndarray:
        """Operator word T_w = T_{i_1} ... T_{i_k}; the empty word is I."""
        if len(w) == 0:
            return np.eye(self.rows, self.cols, dtype=complex)
        out = self.mats[w[0] - 1]
        for c in w[1:]:
            out = out @ self.mats[c - 1]
        return out


@dataclass(frozen=True)
class MembershipReport:
    in_domain: bool
    min_eig: float
    min_eig_ellipsoid: float


@dataclass(frozen=True)
class WeightedShift:
    """S e_j = weight[j] e_{target[j]} on the truncated Fock space (0 if weight[j] = 0).

    Creation operators and their words have this form.  The methods take
    Fock-stacked matrices (Fock blocks of an inner dimension r, as in
    np.kron(Fock factor, inner factor)); each entry of such a product has one
    nonzero term, so every method agrees exactly with the dense product.
    """

    target: np.ndarray
    weight: np.ndarray

    @property
    def size(self) -> int:
        return len(self.target)

    def __matmul__(self, other: "WeightedShift") -> "WeightedShift":
        """The composition self o other (other acts first)."""
        return WeightedShift(self.target[other.target],
                             self.weight[other.target] * other.weight)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(S (x) I_r) x, scattered block by block."""
        xb = np.asarray(x, dtype=complex).reshape(self.size, x.shape[0] // self.size,
                                                  x.shape[1])
        out = np.zeros_like(xb)
        live = np.flatnonzero(self.weight)
        out[self.target[live]] = self.weight[live, None, None] * xb[live]
        return out.reshape(x.shape)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """(S^* (x) I_r) x, gathered block by block."""
        xb = np.asarray(x, dtype=complex).reshape(self.size, x.shape[0] // self.size,
                                                  x.shape[1])
        return (self.weight[:, None, None] * xb[self.target]).reshape(x.shape)

    def dense(self, inner: np.ndarray) -> np.ndarray:
        """The dense matrix kron(S, inner), one Fock block per live column."""
        out = np.zeros((self.size, inner.shape[0], self.size, inner.shape[1]), dtype=complex)
        live = np.flatnonzero(self.weight)
        out[self.target[live], :, live, :] = self.weight[live, None, None] * inner
        return out.reshape(self.size * inner.shape[0], -1)


def kron_identity_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a (x) I_r) x for a Fock-stacked x with r = x.rows / a.cols, without forming the kron."""
    r = x.shape[0] // a.shape[1]
    return (a @ x.reshape(a.shape[1], r * x.shape[1])).reshape(a.shape[0] * r, x.shape[1])


def shift_word(shifts: tuple[WeightedShift, ...], w: Word) -> WeightedShift:
    """S_w = S_{i_1} ... S_{i_k}, in the order of OperatorTuple.word; S_empty = I."""
    out = WeightedShift(np.arange(shifts[0].size), np.ones(shifts[0].size))
    for c in w:
        out = out @ shifts[c - 1]
    return out


def weighted_creation(f: RegularPolynomial, N: int) -> tuple[WeightedShift, ...]:
    """Truncated weighted left creation operators W_i e_w = sqrt(b_w / b_{g_i w}) e_{g_i w},
    one per letter; words of length N map to 0."""
    n, b = f.n, b_coefficients(f, N)
    start = np.array([fock_size(n, m - 1) for m in range(N + 1)])  # index of level m
    below = start[-1]  # the columns below the top level
    level = np.repeat(np.arange(N), n ** np.arange(N))
    rank = np.arange(below) - start[level]
    out = []
    for i in range(1, n + 1):
        # one level up, g_i w has rank (i - 1) n^m + rank(w)
        target = np.arange(len(b))
        target[:below] = start[level + 1] + (i - 1) * n**level + rank
        weight = np.zeros(len(b))
        weight[:below] = np.sqrt(b[:below] / b[target[:below]])
        out.append(WeightedShift(target, weight))
    return tuple(out)


def weighted_left_creation(f: RegularPolynomial, N: int) -> tuple[WeightedShift, ...]:
    """weighted_creation(f, N).

    Kept under this name because the benchmark tracer (bench/tracer.py) keys a
    per-layer metric on it.
    """
    return weighted_creation(f, N)


def apply_phi(f: RegularPolynomial, T: OperatorTuple) -> np.ndarray:
    """Phi_{f,T}(I) = sum_{1<=|w|<=k} a_w T_w T_w^*, the first of ``phi_identity_iterates``.

    ``T`` may be rectangular (maps H' -> H) when deg f = 1; the result acts on H.
    """
    return next(phi_identity_iterates(f, T, 1))


def phi_identity_iterates(f: RegularPolynomial, T: OperatorTuple,
                          m_max: int) -> Iterator[np.ndarray]:
    """Phi(I), Phi^2(I), ..., Phi^{m_max}(I), one at a time, for the completely positive
    map Phi(X) = sum_{1<=|w|<=k} a_w T_w X T_w^*.  T's words are formed once, and each
    iterate is computed only when it is asked for."""
    if T.n != f.n:
        raise ValueError(f"tuple length {T.n} does not match the {f.n} indeterminates of f")
    if f.degree >= 2 and T.rows != T.cols:
        raise ValueError("degree >= 2 terms need a square operator tuple")
    terms = [(a, T.word(w)) for w, a in f.coeffs.items()]
    x = None
    for _ in range(m_max):
        x = sum(a * ((tw if x is None else tw @ x) @ tw.conj().T) for a, tw in terms)
        yield x


def phi_identity_power(f: RegularPolynomial, T: OperatorTuple, m: int) -> np.ndarray:
    """Phi^m(I); Phi^0(I) = I."""
    x = None
    for x in phi_identity_iterates(f, T, m):
        pass
    return np.eye(T.cols, dtype=complex) if x is None else x


def domain_membership(f: RegularPolynomial, T: OperatorTuple, tol: float = 1e-9) -> MembershipReport:
    """Check sum a_w T_w T_w* <= I (domain) and its degree-1 part (ellipsoid)."""
    gap = np.eye(T.rows) - apply_phi(f, T)
    min_eig = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2).min())
    min_eig1 = min_eig  # a degree-1 f is its own degree-1 part
    if f.degree > 1:
        f1 = RegularPolynomial(f.n, {w: a for w, a in f.coeffs.items() if len(w) == 1})
        gap1 = np.eye(T.rows) - apply_phi(f1, T)
        min_eig1 = float(np.linalg.eigvalsh((gap1 + gap1.conj().T) / 2).min())
    return MembershipReport(
        in_domain=min_eig >= -tol,
        min_eig=min_eig,
        min_eig_ellipsoid=min_eig1,
    )

