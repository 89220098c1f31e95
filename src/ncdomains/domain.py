"""Positive regular polynomials, their inverse-series weights, and truncated
weighted creation operators.

A positive regular polynomial f = sum a_w Z_w (no constant term, strictly
positive single-letter coefficients) defines

* the regular domain: tuples X with  sum a_w X_w X_w* <= I,
* the weights b_w of the inverse series (1 - f)^{-1},
* the weighted left/right creation operators W_i, L_i on the truncated Fock
  space, stored as weighted shifts (a target index and a weight per basis
  vector) rather than as dense matrices.

Truncation semantics: creation operators are compressions to levels <= N, so
the top level maps to 0.  Identities that involve only adjoints of creation
operators hold exactly below the truncation boundary.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .words import EMPTY, Word, check_word, enumerate_words, words_of_lengths


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
        """Coefficient words in graded-lex order."""
        return [w for w in words_of_lengths(self.n, 1, self.degree) if w in self.coeffs]

    def reversed(self) -> "RegularPolynomial":
        return RegularPolynomial(self.n, {w[::-1]: a for w, a in self.coeffs.items()})

    def is_reversal_symmetric(self) -> bool:
        return all(abs(a - self.coeffs.get(w[::-1], 0.0)) == 0.0 for w, a in self.coeffs.items())

    @staticmethod
    def single_variable(coeffs: list[float]) -> "RegularPolynomial":
        """One indeterminate; coeffs[j] is the coefficient of Z^{j+1}."""
        return RegularPolynomial(1, {(1,) * (j + 1): c for j, c in enumerate(coeffs)})


# word count m = card{w : 1 <= |w| <= k}, the block multiplicity of f
def block_count(f: RegularPolynomial) -> int:
    return sum(f.n**m for m in range(1, f.degree + 1))


def coefficient_words(f: RegularPolynomial) -> list[Word]:
    """All words with 1 <= |w| <= deg f in graded-lex order (zero coeffs kept).

    This is the index set of every block row/column built from f; keeping the
    zero-coefficient slots makes the block bookkeeping uniform.
    """
    return words_of_lengths(f.n, 1, f.degree)


@dataclass(frozen=True)
class BCoefficients:
    """Weights b_w of (1 - f)^{-1} for |w| <= N; b_empty = 1, all positive."""

    N: int
    values: dict[Word, float]

    def __getitem__(self, w: Word) -> float:
        return self.values[tuple(w)]


def b_coefficients(f: RegularPolynomial, N: int) -> BCoefficients:
    """Weights via the linear recursion b_w = sum_{uv=w, u in supp f} a_u b_v.

    Equivalent to the sum over ordered factorizations of w into blocks of
    length 1..deg f with coefficient product a_{u_1}...a_{u_j}.
    """
    if N < 0:
        raise ValueError("level must be >= 0")
    table = enumerate_words(f.n, N)
    values: dict[Word, float] = {EMPTY: 1.0}
    for w in table.words[1:]:
        acc = 0.0
        for m in range(1, min(f.degree, len(w)) + 1):
            a = f.coeffs.get(w[:m])
            if a:
                acc += a * values[w[m:]]
        values[w] = acc
    return BCoefficients(N=N, values=values)


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

    @staticmethod
    def zeros(n: int, d: int) -> "OperatorTuple":
        return OperatorTuple(tuple(np.zeros((d, d), dtype=complex) for _ in range(n)))


@dataclass(frozen=True)
class MembershipReport:
    in_domain: bool
    in_ellipsoid: bool
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

    def rmul(self, x: np.ndarray) -> np.ndarray:
        """x (S (x) I_r), gathered column block by column block."""
        xb = np.asarray(x, dtype=complex).reshape(x.shape[0], self.size,
                                                  x.shape[1] // self.size)
        return (xb[:, self.target] * self.weight[None, :, None]).reshape(x.shape)

    def add_kron(self, out: np.ndarray, inner: np.ndarray, scale: complex = 1.0) -> None:
        """out += scale * kron(S, inner), in place, one Fock block per live column."""
        ob = out.reshape(self.size, inner.shape[0], self.size, inner.shape[1])
        live = np.flatnonzero(self.weight)
        ob[self.target[live], :, live, :] += scale * (self.weight[live, None, None] * inner)

    def dense(self, inner: np.ndarray | None = None) -> np.ndarray:
        """The dense matrix kron(S, inner); inner defaults to the 1 x 1 identity."""
        inner = np.ones((1, 1)) if inner is None else inner
        out = np.zeros((self.size * inner.shape[0], self.size * inner.shape[1]),
                       dtype=complex)
        self.add_kron(out, inner)
        return out


def shift_word(shifts: tuple[WeightedShift, ...], w: Word) -> WeightedShift:
    """S_w = S_{i_1} ... S_{i_k}, in the order of OperatorTuple.word; S_empty = I."""
    out = WeightedShift(np.arange(shifts[0].size), np.ones(shifts[0].size))
    for c in w:
        out = out @ shifts[c - 1]
    return out


def weighted_creation(f: RegularPolynomial, N: int,
                      side: str = "left") -> tuple[WeightedShift, ...]:
    """Truncated weighted creation operators, one per letter; words of length N map to 0.

    side="left":  W_i e_w = sqrt(b_w / b_{g_i w}) e_{g_i w};
    side="right": L_i e_w = sqrt(b_w / b_{w g_i}) e_{w g_i}.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    table = enumerate_words(f.n, N)
    b = b_coefficients(f, N)
    weights = np.array([b[w] for w in table.words])
    below = table.max_level_index(N - 1)  # the columns below the top level
    out = []
    for i in range(1, f.n + 1):
        target = np.arange(len(table))
        target[:below] = [table.index[(i,) + w if side == "left" else w + (i,)]
                          for w in table.words[:below]]
        weight = np.zeros(len(table))
        weight[:below] = np.sqrt(weights[:below] / weights[target[:below]])
        out.append(WeightedShift(target, weight))
    return tuple(out)


def weighted_left_creation(f: RegularPolynomial, N: int) -> tuple[WeightedShift, ...]:
    """weighted_creation(f, N, "left").

    Kept under this name because the benchmark tracer (bench/tracer.py) keys a
    per-layer metric on it.
    """
    return weighted_creation(f, N, "left")


def flip_unitary(n: int, N: int) -> np.ndarray:
    """The basis permutation e_w -> e_{reverse(w)} on the truncated Fock space."""
    table = enumerate_words(n, N)
    u = np.zeros((len(table), len(table)))
    for j, w in enumerate(table.words):
        u[table.index[w[::-1]], j] = 1.0
    return u


def apply_phi(f: RegularPolynomial, T: OperatorTuple, X: np.ndarray) -> np.ndarray:
    """The completely positive map sum_{1<=|w|<=k} a_w T_w X T_w^*.

    ``T`` may be rectangular (maps H' -> H); then X acts on H' and the result
    on H, and words of length >= 2 require square matrices.
    """
    if T.n != f.n:
        raise ValueError(f"tuple length {T.n} does not match the {f.n} indeterminates of f")
    X = np.asarray(X, dtype=complex)
    if X.shape != (T.cols, T.cols):
        raise ValueError(f"argument shape {X.shape} does not match tuple domain {T.cols}")
    if f.degree >= 2 and T.rows != T.cols:
        raise ValueError("degree >= 2 terms need a square operator tuple")
    out = np.zeros((T.rows, T.rows), dtype=complex)
    for w, a in f.coeffs.items():
        tw = T.word(w)
        out += a * (tw @ X @ tw.conj().T)
    return out


def phi_identity_iterates(f: RegularPolynomial, T: OperatorTuple,
                         m_max: int) -> Iterator[np.ndarray]:
    """Phi(I), Phi^2(I), ..., Phi^{m_max}(I), one at a time."""
    x = np.eye(T.cols, dtype=complex)
    for _ in range(m_max):
        x = apply_phi(f, T, x)
        yield x


def phi_identity_power(f: RegularPolynomial, T: OperatorTuple, m: int) -> np.ndarray:
    """Phi^m(I); Phi^0(I) = I."""
    x = np.eye(T.cols, dtype=complex)
    for x in phi_identity_iterates(f, T, m):
        pass
    return x


def domain_membership(f: RegularPolynomial, T: OperatorTuple, tol: float = 1e-9) -> MembershipReport:
    """Check sum a_w T_w T_w* <= I (domain) and its degree-1 part (ellipsoid)."""
    eye = np.eye(T.cols, dtype=complex)
    gap = np.eye(T.rows) - apply_phi(f, T, eye)
    min_eig = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2).min())
    f1 = RegularPolynomial(f.n, {w: a for w, a in f.coeffs.items() if len(w) == 1})
    gap1 = np.eye(T.rows) - apply_phi(f1, T, eye)
    min_eig1 = float(np.linalg.eigvalsh((gap1 + gap1.conj().T) / 2).min())
    return MembershipReport(
        in_domain=min_eig >= -tol,
        in_ellipsoid=min_eig1 >= -tol,
        min_eig=min_eig,
        min_eig_ellipsoid=min_eig1,
    )


def purity_estimate(f: RegularPolynomial, T: OperatorTuple, m_max: int,
                    tol: float = 1e-9) -> list[float]:
    """Norms ||Phi^m(I)|| for m = 1..m_max; the tuple is pure when they decay to 0."""
    report = domain_membership(f, T, tol)
    if not report.in_domain:
        raise ValueError(f"tuple is not in the domain (min eigenvalue {report.min_eig:.3e})")
    return [float(np.linalg.norm(x, 2)) for x in phi_identity_iterates(f, T, m_max)]


def purity_horizon(f: RegularPolynomial, T: OperatorTuple, tail_tol: float = 1e-10,
                   cap: int = 64) -> tuple[int, float]:
    """Smallest m <= cap with ||Phi^m(I)|| <= tail_tol, and that norm.

    Returns (cap, last norm) when the tolerance is unreachable within the cap.
    """
    nrm = 1.0  # ||Phi^0(I)||
    for m, x in enumerate(phi_identity_iterates(f, T, cap), start=1):
        nrm = float(np.linalg.norm(x, 2))
        if nrm <= tail_tol:
            return m, nrm
    return cap, nrm
