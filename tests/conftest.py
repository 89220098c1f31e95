import os
import signal
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from ncdomains import (BiPolynomial, Colligation, IntertwiningTriple, OperatorTuple,
                       PairDilation, RegularPolynomial, TransferFunction, VerificationReport,
                       WeightedShift, b_coefficients, build_isometry, complete_to_unitary,
                       dilation_identity_report, enumerate_words, eval_transfer,
                       poisson_kernel, weighted_creation)
from ncdomains.harness import choose_truncation, scale_into_domain
from ncdomains.transfer import (_columns, _lambda_max, _row_gram, _scatter,
                                multi_analytic_residual)
from ncdomains.variety import VarietyModel
from ncdomains.words import EMPTY, Word, WordTable


def f_battery() -> list[RegularPolynomial]:
    """The fixed battery of positive regular polynomials used across tests."""
    return [
        RegularPolynomial.single_variable([1.0]),          # z
        RegularPolynomial.single_variable([2.0]),          # 2z
        RegularPolynomial.single_variable([1.0, 1.0]),     # z + z^2
        RegularPolynomial(2, {(1,): 1.0, (2,): 1.0}),      # z1 + z2
        RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}),  # z1+z2+z1z2
    ]


def is_reversal_symmetric(f: RegularPolynomial) -> bool:
    return all(abs(a - f.coeffs.get(w[::-1], 0.0)) == 0.0 for w, a in f.coeffs.items())


def level_dimensions(v: VarietyModel) -> list[int]:
    """Rank of the level-m compression of the model space, m = 0..N.

    For graded (homogeneous) generator ideals these are the graded component
    dimensions; levels beyond N - max deg q_s are boundary artifacts.
    """
    table = enumerate_words(v.f.n, v.N)
    return [int(np.sum(np.linalg.svd(v.basis[table.level_slice(m), :], compute_uv=False) > 1e-9))
            for m in range(v.N + 1)]


def b_recursion(f: RegularPolynomial, N: int) -> dict[Word, float]:
    """The oracle of ``b_coefficients``: b_w = sum_{uv=w, u in supp f} a_u b_v,
    one step per word of the table."""
    values: dict[Word, float] = {EMPTY: 1.0}
    for w in enumerate_words(f.n, N).words[1:]:
        acc = 0.0
        for m in range(1, min(f.degree, len(w)) + 1):
            a = f.coeffs.get(w[:m])
            if a:
                acc += a * values[w[m:]]
        values[w] = acc
    return values


def reverse(u: Word) -> Word:
    return tuple(u)[::-1]


def word_index(table: WordTable) -> dict[Word, int]:
    """The graded-lex index of each word of the table."""
    return {w: i for i, w in enumerate(table.words)}


def b_by_word(f: RegularPolynomial, N: int) -> dict[Word, float]:
    """The array of ``b_coefficients`` keyed by word."""
    return dict(zip(enumerate_words(f.n, N).words, b_coefficients(f, N)))


def shift_rmul(s: WeightedShift, x: np.ndarray) -> np.ndarray:
    """x (S (x) I_r), gathered column block by column block."""
    xb = np.asarray(x, dtype=complex).reshape(x.shape[0], s.size, x.shape[1] // s.size)
    return (xb[:, s.target] * s.weight[None, :, None]).reshape(x.shape[0], -1)


def dense_block(tf: TransferFunction, w: Word) -> np.ndarray:
    """The dense phi_(w) (Fock r_out x Fock r_in), scattered from the table."""
    return _scatter(tf.theta[:, :, tf.block_words.index(tuple(w))], tf.f, tf.N,
                    (tf.r_out, tf.r_in))


def gram_by_gather(table: np.ndarray, f: RegularPolynomial, K: int,
                   scale: np.ndarray) -> np.ndarray:
    """The oracle of ``transfer._gram``: sum_y scale[y] B_y B_y^*, the product of
    each level of y gathered whole and added through fancy-index arrays."""
    r = table.shape[1]
    plan = _columns(f, K)
    _, rows, weights = next(plan)
    span = rows.shape[1]
    v = (weights[0, :, None, None] * table[:span]).reshape(span * r, -1)
    gram = (v * scale[0]) @ v.conj().T
    for y, rows, weights in plan:
        count, span = rows.shape
        v = (weights[:, :, None, None] * table[:span]).reshape(count, span * r, -1)
        idx = (rows[:, :, None] * r + np.arange(r)).reshape(count, span * r)
        gram[idx[:, :, None], idx[:, None, :]] += (
            (v * scale[y, None, None]) @ v.conj().transpose(0, 2, 1))
    return gram


def right_creation(f: RegularPolynomial, N: int) -> tuple[WeightedShift, ...]:
    """The weighted right creations L_i e_w = sqrt(b_w / b_{w g_i}) e_{w g_i}, one per
    letter, from word-table lookups and ``b_recursion``; words of length N map to 0.

    The package builds none: ``transfer._columns`` applies their words by level
    arithmetic, and this oracle shares none of it."""
    table, b = enumerate_words(f.n, N), b_recursion(f, N)
    index = word_index(table)
    out = []
    for i in range(1, f.n + 1):
        target, weight = np.arange(len(table)), np.zeros(len(table))
        for j, w in enumerate(table.words):
            if len(w) < N:
                target[j] = index[w + (i,)]
                weight[j] = np.sqrt(b[w] / b[w + (i,)])
        out.append(WeightedShift(target, weight))
    return tuple(out)


def creation(f: RegularPolynomial, N: int, side: str) -> tuple[WeightedShift, ...]:
    """The package's left creations W_i (side "left") or the oracle's L_i ("right")."""
    return weighted_creation(f, N) if side == "left" else right_creation(f, N)


def dense_creation(f: RegularPolynomial, N: int, side: str = "left") -> OperatorTuple:
    """The weighted creation operators of f at truncation N as dense matrices."""
    return OperatorTuple(tuple(s.dense(np.ones((1, 1))) for s in creation(f, N, side)))


def dense_compression(v: VarietyModel, side: str) -> OperatorTuple:
    """P S_i P on the model space by one product over the whole Fock space: the
    oracle for the level-local ``v.left`` (side "left"), and C_i = P L_i P."""
    basis_h = v.basis.conj().T
    return OperatorTuple(tuple(shift_rmul(s, basis_h) @ v.basis
                               for s in creation(v.f, v.N, side)))


def colligation_matrix(col: Colligation) -> np.ndarray:
    """The unitary U = [[A, B], [C, D]] of a colligation."""
    return np.block([[col.A, col.B], [col.C, col.D]])


def commutant_lifting(f: RegularPolynomial, T1: OperatorTuple, T1p: OperatorTuple,
                      A: np.ndarray) -> VerificationReport:
    """Lift an intertwiner A (A T1p_i = T1_i A) through the Poisson kernels.

    This is the g = z specialization: the single transfer block psi satisfies
    psi^* K_{T1} = K_{T1p} A^* and has the same norm as A.  A is normalized to
    norm one before lifting; the report records the given norm as norm_A.
    """
    g = RegularPolynomial.single_variable([1.0])
    a_norm = float(np.linalg.norm(A, 2))
    if a_norm == 0.0:
        raise ValueError("cannot normalize the zero intertwiner")
    A = np.asarray(A, dtype=complex) / a_norm
    triple = IntertwiningTriple(f, g, T1, T1p, OperatorTuple((A,)))
    col = complete_to_unitary(build_isometry(triple))
    N = max(choose_truncation(f, T1), choose_truncation(f, T1p))
    tf = eval_transfer(col, N)

    rep = VerificationReport("commutant-lifting",
                             environment={"N": str(N), "norm_A": repr(a_norm)})
    K1 = poisson_kernel(f, T1, N)
    K1p = poisson_kernel(f, T1p, N)
    rep.extend(dilation_identity_report(tf, K1, K1p, tol=1e-7), prefix="")
    lift_norm = float(np.sqrt(max(_lambda_max(_row_gram(tf, tf.N)), 0.0)))
    rep.environment["lift_norm"] = repr(lift_norm)
    rep.add_residual("lift_norm_vs_A", abs(lift_norm - 1.0), 1e-8)
    rep.add_residual("lift_multi_analytic", multi_analytic_residual(tf, (1,)), 1e-7)
    return rep


def phi_map(f: RegularPolynomial, T: OperatorTuple, X: np.ndarray) -> np.ndarray:
    """The oracle of ``phi_identity_iterates``: Phi_{f,T}(X) = sum a_w T_w X T_w^*, every
    word formed anew."""
    return sum(a * (T.word(w) @ X @ T.word(w).conj().T) for w, a in f.coeffs.items())


def bisection_scale(f: RegularPolynomial, T: OperatorTuple, target: float) -> float:
    """The oracle of ``scale_into_domain``: the scale s in [0, 1] of T, after 80 bisection
    steps, with lambda_max(Phi_{f,sT}(I)) <= target."""
    def top(s: float) -> float:
        val = phi_map(f, OperatorTuple(tuple(s * m for m in T.mats)), np.eye(T.cols))
        return float(np.linalg.eigvalsh((val + val.conj().T) / 2).max())

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if top(mid) <= target else (lo, mid)
    return lo


def random_nilpotent_tuple(seed: int, n: int, dim: int,
                           f: RegularPolynomial | None = None,
                           target: float = 0.9) -> OperatorTuple:
    """Seeded strictly-upper-triangular tuple scaled into the f-domain."""
    rng = np.random.default_rng(seed)
    mats = tuple(np.triu(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)), 1)
                 for _ in range(n))
    T = OperatorTuple(mats)
    if f is None:
        f = RegularPolynomial(n, {(i,): 1.0 for i in range(1, n + 1)})
    return scale_into_domain(f, T, target)


def power_pair_tuple() -> tuple[RegularPolynomial, OperatorTuple]:
    """f = z1 + z2 and (a, a^2) for a random complex 3 x 3 a, scaled to level 0.4.

    Its purity decay asks for a truncation N = 18: 524,287 words over two letters.
    """
    f = RegularPolynomial(2, {(1,): 1.0, (2,): 1.0})
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return f, scale_into_domain(f, OperatorTuple((a, a @ a)), 0.4)


def seeded_unitary(seed: int, dim: int) -> np.ndarray:
    """The Q factor of a seeded complex Gaussian dim x dim matrix, its R diagonal made positive."""
    rng = np.random.default_rng([seed, dim])
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def compression_residual(dil: PairDilation, p: BiPolynomial) -> float:
    """|| p(T1, T2) - K^* p(left, psi) K || (exact for nilpotent pairs)."""
    lhs = p.eval(dil.pair.T1, dil.pair.T2)
    rhs = dil.kernel.conj().T @ p.eval(dil.left, dil.right) @ dil.kernel
    return float(np.linalg.norm(lhs - rhs, 2))


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
    partial = sum(b * point_word(mu, w) * np.conj(point_word(lam, w))
                  for w, b in b_by_word(f, M).items())
    tail = float(t) ** (M // f.degree + 1) / (1.0 - float(t))
    return complex(closed), complex(partial), float(tail)


def child_pids() -> list[int]:
    """The children of this process, exited but unreaped ones included, from the
    per-thread lists of /proc/self/task.  Where the kernel keeps no such list, one
    ``os.waitpid(-1, WNOHANG)`` probe: the pid it reaps, or 0 for a live child."""
    lists = list(Path("/proc/self/task").glob("*/children"))
    if lists:
        return sorted(int(pid) for path in lists for pid in path.read_text().split())
    try:
        return [os.waitpid(-1, os.WNOHANG)[0]]
    except ChildProcessError:
        return []


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process, as the benchmark fails a run that does
    (``run_battery`` forks workers).  A raw ``os.fork`` child counts too, not only a
    ``multiprocessing`` one; the children are killed and reaped first, so the fault
    stays with the test that made it."""
    yield
    left = child_pids()
    for pid in filter(None, left):
        with suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def fib_poly() -> RegularPolynomial:
    return RegularPolynomial.single_variable([1.0, 1.0])
