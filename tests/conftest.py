import numpy as np
import pytest

from ncdomains import OperatorTuple, RegularPolynomial, weighted_creation
from ncdomains.harness import scale_into_domain


def f_battery() -> list[RegularPolynomial]:
    """The fixed battery of positive regular polynomials used across tests."""
    return [
        RegularPolynomial.single_variable([1.0]),          # z
        RegularPolynomial.single_variable([2.0]),          # 2z
        RegularPolynomial.single_variable([1.0, 1.0]),     # z + z^2
        RegularPolynomial(2, {(1,): 1.0, (2,): 1.0}),      # z1 + z2
        RegularPolynomial(2, {(1,): 1.0, (2,): 1.0, (1, 2): 1.0}),  # z1+z2+z1z2
    ]


def dense_creation(f: RegularPolynomial, N: int, side: str = "left") -> OperatorTuple:
    """The weighted creation operators of f at truncation N as dense matrices."""
    return OperatorTuple(tuple(s.dense() for s in weighted_creation(f, N, side)))


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


@pytest.fixture
def fib_poly() -> RegularPolynomial:
    return RegularPolynomial.single_variable([1.0, 1.0])
