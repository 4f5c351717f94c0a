from typing import List, Tuple

import pytest

from qtchar import DynkinDiagram, Monomial, Spectral


@pytest.fixture
def a2():
    return DynkinDiagram.type_a(2)


@pytest.fixture
def a3():
    return DynkinDiagram.type_a(3)


@pytest.fixture
def d4():
    return DynkinDiagram.type_d(4)


@pytest.fixture
def d5():
    return DynkinDiagram.type_d(5)


def q(k: int, base: str = "a") -> Spectral:
    return Spectral(base, k)


def ym(*factors) -> Monomial:
    """Monomial from (node, qexp) or (node, qexp, exp) tuples, base 'a'."""
    return Monomial.from_factors(
        (f[0], q(f[1]), f[2] if len(f) > 2 else 1) for f in factors
    )


def _node_line(m: Monomial, i: int) -> List[Tuple[int, int]]:
    """Sorted (qexp, exponent) pairs for node i; demands a single base."""
    m.single_base()
    return sorted((a.qexp, v) for (node, a), v in m.items() if node == i)


def eps_n(m: Monomial, i: int, n: int) -> int:
    """Negated sum of node-i exponents at q-degrees >= n."""
    return -sum(v for k, v in _node_line(m, i) if k >= n)


def phi_n(m: Monomial, i: int, n: int) -> int:
    """Sum of node-i exponents at q-degrees <= n."""
    return sum(v for k, v in _node_line(m, i) if k <= n)
