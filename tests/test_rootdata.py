import pytest

from qtchar.engine import FundamentalSpec, fundamental_character
from qtchar.errors import NonDominantError, OddCycleError, QtcharError
from qtchar.rootdata import (
    DynkinDiagram,
    Weight,
    bipartite_coloring,
    positive_roots,
    simple_root,
    weyl_dimension,
)
from qtchar.yalgebra import Monomial, Spectral, drop_degree


def test_cartan_entries(a2, d4):
    assert a2.cartan_entry(1, 1) == 2
    assert a2.cartan_entry(1, 2) == -1
    assert d4.cartan_entry(3, 4) == 0
    assert d4.cartan_entry(2, 4) == -1
    with pytest.raises(QtcharError):
        a2.cartan_entry(0, 1)


def test_weight_str():
    assert str(Weight({1: 1})) == "W1"
    assert str(Weight({2: -1})) == "-W2"
    assert str(Weight({1: 2, 3: -1})) == "2W1 - W3"
    assert str(Weight({1: -2, 2: 1})) == "-2W1 + W2"
    assert str(Weight()) == "0"


def test_diagram_validation():
    with pytest.raises(QtcharError):
        DynkinDiagram.general(3, [(1, 2)])  # disconnected
    with pytest.raises(QtcharError):
        DynkinDiagram.general(2, [(1, 1)])  # loop
    with pytest.raises(QtcharError):
        DynkinDiagram.type_d(3)


def test_general_diagram_must_be_finite_type():
    # a 4-cycle's singular Cartan matrix would otherwise surface inside drop_degree
    four_cycle = [(1, 2), (2, 3), (3, 4), (4, 1)]
    triangle = [(1, 2), (2, 3), (1, 3)]
    affine_d4 = [(1, 2), (1, 3), (1, 4), (1, 5)]
    for rank, edges in ((4, four_cycle), (3, triangle), (5, affine_d4)):
        with pytest.raises(QtcharError, match="not of finite type"):
            DynkinDiagram.general(rank, edges)


def test_general_e6_diagram():
    e6 = DynkinDiagram.general(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    assert len(positive_roots(e6)) == 36
    assert weyl_dimension(e6, Weight.fundamental(1)) == 27
    top = Monomial.y(1, Spectral("a", 0))
    chi = fundamental_character(e6, FundamentalSpec(1, Spectral("a", 0)))
    assert len(chi) == 27
    assert {drop_degree(e6, m, top) for m in chi.support()} == set(range(17))


def test_bipartite_coloring(a3, d4):
    assert bipartite_coloring(a3) == {1: 0, 2: 1, 3: 0}
    assert bipartite_coloring(d4) == {1: 0, 2: 1, 3: 0, 4: 0}
    # general() rejects the triangle as not of finite type; the bare
    # constructor still builds it, and the coloring must catch the odd cycle
    triangle = DynkinDiagram("general", 3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(OddCycleError):
        bipartite_coloring(triangle)


def test_coloring_separates_all_edges():
    for d in (DynkinDiagram.type_a(6), DynkinDiagram.type_d(6)):
        col = bipartite_coloring(d)
        for i, j in d.edges:
            assert col[i] != col[j]


def test_simple_roots(a2, d4):
    assert simple_root(a2, 1) == Weight({1: 2, 2: -1})
    assert simple_root(DynkinDiagram.type_a(1), 1) == Weight({1: 2})
    assert simple_root(d4, 2) == Weight({1: -1, 2: 2, 3: -1, 4: -1})


def test_positive_root_counts():
    for n in range(1, 9):
        assert len(positive_roots(DynkinDiagram.type_a(n))) == n * (n + 1) // 2
    for n in range(4, 9):
        assert len(positive_roots(DynkinDiagram.type_d(n))) == n * (n - 1)


@pytest.mark.parametrize(
    "diagram,weight,dim",
    [
        ("A2", {1: 1}, 3),
        ("A2", {1: 2}, 6),
        ("A2", {1: 1, 2: 1}, 8),
        ("D4", {2: 1}, 28),
        ("D4", {1: 1}, 8),
        ("D4", {4: 1}, 8),
        ("D5", {1: 1}, 10),
    ],
)
def test_weyl_dimensions(diagram, weight, dim):
    d = (
        DynkinDiagram.type_a(int(diagram[1]))
        if diagram[0] == "A"
        else DynkinDiagram.type_d(int(diagram[1]))
    )
    assert weyl_dimension(d, Weight(weight)) == dim


def test_vector_representation_dimensions():
    for n in range(1, 7):
        assert weyl_dimension(DynkinDiagram.type_a(n), Weight.fundamental(1)) == n + 1
    for n in range(4, 8):
        assert weyl_dimension(DynkinDiagram.type_d(n), Weight.fundamental(1)) == 2 * n


def test_weyl_dimension_rejects_non_dominant(a2):
    with pytest.raises(NonDominantError):
        weyl_dimension(a2, Weight({1: -1}))


def test_weight_arithmetic():
    w = Weight({1: 1}) + Weight({2: 2})
    assert w == Weight({1: 1, 2: 2})
    assert w - w == Weight.zero()
    assert (-w).coeff(2) == -2
    assert Weight({1: 1, 2: 0}) == Weight({1: 1})
