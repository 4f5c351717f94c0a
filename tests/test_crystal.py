import pytest

from qtchar.crystal import (
    eps,
    fit_coloring,
    generate_crystal,
    in_parity_set,
    kashiwara_e,
    kashiwara_f,
    layer_from_orientation,
    p_index,
    phi,
    q_index,
    verify_crystal_axioms,
    CrystalGraph,
)
from qtchar.errors import (
    CapExceededError,
    MixedBaseError,
    NotInParitySetError,
    NotLDominantError,
    QtcharError,
)
from qtchar.rootdata import DynkinDiagram, Weight, simple_root, weyl_dimension
from qtchar.yalgebra import Monomial

from conftest import eps_n, phi_n, q, ym


def test_partial_sums():
    m = ym((1, 0), (2, 1))
    assert [phi_n(m, 2, n) for n in (-1, 0, 1, 2, 9)] == [0, 0, 1, 1, 1]
    m2 = ym((1, 0), (1, 2), (2, 3, -1))
    assert [eps_n(m2, 2, n) for n in (0, 3, 4)] == [1, 1, 0]
    assert eps_n(Monomial.one(), 1, 0) == 0 and phi_n(Monomial.one(), 1, 0) == 0


def test_statistics():
    m0 = ym((1, 0), (2, 1))
    assert phi(m0, 2) == 1 and q_index(m0, 2) == 1
    m = ym((1, 0), (1, 2), (2, 3, -1))
    assert eps(m, 2) == 1 and p_index(m, 2) == 3
    assert p_index(m0, 1) is None  # eps = 0
    assert q_index(ym((1, 0, -1)), 1) is None  # phi = 0
    assert m0.weight() == Weight({1: 1, 2: 1})


def test_operators_match_worked_example(a2):
    m0 = ym((1, 0), (2, 1))
    stepped = ym((1, 0), (1, 2), (2, 3, -1))
    assert kashiwara_f(a2, m0, 2) == stepped
    assert kashiwara_e(a2, stepped, 2) == m0
    assert kashiwara_e(a2, ym((1, 0)), 1) is None
    assert kashiwara_f(a2, ym((1, 0, -1)), 1) is None  # phi = 0


def test_parity_set_and_coloring_fit(a2):
    m0 = ym((1, 0), (2, 1))
    col = fit_coloring(a2, m0)
    assert col == {1: 1, 2: 0}
    assert in_parity_set(m0, col)
    assert not in_parity_set(m0, {1: 0, 2: 1})
    with pytest.raises(NotInParitySetError):
        fit_coloring(a2, ym((1, 0), (1, 1)))


CRYSTAL_ONE = {
    "highest": ((1, 0), (2, 1)),
    "edges": [
        (((1, 0), (2, 1)), ((1, 0), (1, 2), (2, 3, -1)), 2),
        (((1, 0), (1, 2), (2, 3, -1)), ((1, 0), (1, 4, -1)), 1),
        (((1, 0), (1, 4, -1)), ((1, 2, -1), (1, 4, -1), (2, 1)), 1),
        (((1, 0), (2, 1)), ((1, 2, -1), (2, 1, 2)), 1),
        (((1, 2, -1), (1, 4, -1), (2, 1)), ((1, 4, -1), (2, 3, -1)), 2),
        (((1, 2, -1), (2, 1, 2)), ((2, 1), (2, 3, -1)), 2),
        (((2, 1), (2, 3, -1)), ((1, 2), (2, 3, -2)), 2),
        (((1, 2), (2, 3, -2)), ((1, 4, -1), (2, 3, -1)), 1),
    ],
}

CRYSTAL_TWO = {
    "highest": ((1, 0, 2),),
    "edges": [
        (((1, 0, 2),), ((1, 0), (1, 2, -1), (2, 1)), 1),
        (((1, 0), (1, 2, -1), (2, 1)), ((1, 2, -2), (2, 1, 2)), 1),
        (((1, 0), (1, 2, -1), (2, 1)), ((1, 0), (2, 3, -1)), 2),
        (((1, 2, -2), (2, 1, 2)), ((1, 2, -1), (2, 1), (2, 3, -1)), 2),
        (((1, 0), (2, 3, -1)), ((1, 2, -1), (2, 1), (2, 3, -1)), 1),
        (((1, 2, -1), (2, 1), (2, 3, -1)), ((2, 3, -2),), 2),
    ],
}

CRYSTAL_THREE = {
    "highest": ((1, 0), (1, 2)),
    "edges": [
        (((1, 0), (1, 2)), ((1, 0), (1, 4, -1), (2, 3)), 1),
        (((1, 0), (1, 4, -1), (2, 3)), ((1, 2, -1), (1, 4, -1), (2, 1), (2, 3)), 1),
        (((1, 0), (1, 4, -1), (2, 3)), ((1, 0), (2, 5, -1)), 2),
        (((1, 2, -1), (1, 4, -1), (2, 1), (2, 3)), ((1, 2, -1), (2, 1), (2, 5, -1)), 2),
        (((1, 0), (2, 5, -1)), ((1, 2, -1), (2, 1), (2, 5, -1)), 1),
        (((1, 2, -1), (2, 1), (2, 5, -1)), ((2, 3, -1), (2, 5, -1)), 2),
    ],
}


@pytest.mark.parametrize("golden", [CRYSTAL_ONE, CRYSTAL_TWO, CRYSTAL_THREE])
def test_worked_crystal_graphs(a2, golden):
    g = generate_crystal(a2, ym(*golden["highest"]))
    expected_edges = {(ym(*src), ym(*dst), i) for src, dst, i in golden["edges"]}
    expected_vertices = {m for e in expected_edges for m in (e[0], e[1])}
    assert g.vertices == expected_vertices
    assert g.edges == expected_edges
    assert verify_crystal_axioms(g) == []


def test_same_weight_same_shape(a2):
    g2 = generate_crystal(a2, ym((1, 0, 2)))
    g3 = generate_crystal(a2, ym((1, 0), (1, 2)))
    assert g2.vertices != g3.vertices
    assert g2.canonical_hash() == g3.canonical_hash()


def test_vector_chains():
    for n in range(1, 5):
        g = generate_crystal(DynkinDiagram.type_a(n), Monomial.y(1, q(0)))
        assert len(g.vertices) == n + 1


@pytest.mark.parametrize(
    "kind,rank,weight_coeffs",
    [
        ("A", 2, {1: 1}),
        ("A", 2, {2: 1}),
        ("A", 3, {1: 1}),
        ("A", 3, {2: 1}),
        ("A", 3, {3: 1}),
        ("A", 2, {1: 2}),
        ("A", 3, {1: 2}),
        ("A", 2, {1: 1, 2: 1}),
        ("A", 3, {1: 1, 2: 1}),
        ("D", 4, {2: 1}),
    ],
)
def test_crystal_sizes_match_weyl_dimension(kind, rank, weight_coeffs):
    d = DynkinDiagram.type_a(rank) if kind == "A" else DynkinDiagram.type_d(rank)
    m0 = Monomial.one()
    for i, mult in weight_coeffs.items():
        m0 = m0 * Monomial.y(i, q(i % 2), mult)
    g = generate_crystal(d, m0)
    assert len(g.vertices) == weyl_dimension(d, Weight(weight_coeffs))
    assert verify_crystal_axioms(g) == []


def test_parity_closure(a2, d4):
    import random

    rng = random.Random(17)
    for d in (a2, d4):
        for _ in range(40):
            m0 = Monomial.from_factors(
                [
                    (
                        rng.randint(1, d.rank),
                        q(2 * rng.randint(0, 2) + 1),
                        rng.randint(1, 2),
                    )
                ]
            )
            g = generate_crystal(d, m0)
            coloring = fit_coloring(d, m0)
            for m in g.vertices:
                assert in_parity_set(m, coloring)


def test_generate_rejects_bad_input(a2):
    with pytest.raises(NotLDominantError):
        generate_crystal(a2, ym((1, 0, -1)))


def test_vertex_cap_from_environment(a2, monkeypatch):
    m0 = ym((1, 0), (2, 1))
    monkeypatch.setenv("QCHAR_MAX_TERMS", "3")
    with pytest.raises(CapExceededError, match="3 vertices"):
        generate_crystal(a2, m0)
    for bad in ("abc", "-3", "0"):
        monkeypatch.setenv("QCHAR_MAX_TERMS", bad)
        with pytest.raises(QtcharError, match="QCHAR_MAX_TERMS"):
            generate_crystal(a2, m0)


def test_corrupted_graph_is_reported(a2):
    g = generate_crystal(a2, ym((1, 0), (2, 1)))
    edges = set(g.edges)
    src, dst, i = next(iter(edges))
    edges.remove((src, dst, i))
    edges.add((src, src, i))
    bad = CrystalGraph(a2, g.highest, g.vertices, edges)
    assert verify_crystal_axioms(bad) == [
        f"missing edge {src} -{i}-> {dst}",
        f"edge {src} -{i}-> {src} is not a lowering step",
    ]
    # an extra edge leaves no lowering step missing; only the edge scan sees it
    extra = CrystalGraph(a2, g.highest, g.vertices, g.edges | {(src, src, i)})
    assert verify_crystal_axioms(extra) == [f"edge {src} -{i}-> {src} is not a lowering step"]


def test_violations_at_two_vertices_come_in_vertex_order(a2):
    g = generate_crystal(a2, ym((1, 0), (2, 1)))
    top, other = ym((1, 0), (2, 1)), ym((1, 2, -1), (2, 1, 2))
    cut = {(other, ym((2, 1), (2, 3, -1)), 2), (top, ym((1, 0), (1, 2), (2, 3, -1)), 2)}
    assert cut <= g.edges
    # one wrong edge from a vertex, one from a monomial outside the graph
    wrong = {(ym((1, 0), (1, 4, -1)), top, 1), (ym((1, 0, 5)), top, 1)}
    bad = CrystalGraph(a2, g.highest, g.vertices, (g.edges - cut) | wrong)
    assert verify_crystal_axioms(bad) == [
        "missing edge Y(1,a) Y(2,aq) -2-> Y(1,a) Y(1,aq^2) Y(2,aq^3)^-1",
        "missing edge Y(2,aq)^2 Y(1,aq^2)^-1 -2-> Y(2,aq) Y(2,aq^3)^-1",
        "edge Y(1,a) Y(1,aq^4)^-1 -1-> Y(1,a) Y(2,aq) is not a lowering step",
        "edge Y(1,a)^5 -1-> Y(1,a) Y(2,aq) is not a lowering step",
    ]


def test_each_vertex_check_fires(a2, monkeypatch):
    from qtchar import crystal

    g = generate_crystal(a2, ym((1, 0), (2, 1)))
    # a vertex off the parity set: its lowering step does not raise back
    odd = ym((1, -2), (1, -1, -1))
    extra = CrystalGraph(a2, g.highest, g.vertices | {odd}, g.edges)
    assert verify_crystal_axioms(extra) == [
        "raise(lower) != id at Y(1,aq^-2) Y(1,aq^-1)^-1, direction 1"
    ]
    # one vertex's node-1 statistics corrupted: eps, phi or p_index
    src, target = ym((1, 0), (1, 2), (2, 3, -1)), ym((1, 0), (1, 4, -1))
    real = crystal._vertex_stats
    expected = {
        0: [
            f"eps step wrong at {src}, direction 1",
            f"phi-eps mismatch at {target}, direction 1",
            f"eps step wrong at {target}, direction 1",
        ],
        1: [
            f"phi step wrong at {src}, direction 1",
            f"phi-eps mismatch at {target}, direction 1",
            f"phi step wrong at {target}, direction 1",
        ],
        2: [f"raise(lower) != id at {src}, direction 1"],
    }
    for slot, messages in expected.items():

        def corrupted(m, slot=slot):
            base, stats = real(m)
            if m == target:
                s = list(stats[1])
                s[slot] += 1
                stats[1] = tuple(s)
            return base, stats

        monkeypatch.setattr(crystal, "_vertex_stats", corrupted)
        assert verify_crystal_axioms(g) == messages
    monkeypatch.setattr(crystal, "_vertex_stats", real)
    # a wrong simple root for node 2 breaks every direction-2 weight step
    monkeypatch.setattr(
        crystal, "simple_root", lambda d, i: Weight({1: 2}) if i == 2 else simple_root(d, i)
    )
    assert verify_crystal_axioms(g) == [
        f"weight step wrong at {m}, direction 2"
        for m in (
            ym((1, 0), (2, 1)),
            ym((2, 1), (1, 2, -1), (1, 4, -1)),
            ym((2, 1), (2, 3, -1)),
            ym((2, 1, 2), (1, 2, -1)),
        )
    ]


def test_mixed_base_monomials_are_refused(a2):
    m = ym((1, 0)) * Monomial.y(2, q(1, "b"))
    text = r"^monomial mixes bases \['a', 'b'\]$"
    for stat in (eps, phi, p_index, q_index):
        with pytest.raises(MixedBaseError, match=text):
            stat(m, 1)
    for op in (kashiwara_e, kashiwara_f):
        with pytest.raises(MixedBaseError, match=text):
            op(a2, m, 2)
    with pytest.raises(MixedBaseError, match=text):
        generate_crystal(a2, m)


def test_layer_from_orientation(a2, a3):
    assert layer_from_orientation(a2, [(2, 1)]) == {1: 0, 2: 1}
    assert layer_from_orientation(a2, [(1, 2)]) == {1: 1, 2: 0}
    assert layer_from_orientation(a3, [(3, 2), (2, 1)]) == {1: 0, 2: 1, 3: 2}
    # two sinks at different depths still get unit drops along every edge
    assert layer_from_orientation(a3, [(2, 1), (2, 3)]) == {1: 0, 2: 1, 3: 0}
    with pytest.raises(Exception):
        layer_from_orientation(a2, [(1, 2), (2, 1)])
    with pytest.raises(QtcharError, match="^orientation must cover exactly the diagram edges$"):
        layer_from_orientation(a3, [(2, 1)])
