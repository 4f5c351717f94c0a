"""Acceptance suite: one test per criterion, each printing a PASS line.

Cross-validates the inductive engine against the closed tableaux sums and
the crystal realization on the worked examples, with stated time budgets.
"""

import time
from itertools import combinations_with_replacement

from qtchar.crystal import generate_crystal, layer_from_orientation, verify_crystal_axioms
from qtchar.cli import d_columns_via_pairing
from qtchar.engine import (
    FundamentalSpec,
    check_zcondition,
    fundamental_character,
    gamma_graph,
    standard_character,
    twisted_product,
)
from qtchar.laurent import ONE, IntLaurent
from qtchar.rootdata import DynkinDiagram, Weight, weyl_dimension
from qtchar.tableaux_a import (
    d_columns,
    enumerate_fundamental_columns as columns_a,
    fundamental_char_tableaux as fundamental_tableaux_a,
    standard_char_tableaux as standard_tableaux_a,
)
from qtchar.tableaux_d import (
    closed_u,
    closed_u_spin,
    column_monomial,
    column_top,
    drop_family,
    enumerate_fundamental_columns as columns_d,
    enumerate_spin,
    fundamental_char_tableaux as fundamental_tableaux_d,
    restricted_character,
    spin_char,
    standard_char_tableaux as standard_tableaux_d,
)
from qtchar.yalgebra import (
    Character,
    DrinfeldData,
    Monomial,
    Spectral,
    e_decompose,
    e_expansion,
    forget_spectral,
    leq,
    specialize_t,
    v_profile,
)

from conftest import q, ym
from test_crystal import CRYSTAL_ONE, CRYSTAL_THREE, CRYSTAL_TWO
from test_engine import GAMMA_ONE_EDGES, GAMMA_ONE_EXTRA

ONE_PLUS_T2 = IntLaurent({0: 1, 2: 1})


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, number, message):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"criterion {number} took {elapsed:.2f}s"
        print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {message}")


def test_criterion_01_first_product_graph(a2):
    budget = Budget(1.0)
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (2, q(1))]))
    assert len(chi) == 8
    twisted = ym((2, 1), (2, 3, -1))
    assert chi.coeff(twisted) == ONE_PLUS_T2
    assert all(c == ONE for m, c in chi.items() if m != twisted)
    assert sum(specialize_t(chi, 1).values()) == 9
    g = gamma_graph(chi)
    reference = {(ym(*s), ym(*t), i, q(k)) for s, t, i, k in GAMMA_ONE_EDGES}
    extra = {(ym(*s), ym(*t), i, q(k)) for s, t, i, k in GAMMA_ONE_EXTRA}
    assert reference <= g.edges
    assert g.edges == reference | extra
    budget.done(
        1,
        "first worked product reproduced; all 9 reference arrows present, "
        "1 further arrow forced by the edge rule",
    )


def test_criterion_02_twisted_square(a2):
    budget = Budget(1.0)
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (1, q(0))]))
    assert len(chi) == 6
    coeffs = sorted(str(c) for _, c in chi.items())
    assert coeffs == sorted(["1", "1", "1", "1 + t^2", "1 + t^2", "1 + t^2"])
    expected = {
        ym((1, 0, 2)): ONE,
        ym((1, 0), (1, 2, -1), (2, 1)): ONE_PLUS_T2,
        ym((1, 2, -2), (2, 1, 2)): ONE,
        ym((1, 0), (2, 3, -1)): ONE_PLUS_T2,
        ym((1, 2, -1), (2, 1), (2, 3, -1)): ONE_PLUS_T2,
        ym((2, 3, -2)): ONE,
    }
    assert chi == Character(a2, expected)
    assert sum(specialize_t(chi, 1).values()) == 9
    budget.done(2, "repeated-root square has the expected six coefficients")


GAMMA_THREE_REFERENCE = [
    (((1, 0), (1, 2)), ((2, 1),), 1, 1),
    (((2, 1),), ((1, 2), (2, 3, -1)), 2, 2),
    (((1, 0), (1, 2)), ((1, 0), (1, 4, -1), (2, 3)), 1, 3),
    (((1, 2), (2, 3, -1)), ((1, 4, -1),), 1, 3),
    (((1, 0), (1, 4, -1), (2, 3)), ((1, 2, -1), (1, 4, -1), (2, 1), (2, 3)), 1, 1),
    (((1, 2, -1), (1, 4, -1), (2, 1), (2, 3)), ((1, 4, -1),), 2, 2),
    (((1, 0), (1, 4, -1), (2, 3)), ((1, 0), (2, 5, -1)), 2, 4),
    (((1, 2, -1), (1, 4, -1), (2, 1), (2, 3)), ((1, 2, -1), (2, 1), (2, 5, -1)), 2, 4),
    (((1, 0), (2, 5, -1)), ((1, 2, -1), (2, 1), (2, 5, -1)), 1, 1),
    (((1, 2, -1), (2, 1), (2, 5, -1)), ((2, 3, -1), (2, 5, -1)), 2, 2),
]

GAMMA_THREE_EXTRA = [
    (((2, 1),), ((1, 2, -1), (1, 4, -1), (2, 1), (2, 3)), 1, 3),
    (((1, 4, -1),), ((2, 3, -1), (2, 5, -1)), 2, 4),
]


def test_criterion_03_separated_square(a2):
    budget = Budget(1.0)
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (1, q(2))]))
    assert len(chi) == 9
    assert all(c == ONE for _, c in chi.items())
    g = gamma_graph(chi)
    reference = {(ym(*s), ym(*t), i, q(k)) for s, t, i, k in GAMMA_THREE_REFERENCE}
    extra = {(ym(*s), ym(*t), i, q(k)) for s, t, i, k in GAMMA_THREE_EXTRA}
    assert reference <= g.edges
    assert g.edges == reference | extra
    budget.done(
        3,
        "separated square is the coefficient-free 3x3 grid; 10 reference plus "
        "2 rule-forced arrows",
    )


def test_criterion_04_d4_figure(d4):
    budget = Budget(5.0)
    engine = fundamental_character(d4, FundamentalSpec(2, q(-1)))
    tableaux = fundamental_tableaux_d(d4, 2, q(-1))
    assert engine == tableaux
    assert len(engine) == 28
    shared = ym((2, 1), (2, 3, -1))
    assert engine.coeff(shared) == ONE_PLUS_T2
    assert all(c == ONE for m, c in engine.items() if m != shared)
    assert sum(specialize_t(engine, 1).values()) == 29
    budget.done(4, "rank-4 fork fundamental: 28 monomials, one doubled node, total 29")


def test_criterion_05_type_a_differential():
    budget = Budget(120.0)
    for n in range(1, 5):
        d = DynkinDiagram.type_a(n)
        for N in range(1, n + 1):
            f = FundamentalSpec(N, q(0))
            assert fundamental_tableaux_a(d, N, q(0)) == fundamental_character(d, f)
    products = 0
    for n in (2, 3):
        d = DynkinDiagram.type_a(n)
        specs = [FundamentalSpec(N, q(k)) for N in range(1, n + 1) for k in range(4)]
        cache = {f: fundamental_character(d, f) for f in specs}
        for f1, f2 in combinations_with_replacement(specs, 2):
            p = DrinfeldData([(f1.node, f1.spectral), (f2.node, f2.spectral)])
            expected = standard_tableaux_a(d, p)
            for first, second in ((f1, f2), (f2, f1)):
                if not check_zcondition(
                    DrinfeldData([(first.node, first.spectral)]),
                    DrinfeldData([(second.node, second.spectral)]),
                ):
                    continue
                got = twisted_product(
                    cache[first], first.top, cache[second], second.top, d
                )
                assert got == expected, (first, second)
                products += 1
    assert products >= 114
    budget.done(5, f"type A tableaux equal the engine on {products} ordered products")


def test_criterion_06_type_d_differential():
    budget = Budget(300.0)
    for n in (4, 5):
        d = DynkinDiagram.type_d(n)
        for N in range(1, n - 1):
            assert fundamental_tableaux_d(d, N, q(0)) == fundamental_character(
                d, FundamentalSpec(N, q(0))
            )
        assert spin_char(d, q(0), "+") == fundamental_character(
            d, FundamentalSpec(n, q(0))
        )
        assert spin_char(d, q(0), "-") == fundamental_character(
            d, FundamentalSpec(n - 1, q(0))
        )
    d4 = DynkinDiagram.type_d(4)
    cases = [
        [(1, 0), (1, 2)],
        [(2, 0), (2, 2)],
        [(1, 0), (2, 1)],
        [(1, 0), (4, 1)],  # mixed spin and vector
        [(4, 0), (3, 1)],
    ]
    for roots in cases:
        p = DrinfeldData([(node, q(k)) for node, k in roots])
        assert standard_tableaux_d(d4, p) == standard_character(d4, p), roots
    budget.done(6, "type D tableaux equal the engine on ranks 4 and 5, spins included")


def test_criterion_07_axiom_suite():
    budget = Budget(120.0)
    instances = 0
    produced = []
    for n in range(1, 5):
        d = DynkinDiagram.type_a(n)
        for N in range(1, n + 1):
            f = FundamentalSpec(N, q(0))
            produced.append((d, fundamental_character(d, f), f.top, True))
    for n in (4, 5):
        d = DynkinDiagram.type_d(n)
        for N in range(1, n + 1):
            f = FundamentalSpec(N, q(0))
            produced.append((d, fundamental_character(d, f), f.top, True))
    for n, ks in ((2, range(4)), (3, range(4)), (4, range(2))):
        d = DynkinDiagram.type_a(n)
        for k in ks:
            for N2 in range(1, n + 1):
                p = DrinfeldData([(1, q(0)), (N2, q(k))])
                top = ym((1, 0)) * Monomial.y(N2, q(k))
                produced.append((d, standard_character(d, p), top, False))
    d4 = DynkinDiagram.type_d(4)
    for roots in (
        [(1, 0), (1, 2)],
        [(4, 0), (4, 2)],
        [(2, 0), (4, 1)],
        [(3, 0), (4, 1)],
    ):
        p = DrinfeldData([(node, q(k)) for node, k in roots])
        top = Monomial.one()
        for node, k in roots:
            top = top * Monomial.y(node, q(k))
        produced.append((d4, standard_character(d4, p), top, False))

    for d, chi, top, is_fundamental in produced:
        instances += 1
        assert chi.coeff(top) == ONE
        for m in chi.support():
            assert leq(d, m, top)
            if m != top:
                assert not (m == top)
        if is_fundamental:
            assert [m for m in chi.support() if m.is_l_dominant()] == [top]
        for i in d.nodes:
            blocks = e_decompose(d, chi, i)
            rebuilt = Character(d, {})
            for m, c in blocks:
                assert m.is_i_dominant(i)
                rebuilt = rebuilt + e_expansion(d, m, i).scaled(c)
            assert rebuilt == chi
    assert instances >= 50
    budget.done(7, f"{instances} characters decompose in every direction")


def test_criterion_08_crystal_suite(a2, a3, d4):
    budget = Budget(30.0)
    for golden in (CRYSTAL_ONE, CRYSTAL_TWO, CRYSTAL_THREE):
        g = generate_crystal(a2, ym(*golden["highest"]))
        expected_edges = {(ym(*s), ym(*t), i) for s, t, i in golden["edges"]}
        expected_vertices = {m for e in expected_edges for m in (e[0], e[1])}
        assert g.vertices == expected_vertices
        assert g.edges == expected_edges
        assert verify_crystal_axioms(g) == []
    checks = []
    for d in (a2, a3):
        for i in d.nodes:
            checks.append((d, Monomial.y(i, q(i % 2)), Weight.fundamental(i)))
        checks.append((d, Monomial.y(1, q(1), 2), Weight({1: 2})))
        checks.append((d, ym((1, 0), (2, 1)), Weight({1: 1, 2: 1})))
    checks.append((d4, Monomial.y(2, q(1)), Weight.fundamental(2)))
    for d, m0, wt in checks:
        g = generate_crystal(d, m0)
        assert len(g.vertices) == weyl_dimension(d, wt)
        assert verify_crystal_axioms(g) == []
    budget.done(8, f"worked crystals exact; {len(checks)} cardinalities match")


def test_criterion_09_vertex_sets_from_orientations(a2):
    budget = Budget(30.0)
    layers = layer_from_orientation(a2, [(2, 1)])
    p1 = DrinfeldData([(1, q(layers[1])), (2, q(layers[2]))])
    chi1 = standard_character(a2, p1)
    g1 = generate_crystal(a2, ym((1, layers[1]), (2, layers[2])))
    assert set(chi1.support()) == g1.vertices

    p2 = DrinfeldData([(1, q(0)), (1, q(0))])
    chi2 = standard_character(a2, p2)
    g2 = generate_crystal(a2, ym((1, 0, 2)))
    assert set(chi2.support()) == g2.vertices
    budget.done(9, "orientation-built module supports equal their crystals")


def test_criterion_10_closed_forms():
    budget = Budget(120.0)
    pairs = 0
    for n in (2, 3):
        d = DynkinDiagram.type_a(n)
        cols = []
        for N in range(1, n + 1):
            for k in range(-4, 5):
                cols += columns_a(n, N, q(k))
        for x in cols:
            for y in cols:
                assert d_columns(x, y) == d_columns_via_pairing(d, x, y)
                pairs += 1
    checked = 0
    for n in (4, 5):
        d = DynkinDiagram.type_d(n)
        for N in range(1, n - 1):
            for col in columns_d(n, N, q(0)):
                m = column_monomial(n, col)
                assert drop_family(n, col) == v_profile(d, m, ym((N, 0)))
                for i in d.nodes:
                    for s in range(-2, 2 * n + 3):
                        assert closed_u(n, col, i, s) == m.u(i, q(s))
                        checked += 1
        for chirality in "+-":
            for col in enumerate_spin(n, q(0), chirality):
                m = column_monomial(n, col)
                assert drop_family(n, col) == v_profile(d, m, column_top(n, col))
                for i in d.nodes:
                    for s in range(-2, 2 * n + 3):
                        assert closed_u_spin(n, col, i, s) == m.u(i, q(s))
                        checked += 1
    budget.done(
        10, f"closed forms exact on {pairs} column pairs and {checked} exponent slots"
    )


def test_criterion_11_restriction(d4):
    budget = Budget(30.0)
    table = restricted_character(4, 2)
    assert sum(table.values()) == 28
    full = fundamental_tableaux_d(d4, 2, q(0))
    collapsed = {k: c.eval_at(1) for k, c in forget_spectral(full).items()}
    residual = {}
    for k, c in collapsed.items():
        delta = c - table.get(k, 0)
        if delta:
            residual[k] = delta
    assert residual == {(): 1}
    budget.done(11, "restriction drops one column and leaves the trivial module")
