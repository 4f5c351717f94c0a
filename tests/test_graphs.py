"""The fingerprint edge search and the one-scan crystal statistics against
their definitions: an all-pairs gamma_graph oracle and the partial sums
eps_n/phi_n."""

from typing import Dict

from hypothesis import example, given, settings, strategies as st

from qtchar.crystal import _vertex_stats, eps, p_index, phi, q_index
from qtchar.engine import GammaGraph, gamma_graph, standard_character
from qtchar.laurent import ONE, IntLaurent
from qtchar.rootdata import DynkinDiagram
from qtchar.yalgebra import _HASH_MOD, Character, DrinfeldData, Monomial, Spectral, a_monomial

from conftest import eps_n, phi_n, q

DIAGRAMS = (DynkinDiagram.type_a(2), DynkinDiagram.type_a(3), DynkinDiagram.type_d(4))


def all_pairs_gamma_graph(chi: Character) -> GammaGraph:
    """Multiply every vertex by every candidate A(i,a)^-1 and look it up."""
    d = chi.diagram
    support = set(chi._t)
    qexps: Dict[str, set] = {}
    for m in support:
        for (_, a), _ in m.items():
            qexps.setdefault(a.base, set()).add(a.qexp)
    edges = []
    for m1 in support:
        for base, ks in qexps.items():
            for s in range(min(ks) - 1, max(ks) + 2):
                a = Spectral(base, s)
                for i in d.nodes:
                    m2 = m1 * a_monomial(d, i, a).inv()
                    if m2 in support:
                        edges.append((m1, m2, i, a))
    return GammaGraph({m: chi.coeff(m) for m in support}, edges)


@st.composite
def characters(draw):
    """Arbitrary supports on two bases, grown partly by root-monomial drops
    so that edges occur; the unit and singleton supports are included."""
    d = draw(st.sampled_from(DIAGRAMS))
    factor = st.tuples(
        st.sampled_from(d.nodes), st.sampled_from("ab"), st.integers(-3, 3), st.integers(-2, 2)
    )
    seeds = draw(
        st.lists(st.lists(factor, max_size=4), min_size=1, max_size=4)
    )
    support = [
        Monomial.from_factors((i, Spectral(b, s), e) for i, b, s, e in fs) for fs in seeds
    ]
    drops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 40),
                st.sampled_from(d.nodes),
                st.sampled_from("ab"),
                st.integers(-4, 4),
            ),
            max_size=30,
        )
    )
    for k, i, b, s in drops:
        support.append(support[k % len(support)] * a_monomial(d, i, Spectral(b, s)).inv())
    coeff = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=2)
    terms = {m: IntLaurent(draw(coeff)) or ONE for m in support}
    return Character(d, terms)


@settings(max_examples=150, deadline=None)
@given(characters())
@example(Character.unit(DIAGRAMS[0]))
@example(Character(DIAGRAMS[0], {Monomial.y(2, q(1), -1): ONE}))
# two interaction classes on one base
@example(standard_character(DIAGRAMS[1], DrinfeldData([(1, q(0)), (1, q(1))])))
# a product of two bases
@example(standard_character(DIAGRAMS[1], DrinfeldData([(2, q(0)), (1, q(1, "b"))])))
# A(1,a) has its keys (1,aq^-1) and (1,aq) in the support but not (2,a)
@example(Character(DIAGRAMS[0], {
    Monomial.from_factors([(1, q(-1), 1), (1, q(1), 1), (2, q(2), 1)]): ONE,
    Monomial.from_factors([(1, q(-1), 1), (1, q(1), 1), (1, q(3), 1), (2, q(4), -1)]): ONE,
}))
def test_gamma_graph_matches_all_pairs_oracle(chi):
    g, ref = gamma_graph(chi), all_pairs_gamma_graph(chi)
    assert g.edges == ref.edges
    assert g.vertices == ref.vertices
    assert g.to_dot() == ref.to_dot()


def test_gamma_graph_d5_pinned_edge_count(d5):
    # the all-pairs oracle finds the same 5888 edges (about a second)
    chi = standard_character(d5, DrinfeldData([(2, q(0)), (2, q(2))]))
    g = gamma_graph(chi)
    assert len(g.vertices) == 1715
    assert len(g.edges) == 5888
    top = Monomial.y(2, q(0)) * Monomial.y(2, q(2))
    assert {m2 for _, m2, _, _ in g.edges} == set(g.vertices) - {top}
    for m1, m2, i, a in g.edges:
        assert m2 == m1 * a_monomial(d5, i, a).inv()


def partial_sum_stats(m: Monomial, i: int):
    """(eps, phi, p_index, q_index) at node i by maximizing eps_n/phi_n."""
    ks = [a.qexp for (node, a) in m._e if node == i] or [0]
    ns = range(min(ks) - 1, max(ks) + 2)
    e = max(eps_n(m, i, n) for n in ns)
    f = max(phi_n(m, i, n) for n in ns)
    p = max(n for n in ns if eps_n(m, i, n) == e) if e else None
    qn = min(n for n in ns if phi_n(m, i, n) == f) if f else None
    return e, f, p, qn


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=8),
    st.dictionaries(st.tuples(st.integers(1, 3), st.integers(-4, 4)), st.integers(-3, 3)),
)
def test_line_statistics_match_partial_sums(i, line, others):
    exps = {(node, q(s)): e for (node, s), e in others.items() if node != i}
    exps.update({(i, q(s)): e for s, e in line.items()})
    m = Monomial(exps)
    base, stats = _vertex_stats(m)
    assert base == (None if m.is_unit() else "a")
    for j in (1, 2, 3):  # every node of m at once, and the absent ones
        want = partial_sum_stats(m, j)
        assert stats.get(j, (0, 0, None, None)) == want
        assert (eps(m, j), phi(m, j), p_index(m, j), q_index(m, j)) == want


def test_gamma_graph_finds_pairs_whose_hash_difference_wraps(a2):
    # m2 = m1 * A(1,aq)^-1; the search looks m2 up at h1 - hash(A(1,aq)).
    # Hashes are seed-dependent, so the pair is rebuilt on fixed hashes:
    # h1 just below the drop's hash makes the difference -1, whose reduction
    # is _HASH_MOD - 1, and h1 above it leaves the difference as it is
    hs = a_monomial(a2, 1, q(1))._hash
    e1 = dict(Monomial.y(1, q(0))._e)
    e2 = dict((Monomial.y(1, q(0)) * a_monomial(a2, 1, q(1)).inv())._e)
    for h1 in (hs - 1, hs, hs + 5):
        m1 = Monomial._raw(dict(e1), h1)
        m2 = Monomial._raw(dict(e2), h1 - hs)
        g = gamma_graph(Character(a2, {m1: ONE, m2: ONE}))
        assert g.edges == {(m1, m2, 1, q(1))}
    assert Monomial._raw(dict(e2), -1)._hash == _HASH_MOD - 1
