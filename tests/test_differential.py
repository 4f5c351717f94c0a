"""The engine against itself and against the tableaux sums on generated
factor lists: standard_character, the left fold of twisted_product over the
admissibly ordered roots, and standard_char_tableaux must agree, and so must
the plain product of the interaction classes' characters.  The t = 1 totals
and the classes' support sizes multiply; in type A the totals are products of
Weyl dimensions.  Characters survive the JSON round trip.  The drop profiles
the closure carries must be the solved ones.  Both routes' characters satisfy
the paper's axiom: in every direction they split into rank-one blocks with
coefficients in Z[t^2, t^-2]."""

import json
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from qtchar import tableaux_a, tableaux_d
from qtchar.cli import parse_factors
from qtchar.engine import (
    _fundamental_terms,
    fundamental_character,
    standard_character,
    twisted_product,
)
from qtchar.laurent import IntLaurent
from qtchar.rootdata import DynkinDiagram
from qtchar.yalgebra import (
    Character,
    DrinfeldData,
    FundamentalSpec,
    Monomial,
    Spectral,
    character_from_json,
    character_to_json,
    drop_degree,
    e_decompose,
    specialize_t,
    v_profile,
)

DIAGRAMS = (
    DynkinDiagram.type_a(2),
    DynkinDiagram.type_a(3),
    DynkinDiagram.type_a(4),
    DynkinDiagram.type_a(5),
    DynkinDiagram.type_d(4),
    DynkinDiagram.type_d(5),
    DynkinDiagram.type_d(6),
)
# the most tableaux (the product of the factors' pool sizes) one example sums
BUDGET = 2000


def pool_size(d: DynkinDiagram, node: int) -> int:
    """Number of columns of the fundamental at node: its dimension."""
    n = d.rank
    if d.kind == "A":
        return comb(n + 1, node)
    if node >= n - 1:
        return 2 ** (n - 1)
    return sum(comb(2 * n, k) for k in range(node, -1, -2))


@st.composite
def factor_lists(draw):
    d = draw(st.sampled_from(DIAGRAMS))
    roots = []
    for _ in range(draw(st.integers(1, 4))):
        size = prod(pool_size(d, node) for node, _ in roots)
        nodes = [i for i in d.nodes if size * pool_size(d, i) <= BUDGET]
        if not nodes:
            break
        node = draw(st.sampled_from(nodes))
        roots.append((node, Spectral(draw(st.sampled_from("ab")), draw(st.integers(-4, 4)))))
    return d, DrinfeldData(roots)


def weyl_dimension_a(n: int, node: int) -> int:
    """Weyl's product formula for the A_n fundamental weight omega_node, the
    partition (1^node): prod over i < j of (l_i - l_j + j - i) / (j - i)."""
    part = [1] * node + [0] * (n + 1 - node)
    num = prod(part[i] - part[j] + j - i for i in range(n + 1) for j in range(i + 1, n + 1))
    den = prod(j - i for i in range(n + 1) for j in range(i + 1, n + 1))
    return num // den


def test_pool_sizes_are_the_fundamental_dimensions():
    for d in DIAGRAMS:
        for i in d.nodes:
            chi = fundamental_character(d, FundamentalSpec(i, Spectral("a", 0)))
            assert sum(specialize_t(chi, 1).values()) == pool_size(d, i)
            # type A fundamental modules stay irreducible under the finite algebra
            if d.kind == "A":
                assert pool_size(d, i) == weyl_dimension_a(d.rank, i)


def twisted_fold(d: DynkinDiagram, p: DrinfeldData) -> Character:
    """The left fold of the certified twisted_product over p's ordered roots."""
    first = p.roots[0]
    fold, mp = fundamental_character(d, first), first.top
    for f in p.roots[1:]:
        fold = twisted_product(fold, mp, fundamental_character(d, f), f.top, d)
        mp = mp * f.top
    return fold


def plain_product(d: DynkinDiagram, chis) -> Character:
    """The product of characters with no twist, through IntLaurent arithmetic."""
    terms = {Monomial.one(): IntLaurent.one()}
    for chi in chis:
        out = {}
        for m1, c1 in terms.items():
            for m2, c2 in chi.items():
                out[m1 * m2] = out.get(m1 * m2, IntLaurent.zero()) + c1 * c2
        terms = out
    return Character(d, terms)


def assert_zero_free(chi: Character) -> None:
    """No stored coefficient is zero, and none stores a zero entry."""
    for m, c in chi._t.items():
        assert c and 0 not in c._c.values(), m


@settings(max_examples=50, deadline=None)
@given(factor_lists())
def test_standard_character_is_the_twisted_fold_and_the_tableaux_sum(case):
    d, p = case
    chi = standard_character(d, p)
    assert chi == twisted_fold(d, p)
    tableaux = tableaux_a if d.kind == "A" else tableaux_d
    assert chi == tableaux.standard_char_tableaux(d, p)
    # at t = 1 the character is the product of its factors' dimensions
    total = sum(specialize_t(chi, 1).values())
    assert total == prod(pool_size(d, f.node) for f in p.roots)
    if d.kind == "A":
        assert total == prod(weyl_dimension_a(d.rank, f.node) for f in p.roots)
    assert character_from_json(d, json.loads(json.dumps(character_to_json(chi)))) == chi


def assert_plain_product_of_classes(d: DynkinDiagram, p: DrinfeldData) -> None:
    """Both routes' standard characters, and the twisted fold, equal the
    naive plain product of the classes' characters: the one class join both
    routes share is checked against code that shares nothing with it."""
    classes = p.classes(d)
    assert sorted(f for cls in classes for f in cls.roots) == sorted(p.roots)
    parts = [standard_character(d, cls) for cls in classes]
    split = plain_product(d, parts)
    chi = standard_character(d, p)
    fold = twisted_fold(d, p)
    tableaux = (tableaux_a if d.kind == "A" else tableaux_d).standard_char_tableaux(d, p)
    assert split == chi == fold == tableaux
    # the classes touch disjoint variables, so no two products of their
    # terms share a monomial
    assert len(chi) == prod(len(part) for part in parts)
    for out in parts + [chi, fold, tableaux]:
        assert_zero_free(out)


@settings(max_examples=40, deadline=None)
@given(factor_lists().filter(lambda case: len(case[1].classes(case[0])) >= 2))
def test_a_standard_character_is_the_plain_product_of_its_classes(case):
    assert_plain_product_of_classes(*case)


# the multi-class products of the benchmark ladder, and one more of three
# classes, with the roots per class
JOINED = (
    (DynkinDiagram.type_d(5), "1:a:0,2:a:1,spin+:a:2", [2, 1]),
    (DynkinDiagram.type_a(4), "1:a:0,2:a:0,2:a:0,1:b:0", [1, 2, 1]),
    (DynkinDiagram.type_d(5), "1:a:0,spin-:a:1,1:b:0", [2, 1]),
    (DynkinDiagram.type_d(5), "1:a:0,1:a:2,1:a:1,1:b:0", [2, 1, 1]),
)


@pytest.mark.parametrize("d, factors, sizes", JOINED, ids=[f for _, f, _ in JOINED])
def test_the_joined_cases_are_the_plain_product_of_their_classes(d, factors, sizes):
    p = DrinfeldData(parse_factors(d, factors))
    assert [len(cls) for cls in p.classes(d)] == sizes
    assert_plain_product_of_classes(d, p)


def test_a_cancelling_signed_product_stores_no_zero():
    # (top + low) times (top - t^2 low) on A1: the two cross terms cancel
    # exactly in this order, and only partly in the other
    d = DynkinDiagram.type_a(1)
    top, low = Monomial.y(1, Spectral("a", 0)), Monomial.y(1, Spectral("a", 2), -1)
    plus = Character(d, {top: IntLaurent.one(), low: IntLaurent.one()})
    minus = Character(d, {top: IntLaurent.one(), low: IntLaurent({2: -1})})
    cancelled = twisted_product(plus, top, minus, top, d)
    assert cancelled == Character(d, {top**2: IntLaurent.one(), low**2: IntLaurent({2: -1})})
    partial = twisted_product(minus, top, plus, top, d)
    assert partial.coeff(top * low) == IntLaurent({0: 1, 4: -1})
    for out in (cancelled, partial):
        assert_zero_free(out)


PROFILE_DIAGRAMS = tuple(DynkinDiagram.type_a(n) for n in range(2, 6)) + tuple(
    DynkinDiagram.type_d(n) for n in range(4, 7)
)


@st.composite
def fundamentals(draw):
    d = draw(st.sampled_from(PROFILE_DIAGRAMS))
    node = draw(st.sampled_from(d.nodes))
    a = Spectral(draw(st.sampled_from("ab")), draw(st.integers(-4, 4)))
    return d, FundamentalSpec(node, a)


@settings(max_examples=60, deadline=None)
@given(fundamentals())
def test_carried_profiles_are_the_solved_profiles(case):
    d, f = case
    terms = _fundamental_terms(d, f)
    assert {m: IntLaurent(c) for m, c, _ in terms} == fundamental_character(d, f)._t
    for m, _, v in terms:
        assert v == v_profile(d, m, f.top)
        assert sum(v.values()) == drop_degree(d, m, f.top)


AXIOM_DIAGRAMS = tuple(DynkinDiagram.type_a(n) for n in range(1, 5)) + (
    DynkinDiagram.type_d(4),
    DynkinDiagram.type_d(5),
)


@st.composite
def small_products(draw):
    d = draw(st.sampled_from(AXIOM_DIAGRAMS))
    roots = []
    for _ in range(draw(st.integers(1, 2))):
        a = Spectral(draw(st.sampled_from("ab")), draw(st.integers(-3, 3)))
        roots.append((draw(st.sampled_from(d.nodes)), a))
    return d, DrinfeldData(roots)


@settings(max_examples=100, deadline=None)
@given(small_products())
def test_both_routes_split_into_blocks_in_every_direction(case):
    """The paper's axiom: in every direction the character is a combination
    of rank-one blocks with coefficients in Z[t^2, t^-2].  A fundamental's
    coefficients lie in N[t^2, t^-2].  At t = 1 the blocks multiply,
    E(m) E(m') = E(m m'), and so do the characters, so a product's
    coefficients are nonnegative there; at generic t they need not be (see
    the next test)."""
    d, p = case
    tableaux = tableaux_a if d.kind == "A" else tableaux_d
    chi = standard_character(d, p)
    # one check serves both routes: their characters are equal
    assert chi == tableaux.standard_char_tableaux(d, p)
    for i in d.nodes:
        blocks = e_decompose(d, chi, i)
        assert blocks
        for _, c in blocks:
            assert all(e % 2 == 0 for e, _ in c.items()), c
            assert c.eval_at(1) >= 0, c
            if len(p) == 1:
                assert all(v > 0 for _, v in c.items()), c


def test_a_product_block_coefficient_can_be_t2_minus_1():
    """D5 Y(1,a) Y(3,a) in direction 1: the block at Y(2,aq) Y(2,aq^7)^-1
    has coefficient t^2 - 1.  It is the rank-one Kirillov-Reshetikhin piece
    E(Y(1,b) Y(1,bq^2)) - E(1) plus a trivial piece t^2 E(1), so it vanishes
    at t = 1; both routes and both product orders give this character."""
    d = DynkinDiagram.type_d(5)
    f1, f3 = FundamentalSpec(1, Spectral("a", 0)), FundamentalSpec(3, Spectral("a", 0))
    chi = standard_character(d, DrinfeldData([f1, f3]))
    assert chi == tableaux_d.standard_char_tableaux(d, DrinfeldData([f1, f3]))
    c1, c3 = fundamental_character(d, f1), fundamental_character(d, f3)
    assert chi == twisted_product(c3, f3.top, c1, f1.top, d)
    head = Monomial.from_factors([(2, Spectral("a", 1), 1), (2, Spectral("a", 7), -1)])
    blocks = dict(e_decompose(d, chi, 1))
    assert blocks[head] == IntLaurent({0: -1, 2: 1})
    assert [c for c in blocks.values() if any(v < 0 for _, v in c.items())] == [blocks[head]]
