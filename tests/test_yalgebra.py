import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qtchar import yalgebra
from qtchar.errors import (
    CapExceededError,
    MixedBaseError,
    NotComparableError,
    NotDecomposableError,
    NotIDominantError,
    NotLDominantError,
    QtcharError,
)
from qtchar.laurent import ONE, IntLaurent
from qtchar.rootdata import DynkinDiagram
from qtchar.yalgebra import (
    Character,
    DrinfeldData,
    Monomial,
    Spectral,
    _height_weights,
    a_monomial,
    character_from_json,
    character_to_json,
    drinfeld_from_monomial,
    drop_degree,
    e_decompose,
    e_expansion,
    forget_spectral,
    is_right_negative,
    leq,
    monomial_from_rational_tuple,
    pairing_d,
    specialize_t,
    v_profile,
)

from conftest import q, ym


def test_monomial_basics():
    m = ym((1, 0), (2, 1))
    assert m.u(1, q(0)) == 1
    assert m.u(2, q(3)) == 0
    assert m * m.inv() == Monomial.one()
    assert (m**2).u(1, q(0)) == 2
    assert str(Monomial.one()) == "1"
    assert Monomial.one().is_unit()


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(1, 4), st.sampled_from("ab"), st.integers(-3, 3)),
        st.integers(-2, 2),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_monomial_identity_ignores_insertion_order(exps, rnd):
    keyed = [((n, Spectral(b, k)), e) for (n, b, k), e in exps.items()]
    shuffled = list(keyed)
    rnd.shuffle(shuffled)
    m = Monomial(dict(keyed))
    for other in (Monomial(dict(shuffled)), Monomial({k: e for k, e in keyed if e})):
        assert m == other and hash(m) == hash(other)
        assert m.items() == other.items()
        assert m.sort_key() == other.sort_key()
        assert str(m) == str(other)


_EXPS = st.dictionaries(
    st.tuples(st.integers(1, 4), st.sampled_from("ab"), st.integers(-3, 3)),
    st.integers(-3, 3),
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(_EXPS, _EXPS, st.integers(-3, 3))
def test_monomial_products_add_their_hashes(a, b, k):
    ea = {(n, Spectral(base, s)): e for (n, base, s), e in a.items()}
    eb = {(n, Spectral(base, s)): e for (n, base, s), e in b.items()}
    ma, mb = Monomial(ea), Monomial(eb)
    mixed = {key: hash(key) ** 2 ^ hash(key) for key in ea}
    assert hash(ma) == sum(e * mixed[key] for key, e in ea.items()) % (2**61 - 1)
    merged = dict(ea)
    for key, e in eb.items():
        merged[key] = merged.get(key, 0) + e
    nonzero = {key: e for key, e in merged.items() if e}
    negated = {key: -e for key, e in ma._e.items()}
    for got, fresh in (
        (ma * mb, Monomial(merged)),
        (ma._patched(mb._e.items(), hash(mb)), Monomial(merged)),
        (ma.inv(), Monomial({key: -e for key, e in ea.items()})),
        (ma**k, Monomial({key: e * k for key, e in ea.items()})),
        # _raw reduces unreduced and negative hash sums itself
        (Monomial._raw(nonzero, hash(ma) + hash(mb)), Monomial(merged)),
        (Monomial._raw(dict(negated), -hash(ma)), Monomial(negated)),
        (Monomial._raw(dict(ma._e), hash(ma) - 3 * (2**61 - 1)), ma),
        (Monomial._family(list(ma._e), [enumerate(ma._e.values())])[0], ma),
    ):
        assert got == fresh and hash(got) == hash(fresh)
        assert 0 <= hash(got) < 2**61 - 1
        assert 0 not in got._e.values()
    for unit in (ma * ma.inv(), ma * mb * ma.inv() * mb.inv(), mb**0):
        assert unit == Monomial.one() and hash(unit) == 0 and unit._e == {}


def test_monomial_hashes_separate_shifted_families():
    # plain sums of tuple hashes gave these 2780-3372 and 31-32 distinct hashes
    a = lambda k: Spectral("a", k)
    # the terms of the A1 standard character at 1:a:0, 1:a:4, ..., 1:a:44
    terms = [Monomial.one()]
    for k in range(0, 45, 4):
        terms = [m * x for m in terms for x in (Monomial.y(1, a(k)), Monomial.y(1, a(k + 2), -1))]
    assert len(set(terms)) == len({hash(m) for m in terms}) == 4096
    trades = [Monomial({(1, a(k)): 1, (2, a(k + 1)): -1}) for k in range(5000)]
    assert len({hash(m) for m in trades}) == 5000


def test_drinfeld_classes_split_by_base_and_parity():
    a4, d5 = DynkinDiagram.type_a(4), DynkinDiagram.type_d(5)
    p = DrinfeldData([(2, q(0)), (1, Spectral("b", 0)), (1, q(0)), (2, q(0)), (3, q(2))])
    assert [cls.roots for cls in p.classes(a4)] == [
        ((1, q(0)), (3, q(2))),
        ((2, q(0)), (2, q(0))),
        ((1, Spectral("b", 0)),),
    ]
    # node 5 (spin+) has the color of node 4, unlike nodes 1 and 3
    p = DrinfeldData([(1, q(0)), (2, q(1)), (5, q(2)), (3, q(2))])
    assert [cls.roots for cls in p.classes(d5)] == [
        ((1, q(0)), (2, q(1)), (3, q(2))),
        ((5, q(2)),),
    ]
    assert DrinfeldData().classes(a4) == []


def test_monomial_canonical_order_and_unit():
    m = Monomial.from_factors(
        [(2, Spectral("b", 0), 1), (1, q(3), -1), (3, q(-1), 2), (1, q(-1), 1)]
    )
    assert [k for k, _ in m.items()] == [
        (1, q(-1)),
        (3, q(-1)),
        (1, q(3)),
        (2, Spectral("b", 0)),
    ]
    cancelled = m * ym((1, 3)) * m.inv() * ym((1, 3, -1))
    assert cancelled == Monomial.one() and hash(cancelled) == hash(Monomial.one())
    assert cancelled.is_unit() and cancelled.items() == ()
    assert Monomial.y(1, q(0)) != Monomial.y(2, q(0))


def test_u_exponent_examples():
    assert ym((1, 0), (2, 1)).u(1, q(0)) == 1
    assert ym((1, 0), (1, 2), (2, 3, -1)).u(2, q(3)) == -1
    assert Monomial.one().u(1, q(5)) == 0


def test_dominance():
    assert ym((1, 0), (2, 1)).is_l_dominant()
    m = ym((1, 2, -1), (2, 1, 2))
    assert not m.is_i_dominant(1)
    assert m.is_i_dominant(2)
    assert Monomial.one().is_l_dominant()


def test_a_monomial_shapes(a2, d4):
    assert a_monomial(a2, 1, q(1)) == ym((1, 0), (1, 2), (2, 1, -1))
    a1 = DynkinDiagram.type_a(1)
    assert a_monomial(a1, 1, q(0)) == ym((1, -1), (1, 1))
    assert a_monomial(d4, 2, q(0)) == ym(
        (2, -1), (2, 1), (1, 0, -1), (3, 0, -1), (4, 0, -1)
    )


def test_v_profile_examples(a2):
    m = ym((1, 2, -1), (2, 1))
    top = ym((1, 0))
    assert v_profile(a2, m, m) == {}
    assert v_profile(a2, m, top) == {(1, q(1)): 1}
    assert v_profile(a2, top, m) is None
    assert leq(a2, m, top)
    assert not leq(a2, top, m)
    assert leq(a2, m, m)


def test_v_profile_cross_base(a2):
    m = ym((1, 0)) * Monomial.y(1, Spectral("b", 2), -1) * Monomial.y(2, Spectral("b", 1))
    top = ym((1, 0)) * Monomial.y(1, Spectral("b", 0))
    prof = v_profile(a2, m, top)
    assert prof == {(1, Spectral("b", 1)): 1}


def test_v_profile_soundness_randomized(a3, d4):
    rng = random.Random(20240)
    for d in (a3, d4):
        for _ in range(5000):
            top = Monomial.y(
                rng.randint(1, d.rank), Spectral("a", rng.randint(-2, 2))
            ) * Monomial.y(rng.randint(1, d.rank), Spectral("a", rng.randint(-2, 2)))
            m = top
            applied = {}
            for _ in range(rng.randint(0, 5)):
                i = rng.randint(1, d.rank)
                a = Spectral("a", rng.randint(-3, 3))
                m = m * a_monomial(d, i, a).inv()
                applied[(i, a)] = applied.get((i, a), 0) + 1
            prof = v_profile(d, m, top)
            assert prof == applied
            assert drop_degree(d, m, top) == sum(applied.values())


def test_height_weights_solve_the_cartan_system():
    diagrams = [DynkinDiagram.type_a(n) for n in range(1, 8)]
    diagrams += [DynkinDiagram.type_d(n) for n in range(4, 9)]
    diagrams.append(DynkinDiagram.general(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]))
    for d in diagrams:
        w = _height_weights(d)
        assert len(w) == d.rank and all(x > 0 for x in w), d
        for i in d.nodes:
            assert sum(d.cartan_entry(i, j) * w[j - 1] for j in d.nodes) == 2, (d, i)


def test_drop_degree_refuses_a_gap_outside_the_root_lattice():
    a1 = DynkinDiagram.type_a(1)
    with pytest.raises(NotComparableError):
        drop_degree(a1, ym((1, 0)), Monomial.one())


def test_v_profile_uniqueness_spot_check(a3):
    # distinct nonnegative drop families yield distinct monomials
    rng = random.Random(7)
    seen = {}
    for _ in range(2000):
        applied = {}
        m = Monomial.one()
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(1, 3)
            a = Spectral("a", rng.randint(-2, 2))
            m = m * a_monomial(a3, i, a).inv()
            applied[(i, a)] = applied.get((i, a), 0) + 1
        key = tuple(sorted(applied.items()))
        if m in seen:
            assert seen[m] == key
        else:
            seen[m] = key


def test_e_expansion_examples(a2):
    top = ym((1, 0))
    chain = e_expansion(a2, top, 1)
    assert chain == Character(a2, {top: ONE, ym((1, 2, -1), (2, 1)): ONE})

    sq = e_expansion(a2, ym((1, 0, 2)), 1)
    assert sq.coeff(ym((1, 0, 2))) == ONE
    assert sq.coeff(ym((1, 0), (1, 2, -1), (2, 1))) == IntLaurent({0: 1, 2: 1})
    assert sq.coeff(ym((1, 2, -2), (2, 1, 2))) == ONE
    assert len(sq) == 3

    assert e_expansion(a2, Monomial.one(), 2) == Character.unit(a2)
    with pytest.raises(NotIDominantError):
        e_expansion(a2, ym((1, 2, -1)), 1)


def test_e_expansion_leading_term(a3):
    rng = random.Random(5)
    for _ in range(100):
        m = Monomial.from_factors(
            (rng.randint(1, 3), q(rng.randint(-2, 2)), rng.randint(0, 2))
            for _ in range(3)
        )
        i = rng.randint(1, 3)
        if not m.is_i_dominant(i):
            continue
        chi = e_expansion(a3, m, i)
        assert chi.coeff(m) == ONE
        for other in chi.support():
            if other != m:
                assert leq(a3, other, m) and other != m


def test_e_decompose_round_trips(a2):
    top = ym((1, 0))
    chi = e_expansion(a2, top, 1)
    assert e_decompose(a2, chi, 1) == [(top, ONE)]

    with pytest.raises(NotDecomposableError):
        e_decompose(a2, Character(a2, {ym((1, 2, -1)): ONE}), 1)
    # Y(1,a) alone is not a block: stripping it leaves its second term behind
    text = r"^maximal monomial Y\(2,aq\) Y\(1,aq\^2\)\^-1 is not 1-dominant$"
    with pytest.raises(NotDecomposableError, match=text):
        e_decompose(a2, Character(a2, {ym((1, 0)): ONE}), 1)

    # random combinations of blocks with incomparable dominant heads
    rng = random.Random(99)
    for _ in range(50):
        heads = []
        chi = Character(a2, {})
        for k in range(rng.randint(1, 3)):
            m = ym((1, 4 * k, rng.randint(1, 2)))
            c = IntLaurent({rng.randint(-2, 2): rng.randint(1, 3)})
            heads.append((m, c))
            chi = chi + e_expansion(a2, m, 1).scaled(c)
        got = e_decompose(a2, chi, 1)
        assert sorted(got, key=lambda mc: mc[0].sort_key()) == sorted(
            heads, key=lambda mc: mc[0].sort_key()
        )


def test_e_decompose_block_cap(a2, monkeypatch):
    heads = [ym((1, 0)), ym((1, 4))]
    chi = e_expansion(a2, heads[0], 1) + e_expansion(a2, heads[1], 1)
    monkeypatch.setenv("QCHAR_MAX_TERMS", "1")
    with pytest.raises(CapExceededError) as info:
        e_decompose(a2, chi, 1)
    assert str(info.value) == "block extraction exceeded 1 blocks"
    monkeypatch.setenv("QCHAR_MAX_TERMS", "2")
    assert dict(e_decompose(a2, chi, 1)) == {heads[0]: ONE, heads[1]: ONE}


def test_pairing_examples(a2):
    top = ym((1, 0))
    m = ym((1, 2, -1), (2, 1))
    assert pairing_d(a2, top, top, top, top) == 0
    assert pairing_d(a2, m, top, top, top) == 1
    assert pairing_d(a2, top, top, m, top) == 0
    with pytest.raises(NotComparableError):
        pairing_d(a2, top, m, top, top)
    text = r"^Y\(1,a\) is not below Y\(2,aq\) Y\(1,aq\^2\)\^-1$"
    with pytest.raises(NotComparableError, match=text):  # the right term
        pairing_d(a2, top, top, top, m)


def test_pairing_second_term_depends_only_on_u_and_v(a2):
    # d(top1, top1; m2, top2) = sum over v2 of u(top1 at shifted spot) * v2
    top1 = ym((1, 0))
    top2 = ym((1, 0))
    m2 = ym((1, 2, -1), (2, 1))
    v2 = v_profile(a2, m2, top2)
    expected = sum(top1.u(i, a.shift(1)) * v for (i, a), v in v2.items())
    assert pairing_d(a2, top1, top1, m2, top2) == expected


def test_drinfeld_round_trip():
    dd = DrinfeldData([(1, q(0)), (2, q(1))])
    m = monomial_from_rational_tuple(dd, DrinfeldData())
    assert m == ym((1, 0), (2, 1))
    assert drinfeld_from_monomial(m) == dd

    doubled = drinfeld_from_monomial(ym((1, 0, 2)))
    assert doubled.roots == ((1, q(0)), (1, q(0)))

    ratio = monomial_from_rational_tuple(
        DrinfeldData([(1, q(0))]), DrinfeldData([(2, q(1))])
    )
    assert ratio == ym((1, 0), (2, 1, -1))
    with pytest.raises(NotLDominantError):
        drinfeld_from_monomial(ym((1, 0, -1)))


def test_right_negative():
    assert is_right_negative(ym((1, 2, -1), (2, 1)))
    assert not is_right_negative(ym((1, 0)))
    assert not is_right_negative(Monomial.one())
    with pytest.raises(MixedBaseError):
        is_right_negative(ym((1, 0)) * Monomial.y(1, Spectral("b", 0)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_right_negative_multiplicative(data):
    def mono(draw):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(-2, 2)),
                min_size=1,
                max_size=4,
            )
        )
        return Monomial.from_factors((n, q(k), e) for n, k, e in pairs)

    m1, m2 = mono(data.draw), mono(data.draw)
    if is_right_negative(m1) and is_right_negative(m2):
        assert is_right_negative(m1 * m2)


def test_dominant_is_never_right_negative():
    rng = random.Random(3)
    for _ in range(200):
        m = Monomial.from_factors(
            (rng.randint(1, 4), q(rng.randint(-3, 3)), rng.randint(0, 2))
            for _ in range(3)
        )
        if m.is_l_dominant() and not m.is_unit():
            assert not is_right_negative(m)


def test_specialize_and_forget(a2):
    from qtchar.engine import standard_character

    chi = standard_character(a2, DrinfeldData([(1, q(0)), (2, q(1))]))
    assert sum(specialize_t(chi, 1).values()) == 9
    assert specialize_t(Character(a2, {}), 1) == {}

    from qtchar.engine import FundamentalSpec, fundamental_character

    vec = fundamental_character(a2, FundamentalSpec(1, q(0)))
    collapsed = forget_spectral(vec)
    assert collapsed == {
        ((1, 1),): ONE,
        ((1, -1), (2, 1)): ONE,
        ((2, -1),): ONE,
    }


def test_character_json_round_trip(a2):
    from qtchar.engine import fundamental_character, FundamentalSpec

    chi = fundamental_character(a2, FundamentalSpec(1, q(0)))
    chi = chi.scaled(IntLaurent({-1: 2, 3: -1}))
    data = json.loads(json.dumps(character_to_json(chi)))
    assert character_from_json(a2, data) == chi


def test_nodes_outside_the_diagram_are_refused(a2):
    # JSON comes from outside the program, and the height weights of
    # e_decompose and drop_degree are indexed by node - 1, so node 0 would
    # read the last one
    for node in (0, a2.rank + 1):
        data = [{"monomial": [{"node": node, "base": "a", "qexp": 0, "exp": 1}],
                 "coeff": [{"texp": 0, "c": 1}]}]
        with pytest.raises(QtcharError, match=f"^unknown node {node}$"):
            character_from_json(a2, data)
        with pytest.raises(QtcharError, match=f"^unknown node {node}$"):
            e_decompose(a2, e_expansion(a2, ym((1, 0)), 1), node)
        # unchecked, e_expansion gives the one-term block (1) Y(1,a)
        with pytest.raises(QtcharError, match=f"^unknown node {node}$"):
            e_expansion(a2, ym((1, 0)), node)
        for m, mp in ((ym((node, 0)), ym((1, 0))), (ym((1, 0)), ym((node, 0)))):
            with pytest.raises(QtcharError, match=f"^unknown node {node}$"):
                drop_degree(a2, m, mp)


def test_character_canonical_order(a2):
    chi = Character(
        a2,
        {
            ym((2, 1)): ONE,
            ym((1, 0)): ONE,
            Monomial.y(1, Spectral("b", 0)): ONE,
        },
    )
    keys = [m.sort_key() for m in chi.support()]
    assert keys == sorted(keys)


def test_character_arithmetic_needs_one_diagram(a2, d5):
    chi_a, chi_d = Character.unit(a2), Character.unit(d5)
    assert chi_d + chi_d == Character(d5, {Monomial.one(): IntLaurent({0: 2})})
    assert not chi_a - chi_a
    assert chi_a != chi_d
    for combine in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(QtcharError, match="arithmetic across"):
            combine(chi_d, chi_a)


def test_from_raw_shares_equal_coefficients(a2):
    raw = {
        ym((1, 0)): {0: 1},
        ym((2, 0)): {0: 1},
        ym((1, 2)): {0: 1, 2: 1},
        ym((2, 2)): {0: 1, 2: 1},
        ym((1, 4)): {2: 0},
        ym((2, 4)): {0: 1, 2: 0},
    }
    expected = Character(a2, {m: IntLaurent(c) for m, c in raw.items()})
    chi = Character._from_raw(a2, {m: dict(c) for m, c in raw.items()})
    assert chi == expected
    # a map that cancels to zero is dropped, and a zero entry is filtered
    assert ym((1, 4)) not in chi and 0 not in chi.coeff(ym((2, 4)))._c.values()
    # one IntLaurent per distinct map
    c = chi._t
    assert c[ym((1, 0))] is c[ym((2, 0))] and c[ym((1, 2))] is c[ym((2, 2))]
    assert c[ym((1, 0))] is not c[ym((1, 2))]
    assert len({id(v) for v in c.values()}) == 3


def test_times_multiplies_each_distinct_coefficient_pair_once():
    up, down, one = IntLaurent({0: 1, 1: 1}), IntLaurent({0: 1, 1: -1}), IntLaurent({0: 1})
    left = {ym((1, 0)): up, ym((1, 2)): up, ym((2, 4)): one}
    right = {Monomial.y(1, q(0, "b")): down, Monomial.y(2, q(3, "b")): down}
    out = yalgebra._times(left, right)
    expected = {m1 * m2: c1 * c2 for m1, c1 in left.items() for m2, c2 in right.items()}
    assert out == expected and all(hash(m) == hash(Monomial(m._e)) for m in out)
    # (1 + t)(1 - t) = 1 - t^2: the cancelled t^1 is dropped, not kept as 0
    products = [out[m1 * m2] for m1 in list(left)[:2] for m2 in right]
    assert products[0]._c == {0: 1, 2: -1} and 1 not in products[0]._c
    # the four term pairs that carry (up, down) share one product, and the
    # pair (one, down) has its own
    assert all(c is products[0] for c in products)
    assert out[ym((2, 4)) * Monomial.y(1, q(0, "b"))] is not products[0]
    assert yalgebra._times(left, {}) == {} == yalgebra._times({}, right)


def test_templates_keep_their_row_budget_least_recently_used_first():
    budget = yalgebra._TEMPLATE_ROWS
    store = yalgebra._Templates()

    def template(rows):
        return (None, None, range(rows))

    for key, rows in (("a", budget // 2), ("b", budget // 4), ("c", budget // 4)):
        store.keep(key, template(rows))
    assert list(store) == ["a", "b", "c"]
    # a hit makes its template the most recently used; a miss changes nothing
    assert len(store.take("a")[2]) == budget // 2 and list(store) == ["b", "c", "a"]
    assert store.take("z") is None and list(store) == ["b", "c", "a"]
    # one row past the budget evicts the least recently used template
    store.keep("d", template(1))
    assert list(store) == ["c", "a", "d"]
    # a template over the budget is not kept, and evicts nothing
    store.keep("e", template(budget + 1))
    assert list(store) == ["c", "a", "d"]
    store.keep("f", template(budget))
    assert list(store) == ["f"]
