import time
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest

from qtchar import engine, errors, tableaux_a, tableaux_d, yalgebra
from qtchar.cli import parse_factors
from qtchar.engine import (
    FundamentalSpec,
    check_zcondition,
    fundamental_character,
    gamma_graph,
    order_factors,
    rescaled_tilde,
    standard_character,
    twisted_product,
)
from qtchar.errors import (
    CapExceededError,
    InconsistentCharacterError,
    LDominantEncounteredError,
    NotComparableError,
    QtcharError,
)
from qtchar.laurent import ONE, IntLaurent, _axpy
from qtchar.rootdata import DynkinDiagram
from qtchar.yalgebra import (
    Character,
    DrinfeldData,
    Monomial,
    Spectral,
    a_monomial,
    e_decompose,
    is_right_negative,
    leq,
    specialize_t,
)

from conftest import q, ym

ONE_PLUS_T2 = IntLaurent({0: 1, 2: 1})


def test_fundamental_chain_a2(a2):
    chi = fundamental_character(a2, FundamentalSpec(1, q(0)))
    assert chi == Character(
        a2,
        {
            ym((1, 0)): ONE,
            ym((1, 2, -1), (2, 1)): ONE,
            ym((2, 3, -1)): ONE,
        },
    )


def test_fundamental_rank_one():
    a1 = DynkinDiagram.type_a(1)
    chi = fundamental_character(a1, FundamentalSpec(1, q(0)))
    assert chi == Character(a1, {ym((1, 0)): ONE, ym((1, 2, -1)): ONE})


def test_fundamental_d4_figure(d4):
    chi = fundamental_character(d4, FundamentalSpec(2, q(-1)))
    assert len(chi) == 28
    doubled = ym((2, 1), (2, 3, -1))
    assert chi.coeff(doubled) == ONE_PLUS_T2
    assert all(c == ONE for m, c in chi.items() if m != doubled)
    assert sum(specialize_t(chi, 1).values()) == 29


def test_fundamental_refuses_underdetermined_cases(d4):
    # a two-root datum is not a single fundamental; feeding its dominant
    # monomial through the inductive closure must hit a dominant monomial
    chi12 = standard_character(d4, DrinfeldData([(1, q(0)), (1, q(2))]))
    lower_dominant = [
        m
        for m in chi12.support()
        if m.is_l_dominant() and m != ym((1, 0), (1, 2))
    ]
    assert lower_dominant  # the interior dominant monomial exists
    with pytest.raises(LDominantEncounteredError, match=r"Y\(2,aq\) appeared"):
        fundamental_character(d4, SimpleNamespace(top=ym((1, 0), (1, 2))))


def test_fundamental_closure_refusals(a2, d5):
    # the closure reads only f.top, so a duck-typed spec feeds it any monomial
    for top in (ym((1, 0, -1)), ym((1, 0), (2, 1, -1))):
        with pytest.raises(InconsistentCharacterError):
            fundamental_character(a2, SimpleNamespace(top=top))
    assert len(fundamental_character(d5, FundamentalSpec(2, q(0)))) == 45


def test_closure_merges_pending_blocks_and_partial_residuals(a2):
    # this duck-typed top sends two blocks to one pending monomial in one
    # direction, and flushes a monomial whose pending entry covers only part
    # of its coefficient; the closure must still give the standard character
    top = ym((2, 2), (1, 3), (1, 4))
    chi = fundamental_character(a2, SimpleNamespace(top=top))
    p = DrinfeldData([(2, q(2)), (1, q(3)), (1, q(4))])
    assert chi == standard_character(a2, p)
    assert chi == tableaux_a.standard_char_tableaux(a2, p)
    assert len(chi) == 24
    assert sum(specialize_t(chi, 1).values()) == 27
    assert sum(c == ONE_PLUS_T2 for _, c in chi.items()) == 3


def test_closure_refusals_name_the_sort_first_monomial(a2, d4):
    # a round's failures are found in set order, which follows the hashes of
    # the bases; the refusal must still name the first in Monomial.sort_key
    # order, here the dominant monomial left on the smaller base
    a1 = DynkinDiagram.type_a(1)
    for x, y in combinations("abcdefgh", 2):
        for first, second in ((x, y), (y, x)):
            top = Monomial.from_factors(
                (1, Spectral(b, k), 1) for b in (first, second) for k in (0, 2)
            )
            with pytest.raises(LDominantEncounteredError) as info:
                fundamental_character(a1, SimpleNamespace(top=top))
            assert str(info.value) == (
                f"dominant monomial Y(1,{x}) Y(1,{x}q^2) appeared below the top; "
                "the inductive method does not apply"
            )
    def mono(*factors):
        return Monomial.from_factors((i, Spectral(b, k), e) for i, b, k, e in factors)

    refusals = [
        (a2, mono((1, "a", 0, -1), (2, "b", 0, -1)), InconsistentCharacterError,
         "residual 1 at non-1-dominant Y(1,a)^-1 Y(2,b)^-1"),
        # the top emits its block in direction 1 before it refuses direction 2
        (a2, mono((1, "a", 0, 1), (2, "b", 0, -1)), InconsistentCharacterError,
         "residual 1 at non-2-dominant Y(1,a) Y(2,b)^-1"),
        (a2, mono((2, "a", -2, 1), (2, "a", 0, 1), (2, "a", 2, 2)), LDominantEncounteredError,
         "dominant monomial Y(2,aq^-2) Y(1,aq) Y(2,aq^2) appeared below the top; "
         "the inductive method does not apply"),
        (d4, mono((1, "a", 0, 1), (1, "a", 2, 1), (2, "b", 0, 1), (2, "b", 2, 1)),
         LDominantEncounteredError,
         "dominant monomial Y(1,a) Y(1,aq^2) Y(1,bq) Y(3,bq) Y(4,bq) appeared below the top; "
         "the inductive method does not apply"),
    ]
    for d, top, error, message in refusals:
        with pytest.raises(error) as info:
            fundamental_character(d, SimpleNamespace(top=top))
        assert str(info.value) == message


def test_closure_cap(monkeypatch):
    a3, f = DynkinDiagram.type_a(3), FundamentalSpec(2, q(0))
    # the closure files 6 monomials, one per term
    monkeypatch.setenv("QCHAR_MAX_TERMS", "6")
    assert len(fundamental_character(a3, f)) == 6
    monkeypatch.setenv("QCHAR_MAX_TERMS", "5")
    with pytest.raises(CapExceededError, match="closure exceeded 5 monomials"):
        fundamental_character(a3, f)
    with pytest.raises(CapExceededError, match="closure exceeded 5 monomials"):
        standard_character(a3, DrinfeldData([(2, q(0)), (1, q(7))]))


def test_closure_drops_the_pending_entries_it_has_flushed():
    # the D7 node-4 closure peaks near 2.4 MiB when it keeps every pending
    # entry to the end, and near 0.85 MiB when a flushed monomial's whole
    # pending row is popped
    d7, f = DynkinDiagram.type_d(7), FundamentalSpec(4, q(0))
    fundamental_character(d7, f)  # fill the per-diagram caches first
    engine._templates.clear()  # so the closure runs again
    tracemalloc.start()
    try:
        fundamental_character(d7, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


def test_closure_refuses_a_node_outside_the_diagram(a2, d4):
    # a node outside the diagram is refused by name, as a QtcharError, where
    # the closure first builds a block at it
    calls = [
        (lambda: fundamental_character(a2, FundamentalSpec(7, q(0))), 7),
        (lambda: standard_character(a2, DrinfeldData([(1, q(0)), (7, q(1))])), 7),
        (lambda: fundamental_character(d4, FundamentalSpec(5, q(0))), 5),
    ]
    for call, node in calls:
        with pytest.raises(QtcharError, match=f"^unknown node {node}$"):
            call()


def test_runaway_closure_refuses_quickly_in_little_memory(d5, monkeypatch):
    # this top's closure never ends: it files 10^5 monomials in about 4 s at
    # 220 MiB.  Under a cap of 2000 it refuses in about 0.1 s at a traced peak
    # of 3.16 MiB (Python 3.11), one pending row per reached monomial; a
    # pending map per node peaks at 3.79 MiB.  The bound lies between the two,
    # 10 % above the first for other Python versions' object sizes
    top = Monomial.from_factors([(1, q(2), 1), (3, q(-1, "b"), 2), (3, q(2, "b"), 1)])
    monkeypatch.setenv("QCHAR_MAX_TERMS", "2000")
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="closure exceeded 2000 monomials"):
        fundamental_character(d5, SimpleNamespace(top=top))
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            fundamental_character(d5, SimpleNamespace(top=top))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20, peak


def test_standard_character_cap(a2, monkeypatch):
    # one class: folds of 1 x 3, then 3 x 3 term pairs
    p = DrinfeldData([(1, q(0)), (1, q(0))])
    monkeypatch.setenv("QCHAR_MAX_TERMS", "9")
    assert len(standard_character(a2, p)) == 6
    monkeypatch.setenv("QCHAR_MAX_TERMS", "8")
    with pytest.raises(CapExceededError, match="exceeded 8 term pairs: 9$"):
        standard_character(a2, p)
    # two classes of one factor each: the class product is the 3 x 3 step,
    # refused before it is formed
    split = DrinfeldData([(1, q(0)), (1, Spectral("b", 0))])
    assert len(split.classes(a2)) == 2
    monkeypatch.setattr(yalgebra, "_times", lambda *args: pytest.fail("multiplied past the cap"))
    with pytest.raises(CapExceededError, match="exceeded 8 term pairs: 9$"):
        standard_character(a2, split)
    # 3^13 > 10^6 at t = 1, but no fold step forms more than a few hundred
    # term pairs, so the default cap lets the product through
    monkeypatch.delenv("QCHAR_MAX_TERMS")
    chi = standard_character(a2, DrinfeldData([(1, q(0))] * 13))
    assert sum(specialize_t(chi, 1).values()) == 3**13 > errors.DEFAULT_CAP


@pytest.mark.parametrize("bad", ["abc", "-3", "0"])
def test_term_cap_from_environment_is_a_positive_integer(a2, monkeypatch, bad):
    monkeypatch.setenv("QCHAR_MAX_TERMS", bad)
    p = DrinfeldData([(1, q(0)), (2, q(1))])
    calls = [
        lambda: fundamental_character(a2, FundamentalSpec(1, q(0))),
        lambda: standard_character(a2, p),
        lambda: tableaux_a.standard_char_tableaux(a2, p),
        lambda: tableaux_d.standard_char_tableaux(DynkinDiagram.type_d(4), p),
    ]
    for call in calls:
        message = f"QCHAR_MAX_TERMS must be a positive integer, got '{bad}'"
        with pytest.raises(QtcharError, match=message):
            call()


def test_empty_standard_character_is_the_unit(a2):
    assert standard_character(a2, DrinfeldData()) == Character.unit(a2)
    assert tableaux_a.standard_char_tableaux(a2, DrinfeldData()) == Character.unit(a2)


def test_zcondition():
    p1 = DrinfeldData([(1, q(0))])
    p2 = DrinfeldData([(1, q(2))])
    assert check_zcondition(p1, p2)
    assert not check_zcondition(p2, p1)
    pb = DrinfeldData([(1, Spectral("b", 9))])
    assert check_zcondition(p2, pb) and check_zcondition(pb, p2)


def test_order_factors():
    fs = [FundamentalSpec(1, q(2)), FundamentalSpec(1, q(0))]
    assert [f.spectral.qexp for f in order_factors(fs)] == [0, 2]
    fs2 = [FundamentalSpec(1, q(0)), FundamentalSpec(2, q(1))]
    assert order_factors(fs2) == fs2
    fs3 = [FundamentalSpec(1, Spectral("b", 5)), FundamentalSpec(1, q(0))]
    assert [f.spectral.base for f in order_factors(fs3)] == ["a", "b"]
    fs4 = [
        FundamentalSpec(2, q(1)),
        FundamentalSpec(3, Spectral("b", -1)),
        FundamentalSpec(1, q(1)),
        FundamentalSpec(2, q(-2)),
    ]
    for fs in (fs, fs2, fs3, fs4):
        roots = DrinfeldData(fs).roots
        assert order_factors(fs) == list(roots)
        assert all(isinstance(f, FundamentalSpec) for f in roots)
        keys = [(f.spectral.base, f.spectral.qexp, f.node) for f in roots]
        assert keys == sorted(keys)
    assert DrinfeldData([(1, q(0))]) == DrinfeldData([FundamentalSpec(1, q(0))])
    assert DrinfeldData([(1, q(0))]).roots[0].top == ym((1, 0))


def test_twisted_square_worked_example(a2):
    chi = fundamental_character(a2, FundamentalSpec(1, q(0)))
    top = ym((1, 0))
    prod = twisted_product(chi, top, chi, top, a2)
    expected = Character(
        a2,
        {
            ym((1, 0, 2)): ONE,
            ym((1, 0), (1, 2, -1), (2, 1)): ONE_PLUS_T2,
            ym((1, 2, -2), (2, 1, 2)): ONE,
            ym((1, 0), (2, 3, -1)): ONE_PLUS_T2,
            ym((1, 2, -1), (2, 1), (2, 3, -1)): ONE_PLUS_T2,
            ym((2, 3, -2)): ONE,
        },
    )
    assert prod == expected
    assert sum(specialize_t(prod, 1).values()) == 9


def test_twisted_product_unit(a2):
    chi = fundamental_character(a2, FundamentalSpec(1, q(0)))
    unit = Character.unit(a2)
    assert twisted_product(chi, ym((1, 0)), unit, Monomial.one(), a2) == chi
    assert twisted_product(unit, Monomial.one(), chi, ym((1, 0)), a2) == chi


def test_twisted_product_refuses_terms_not_below_their_tops(a2):
    chi = fundamental_character(a2, FundamentalSpec(1, q(0)))
    top = ym((1, 0))
    # inserted out of order: the message names the first bad term in
    # Monomial.sort_key order, not in insertion order
    bad_first, bad_second = ym((1, 4, -1), (2, 3)), ym((2, 5, -1))
    stray = Character(a2, {bad_second: ONE, bad_first: ONE, top: ONE})
    assert bad_first.sort_key() < bad_second.sort_key()
    with pytest.raises(NotComparableError) as err:
        twisted_product(stray, top, chi, top, a2)
    assert str(err.value) == f"left term {bad_first} is not below {top}"
    with pytest.raises(NotComparableError) as err:
        twisted_product(chi, top, stray, top, a2)
    assert str(err.value) == f"right term {bad_first} is not below {top}"
    # the left certificate is read first
    with pytest.raises(NotComparableError) as err:
        twisted_product(stray, top, stray, top, a2)
    assert str(err.value).startswith("left term ")
    # a top that is not the character's own top refuses every term
    with pytest.raises(NotComparableError) as err:
        twisted_product(chi, top, chi, ym((1, 2)), a2)
    assert str(err.value) == f"right term {top} is not below {ym((1, 2))}"


def test_engine_builds_each_invariant_once(d5, monkeypatch):
    factors = []
    real_factor = yalgebra._rank_one_factor
    monkeypatch.setattr(
        yalgebra,
        "_rank_one_factor",
        lambda d, i, a, u: factors.append((i, a, u)) or real_factor(d, i, a, u),
    )
    heights = []
    real_height = yalgebra._height
    for module in (engine, yalgebra):
        monkeypatch.setattr(
            module,
            "_height",
            lambda w, m: heights.append(m) or real_height(w, m),
            raising=False,
        )
    # the closure runs only on a shape the engine has no template for
    engine._templates.clear()
    fundamental_character(DynkinDiagram.type_d(7), FundamentalSpec(4, q(0)))
    assert factors and len(factors) == len(set(factors))
    # each monomial's drop degree is carried from the block term that reached it
    assert heights == []

    profiles = []
    for module in (engine, yalgebra):
        real_profile = module.v_profile
        monkeypatch.setattr(
            module,
            "v_profile",
            lambda d, m, mp, real=real_profile: profiles.append(m) or real(d, m, mp),
        )
    fs = parse_factors(d5, "1:a:0,2:a:1,spin+:a:2")
    engine._templates.clear()
    standard_character(d5, DrinfeldData(fs))
    # the closure carries every fundamental term's profile: nothing is solved
    assert profiles == []
    assert heights == []


def test_product_loops_build_no_monomial_through_init(d5, monkeypatch):
    fs = DrinfeldData(parse_factors(d5, "1:a:0,2:a:1,spin+:a:2")).roots
    n = d5.rank
    tableaux_a._templates.clear()
    pools = [tableaux_d._pool(n, tableaux_d._columns, f) for f in fs]
    tables = {
        (pools[a][0][0], pools[b][0][0]): tableaux_d._twist_table(n, pools[a], pools[b])
        for b in range(len(pools))
        for a in range(b)
    }
    terms = [engine._fundamental_terms(d5, f) for f in fs]
    tops = [Monomial.one()]
    for f in fs:
        tops.append(tops[-1] * f.top)
    expected = tableaux_d.standard_char_tableaux(d5, DrinfeldData(fs))

    inits = []
    real_init = Monomial.__init__
    monkeypatch.setattr(
        Monomial, "__init__", lambda self, exps=None: inits.append(exps) or real_init(self, exps)
    )
    walked = tableaux_a._tableaux_sum(
        d5,
        DrinfeldData(fs),
        tableaux_d._count,
        tableaux_d._columns,
        lambda xs, ys: tables[(xs[0][0], ys[0][0])],
    )
    folded = engine._start(terms[0])
    for right, mp in zip(terms[1:], tops[1:]):
        folded = engine._fold(folded, right, mp)
    assert inits == []
    assert walked == expected and Character._from_raw(d5, engine._raw(folded)) == expected

    # a multi-class standard_character on closures computed beforehand: the
    # class product builds nothing through __init__, and the whole call
    # builds only its factors' tops
    p = DrinfeldData(parse_factors(d5, "1:a:0,1:a:2,1:a:1,1:b:0"))
    assert [len(cls) for cls in p.classes(d5)] == [2, 1, 1]
    monkeypatch.setattr(Monomial, "__init__", real_init)
    expected = tableaux_d.standard_char_tableaux(d5, p)
    closed = {f: engine._fundamental_terms(d5, f) for f in p.roots}
    top_maps = [f.top._e for f in p.roots]
    monkeypatch.setattr(engine, "_fundamental_terms", lambda d, f: closed[f])
    real_times, in_times = yalgebra._times, []

    def times(left, right):
        before = len(inits)
        out = real_times(left, right)
        in_times.append(len(inits) - before)
        return out

    monkeypatch.setattr(yalgebra, "_times", times)
    monkeypatch.setattr(
        Monomial, "__init__", lambda self, exps=None: inits.append(exps) or real_init(self, exps)
    )
    chi = standard_character(d5, p)
    assert in_times and set(in_times) == {0}
    assert all(exps in top_maps for exps in inits)
    assert chi == expected


def test_each_class_fold_starts_at_its_first_factor(d5, monkeypatch):
    calls = []
    for name in ("_fold", "_twist_exponent"):
        real = getattr(engine, name)
        monkeypatch.setattr(
            engine, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    # one class of two roots folds once; the two classes of one root fold never
    p = DrinfeldData(parse_factors(d5, "1:a:0,1:a:2,1:a:1,1:b:0"))
    assert [len(cls) for cls in p.classes(d5)] == [2, 1, 1]
    assert standard_character(d5, p) == tableaux_d.standard_char_tableaux(d5, p)
    assert calls.count("_fold") == 1
    calls.clear()
    p = DrinfeldData(parse_factors(d5, "1:a:0,1:b:0"))
    assert standard_character(d5, p) == tableaux_d.standard_char_tableaux(d5, p)
    assert calls == []


def test_standard_character_worked_example_one(a2):
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (2, q(1))]))
    assert len(chi) == 8
    doubled = ym((2, 1), (2, 3, -1))
    assert chi.coeff(doubled) == ONE_PLUS_T2
    assert all(c == ONE for m, c in chi.items() if m != doubled)
    assert sum(specialize_t(chi, 1).values()) == 9


def test_standard_character_single_factor_is_fundamental(a2):
    p = DrinfeldData([(2, q(5))])
    assert standard_character(a2, p) == fundamental_character(
        a2, FundamentalSpec(2, q(5))
    )


def test_standard_character_worked_example_three(a2):
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (1, q(2))]))
    assert len(chi) == 9
    assert all(c == ONE for _, c in chi.items())


def test_order_independence(a2, a3):
    # multisets admitting both orders must give identical products
    for d, pairs in (
        (a2, [((1, 0), (2, 1)), ((1, 0), (1, 1)), ((2, 2), (1, 1))]),
        (a3, [((1, 0), (3, 0)), ((2, 1), (3, 0))]),
    ):
        for (n1, k1), (n2, k2) in pairs:
            f1, f2 = FundamentalSpec(n1, q(k1)), FundamentalSpec(n2, q(k2))
            c1 = fundamental_character(d, f1)
            c2 = fundamental_character(d, f2)
            assert check_zcondition(
                DrinfeldData([(n1, q(k1))]), DrinfeldData([(n2, q(k2))])
            ) and check_zcondition(
                DrinfeldData([(n2, q(k2))]), DrinfeldData([(n1, q(k1))])
            )
            assert twisted_product(c1, f1.top, c2, f2.top, d) == twisted_product(
                c2, f2.top, c1, f1.top, d
            )


def test_specialization_is_multiplicative(a2, d4):
    for d, roots in ((a2, [(1, 0), (2, 1)]), (d4, [(1, 0), (4, 1)])):
        p = DrinfeldData([(n, q(k)) for n, k in roots])
        chi = standard_character(d, p)
        lhs = specialize_t(chi, 1)
        rhs = {}
        parts = [
            specialize_t(fundamental_character(d, FundamentalSpec(n, q(k))), 1)
            for n, k in roots
        ]
        for m1, c1 in parts[0].items():
            for m2, c2 in parts[1].items():
                key = m1 * m2
                rhs[key] = rhs.get(key, 0) + c1 * c2
        assert lhs == rhs


def test_fundamental_axioms(a2, a3, d4):
    for d, node in ((a2, 1), (a2, 2), (a3, 2), (d4, 2), (d4, 4)):
        f = FundamentalSpec(node, q(0))
        chi = fundamental_character(d, f)
        dominant = [m for m in chi.support() if m.is_l_dominant()]
        assert dominant == [f.top]
        assert chi.coeff(f.top) == ONE
        for m in chi.support():
            assert leq(d, m, f.top)
        for i in d.nodes:
            blocks = e_decompose(d, chi, i)
            rebuilt = Character(d, {})
            from qtchar.yalgebra import e_expansion

            for m, c in blocks:
                assert m.is_i_dominant(i)
                rebuilt = rebuilt + e_expansion(d, m, i).scaled(c)
            assert rebuilt == chi


def test_d_fundamental_right_negative_tail(d4, d5):
    for d in (d4, d5):
        for node in range(1, d.rank + 1):
            f = FundamentalSpec(node, q(0))
            chi = fundamental_character(d, f)
            for m in chi.support():
                if m != f.top:
                    assert is_right_negative(m)


def test_e_decompose_of_twisted_square(a2):
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (1, q(0))]))
    for i in (1, 2):
        blocks = e_decompose(a2, chi, i)
        from qtchar.yalgebra import e_expansion

        rebuilt = Character(a2, {})
        for m, c in blocks:
            assert m.is_i_dominant(i)
            rebuilt = rebuilt + e_expansion(a2, m, i).scaled(c)
        assert rebuilt == chi
    assert len(e_decompose(a2, chi, 1)) == 3


GAMMA_ONE_EDGES = [
    # the reference arrows
    ((((1, 0), (2, 1))), (((1, 0), (1, 2), (2, 3, -1))), 2, 2),
    ((((1, 0), (1, 2), (2, 3, -1))), (((1, 0), (1, 4, -1))), 1, 3),
    ((((1, 0), (1, 4, -1))), (((1, 2, -1), (1, 4, -1), (2, 1))), 1, 1),
    ((((1, 0), (2, 1))), (((1, 2, -1), (2, 1, 2))), 1, 1),
    ((((1, 0), (1, 2), (2, 3, -1))), (((2, 1), (2, 3, -1))), 1, 1),
    ((((1, 2, -1), (2, 1, 2))), (((2, 1), (2, 3, -1))), 2, 2),
    ((((2, 1), (2, 3, -1))), (((1, 2), (2, 3, -2))), 2, 2),
    ((((1, 2), (2, 3, -2))), (((1, 4, -1), (2, 3, -1))), 1, 3),
    ((((1, 2, -1), (1, 4, -1), (2, 1))), (((1, 4, -1), (2, 3, -1))), 2, 2),
]

# forced by the graph's defining rule though commonly left out of drawings
GAMMA_ONE_EXTRA = [
    ((((2, 1), (2, 3, -1))), (((1, 2, -1), (1, 4, -1), (2, 1))), 1, 3),
]


def test_gamma_graph_worked_example_one(a2):
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (2, q(1))]))
    g = gamma_graph(chi)
    reference = {(ym(*s), ym(*t), i, q(k)) for s, t, i, k in GAMMA_ONE_EDGES}
    extra = {(ym(*s), ym(*t), i, q(k)) for s, t, i, k in GAMMA_ONE_EXTRA}
    assert reference <= g.edges
    assert g.edges - reference == extra
    # every edge divides out exactly one root monomial
    for m1, m2, i, a in g.edges:
        assert m2 == m1 * a_monomial(a2, i, a).inv()


def test_gamma_graph_worked_example_three(a2):
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (1, q(2))]))
    g = gamma_graph(chi)
    assert len(g.vertices) == 9
    assert len(g.edges) == 12
    labels = [(i, a.qexp) for _, _, i, a in g.edges]
    assert sorted(labels) == sorted(
        [(1, 1)] * 3 + [(1, 3)] * 3 + [(2, 2)] * 3 + [(2, 4)] * 3
    )


def test_gamma_graph_singleton(a2):
    g = gamma_graph(Character(a2, {ym((1, 0)): ONE}))
    assert len(g.vertices) == 1 and not g.edges


def test_gamma_graph_dot_deterministic(a2):
    chi = standard_character(a2, DrinfeldData([(1, q(0)), (2, q(1))]))
    assert gamma_graph(chi).to_dot() == gamma_graph(chi).to_dot()
    assert "digraph" in gamma_graph(chi).to_dot()


def test_rescaled_tilde(a2):
    f = FundamentalSpec(1, q(0))
    chi = fundamental_character(a2, f)
    tilde = rescaled_tilde(a2, chi, f.top)
    assert tilde.coeff(f.top) == ONE
    for m, c in tilde.items():
        assert c  # rescaling never kills a term


def direct_closure(d, top):
    """The closure's own terms below top, and each term's drop profile
    carried from the head and drops that first reached it."""
    final, origin = engine._closure(d, top)
    profiles = {top: {}}
    for m in final:
        head, drops = origin[m]
        profiles[m] = _axpy(dict(profiles[head]), dict(drops))
    return Character._from_raw(d, final), profiles


def test_translated_closures_are_the_direct_closures():
    # every node of A1-A8 and D4-D8: the first call, a profiled one at cq^2,
    # keeps its shape's template, and each later call translates it to its
    # own centre, three of them on two bases.  D8 nodes 5 and 6 exceed the row
    # budget: they close every time, so one centre serves them.  At the last
    # centre the carried profiles are checked against v_profile on every
    # shape of at most 600 terms, and on the larger ones (D7 nodes 4-5, D8
    # nodes 4-6) by the property that defines v_profile: each profile is
    # nonnegative and rebuilds its term from the top
    diagrams = [DynkinDiagram.type_a(n) for n in range(1, 9)]
    diagrams += [DynkinDiagram.type_d(n) for n in range(4, 9)]
    engine._templates.clear()
    for d in diagrams:
        for node in d.nodes:
            for a in (q(2, "c"), q(0), q(-3), q(5, "b")):
                f = FundamentalSpec(node, a)
                chi, profiles = direct_closure(d, f.top)
                terms = engine._fundamental_terms(d, f)
                assert fundamental_character(d, f) == chi
                assert len(terms) == len(chi)
                for m, c, v in terms:
                    assert chi._t[m]._c == c and v == profiles[m]
                    # the map __init__ gives, hashed as __init__ hashes it
                    assert hash(m) == hash(Monomial(dict(m._e)))
                kept = (d, ((0, node, 0, 1),)) in engine._templates
                assert kept == (len(chi) <= yalgebra._TEMPLATE_ROWS)
                if not kept:
                    break
            if len(chi) <= 600:
                assert all(v == yalgebra.v_profile(d, m, f.top) for m, _, v in terms)
                continue
            steps = {}
            for m, _, v in terms:
                rebuilt = f.top
                for (i, b), r in v.items():
                    step = steps.get((i, b)) or steps.setdefault((i, b), a_monomial(d, i, b).inv())
                    rebuilt = rebuilt * step**r
                assert rebuilt == m and min(v.values(), default=1) > 0


def test_duck_typed_tops_share_the_shape_path(a2):
    # a top of two bases is kept under its shape, with each base relabelled
    # to its slot, and translated for another pair of bases and shifts
    engine._templates.clear()
    for top in (
        Monomial.from_factors([(2, q(2), 1), (1, q(3), 1), (1, q(4), 1)]),
        Monomial.from_factors([(1, q(0), 1), (2, q(1, "b"), 1)]),
    ):
        for k, (x, y) in enumerate([("a", "b"), ("b", "a"), ("c", "z"), ("u", "v")]):
            moved = Monomial.from_factors(
                (i, Spectral({"a": x, "b": y}[b.base], b.qexp + k), v) for (i, b), v in top.items()
            )
            chi = fundamental_character(a2, SimpleNamespace(top=moved))
            assert chi == direct_closure(a2, moved)[0]
    assert len(engine._templates) == 3  # (a, b) -> (b, a) swaps the slots' order


def test_warm_templates_refuse_with_the_closure_text(monkeypatch):
    # D7 node 4 files 1001 monomials: a warm call refuses under a cap of 1000
    # before it translates, with the closure's own text, and passes at 1001
    d7 = DynkinDiagram.type_d(7)
    engine._templates.clear()
    fundamental_character(d7, FundamentalSpec(4, q(0)))
    monkeypatch.setattr(engine, "_closure", lambda *args: pytest.fail("closed a kept shape"))
    monkeypatch.setenv("QCHAR_MAX_TERMS", "1000")
    calls = [
        lambda: fundamental_character(d7, FundamentalSpec(4, q(3, "b"))),
        lambda: engine._fundamental_terms(d7, FundamentalSpec(4, q(0))),
        lambda: standard_character(d7, DrinfeldData([(4, q(1)), (4, q(4, "b"))])),
    ]
    for call in calls:
        with pytest.raises(CapExceededError) as info:
            call()
        assert str(info.value) == "closure exceeded 1000 monomials"
    monkeypatch.undo()
    monkeypatch.setenv("QCHAR_MAX_TERMS", "1000")
    engine._templates.clear()
    with pytest.raises(CapExceededError) as info:
        fundamental_character(d7, FundamentalSpec(4, q(3, "b")))
    assert str(info.value) == "closure exceeded 1000 monomials"
    assert engine._templates == {}
    monkeypatch.setenv("QCHAR_MAX_TERMS", "1001")
    fundamental_character(d7, FundamentalSpec(4, q(0)))
    assert len(fundamental_character(d7, FundamentalSpec(4, q(3, "b")))) == 1001


def test_refusing_tops_are_never_kept(a2, d5, monkeypatch):
    closures = []
    real = engine._closure
    monkeypatch.setattr(engine, "_closure", lambda d, top: closures.append(top) or real(d, top))
    monkeypatch.setenv("QCHAR_MAX_TERMS", "2000")
    runaway = Monomial.from_factors([(1, q(2), 1), (3, q(-1, "b"), 2), (3, q(2, "b"), 1)])
    refusals = [
        (a2, ym((1, 0, -1)), "residual 1 at non-1-dominant Y(1,a)^-1"),
        (a2, ym((2, -2), (2, 0), (2, 2, 2)),
         "dominant monomial Y(2,aq^-2) Y(1,aq) Y(2,aq^2) appeared below the top; "
         "the inductive method does not apply"),
        (d5, runaway, "closure exceeded 2000 monomials"),
        (a2, ym((7, 0)), "unknown node 7"),
    ]
    engine._templates.clear()
    for d, top, message in refusals:
        for _ in range(2):
            with pytest.raises(QtcharError) as info:
                fundamental_character(d, SimpleNamespace(top=top))
            assert str(info.value) == message
    assert engine._templates == {}
    assert closures == [top for _, top, _ in refusals for _ in range(2)]


def test_warm_calls_return_fresh_characters(a2):
    # no memo: every call re-keys its own terms, at the template's own centre too
    d7 = DynkinDiagram.type_d(7)
    engine._templates.clear()
    for d, f in ((a2, FundamentalSpec(1, q(0))), (d7, FundamentalSpec(7, q(-2, "b")))):
        chis = [fundamental_character(d, f) for _ in range(3)]
        assert chis[0] == chis[1] == chis[2]
        assert len({id(chi) for chi in chis}) == len({id(chi._t) for chi in chis}) == 3
        assert len({id(m) for chi in chis for m in chi._t}) == 3 * len(chis[0])


def test_each_route_keeps_its_own_templates():
    # a tableaux pool as large as the budget evicts no engine template
    d7 = DynkinDiagram.type_d(7)
    engine._templates.clear()
    fundamental_character(d7, FundamentalSpec(4, q(0)))
    kept = list(engine._templates)
    tableaux_a._templates.clear()
    tableaux_a.fundamental_char_tableaux(DynkinDiagram.type_a(13), 7, q(0))  # 3432 rows
    tableaux_a.fundamental_char_tableaux(DynkinDiagram.type_a(13), 6, q(0))  # 3003 rows
    assert len(tableaux_a._templates) == 1
    assert list(engine._templates) == kept and engine._templates is not tableaux_a._templates
