import importlib.util
import random
from itertools import product
from pathlib import Path
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from qtchar.engine import FundamentalSpec, fundamental_character, standard_character
from qtchar import tableaux_a, tableaux_d
from qtchar.errors import CapExceededError, OutOfRangeError
from qtchar.laurent import ONE, IntLaurent
from qtchar.rootdata import DynkinDiagram
from qtchar.tableaux_a import (
    AColumn,
    box_monomial,
    column_monomial,
    d_columns,
    enumerate_fundamental_columns,
    full_column,
    fundamental_char_tableaux,
    is_equivalent,
    ldominant_column_form,
    pad_to_equivalent,
    render_text,
    s_offset,
    standard_char_tableaux,
    Tableau,
    _row_counts,
    tableau_monomial,
    tableau_to_json,
)
from qtchar.cli import d_columns_via_pairing
from qtchar.yalgebra import Character, DrinfeldData, Monomial, Spectral, v_profile

from conftest import q, ym


def tableau_monomial_by_counts(n: int, t: Tableau) -> Monomial:
    """Same monomial from row counts: exponent of Y(i,a) counts letter i at
    a q^(1-i) minus letter i+1 at a q^(-1-i)."""
    e: Dict[Tuple[int, Spectral], int] = {}
    for (b, letter), c in _row_counts(t).items():
        if letter <= n:
            key = (letter, b.shift(letter - 1))
            e[key] = e.get(key, 0) + c
        if letter >= 2:
            key = (letter - 1, b.shift(letter))
            e[key] = e.get(key, 0) - c
    return Monomial(e)

ONE_PLUS_T2 = IntLaurent({0: 1, 2: 1})


def test_box_monomials():
    assert box_monomial(2, 1, q(0)) == ym((1, 0))
    assert box_monomial(2, 3, q(0)) == ym((2, 3, -1))
    assert box_monomial(2, 2, q(0)) == ym((1, 2, -1), (2, 1))
    with pytest.raises(OutOfRangeError):
        box_monomial(2, 4, q(0))


def test_column_monomials():
    assert column_monomial(2, AColumn([1], q(0))) == ym((1, 0))
    for n in range(2, 5):
        for N in range(1, n + 1):
            assert column_monomial(n, AColumn(range(1, N + 1), q(0))) == ym((N, 0))
    assert column_monomial(2, full_column(2, q(0))).is_unit()


def test_column_lookup_and_support():
    col = AColumn([1, 3], q(0))
    assert [col.entry_at(k) for k in (2, 1, 0, -1, -2, -3)] == [None, 1, None, 3, None, None]


def test_tableau_monomials():
    t = (AColumn([1], q(0)), AColumn([2], q(0)))
    assert tableau_monomial(2, t) == ym((1, 0)) * ym((1, 2, -1), (2, 1))
    assert tableau_monomial(2, ()) == Monomial.one()
    # the bottom-left vertex of the first worked product graph
    t2 = (AColumn([2], q(0)), AColumn([1, 2], q(1)))
    assert tableau_monomial(2, t2) == ym((1, 2, -1), (2, 1, 2))


def test_counts_formula_agrees():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        cols = []
        for _ in range(rng.randint(0, 3)):
            length = rng.randint(1, n + 1)
            cols.append(
                AColumn(
                    [rng.randint(1, n + 1) for _ in range(length)],
                    Spectral("a", rng.randint(-3, 3)),
                )
            )
        t = tuple(cols)
        assert tableau_monomial(n, t) == tableau_monomial_by_counts(n, t)


def test_strict_count_is_the_enumeration_length():
    for n in range(1, 9):
        for N in range(1, n + 1):
            assert tableaux_a._strict_count(n, N) == len(enumerate_fundamental_columns(n, N, q(0)))
    for N in (0, 3):
        with pytest.raises(OutOfRangeError, match=f"^column length {N} outside 1..2$"):
            tableaux_a._strict_count(2, N)


def test_enumerations():
    assert len(enumerate_fundamental_columns(2, 1, q(0))) == 3
    assert [c.entries for c in enumerate_fundamental_columns(2, 2, q(0))] == [
        (1, 2),
        (1, 3),
        (2, 3),
    ]
    assert len(enumerate_fundamental_columns(4, 2, q(0))) == 10
    with pytest.raises(OutOfRangeError):
        enumerate_fundamental_columns(2, 3, q(0))


def test_fundamental_chars():
    a1 = DynkinDiagram.type_a(1)
    assert fundamental_char_tableaux(a1, 1, q(0)).support() == [
        ym((1, 0)),
        ym((1, 2, -1)),
    ]
    a2 = DynkinDiagram.type_a(2)
    chain = fundamental_char_tableaux(a2, 1, q(0))
    assert len(chain) == 3 and all(c == ONE for _, c in chain.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fundamental_differential(n):
    d = DynkinDiagram.type_a(n)
    for N in range(1, n + 1):
        for k in (0, 2):
            assert fundamental_char_tableaux(d, N, q(k)) == fundamental_character(
                d, FundamentalSpec(N, q(k))
            )


def test_s_offset():
    assert s_offset(AColumn([1], q(0)), AColumn([2], q(0))) == 0
    assert s_offset(AColumn([1], q(0)), AColumn([1], q(-2))) == 1
    assert s_offset(AColumn([1], q(0)), AColumn([1], Spectral("b", 0))) is None
    assert s_offset(AColumn([1], q(0)), AColumn([1], q(1))) is None


@st.composite
def column_pools(draw):
    """A strict column of A2-A6 at q^0 and every strict column of a drawn
    length at q^-5..q^5 from it, on the same base or on another."""
    d = DynkinDiagram.type_a(draw(st.integers(2, 6)))
    N = draw(st.integers(1, d.rank))
    letters = draw(st.sets(st.integers(1, d.rank + 1), min_size=N, max_size=N))
    ca = AColumn(sorted(letters), q(0))
    b = Spectral(draw(st.sampled_from("ab")), draw(st.integers(-5, 5)))
    return d, ca, enumerate_fundamental_columns(d.rank, draw(st.integers(1, d.rank)), b)


@settings(max_examples=100, deadline=None)
@given(column_pools())
def test_d_columns_is_the_pairing_on_drawn_pairs(case):
    d, ca, pool = case
    for cb in pool:
        assert d_columns(ca, cb) == d_columns_via_pairing(d, ca, cb)
        assert d_columns(cb, ca) == d_columns_via_pairing(d, cb, ca)


def test_d_columns_examples():
    assert d_columns(AColumn([2], q(0)), AColumn([1], q(0))) == 1
    assert d_columns(AColumn([1], q(0)), AColumn([2], q(0))) == 0
    assert d_columns(AColumn([1], q(0)), AColumn([1], Spectral("b", 0))) == 0


def test_closed_pair_statistic_matches_pairing_exhaustive(a2, a3):
    for d in (a2, a3):
        n = d.rank
        cols = []
        for N in range(1, n + 1):
            for k in range(-4, 5):
                cols += enumerate_fundamental_columns(n, N, q(k))
            # a second base: pairs across bases carry no twist
            for k in (-1, 0, 1):
                cols += enumerate_fundamental_columns(n, N, q(k, "b"))
        for x in cols:
            for y in cols:
                assert d_columns(x, y) == d_columns_via_pairing(d, x, y), (x, y)


def test_drop_family_closed_form(a3):
    # column drop profile: one factor at (i, a q^(N+1-2p+i)) for p <= i < entry
    n = 3
    for N in range(1, n + 1):
        for col in enumerate_fundamental_columns(n, N, q(0)):
            prof = v_profile(a3, column_monomial(n, col), ym((N, 0)))
            expected = {}
            for p, entry in enumerate(col.entries, start=1):
                for i in range(p, entry):
                    expected[(i, q(N + 1 - 2 * p + i))] = 1
            assert prof == expected


def test_standard_tableaux_worked_examples(a2):
    p1 = DrinfeldData([(1, q(0)), (2, q(1))])
    chi1 = standard_char_tableaux(a2, p1)
    assert chi1 == standard_character(a2, p1)
    assert len(chi1) == 8
    assert chi1.coeff(ym((2, 1), (2, 3, -1))) == ONE_PLUS_T2

    p2 = DrinfeldData([(1, q(0)), (1, q(0))])
    chi2 = standard_char_tableaux(a2, p2)
    assert chi2 == standard_character(a2, p2)
    # the second member of each colliding pair carries the twist
    assert d_columns(AColumn([2], q(0)), AColumn([1], q(0))) == 1
    assert d_columns(AColumn([3], q(0)), AColumn([1], q(0))) == 1
    assert d_columns(AColumn([3], q(0)), AColumn([2], q(0))) == 1

    p3 = DrinfeldData([(1, q(0)), (1, q(2))])
    chi3 = standard_char_tableaux(a2, p3)
    assert chi3 == standard_character(a2, p3)
    assert len(chi3) == 9 and all(c == ONE for _, c in chi3.items())

    # three and four factors: repeated, adjacent and cross-base roots
    a3 = DynkinDiagram.type_a(3)
    for d, roots in (
        (a3, [(1, q(0)), (2, q(1)), (1, q(2)), (2, q(3))]),
        (a2, [(1, q(0)), (1, q(0)), (2, q(1))]),
        (a3, [(2, q(0)), (1, q(0, "b")), (1, q(1))]),
    ):
        p = DrinfeldData(roots)
        assert standard_char_tableaux(d, p) == standard_character(d, p), roots


def test_standard_tableaux_differential_all_two_factor_products():
    # every two-factor datum over ranks 2 and 3 with small q-exponents,
    # under every admissible ordering
    for n in (2, 3):
        d = DynkinDiagram.type_a(n)
        specs = [(N, k) for N in range(1, n + 1) for k in range(0, 4)]
        for i1, (n1, k1) in enumerate(specs):
            for n2, k2 in specs[i1:]:
                p = DrinfeldData([(n1, q(k1)), (n2, q(k2))])
                expected = standard_character(d, p)
                assert standard_char_tableaux(d, p) == expected


def test_equivalence():
    ta = (AColumn([1], q(0)), AColumn([2], q(0)))
    tb = (AColumn([2], q(0)), AColumn([1], q(0)))
    assert is_equivalent(ta, tb)
    assert tableau_monomial(2, ta) == tableau_monomial(2, tb)
    assert not is_equivalent(ta, (AColumn([1], q(0)),))


def test_pad_to_equivalent():
    res = pad_to_equivalent(2, (full_column(2, q(0)),), ())
    assert res is not None
    assert is_equivalent(*res)

    same = (AColumn([1], q(0)),)
    assert pad_to_equivalent(2, same, same) == (same, same)

    assert pad_to_equivalent(2, (AColumn([1], q(0)),), (AColumn([2], q(0)),)) is None

    # pads come out in (base, qexp) order of their anchors, whatever the hash seed
    a0, a4 = full_column(2, q(0)), full_column(2, q(4))
    b0, c0 = full_column(2, q(0, "b")), full_column(2, q(0, "c"))
    ta = (c0, a4, b0, a0)
    assert pad_to_equivalent(2, ta, ()) == (ta, (a0, a4, b0, c0))
    assert pad_to_equivalent(2, (), ta) == ((a0, a4, b0, c0), ta)


def test_pad_iff_equal_monomial_exhaustive():
    # both directions of the equality criterion on small tableaux
    n = 2
    cols = []
    for N in (1, 2, 3):
        for k in (-2, 0, 2):
            entries_pool = (
                [(e,) for e in (1, 2, 3)]
                if N == 1
                else [(1, 2), (1, 3), (2, 3)]
                if N == 2
                else [(1, 2, 3)]
            )
            cols += [AColumn(e, q(k)) for e in entries_pool]
    tableaux = [()] + [(c,) for c in cols] + [(c1, c2) for c1 in cols for c2 in cols]
    rng = random.Random(1)
    sample = rng.sample(tableaux, 120)
    for ta in sample[:60]:
        for tb in sample[60:]:
            padded = pad_to_equivalent(n, ta, tb)
            equal = tableau_monomial(n, ta) == tableau_monomial(n, tb)
            assert (padded is not None) == equal, (ta, tb)
            if padded:
                assert is_equivalent(*padded)


def test_ldominant_column_form():
    t = (AColumn([1, 2], q(0)),)
    assert ldominant_column_form(2, t) == t
    assert ldominant_column_form(2, (AColumn([2], q(0)),)) is None
    t2 = (AColumn([1], q(0)), full_column(2, Spectral("b", 0)))
    lf = ldominant_column_form(2, t2)
    assert lf is not None
    assert tableau_monomial(2, lf) == tableau_monomial(2, t2)
    for col in lf:
        assert col.entries == tuple(range(1, col.length + 1))


def test_render_and_json():
    t = (AColumn([1], q(0)), AColumn([1, 2], q(1)))
    text = render_text(t)
    assert "1" in text and "2" in text
    data = tableau_to_json(t)
    assert data[1] == {"entries": [1, 2], "base": "a", "qexp": 1}


def test_tableaux_product_cap(monkeypatch):
    a2, d4 = DynkinDiagram.type_a(2), DynkinDiagram.type_d(4)
    # pools of 3 and 3 columns (A2 node 1), and of 8 and 8 (D4 node 1)
    pairs = [
        (a2, DrinfeldData([(1, q(0)), (1, q(1))]), 9),
        (d4, DrinfeldData([(1, q(0)), (1, q(1))]), 64),
    ]
    for d, p, size in pairs:
        route = tableaux_a if d.kind == "A" else tableaux_d
        monkeypatch.setenv("QCHAR_MAX_TERMS", str(size))
        assert route.standard_char_tableaux(d, p) == standard_character(d, p)
        monkeypatch.setenv("QCHAR_MAX_TERMS", str(size - 1))
        with monkeypatch.context() as m:
            # the refusal comes before any walk
            m.setattr(tableaux_a, "_walk", lambda *args: pytest.fail("walked past the cap"))
            with pytest.raises(CapExceededError, match=f"exceeded {size - 1} terms: {size}$"):
                route.standard_char_tableaux(d, p)
    # a fundamental's one pool: 3 columns (A2 node 1), 8 (D4 node 1), 8 (D4 spin+)
    q0 = q(0)
    fundamentals = [
        (tableaux_a.fundamental_char_tableaux, (a2, 1, q0), FundamentalSpec(1, q0), 3),
        (tableaux_d.fundamental_char_tableaux, (d4, 1, q0), FundamentalSpec(1, q0), 8),
        (tableaux_d.spin_char, (d4, q0, "+"), FundamentalSpec(4, q0), 8),
    ]
    for call, args, f, size in fundamentals:
        d = args[0]
        monkeypatch.setenv("QCHAR_MAX_TERMS", str(size))
        assert call(*args) == fundamental_character(d, f)
        monkeypatch.setenv("QCHAR_MAX_TERMS", str(size - 1))
        with monkeypatch.context() as m:
            m.setattr(tableaux_a, "_walk", lambda *args: pytest.fail("walked past the cap"))
            with pytest.raises(CapExceededError, match=f"^tableaux sum exceeded {size - 1} terms: {size}$"):
                call(*args)


def test_each_distinct_shape_builds_one_template(monkeypatch):
    a4, d5 = DynkinDiagram.type_a(4), DynkinDiagram.type_d(5)
    # four roots of two shapes (1:b:0 is shape 1 under another base), and
    # two equal spin roots of one shape
    cases = [
        (a4, DrinfeldData([(1, q(0)), (2, q(0)), (2, q(0)), (1, Spectral("b", 0))]),
         tableaux_a, "enumerate_fundamental_columns", 2),
        (d5, DrinfeldData([(5, q(0)), (5, q(0))]), tableaux_d, "enumerate_spin", 1),
    ]
    tableaux_a._templates.clear()
    for d, p, module, name, templates in cases:
        expected = standard_character(d, p)
        calls = []
        real = getattr(module, name)
        with monkeypatch.context() as m:
            m.setattr(module, name, lambda *args, real=real: calls.append(args) or real(*args))
            assert module.standard_char_tableaux(d, p) == expected
            assert len(calls) == templates
            # a second call translates the retained templates
            assert module.standard_char_tableaux(d, p) == expected
        assert len(calls) == templates


def direct_pool(n, columns, f):
    """The pool rows of f's columns, each built on its own."""
    return [(col, column_monomial(n, col), col.l_degree(n)) for col in columns(n, f)]


def test_translated_pools_are_the_directly_built_pools():
    # every node of A1-A8 and D4-D8 (so both spin chiralities): the first call
    # builds the pool and its template at cq^2, the later ones translate it
    # to other bases and shifts (D8 nodes 5 and 6 exceed the budget and are
    # built directly each time)
    shapes = [(tableaux_a._columns, n, node) for n in range(1, 9) for node in range(1, n + 1)]
    shapes += [(tableaux_d._columns, n, node) for n in range(4, 9) for node in range(1, n + 1)]
    tableaux_a._templates.clear()
    for columns, n, node in shapes:
        for a in (q(2, "c"), q(0), q(-3), q(5, "b")):
            f = FundamentalSpec(node, a)
            pool = tableaux_a._pool(n, columns, f)
            retained = (columns, n, node) in tableaux_a._templates
            assert retained == (len(pool) <= tableaux_a._TEMPLATE_ROWS)
            direct = direct_pool(n, columns, f)
            assert len(pool) == len(direct)
            for (col, m, deg), (col2, m2, deg2) in zip(pool, direct):
                assert type(col) is type(col2) and col == col2
                # the same map in the same order, and the hash __init__ gives
                assert m == m2 and list(m._e.items()) == list(m2._e.items())
                assert hash(m) == hash(Monomial(dict(m._e)))
                assert deg == deg2


def benchmark_shapes():
    """The pool shapes of the benchmark's route ladders, read from perfbench."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    large, rounds = cases.build_inputs("tableaux", 1)
    columns = {"A": tableaux_a._columns, "D": tableaux_d._columns}
    return {
        (columns[c.d.kind], c.d.rank, f.node)
        for c in large + [x.case for x in rounds[0]]
        for f in c.specs
    }


def test_templates_stay_within_their_row_budget():
    budget = tableaux_a._TEMPLATE_ROWS

    def held():
        return sum(len(t[2]) for t in tableaux_a._templates.values())

    # a pool over the budget is computed, and not retained
    tableaux_a._templates.clear()
    a14, f = DynkinDiagram.type_a(14), FundamentalSpec(7, q(2))
    assert tableaux_a._strict_count(14, 7) > budget
    chi = tableaux_a.fundamental_char_tableaux(a14, 7, q(2))
    assert chi == Character(a14, {m: ONE for _, m, _ in direct_pool(14, tableaux_a._columns, f)})
    assert tableaux_a._templates == {}
    # the benchmark ladders' shapes are all retained together
    shapes = sorted(benchmark_shapes(), key=lambda s: (s[0].__module__, s[1], s[2]))
    for columns, n, node in shapes:
        tableaux_a._pool(n, columns, FundamentalSpec(node, q(0)))
    assert list(tableaux_a._templates) == shapes
    # a new shape evicts the least recently used templates first, and the
    # cache never holds more than the budget
    first, second = shapes[0], shapes[1]
    tableaux_a._pool(first[1], first[0], FundamentalSpec(first[2], q(1)))
    tableaux_a._pool(9, tableaux_d._columns, FundamentalSpec(4, q(1)))  # 3214 rows
    assert first in tableaux_a._templates and second not in tableaux_a._templates
    for node in range(1, 5):
        tableaux_a._pool(9, tableaux_d._columns, FundamentalSpec(node, q(2)))
        assert (tableaux_d._columns, 9, node) in tableaux_a._templates
        assert held() <= budget
