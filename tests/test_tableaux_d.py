import random

import pytest

from qtchar import tableaux_a, tableaux_d
from qtchar.engine import FundamentalSpec, fundamental_character, standard_character
from qtchar.errors import CapExceededError, OutOfRangeError, QtcharError
from qtchar.laurent import ONE, IntLaurent
from qtchar.rootdata import DynkinDiagram
from qtchar.tableaux_a import AColumn
from qtchar.tableaux_d import (
    DColumn,
    Letter,
    SpinColumn,
    alphabet,
    bar,
    box_monomial,
    closed_u,
    closed_u_spin,
    column_monomial,
    column_to_json,
    column_top,
    d_tableau,
    drop_family,
    enumerate_fundamental_columns,
    enumerate_spin,
    fundamental_char_tableaux,
    half_box_monomial,
    is_equivalent,
    pad_pairs_equivalence,
    prec,
    render_text,
    restricted_character,
    spin_char,
    spin_drop_family,
    spin_flip,
    standard_char_tableaux,
)
from qtchar.yalgebra import (
    Character,
    DrinfeldData,
    Monomial,
    Spectral,
    forget_spectral,
    v_profile,
)

from conftest import q, ym

ONE_PLUS_T2 = IntLaurent({0: 1, 2: 1})


def test_letter_order():
    n = 4
    assert prec(n, Letter(1), Letter(2))
    assert prec(n, Letter(3), Letter(4)) and prec(n, Letter(3), bar(4))
    assert not prec(n, Letter(4), bar(4)) and not prec(n, bar(4), Letter(4))
    assert prec(n, bar(4), bar(3))
    assert prec(n, bar(2), bar(1))
    assert len(alphabet(n)) == 2 * n


def test_column_identity():
    entries = [Letter(1), Letter(2), Letter(3), Letter(4)]
    vec = DColumn(entries, q(0))
    odd = entries[:3] + [bar(4)]
    plus, minus = SpinColumn(entries, q(0)), SpinColumn(odd, q(0))
    assert plus.chirality == "+" and minus.chirality == "-"
    assert vec != plus and plus != vec
    assert plus != minus
    assert AColumn([1, 2], q(0)) != DColumn([1, 2], q(0))
    assert DColumn([1, 2], q(0)) != AColumn([1, 2], q(0))
    twins = [
        (DColumn(entries, q(0)), vec),
        (SpinColumn(odd, q(0)), minus),
        (AColumn([1, 2], q(0)), AColumn([1, 2], q(0))),
    ]
    for x, y in twins:
        assert x == y and hash(x) == hash(y)
    assert len({vec, plus, minus, DColumn(entries, q(0))}) == 3
    # row p of a length-N column centered at a sits at a q^(N+1-2p), top first
    assert AColumn([1, 3, 4], q(1)).rows() == [(q(3), 1), (q(1), 3), (q(-1), 4)]
    assert plus.rows() == list(zip([q(3), q(1), q(-1), q(-3)], entries))
    assert [vec.entry(p) for p in (None, 0, 1, 4, 5)] == [None, None, Letter(1), Letter(4), None]


def test_box_monomials():
    assert box_monomial(4, Letter(1), q(0)) == ym((1, 0))
    assert box_monomial(4, bar(4), q(0)) == ym((3, 2), (4, 4, -1))
    assert box_monomial(4, bar(1), q(0)) == ym((1, 6, -1))
    assert box_monomial(4, Letter(3), q(0)) == ym((2, 3, -1), (3, 2), (4, 2))
    assert box_monomial(4, Letter(4), q(0)) == ym((3, 4, -1), (4, 2))
    assert box_monomial(4, bar(3), q(0)) == ym((2, 3), (3, 4, -1), (4, 4, -1))
    with pytest.raises(OutOfRangeError):
        box_monomial(4, Letter(5), q(0))
    # letters 1..n-2 take type A's box, a half box one step lower
    assert box_monomial(5, Letter(3), q(0)) == ym((2, 3, -1), (3, 2))
    assert half_box_monomial(5, Letter(3), q(0)) == ym((2, 2, -1), (3, 1))
    assert half_box_monomial(5, Letter(1), q(4)) == ym((1, 3))
    for n in (4, 5, 6):
        for i in range(1, n - 1):
            for s in (-3, 0, 2):
                a = q(s, "b")
                assert box_monomial(n, Letter(i), a) == tableaux_a.box_monomial(n, i, a)
                assert half_box_monomial(n, Letter(i), a) == tableaux_a.box_monomial(
                    n, i, a.shift(-1)
                )


def test_vector_chain_monomials_telescope():
    # the full chain from the head to the tail variable
    n = 4
    head = column_monomial(n, DColumn([Letter(1)], q(0)))
    tail = column_monomial(n, DColumn([bar(1)], q(0)))
    assert head == ym((1, 0))
    assert tail == ym((1, 6, -1))


def test_column_monomials_match_figure():
    c22 = DColumn([Letter(2), bar(2)], q(-1))
    c33 = DColumn([Letter(3), bar(3)], q(-1))
    target = ym((2, 1), (2, 3, -1))
    assert column_monomial(4, c22) == target
    assert column_monomial(4, c33) == target
    assert column_monomial(4, DColumn([Letter(1), Letter(2)], q(0))) == ym((2, 0))


def test_l_degree():
    assert DColumn([Letter(2), bar(2)], q(-1)).l_degree(4) == 1
    assert DColumn([Letter(3), bar(3)], q(-1)).l_degree(4) == 0
    assert DColumn([Letter(1), Letter(2)], q(0)).l_degree(4) == 0
    assert DColumn([Letter(2), Letter(3), bar(2)], q(0)).l_degree(5) == 1
    assert SpinColumn([Letter(1), Letter(2), Letter(3), Letter(4)], q(0)).l_degree(4) == 0
    assert AColumn([1, 2], q(0)).l_degree(4) == 0


def test_enumerations():
    assert len(enumerate_fundamental_columns(4, 1, q(0))) == 8
    assert len(enumerate_fundamental_columns(4, 2, q(0))) == 29
    assert len(enumerate_fundamental_columns(5, 2, q(0))) == 46
    with pytest.raises(OutOfRangeError):
        enumerate_fundamental_columns(4, 3, q(0))
    # alternation of the incomparable pair is allowed
    entries = {c.entries for c in enumerate_fundamental_columns(5, 3, q(0))}
    assert (Letter(5), bar(5), Letter(5)) in entries


@pytest.mark.parametrize("n", range(4, 11))
def test_closed_counts_are_the_enumeration_lengths(n):
    for node in range(1, n + 1):
        f = FundamentalSpec(node, q(0))
        cols = tableaux_d._columns(n, f)
        assert tableaux_d._count(n, f) == len(cols)
        if node <= n - 2:
            assert tableaux_d._vector_count(n, node) == len(cols)
        else:
            assert tableaux_d._spin_count(n, "+" if node == n else "-") == len(cols)


def test_pool_sizes_are_refused_before_any_column_is_built(monkeypatch):
    built = []
    real = tableaux_a.Column.__init__
    monkeypatch.setattr(
        tableaux_a.Column, "__init__", lambda self, *args: built.append(args) or real(self, *args)
    )
    monkeypatch.setenv("QCHAR_MAX_TERMS", "100")
    d16, a16, q0 = DynkinDiagram.type_d(16), DynkinDiagram.type_a(16), q(0)
    over = "tableaux sum exceeded 100 terms"
    refusals = [
        (lambda: spin_char(d16, q0, "+"), f"{over}: 32768"),
        (lambda: fundamental_char_tableaux(d16, 2, q0), f"{over}: 497"),
        (lambda: tableaux_a.fundamental_char_tableaux(a16, 8, q0), f"{over}: 24310"),
        (
            lambda: standard_char_tableaux(d16, DrinfeldData([(16, q0), (1, q(1))])),
            "tableaux product of 2 factors exceeded 100 terms: 1048576",
        ),
    ]
    tableaux_a._templates.clear()
    for call, message in refusals:
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            call()
    assert built == [] and tableaux_a._templates == {}
    # the counter sees the columns a call under the cap builds: on a cold
    # cache, its 8 columns, once (the template is read from its pool rows)
    spin_char(DynkinDiagram.type_d(4), q0, "+")
    assert len(built) == 8


def test_spin_enumeration():
    plus = enumerate_spin(4, q(0), "+")
    minus = enumerate_spin(4, q(0), "-")
    assert len(plus) == 8 and len(minus) == 8
    assert SpinColumn([Letter(1), Letter(2), Letter(3), Letter(4)], q(0)) in plus
    assert SpinColumn([Letter(1), Letter(2), Letter(3), bar(4)], q(0)) in minus
    for col in plus + minus:
        classes = sorted(x.value for x in col.entries)
        assert classes == [1, 2, 3, 4]  # one letter per pair


def test_spin_highest_monomials():
    assert column_monomial(
        4, SpinColumn([Letter(1), Letter(2), Letter(3), Letter(4)], q(0))
    ) == ym((4, 0))
    assert column_monomial(
        4, SpinColumn([Letter(1), Letter(2), Letter(3), bar(4)], q(0))
    ) == ym((3, 0))
    assert half_box_monomial(4, bar(1), q(0)).is_unit()


@pytest.mark.parametrize("n,Ns", [(4, (1, 2)), (5, (1, 2, 3))])
def test_vector_fundamental_differential(n, Ns):
    d = DynkinDiagram.type_d(n)
    for N in Ns:
        assert fundamental_char_tableaux(d, N, q(0)) == fundamental_character(
            d, FundamentalSpec(N, q(0))
        )


def test_figure_golden(d4):
    chi = fundamental_char_tableaux(d4, 2, q(-1))
    assert len(chi) == 28
    shared = ym((2, 1), (2, 3, -1))
    assert chi.coeff(shared) == ONE_PLUS_T2
    assert all(c == ONE for m, c in chi.items() if m != shared)
    from qtchar.yalgebra import specialize_t

    assert sum(specialize_t(chi, 1).values()) == 29


def test_vector_chain_char(d4):
    chi = fundamental_char_tableaux(d4, 1, q(0))
    assert len(chi) == 8 and all(c == ONE for _, c in chi.items())


def test_figure_graph_edges(d4):
    # 43 reference arrows plus three forced by the edge rule, the additions
    # forming one orbit of the 1<->3<->4 diagram symmetry
    from collections import Counter

    from qtchar.engine import gamma_graph

    chi = fundamental_char_tableaux(d4, 2, q(-1))
    g = gamma_graph(chi)
    assert len(g.edges) == 46
    labels = Counter((i, a.qexp) for _, _, i, a in g.edges)
    reference = {
        (1, 1): 6, (1, 3): 5, (2, 0): 1, (2, 2): 8, (2, 4): 1,
        (3, 1): 6, (3, 3): 5, (4, 1): 6, (4, 3): 5,
    }
    extras = {(1, 3): 1, (3, 3): 1, (4, 3): 1}
    assert labels == {k: reference.get(k, 0) + extras.get(k, 0) for k in labels}
    from qtchar.yalgebra import a_monomial

    for m1, m2, i, a in g.edges:
        assert m2 == m1 * a_monomial(d4, i, a).inv()


@pytest.mark.parametrize("n", [4, 5])
def test_spin_differential(n):
    d = DynkinDiagram.type_d(n)
    assert spin_char(d, q(0), "+") == fundamental_character(d, FundamentalSpec(n, q(0)))
    assert spin_char(d, q(0), "-") == fundamental_character(
        d, FundamentalSpec(n - 1, q(0))
    )


def test_spin_flip_edges():
    col = SpinColumn([Letter(1), Letter(2), bar(4), bar(3)], q(0))
    flipped = spin_flip(4, col, 2)
    assert flipped is not None
    assert flipped.entries == (Letter(1), Letter(3), bar(4), bar(2))
    # the move is a single root-monomial drop
    d4 = DynkinDiagram.type_d(4)
    prof = v_profile(d4, column_monomial(4, flipped), column_monomial(4, col))
    assert prof is not None and sum(prof.values()) == 1

    fork = SpinColumn([Letter(1), Letter(2), Letter(3), Letter(4)], q(0))
    forked = spin_flip(4, fork, 3)
    assert forked is not None and forked.entries == (
        Letter(1),
        Letter(2),
        bar(4),
        bar(3),
    )
    assert spin_flip(4, col, 1) is None  # 2bar absent


@pytest.mark.parametrize("n", [4, 5])
def test_closed_forms_vector_exhaustive(n):
    d = DynkinDiagram.type_d(n)
    for N in range(1, n - 1):
        for col in enumerate_fundamental_columns(n, N, q(0)):
            m = column_monomial(n, col)
            prof = v_profile(d, m, ym((N, 0)))
            assert prof is not None
            assert drop_family(n, col) == prof, col
            for i in d.nodes:
                for s in range(-2, 2 * n + 3):
                    assert closed_u(n, col, i, s) == m.u(i, q(s)), (col, i, s)


def test_closed_v_on_highest_column_vanishes():
    for n, N in ((4, 2), (5, 3)):
        col = DColumn([Letter(i) for i in range(1, N + 1)], q(0))
        assert drop_family(n, col) == {}


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_closed_forms_spin_exhaustive(n):
    d = DynkinDiagram.type_d(n)
    for chirality in "+-":
        for col in enumerate_spin(n, q(0), chirality):
            assert col.chirality == chirality
            m = column_monomial(n, col)
            prof = v_profile(d, m, column_top(n, col))
            assert prof is not None
            assert spin_drop_family(n, col) == prof
            assert drop_family(n, col) == prof
            for i in d.nodes:
                for s in range(-2, 2 * n + 3):
                    assert closed_u_spin(n, col, i, s) == m.u(i, q(s)), (col, i, s)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_drop_family_matches_v_profile(n):
    d = DynkinDiagram.type_d(n)
    for center in (q(0), q(-3, "b")):
        cols = enumerate_spin(n, center, "+") + enumerate_spin(n, center, "-")
        for N in range(1, n - 1):
            cols += enumerate_fundamental_columns(n, N, center)
        for col in cols:
            prof = v_profile(d, column_monomial(n, col), column_top(n, col))
            assert drop_family(n, col) == prof, col


def test_standard_tableaux_products(d4):
    cases = [
        [(1, 0), (1, 2)],
        [(2, 0), (2, 2)],
        [(1, 0), (2, 1)],
        [(1, 0), (4, 1)],  # mixed vector and spin
        [(4, 0), (4, 2)],
        [(3, 0), (4, 0)],
        [(1, 0), (2, 1), (3, 2)],
        [(4, 0), (3, 1), (4, 2)],  # spin+, spin-, spin+
        [(1, 0), (4, 1), (1, 1, "b")],  # cross-base
    ]
    for roots in cases:
        p = DrinfeldData([(node, q(*k)) for node, *k in roots])
        assert standard_char_tableaux(d4, p) == standard_character(d4, p), roots


def test_single_factor_reduces_to_fundamental(d4):
    p = DrinfeldData([(2, q(0))])
    assert standard_char_tableaux(d4, p) == fundamental_char_tableaux(d4, 2, q(0))
    for col in enumerate_fundamental_columns(4, 2, q(0)):
        assert d_tableau(d4, (col,), p) == 0


def test_d_tableau_refuses_foreign_columns(d4):
    p = DrinfeldData([(2, q(0))])
    admissible = set(enumerate_fundamental_columns(4, 2, q(0)))
    accepted = set()
    for x in alphabet(4):
        for y in alphabet(4):
            col = DColumn([x, y], q(0))
            try:
                assert d_tableau(d4, (col,), p) == 0
                accepted.add(col)
            except QtcharError as exc:
                assert str(exc) == f"column {col} does not realize factor {FundamentalSpec(2, q(0))}"
    assert accepted == admissible and len(admissible) == 29
    spin = DrinfeldData([(4, q(0))])
    foreign = [
        (p, DColumn([Letter(1)], q(0))),  # wrong length
        (p, DColumn([Letter(1), Letter(2)], q(2))),  # wrong centre
        (p, AColumn([1, 2], q(0))),  # wrong kind
        (spin, enumerate_spin(4, q(0), "-")[0]),  # wrong chirality
        (spin, enumerate_spin(4, q(2), "+")[0]),
    ]
    for pp, col in foreign:
        with pytest.raises(QtcharError, match="does not realize factor"):
            d_tableau(d4, (col,), pp)


_A3, _D4, _D5 = DynkinDiagram.type_a(3), DynkinDiagram.type_d(4), DynkinDiagram.type_d(5)
_SPIN = enumerate_spin(4, q(0), "+")[0]
_VEC = DColumn([Letter(1)], q(0))
TYPED_REFUSALS = {
    "empty column": (lambda: AColumn([], q(0)), OutOfRangeError, "column needs at least one row"),
    "A fundamental on D4": (
        lambda: tableaux_a.fundamental_char_tableaux(_D4, 1, q(0)),
        OutOfRangeError, "type A tableaux need a type A diagram",
    ),
    "A standard on D4": (
        lambda: tableaux_a.standard_char_tableaux(_D4, DrinfeldData([(1, q(0))])),
        OutOfRangeError, "type A tableaux need a type A diagram",
    ),
    "D fundamental on A3": (
        lambda: fundamental_char_tableaux(_A3, 1, q(0)),
        OutOfRangeError, "type D tableaux need a type D diagram",
    ),
    "D spin on A3": (
        lambda: spin_char(_A3, q(0), "+"), OutOfRangeError, "type D tableaux need a type D diagram"
    ),
    "D standard on A3": (
        lambda: standard_char_tableaux(_A3, DrinfeldData([(1, q(0))])),
        OutOfRangeError, "type D tableaux need a type D diagram",
    ),
    "spin rank 3": (
        lambda: enumerate_spin(3, q(0), "+"), OutOfRangeError, "spin columns need rank >= 4"
    ),
    "spin chirality": (
        lambda: spin_char(_D4, q(0), "x"), OutOfRangeError, "chirality must be '+' or '-'"
    ),
    "half box letter": (
        lambda: half_box_monomial(4, Letter(5), q(0)), OutOfRangeError, "letter 5 outside rank 4"
    ),
    "factor node": (
        lambda: standard_char_tableaux(_D4, DrinfeldData([(5, q(0))])),
        OutOfRangeError, "node 5 outside rank 4",
    ),
    "tableau factor node": (
        lambda: d_tableau(_D5, (_VEC,), DrinfeldData([(6, q(0))])),
        OutOfRangeError, "node 6 outside rank 5",
    ),
    "tableau width": (
        lambda: d_tableau(_D4, (_VEC, _VEC), DrinfeldData([(1, q(0))])),
        QtcharError, "tableau width differs from the factor count",
    ),
    "pad spin left": (
        lambda: pad_pairs_equivalence(4, (_SPIN,), (_VEC,)),
        QtcharError, "pair padding applies to vector columns only",
    ),
    "pad spin right": (
        lambda: pad_pairs_equivalence(4, (_VEC,), (_SPIN,)),
        QtcharError, "pair padding applies to vector columns only",
    ),
    "rank 0": (lambda: DynkinDiagram("A", 0, []), QtcharError, "rank must be at least 1"),
    "edge outside": (
        lambda: DynkinDiagram.general(2, [(1, 3)]), QtcharError, "edge (1,3) outside 1..2"
    ),
}


@pytest.mark.parametrize("case", sorted(TYPED_REFUSALS))
def test_typed_refusals(case):
    call, kind, message = TYPED_REFUSALS[case]
    with pytest.raises(QtcharError) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


def test_d_tableau_sums_to_the_product(d4):
    p = DrinfeldData([(1, q(0)), (4, q(1))])
    terms = {}
    for x in enumerate_fundamental_columns(4, 1, q(0)):
        for y in enumerate_spin(4, q(1), "+"):
            m = column_monomial(4, x) * column_monomial(4, y)
            texp = 2 * (d_tableau(d4, (x, y), p) + x.l_degree(4))
            terms[m] = terms.get(m, IntLaurent.zero()) + IntLaurent.term(1, texp)
    assert standard_char_tableaux(d4, p) == Character(d4, terms)


def test_products_build_drop_families_only_for_twists(d4, d5, monkeypatch):
    calls = []
    real = tableaux_d.drop_family
    monkeypatch.setattr(tableaux_d, "drop_family", lambda n, col: calls.append(col) or real(n, col))
    lonely = [
        (d4, [(2, q(0))]),
        (d4, [(4, q(0))]),
        (d5, [(3, q(1))]),
        (d4, [(2, q(0)), (1, q(0, "b"))]),
        (d5, [(1, q(0)), (5, q(0, "b")), (2, q(0, "c"))]),
    ]
    for d, roots in lonely:
        standard_char_tableaux(d, DrinfeldData(roots))
    assert calls == []
    standard_char_tableaux(d4, DrinfeldData([(1, q(0)), (1, q(2)), (4, q(0, "b"))]))
    assert len(calls) == 16  # one family per row of the one same-base table


def test_cross_base_product_has_no_twist(d4):
    p = DrinfeldData([(4, q(0)), (3, Spectral("b", 5))])
    chi = standard_char_tableaux(d4, p)
    assert chi == standard_character(d4, p)
    assert all(c.items() == [(0, 1)] for _, c in chi.items())


def test_restricted_character():
    table = restricted_character(4, 2)
    assert sum(table.values()) == 28
    assert table.get((), 0) == 4  # zero-weight multiplicity of the adjoint
    # dropping only the barred-n over n column
    assert sum(restricted_character(4, 1).values()) == 8

    full = fundamental_char_tableaux(DynkinDiagram.type_d(4), 2, q(0))
    collapsed = {k: c.eval_at(1) for k, c in forget_spectral(full).items()}
    residual = {}
    for k, c in collapsed.items():
        delta = c - table.get(k, 0)
        if delta:
            residual[k] = delta
    assert residual == {(): 1}


def test_restricted_branching_d5():
    # odd top weight: the residual over the restricted sum is the vector module
    table = restricted_character(5, 3)
    assert sum(table.values()) == 120
    full = fundamental_char_tableaux(DynkinDiagram.type_d(5), 3, q(0))
    collapsed = {k: c.eval_at(1) for k, c in forget_spectral(full).items()}
    residual = {}
    for k, c in collapsed.items():
        delta = c - table.get(k, 0)
        if delta:
            residual[k] = delta
    assert sum(residual.values()) == 10
    assert all(v == 1 for v in residual.values())


def test_pad_pairs():
    n = 4
    up = DColumn([Letter(1), Letter(2)], q(0))
    down = DColumn([bar(2), bar(1)], q(2 - 2 * n))
    assert (column_monomial(n, up) * column_monomial(n, down)).is_unit()
    res = pad_pairs_equivalence(n, (up, down), ())
    assert res is not None and is_equivalent(*res)

    t = (DColumn([Letter(2)], q(0)),)
    assert pad_pairs_equivalence(n, t, t) == (t, t)
    assert (
        pad_pairs_equivalence(n, t, (DColumn([Letter(3)], q(0)),)) is None
    )


def test_pad_pairs_randomized_iff():
    n = 4
    rng = random.Random(23)
    cols = enumerate_fundamental_columns(n, 1, q(0)) + enumerate_fundamental_columns(
        n, 2, q(1)
    )
    for _ in range(250):
        ta = tuple(rng.choice(cols) for _ in range(rng.randint(0, 2)))
        tb = tuple(rng.choice(cols) for _ in range(rng.randint(0, 2)))
        ma = Monomial.one()
        for c in ta:
            ma = ma * column_monomial(n, c)
        mb = Monomial.one()
        for c in tb:
            mb = mb * column_monomial(n, c)
        res = pad_pairs_equivalence(n, ta, tb)
        assert (res is not None) == (ma == mb), (ta, tb)
        if res:
            assert is_equivalent(*res)


def test_right_negative_tail_of_vector_columns():
    from qtchar.yalgebra import is_right_negative

    for n, N in ((4, 1), (4, 2), (5, 2)):
        head = DColumn([Letter(i) for i in range(1, N + 1)], q(0))
        for col in enumerate_fundamental_columns(n, N, q(0)):
            m = column_monomial(n, col)
            if col != head:
                assert is_right_negative(m), col


def test_render_and_json():
    col = DColumn([Letter(2), bar(2)], q(-1))
    sp = SpinColumn([Letter(1), Letter(2), Letter(3), bar(4)], q(0))
    text = render_text((col,))
    assert "2" in text and "̄" in text
    # spin cells are half width and marked with '!'
    assert render_text((col, sp)).splitlines() == [
        "   1!  aq^3",
        "   2!  aq",
        " 2      a",
        "   3!  aq^-1",
        "2̄      aq^-2",
        "   4̄!  aq^-3",
    ]
    data = column_to_json(sp)
    assert data["spin"] == "-"
    assert data["entries"][3] == {"value": 4, "bar": True}
    assert column_to_json(col) == {
        "entries": [{"value": 2, "bar": False}, {"value": 2, "bar": True}],
        "base": "a",
        "qexp": -1,
    }


def test_column_membership_agrees_with_the_enumerated_pools():
    # d_tableau reads a column's membership off the column; the enumerated
    # pool (as a set: Column hashes agree with its equality) must say the
    # same on every column of every D4-D7 pool and on each one-letter change
    for n in range(4, 8):
        letters = alphabet(n)
        for node in range(1, n + 1):
            f = FundamentalSpec(node, q(1, "b"))
            pool = tableaux_d._columns(n, f)
            members = set(pool)
            kind = type(pool[0])
            seen = set()
            for col in pool:
                for p in range(col.length):
                    for x in letters:
                        entries = col.entries[:p] + (x,) + col.entries[p + 1:]
                        seen.add(entries)
            for entries in seen:
                col = kind(entries, f.spectral)
                assert tableaux_d._realizes(n, f, col) == (col in members), (n, node, col)
            assert sum(kind(e, f.spectral) in members for e in seen) == len(pool)
            others = [kind(pool[0].entries, q(1)), AColumn([1], f.spectral), "x"]
            assert not any(tableaux_d._realizes(n, f, col) for col in others)
