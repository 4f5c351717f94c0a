"""Type A closed formulas: box chain, column tableaux, and tableaux sums.

A column of length N centered at a occupies the spectral string
a q^(N-1), a q^(N-3), ..., a q^(1-N) (row p sits at a q^(N+1-2p)) and maps
each row to a letter in 1..n+1; lookups off the support return 0.  The
character of a product module is the sum over column-increasing tableaux of
t^(2d(T)) m_T with d summed over ordered column pairs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from math import comb, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceededError, OutOfRangeError, env_cap
from .rootdata import DynkinDiagram
from .yalgebra import Character, DrinfeldData, FundamentalSpec, Monomial, Raw, Spectral
from .yalgebra import _TEMPLATE_ROWS, _class_product, _Templates


class Column:
    """Entries at center a; row p (top first) sits at a q^(N+1-2p).

    The one home of the row geometry of type A, vector and spin columns;
    each kind sets its box rule box(n, entry, spectral) -> Monomial.
    Columns are equal when they are of the same kind with the same entries
    and center.
    """

    __slots__ = ("entries", "center")
    half_width = False  # render_text draws spin columns' cells half width

    def __init__(self, entries: Iterable, center: Spectral):
        self.entries = tuple(entries)
        self.center = center
        if not self.entries:
            raise OutOfRangeError("column needs at least one row")

    @property
    def length(self) -> int:
        return len(self.entries)

    def entry(self, p: Optional[int]):
        """Row p entry (1-based); None for p None or outside the column."""
        if p is not None and 1 <= p <= len(self.entries):
            return self.entries[p - 1]
        return None

    def rows(self) -> List[Tuple[Spectral, object]]:
        """(spectral parameter, entry) per row, top row first."""
        N = len(self.entries)
        return [(self.center.shift(N + 1 - 2 * p), x) for p, x in enumerate(self.entries, 1)]

    def entry_at(self, k: int):
        """Entry of the row at center q^k (rows() solved for p); None off it."""
        twice_p = len(self.entries) + 1 - k
        return None if twice_p % 2 else self.entry(twice_p // 2)

    def _key(self) -> tuple:
        return (type(self), self.entries, self.center)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ",".join(map(str, self.entries))
        return f"[{body}]_{self.center}"

    def l_degree(self, n: int) -> int:
        """The column's l-degree: 0 but for type D vector columns."""
        return 0


@lru_cache(maxsize=256)
def box_monomial(n: int, i: int, a: Spectral) -> Monomial:
    """Letter i at spectral a: Y(i-1, aq^i)^-1 Y(i, aq^(i-1)), ends truncated.

    Cached: the columns of one fundamental reuse at most (n+1)n boxes, and
    monomials are immutable."""
    if not (1 <= i <= n + 1):
        raise OutOfRangeError(f"letter {i} outside 1..{n + 1}")
    e: Dict[Tuple[int, Spectral], int] = {}
    if i <= n:
        e[(i, a.shift(i - 1))] = 1
    if i >= 2:
        e[(i - 1, a.shift(i))] = -1
    return Monomial(e)


class AColumn(Column):
    """Strict or general column: letters i_1..i_N in 1..n+1 at center a."""

    __slots__ = ()
    box = staticmethod(box_monomial)


Tableau = Tuple[AColumn, ...]


def column_monomial(n: int, col: Column) -> Monomial:
    """Product of the column's row boxes, each from its kind's box rule."""
    box = col.box
    out = Monomial.one()
    for b, x in col.rows():
        out = out * box(n, x, b)
    return out


def tableau_monomial(n: int, t: Tableau) -> Monomial:
    out = Monomial.one()
    for col in t:
        out = out * column_monomial(n, col)
    return out


def _strict_count(n: int, N: int) -> int:
    """C(n+1, N): how many strict columns of length N, in 1..n, there are."""
    if not (1 <= N <= n):
        raise OutOfRangeError(f"column length {N} outside 1..{n}")
    return comb(n + 1, N)


def enumerate_fundamental_columns(n: int, N: int, a: Spectral) -> List[AColumn]:
    """All strictly increasing columns of length N over 1..n+1."""
    _strict_count(n, N)  # refuses N outside 1..n
    return [AColumn(c, a) for c in combinations(range(1, n + 2), N)]


def _columns(n: int, f: FundamentalSpec) -> List[AColumn]:
    """The columns realizing the factor f."""
    return enumerate_fundamental_columns(n, f.node, f.spectral)


PoolRow = Tuple[Column, Monomial, int]

# The pool templates, one per shape (see _pool)
_templates = _Templates()


def _pool(n: int, columns: Callable, f: FundamentalSpec) -> List[PoolRow]:
    """One (column, monomial, l-degree) row per column of columns(n, f).

    Columns reach their spectral parameters only through their centre, so a
    shape (columns, n, node) is built once, at its first call's centre, and
    kept as a template: the column kind, the distinct variables as (node,
    qexp offset) and per column its entries, (variable position, exponent)
    pairs and l-degree.  A later call maps the variables once to f's base and
    shift, then re-keys each row (Monomial._family) and builds its column at f."""
    key = (columns, n, f.node)
    a = f.spectral
    template = _templates.take(key)
    if template is None:
        pool = [(col, column_monomial(n, col), col.l_degree(n)) for col in columns(n, f)]
        if len(pool) <= _TEMPLATE_ROWS:  # a larger pool is not kept
            index, pairs, rows = {}, {}, []  # pairs keeps one object per equal pair
            for col, m, deg in pool:
                items = []
                for pair in m._e.items():
                    pair = (index.setdefault(pair[0], len(index)), pair[1])
                    items.append(pairs.setdefault(pair, pair))
                rows.append(tuple(items))
            cols, _, degs = zip(*pool)
            variables = tuple((i, b.qexp - a.qexp) for i, b in index)
            _templates.keep(key, (type(cols[0]), variables, rows, [c.entries for c in cols], degs))
        return pool
    kind, variables, rows, entries, degs = template
    keys = [(i, Spectral(a.base, k + a.qexp)) for i, k in variables]
    return list(zip(map(kind, entries, repeat(a)), Monomial._family(keys, rows), degs))


def _column_sum(d: DynkinDiagram, size: int, columns: Callable, f: FundamentalSpec) -> Character:
    """Sum of t^(2 l) m over the pool rows of the size columns realizing f.
    Raises CapExceededError past QCHAR_MAX_TERMS columns, before any is
    enumerated."""
    cap = env_cap()
    if size > cap:
        raise CapExceededError(f"tableaux sum exceeded {cap} terms: {size}")
    return Character._from_raw(d, _walk([_pool(d.rank, columns, f)], [[]]))


def fundamental_char_tableaux(d: DynkinDiagram, N: int, a: Spectral) -> Character:
    """Sum of column monomials over the strict columns, all coefficients 1."""
    if d.kind != "A":
        raise OutOfRangeError("type A tableaux need a type A diagram")
    return _column_sum(d, _strict_count(d.rank, N), _columns, FundamentalSpec(N, a))


def s_offset(ca: AColumn, cb: AColumn) -> Optional[int]:
    """Half the q-gap between column tops, None when not commensurable."""
    if ca.center.base != cb.center.base:
        return None
    diff = (ca.center.qexp + ca.length) - (cb.center.qexp + cb.length)
    if diff % 2:
        return None
    return diff // 2


def d_columns(ca: AColumn, cb: AColumn) -> int:
    """Closed pair statistic.

    Counts rows where cb's letter is pinched strictly between ca's letters in
    consecutive rows, with boundary corrections one row below ca's bottom.
    Zero whenever the supports live in different q^2-classes.
    """
    s = s_offset(ca, cb)
    return 0 if s is None else _pinched(ca.entries, cb.entries, s)


def _pinched(xa: Tuple[int, ...], xb: Tuple[int, ...], s: int) -> int:
    """d_columns on the entries of two columns at the row offset s: row p of
    cb sits beside row p + s of ca, so the row one below ca's bottom (row
    len(xa) + 1) sits beside cb's row len(xa) + 1 - s."""
    na = len(xa)
    total = 0
    # only rows beside ca can be pinched: ca reads 0 off its rows
    for p in range(max(1, 1 - s), min(len(xb), na - s) + 1):
        k = p + s - 1
        if (xa[k - 1] if k else 0) < xb[p - 1] < xa[k]:
            total += 1
    j = na - s
    below = xb[j] if 0 <= j < len(xb) else 0
    if na < below <= xa[-1]:
        total -= 1
    if s >= 1 and na < below:
        total += 1
    return total


def _d_table(xs: Sequence[PoolRow], ys: Sequence[PoolRow]) -> List[List[int]]:
    """d_columns of the ordered column pairs of two pools; a pool's columns
    share one center and length, so one row offset serves the table.  The two
    pools lie in one interaction class, so s_offset is never None here."""
    s = s_offset(xs[0][0], ys[0][0])
    return [[_pinched(x[0].entries, y[0].entries, s) for y in ys] for x in xs]


def _walk(pools: List[List[PoolRow]], tables: List[List[Tuple[int, List[List[int]]]]]) -> Raw:
    """Raw sum of t^(2 sum l + 2 sum twist) m_T over tableaux with one column per pool.

    pools[k] holds one (column, monomial, l-degree) row per column; tables[b]
    lists (a, table) for pools a < b, where table[j][k] is the twist of the
    column pair (pools[a][j], pools[b][k]).  The walk only multiplies
    monomials and looks twists up; each prefix's monomial and exponent are
    shared by all of its extensions.
    """
    terms: Raw = {}
    last = len(pools) - 1

    def place(b: int, chosen: Tuple[int, ...], mono: Monomial, expo: int) -> None:
        rows = [table[chosen[a]] for a, table in tables[b]]
        twists = [sum(c) for c in zip(*rows)] if rows else repeat(0)
        if b == last:
            # the leaf level: one monomial merge and one dict update per tableau
            for (_, m, deg), tw in zip(pools[b], twists):
                key = mono * m
                e = 2 * (expo + deg + tw)
                c = terms.get(key)
                if c is None:
                    terms[key] = {e: 1}
                else:
                    c[e] = c.get(e, 0) + 1
            return
        for k, ((_, m, deg), tw) in enumerate(zip(pools[b], twists)):
            place(b + 1, chosen + (k,), mono * m, expo + deg + tw)

    place(0, (), Monomial.one(), 0)
    return terms


def _tableaux_sum(
    d: DynkinDiagram,
    p: DrinfeldData,
    count: Callable[[int, FundamentalSpec], int],
    columns: Callable[[int, FundamentalSpec], List[Column]],
    twist_table: Callable[[Sequence[PoolRow], Sequence[PoolRow]], List[List[int]]],
) -> Character:
    """Sum of t^(2 sum l + 2 sum twist) m_T over tableaux with one column per root of p.

    columns(n, f) gives the count(n, f) columns realizing the factor f, and
    each distinct factor's pool of (column, monomial, l-degree) rows is taken
    once from _pool; twist_table(xs, ys)[j][k] is the pair statistic of the
    ordered column pair (xs[j], ys[k]).  Twists vanish across interaction classes
    (DrinfeldData.classes), so each class is walked on its own, with one
    table per pool pair alpha < beta, and the classes' sums multiply with no
    twist.  Raises CapExceededError, before any column is enumerated, when
    the product of the counts over the roots, which bounds every class join,
    exceeds QCHAR_MAX_TERMS.
    """
    n = d.rank
    cap = env_cap()
    size = prod(count(n, f) for f in p.roots)
    if size > cap:
        raise CapExceededError(
            f"tableaux product of {len(p)} factors exceeded {cap} terms: {size}"
        )
    pool = {f: _pool(n, columns, f) for f in dict.fromkeys(p.roots)}

    def walk(cls: DrinfeldData) -> Raw:
        ps = [pool[f] for f in cls.roots]
        tables = [[(a, twist_table(ps[a], ps[b])) for a in range(b)] for b in range(len(ps))]
        return _walk(ps, tables)

    return _class_product(d, p, walk, cap)


def standard_char_tableaux(d: DynkinDiagram, p: DrinfeldData) -> Character:
    """Tableaux sum for a product module: sum of t^(2d(T)) m_T, d from d_columns."""
    if d.kind != "A":
        raise OutOfRangeError("type A tableaux need a type A diagram")
    return _tableaux_sum(d, p, lambda n, f: _strict_count(n, f.node), _columns, _d_table)


# ---------------------------------------------------------------------------
# Equivalence, padding, and dominant column forms


def _row_counts(t: Iterable[Column]) -> Dict[Tuple[Spectral, object], int]:
    """How often each (spectral parameter, entry) row occurs in the columns."""
    counts: Dict[Tuple[Spectral, object], int] = {}
    for col in t:
        for key in col.rows():
            counts[key] = counts.get(key, 0) + 1
    return counts


def is_equivalent(ta: Iterable[Column], tb: Iterable[Column]) -> bool:
    """Same letter multiset in every row."""
    return _row_counts(ta) == _row_counts(tb)


def full_column(n: int, bottom_center: Spectral) -> AColumn:
    return AColumn(range(1, n + 2), bottom_center)


def pad_to_equivalent(
    n: int, ta: Tableau, tb: Tableau
) -> Optional[Tuple[Tableau, Tableau]]:
    """Pad with full columns 1..n+1 until the tableaux are equivalent.

    Succeeds exactly when the two monomials agree: the letter-i count at
    a q^(2n+2-2i) must then be independent of i, and that common defect says
    how many full columns to add on each side.  Anchors are visited in
    (base, qexp) order, so the pads come out in that order.
    """
    ca, cb = _row_counts(ta), _row_counts(tb)

    def diff(i: int, b: Spectral) -> int:
        return ca.get((b, i), 0) - cb.get((b, i), 0)

    anchors = set()
    for b, i in set(ca) | set(cb):
        anchors.add(b.shift(2 * i - 2 * n - 2))
    pads_a: List[AColumn] = []
    pads_b: List[AColumn] = []
    for anchor in sorted(anchors):
        vals = {diff(i, anchor.shift(2 * n + 2 - 2 * i)) for i in range(1, n + 2)}
        if len(vals) != 1:
            return None
        defect = vals.pop()
        col = full_column(n, anchor.shift(n))
        if defect > 0:
            pads_b.extend([col] * defect)
        elif defect < 0:
            pads_a.extend([col] * (-defect))
    return _padded(ta, tb, pads_a, pads_b)


def _padded(ta: Iterable[Column], tb: Iterable[Column], pads_a: List[Column], pads_b: List[Column]):
    """The padded pair (ta + pads_a, tb + pads_b), as tuples, when it is
    equivalent; None otherwise."""
    ta2, tb2 = tuple(ta) + tuple(pads_a), tuple(tb) + tuple(pads_b)
    return (ta2, tb2) if is_equivalent(ta2, tb2) else None


def ldominant_column_form(n: int, t: Tableau) -> Optional[Tableau]:
    """An equivalent-after-padding tableau whose columns are initial segments.

    Present exactly when the tableau monomial is dominant: each variable
    Y(N,a) with positive exponent contributes columns 1..N centered at a.
    """
    m = tableau_monomial(n, t)
    if not m.is_l_dominant():
        return None
    cols = []
    for (node, a), v in m.items():
        cols.extend([AColumn(range(1, node + 1), a)] * v)
    target = tuple(cols)
    padded = pad_to_equivalent(n, t, target)
    if padded is None:
        return None
    return padded[1]


def render_text(t: Iterable[Column]) -> str:
    """Rows aligned by spectral parameter, highest q-power on top; the cells
    of half-width (spin) columns are marked with '!'."""
    placed = [({(b.base, b.qexp): str(x) for b, x in col.rows()}, col.half_width) for col in t]
    keys = sorted({k for cells, _ in placed for k in cells}, key=lambda k: (k[0], -k[1]))
    lines = []
    for key in keys:
        row = []
        for cells, half in placed:
            v = cells.get(key, "")
            row.append(f"{v:>1}!" if half and v else f"{v:>2} ")
        lines.append("".join(row) + f"  {Spectral(*key)}")
    return "\n".join(lines)


def tableau_to_json(t: Tableau) -> list:
    return [
        {"entries": list(col.entries), "base": col.center.base, "qexp": col.center.qexp}
        for col in t
    ]
