"""Type D closed formulas: barred alphabet, vector and spin columns.

Letters are 1 < 2 < ... < n-1 < {n, nbar} < barred(n-1) < ... < barred(1),
with n and nbar incomparable.  Vector columns (length at most n-2) allow
weakly separated consecutive entries: strictly increasing where comparable,
with n/nbar free to alternate.  Spin columns take one letter from each pair
{i, ibar}, sorted; their chirality is the parity of their barred letters.
Both kinds are tableaux_a.Column subclasses, so row p sits at center
q^(N+1-2p), and multiply per-row box monomials; spin rows use half-size
boxes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import tableaux_a
from .errors import OutOfRangeError, QtcharError
from .laurent import _axpy
from .rootdata import DynkinDiagram
from .tableaux_a import (  # render_text, column_monomial and _pool serve both types
    Column,
    PoolRow,
    _column_sum,
    _padded,
    _pool,
    _row_counts,
    _tableaux_sum,
    column_monomial,
    is_equivalent,
    render_text,
)
from .yalgebra import Character, DrinfeldData, FundamentalSpec, Monomial, Spectral


class Letter(NamedTuple):
    """A letter i or ibar of the rank-n alphabet."""

    value: int
    barred: bool = False

    def __str__(self) -> str:
        return f"{self.value}̄" if self.barred else str(self.value)

    __repr__ = __str__


def bar(value: int) -> Letter:
    return Letter(value, True)


def alphabet(n: int) -> List[Letter]:
    return [Letter(i) for i in range(1, n + 1)] + [bar(i) for i in range(n, 0, -1)]


def _rank(n: int, x: Letter) -> int:
    """Position along the chain; n and nbar share a rank but stay incomparable."""
    return x.value if not x.barred else 2 * n - x.value


def prec(n: int, x: Letter, y: Letter) -> bool:
    """Strict comparability order; false for the incomparable pair {n, nbar}."""
    if x.value == n and y.value == n and x.barred != y.barred:
        return False
    return _rank(n, x) < _rank(n, y)


def preceq(n: int, x: Letter, y: Letter) -> bool:
    return x == y or prec(n, x, y)


@lru_cache(maxsize=256)
def box_monomial(n: int, x: Letter, a: Spectral) -> Monomial:
    """Full-size box for the vector alphabet (cached like tableaux_a's); an
    unbarred letter i <= n-2 is type A's box."""
    if not (1 <= x.value <= n):
        raise OutOfRangeError(f"letter {x} outside rank {n}")
    i = x.value
    if not x.barred:
        if i <= n - 2:
            return tableaux_a.box_monomial(n, i, a)
        if i == n - 1:
            return Monomial(
                {
                    (n - 2, a.shift(n - 1)): -1,
                    (n - 1, a.shift(n - 2)): 1,
                    (n, a.shift(n - 2)): 1,
                }
            )
        return Monomial({(n - 1, a.shift(n)): -1, (n, a.shift(n - 2)): 1})
    if i == n:
        return Monomial({(n - 1, a.shift(n - 2)): 1, (n, a.shift(n)): -1})
    if i == n - 1:
        return Monomial(
            {
                (n - 2, a.shift(n - 1)): 1,
                (n - 1, a.shift(n)): -1,
                (n, a.shift(n)): -1,
            }
        )
    e = {(i, a.shift(2 * n - 1 - i)): -1}
    if i >= 2:
        e[(i - 1, a.shift(2 * n - 2 - i))] = 1
    return Monomial(e)


@lru_cache(maxsize=256)
def half_box_monomial(n: int, x: Letter, a: Spectral) -> Monomial:
    """Half-size box for spin columns (cached like tableaux_a's); an unbarred
    letter i <= n-2 is type A's box one step lower."""
    if not (1 <= x.value <= n):
        raise OutOfRangeError(f"letter {x} outside rank {n}")
    i = x.value
    if not x.barred:
        if i <= n - 2:
            return tableaux_a.box_monomial(n, i, a.shift(-1))
        if i == n - 1:
            return Monomial({(n - 2, a.shift(n - 2)): -1})
        return Monomial({(n, a.shift(n - 1)): 1})
    if i == n:
        return Monomial({(n - 1, a.shift(n - 1)): 1})
    if i == n - 1:
        return Monomial({(n - 1, a.shift(n + 1)): -1, (n, a.shift(n + 1)): -1})
    return Monomial.one()


class DColumn(Column):
    """Vector column: letters at center a, rows spaced by q^2."""

    __slots__ = ()
    box = staticmethod(box_monomial)

    def l_degree(self, n: int) -> int:
        """Rows opening an (i, ibar) pair at vertical distance n-1-i, i <= n-2."""
        count = 0
        for p, x in enumerate(self.entries, start=1):
            if not x.barred and x.value <= n - 2:
                count += self.entry(p + n - 1 - x.value) == bar(x.value)
        return count


class SpinColumn(Column):
    """Half-width column of length n, one letter per {i, ibar} class (so l-degree 0)."""

    __slots__ = ()
    half_width = True
    box = staticmethod(half_box_monomial)

    @property
    def chirality(self) -> str:
        """'+' for an even number of barred letters, '-' for an odd number."""
        return "-" if sum(x.barred for x in self.entries) % 2 else "+"

    def __repr__(self) -> str:
        body = ",".join(map(str, self.entries))
        return f"sp{self.chirality}[{body}]_{self.center}"


DTableau = Tuple[Column, ...]


def column_top(n: int, col: Column) -> Monomial:
    """The dominant monomial heading the column's fundamental character."""
    if isinstance(col, SpinColumn):
        node = n if col.chirality == "+" else n - 1
        return Monomial.y(node, col.center)
    return Monomial.y(col.length, col.center)


def _vector_count(n: int, N: int) -> int:
    """Sum over k of C(2n, N-2k): how many vector columns of length N, in
    1..n-2, there are."""
    if not (1 <= N <= n - 2):
        raise OutOfRangeError(f"vector column length {N} outside 1..{n - 2}")
    return sum(comb(2 * n, N - 2 * k) for k in range(N // 2 + 1))


@lru_cache(maxsize=None)
def _successors(n: int) -> Tuple[List[Letter], List[List[int]]]:
    """The alphabet, and after[j]: the positions of the letters that may
    follow letters[j] in a vector column."""
    letters = alphabet(n)
    return letters, [[k for k, x in enumerate(letters) if not preceq(n, x, y)] for y in letters]


def enumerate_fundamental_columns(n: int, N: int, a: Spectral) -> List[DColumn]:
    """All admissible vector columns of length N at center a."""
    _vector_count(n, N)  # refuses N outside 1..n-2
    letters, after = _successors(n)
    cols: List[DColumn] = []
    prefix: List[Letter] = []

    def extend(options: Sequence[int]):
        if len(prefix) == N:
            cols.append(DColumn(prefix, a))
            return
        for k in options:
            prefix.append(letters[k])
            extend(after[k])
            prefix.pop()

    extend(range(len(letters)))
    return cols


def fundamental_char_tableaux(d: DynkinDiagram, N: int, a: Spectral) -> Character:
    """Vector fundamental: sum of t^(2 l(T)) m_T over admissible columns."""
    if d.kind != "D":
        raise OutOfRangeError("type D tableaux need a type D diagram")
    return _column_sum(d, _vector_count(d.rank, N), _columns, FundamentalSpec(N, a))


def _spin_count(n: int, chirality: str) -> int:
    """2^(n-1): how many spin columns of either chirality there are."""
    if n < 4:
        raise OutOfRangeError("spin columns need rank >= 4")
    if chirality not in ("+", "-"):
        raise OutOfRangeError("chirality must be '+' or '-'")
    return 2 ** (n - 1)


def enumerate_spin(n: int, a: Spectral, chirality: str) -> List[SpinColumn]:
    """The 2^(n-1) spin columns: one letter per {i, ibar} class, sorted,
    with an even ('+') or odd ('-') number of barred letters."""
    _spin_count(n, chirality)  # refuses a rank below 4 or a bad chirality
    letters = alphabet(n)  # shared by every column
    return [
        SpinColumn(_spin_entries(n, letters, signs, chirality), a)
        for signs in product((False, True), repeat=n - 1)
    ]


def _spin_entries(n: int, letters: list, signs: Sequence[bool], chirality: str) -> List[Letter]:
    """The spin column's entries with ibar for each i < n with signs[i - 1],
    and n or nbar as the chirality asks; barred i sits at letters[2n - i]."""
    barred = [i for i in range(1, n) if signs[i - 1]]
    n_barred = (len(barred) % 2 == 1) == (chirality == "+")
    entries = [letters[i - 1] for i in range(1, n) if not signs[i - 1]]
    entries.append(letters[n if n_barred else n - 1])
    return entries + [letters[2 * n - i] for i in reversed(barred)]


def spin_char(d: DynkinDiagram, a: Spectral, chirality: str) -> Character:
    """Spin fundamental: plain sum of the spin column monomials."""
    if d.kind != "D":
        raise OutOfRangeError("type D tableaux need a type D diagram")
    n = d.rank
    f = FundamentalSpec(n if chirality == "+" else n - 1, a)
    return _column_sum(d, _spin_count(n, chirality), _columns, f)


def spin_flip(n: int, col: SpinColumn, p: int) -> Optional[SpinColumn]:
    """Replace (i at row p, barred(i+1)) by (i+1, ibar), or (n-1, n) by
    (nbar, barred(n-1)); None when the pattern is absent."""
    x = col.entry(p)
    if x is None or x.barred:
        return None
    entries = list(col.entries)
    if x.value <= n - 1:
        target = bar(x.value + 1)
        if x.value == n - 1 and col.entry(p + 1) == Letter(n):
            entries[p - 1] = bar(n)
            entries[p] = bar(n - 1)
            return SpinColumn(entries, col.center)
        if target in entries:
            j = entries.index(target)
            entries[p - 1] = Letter(x.value + 1)
            entries[j] = bar(x.value)
            return SpinColumn(entries, col.center)
    return None


# ---------------------------------------------------------------------------
# Closed exponent formulas (checked against the monomials) and the drop
# families that the product twist reads


def closed_u(n: int, col: DColumn, i: int, s: int) -> int:
    """Closed exponent of Y(i, aq^s) for a vector column.

    Row p at a q^k contributes through its letter at k = s - i + 1 and its
    barred letter at k = s + i + 3 - 2n for i < n, and at k = s - n + 2 for
    i = n; the next row (k - 2) carries the negative part.
    """
    if i == n:
        x, y = col.entry_at(s - n + 2), col.entry_at(s - n)
        return (
            int(x == Letter(n - 1))
            + int(x == Letter(n))
            - int(y == bar(n))
            - int(y == bar(n - 1))
        )
    k, kk = s - i + 1, s + i + 3 - 2 * n
    return (
        int(col.entry_at(k) == Letter(i))
        - int(col.entry_at(k - 2) == Letter(i + 1))
        + int(col.entry_at(kk) == bar(i + 1))
        - int(col.entry_at(kk - 2) == bar(i))
    )


def closed_u_spin(n: int, col: SpinColumn, i: int, s: int) -> int:
    """Closed exponent of Y(i, aq^s) for a spin column.

    Unbarred rows sit at k = s - i + 2; the node n-1 and n lines read the row
    at k = s - n + 1, with the negative contribution one row lower, coming
    from the barred(n-1) half box which carries both variables.
    """
    if i <= n - 2:
        k = s - i + 2
        return int(col.entry_at(k) == Letter(i)) - int(col.entry_at(k - 2) == Letter(i + 1))
    k = s - n + 1
    head = Letter(n, True) if i == n - 1 else Letter(n)
    return int(col.entry_at(k) == head) - int(col.entry_at(k - 2) == bar(n - 1))


def spin_drop_family(n: int, col: SpinColumn) -> Dict[Tuple[int, Spectral], int]:
    """Root-monomial multiplicities separating a spin column from its head.

    The family is a closed staircase: with b_0 < b_1 < ... the values v <= n-1
    of the column's barred letters, it holds A(f_k, aq^(2k+1)) and
    A(i, aq^(2k+n-i)) for b_k <= i <= n-2, each once, where f_k is the head's
    node for even k and the other spin node for odd k.
    """
    a = col.center
    spin_nodes = (n, n - 1) if col.chirality == "+" else (n - 1, n)
    barred = sorted(x.value for x in col.entries if x.barred and x.value <= n - 1)
    family: Dict[Tuple[int, Spectral], int] = {}
    for k, b in enumerate(barred):
        family[(spin_nodes[k % 2], a.shift(2 * k + 1))] = 1
        for i in range(b, n - 1):
            family[(i, a.shift(2 * k + n - i))] = 1
    return family


def drop_family(n: int, col: Column) -> Dict[Tuple[int, Spectral], int]:
    """Root-monomial multiplicities separating a column from its head.

    Spin columns take the closed staircase (spin_drop_family).  A vector column
    walks its rows once: the letter x at b drops A(i, bq^i) for each
    p <= i <= n-2 with i < x, A(i, bq^(2n-2-i)) for each i <= n-2 with
    ibar <= x, and A(n-1, bq^(n-1)), A(n, bq^(n-1)) when n, resp. nbar, <= x.
    """
    if isinstance(col, SpinColumn):
        return spin_drop_family(n, col)
    family: Dict[Tuple[int, Spectral], int] = {}

    def add(node: int, b: Spectral) -> None:
        family[(node, b)] = family.get((node, b), 0) + 1

    for p, (b, x) in enumerate(col.rows(), start=1):
        for i in range(1, n - 1):
            if p <= i and prec(n, Letter(i), x):
                add(i, b.shift(i))
            if preceq(n, bar(i), x):
                add(i, b.shift(2 * n - 2 - i))
        for node, head in ((n - 1, Letter(n)), (n, bar(n))):
            if preceq(n, head, x):
                add(node, b.shift(n - 1))
    return family


# ---------------------------------------------------------------------------
# Product modules


def _columns(n: int, f: FundamentalSpec) -> List[Column]:
    """The columns realizing one fundamental factor."""
    _count(n, f)  # refuses a node that type D does not realize
    if f.node <= n - 2:
        return enumerate_fundamental_columns(n, f.node, f.spectral)
    return enumerate_spin(n, f.spectral, "+" if f.node == n else "-")


def _count(n: int, f: FundamentalSpec) -> int:
    """The closed-form number of columns _columns(n, f) gives, with its refusals."""
    if f.node <= n - 2:
        return _vector_count(n, f.node)
    if f.node in (n - 1, n):
        return _spin_count(n, "+")  # either chirality counts 2^(n-1)
    raise OutOfRangeError(f"node {f.node} outside rank {n}")


def _realizes(n: int, f: FundamentalSpec, col) -> bool:
    """Whether col is one of _columns(n, f), read off col alone: a spin column
    is rebuilt from its barred letters, a vector column's letters are read
    through the enumerator's successor table."""
    _count(n, f)  # refuses a node that type D does not realize
    if f.node > n - 2:
        signs = [type(col) is SpinColumn and bar(i) in col.entries for i in range(1, n)]
        chirality = "+" if f.node == n else "-"
        return col == SpinColumn(_spin_entries(n, alphabet(n), signs, chirality), f.spectral)
    if type(col) is not DColumn or len(col.entries) != f.node or col.center != f.spectral:
        return False
    letters, after = _successors(n)
    ks = [letters.index(x) if x in letters else None for x in col.entries]
    return None not in ks and all(k in after[j] for j, k in zip(ks, ks[1:]))


def _twist_table(n: int, xs: Sequence[PoolRow], ys: Sequence[PoolRow]) -> List[List[int]]:
    """Twist exponents of the ordered column pairs of two same-class pools.

    The twist of (x, y) sums x's drops at (i,cq) against u(y's monomial) at
    (i,c), plus u(x's head) at (i,cq) against y's drops at (i,c).  The ys'
    monomials are indexed by variable, so a drop of x visits only the ys
    that carry its variable; the half that reads y alone is built once.
    """
    carriers: Dict[Tuple[int, Spectral], List[Tuple[int, int]]] = {}
    for k, (_, m, _) in enumerate(ys):
        for key, u in m._e.items():
            carriers.setdefault(key, []).append((k, u))
    top = column_top(n, xs[0][0])
    heads = [((i, c.shift(-1)), u) for (i, c), u in top._e.items()]
    right = []
    for y in ys:
        drops = drop_family(n, y[0])
        right.append(sum(u * drops.get(k, 0) for k, u in heads))
    table = []
    for x in xs:
        row = list(right)
        for (i, c), v in drop_family(n, x[0]).items():
            for k, u in carriers.get((i, c.shift(-1)), ()):
                row[k] += v * u
        table.append(row)
    return table


def d_tableau(d: DynkinDiagram, t: DTableau, p: DrinfeldData) -> int:
    """Sum of pairwise twist exponents over ordered column pairs of t.

    The columns must realize the ordered factors of p in order.
    """
    n = d.rank
    if len(p.roots) != len(t):
        raise QtcharError("tableau width differs from the factor count")
    for f, col in zip(p.roots, t):
        if not _realizes(n, f, col):
            raise QtcharError(f"column {col} does not realize factor {f}")
    rows = [(col, column_monomial(n, col), col.l_degree(n)) for col in t]
    return sum(
        _twist_table(n, [rows[a]], [rows[b]])[0][0] for b in range(len(rows)) for a in range(b)
    )


def standard_char_tableaux(d: DynkinDiagram, p: DrinfeldData) -> Character:
    """Tableaux sum for a product module: sum of t^(2d(T)+2l(T)) m_T."""
    if d.kind != "D":
        raise OutOfRangeError("type D tableaux need a type D diagram")
    n = d.rank
    return _tableaux_sum(d, p, _count, _columns, lambda xs, ys: _twist_table(n, xs, ys))


# ---------------------------------------------------------------------------
# Restriction to the finite-type subalgebra


def restricted_character(n: int, N: int) -> Dict[Tuple[Tuple[int, int], ...], int]:
    """Spectral-free character of the classical module with highest weight N.

    Keeps the columns avoiding a barred-n immediately above an n and
    collapses Y(i, a) to y(i) at t = 1.
    """
    out: Dict[Tuple[Tuple[int, int], ...], int] = {}
    for col in enumerate_fundamental_columns(n, N, Spectral("a", 0)):
        if any(
            col.entries[p] == bar(n) and col.entries[p + 1] == Letter(n)
            for p in range(N - 1)
        ):
            continue
        key = column_monomial(n, col).weight().items()
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Equality of tableau monomials via pair padding


def pad_pairs_equivalence(
    n: int, ta: Tuple[DColumn, ...], tb: Tuple[DColumn, ...]
) -> Optional[Tuple[Tuple[DColumn, ...], Tuple[DColumn, ...]]]:
    """Pad with column pairs (1..i at c, ibar..1bar at c q^(2-2n)) until the
    tableaux are equivalent; succeeds exactly when the monomials agree.

    Works outward from the largest class: the defect of class i at its
    anchor row determines how many pairs to add, matching the letter counts
    of both the unbarred and the barred member.
    """
    if any(isinstance(c, SpinColumn) for t in (ta, tb) for c in t):
        raise QtcharError("pair padding applies to vector columns only")

    def pair_columns(i: int, c: Spectral) -> Tuple[DColumn, DColumn]:
        up = DColumn([Letter(v) for v in range(1, i + 1)], c)
        down = DColumn([bar(v) for v in range(i, 0, -1)], c.shift(2 - 2 * n))
        return up, down

    # Strip classes from n down: after pairs with larger top letter are
    # accounted for, letter i can only come from the pair topped by i, whose
    # unbarred member places it at row c q^(1-i).  The defect there fixes the
    # pair count; the leftover difference must vanish for equal monomials.
    diff = _axpy(_row_counts(ta), _row_counts(tb), -1)
    pads_a: List[DColumn] = []
    pads_b: List[DColumn] = []
    for i in range(n, 0, -1):
        hits = [(b, v) for (b, x), v in diff.items() if x == Letter(i)]
        for b, defect in hits:
            up, down = pair_columns(i, b.shift(i - 1))
            if defect > 0:
                pads_b.extend([up, down] * defect)
            else:
                pads_a.extend([up, down] * (-defect))
            _axpy(diff, _row_counts((up, down)), -defect)
    return None if diff else _padded(ta, tb, pads_a, pads_b)


def column_to_json(col: Column) -> dict:
    out = {
        "entries": [{"value": x.value, "bar": x.barred} for x in col.entries],
        "base": col.center.base,
        "qexp": col.center.qexp,
    }
    if isinstance(col, SpinColumn):
        out["spin"] = col.chirality
    return out
