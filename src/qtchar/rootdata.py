"""Simply-laced Dynkin diagrams, weights, and the Weyl dimension formula."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Tuple

from .errors import NonDominantError, OddCycleError, QtcharError
from .laurent import _axpy, _signed


class DynkinDiagram:
    """A connected simple graph on nodes 1..rank, with simply-laced Cartan data.

    Type A uses the path numbering 1-2-...-n; type D attaches nodes n-1 and n
    to node n-2.  Immutable and hashable, so diagrams can key caches.
    """

    __slots__ = ("kind", "rank", "_adj", "_edges", "_color")

    def __init__(self, kind: str, rank: int, edges: Iterable[Tuple[int, int]]):
        if rank < 1:
            raise QtcharError("rank must be at least 1")
        adj: Dict[int, set] = {i: set() for i in range(1, rank + 1)}
        eset = set()
        for i, j in edges:
            if i == j:
                raise QtcharError("loops are not allowed")
            if not (1 <= i <= rank and 1 <= j <= rank):
                raise QtcharError(f"edge ({i},{j}) outside 1..{rank}")
            adj[i].add(j)
            adj[j].add(i)
            eset.add((min(i, j), max(i, j)))
        color = {1: 0}  # along the walk, which reaches every node when connected
        for i, j in _tree_edges(adj.__getitem__):
            color[j] = 1 - color[i]
        if len(color) != rank:
            raise QtcharError("diagram must be connected")
        self.kind = kind
        self.rank = rank
        self._adj = {i: tuple(sorted(s)) for i, s in adj.items()}
        self._edges = tuple(sorted(eset))
        # the two-coloring, or None when an edge joins two nodes of one color
        self._color = None if any(color[i] == color[j] for i, j in eset) else color

    @staticmethod
    def type_a(n: int) -> "DynkinDiagram":
        if n < 1:
            raise QtcharError("type A needs rank >= 1")
        return DynkinDiagram("A", n, [(i, i + 1) for i in range(1, n)])

    @staticmethod
    def type_d(n: int) -> "DynkinDiagram":
        if n < 4:
            raise QtcharError("type D needs rank >= 4")
        edges = [(i, i + 1) for i in range(1, n - 2)]
        edges += [(n - 2, n - 1), (n - 2, n)]
        return DynkinDiagram("D", n, edges)

    @staticmethod
    def general(rank: int, edges: Iterable[Tuple[int, int]]) -> "DynkinDiagram":
        """A finite-type diagram: every Cartan pivot (no row exchange) is positive."""
        d = DynkinDiagram("general", rank, edges)
        rows = [[Fraction(d.cartan_entry(i, j)) for j in d.nodes] for i in d.nodes]
        for k in range(rank):
            if rows[k][k] <= 0:
                raise QtcharError(f"{d!r} is not of finite type")
            for r in range(k + 1, rank):
                f = rows[r][k] / rows[k][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
        return d

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self._edges

    def neighbors(self, i: int) -> Tuple[int, ...]:
        self._check_node(i)
        return self._adj[i]

    def cartan_entry(self, i: int, j: int) -> int:
        self._check_node(i)
        self._check_node(j)
        if i == j:
            return 2
        return -1 if j in self._adj[i] else 0

    def _check_node(self, i: int) -> None:
        if not (1 <= i <= self.rank):
            raise QtcharError(f"unknown node {i}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DynkinDiagram):
            return NotImplemented
        return (self.rank, self._edges) == (other.rank, other._edges)

    def __hash__(self) -> int:
        return hash((self.rank, self._edges))

    def __repr__(self) -> str:
        if self.kind in ("A", "D"):
            return f"DynkinDiagram.type_{self.kind.lower()}({self.rank})"
        return f"DynkinDiagram.general({self.rank}, {list(self._edges)!r})"


def _tree_edges(neighbors: Callable[[int], Iterable[int]]) -> List[Tuple[int, int]]:
    """The edges (i, j) of a breadth-first spanning tree of the nodes reachable
    from node 1, in the order the walk first reaches each j from its parent i."""
    seen = {1}
    tree = [(1, 1)]  # the walk's queue, rooted at a loop on node 1
    for _, i in tree:  # the queue grows as it is walked
        for j in neighbors(i):
            if j not in seen:
                seen.add(j)
                tree.append((i, j))
    return tree[1:]


def bipartite_coloring(d: DynkinDiagram) -> Dict[int, int]:
    """A copy of the diagram's two-coloring, node 1 colored 0, made once along
    its connectivity walk; OddCycleError when an odd cycle leaves none."""
    if d._color is None:
        raise OddCycleError("diagram contains an odd cycle")
    return dict(d._color)


class Weight:
    """Integer vector in the basis of fundamental weights, finitely supported."""

    __slots__ = ("_c", "_key")

    def __init__(self, coeffs: Dict[int, int] | None = None):
        self._c = {i: v for i, v in (coeffs or {}).items() if v != 0}
        self._key = tuple(sorted(self._c.items()))

    @staticmethod
    def fundamental(i: int) -> "Weight":
        return Weight({i: 1})

    @staticmethod
    def zero() -> "Weight":
        return Weight()

    def coeff(self, i: int) -> int:
        return self._c.get(i, 0)

    def items(self) -> Tuple[Tuple[int, int], ...]:
        return self._key

    def is_dominant(self) -> bool:
        return all(v >= 0 for v in self._c.values())

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(_axpy(dict(self._c), other._c))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(_axpy(dict(self._c), other._c, -1))

    def __neg__(self) -> "Weight":
        return Weight({i: -v for i, v in self._c.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __str__(self) -> str:
        return _signed((v, f"W{i}") for i, v in self._key)

    __repr__ = __str__


def simple_root(d: DynkinDiagram, i: int) -> Weight:
    """The i-th simple root written in fundamental-weight coordinates."""
    return Weight({j: d.cartan_entry(j, i) for j in d.nodes})


_ROOT_CAP = 10000


def positive_roots(d: DynkinDiagram) -> list:
    """Positive roots as coefficient tuples over the simple roots.

    Starts from the simple roots and closes upward: alpha + alpha_i is a root
    exactly when the Cartan pairing <alpha, alpha_i> is -1 (simply laced).
    The cap guards against non-finite-type input.
    """
    n = d.rank

    def pair(coords, i):
        return sum(coords[j - 1] * d.cartan_entry(j, i) for j in d.nodes if coords[j - 1])

    roots = set()
    layer = []
    for i in d.nodes:
        e = tuple(1 if j == i else 0 for j in d.nodes)
        roots.add(e)
        layer.append(e)
    while layer:
        nxt = []
        for coords in layer:
            for i in d.nodes:
                if pair(coords, i) == -1:
                    up = list(coords)
                    up[i - 1] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
            if len(roots) > _ROOT_CAP:
                raise QtcharError(f"positive-root closure exceeded {_ROOT_CAP} roots (rank {n})")
        layer = nxt
    return sorted(roots)


def weyl_dimension(d: DynkinDiagram, w: Weight) -> int:
    """Dimension of the irreducible module with dominant highest weight w."""
    if not w.is_dominant():
        raise NonDominantError(f"{w} is not dominant")
    dim = Fraction(1)
    for coords in positive_roots(d):
        num = sum(c * (w.coeff(j + 1) + 1) for j, c in enumerate(coords))
        den = sum(coords)
        dim *= Fraction(num, den)
    if dim.denominator != 1:
        raise QtcharError("Weyl dimension product was not integral")
    return int(dim)
