"""Crystal structure on single-base monomials.

The statistics eps/phi read partial sums of the exponents along the
q-exponent line for one node; the operators multiply by a root monomial at a
position read off those statistics.  On the parity-restricted set (node-i
exponents vanish at q-degrees congruent to the node's 2-coloring) the
operators satisfy the crystal axioms, and the closure of a dominant monomial
under the lowering operators realizes the highest-weight crystal.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import CapExceededError, NotInParitySetError, NotLDominantError, QtcharError, env_cap
from .rootdata import DynkinDiagram, _tree_edges, bipartite_coloring, simple_root
from .yalgebra import Monomial, Spectral, _edge_key, _to_dot, a_monomial

_FLAT = (0, 0, None, None)  # (eps, phi, p_index, q_index) at a node absent from m


def _vertex_stats(m: Monomial) -> Tuple[Optional[str], Dict[int, Tuple]]:
    """m's base and (eps, phi, p_index, q_index) per node, from one walk over m."""
    base = None
    lines: Dict[int, List[Tuple[int, int]]] = {}
    for (node, a), v in m._e.items():
        if base is not None and a.base != base:
            m.single_base()  # raises MixedBaseError naming the bases
        base = a.base
        lines.setdefault(node, []).append((a.qexp, v))
    stats = {}
    for node, line in lines.items():
        line.sort()
        e, p, run = 0, None, 0
        for k, v in reversed(line):
            run -= v
            if run > e:
                e, p = run, k
        f, qn, run = 0, None, 0
        for k, v in line:
            run += v
            if run > f:
                f, qn = run, k
        stats[node] = (e, f, p, qn)
    return base, stats


def eps(m: Monomial, i: int) -> int:
    return _vertex_stats(m)[1].get(i, _FLAT)[0]


def phi(m: Monomial, i: int) -> int:
    return _vertex_stats(m)[1].get(i, _FLAT)[1]


def p_index(m: Monomial, i: int) -> Optional[int]:
    """Largest n where the eps partial sum peaks; None when eps is zero."""
    return _vertex_stats(m)[1].get(i, _FLAT)[2]


def q_index(m: Monomial, i: int) -> Optional[int]:
    """Smallest n where the phi partial sum peaks; None when phi is zero."""
    return _vertex_stats(m)[1].get(i, _FLAT)[3]


def kashiwara_e(d: DynkinDiagram, m: Monomial, i: int) -> Optional[Monomial]:
    """Raising operator: multiply by A(i, q^(p-1)); None when eps is zero."""
    base, stats = _vertex_stats(m)
    p = stats.get(i, _FLAT)[2]
    if p is None:
        return None
    return m * a_monomial(d, i, Spectral(base, p - 1))


def kashiwara_f(d: DynkinDiagram, m: Monomial, i: int) -> Optional[Monomial]:
    """Lowering operator: divide by A(i, q^(q+1)); None when phi is zero."""
    base, stats = _vertex_stats(m)
    qn = stats.get(i, _FLAT)[3]
    if qn is None:
        return None
    return m * a_monomial(d, i, Spectral(base, qn + 1)).inv()


def in_parity_set(m: Monomial, coloring: Dict[int, int]) -> bool:
    """Node-i exponents must vanish at q-degrees congruent to the node color."""
    return all(
        a.qexp % 2 != coloring[node] % 2 for (node, a), _ in m.items()
    )


def fit_coloring(d: DynkinDiagram, m: Monomial) -> Dict[int, int]:
    """A two-coloring making m parity-admissible; prefers color 0 at node 1.

    Connected diagrams admit exactly two colorings, so at most the flip of
    the normalized one can work.
    """
    base = bipartite_coloring(d)
    for coloring in (base, {i: 1 - c for i, c in base.items()}):
        if in_parity_set(m, coloring):
            return coloring
    raise NotInParitySetError(f"{m} fits neither two-coloring")


class CrystalGraph:
    """Closure of a highest monomial under the lowering operators."""

    __slots__ = ("diagram", "highest", "vertices", "edges")

    def __init__(self, diagram, highest, vertices, edges):
        self.diagram = diagram
        self.highest = highest
        self.vertices: FrozenSet[Monomial] = frozenset(vertices)
        self.edges: FrozenSet[Tuple[Monomial, Monomial, int]] = frozenset(edges)

    def sorted_vertices(self) -> List[Monomial]:
        return sorted(self.vertices, key=Monomial.sort_key)

    def sorted_edges(self) -> List[Tuple[Monomial, Monomial, int]]:
        return sorted(self.edges, key=_edge_key(Monomial.sort_key))

    def canonical_hash(self) -> Tuple:
        """Shape of the colored graph, invariant under relabeling monomials.

        Vertices are numbered by breadth-first traversal from the highest
        vertex, exploring lowering edges in color order; the resulting edge
        list is a complete isomorphism invariant because each color is a
        partial function on vertices.
        """
        order = {self.highest: 0}
        queue = [self.highest]
        out: Dict[Monomial, Dict[int, Monomial]] = {}
        for src, dst, i in self.edges:
            out.setdefault(src, {})[i] = dst
        shape = []
        for v in queue:  # the queue grows as it is walked
            for i in sorted(out.get(v, {})):
                w = out[v][i]
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
                shape.append((order[v], i, order[w]))
        return (len(self.vertices), tuple(sorted(shape)))

    def to_dot(self) -> str:
        return _to_dot("crystal", self.vertices, self.edges, lambda m, text: text, lambda e: e[2])


def generate_crystal(d: DynkinDiagram, m0: Monomial) -> CrystalGraph:
    """Close a dominant parity-admissible monomial under lowering operators,
    in the coloring fit_coloring gives it.  Raises CapExceededError past
    QCHAR_MAX_TERMS vertices."""
    if not m0.is_l_dominant():
        raise NotLDominantError(f"{m0} is not dominant")
    fit_coloring(d, m0)  # raises NotInParitySetError when no coloring fits
    cap = env_cap()
    down = lru_cache(None)(lambda i, a: a_monomial(d, i, a).inv())
    seen = {m0: m0}
    queue = [m0]
    edges = []
    while queue:
        m = queue.pop()
        base, stats = _vertex_stats(m)
        for i in d.nodes:
            qn = stats.get(i, _FLAT)[3]
            if qn is None:
                continue
            m2 = m * down(i, Spectral(base, qn + 1))
            m2 = seen.get(m2, m2)  # an edge holds the stored vertex, not an equal copy
            edges.append((m, m2, i))
            if m2 not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(f"crystal exceeded {cap} vertices")
                seen[m2] = m2
                queue.append(m2)
    return CrystalGraph(d, m0, seen, edges)


def verify_crystal_axioms(g: CrystalGraph) -> List[str]:
    """Check the defining identities on every vertex; returns violations.

    Statistics and weights (a tuple over d.nodes) are recomputed once per
    vertex, and once per lowering step that leaves the vertex set, never read
    from generate_crystal; violations come by vertex in sort_key order.  The
    lowering step is m2 = m * A(i, aq^(n+1))^-1 with n = q_index(m, i), and
    raising m2 multiplies by A(i, aq^(p-1)) with p = p_index(m2, i), so
    raise(lower) is the identity exactly when p = n + 2.
    """
    d = g.diagram
    nodes = d.nodes
    simple = {i: tuple([simple_root(d, i).coeff(j) for j in nodes]) for i in nodes}
    down = lru_cache(None)(lambda i, a: a_monomial(d, i, a).inv())

    def read(m):
        w: Dict[int, int] = {}
        for (node, _), v in m._e.items():
            w[node] = w.get(node, 0) + v
        return (*_vertex_stats(m), tuple([w.get(j, 0) for j in nodes]))

    seen = {m: read(m) for m in g.vertices}
    problems = []
    lowering_edges = 0
    for m in g.vertices:
        base, stats, wt = seen[m]
        for i in nodes:
            e1, f1, _, qn = stats.get(i, _FLAT)
            if f1 - e1 != wt[i - 1]:
                problems.append((m, f"phi-eps mismatch at {m}, direction {i}"))
            if qn is None:
                continue
            m2 = m * down(i, Spectral(base, qn + 1))
            if (m, m2, i) in g.edges:
                lowering_edges += 1
            elif m2 in g.vertices:
                problems.append((m, f"missing edge {m} -{i}-> {m2}"))
            _, stats2, wt2 = seen.get(m2) or read(m2)
            e2, f2, p2, _ = stats2.get(i, _FLAT)
            if p2 != qn + 2:
                problems.append((m, f"raise(lower) != id at {m}, direction {i}"))
            if tuple(map(sub, wt, wt2)) != simple[i]:
                problems.append((m, f"weight step wrong at {m}, direction {i}"))
            if e2 != e1 + 1:
                problems.append((m, f"eps step wrong at {m}, direction {i}"))
            if f2 != f1 - 1:
                problems.append((m, f"phi step wrong at {m}, direction {i}"))
    out = [text for _, text in sorted(problems, key=lambda p: p[0].sort_key())]
    if lowering_edges == len(g.edges):  # every edge was met as a lowering step
        return out
    for m, m2, i in g.sorted_edges():
        if kashiwara_f(d, m, i) != m2:
            out.append(f"edge {m} -{i}-> {m2} is not a lowering step")
    return out


def layer_from_orientation(
    d: DynkinDiagram, oriented: List[Tuple[int, int]]
) -> Dict[int, int]:
    """Node layers with a unit drop along each oriented edge, minimum zero.

    Every orientation of a tree admits such a labeling; it is found by
    propagation and verified on each edge, so cyclic inputs that admit none
    are rejected.
    """
    arrows = {(i, j) for i, j in oriented}
    if {(min(e), max(e)) for e in arrows} != set(d.edges):
        raise QtcharError("orientation must cover exactly the diagram edges")
    level = {1: 0}
    for i, j in _tree_edges(d.neighbors):
        level[j] = level[i] + (1 if (j, i) in arrows else -1)
    for i, j in arrows:
        if level[i] - level[j] != 1:
            raise QtcharError("orientation admits no unit-drop labeling")
    low = min(level.values())
    return {i: v - low for i, v in level.items()}
