"""Output checks computed apart from the program.

Every check returns a list of problems; an empty list means the output
passed.  Only the package's value types (``Monomial``, ``Spectral``,
``IntLaurent`` read through ``items()``) are used to read outputs; totals,
root monomials, Weyl dimensions and line counts are rebuilt here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from cases import Case, fundamental_total, neighbors, product_total, weyl_dimension
from qtchar.yalgebra import Character, Monomial, Spectral


def character_problems(case: Case, chi: Character) -> List[str]:
    """Closed-form t=1 total, positive integer coefficients at even
    t-exponents, a top of coefficient 1, and for a fundamental no other
    monomial without a negative exponent."""
    problems = []
    total = 0
    dominant = []
    for m, c in chi.items():
        for e, v in c.items():
            if not isinstance(v, int) or v <= 0 or e % 2:
                problems.append(f"coefficient {c} of {m} is not in N[t^2, t^-2]")
                break
            total += v
        if all(x >= 0 for _, x in m.items()):
            dominant.append(m)
    expected = product_total(case)
    if total != expected:
        problems.append(f"t=1 total {total}, closed form {expected}")
    if chi.coeff(case.top).items() != [(0, 1)]:
        problems.append(f"top {case.top} has coefficient {chi.coeff(case.top)}")
    if len(case.specs) == 1 and dominant != [case.top]:
        problems.append(f"monomials without a negative exponent: {len(dominant)}")
    return problems


def column_count_problems(d, node: int, count: int) -> List[str]:
    expected = fundamental_total(d, node)
    if count != expected:
        return [f"node {node} enumerates {count} columns, closed form {expected}"]
    return []


def root_exponents(kind: str, n: int, i: int, a: Spectral) -> Dict[Tuple[int, Spectral], int]:
    """A(i,a) = Y(i,aq) Y(i,aq^-1) prod_{j~i} Y(j,a)^-1 as an exponent map."""
    out = {(i, Spectral(a.base, a.qexp + 1)): 1, (i, Spectral(a.base, a.qexp - 1)): 1}
    for j in neighbors(kind, n)[i]:
        out[(j, a)] = -1
    return out


def dot_problems(dot: str, vertices: int, edges: int) -> List[str]:
    lines = dot.splitlines()
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        return ["DOT text is not one digraph block"]
    body = lines[1:-1]
    arrows = sum(1 for line in body if " -> " in line)
    if (len(body) - arrows, arrows) != (vertices, edges):
        return [f"DOT has {len(body) - arrows} vertex and {arrows} edge lines, "
                f"graph has {vertices} and {edges}"]
    return []


def gamma_problems(case: Case, chi: Character, g, dot: str) -> List[str]:
    """Every edge is m2 = m1 A(i,a)^-1, every vertex but the top has an
    in-edge, and the DOT text has one line per vertex and per edge."""
    problems = []
    support = set(chi.support())
    if set(g.vertices) != support:
        problems.append("graph vertices differ from the character support")
    entered = set()
    for m1, m2, i, a in g.edges:
        want = dict(m1.items())
        for key, v in root_exponents(case.d.kind, case.d.rank, i, a).items():
            want[key] = want.get(key, 0) - v
        if {k: v for k, v in want.items() if v} != dict(m2.items()):
            problems.append(f"edge {m1} -{i},{a}-> {m2} is not a drop by A({i},{a})")
            break
        entered.add(m2)
    orphans = support - entered - {case.top}
    if orphans:
        problems.append(f"{len(orphans)} vertices below the top have no in-edge")
    return problems + dot_problems(dot, len(g.vertices), len(g.edges))


def crystal_admissible(case: Case) -> bool:
    """Single base, and the top's q-exponents fit one 2-coloring of the nodes."""
    if len({f.spectral.base for f in case.specs}) != 1:
        return False
    adj = neighbors(case.d.kind, case.d.rank)
    color = {1: 0}
    stack = [1]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in color:
                color[j] = 1 - color[i]
                stack.append(j)
    return len({(f.spectral.qexp + color[f.node]) % 2 for f in case.specs}) == 1


def crystal_problems(case: Case, cg, violations, cdot: str) -> List[str]:
    """Vertex count equals the Weyl dimension of the top weight, the axioms
    hold, and the DOT text has one line per vertex and per edge."""
    weight: Dict[int, int] = {}
    for (node, _), v in case.top.items():
        weight[node] = weight.get(node, 0) + v
    dim = weyl_dimension(case.d.kind, case.d.rank, weight)
    problems = []
    if len(cg.vertices) != dim:
        problems.append(f"crystal has {len(cg.vertices)} vertices, Weyl dimension {dim}")
    if violations:
        problems.append(f"{len(violations)} crystal axiom violations, first: {violations[0]}")
    return problems + dot_problems(cdot, len(cg.vertices), len(cg.edges))


def json_problems(chi: Character, js: list, back: Character) -> List[str]:
    problems = []
    if len(js) != len(chi):
        problems.append(f"JSON has {len(js)} entries for {len(chi)} terms")
    if back != chi:
        problems.append("JSON does not round-trip")
    return problems


# ---------------------------------------------------------------------------
# Relabelling: a small case is a base renaming and q-shift of the round-0
# case of its template, so its outputs must be the image of the checked
# round-0 outputs.


def relabel_map(ref_slots, slots) -> Dict[str, Tuple[str, int]]:
    return {ref_slots[s][0]: (slots[s][0], slots[s][1] - ref_slots[s][1]) for s in ref_slots}


def relabel(m: Monomial, mapping) -> Monomial:
    return Monomial.from_factors(
        (node, Spectral(mapping[a.base][0], a.qexp + mapping[a.base][1]), v)
        for (node, a), v in m.items()
    )


def relabel_problems(ref: dict, out: dict, mapping) -> List[str]:
    image = {relabel(m, mapping): c for m, c in ref["chi"].items()}
    if Character(ref["chi"].diagram, image) != out["chi"]:
        return ["character is not the relabelled round-0 character"]
    if "graph" in out:
        edges = {(relabel(m1, mapping), relabel(m2, mapping), i,
                  Spectral(mapping[a.base][0], a.qexp + mapping[a.base][1]))
                 for m1, m2, i, a in ref["graph"].edges}
        if edges != set(out["graph"].edges):
            return ["graph edges are not the relabelled round-0 edges"]
        if len(out["dot"].splitlines()) != len(ref["dot"].splitlines()):
            return ["graph DOT differs in length from round 0"]
    if "crystal" in out:
        verts = {relabel(m, mapping) for m in ref["crystal"].vertices}
        if verts != set(out["crystal"].vertices) or out["violations"]:
            return ["crystal is not the relabelled round-0 crystal"]
        if len(out["cdot"].splitlines()) != len(ref["cdot"].splitlines()):
            return ["crystal DOT differs in length from round 0"]
    return []
