"""Inductive computation of t-weighted characters and their labeled graphs.

A fundamental character is grown downward from its top monomial, one
root-monomial drop at a time.  At each depth the coefficient of a monomial
that fails dominance in some direction is forced by the rank-one block
structure in that direction; all forcing directions must agree.  Standard
characters are twisted products of fundamentals taken in an order that keeps
every spectral-parameter ratio below q^2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .errors import (
    InconsistentCharacterError,
    LDominantEncounteredError,
    NotComparableError,
    QtcharError,
)
from .laurent import ONE, IntLaurent
from .rootdata import DynkinDiagram
from .yalgebra import (
    Character,
    DrinfeldData,
    FundamentalSpec,
    Monomial,
    Spectral,
    _height,
    _height_weights,
    _shift_down,
    _twist_exponent,
    a_monomial,
    e_expansion,
    pairing_d,
    v_profile,
)


def fundamental_character(
    d: DynkinDiagram, f: FundamentalSpec, max_rounds: int = 100000
) -> Character:
    """Character of a single-factor module, determined by its axioms.

    Raises InconsistentCharacterError if two directions force different
    coefficients, and LDominantEncounteredError if a dominant monomial other
    than the top appears, since induction then underdetermines the result.
    """
    if isinstance(max_rounds, bool) or not isinstance(max_rounds, int) or max_rounds < 1:
        raise QtcharError(f"max_rounds must be a positive integer, got {max_rounds!r}")
    top = f.top
    final: Dict[Monomial, IntLaurent] = {top: ONE}
    # pending[i] accumulates every emitted rank-one block in direction i, as
    # raw {texp: coeff} maps updated in place
    pending: List[Dict[Monomial, Dict[int, int]]] = [dict() for _ in range(d.rank + 1)]
    levels: Dict[int, List[Monomial]] = {0: [top]}
    # buckets[k] holds each monomial emitted k root-monomial drops below the
    # top; the height is additive, so the drop degree is read on insertion
    buckets: Dict[int, set] = {}
    w, scale = _height_weights(d)
    htop = _height(w, top)

    def emit(i: int, head: Monomial, c: IntLaurent) -> None:
        dest = pending[i]
        for m, cc in e_expansion(d, head, i)._t.items():
            acc = dest.get(m)
            if acc is None:
                acc = dest[m] = {}
                buckets.setdefault((htop - _height(w, m)) // scale, set()).add(m)
            for e1, v1 in c._c.items():
                for e2, v2 in cc._c.items():
                    e = e1 + e2
                    v = acc.get(e, 0) + v1 * v2
                    if v:
                        acc[e] = v
                    else:
                        del acc[e]
            if not acc:
                del dest[m]

    def flush_level(deg: int) -> None:
        for m in sorted(levels.get(deg, ()), key=Monomial.sort_key):
            a = final[m]
            for i in d.nodes:
                r = a - IntLaurent(pending[i].get(m))
                if not r:
                    continue
                if not m.is_i_dominant(i):
                    raise InconsistentCharacterError(
                        f"residual {r} at non-{i}-dominant {m}"
                    )
                emit(i, m, r)

    flush_level(0)
    for deg in range(1, max_rounds + 1):
        if all(k < deg for k in buckets):
            return Character(d, final)
        # a cancelled entry may linger in a bucket; its predictions are all zero
        for m in sorted(buckets.pop(deg, ()), key=Monomial.sort_key):
            forcing = [i for i in d.nodes if not m.is_i_dominant(i)]
            predicted = {i: pending[i].get(m, {}) for i in d.nodes}
            if not forcing:
                if any(predicted.values()):
                    raise LDominantEncounteredError(
                        f"dominant monomial {m} appeared below the top; "
                        "the inductive method does not apply"
                    )
                continue
            a = predicted[forcing[0]]
            if any(predicted[i] != a for i in forcing[1:]):
                raise InconsistentCharacterError(
                    f"directions disagree at {m}: "
                    + ", ".join(f"{i}:{IntLaurent(predicted[i])}" for i in forcing)
                )
            if a:
                final[m] = IntLaurent(a)
                levels.setdefault(deg, []).append(m)
        flush_level(deg)
    raise InconsistentCharacterError("closure did not terminate")


def check_zcondition(p1: DrinfeldData, p2: DrinfeldData) -> bool:
    """No root of p1 exceeds a root of p2 by q^n with n >= 2."""
    for _, a in p1.roots:
        for _, b in p2.roots:
            if a.base == b.base and a.qexp - b.qexp >= 2:
                return False
    return True


def order_factors(fs: Iterable[FundamentalSpec]) -> List[FundamentalSpec]:
    """The factors in DrinfeldData's admissible order."""
    return list(DrinfeldData(fs).roots)


def twisted_product(
    chi1: Character, mp1: Monomial, chi2: Character, mp2: Monomial, d: DynkinDiagram
) -> Character:
    """Combine two characters with the t^(2d) twist on each pair of terms."""
    v1s = {m: v_profile(d, m, mp1) for m in chi1.support()}
    v2s = {m: v_profile(d, m, mp2) for m in chi2.support()}
    for tag, vs, mp in (("left", v1s, mp1), ("right", v2s, mp2)):
        bad = [m for m, v in vs.items() if v is None]
        if bad:
            raise NotComparableError(f"{tag} term {bad[0]} is not below {mp}")
    # the half of the twist that depends on m2 alone, once per m2
    right = [(m2, c2, _twist_exponent([], m2, mp1, v2s[m2])) for m2, c2 in chi2.items()]
    terms: Dict[Monomial, IntLaurent] = {}
    for m1, c1 in chi1.items():
        down1 = _shift_down(v1s[m1])  # read against every m2
        for m2, c2, tw2 in right:
            tw = tw2 + _twist_exponent(down1, m2, mp1, {})
            key = m1 * m2
            add = (c1 * c2).shifted(2 * tw)
            prev = terms.get(key)
            terms[key] = add if prev is None else prev + add
    return Character(d, terms)


def standard_character(d: DynkinDiagram, p: DrinfeldData) -> Character:
    """Left-fold of twisted products over the admissibly ordered factors."""
    if not p.roots:
        return Character.unit(d)
    cache: Dict[FundamentalSpec, Character] = {}

    def fund(f: FundamentalSpec) -> Character:
        if f not in cache:
            cache[f] = fundamental_character(d, f)
        return cache[f]

    chi = fund(p.roots[0])
    mp = p.roots[0].top
    for f in p.roots[1:]:
        chi = twisted_product(chi, mp, fund(f), f.top, d)
        mp = mp * f.top
    return chi


def rescaled_tilde(d: DynkinDiagram, chi: Character, mp: Monomial) -> Character:
    """Shift each coefficient by t^(-d(m,mp;m,mp)); a post-hoc renormalization."""
    terms = {}
    for m, c in chi.items():
        terms[m] = c.shifted(-pairing_d(d, m, mp, m, mp))
    return Character(chi.diagram, terms)


class GammaGraph:
    """Support of a character with one colored edge per root-monomial drop."""

    __slots__ = ("diagram", "vertices", "edges")

    def __init__(self, diagram: DynkinDiagram, vertices, edges):
        self.diagram = diagram
        self.vertices = dict(vertices)
        self.edges = frozenset(edges)

    def sorted_edges(self) -> List[Tuple[Monomial, Monomial, int, Spectral]]:
        return sorted(
            self.edges,
            key=lambda e: (e[0].sort_key(), e[2], e[3].base, e[3].qexp),
        )

    def to_dot(self) -> str:
        lines = ["digraph character {"]
        names = {}
        for k, m in enumerate(sorted(self.vertices, key=Monomial.sort_key)):
            names[m] = f"v{k}"
            coeff = self.vertices[m]
            label = str(m) if coeff == ONE else f"({coeff}) {m}"
            lines.append(f'  v{k} [label="{label}"];')
        for m1, m2, i, a in self.sorted_edges():
            lines.append(f'  {names[m1]} -> {names[m2]} [label="{i},{a}"];')
        lines.append("}")
        return "\n".join(lines)


def gamma_graph(chi: Character) -> GammaGraph:
    """Edges m1 -> m1 * A(i,a)^-1 within the support, for every base, every
    q-shift strictly inside that base's span, and every node.

    A(i, aq^s)^-1 puts a nonzero exponent at (i, aq^(s-1)) and (i, aq^(s+1)),
    so a shift at or beyond either end of the span leaves the support.

    The support is indexed by the additive fingerprint h(m) = sum of e *
    hash(node, a); a drop subtracts h(A(i,a)), and only a fingerprint hit
    forms the product and looks it up, so collisions cannot change an edge.
    """
    d = chi.diagram
    support = set(chi._t)

    def h(m: Monomial) -> int:
        return sum(e * hash(k) for k, e in m.items())

    qexps: Dict[str, set] = {}
    for m in support:
        for (_, a), _ in m.items():
            qexps.setdefault(a.base, set()).add(a.qexp)
    drops = []
    for base, ks in qexps.items():
        for s in range(min(ks) + 1, max(ks)):
            a = Spectral(base, s)
            for i in d.nodes:
                step = a_monomial(d, i, a)
                drops.append((h(step), i, a, step.inv()))
    prints = {h(m) for m in support}
    edges = []
    for m1 in support:
        h1 = h(m1)
        for hs, i, a, down in drops:
            if h1 - hs in prints:
                m2 = m1 * down
                if m2 in support:
                    edges.append((m1, m2, i, a))
    return GammaGraph(d, {m: chi.coeff(m) for m in support}, edges)
