"""Inductive computation of t-weighted characters and their labeled graphs.

A fundamental character is grown downward from its top monomial, one
root-monomial drop at a time.  At each depth the coefficient of a monomial
that fails dominance in some direction is forced by the rank-one block
structure in that direction; all forcing directions must agree.  Standard
characters are twisted products of fundamentals taken in an order that keeps
every spectral-parameter ratio below q^2, one interaction class at a time;
the classes multiply with no twist.
"""

from __future__ import annotations

from array import array
from itertools import count, islice
from typing import Dict, Iterable, List, Tuple

from .errors import (
    CapExceededError,
    InconsistentCharacterError,
    LDominantEncounteredError,
    NotComparableError,
    _check_pairs,
    env_cap,
)
from .laurent import ONE, IntLaurent, _axpy
from .rootdata import DynkinDiagram
from .yalgebra import (
    Character,
    DrinfeldData,
    FundamentalSpec,
    Monomial,
    Profile,
    Raw,
    Spectral,
    _HASH_MOD,
    _Templates,
    _block,
    _class_product,
    _edge_key,
    _shift_down,
    _to_dot,
    _twist_exponent,
    a_monomial,
    pairing_d,
    v_profile,
)


def fundamental_character(d: DynkinDiagram, f: FundamentalSpec) -> Character:
    """Character of a single-factor module, determined by its axioms.

    Raises InconsistentCharacterError if two directions force different
    coefficients, and LDominantEncounteredError if a dominant monomial other
    than the top appears, since induction then underdetermines the result.
    Either refusal names the first offending monomial in Monomial.sort_key
    order among those of the round that fails.  Raises CapExceededError once
    the closure has filed more than QCHAR_MAX_TERMS monomials.
    """
    return Character._raw(d, _closed(d, f.top, False)[0])


def _fundamental_terms(d: DynkinDiagram, f: FundamentalSpec) -> List[Term]:
    """fundamental_character's terms with their drop profiles below f.top.

    Each profile is carried, not solved: it is the profile of the head whose
    block first reached the term, plus that block term's drops.
    """
    terms, profiles = _closed(d, f.top, True)
    return [(m, c._c, v) for (m, c), v in zip(terms.items(), profiles)]


_templates = _Templates()  # the closure templates, one per top shape


def _closed(
    d: DynkinDiagram, top: Monomial, profiled: bool
) -> Tuple[Dict[Monomial, IntLaurent], List[Profile]]:
    """The closure's {monomial: IntLaurent} terms below top, each after the
    head that reached it, and, if profiled, each term's drop profile.

    Y(i, aq^k) -> Y(i, bq^(k+s)), one (b, s) per base, maps each axiom of the
    closure to itself, so a shifted top's closure is the shifted closure.  A
    shape (d, top's exponents by base slot and q offset from the base's first)
    closes once: its first call returns the closure's own terms and keeps
    their template (_compact), and every later call moves the template's
    variables to its top and rebuilds each term as its head times its step.
    A warm call over the cap refuses with the closure's text; a refusal is
    never kept.
    """
    frame: Dict[str, Tuple[int, int]] = {}  # base -> (slot, its first qexp)
    shape = []
    for (i, a), v in top.items():
        slot, k = frame.setdefault(a.base, (len(frame), a.qexp))
        shape.append((slot, i, a.qexp - k, v))
    key = (d, tuple(shape))
    template = _templates.take(key)
    if template is None:
        final, origin = _closure(d, top)
        terms = Character._from_raw(d, final)._t
        template = _compact(len(origin), frame, terms, origin)
        _templates.keep(key, template)
        keys = template[1]
    elif template[0] > env_cap():
        raise CapExceededError(f"closure exceeded {env_cap()} monomials")
    else:
        _, variables, coeffs, heads, kinds, steps, kept, n = template
        variables = variables if profiled else variables[:n]  # the rest, only profiles read
        bases = list(frame)  # by slot
        # each of the template's bases -> (this call's base in its slot, q shift)
        moved = {b: (bases[s], frame[bases[s]][1] - k) for b, (s, k) in kept.items()}
        keys = [(i, Spectral(moved[a.base][0], a.qexp + moved[a.base][1])) for i, a in variables]
        moves = Monomial._family(keys, (row for _, row in steps))
        ms = [top]
        for head, j in zip(heads, kinds):
            m = ms[head]._patched(moves[j]._e.items(), moves[j]._hash)
            m._e = dict(m._e.items())  # a patched copy keeps the table it grew
            ms.append(m)
        terms = dict(zip(ms, coeffs))
    if not profiled:
        return terms, []
    heads, kinds, steps = template[3:6]
    profiles: List[Profile] = [{}]
    for head, j in zip(heads, kinds):
        v = profiles[head].copy()
        for k, r in steps[j][0]:
            v[keys[k]] = v.get(keys[k], 0) + r
        profiles.append(v)
    return terms, profiles


def _compact(filed: int, frame: dict, terms: Dict[Monomial, IntLaurent], origin: dict) -> tuple:
    """A closure's template: the filed count, the variables, the terms'
    coefficients, each term's origin below the top as the index of its head
    and of its step, the distinct steps, each as its drops ((variable index,
    count) pairs) and the _family row of the monomial prod A^-count that
    takes a head to the term, frame, and the count of the variables the
    rows read, numbered before those only the drops read.  Every head is one
    of the terms, before every term it reached: it was flushed with a
    nonempty raw map, and no closure found leaves a zero in one."""
    place = dict(zip(terms, count()))
    seen: Dict[tuple, int] = {}
    quotients = []  # each distinct step's drops and its exponent map
    heads, kinds = array("i"), array("i")
    for m in islice(terms, 1, None):
        head, v = origin[m]
        j = seen.setdefault(v, len(quotients))
        if j == len(quotients):
            e, h = m._e, head._e  # m / head
            quotients.append((v, {k: u for k in {**e, **h} if (u := e.get(k, 0) - h.get(k, 0))}))
        heads.append(place[head])
        kinds.append(j)
    read = dict.fromkeys(k for _, step in quotients for k in step)  # by the rows, numbered first
    index = dict(zip({**read, **dict.fromkeys(k for v, _ in quotients for k, _ in v)}, count()))
    steps = [
        (tuple([(index[k], r) for k, r in v]), tuple([(index[k], u) for k, u in step.items()]))
        for v, step in quotients
    ]
    return filed, list(index), list(terms.values()), heads, kinds, steps, frame, len(read)


def _closure(d: DynkinDiagram, top: Monomial) -> Tuple[Raw, Dict[Monomial, tuple]]:
    """The closure below top: its raw {monomial: {texp: coeff}} terms, each
    filed after the head that reached it, and each emitted monomial's origin
    (head, drops), read from the block term that first reached it.  More than
    QCHAR_MAX_TERMS filed monomials, counted once per round, raise
    CapExceededError; the closure ends past its last bucket, so the cap
    bounds its rounds."""
    cap = env_cap()
    # final holds raw {texp: coeff} maps, and pending[m][i] the raw sum of the
    # blocks that direction i has sent to m, updated in place
    final: Raw = {top: {0: 1}}
    pending: Dict[Monomial, Dict[int, Dict[int, int]]] = {}
    table: dict = {}  # this call's rank-one factors, keyed by (i, spectral, u)
    # buckets[k] holds each monomial emitted k root-monomial drops below the
    # top: its head's degree plus the drops of the block term that reached it
    buckets: Dict[int, set] = {}
    # every monomial ever filed in a bucket, with the head and drops that first
    # reached it
    origin: Dict[Monomial, tuple] = {top: (top, ())}

    def flush(m: Monomial, row: dict, deg: int, skip: set) -> None:
        # emit the residual of m's popped row in each of m's node directions
        # but skip (a block at a node where m has no exponent is {m: r}).  A
        # block's first term is m itself, and nothing reads pending at a
        # flushed monomial again, so it is not filed.  Every write lands below
        # deg, so a monomial without a row was never reached: it is filed with
        # its first row.  c is fresh, so acc is c only when it was just written
        a = final[m]
        for i in {node for node, _ in m._e} - skip:
            p = row.get(i)
            if p == a:
                continue
            r = a if p is None else _axpy(dict(a), p, -1)
            for m2, c, drops in islice(_block(d, m, i, table, r), 1, None):
                dest = pending.get(m2)
                if dest is None:
                    pending[m2] = {i: c}
                    origin[m2] = (m, drops)
                    buckets.setdefault(deg + sum(n for _, n in drops), set()).add(m2)
                    continue
                acc = dest.setdefault(i, c)
                if acc is not c and not _axpy(acc, c):
                    del dest[i]

    low = _negative_nodes(top)
    flush(top, {}, 0, low)
    if low:
        raise InconsistentCharacterError(f"residual 1 at non-{min(low)}-dominant {top}")
    for deg in count(1):
        if len(origin) > cap:
            raise CapExceededError(f"closure exceeded {cap} monomials")
        if not buckets:
            return final, origin
        # a cancelled entry may linger in a bucket; its predictions are all zero.
        # A flush writes only below its round, so each monomial is flushed as
        # its round files it.  Buckets are walked in set order, so each refusal
        # is kept to the end of its round and the sort-first one is raised
        bad = []
        for m in buckets.pop(deg, ()):
            row = pending.pop(m)
            forcing = _negative_nodes(m)
            if not forcing:
                if row:
                    bad.append((m.sort_key(), LDominantEncounteredError(
                        f"dominant monomial {m} appeared below the top; "
                        "the inductive method does not apply"
                    )))
                continue
            a, *rest = [row.get(i) for i in forcing]
            if any(p != a for p in rest):
                bad.append((m.sort_key(), InconsistentCharacterError(
                    f"directions disagree at {m}: "
                    + ", ".join(f"{i}:{IntLaurent(row.get(i))}" for i in sorted(forcing))
                )))
            elif a:
                final[m] = a
                flush(m, row, deg, forcing)
        if bad:
            raise min(bad, key=lambda b: b[0])[1]


def _negative_nodes(m: Monomial) -> set:
    """The nodes i at which m is not i-dominant, read in one pass."""
    return {node for (node, _), v in m._e.items() if v < 0}


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


# A fold input term: (monomial, raw {texp: coeff}, drop profile below its top)
Term = Tuple[Monomial, Dict[int, int], Profile]
# A folded term: raw coefficient and two down-shifted drop profiles (see
# _shift_down) whose sum is the term's own
Folded = Dict[Monomial, Tuple[Dict[int, int], Tuple[Profile, Profile]]]


def _certified(d: DynkinDiagram, chi: Character, mp: Monomial, tag: str) -> List[Term]:
    """chi's terms with their drop profiles below mp.

    Raises NotComparableError naming the first term, in Monomial.sort_key
    order, that is not below mp.
    """
    terms = [(m, c._c, v_profile(d, m, mp)) for m, c in chi._t.items()]
    bad = [m for m, _, v in terms if v is None]
    if bad:
        raise NotComparableError(f"{tag} term {min(bad, key=Monomial.sort_key)} is not below {mp}")
    return terms


def _start(terms: List[Term]) -> Folded:
    """Terms below their top, folded: the first factor of a fold."""
    return {m: (c, ({}, _shift_down(v))) for m, c, v in terms}


def _fold(left: Folded, right: List[Term], mp1: Monomial) -> Folded:
    """The t^(2d)-twisted product of folded left terms below mp1 and right
    terms (m2, c2, v2).

    Drop profiles add under multiplication, since the root monomials are
    independent, so each product term carries the down-shifted drops of its
    two factors and can be folded again without v_profile.  One pass over
    m2's exponents adds the twist's m1 half and builds the product's map.
    """
    # the half of the twist that depends on m2 alone, once per m2
    rows = [
        (m2._e.items(), m2._hash, c2.items(), _twist_exponent({}, m2, mp1, v2), _shift_down(v2))
        for m2, c2, v2 in right
    ]
    out: Folded = {}
    for m1, (c1, (da, db)) in left.items():
        down1 = _axpy(dict(da), db)  # m1's own down-shifted profile
        e1, h1, c1 = m1._e, m1._hash, c1.items()
        for x2, h2, c2, tw, down2 in rows:
            # Monomial._patched's loop, fused: the twist reads the same items
            e = e1.copy()
            for k, u in x2:
                tw += down1.get(k, 0) * u
                u += e.get(k, 0)
                if u:
                    e[k] = u
                else:
                    del e[k]
            key = Monomial._raw(e, h1 + h2)
            entry = out.get(key)
            if entry is None:
                entry = out[key] = ({}, (down1, down2))
            # laurent._mac's loop, inline: a call per pair (mostly 1-term maps) measured slower
            acc, tw = entry[0], 2 * tw
            for t1, v1 in c1:
                for t2, v2 in c2:
                    acc[t1 + t2 + tw] = acc.get(t1 + t2 + tw, 0) + v1 * v2
    return out


def _raw(terms: Folded) -> Raw:
    """The folded terms' raw coefficients, without their drop profiles."""
    return {m: c for m, (c, _) in terms.items()}


def twisted_product(
    chi1: Character, mp1: Monomial, chi2: Character, mp2: Monomial, d: DynkinDiagram
) -> Character:
    """Combine two characters with the t^(2d) twist on each pair of terms."""
    left = _certified(d, chi1, mp1, "left")
    right = _certified(d, chi2, mp2, "right")
    return Character._from_raw(d, _raw(_fold(_start(left), right, mp1)))


def standard_character(d: DynkinDiagram, p: DrinfeldData) -> Character:
    """Left-fold of twisted products over each interaction class's admissibly
    ordered factors, starting from the first; the classes' folds multiply
    with no twist (see DrinfeldData.classes).

    Each distinct fundamental is computed once, and its terms keep the drop
    profiles its closure carried; the running product carries its terms'
    drops too, so no term is ever solved with v_profile.  A finished class
    keeps only its raw terms; a class of one root is its closure's.  Raises
    CapExceededError when a closure, or a product step's count of term pairs
    (the work of that step), exceeds QCHAR_MAX_TERMS, the latter before the
    step is formed.
    """
    if len(p.roots) == 1:
        return fundamental_character(d, p.roots[0])
    cap = env_cap()
    terms = {f: _fundamental_terms(d, f) for f in dict.fromkeys(p.roots)}

    def fold(cls: DrinfeldData) -> Raw:
        first, *rest = cls.roots
        if not rest:
            return {m: c for m, c, _ in terms[first]}
        chi, mp = _start(terms[first]), first.top
        for f in rest:
            _check_pairs(len(chi), len(terms[f]), cap)
            chi = _fold(chi, terms[f], mp)
            mp = mp * f.top
        return _raw(chi)

    return _class_product(d, p, fold, cap)


def rescaled_tilde(d: DynkinDiagram, chi: Character, mp: Monomial) -> Character:
    """Shift each coefficient by t^(-d(m,mp;m,mp)); a post-hoc renormalization."""
    terms = {}
    for m, c in chi.items():
        terms[m] = c.shifted(-pairing_d(d, m, mp, m, mp))
    return Character(chi.diagram, terms)


class GammaGraph:
    """Support of a character with one colored edge per root-monomial drop."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        self.vertices = dict(vertices)
        self.edges = frozenset(edges)

    def sorted_edges(self) -> List[Tuple[Monomial, Monomial, int, Spectral]]:
        return sorted(self.edges, key=_edge_key(Monomial.sort_key))

    def to_dot(self) -> str:
        def label(m, text):
            c = self.vertices[m]
            return text if c == ONE else f"({c}) {text}"

        tags: Dict[Tuple[int, Spectral], str] = {}  # (i, a) -> "i,a", per call
        return _to_dot("character", self.vertices, self.edges, label,
                       lambda e: tags.get(e[2:]) or tags.setdefault(e[2:], f"{e[2]},{e[3]}"))


def gamma_graph(chi: Character) -> GammaGraph:
    """Edges m1 -> m1 * A(i,a)^-1 within the support.

    Only drops whose variables (i, aq^-1), (i, aq) and each neighbour's (j, a)
    all occur in the support are tried: the drop changes each exponent there,
    so if neither m1 nor m2 = m1 * A(i,a)^-1 held one, m2 would hold it.

    The support is indexed by its monomials' additive hashes: a drop
    subtracts hash(A(i,a)) modulo _HASH_MOD, and a hash hit patches m1 with
    the drop (Monomial._patched) and compares the result's exponent map with
    the maps of that hash, so a collision cannot change an edge.  Each hash
    h is filed under h and h - _HASH_MOD, so the difference h1 - hs, which
    lies between them, is looked up as it is.  An edge holds the support's
    own monomials.
    """
    d = chi.diagram
    keys = {k for m in chi._t for k in m._e}
    drops = []
    for i, lo in keys:  # lo is the (i, aq^-1) of a drop A(i, a)
        a = lo.shift(1)
        if i in d.nodes and (i, a.shift(1)) in keys and all((j, a) in keys for j in d.neighbors(i)):
            step = a_monomial(d, i, a)
            drops.append((step._hash, i, a, [(k, -v) for k, v in step._e.items()]))
    index: Dict[int, List[Monomial]] = {}
    for m in chi._t:
        hits = index.setdefault(m._hash, [])
        hits.append(m)
        index[m._hash - _HASH_MOD] = hits
    edges = []
    for m1 in chi._t:
        h1 = m1._hash
        for hs, i, a, down in drops:
            hits = index.get(h1 - hs)
            if hits is None:
                continue
            e = m1._patched(down, -hs)._e  # its hash is that of the hits
            for m2 in hits:
                if m2._e == e:
                    edges.append((m1, m2, i, a))
                    break
    return GammaGraph(chi._t, edges)
