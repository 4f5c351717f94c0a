"""Sparse monomial and character algebra over the variables Y(i, a q^k).

Monomials are finitely supported exponent maps keyed by (node, spectral
parameter).  A spectral parameter is an opaque base symbol times an integer
power of q; parameters with different bases are never commensurable.
Characters map monomials to integer Laurent polynomials in t.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    CapExceededError,
    MixedBaseError,
    NotComparableError,
    NotDecomposableError,
    NotIDominantError,
    NotLDominantError,
    QtcharError,
    _check_pairs,
    env_cap,
)
from .laurent import ONE, IntLaurent, _axpy, _mac, t_binomial
from .rootdata import DynkinDiagram, Weight, bipartite_coloring, positive_roots


class Spectral(NamedTuple):
    """A spectral parameter base*q^qexp with an opaque base symbol."""

    base: str
    qexp: int

    def shift(self, k: int) -> "Spectral":
        return Spectral(self.base, self.qexp + k)

    def __str__(self) -> str:
        if self.qexp == 0:
            return self.base
        if self.qexp == 1:
            return f"{self.base}q"
        return f"{self.base}q^{self.qexp}"


def _var_key(item):
    (node, a), exp = item
    return (a.base, a.qexp, node)


# Monomial hashes live in the integers modulo this prime (Python's own int
# hash modulus on 64-bit builds), so a hash is a valid __hash__ value as is.
_HASH_MOD = (1 << 61) - 1


class Monomial:
    """Product of Y(i, a)^e factors; the empty product is the unit.

    Immutable and hashable; equality and hashing read the unordered exponent
    map.  The hash is additive, sum of e * (h * h ^ h) with h = hash((node, a))
    modulo _HASH_MOD, so a product's hash is the sum of its factors' and no
    product re-hashes.  The mix breaks the near-linearity of tuple hashes, on
    which plain sums collide when a monomial trades one shifted variable for
    another; h * h + h meets such relations under some hash seeds.  Equality
    still compares the maps, so a collision cannot merge monomials.
    The canonical variable order (base, qexp, node), used for deterministic
    iteration and serialization, is built on first use and cached.
    """

    __slots__ = ("_e", "_key", "_hash")

    def __init__(self, exps: Dict[Tuple[int, Spectral], int] | None = None):
        e = {}
        h = 0
        for k, v in (exps or {}).items():
            if v:
                e[k] = v
                x = hash(k)
                h += v * (x * x ^ x)
        self._e = e
        self._key = None
        self._hash = h % _HASH_MOD

    @staticmethod
    def _raw(e: Dict[Tuple[int, Spectral], int], h: int) -> "Monomial":
        """A monomial on the zero-free map e with the hash h, any integer
        congruent to it modulo _HASH_MOD; unchecked."""
        m = object.__new__(Monomial)
        m._e = e
        m._key = None
        m._hash = h % _HASH_MOD
        return m

    def _patched(self, deltas: Iterable[Tuple[Tuple[int, Spectral], int]], h: int) -> "Monomial":
        """self times the monomial of the zero-free exponent items deltas and
        the hash h: a copy of self's map, each delta added, each zero dropped.
        The result is built as _raw builds it, inline: a call less per product."""
        e = self._e.copy()
        for k, v in deltas:
            v += e.get(k, 0)
            if v:
                e[k] = v
            else:
                del e[k]
        m = object.__new__(Monomial)
        m._e = e
        m._key = None
        m._hash = (self._hash + h) % _HASH_MOD
        return m

    @staticmethod
    def _family(keys: Sequence[Tuple[int, Spectral]], rows: Iterable) -> List["Monomial"]:
        """One monomial per row of (position, exponent) pairs, position j
        naming the variable keys[j]; each variable is hashed once."""
        terms = [x * x ^ x for x in map(hash, keys)]  # as __init__ hashes
        out = []
        for items in rows:
            e = {}
            h = 0
            for j, v in items:
                e[keys[j]] = v
                h += v * terms[j]
            out.append(Monomial._raw(e, h))
        return out

    @staticmethod
    def one() -> "Monomial":
        return _UNIT

    @staticmethod
    def y(node: int, a: Spectral, exp: int = 1) -> "Monomial":
        return Monomial({(node, a): exp})

    @staticmethod
    def from_factors(factors: Iterable[Tuple[int, Spectral, int]]) -> "Monomial":
        e: Dict[Tuple[int, Spectral], int] = {}
        for node, a, exp in factors:
            k = (node, a)
            e[k] = e.get(k, 0) + exp
        return Monomial(e)

    def items(self) -> Tuple[Tuple[Tuple[int, Spectral], int], ...]:
        if self._key is None:
            self._key = tuple(sorted(self._e.items(), key=_var_key))
        return self._key

    def u(self, node: int, a: Spectral) -> int:
        """Exponent of Y(node, a), zero when absent."""
        return self._e.get((node, a), 0)

    def is_unit(self) -> bool:
        return not self._e

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not self._e:
            return other
        if not other._e:
            return self
        return self._patched(other._e.items(), other._hash)

    def inv(self) -> "Monomial":
        return Monomial._raw({k: -v for k, v in self._e.items()}, -self._hash)

    def __pow__(self, k: int) -> "Monomial":
        if not k:
            return _UNIT
        return Monomial._raw({key: v * k for key, v in self._e.items()}, self._hash * k)

    def is_i_dominant(self, i: int) -> bool:
        return all(v >= 0 for (node, _), v in self._e.items() if node == i)

    def is_l_dominant(self) -> bool:
        return all(v >= 0 for v in self._e.values())

    def single_base(self) -> Optional[str]:
        """The unique base of the support, None for the unit monomial."""
        bs = sorted({a.base for (_, a) in self._e})
        if len(bs) > 1:
            raise MixedBaseError(f"monomial mixes bases {bs}")
        return bs[0] if bs else None

    def weight(self) -> Weight:
        c: Dict[int, int] = {}
        for (node, _), v in self._e.items():
            c[node] = c.get(node, 0) + v
        return Weight(c)

    def sort_key(self):
        return tuple((a.base, a.qexp, node, v) for (node, a), v in self.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._hash == other._hash and self._e == other._e

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return _text(self, {})

    def __repr__(self) -> str:
        return f"<{self}>"


_UNIT = Monomial()


# The most rows one _Templates keeps: it holds any one tableaux pool of A1-A13,
# D4-D9 or the spin columns up to D13, and every closure of A1-A13 and D4-D7.
_TEMPLATE_ROWS = 4096


class _Templates(dict):
    """Translation templates by shape, least recently used first, within
    _TEMPLATE_ROWS rows in all; a template's item 2 holds one entry per row."""

    __slots__ = ()

    def take(self, key):
        """The template under key, made the most recently used; None on a miss."""
        template = self.pop(key, None)
        if template is not None:
            self[key] = template
        return template

    def keep(self, key, template: tuple) -> None:
        """Keep template unless it is over the budget, evicting the least
        recently used templates past it."""
        if len(template[2]) <= _TEMPLATE_ROWS:
            self[key] = template
            while sum(len(t[2]) for t in self.values()) > _TEMPLATE_ROWS:
                del self[next(iter(self))]


def _text(m: Monomial, names: Dict[Tuple[int, Spectral], str]) -> str:
    """str(m), each variable's "Y(node,a)" taken from names, a per-call table."""
    ys = ((names.get(k) or names.setdefault(k, f"Y({k[0]},{k[1]})"), v) for k, v in m.items())
    return " ".join(y if v == 1 else f"{y}^{v}" for y, v in ys) or "1"


def a_monomial(d: DynkinDiagram, i: int, a: Spectral) -> Monomial:
    """The root monomial: Y(i,aq) Y(i,aq^-1) times Y(j,a)^-1 over neighbors j."""
    d._check_node(i)
    e = {(i, a.shift(1)): 1, (i, a.shift(-1)): 1}
    for j in d.neighbors(i):
        e[(j, a)] = -1
    return Monomial(e)


# ---------------------------------------------------------------------------
# The order on monomials and the root-monomial exponent family


# Drop profile: root-monomial exponents v keyed by (node, spectral parameter)
Profile = Dict[Tuple[int, Spectral], int]
# Raw terms {monomial: {texp: coeff}}: the routes' working form of a character
Raw = Dict[Monomial, Dict[int, int]]


def v_profile(d: DynkinDiagram, m: Monomial, mp: Monomial) -> Optional[Profile]:
    """Nonnegative exponents v with m = mp * prod A(i,a)^-v, or None.

    Solved per base by the forward recurrence in ascending q-exponent, then
    certified by rebuilding the ratio; the certificate makes the routine
    self-checking, so any scan-order mistake would surface as None.
    """
    delta: Dict[str, Dict[Tuple[int, int], int]] = {}
    ratio = m * mp.inv()
    if ratio.is_unit():
        return {}
    for (node, a), exp in ratio.items():
        delta.setdefault(a.base, {})[(node, a.qexp)] = exp

    v: Dict[Tuple[int, Spectral], int] = {}
    for base, dl in delta.items():
        qexps = [s for (_, s) in dl]
        smin, smax = min(qexps), max(qexps)
        vb: Dict[Tuple[int, int], int] = {}
        for s in range(smin, smax + 1):
            for i in d.nodes:
                val = -dl.get((i, s), 0) - vb.get((i, s - 1), 0)
                val += sum(vb.get((j, s), 0) for j in d.neighbors(i))
                if val < 0:
                    return None
                if val:
                    vb[(i, s + 1)] = val
        # certificate: the candidate family must reproduce the ratio exactly
        rebuilt: Dict[Tuple[int, int], int] = {}
        for (i, s), val in vb.items():
            rebuilt[(i, s + 1)] = rebuilt.get((i, s + 1), 0) - val
            rebuilt[(i, s - 1)] = rebuilt.get((i, s - 1), 0) - val
            for j in d.neighbors(i):
                rebuilt[(j, s)] = rebuilt.get((j, s), 0) + val
        rebuilt = {k: c for k, c in rebuilt.items() if c}
        if rebuilt != dl:
            return None
        for (i, s), val in vb.items():
            v[(i, Spectral(base, s))] = val
    return v


def leq(d: DynkinDiagram, m: Monomial, mp: Monomial) -> bool:
    """Whether m is mp divided by a product of root monomials."""
    return v_profile(d, m, mp) is not None


@lru_cache(maxsize=None)
def _height_weights(d: DynkinDiagram) -> Tuple[int, ...]:
    """The weights W = 2rho in simple-root coordinates, with C @ W = 2 * (1,...,1).

    Any monomial drop m -> m * A(i,a)^-1 lowers sum(u * W) by exactly 2,
    giving a cheap strictly monotone height for the monomial order.
    """
    return tuple(map(sum, zip(*positive_roots(d))))


def _height(w: Tuple[int, ...], m: Monomial) -> int:
    """sum(u * W) for the height weights w of _height_weights."""
    return sum(v * w[node - 1] for (node, _), v in m._e.items())


def drop_degree(d: DynkinDiagram, m: Monomial, mp: Monomial) -> int:
    """Total number of root-monomial factors separating m from mp.

    Only meaningful when m <= mp; equals sum(v_profile(m, mp)). A node outside d is refused.
    """
    for node, _ in (*m._e, *mp._e):
        d._check_node(node)
    w = _height_weights(d)
    q, r = divmod(_height(w, mp) - _height(w, m), 2)
    if r:
        raise NotComparableError("monomials differ outside the root lattice")
    return q


# ---------------------------------------------------------------------------
# Characters


class Character:
    """Finitely supported map from monomials to Laurent coefficients."""

    __slots__ = ("diagram", "_t")

    def __init__(self, diagram: DynkinDiagram, terms: Dict[Monomial, IntLaurent] | None = None):
        self.diagram = diagram
        self._t = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def _raw(diagram: DynkinDiagram, terms: Dict[Monomial, IntLaurent]) -> "Character":
        """A character on terms, which holds no zero coefficient; unchecked, not copied."""
        chi = object.__new__(Character)
        chi.diagram = diagram
        chi._t = terms
        return chi

    @staticmethod
    def _from_raw(diagram: DynkinDiagram, terms: Raw) -> "Character":
        """A character on raw terms, built once and unchecked; a map that holds
        a zero (signed inputs can cancel) is filtered first.  Equal maps share
        one IntLaurent: a sum's terms carry few distinct coefficients."""
        out, shared = {}, {}
        for m, c in terms.items():
            key = tuple(c.items())
            p = shared.get(key)
            if p is None:
                p = shared[key] = IntLaurent._raw({e: v for e, v in key if v})
            if p._c:
                out[m] = p
        return Character._raw(diagram, out)

    @staticmethod
    def unit(d: DynkinDiagram) -> "Character":
        return Character(d, {Monomial.one(): ONE})

    def coeff(self, m: Monomial) -> IntLaurent:
        return self._t.get(m, IntLaurent.zero())

    def support(self) -> List[Monomial]:
        return sorted(self._t, key=Monomial.sort_key)

    def items(self) -> List[Tuple[Monomial, IntLaurent]]:
        return [(m, self._t[m]) for m in self.support()]

    def __len__(self) -> int:
        return len(self._t)

    def __contains__(self, m: Monomial) -> bool:
        return m in self._t

    def __eq__(self, other) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.diagram == other.diagram and self._t == other._t

    def _same_diagram(self, other: "Character") -> None:
        if other.diagram != self.diagram:
            raise QtcharError(
                f"character arithmetic across {self.diagram!r} and {other.diagram!r}"
            )

    def __add__(self, other: "Character") -> "Character":
        self._same_diagram(other)
        return Character._raw(self.diagram, _axpy(dict(self._t), other._t))

    def __sub__(self, other: "Character") -> "Character":
        self._same_diagram(other)
        return Character._raw(self.diagram, _axpy(dict(self._t), other._t, -1))

    def scaled(self, c: IntLaurent) -> "Character":
        return Character(self.diagram, {m: v * c for m, v in self._t.items()})

    def __str__(self) -> str:
        if not self._t:
            return "0"
        return " + ".join(f"({c}) {m}" for m, c in self.items())

    __repr__ = __str__


def specialize_t(chi: Character, t0: int) -> Dict[Monomial, int]:
    """Every coefficient evaluated at the integer t0, zeros dropped, in sort_key order."""
    out = {}
    for m, c in chi.items():
        v = c.eval_at(t0)
        if v:
            out[m] = v
    return out


def forget_spectral(chi: Character) -> Dict[Tuple[Tuple[int, int], ...], IntLaurent]:
    """Collapse Y(i, a) -> y(i); keys are sorted (node, exponent) tuples."""
    out: Dict[Tuple[Tuple[int, int], ...], IntLaurent] = {}
    for m, c in chi.items():
        key = m.weight().items()
        out[key] = out.get(key, IntLaurent.zero()) + c
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Rank-one expansion blocks and their greedy inversion


def _rank_one_factor(d: DynkinDiagram, i: int, a: Spectral, u: int) -> list:
    """The block factor sum_r t^(r(u-r)) [u,r]_t A(i,aq)^-r for u = u(i,a) > 0
    past its r = 0 term, as (exponent items, hash, coefficient, drops) of
    A(i,aq)^-r for r = 1..u.  The coefficient is t_binomial(u, r)'s shared raw
    map with the shift r(u-r), None for the unit at r = u; drops is ((i, aq), r)
    as a one-pair tuple."""
    aq = a.shift(1)
    am = a_monomial(d, i, aq)
    factor = []
    for r in range(1, u + 1):
        c = None if r == u else (t_binomial(u, r)._c, r * (u - r))
        factor.append(([(k, -r * v) for k, v in am._e.items()], -r * am._hash, c, (((i, aq), r),)))
    return factor


def _block(
    d: DynkinDiagram, m: Monomial, i: int, table: dict, c: Dict[int, int]
) -> List[Tuple[Monomial, Dict[int, int], Tuple]]:
    """The rank-one block of the i-dominant m in direction i, scaled by the raw
    coefficient c, as (monomial, raw {texp: coeff}, drops) triples.

    A term's drops are the pairs ((i, aq), r) with term = m * prod A(i,aq)^-r;
    the first term is m itself with c itself, every other term's coefficient
    is fresh.  Each factor is read from table, keyed by (i, spectral, u), and
    filled on a miss.  The factors' root monomials are independent, so every
    product of terms is a distinct monomial and nothing merges; each term is
    its prefix term plus one step's exponent deltas.
    """
    block = [(m, c, ())]
    for (node, a), u in m._e.items():
        if node != i or u <= 0:
            continue
        factor = table.get((i, a, u))
        if factor is None:
            factor = table[(i, a, u)] = _rank_one_factor(d, i, a, u)
        terms = []
        for term in block:
            terms.append(term)
            m1, c1, v1 = term
            for deltas, h2, c2, v2 in factor:
                # a unit coefficient is copied, not convolved
                cc = c1.copy() if c2 is None else _mac({}, c1, *c2)
                terms.append((m1._patched(deltas, h2), cc, v1 + v2))
        block = terms
    return block


def e_expansion(d: DynkinDiagram, m: Monomial, i: int) -> Character:
    """Expand an i-dominant monomial into its rank-one character block.

    For each spectral parameter a with u = u(i,a) > 0 the block carries the
    factor sum_r t^(r(u-r)) [u,r]_t A(i,aq)^-r; the leading term is m itself
    with coefficient 1 and every other term is strictly lower; a direction outside d is refused.
    """
    d._check_node(i)
    if not m.is_i_dominant(i):
        raise NotIDominantError(f"{m} is not {i}-dominant")
    return Character(d, {k: IntLaurent(c) for k, c, _ in _block(d, m, i, {}, {0: 1})})


def e_decompose(d: DynkinDiagram, chi: Character, i: int) -> List[Tuple[Monomial, IntLaurent]]:
    """Write chi as a combination of rank-one blocks in direction i.

    Takes the monomials in descending (height, sort_key) order, hence each
    maximal for the order among those left; each must be i-dominant, and its
    block is stripped.  A block's other terms lie at least one drop, so 2 in
    height, below its head, so the heads of one height never touch each
    other: the monomials are filed by height, a block term under its head's
    height less twice its drops, and each height is sorted once.  Raises
    QtcharError for a node i outside d, NotDecomposableError at a monomial
    that is not i-dominant, and CapExceededError past QCHAR_MAX_TERMS blocks.
    """
    d._check_node(i)
    w = _height_weights(d)
    cap = env_cap()
    rem = {m: dict(c._c) for m, c in chi._t.items()}  # raw, updated in place
    levels: Dict[int, set] = {}
    for m in rem:
        levels.setdefault(_height(w, m), set()).add(m)
    blocks: List[Tuple[Monomial, IntLaurent]] = []
    table: dict = {}
    while levels:
        h = max(levels)
        for top in sorted(levels.pop(h), key=Monomial.sort_key, reverse=True):
            c = rem.pop(top, None)
            if c is None:  # cancelled by a higher block
                continue
            if len(blocks) >= cap:
                raise CapExceededError(f"block extraction exceeded {cap} blocks")
            if not top.is_i_dominant(i):
                raise NotDecomposableError(f"maximal monomial {top} is not {i}-dominant")
            blocks.append((top, IntLaurent._raw(c)))
            for m, cc, drops in islice(_block(d, top, i, table, c), 1, None):
                acc = rem.get(m)
                if acc is None:
                    acc = rem[m] = {}
                    levels.setdefault(h - 2 * sum(r for _, r in drops), set()).add(m)
                if not _axpy(acc, cc, -1):
                    del rem[m]
    return blocks


def _shift_down(v: Profile) -> Profile:
    """The drop v at (i, a) moved to (i, aq^-1), for each drop of v."""
    return {(i, a.shift(-1)): c for (i, a), c in v.items()}


def _twist_exponent(down1: Profile, m2: Monomial, mp1: Monomial, v2: Profile) -> int:
    """pairing_d on precomputed drop profiles: down1 = _shift_down(v(m1,mp1)),
    v2 = v(m2,mp2).

    An empty profile drops its half of the sum, so a caller can compute the
    half that depends on one term only once.
    """
    total = 0
    for k, u in m2._e.items():
        total += down1.get(k, 0) * u
    for (i, a), v in v2.items():
        total += mp1.u(i, a.shift(1)) * v
    return total


def pairing_d(
    d: DynkinDiagram, m1: Monomial, mp1: Monomial, m2: Monomial, mp2: Monomial
) -> int:
    """The twist exponent pairing two ordered character terms.

    Sums v(m1,mp1) at (i,aq) against u(m2) at (i,a), plus u(mp1) at (i,aq)
    against v(m2,mp2) at (i,a).  Both arguments must lie below their tops.
    """
    v1 = v_profile(d, m1, mp1)
    if v1 is None:
        raise NotComparableError(f"{m1} is not below {mp1}")
    v2 = v_profile(d, m2, mp2)
    if v2 is None:
        raise NotComparableError(f"{m2} is not below {mp2}")
    return _twist_exponent(_shift_down(v1), m2, mp1, v2)


# ---------------------------------------------------------------------------
# Dominant monomials as root data of polynomial tuples


class FundamentalSpec(NamedTuple):
    """One linear Drinfeld factor: top monomial Y(node, spectral)."""

    node: int
    spectral: Spectral

    @property
    def top(self) -> Monomial:
        return Monomial.y(self.node, self.spectral)


class DrinfeldData:
    """Multiset of roots, one FundamentalSpec per linear factor.

    The roots keep the one admissible order (base, qexp, node): no root then
    lies above a later root on its base, so every ordered prefix pair
    satisfies the spectral-gap condition.
    """

    __slots__ = ("roots",)

    def __init__(self, roots: Iterable[Tuple[int, Spectral]] = ()):
        fs = (FundamentalSpec(*r) for r in roots)
        self.roots = tuple(sorted(fs, key=lambda f: (f.spectral.base, f.spectral.qexp, f.node)))

    def classes(self, d: DynkinDiagram) -> List["DrinfeldData"]:
        """The roots split by interaction class, each class in the admissible
        order, the classes in the order of their first roots.

        The class of Y(i, bq^k) is (b, (k + c(i)) mod 2) for the bipartite
        coloring c of d.  A root monomial A(j, bq^s) touches one class only,
        so every term of a fundamental character lies in its top's class, and
        the twist pairs variables of one class only.  A standard character is
        therefore the plain product of its classes' standard characters.
        """
        c = bipartite_coloring(d)
        out: Dict[Tuple[str, int], List[FundamentalSpec]] = {}
        for f in self.roots:
            out.setdefault((f.spectral.base, (f.spectral.qexp + c[f.node]) % 2), []).append(f)
        return [DrinfeldData(fs) for fs in out.values()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DrinfeldData):
            return NotImplemented
        return self.roots == other.roots

    def __hash__(self) -> int:
        return hash(self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def __repr__(self) -> str:
        return f"DrinfeldData({list(self.roots)!r})"


def _class_product(
    d: DynkinDiagram, p: DrinfeldData, class_sum: Callable[[DrinfeldData], Raw], cap: int
) -> Character:
    """The plain product, as a Character, of the raw sums class_sum(cls) over
    p's interaction classes, each wrapped once by Character._from_raw; a join
    of more than cap term pairs is refused before it is formed."""
    out = None
    for cls in p.classes(d):
        raw = class_sum(cls)
        if out is not None:
            _check_pairs(len(out), len(raw), cap)
        terms = Character._from_raw(d, raw)._t
        out = terms if out is None else _times(out, terms)
    return Character.unit(d) if out is None else Character._raw(d, out)


def _times(left: Dict[Monomial, IntLaurent], right: Dict[Monomial, IntLaurent]) -> dict:
    """The plain product of the terms of different interaction classes.

    The twist between classes is zero, so the coefficients only multiply, and
    each distinct pair of the classes' shared IntLaurents, keyed by identity,
    is multiplied once.  The classes touch disjoint variables, so each pair
    of terms gives its own monomial, on the union of the two exponent maps,
    and nothing merges.
    """
    rows = [(m2._e, m2._hash, id(c2)) for m2, c2 in right.items()]
    distinct = {id(c2): c2 for c2 in right.values()}
    products: Dict[int, List[IntLaurent]] = {}  # id(c1) -> c1 times each row's c2
    out = {}
    for m1, c1 in left.items():
        cs = products.get(id(c1))
        if cs is None:
            p = {k: c1 * c2 for k, c2 in distinct.items()}
            cs = products[id(c1)] = [p[k] for _, _, k in rows]
        x1, h1 = m1._e, m1._hash
        for (x2, h2, _), c in zip(rows, cs):
            out[Monomial._raw({**x1, **x2}, h1 + h2)] = c
    return out


def monomial_from_rational_tuple(num: DrinfeldData, den: DrinfeldData) -> Monomial:
    """Product of Y(i,a) over numerator roots and Y(i,b)^-1 over denominator roots."""
    return Monomial.from_factors(
        [(node, a, 1) for node, a in num.roots] + [(node, b, -1) for node, b in den.roots]
    )


def drinfeld_from_monomial(m: Monomial) -> DrinfeldData:
    """Inverse of the root dictionary on dominant monomials."""
    if not m.is_l_dominant():
        raise NotLDominantError(f"{m} has a negative exponent")
    roots = []
    for (node, a), v in m.items():
        roots.extend([(node, a)] * v)
    return DrinfeldData(roots)


def is_right_negative(m: Monomial) -> bool:
    """Whether every variable at the maximal q-exponent has a negative power.

    The unit monomial is not right negative by convention.
    """
    if m.is_unit():
        return False
    m.single_base()
    smax = max(a.qexp for (_, a), _ in m.items())
    return all(v < 0 for (_, a), v in m.items() if a.qexp == smax)


# ---------------------------------------------------------------------------
# Graphs on monomials: edge order and DOT export


def _edge_key(source_key):
    """Order edges (m1, m2, *tag) by source, ranked by source_key, then tag."""
    return lambda e: (source_key(e[0]), *e[2:])


def _to_dot(name: str, vertices: Iterable[Monomial], edges, vertex_label, edge_label) -> str:
    """DOT text: vertices v0, v1, ... in sort_key order, labelled
    vertex_label(m, str(m)) with str(m) from one _text table per call; edges
    in _edge_key order by their source's rank, labelled edge_label(e)."""
    rank = {m: k for k, m in enumerate(sorted(vertices, key=Monomial.sort_key))}
    names: Dict[Tuple[int, Spectral], str] = {}
    lines = [f"digraph {name} {{"]
    lines += [f'  v{k} [label="{vertex_label(m, _text(m, names))}"];' for m, k in rank.items()]
    for e in sorted(edges, key=_edge_key(rank.__getitem__)):
        lines.append(f'  v{rank[e[0]]} -> v{rank[e[1]]} [label="{edge_label(e)}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON serialization (schema shared with the command-line tool)


def character_to_json(chi: Character) -> list:
    out = []
    for m, c in chi.items():
        mono = [
            {"node": node, "base": a.base, "qexp": a.qexp, "exp": v}
            for (node, a), v in m.items()
        ]
        coeff = [{"texp": e, "c": v} for e, v in c.items()]
        out.append({"monomial": mono, "coeff": coeff})
    return out


def character_from_json(d: DynkinDiagram, data: list) -> Character:
    """The character of character_to_json's list; a node outside d is refused."""
    terms: Dict[Monomial, IntLaurent] = {}
    for entry in data:
        m = Monomial.from_factors(
            (v["node"], Spectral(v["base"], v["qexp"]), v["exp"]) for v in entry["monomial"]
        )
        for node, _ in m._e:
            d._check_node(node)
        c = IntLaurent({p["texp"]: p["c"] for p in entry["coeff"]})
        terms[m] = terms.get(m, IntLaurent.zero()) + c
    return Character(d, terms)
