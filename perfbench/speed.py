"""Host speed: a fixed piece of pure-Python work timed next to every sample.

The benchmark's host is shared, and how fast it runs Python drifts by 30 %
and more over minutes, in spells longer than a run.  A wall time alone then
measures the spell a run fell in.  So every timed sample is bracketed by the
reference work below, timed just before and just after it, and is scaled by

    REFERENCE_S / (mean of the two reference times)

into *reference seconds*: the time the sample would take on a host where the
reference work takes ``REFERENCE_S`` seconds.  The reference work is the
benchmark's own, uses nothing from ``qtchar``, and is the same in every run
and every commit, so a change to the program moves the scaled figures just as
it moves the wall times, while a slow spell of the host scales out.

It does what the package does most: build sparse exponent maps keyed by
(node, spectral parameter) tuples, multiply them, hash and sort them, and
accumulate integer Laurent coefficients in dicts.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from time import perf_counter

# The reference work's wall time on a quiet spell of the host the reference
# figures in README.md come from (2 shared vCPUs, Python 3.11).  A fixed
# constant: it sets the unit, not the measurement.
REFERENCE_S = 0.017

_P = namedtuple("_P", "base qexp")


class _Mono:
    __slots__ = ("e", "key", "h")

    def __init__(self, e):
        self.e = {k: v for k, v in e.items() if v}
        self.key = tuple(sorted(self.e.items(), key=lambda kv: (kv[0][1].base, kv[0][1].qexp, kv[0][0])))
        self.h = hash(self.key)

    def __mul__(self, other):
        e = dict(self.e)
        for k, v in other.e.items():
            e[k] = e.get(k, 0) + v
        return _Mono(e)

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return self.h


def reference_work(nodes: int = 5, depth: int = 5) -> int:
    """A fixed closure on the path graph with `nodes` nodes: from a top
    monomial, multiply by root-like monomials for `depth` steps, keeping t-
    coefficients as {exponent: count} dicts.  Returns the number of terms."""
    roots = []
    for i in range(nodes):
        for s in range(depth + 2):
            e = {(i, _P("a", s + 1)): -1, (i, _P("a", s - 1)): -1}
            if i > 0:
                e[(i - 1, _P("a", s))] = 1
            if i < nodes - 1:
                e[(i + 1, _P("a", s))] = 1
            roots.append(_Mono(e))
    top = _Mono({(i, _P("a", 0)): 1 for i in range(0, nodes, 2)})
    chi = {top: {0: 1}}
    frontier = [top]
    for step in range(depth):
        nxt = {}
        for m in frontier:
            c = chi[m]
            for r in roots[step::depth]:
                coeff = nxt.setdefault(m * r, {})
                for ex, v in c.items():
                    coeff[ex + 2] = coeff.get(ex + 2, 0) + v
        for m, coeff in nxt.items():
            old = chi.setdefault(m, {})
            for ex, v in coeff.items():
                old[ex] = old.get(ex, 0) + v
        frontier = sorted(nxt, key=lambda m: m.key)[:40]
    counts = {}
    for i in range(20000):
        k = (i % 97, i % 13)
        counts[k] = counts.get(k, 0) + i * 3
    return len(chi) + len(sorted(counts.items()))


def reference_seconds() -> float:
    """Wall time of one reference_work(), with the collector off so that a
    collection of the caller's objects does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales wall times into reference seconds.

    ``mark()`` times the reference work just before a timed region;
    ``scaled(dt)`` times it again just after and returns ``dt`` scaled by the
    mean of the two.  The reference after one sample serves as the reference
    before the next, so back-to-back samples need no ``mark()`` between them.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()
        self.factors = []

    def mark(self) -> None:
        self.last = reference_seconds()

    def scaled(self, dt: float) -> float:
        after = reference_seconds()
        factor = 2 * REFERENCE_S / (self.last + after)
        self.last = after
        self.factors.append(factor)
        return dt * factor
