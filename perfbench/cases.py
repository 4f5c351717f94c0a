"""Benchmark inputs: the case ladders, the seeded small-tier sweep, and the
closed forms the output checks compare against.

Cases are written in the command-line syntax (``D:5`` and
``1:a:0,2:a:1,spin+:a:2``) and parsed with ``qtchar.cli``, so building the
inputs goes through the same parser the ``qtchar`` command uses.

Run as a script (``python3 perfbench/cases.py <workload> <seed>``) it only
imports the package and builds that workload's inputs; ``run.py`` times such
fresh interpreters for ``setup_s``.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package() -> None:
    """Put the checkout's ``src`` first on the path and import qtchar from it.

    Exits with code 2 when the checkout holds no package source, so a run in
    a directory without the program fails before printing a result.
    """
    if not (SRC / "qtchar" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC}/qtchar\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qtchar
    import qtchar.cli

    if Path(qtchar.__file__).resolve().parent != SRC / "qtchar":
        sys.stderr.write(f"perfbench: qtchar imported from {qtchar.__file__}\n")
        raise SystemExit(2)


import_package()

from qtchar.cli import parse_diagram, parse_factors  # noqa: E402
from qtchar.engine import FundamentalSpec  # noqa: E402
from qtchar.rootdata import DynkinDiagram  # noqa: E402
from qtchar.yalgebra import DrinfeldData, Monomial  # noqa: E402

WORKLOADS = ("engine", "tableaux", "graphs")

# Repeats per large case, one per block of a run; each case is reported as
# the median of its repeats.
LARGE_REPEATS = 7
# Size caps on the tableaux a case enumerates (product_total); build_inputs
# refuses a ladder that exceeds them.
LARGE_CAP = 20000
SMALL_CAP = 2000
# Distinct small-tier rounds built per run; later rounds cycle through them.
SMALL_ROUNDS_BUILT = 64

# Engine and tableaux share this ladder: fundamentals of the heaviest closures
# (A9 node 5, D6 nodes 3-4, D7 node 4, the D7 spin nodes) and 2-4 factor
# products with repeated, adjacent, separated (q^2 and q^3 gaps) and
# cross-base roots.
ROUTE_LARGE = (
    ("fundamental", "A:9", "5:a:0"),
    ("fundamental", "D:6", "3:a:0"),
    ("fundamental", "D:6", "4:a:0"),
    ("fundamental", "D:7", "4:a:0"),
    ("fundamental", "D:7", "spin+:a:0"),
    ("fundamental", "D:7", "spin-:a:0"),
    ("product", "D:5", "1:a:0,2:a:1,spin+:a:2"),
    ("product", "D:5", "2:a:0,2:a:2"),
    ("product", "A:5", "2:a:0,3:a:1,2:a:4"),
    ("product", "A:4", "1:a:0,2:a:0,2:a:0,1:b:0"),
    ("product", "D:5", "1:a:0,spin-:a:1,1:b:0"),
    ("product", "A:6", "3:a:0,3:a:2"),
    ("product", "D:6", "2:a:0,1:a:3"),
)

# Graph cases are single-base and parity-admissible, so each one runs both
# `qtchar graph --output dot` and `qtchar crystal --output dot`.
GRAPHS_LARGE = (
    ("graph", "D:4", "1:a:0,2:a:1,3:a:2"),
    ("graph", "D:5", "1:a:0,spin+:a:1"),
    ("graph", "A:3", "1:a:0,2:a:1,1:a:2,2:a:3"),
    ("graph", "A:4", "1:a:0,2:a:1,1:a:4"),
)

# Small-tier templates: factors are (node token, base slot, q-exponent).  Each
# round relabels every base slot with a seeded symbol and q-shift, so the same
# fundamentals recur at shifted spectral parameters and under other bases
# while the work per round stays the same for every seed.
ROUTE_SMALL = (
    ("fundamental", "A:2", (("1", 0, 0),)),
    ("fundamental", "A:3", (("2", 0, 0),)),
    ("fundamental", "A:4", (("2", 0, 0),)),
    ("fundamental", "A:5", (("3", 0, 0),)),
    ("fundamental", "D:4", (("1", 0, 0),)),
    ("fundamental", "D:4", (("2", 0, 0),)),
    ("fundamental", "D:4", (("spin+", 0, 0),)),
    ("fundamental", "D:5", (("1", 0, 0),)),
    ("fundamental", "D:5", (("2", 0, 0),)),
    ("fundamental", "D:5", (("spin-", 0, 0),)),
    ("product", "A:2", (("1", 0, 0), ("2", 0, 1))),
    ("product", "A:2", (("1", 0, 0), ("1", 0, 0))),
    ("product", "A:3", (("1", 0, 0), ("2", 0, 2))),
    ("product", "A:3", (("2", 0, 0), ("1", 1, 0))),
    ("product", "A:2", (("1", 0, 0), ("2", 0, 1), ("1", 0, 3))),
    ("product", "D:4", (("1", 0, 0), ("1", 0, 1))),
    ("product", "D:4", (("spin+", 0, 0), ("1", 0, 1))),
    ("product", "D:4", (("2", 0, 0), ("1", 1, 0))),
)

GRAPHS_SMALL = (
    ("graph", "A:2", (("1", 0, 0), ("2", 0, 1))),
    ("graph", "A:3", (("1", 0, 0), ("2", 0, 1))),
    ("graph", "A:3", (("2", 0, 0), ("2", 0, 2))),
    ("graph", "A:3", (("1", 0, 0), ("3", 0, 0))),
    ("graph", "A:4", (("2", 0, 0),)),
    ("graph", "A:2", (("1", 0, 0), ("1", 0, 2), ("2", 0, 3))),
    ("graph", "D:4", (("1", 0, 0), ("2", 0, 1))),
    ("graph", "D:4", (("spin+", 0, 0),)),
    ("graph", "D:4", (("2", 0, 0),)),
    ("graph", "D:4", (("1", 0, 0), ("3", 0, 0))),
)

BASE_SYMBOLS = ("a", "b", "c", "u", "v", "w", "x", "z")


class Case(NamedTuple):
    """One operation: a fundamental, a product, or a graph-and-crystal call."""

    kind: str
    diagram: str
    factors: str
    d: DynkinDiagram
    specs: Tuple[FundamentalSpec, ...]
    p: DrinfeldData
    top: Monomial

    @property
    def label(self) -> str:
        return f"{self.diagram} {self.factors}"


class Relabel(NamedTuple):
    """A small case, its template, and the (base symbol, q-shift) each base
    slot of the template received."""

    case: Case
    template: int
    slots: Dict[int, Tuple[str, int]]


def make_case(kind: str, diagram: str, factors: str) -> Case:
    d = parse_diagram(diagram)
    specs = tuple(parse_factors(d, factors))
    top = Monomial.one()
    for f in specs:
        top = top * f.top
    p = DrinfeldData([(f.node, f.spectral) for f in specs])
    return Case(kind, diagram, factors, d, specs, p, top)


def small_round(templates, seed: int, r: int) -> List[Relabel]:
    """Round r of the sweep: every template once, relabelled and shuffled."""
    rng = random.Random(seed * 1_000_003 + r)
    out = []
    for k, (kind, diagram, factors) in enumerate(templates):
        symbols = rng.sample(BASE_SYMBOLS, 2)
        shift = [rng.randint(-6, 6), rng.randint(-6, 6)]
        text = ",".join(f"{node}:{symbols[slot]}:{q + shift[slot]}" for node, slot, q in factors)
        slots = {slot: (symbols[slot], shift[slot]) for _, slot, _ in factors}
        out.append(Relabel(make_case(kind, diagram, text), k, slots))
    rng.shuffle(out)
    return out


def build_inputs(workload: str, seed: int):
    """The large ladder and the small-tier rounds for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    large_spec, small_spec = (
        (GRAPHS_LARGE, GRAPHS_SMALL) if workload == "graphs" else (ROUTE_LARGE, ROUTE_SMALL)
    )
    large = [make_case(*spec) for spec in large_spec]
    rounds = [small_round(small_spec, seed, r) for r in range(SMALL_ROUNDS_BUILT)]
    for cases, cap in ((large, LARGE_CAP), ([x.case for x in rounds[0]], SMALL_CAP)):
        for c in cases:
            if product_total(c) > cap:
                raise ValueError(f"{c.label} enumerates {product_total(c)} tableaux, cap {cap}")
    return large, rounds


# ---------------------------------------------------------------------------
# Closed forms, written apart from the package


def is_spin(d: DynkinDiagram, node: int) -> bool:
    return d.kind == "D" and node >= d.rank - 1


def fundamental_total(d: DynkinDiagram, node: int) -> int:
    """The t=1 total of a fundamental character, which is also the number of
    columns its tableaux sum enumerates."""
    n = d.rank
    if d.kind == "A":
        return math.comb(n + 1, node)
    if is_spin(d, node):
        return 2 ** (n - 1)
    return sum(math.comb(2 * n, node - 2 * k) for k in range(node // 2 + 1))


def product_total(case: Case) -> int:
    """The t=1 total of a product, which is also the number of tableaux its
    tableaux sum enumerates (the product of the pool sizes)."""
    return math.prod(fundamental_total(case.d, f.node) for f in case.specs)


def neighbors(kind: str, n: int) -> Dict[int, List[int]]:
    """Dynkin adjacency: the path 1-...-n, or in type D nodes n-1 and n
    both attached to n-2."""
    adj = {i: [] for i in range(1, n + 1)}
    edges = [(i, i + 1) for i in range(1, n)]
    if kind == "D":
        edges = [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def weyl_dimension(kind: str, n: int, coeffs: Dict[int, int]) -> int:
    """Weyl's product formula prod (lam+rho, alpha)/(rho, alpha) over positive
    roots, in orthonormal coordinates: e_i - e_j in type A_n, e_i +- e_j in
    type D_n."""
    half = Fraction(1, 2)
    if kind == "A":
        dim = n + 1
        fund = [[1 if k < i else 0 for k in range(dim)] for i in range(1, n + 1)]
        roots = [(i, j, -1) for i in range(dim) for j in range(i + 1, dim)]
    else:
        dim = n
        fund = [[1 if k < i else 0 for k in range(dim)] for i in range(1, n - 1)]
        fund.append([half] * (n - 1) + [-half])
        fund.append([half] * n)
        roots = [(i, j, s) for i in range(dim) for j in range(i + 1, dim) for s in (-1, 1)]
    lam = [sum(coeffs.get(i + 1, 0) * fund[i][k] for i in range(n)) for k in range(dim)]
    rho = [sum(fund[i][k] for i in range(n)) for k in range(dim)]
    out = Fraction(1)
    for i, j, s in roots:
        out *= Fraction(lam[i] + rho[i] + s * (lam[j] + rho[j])) / (rho[i] + s * rho[j])
    return int(out)


if __name__ == "__main__":
    build_inputs(sys.argv[1], int(sys.argv[2]))
