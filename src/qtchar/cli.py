"""Command-line front end: characters, crystals, graphs, verification.

Factors are comma-separated tokens ``node:base:qexp`` (or ``spin+:base:qexp``
and ``spin-:base:qexp`` in type D); output is deterministic text, JSON,
or DOT.  An option the command would ignore is refused.  Exit codes: 0
success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional, Tuple

from . import tableaux_a, tableaux_d
from .crystal import generate_crystal, verify_crystal_axioms
from .engine import (
    FundamentalSpec,
    fundamental_character,
    gamma_graph,
    standard_character,
)
from .errors import CapExceededError, QtcharError, env_cap
from .rootdata import DynkinDiagram
from .yalgebra import (
    Character,
    DrinfeldData,
    Monomial,
    Spectral,
    a_monomial,
    character_to_json,
    pairing_d,
    specialize_t,
    v_profile,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals are one stderr line, with no usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def parse_diagram(text: str) -> DynkinDiagram:
    try:
        kind, rank = text.split(":")
        n = int(rank)
    except ValueError:
        raise UsageError(f"bad diagram {text!r}: expected A:<n> or D:<n>")
    builders = {"A": DynkinDiagram.type_a, "D": DynkinDiagram.type_d}
    if kind not in builders:
        raise UsageError(f"bad diagram {text!r}: unknown type {kind!r}")
    try:
        return builders[kind](n)
    except QtcharError as exc:
        raise UsageError(f"bad diagram {text!r}: {exc}")


def parse_factors(d: DynkinDiagram, text: str) -> List[FundamentalSpec]:
    """Tokens node:base:qexp, with spin+/spin- aliases for the fork nodes."""
    out = []
    for pos, token in enumerate(text.split(","), start=1):
        parts = token.split(":")
        if len(parts) != 3:
            raise UsageError(f"factor {pos} ({token!r}): expected node:base:qexp")
        head, base, qexp = parts
        if head in ("spin+", "spin-"):
            if d.kind != "D":
                raise UsageError(f"factor {pos} ({token!r}): spin needs a type D diagram")
            node = d.rank if head == "spin+" else d.rank - 1
        else:
            try:
                node = int(head)
            except ValueError:
                raise UsageError(f"factor {pos} ({token!r}): bad node {head!r}")
            if not (1 <= node <= d.rank):
                raise UsageError(f"factor {pos} ({token!r}): node outside 1..{d.rank}")
        if not base:
            raise UsageError(f"factor {pos} ({token!r}): empty base symbol")
        # a base prints as itself before q^k, so q or a non-letter would let
        # two different factors print alike (aq:0 and a:1 both print aq)
        if not (base.isascii() and base.isalpha()) or "q" in base:
            raise UsageError(
                f"factor {pos} ({token!r}): bad base symbol {base!r}: "
                "expected ASCII letters other than q"
            )
        try:
            k = int(qexp)
        except ValueError:
            raise UsageError(f"factor {pos} ({token!r}): bad q-exponent {qexp!r}")
        out.append(FundamentalSpec(node, Spectral(base, k)))
    return out


def render_character(chi: Character, fmt: str, t_eval: Optional[int]) -> str:
    if t_eval is not None:
        values = specialize_t(chi, t_eval)
        if fmt == "json":
            return json.dumps(
                {
                    "t": t_eval,
                    "terms": [{"monomial": str(m), "value": v} for m, v in values.items()],
                    "total": sum(values.values()),
                },
                indent=2,
            )
        lines = [f"{v:>6}  {m}" for m, v in values.items()]
        lines.append(f"total {sum(values.values())}")
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(character_to_json(chi), indent=2)
    if fmt == "dot":
        return gamma_graph(chi).to_dot()
    lines = [f"{str(c):>16}  {m}" for m, c in chi.items()]
    lines.append(f"monomials {len(chi)}")
    return "\n".join(lines)


def cmd_fundamental(d, factors, args) -> Tuple[int, str]:
    chi = fundamental_character(d, factors[0])
    return 0, render_character(chi, args.output, args.t_eval)


def cmd_standard(d, factors, args) -> Tuple[int, str]:
    chi = standard_character(d, DrinfeldData(factors))
    return 0, render_character(chi, args.output, args.t_eval)


def cmd_spin(d, factors, args) -> Tuple[int, str]:
    (f,) = factors
    if f.node not in (d.rank - 1, d.rank):
        raise UsageError("spin expects exactly one spin factor")
    chi = tableaux_d.spin_char(d, f.spectral, "+" if f.node == d.rank else "-")
    return 0, render_character(chi, args.output, args.t_eval)


def cmd_graph(d, factors, args) -> Tuple[int, str]:
    chi = standard_character(d, DrinfeldData(factors))
    g = gamma_graph(chi)
    if args.output == "dot":
        return 0, g.to_dot()
    if args.output == "json":
        payload = character_to_json(chi)
        edges = [
            {"from": str(m1), "to": str(m2), "node": i, "base": a.base, "qexp": a.qexp}
            for m1, m2, i, a in g.sorted_edges()
        ]
        return 0, json.dumps({"terms": payload, "edges": edges}, indent=2)
    lines = [f"{str(m1)} --{i},{a}--> {m2}" for m1, m2, i, a in g.sorted_edges()]
    lines.append(f"vertices {len(g.vertices)} edges {len(g.edges)}")
    return 0, "\n".join(lines)


def cmd_crystal(d, factors, args) -> Tuple[int, str]:
    g = generate_crystal(d, Monomial.from_factors((f.node, f.spectral, 1) for f in factors))
    problems = verify_crystal_axioms(g)
    if args.output == "dot":
        return (1 if problems else 0), g.to_dot()
    lines = [f"{m}" for m in g.sorted_vertices()]
    lines.append(f"vertices {len(g.vertices)} edges {len(g.edges)}")
    lines.append("axioms ok" if not problems else f"axiom violations: {len(problems)}")
    return (1 if problems else 0), "\n".join(lines)


def cmd_restrict(d, factors, args) -> Tuple[int, str]:
    N = factors[0].node  # restriction forgets the spectral parameter
    if N > d.rank - 2:
        raise UsageError(f"restrict expects a vector node 1..{d.rank - 2}")
    table = tableaux_d.restricted_character(d.rank, N)
    lines = []
    for key in sorted(table):
        mono = " ".join(f"y{i}^{v}" if v != 1 else f"y{i}" for i, v in key) or "1"
        lines.append(f"{table[key]:>4}  {mono}")
    lines.append(f"total {sum(table.values())}")
    return 0, "\n".join(lines)


def d_columns_via_pairing(d: DynkinDiagram, ca, cb) -> int:
    """tableaux_a.d_columns through the engine's generic twist pairing."""
    n = d.rank
    ma, mb = tableaux_a.column_monomial(n, ca), tableaux_a.column_monomial(n, cb)
    pa = Monomial.y(ca.length, ca.center) if ca.length <= n else Monomial.one()
    pb = Monomial.y(cb.length, cb.center) if cb.length <= n else Monomial.one()
    return pairing_d(d, ma, pa, mb, pb)


def cmd_verify(d, factors, args) -> Tuple[int, str]:
    """Differential suites: tableaux vs engine, closed forms vs generic,
    crystal axioms, randomized drop-profile soundness."""
    rng = random.Random(args.seed if args.seed is not None else 0)
    q0 = Spectral("a", 0)
    lines = []

    def report(name: str, ok: bool) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")

    if d.kind == "A":
        ok = True
        for N in range(1, d.rank + 1):
            ok &= tableaux_a.fundamental_char_tableaux(d, N, q0) == fundamental_character(
                d, FundamentalSpec(N, q0)
            )
        report("tableaux fundamentals match the engine", ok)
        p = DrinfeldData([(1, q0), (min(2, d.rank), Spectral("a", 1))])
        report(
            "two-factor tableaux sum matches the engine",
            tableaux_a.standard_char_tableaux(d, p) == standard_character(d, p),
        )
        cols = []
        for N in range(1, d.rank + 1):
            for k in (-1, 0, 1):
                cols += tableaux_a.enumerate_fundamental_columns(d.rank, N, Spectral("a", k))
        ok = all(
            tableaux_a.d_columns(x, y) == d_columns_via_pairing(d, x, y)
            for x in cols
            for y in cols
        )
        report("closed pair statistic matches the pairing", ok)
    elif d.kind == "D":
        n = d.rank
        ok = True
        for N in range(1, n - 1):
            ok &= tableaux_d.fundamental_char_tableaux(d, N, q0) == fundamental_character(
                d, FundamentalSpec(N, q0)
            )
        report("vector tableaux fundamentals match the engine", ok)
        ok = tableaux_d.spin_char(d, q0, "+") == fundamental_character(
            d, FundamentalSpec(n, q0)
        ) and tableaux_d.spin_char(d, q0, "-") == fundamental_character(
            d, FundamentalSpec(n - 1, q0)
        )
        report("spin tableaux match the engine", ok)
        ok = True
        cols = tableaux_d.enumerate_spin(n, q0, "+") + tableaux_d.enumerate_spin(n, q0, "-")
        for N in range(1, n - 1):
            cols += tableaux_d.enumerate_fundamental_columns(n, N, q0)
        for col in cols:
            m = tableaux_d.column_monomial(n, col)
            spin = isinstance(col, tableaux_d.SpinColumn)
            closed_u = tableaux_d.closed_u_spin if spin else tableaux_d.closed_u
            for i in d.nodes:
                for s in range(-2, 2 * n + 3):
                    ok &= closed_u(n, col, i, s) == m.u(i, Spectral("a", s))
            ok &= tableaux_d.drop_family(n, col) == v_profile(
                d, m, tableaux_d.column_top(n, col)
            )
        report("closed exponent and drop formulas match", ok)

    m0 = Monomial.y(1, Spectral("a", 0))
    g = generate_crystal(d, m0)
    report("crystal axioms hold on the vector crystal", not verify_crystal_axioms(g))

    ok = True
    for _ in range(200):
        mp = Monomial.y(rng.randint(1, d.rank), Spectral("a", rng.randint(-2, 2)))
        m = mp
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(1, d.rank)
            m = m * a_monomial(d, i, Spectral("a", rng.randint(-3, 3))).inv()
        vp = v_profile(d, m, mp)
        if vp is None:
            ok = False
            continue
        rebuilt = mp
        for (i, a), v in vp.items():
            rebuilt = rebuilt * a_monomial(d, i, a).inv() ** v
        ok &= rebuilt == m
    report("randomized drop profiles rebuild their monomials", ok)

    failures = sum(line.startswith("FAIL") for line in lines)
    lines.append("verify " + ("passed" if failures == 0 else f"failed ({failures})"))
    return (1 if failures else 0), "\n".join(lines)


# Each command, the --output values it renders, the other options it reads, the
# diagram type it needs and the factors it expects ("exactly one ..." or "at least one ...")
_ALL = ("text", "json", "dot")  # every --output value
COMMANDS = {
    "fundamental": (cmd_fundamental, _ALL, ("--factors", "--t-eval"), None, "exactly one factor"),
    "standard": (cmd_standard, _ALL, ("--factors", "--t-eval"), None, "at least one factor"),
    "spin": (cmd_spin, _ALL, ("--factors", "--t-eval"), "D", "exactly one spin factor"),
    "crystal": (cmd_crystal, ("text", "dot"), ("--factors",), None, "at least one factor"),
    "graph": (cmd_graph, _ALL, ("--factors",), None, "at least one factor"),
    "verify": (cmd_verify, ("text",), ("--seed",), None, None),
    "restrict": (cmd_restrict, ("text",), ("--factors",), "D", "exactly one factor"),
}


def check_options(args: argparse.Namespace, d: DynkinDiagram, factors: List) -> None:
    """Refuse an option that the command would ignore, then a diagram type or
    factor count that it does not take."""
    _, outputs, reads, kind, expects = COMMANDS[args.command]
    for flag in ("--factors", "--t-eval", "--seed"):
        if getattr(args, flag[2:].replace("-", "_")) not in (None, "") and flag not in reads:
            raise UsageError(f"{args.command} does not read {flag}")
    name = args.command
    if args.t_eval is not None:  # t-evaluated values have no DOT form
        name, outputs = f"{name} --t-eval", ("text", "json")
    if args.output not in outputs:
        raise UsageError(f"{name} supports --output {' or '.join(outputs)}, not {args.output}")
    if kind and d.kind != kind:
        raise UsageError(f"{args.command} expects a type {kind} diagram")
    if expects and (not factors or len(factors) > 1 and expects.startswith("exactly")):
        raise UsageError(f"{args.command} expects {expects}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qtchar",
        description="t-weighted characters of loop-algebra modules, two ways",
    )
    ap.add_argument("--diagram", required=True, help="A:<n> or D:<n>")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--factors", default="", help="comma-separated node:base:qexp")
    ap.add_argument("--output", choices=_ALL, default="text")
    ap.add_argument("--t-eval", type=int, default=None, dest="t_eval")
    ap.add_argument("--seed", type=int, default=None)
    return ap


def run(argv: List[str]) -> Tuple[int, str]:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code else 0), ""
    try:
        d = parse_diagram(args.diagram)
        factors = parse_factors(d, args.factors) if args.factors else []
        try:
            env_cap()
        except QtcharError as exc:  # a malformed cap is a usage error
            raise UsageError(exc)
        check_options(args, d, factors)
        return COMMANDS[args.command][0](d, factors, args)
    except UsageError as exc:
        return 2, f"error: {exc}"
    except CapExceededError as exc:
        # a size cap is refused as argparse refuses: one stderr line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except QtcharError as exc:
        return 1, f"error: {exc}"


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        print(text)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
