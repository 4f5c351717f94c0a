"""Route-split benchmark for qtchar: one workload, one seed, one process.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0

Workloads: ``engine`` (inductive closure and twisted products), ``tableaux``
(closed tableaux sums on the same cases) and ``graphs`` (what
``qtchar graph --output dot`` and ``qtchar crystal --output dot`` call).
Each has a large tier, a fixed ladder of big cases timed as the median of
their repeats, and a small tier, a seeded sweep of small cases run in whole
rounds for ``--seconds`` seconds of busy time.  Every timing is in reference
seconds: wall time scaled by the host speed measured next to it (see
``speed.py``).  Outputs are checked outside the timed regions; an operation
that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times the large
tier once untraced and once traced, runs one traced small round, replays the
kernels on the workload's own outputs, writes the spans to
``perfbench/results/trace-<workload>-<seed>.json`` and prints the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
from statistics import median
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks as C
from cases import (
    LARGE_REPEATS,
    ROOT,
    WORKLOADS,
    build_inputs,
    fundamental_total,
    is_spin,
    product_total,
)
from spans import UNTRACED, Tracer
from speed import HostSpeed
from qtchar import tableaux_a, tableaux_d
from qtchar.cli import parse_factors
from qtchar.crystal import generate_crystal, kashiwara_f, verify_crystal_axioms
from qtchar.engine import (
    fundamental_character,
    gamma_graph,
    order_factors,
    standard_character,
    twisted_product,
)
from qtchar.laurent import IntLaurent
from qtchar.rootdata import DynkinDiagram
from qtchar.yalgebra import (
    Monomial,
    a_monomial,
    character_from_json,
    character_to_json,
    drop_degree,
    e_expansion,
    pairing_d,
    v_profile,
)

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
# Cold starts timed per block for setup_s; the median is reported.
SETUP_STARTS_PER_BLOCK = 2
# Least busy time per small-tier rate sample; small_calls_per_s is the
# median sample.
SMALL_SAMPLE_S = 0.25
# Kernel replay: argument tuples per kernel, batches, and the least time a
# batch runs; the fastest batch gives the microseconds per call.
KERNEL_ARGS = 64
KERNEL_BATCHES = 5
KERNEL_BATCH_S = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("large_s", "s"),
    ("small_calls_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

# Every per-layer metric a traced run prints.  ``.ms`` is the total time in
# spans of that call over the traced run (pass and checks), ``.us`` the
# replayed kernel's time per call.
PER_LAYER = (
    ("engine.fundamental_character.ms", "ms"),
    ("engine.fundamental_character.terms", "count"),
    ("engine.closure_depth.max", "count"),
    ("engine.twisted_product.ms", "ms"),
    ("engine.twisted_product.pairs", "count"),
    ("engine.twisted_product.merge_ratio", "terms/pair"),
    ("engine.order_factors.ms", "ms"),
    ("tableaux_a.standard_char_tableaux.ms", "ms"),
    ("tableaux_d.standard_char_tableaux.ms", "ms"),
    ("tableaux.enumerated", "count"),
    ("tableaux.distinct_ratio", "terms/tableau"),
    ("tableaux_a.fundamental_char_tableaux.ms", "ms"),
    ("tableaux_d.fundamental_char_tableaux.ms", "ms"),
    ("tableaux_d.spin_char.ms", "ms"),
    ("tableaux_a.enumerate_fundamental_columns.ms", "ms"),
    ("tableaux_d.enumerate_fundamental_columns.ms", "ms"),
    ("tableaux_d.enumerate_spin.ms", "ms"),
    ("engine.standard_character.ms", "ms"),
    ("engine.gamma_graph.ms", "ms"),
    ("engine.gamma_graph.vertices", "count"),
    ("engine.gamma_graph.edges", "count"),
    ("engine.GammaGraph.to_dot.ms", "ms"),
    ("yalgebra.character_to_json.ms", "ms"),
    ("crystal.generate_crystal.ms", "ms"),
    ("crystal.verify_crystal_axioms.ms", "ms"),
    ("crystal.CrystalGraph.to_dot.ms", "ms"),
    ("crystal.vertices", "count"),
    ("yalgebra.Monomial.mul.us", "us"),
    ("yalgebra.Monomial.y.us", "us"),
    ("yalgebra.v_profile.us", "us"),
    ("yalgebra.pairing_d.us", "us"),
    ("yalgebra.drop_degree.us", "us"),
    ("yalgebra.e_expansion.us", "us"),
    ("laurent.IntLaurent.add.us", "us"),
    ("laurent.IntLaurent.mul.us", "us"),
    ("rootdata.DynkinDiagram.hash.us", "us"),
    ("yalgebra.a_monomial.us", "us"),
    ("crystal.kashiwara_f.us", "us"),
    ("cli.parse_factors.us", "us"),
    ("trace.overhead_s", "s"),
)

# ---------------------------------------------------------------------------
# The two routes and the graph calls, each package call through the tracer


def engine_fundamental(tr, d, f):
    chi = tr.call("engine.fundamental_character", fundamental_character, d, f)
    if tr.on:
        tr.count("engine.fundamental_character.terms", len(chi))
        tr.maximum("engine.closure_depth.max", max(drop_degree(d, m, f.top) for m in chi.support()))
    return chi


def engine_fold(tr, case):
    """standard_character replayed as its public steps: order_factors, one
    fundamental_character per distinct factor, then a twisted_product fold."""
    d = case.d
    factors = tr.call("engine.order_factors", order_factors, case.specs)
    funds = {}
    for f in factors:
        if f not in funds:
            funds[f] = engine_fundamental(tr, d, f)
    chi, mp = funds[factors[0]], factors[0].top
    for f in factors[1:]:
        nxt = tr.call("engine.twisted_product", twisted_product, chi, mp, funds[f], f.top, d)
        if tr.on:
            tr.count("engine.twisted_product.pairs", len(chi) * len(funds[f]))
            tr.count("engine.twisted_product.terms", len(nxt))
        chi, mp = nxt, mp * f.top
    return chi, funds


def engine_standard(tr, case):
    return tr.call("engine.standard_character", standard_character, case.d, case.p)


def tableaux_fundamental(tr, d, f):
    if d.kind == "A":
        name, fn, args = "tableaux_a.fundamental_char_tableaux", tableaux_a.fundamental_char_tableaux, (d, f.node, f.spectral)
    elif is_spin(d, f.node):
        chirality = "+" if f.node == d.rank else "-"
        name, fn, args = "tableaux_d.spin_char", tableaux_d.spin_char, (d, f.spectral, chirality)
    else:
        name, fn, args = "tableaux_d.fundamental_char_tableaux", tableaux_d.fundamental_char_tableaux, (d, f.node, f.spectral)
    chi = tr.call(name, fn, *args)
    if tr.on:
        tr.count("tableaux.enumerated", fundamental_total(d, f.node))
        tr.count("tableaux.terms", len(chi))
    return chi


def tableaux_standard(tr, case):
    mod, name = (tableaux_a, "tableaux_a") if case.d.kind == "A" else (tableaux_d, "tableaux_d")
    chi = tr.call(f"{name}.standard_char_tableaux", mod.standard_char_tableaux, case.d, case.p)
    if tr.on:
        tr.count("tableaux.enumerated", product_total(case))
        tr.count("tableaux.terms", len(chi))
    return chi


def columns(tr, d, f):
    if d.kind == "A":
        return tr.call("tableaux_a.enumerate_fundamental_columns",
                       tableaux_a.enumerate_fundamental_columns, d.rank, f.node, f.spectral)
    if is_spin(d, f.node):
        chirality = "+" if f.node == d.rank else "-"
        return tr.call("tableaux_d.enumerate_spin", tableaux_d.enumerate_spin, d.rank, f.spectral, chirality)
    return tr.call("tableaux_d.enumerate_fundamental_columns",
                   tableaux_d.enumerate_fundamental_columns, d.rank, f.node, f.spectral)


def graph_calls(tr, out):
    """What `qtchar graph --output dot` does after computing the character."""
    g = tr.call("engine.gamma_graph", gamma_graph, out["chi"])
    out["graph"] = g
    out["dot"] = tr.call("engine.GammaGraph.to_dot", g.to_dot)
    if tr.on:
        tr.count("engine.gamma_graph.vertices", len(g.vertices))
        tr.count("engine.gamma_graph.edges", len(g.edges))


def crystal_calls(tr, case, out):
    """What `qtchar crystal --output dot` does with the top monomial."""
    cg = tr.call("crystal.generate_crystal", generate_crystal, case.d, case.top)
    out["crystal"] = cg
    out["violations"] = tr.call("crystal.verify_crystal_axioms", verify_crystal_axioms, cg)
    out["cdot"] = tr.call("crystal.CrystalGraph.to_dot", cg.to_dot)
    if tr.on:
        tr.count("crystal.vertices", len(cg.vertices))


# ---------------------------------------------------------------------------
# Workload passes: the timed operation for one case


def engine_pass(tr, case):
    if case.kind == "fundamental":
        return {"chi": engine_fundamental(tr, case.d, case.specs[0]), "route": "engine"}
    if tr.on:
        chi, funds = engine_fold(tr, case)
        return {"chi": chi, "funds": funds, "route": "fold"}
    return {"chi": engine_standard(tr, case), "route": "engine"}


def tableaux_pass(tr, case):
    if case.kind == "fundamental":
        return {"chi": tableaux_fundamental(tr, case.d, case.specs[0]), "route": "tableaux"}
    return {"chi": tableaux_standard(tr, case), "route": "tableaux"}


def graphs_pass(tr, case):
    out = {"chi": engine_standard(tr, case), "route": "engine"}
    graph_calls(tr, out)
    out["json"] = tr.call("yalgebra.character_to_json", character_to_json, out["chi"])
    crystal_calls(tr, case, out)
    return out


PASSES = {"engine": engine_pass, "tableaux": tableaux_pass, "graphs": graphs_pass}


def same_output(a, b) -> bool:
    if a["chi"] != b["chi"]:
        return False
    if "graph" in a:
        return (a["graph"].edges == b["graph"].edges and a["dot"] == b["dot"]
                and a["crystal"].vertices == b["crystal"].vertices
                and a["cdot"] == b["cdot"] and a["violations"] == b["violations"])
    return True


# ---------------------------------------------------------------------------
# Checks run outside the timed regions; in a traced run their package calls
# are spans too, grouped under a "check" span per case.


def full_check(tr, case, out, small: bool):
    with tr.span(f"check {case.label}"):
        return _full_check(tr, case, out, small)


def _full_check(tr, case, out, small: bool):
    d, chi = case.d, out["chi"]
    problems = C.character_problems(case, chi)
    if case.kind == "fundamental":
        f = case.specs[0]
        other = tableaux_fundamental(tr, d, f) if out["route"] == "engine" else engine_fundamental(tr, d, f)
        if other != chi:
            problems.append("engine and tableaux fundamentals differ")
        funds = {f: chi if out["route"] == "engine" else other}
    else:
        funds = out.get("funds")
        if out["route"] != "fold":
            fold, funds = engine_fold(tr, case)
            if fold != chi:
                problems.append(f"twisted_product fold differs from the {out['route']} route")
        if out["route"] != "engine" and engine_standard(tr, case) != chi:
            problems.append(f"standard_character differs from the {out['route']} route")
        if out["route"] != "tableaux" and tableaux_standard(tr, case) != chi:
            problems.append(f"tableaux sum differs from the {out['route']} route")
        for f, fund in funds.items():
            if tableaux_fundamental(tr, d, f) != fund:
                problems.append(f"factor {f.node}:{f.spectral}: tableaux and engine differ")
    for f in funds:
        problems += C.column_count_problems(d, f.node, len(columns(tr, d, f)))
    js = out.get("json")
    if js is None:
        js = tr.call("yalgebra.character_to_json", character_to_json, chi)
    problems += C.json_problems(chi, js, character_from_json(d, js))
    if small or "graph" in out:
        if "graph" not in out:
            graph_calls(tr, out)
        problems += C.gamma_problems(case, chi, out["graph"], out["dot"])
        if "crystal" not in out and C.crystal_admissible(case):
            crystal_calls(tr, case, out)
        if "crystal" in out:
            problems += C.crystal_problems(case, out["crystal"], out["violations"], out["cdot"])
    return problems


def report(label: str, problems) -> None:
    for p in problems[:3]:
        print(f"FAILED {label}: {p}", file=sys.stderr)


def call_pass(tr, pass_fn, case):
    """One operation; an exception is returned, and counted as a failure."""
    try:
        return pass_fn(tr, case)
    except Exception as exc:  # the run goes on and counts the operation failed
        return exc


# ---------------------------------------------------------------------------
# Tiers


class LargeTier:
    """The fixed ladder; `repeat` times every case once.  Per case it keeps
    the times in reference seconds, the first output and whether every later
    repeat reproduced it."""

    def __init__(self, large, speed: HostSpeed):
        self.cases = large
        self.speed = speed
        self.times = {c.label: [] for c in large}
        self.plain_times = {c.label: [] for c in large}
        self.first = {}
        self.steady = {c.label: True for c in large}

    def repeat(self, tr, pass_fn, untraced_baseline: bool = False):
        self.speed.mark()
        for case in self.cases:
            with tr.span(f"case {case.label}"):
                t0 = perf_counter()
                out = call_pass(tr, pass_fn, case)
                dt = perf_counter() - t0
            dt = self.speed.scaled(dt)
            if untraced_baseline:
                self.plain_times[case.label].append(dt)
                continue
            self.times[case.label].append(dt)
            ref = self.first.setdefault(case.label, out)
            if isinstance(out, Exception) or (ref is not out and not same_output(ref, out)):
                self.steady[case.label] = False

    def check(self, tr):
        """Check each case's first output; a failing case fails every repeat."""
        failed = 0
        for case in self.cases:
            out = self.first[case.label]
            if isinstance(out, Exception):
                problems = [f"raised {out!r}"]
            else:
                problems = full_check(tr, case, out, small=False)
                if not self.steady[case.label]:
                    problems.append("repeats disagree")
            if problems:
                failed += len(self.times[case.label])
                report(case.label, problems)
        return sum(len(ts) for ts in self.times.values()), failed


class SmallTier:
    """The seeded sweep, run in whole rounds.  Round 0 is fully checked;
    every later round must be its relabelled image."""

    def __init__(self, rounds, speed: HostSpeed):
        self.rounds = rounds
        self.speed = speed
        self.attempted, self.failed, self.r = 0, 0, 0
        self.rates = []
        self.refs = {}

    def run_block(self, tr, pass_fn, busy_s: float, max_rounds: int) -> None:
        """Samples of whole rounds, at least one round, until this block has
        `busy_s` seconds of busy time or the tier has run `max_rounds` rounds
        in all.  A sample runs rounds back to back until it has SMALL_SAMPLE_S
        seconds of busy time and gives one rate, cases per reference second;
        a shorter sample is kept only when it is all there is.  Its outputs
        are checked after it, outside the bracket of the speed measurement."""
        busy = 0.0
        while self.r < max_rounds and (self.r == 0 or busy < busy_s):
            batch, dt = [], 0.0
            self.speed.mark()
            while dt < SMALL_SAMPLE_S and self.r + len(batch) < max_rounds:
                rnd = self.rounds[(self.r + len(batch)) % len(self.rounds)]
                outs = []
                t0 = perf_counter()
                for x in rnd:
                    with tr.span(f"case {x.case.label}"):
                        outs.append(call_pass(tr, pass_fn, x.case))
                dt += perf_counter() - t0
                batch.append((rnd, outs))
            scaled = self.speed.scaled(dt)
            busy += dt
            if dt >= SMALL_SAMPLE_S or not self.rates:
                self.rates.append(sum(len(rnd) for rnd, _ in batch) / scaled)
            for rnd, outs in batch:
                for x, out in zip(rnd, outs):
                    self.attempted += 1
                    problems = self.check(tr, x, out)
                    if problems:
                        self.failed += 1
                        report(x.case.label, problems)
                self.r += 1

    def check(self, tr, x, out):
        if isinstance(out, Exception):
            return [f"raised {out!r}"]
        if self.r == 0:
            problems = full_check(tr, x.case, out, small=True)
            if not problems:
                self.refs[x.template] = (x, out)
            return problems
        if x.template not in self.refs:
            return ["the round-0 case of this template failed"]
        rx, rout = self.refs[x.template]
        return C.relabel_problems(rout, out, C.relabel_map(rx.slots, x.slots))


# ---------------------------------------------------------------------------
# Set-up, kernel replay, metrics


def cold_start(speed: HostSpeed, workload: str, seed: int) -> float:
    """Time, in reference seconds, of a fresh interpreter that imports
    qtchar (with qtchar.cli) and builds this workload's inputs."""
    speed.mark()
    t0 = perf_counter()
    subprocess.run([sys.executable, str(BENCH / "cases.py"), workload, str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return speed.scaled(perf_counter() - t0)


def per_call_us(fn, args) -> float:
    passes = 1
    while True:
        t0 = perf_counter()
        for _ in range(passes):
            for a in args:
                fn(*a)
        if perf_counter() - t0 >= KERNEL_BATCH_S:
            break
        passes *= 2
    batches = []
    for _ in range(KERNEL_BATCHES):
        t0 = perf_counter()
        for _ in range(passes):
            for a in args:
                fn(*a)
        batches.append((perf_counter() - t0) / (passes * len(args)))
    return 1e6 * min(batches)


def kernel_args(large, first, all_cases):
    """Argument lists for each kernel, taken from the largest single-base
    output of the large tier: evenly spaced terms, their variables and their
    coefficients."""
    source = max(
        (c for c in large if len({f.spectral.base for f in c.specs}) == 1),
        key=lambda c: len(first[c.label]["chi"]),
    )
    d, top = source.d, source.top
    items = first[source.label]["chi"].items()
    items = items[:: max(1, len(items) // KERNEL_ARGS)][:KERNEL_ARGS]
    ms = [m for m, _ in items]
    cs = [c for _, c in items]
    keys = sorted({k for m in ms for k, _ in m.items()}, key=lambda k: (k[1].qexp, k[0]))[:KERNEL_ARGS]
    pairs = list(zip(ms, ms[1:] + ms[:1]))
    expand = [(d, m, i) for m in ms for i in d.nodes
              if m.is_i_dominant(i) and any(node == i and v > 0 for (node, _), v in m.items())][:KERNEL_ARGS]
    nodes = list(d.nodes)
    return {
        "yalgebra.Monomial.mul": (Monomial.__mul__, pairs),
        "yalgebra.Monomial.y": (Monomial.y, keys),
        "yalgebra.v_profile": (v_profile, [(d, m, top) for m in ms]),
        "yalgebra.pairing_d": (pairing_d, [(d, m1, top, m2, top) for m1, m2 in pairs]),
        "yalgebra.drop_degree": (drop_degree, [(d, m, top) for m in ms]),
        "yalgebra.e_expansion": (e_expansion, expand),
        "laurent.IntLaurent.add": (IntLaurent.__add__, list(zip(cs, cs[1:] + cs[:1]))),
        "laurent.IntLaurent.mul": (IntLaurent.__mul__, list(zip(cs, cs[1:] + cs[:1]))),
        "rootdata.DynkinDiagram.hash": (DynkinDiagram.__hash__, [(c.d,) for c in all_cases]),
        "yalgebra.a_monomial": (a_monomial, [(d, i, a) for i, a in keys]),
        "crystal.kashiwara_f": (kashiwara_f, [(d, m, nodes[k % len(nodes)]) for k, m in enumerate(ms)]),
        "cli.parse_factors": (parse_factors, [(c.d, c.factors) for c in all_cases]),
    }


def replay_kernels(large, first, all_cases):
    return {name: per_call_us(fn, args) for name, (fn, args) in kernel_args(large, first, all_cases).items()}


def layer_metrics(tr, kernels, overhead_s: float):
    counts, maxima = tr.counts, tr.maxima

    def ratio(a: str, b: str) -> float:
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    derived = {
        "engine.closure_depth.max": maxima.get("engine.closure_depth.max", 0),
        "engine.twisted_product.merge_ratio": ratio("engine.twisted_product.terms", "engine.twisted_product.pairs"),
        "tableaux.distinct_ratio": ratio("tableaux.terms", "tableaux.enumerated"),
        "trace.overhead_s": overhead_s,
    }
    values = {}
    for name, unit in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif unit == "ms":
            values[name] = tr.busy_ms(name[: -len(".ms")])
        elif unit == "us":
            values[name] = kernels[name[: -len(".us")]]
        else:
            values[name] = counts.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def large_seconds(times) -> float:
    """Sum over the large cases of each case's median repeat."""
    return sum(median(ts) for ts in times.values())


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run in LARGE_REPEATS blocks.  Each block makes cold starts, times
    every large case once (untraced and then traced in a traced run) and
    runs its share of the small tier.  Every timing metric is the median of
    its samples over the blocks, each sample in reference seconds."""
    pass_fn = PASSES[workload]
    large, rounds = build_inputs(workload, seed)
    speed = HostSpeed()
    big, small = LargeTier(large, speed), SmallTier(rounds, speed)
    tr = Tracer() if trace else UNTRACED
    starts = []
    for block in range(1, LARGE_REPEATS + 1):
        # The inputs and the outputs kept for checking are the benchmark's,
        # not the program's: freeze them so collections during timed calls
        # do not scan them.
        gc.collect()
        gc.freeze()
        if trace:
            big.repeat(UNTRACED, pass_fn, untraced_baseline=True)
        else:
            starts += [cold_start(speed, workload, seed) for _ in range(SETUP_STARTS_PER_BLOCK)]
        big.repeat(tr, pass_fn)
        small.run_block(tr, pass_fn, seconds / LARGE_REPEATS, 1 if trace else 10**9)
    attempted, failed = big.check(tr)
    attempted, failed = attempted + small.attempted, failed + small.failed
    for case in large:
        print(f"case {case.label:<34} median {median(big.times[case.label]):.4f} s")
    print(f"host speed factor: median {median(speed.factors):.3f}, "
          f"range {min(speed.factors):.3f}-{max(speed.factors):.3f}")
    if trace:
        ok = {k: v for k, v in big.first.items() if not isinstance(v, Exception)}
        kernels = replay_kernels([c for c in large if c.label in ok], ok,
                                 large + [x.case for x in rounds[0]])
        overhead = large_seconds(big.times) - large_seconds(big.plain_times)
        metrics = layer_metrics(tr, kernels, overhead)
        path = RESULTS / f"trace-{workload}-{seed}.json"
        tr.write(path, {"workload": workload, "seed": seed})
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": median(starts),
            "large_s": large_seconds(big.times),
            "small_calls_per_s": median(small.rates),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
