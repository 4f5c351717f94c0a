"""Steadiness command: run one workload N times with consecutive seeds and
print each end-to-end metric's median, quartiles and quartile spread.

    python3 perfbench/steady.py --workload engine --runs 10 --first-seed 1

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; it is compared with the metric's bound
in ``BENCHMARK.json`` (a bound holds a metric to a third of it when tuning).
The runs go one after another, and the summary is also written to
``perfbench/results/steady-<workload>-<first seed>-<runs>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        host = next((ln for ln in lines if ln.startswith("host speed factor")), "")
        shares.add(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()) + f" ({host})", flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": vals}
        flag = "" if spread < bounds[name] / 3 else "  above a third of the bound"
        print(f"{name:<20}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.2%}{bounds[name]:>8.2f}{flag}")
    print(f"failed shares seen: {sorted(shares)}")
    out = BENCH / "results" / f"steady-{args.workload}-{args.first_seed}-{args.runs}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
