"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD SEED,SEED,... [--seconds S] [--trace 1]

For every metric it prints the median of the runs and their
inter-quartile distance as a share of the median (the spread the
benchmark's bounds are judged against), next to the metric's bound.
Run nothing else on the machine meanwhile: every run shares its cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("workload")
    parser.add_argument("seeds", help="comma-separated seeds")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import quartile_spread

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", f"{seconds:g}",
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{name}={m['value']:.4g}"
                         for name, m in result["metrics"].items()
                         if name in bounds)
        print(f"seed {seed}: {time.monotonic() - start:.1f} s, correct="
              f"{result['correct']}, failed={result['failed']}: {shown}",
              flush=True)
    for name, series in values.items():
        if len(series) < 2:
            continue
        spread = quartile_spread(series)
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound:g}: "
            + ("under a third" if spread < bound / 3 else
               "within" if spread <= bound else "OVER"))
        print(f"  {name:<22} median {statistics.median(series):12.5g}"
              f"  spread {spread:.3f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
