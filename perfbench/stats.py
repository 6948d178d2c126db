"""Run-to-run spread of the benchmark, one process per run.

    python3 perfbench/stats.py --label set1          # seeds 1 to 10 on every workload
    python3 perfbench/stats.py --compare set1 set2

For each workload and end-to-end metric it prints the median over the
seeds, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, and the share of failed operations of
each run.  Sets are kept in perfbench/results/stats-<label>.json;
``--compare`` prints how far the second set's medians moved from the
first's, against each metric's bound.  The reference tables in
perfbench/README.md come from these two commands.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
SEEDS = range(1, 11)


def collect() -> dict:
    runs = {}
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                 check=True, timeout=600)
            last = out.stdout.strip().splitlines()[-1]
            runs.setdefault(name, []).append(json.loads(last))
            print(f"{name} seed {seed}: {last}", flush=True)
    return runs


def summarize(runs: dict) -> dict:
    summary = {}
    for name, results in runs.items():
        shares = {str(Fraction(r["failed"], r["attempted"])) for r in results}
        rows = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median, "values": values}
        summary[name] = {"failed_share": sorted(shares),
                         "correct": all(r["correct"] for r in results),
                         "metrics": rows}
    return summary


def print_summary(summary: dict) -> None:
    for name, s in summary.items():
        print(f"\n{name}: correct={s['correct']} failed share={s['failed_share']}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for metric, row in s["metrics"].items():
            print(f"  {metric:<14} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>8.4f} {BOUNDS[metric][1] / 3:>8.4f}")


def compare(first: dict, second: dict) -> None:
    for name in first:
        print(f"\n{name}: failed shares {first[name]['failed_share']} -> "
              f"{second[name]['failed_share']}")
        for metric, row in first[name]["metrics"].items():
            better, bound = BOUNDS[metric]
            new = second[name]["metrics"][metric]["median"]
            change = (new - row["median"]) / row["median"]
            worse = change if better == "lower" else -change
            print(f"  {metric:<14} {row['median']:>12.6g} -> {new:>12.6g}  "
                  f"worse by {worse:+.4f} (bound {bound})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="keep the set as results/stats-LABEL.json")
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args(argv)
    results = HERE / "results"
    if args.compare:
        first, second = (json.loads((results / f"stats-{label}.json").read_text())
                         for label in args.compare)
        compare(first, second)
        return 0
    summary = summarize(collect())
    print_summary(summary)
    if args.label:
        results.mkdir(exist_ok=True)
        (results / f"stats-{args.label}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
