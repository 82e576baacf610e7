#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json for run_seconds on every workload
with seeds 1 to 10, untraced, and prints each end-to-end metric's median,
quartiles and spread (the distance between the quartiles as a share of
the median) next to its bound. The first readout in README.md was made
this way. Run it from the root of the repository:

    python3 perfbench/spread.py
"""

import json
import statistics
import subprocess

SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in SEEDS:
            args = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} (seeds {SEEDS.start}-{SEEDS.stop - 1})")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            print(f"  {name:<16} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:7.4f}  bound {bound}")
        print(flush=True)
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
