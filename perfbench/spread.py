#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs one workload once per seed and reports, for each end-to-end metric in
BENCHMARK.json, the median and the spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.
A spread must stay below the metric's bound; the aim is a third of it.

    python3 perfbench/spread.py --workload kv-hot --seeds 1-10 [--seconds 10]

Exits 1 when any spread exceeds its metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed",
                                str(seed), "--seconds", str(seconds),
                                "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: output check failed" % seed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    ok = True
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "TOO WIDE")
        if spread > metric["bound"]:
            ok = False
        print("%-18s median %-12.6g spread %.4f bound %.2f  %s" % (
            metric["name"], median, spread, metric["bound"], verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
