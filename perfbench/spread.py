#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

    python3 perfbench/spread.py --workload fig10 --seeds 1-10 \
        [--trace 0] [--out runs.json] [--against earlier.json]

Run it from the repository root. Each seed is one `run.py` run of
`run_seconds` (from BENCHMARK.json). For every metric it prints the
median, the quartile spread (Q3 - Q1 of `statistics.quantiles(n=4)`)
as a share of the median, and, for end-to-end metrics, the bound and
whether the spread is under a third of it (`setup_s` is exempt).
`--out` saves every run's result line; `--against` compares medians
with a file saved earlier (worse by more than the bound fails).
Exit status is 1 when any run fails, is incorrect, or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    results, ok = [], True
    for seed in seeds_of(args.seeds):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {run.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    if len(results) < 2:
        return 1

    earlier = {}
    if args.against:
        with open(args.against) as fh:
            for r in json.load(fh):
                for name, m in r["metrics"].items():
                    earlier.setdefault(name, []).append(m["value"])

    print(f"{'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if statistics.median(values) == 0:
            print(f"{name:<32} {0:>14} {'-':>8}")
            continue
        med, sp = spread(values)
        bound = specs.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            if name != "setup_s":
                verdict = "steady" if sp < bound / 3 else (
                    "within bound" if sp <= bound else "TOO WIDE")
                ok &= sp <= bound
            if name in earlier:
                before = statistics.median(earlier[name])
                worse = (med - before) / before
                if specs[name]["better"] == "higher":
                    worse = -worse
                verdict += f" drift {worse:+.3f}"
                ok &= worse <= bound
        print(f"{name:<32} {med:>14.4f} {sp:>8.4f} {bound if bound else '':>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
