#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload cold_history --seeds 1-10 [--out runs.json]
    python3 perfbench/spread.py --seeds 7        # every workload once, every metric
    python3 perfbench/spread.py --compare a.json b.json

Runs perfbench/run.py once per seed (sequentially, untraced), then prints
for every end-to-end metric its median, quartiles and spread, the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A metric is steady when its spread is below a third of its
bound. With --compare a.json b.json it instead checks that the medians of
two such run sets agree within each bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        ok = True
        for w in sorted(set(a) & set(b)):
            for m, bound in bounds.items():
                ma = statistics.median(r["metrics"][m]["value"] for r in a[w])
                mb = statistics.median(r["metrics"][m]["value"] for r in b[w])
                better = next(x["better"] for x in spec["end_to_end"] if x["name"] == m)
                worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
                flag = "ok" if worse <= bound else "WORSE"
                ok &= flag == "ok"
                print(f"{w:22s} {m:24s} {ma:14.6g} {mb:14.6g} {worse:+8.3f} {bound:5.2f} {flag}")
        return 0 if ok else 1

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds_from(args.seeds):
            r = run(w, seed, spec["run_seconds"])
            if r is None or not r["correct"]:
                print(f"{w} seed {seed}: run failed or incorrect", file=sys.stderr)
                ok = False
                continue
            runs.append(r)
        results[w] = runs
        if len(runs) == 1:
            print(f"\n{w}: seed {args.seeds}")
            for m, v in runs[0]["metrics"].items():
                print(f"  {m:22s} {v['value']:14.6g} {v['unit']}")
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs")
        for m, bound in bounds.items():
            values = [r["metrics"][m]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < bound / 3 or m == "setup_s"
            ok &= steady or m == "setup_s"
            print(f"  {m:22s} {units[m]:4s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:6.3f}  bound {bound:4.2f}"
                  f"  {'steady' if spread < bound / 3 else 'UNSTEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
