#!/usr/bin/env python3
"""Steadiness check: run every workload with several seeds and report,
per end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py                 # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workloads rmi_small
    python3 perfbench/steady.py --save first.json
    python3 perfbench/steady.py --save second.json --against first.json

A metric is steady when its spread is within a third of its bound
(`setup_s` is exempt from the spread rule). With `--against`, each
median is also compared with the median of an earlier saved set: it may
be worse by at most the bound. Exits nonzero when a run fails its
checks, the failed share varies, or a rule is broken.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()
    earlier = json.load(open(args.against)) if args.against else {}

    raw, broken = {}, 0
    for w in args.workloads:
        results = []
        for i in range(args.runs):
            r = run_once(bench, w, args.first_seed + i)
            print(f"{w} seed {args.first_seed + i}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']}", flush=True)
            results.append(r)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            print(f"  {w}: failed shares {sorted(shares)}; correct "
                  f"{[r['correct'] for r in results]}")
            broken += 1
        raw[w] = {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                  for m in bench["end_to_end"]}

        print(f"\n{w}: {args.runs} runs, run_seconds {bench['run_seconds']}")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            v = raw[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread <= m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] == "setup_s":
                verdict = "(spread exempt)"
            elif verdict == "TOO WIDE":
                broken += 1
            if w in earlier:
                old = statistics.quantiles(earlier[w][m["name"]], n=4)[1]
                worse = (old - med) / old if m["better"] == "higher" else (med - old) / old
                verdict += f"; vs earlier {worse:+.3f}"
                if worse > m["bound"]:
                    verdict += " WORSE"
                    broken += 1
            print(f"  {m['name']:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{m['bound']:>7}  {verdict}")
        print(flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(1 if broken else 0)


if __name__ == "__main__":
    main()
