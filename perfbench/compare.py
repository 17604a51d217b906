#!/usr/bin/env python3
"""Compare two sets of perfbench runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are text files with one run per line, written as
"<workload> <seed> <result JSON>", for example by

    for s in $(seq 1 10); do
      echo "vm-boot $s $(python3 perfbench/run.py --workload vm-boot \\
          --seed $s --seconds 30 --trace 0 | tail -1)"
    done >> base.txt

For each workload and metric it prints each side's median and quartiles
and the change of the medians, signed so that a positive share is worse.
An end-to-end metric is "ok" when the new median is no worse than the
bound allows, "REGRESSION" when it is worse by more, and "unresolved"
when either side's spread (quartile distance over median) is wider than
the bound, unless every new run beats every base run. Per-layer metrics
have no bound; their change is shown for reading only. Exits 1 if any
metric regressed, any run failed its checks, or any operation failed.
"""

import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = collections.defaultdict(list)
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(" ", 2)
            if len(parts) != 3:
                sys.exit(f"{path}:{n}: expected '<workload> <seed> <json>'")
            runs[parts[0]].append(json.loads(parts[2]))
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    base, new = load(args.base), load(args.new)

    bad = False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in new:
            print(f"{w}: missing from {'base' if w not in base else 'new'}; skipped")
            continue
        print(f"== {w}  (base {len(base[w])} runs, new {len(new[w])} runs)")
        for side, runs in (("base", base[w]), ("new", new[w])):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            wrong = sum(1 for r in runs if not r["correct"])
            print(f"   {side}: {failed}/{attempted} operations failed, {wrong} runs incorrect")
            bad |= wrong > 0 or failed > 0
        print(f"   {'metric':34} {'base med [q1, q3]':>32} {'new med [q1, q3]':>32} {'worse by':>9}  verdict")
        for m, bounded in metrics:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[w] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[w] if name in r["metrics"]]
            if not b or not n:
                continue
            bm, bq1, bq3, bs = summary(b)
            nm, nq1, nq3, ns = summary(n)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (nm - bm) / abs(bm) if bm else 0.0
            if not bounded:
                verdict = "-"
            else:
                bound = m["bound"]
                all_better = all(sign * (x - y) < 0 for x in n for y in b)
                if max(bs, ns) > bound and not all_better:
                    verdict = f"unresolved (spread {max(bs, ns):.1%} > bound {bound:.0%})"
                elif worse > bound:
                    verdict = f"REGRESSION (bound {bound:.0%})"
                    bad = True
                else:
                    verdict = "ok" + (" (every new run better)" if all_better else "")
            print(f"   {name:34} {bm:12.4g} [{bq1:8.4g}, {bq3:8.4g}] {nm:12.4g} [{nq1:8.4g}, {nq3:8.4g}]"
                  f" {worse:+9.1%}  {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
