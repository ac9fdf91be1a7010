#!/usr/bin/env python3
"""Self-checks of the benchmark. Run from the root of the repository.

  python3 perfbench/check.py unit
      Builds and runs the unit tests of the percentile, tail and
      span-fold helpers.

  python3 perfbench/check.py determinism --workload W [--seed A] [--other-seed B]
      Runs seed A twice and seed B once. The deterministic counts over
      the first ops (wire bytes, engine op counts, failed and denied
      ops, stored bytes) must repeat exactly for A and differ for B, and
      every end-to-end metric of B must stay within its bound of A's.

  python3 perfbench/check.py spread --workload W [--runs 10] [--first-seed 1]
      Runs consecutive seeds and prints, for every end-to-end metric,
      the median and the distance between the first and third quartile
      as a share of the median, next to the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys

import run as bench

RUN_SECONDS = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
END_TO_END = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def one(binary, workload: str, seed: int) -> dict:
    _, full = bench.run(binary, workload, seed, RUN_SECONDS, 0)
    print(f"  seed {seed}: correct={full['correct']} attempted={full['attempted']} "
          f"failed={full['failed']}", flush=True)
    return full


def unit() -> int:
    binary = bench.build("perfbench_test")
    return subprocess.run([str(binary)]).returncode


def determinism(workload: str, seed: int, other: int) -> int:
    binary = bench.build()
    a1, a2, b = (one(binary, workload, s) for s in (seed, seed, other))
    problems = []
    if not a1["fingerprint"] or a1["fingerprint"] != a2["fingerprint"]:
        problems.append(f"seed {seed} counts differ between runs:\n    {a1['fingerprint']}\n"
                        f"    {a2['fingerprint']}")
    if a1["fingerprint"] == b["fingerprint"]:
        problems.append(f"seeds {seed} and {other} gave identical inputs")
    for m in END_TO_END:
        va, vb = a1["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        change = abs(vb - va) / va
        print(f"  {m['name']:28s} {va:14.4f} {vb:14.4f}  change {change:.3f} (bound {m['bound']})")
        if change > m["bound"]:
            problems.append(f"{m['name']} moved {change:.3f} between seeds, bound {m['bound']}")
    for p in problems:
        print("FAIL " + p)
    print("determinism: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def spread(workload: str, runs: int, first_seed: int) -> int:
    binary = bench.build()
    results = [one(binary, workload, first_seed + i) for i in range(runs)]
    worst = 0
    for m in END_TO_END:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med
        flag = "" if m["name"] == "setup_s" or share < m["bound"] / 3 else "  <-- above bound/3"
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
        print(f"  {m['name']:28s} median {med:14.4f}  iqr/median {share:.4f}  "
              f"bound {m['bound']}{flag}")
        print("      " + " ".join(f"{v:.4g}" for v in values))
    print(f"spread: worst share of bound {worst:.2f}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("unit")
    d = sub.add_parser("determinism")
    d.add_argument("--workload", required=True)
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--other-seed", type=int, default=2)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.cmd == "unit":
        return unit()
    if args.cmd == "determinism":
        return determinism(args.workload, args.seed, args.other_seed)
    return spread(args.workload, args.runs, args.first_seed)


if __name__ == "__main__":
    sys.exit(main())
