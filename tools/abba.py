"""ABBA comparison of two checkouts on the crawl benchmark.

    python tools/abba.py --parent ../parent --change . --workload preempted \
        --seeds 61-66 [--seconds 15] [--trace 0]

Runs ``perfbench/run.py --workload W --seed S --seconds N --trace T`` once
in each checkout per seed, from that checkout's root, alternating which
side goes first (pair 0 parent then change, pair 1 change then parent,
...), so a drift in the host's speed falls on both sides alike. A run
whose result is not ``correct`` stops the comparison: a metric of an
incorrect crawl compares nothing.

Prints, per metric, the parent's and the change's median, the parent's
quartiles, every pair's change/parent ratio and the pairs the change won
(the direction comes from the change checkout's ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PAUSE_S = 5.0  # between runs: let the previous run's Ray processes exit


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _directions(checkout: str) -> dict[str, str]:
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench[key]}


def _run(checkout: str, args, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{checkout} seed {seed}: run not correct (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 61-66 or 1,3,5-7")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = _seeds(args.seeds)
    for k, seed in enumerate(seeds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(_run(sides[side], args, seed))
            print(f"seed {seed} {side}: " + json.dumps(
                {m: round(v, 4) for m, v in runs[side][-1].items()}), flush=True)
            time.sleep(PAUSE_S)
    better = _directions(sides["change"])
    names = sorted(runs["parent"][0])
    print(f"\n{args.workload}, seeds {args.seeds}, {len(seeds)} pairs")
    for name in names:
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
        sign = 1 if better.get(name, "higher") == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        q1, q3 = _quartiles(a)
        ma, mb = statistics.median(a), statistics.median(b)
        gain = (mb - ma) / ma * 100 if ma else float("nan")
        print(f"{name}: parent median {ma:.4g} (quartiles {q1:.4g}-{q3:.4g}), "
              f"change median {mb:.4g} ({gain:+.1f} %), "
              f"median gain {'beyond' if sign * (mb - ma) > q3 - q1 else 'within'} "
              f"the parent's IQR, {wins}/{len(a)} pairs won ({better.get(name, '?')} is better)")
        print("  ratios " + " ".join(f"{r:.3f}" for r in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
