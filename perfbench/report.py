"""Traced run of every workload, printed as the README's reference tables.

    python3 perfbench/report.py --seed 1 --seconds 30

Runs `run.py --trace 1` once per workload and prints, per workload, each
layer's self time per round and its share of the traced round's wall time,
then every per-layer metric side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_metrics(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: traced_metrics(w, args.seed, args.seconds) for w in workloads}

    print("| layer | " + " | ".join(f"{w} self s (share)" for w in workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    layers = [m["name"][: -len(".self_s")] for m in spec["per_layer"]
              if m["name"].endswith(".self_s")]
    for layer in layers:
        cells = []
        for w in workloads:
            self_s, wall = results[w][f"{layer}.self_s"], results[w]["trace.wall_s"]
            cells.append(f"{self_s:.4f} ({100 * self_s / wall:.1f}%)")
        print(f"| {layer} | " + " | ".join(cells) + " |")
    print()
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in spec["per_layer"]:
        if m["name"].endswith(".self_s"):
            continue
        cells = [f"{results[w][m['name']]:.4g}" for w in workloads]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
