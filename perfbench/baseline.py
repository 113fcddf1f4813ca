"""Run the benchmark over two seed sets and compare their end-to-end medians.

    python3 perfbench/baseline.py

Set A runs seeds 1-10 and set B seeds 11-20 on every workload in
BENCHMARK.json; the result goes to ``perfbench/baseline.json``. The runs of
the two sets alternate, one run at a time, and the set that goes first
switches with every pair (A1 B11, B12 A2, A3 B13, ...), the way a parent and
a change are compared, so a slow or fast stretch of the machine falls on
both sets alike. For each workload and end-to-end metric the output holds each set's
values, median, quartiles (``statistics.quantiles(values, n=4)``) and
spread (quartile distance over median), checked against a third of the
metric's bound, and how much worse set B's median is than set A's, checked
against the bound. The exit code is 1 if any B median is worse by more
than the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} trials failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(spec: dict, workload: str, seeds_a: list[int], seeds_b: list[int]) -> dict:
    """Alternate the runs of both sets on one workload; summarise and compare them."""
    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in "AB"}
    for i, pair in enumerate(zip(seeds_a, seeds_b)):
        order = [("A", pair[0]), ("B", pair[1])]
        for side, seed in order if i % 2 == 0 else order[::-1]:
            got = _run_once(spec, workload, seed)
            for name, series in values[side].items():
                series.append(got[name])
            print(workload, side, seed, {k: round(got[k], 6) for k in values[side]}, flush=True)
    summary = {side: {name: _summary(v) for name, v in metrics.items()} for side, metrics in values.items()}
    worse = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = summary["A"][name], summary["B"][name]
        first, second = a["median"], b["median"]
        worse[name] = (second - first) / first if m["better"] == "lower" else (first - second) / first
        spreads = f"spread A {a['spread']:.4f} B {b['spread']:.4f}"
        flag = "" if name == "setup_s" or max(a["spread"], b["spread"]) < bound / 3 else "  spread > bound/3"
        flag += "  B worse than bound" if worse[name] > bound else ""
        print(f"  {workload} {name}: median A {first:.6g} B {second:.6g} worse by {worse[name]:+.4f}  "
              f"{spreads}{flag}", flush=True)
    return {"sets": summary, "b_worse_by": worse}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds_a, seeds_b = list(range(1, 11)), list(range(11, 21))
    workloads = [w["name"] for w in spec["workloads"]]
    result = {"seeds": {"A": seeds_a, "B": seeds_b}, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        result["workloads"][workload] = run_pairs(spec, workload, seeds_a, seeds_b)
        record = json.loads((OUT / f"{workload}-seed{seeds_a[0]}-trace0.json").read_text())
        result.setdefault("provenance", record["provenance"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result["worse"] = [f"{w} {name}" for w, r in result["workloads"].items()
                       for name, change in r["b_worse_by"].items() if change > bounds[name]]
    (HERE / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")
    return 1 if result["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
