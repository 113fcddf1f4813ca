"""Alternating benchmark pairs of this working tree against a git revision.

Run:  python3 scripts/bench_pairs.py --workload sparse_sweep_1d --seed 1 --pairs 10 --against HEAD~1

Extracts REV's committed files into a temporary directory (``git archive``,
so nothing is registered in the repository and a killed run leaves nothing in
it), then runs ``perfbench/run.py --workload W --seed N --trace 0`` for
BENCHMARK.json's ``run_seconds`` on that copy (the parent side) and on this
working tree (the change), one run of each per pair. The side that goes first
alternates from pair to pair, so the machine's slow drifts in speed hit both
sides alike. The copy is removed afterwards.

Writes ``BENCH_<W>_seed<N>.json`` at the repository root: for every
end-to-end metric of BENCHMARK.json, the raw values of both sides in pair
order, their medians and quartiles, and the pairs the change won (better in
the metric's direction; a tie wins nothing). Exit 1, writing nothing, when a
run fails or says ``"correct": false``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quartiles(values) -> list:
    """[q1, q3] by linear interpolation between order statistics (NumPy's default percentile)."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(parent_runs, change_runs, end_to_end) -> dict:
    """Per metric of ``end_to_end`` (BENCHMARK.json's list), the pairs' summary.

    ``parent_runs`` and ``change_runs`` are the runs' metric dicts, name to
    value, in pair order. ``wins`` counts the pairs in which the change is
    strictly better in the metric's ``better`` direction, and
    ``median_change`` is the change's median over the parent's, minus 1.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need one parent run and one change run per pair, and at least one pair")
    summary = {}
    for entry in end_to_end:
        name, better = entry["name"], entry["better"]
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        parent_q = _quartiles(parent)
        summary[name] = {
            "unit": entry["unit"],
            "better": better,
            "parent": parent,
            "change": change,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": parent_q,
            "change_quartiles": _quartiles(change),
            "median_change": change_median / parent_median - 1 if parent_median else None,
            "median_gap_exceeds_parent_iqr": abs(change_median - parent_median) > parent_q[1] - parent_q[0],
            "wins": wins,
            "pairs": len(parent),
        }
    return summary


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metrics, name to value."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        raise RuntimeError(f"{' '.join(command)} in {checkout} failed:\n{done.stdout}{done.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _extract(rev: str, into: Path) -> str:
    """Write the committed files of ``rev`` under ``into``; return the full commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    tree = into / "tree"
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--against", required=True, metavar="REV", help="the parent side's git revision")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs, order = [], [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        commit = _extract(args.against, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": ROOT}
        for pair in range(args.pairs):
            first = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            order.append(first[0])
            try:
                runs = {side: _run(sides[side], args.workload, args.seed, spec["run_seconds"]) for side in first}
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            parent_runs.append(runs["parent"])
            change_runs.append(runs["change"])
            p50 = runs["parent"]["trial_ms_p50"], runs["change"]["trial_ms_p50"]
            print(f"pair {pair + 1}/{args.pairs}: trial_ms_p50 {p50[0]:.6g} -> {p50[1]:.6g}", flush=True)
    summary = summarize(parent_runs, change_runs, spec["end_to_end"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "against": commit,
        "first_in_pair": order,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "metrics": summary,
    }
    out = ROOT / f"BENCH_{args.workload}_seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name, s in summary.items():
        q1, q3 = s["parent_quartiles"]
        print(f"{name:<16} median {s['parent_median']:.6g} -> {s['change_median']:.6g}, "
              f"parent quartiles {q1:.6g}-{q3:.6g}, change better in {s['wins']} of {s['pairs']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
