"""Print the sha256 of one benchmark workload's sweep CSV without its timing column.

Builds the config of workload W at master seed N from perfbench/workloads.py,
runs one sweep call with the vdslab package in this checkout's src/, and
hashes the CSV header and rows with the wall_time_ms column dropped. Two
checkouts that print the same digest for a workload and seed wrote the same
sweep, row for row; where they differ, --rows keeps the hashed text of each
so the two can be compared column by column.

Run:  python3 scripts/sweep_digest.py --workload generative_sweep --seed 1 [--tiny] [--rows PATH]
                                      [--against ROWS]
--tiny runs the benchmark's smoke-size grid (one trial per cell, two m values).
--rows writes the hashed header and rows to PATH, byte for byte, so the
sha256 of that file is the printed digest.
--against reads a --rows file written earlier, say from a second checkout,
and prints each column's largest relative difference from it and every row
that moved by more than 1e-9 relative (exit 1 if the headers or row counts
differ). Text columns differ by 0 or inf, and so does a NaN against a number.
As in perfbench/run.py, BLAS runs on one thread unless the environment
already says otherwise.
"""

import argparse
import hashlib
import math
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


MOVED = 1e-9  # relative difference above which --against lists a row as moved


def _relative(new: str, old: str) -> float:
    """|new - old| / max(|new|, |old|) for two numbers, integers (the 64-bit seeds) exactly."""
    if new == old:
        return 0.0
    for parse in (int, float):
        try:
            a, b = parse(new), parse(old)
        except ValueError:
            continue
        if a == b:
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return abs(a - b) / max(abs(a), abs(b))
    return math.inf


def compare_rows(rows: list[str], saved: list[str]) -> list[str] | None:
    """Report lines for ``rows`` against ``saved`` (both header first), or None if they do not align."""
    if rows[0] != saved[0] or len(rows) != len(saved):
        return None
    header = rows[0].split(",")
    worst = [0.0] * len(header)
    moved = []
    for i, (new, old) in enumerate(zip(rows[1:], saved[1:]), start=1):
        cells = list(zip(header, new.split(","), old.split(",")))
        diffs = [_relative(a, b) for _, a, b in cells]
        worst = [max(w, d) for w, d in zip(worst, diffs)]
        changes = [f"{name} {b} -> {a}" for (name, a, b), d in zip(cells, diffs) if d > MOVED]
        if changes:
            moved.append(f"  row {i}: " + ", ".join(changes))
    lines = ["largest relative difference per column:"]
    lines += [f"  {name} {w:.3g}" for name, w in zip(header, worst)]
    lines.append(f"rows moved by more than {MOVED:g} relative: {len(moved)} of {len(rows) - 1}")
    return lines + moved


def main(argv=None) -> int:
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.path[:0] = [p for p in paths if p not in sys.path]
    import vdslab
    from vdslab import harness, priors
    from workloads import WORKLOADS, run_sweep

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="the sweep's master_seed")
    parser.add_argument("--tiny", action="store_true", help="smoke-size grid")
    parser.add_argument("--rows", type=Path, help="write the hashed rows to this file")
    parser.add_argument("--against", type=Path, metavar="ROWS", help="compare with a --rows file")
    args = parser.parse_args(argv)
    if Path(vdslab.__file__).resolve().parent != (ROOT / "src" / "vdslab").resolve():
        print(f"error: imported vdslab from {vdslab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1

    v = SimpleNamespace(harness=harness, priors=priors)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as work:
        config = harness.ExperimentConfig(workload.mapping(v, args.seed, Path(work), args.tiny))
        call = run_sweep(v, workload, config)
    if call.error is not None:
        print(f"error: the sweep raised {call.error}", file=sys.stderr)
        return 1
    hashed = "\n".join(call.csv_rows).encode()
    if args.rows is not None:
        args.rows.write_bytes(hashed)
    digest = hashlib.sha256(hashed).hexdigest()
    print(f"{digest}  {args.workload} seed={args.seed} rows={len(call.csv_rows) - 1}")
    if args.against is not None:
        report = compare_rows(call.csv_rows, args.against.read_text().split("\n"))
        if report is None:
            print(f"error: {args.against} has another header or row count", file=sys.stderr)
            return 1
        print("\n".join(report))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads
    raise SystemExit(main())
