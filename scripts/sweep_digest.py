"""Print the sha256 of one benchmark workload's sweep CSV without its timing column.

Builds the config of workload W at master seed N from perfbench/workloads.py,
runs one sweep call with the vdslab package in this checkout's src/, and
hashes the CSV header and rows with the wall_time_ms column dropped. Two
checkouts that print the same digest for a workload and seed wrote the same
sweep, row for row; where they differ, --rows keeps the hashed text of each
so the two can be compared column by column.

Run:  python3 scripts/sweep_digest.py --workload generative_sweep --seed 1 [--tiny] [--rows PATH]
--tiny runs the benchmark's smoke-size grid (one trial per cell, two m values).
--rows writes the hashed header and rows to PATH, byte for byte, so the
sha256 of that file is the printed digest.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
