"""Profile one benchmark workload's sweep call and print its largest self times per trial.

Builds the config of workload W at master seed N from perfbench/workloads.py
(without changing that file), runs one sweep call with the vdslab package in
this checkout's src/ under cProfile, and prints the functions with the most
self time, each as milliseconds and calls per attempted trial. The call
includes its set-up (build_problem and the plans), spread over the trials
like the rest. cProfile adds a fixed cost to every Python call, so
call-heavy functions read high; take the shares as leads, and measure a
change with perfbench/run.py. As there, BLAS runs on one thread unless the
environment already says otherwise.

Run:  python3 scripts/profile_sweep.py --workload sparse_sweep_1d --seed 1 [--tiny]
--tiny runs the benchmark's smoke-size grid (one trial per cell, two m values).
"""

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
TOP = 25  # functions printed


def _label(func: tuple) -> str:
    """file:line(name) with repository paths relative to the root and others by file name."""
    path, line, name = func
    if path == "~":  # a built-in
        return name
    file = Path(path)
    shown = file.relative_to(ROOT) if file.is_relative_to(ROOT) else file.name
    return f"{shown}:{line}({name})"


def report(stats: pstats.Stats, trials: int) -> list[str]:
    """Lines for the TOP functions by self time, with ms and calls per trial."""
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)[:TOP]
    total_ms = stats.total_tt * 1e3
    lines = [f"{'self ms/trial':>13} {'share':>6} {'calls/trial':>11}  function"]
    for func, (_, ncalls, tottime, _, _) in rows:
        ms = tottime * 1e3
        lines.append(f"{ms / trials:13.4f} {ms / total_ms:6.1%} {ncalls / trials:11.2f}  {_label(func)}")
    return lines


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
    args = parser.parse_args(argv)
    if Path(vdslab.__file__).resolve().parent != (ROOT / "src" / "vdslab").resolve():
        print(f"error: imported vdslab from {vdslab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1

    v = SimpleNamespace(harness=harness, priors=priors)
    workload = WORKLOADS[args.workload]
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory() as work:
        config = harness.ExperimentConfig(workload.mapping(v, args.seed, Path(work), args.tiny))
        profiler.enable()
        call = run_sweep(v, workload, config)
        profiler.disable()
    if call.error is not None:
        print(f"error: the sweep raised {call.error}", file=sys.stderr)
        return 1
    stats = pstats.Stats(profiler)
    print(f"{args.workload} seed={args.seed} trials={call.attempted} "
          f"profiled {stats.total_tt:.3f} s ({stats.total_tt * 1e3 / call.attempted:.3f} ms per trial)")
    print("\n".join(report(stats, call.attempted)))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads
    raise SystemExit(main())
