"""vdslab sweep benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_sweep_1d --seed 1 --seconds 35 --trace 0

One invocation runs one workload as a closed loop: one caller, one sweep
call at a time, through the harness's public entry points
(``run_denoise_sweep`` or ``compare_schemes``) at threads=1 with
``record_timing = true``. The package is imported from ``src/`` of the
checkout that holds this script; BLAS is pinned to one thread unless the
environment already says otherwise.

A run makes ``--seconds / 5`` sweep calls (at least one), each sized to
take about five seconds on a 2-core x86-64 box. Call j uses master seed
``seed + j * 10**6``, so the run covers distinct trials and every cell's
trials are spread over the whole run instead of one stretch of it; the
machine's slow drifts in speed then hit all cells alike. The trial set is
fixed by ``--seed`` and ``--seconds`` alone.

``--trace 0`` measures the set-up memory peak in an untimed pass, makes
the timed calls with set-up passes (``build_problem`` plus the plans; at
least three and one second in all, median) spread between them, then
reruns the first call.
``--trace 1`` makes the first half of the calls twice, plain and traced,
then runs the kernel section; it reports the per-layer metrics. Either way a rerun's CSV rows,
``wall_time_ms`` excluded, must equal the first run's, every call must pass
``workloads.check_call``, the run ``workloads.accuracy_rails``, and every metric named in BENCHMARK.json must
come out finite; otherwise the result says ``"correct": false`` and the
exit code is 1.

The last stdout line is the JSON result; a fuller record with provenance is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CALL_SECONDS = 5
SEED_STRIDE = 10**6

E2E_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "setup_s": "s",
    "setup_peak_mb": "MB",
    "failed_trial_frac": "ratio",
    "rre_geo_mean": "ratio",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ms", "_ms_per_trial")):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _load_vdslab():
    src = ROOT / "src"
    if not (src / "vdslab" / "__init__.py").is_file():
        raise SystemExit(f"error: no vdslab package under {src}; run from a vdslab checkout")
    sys.path.insert(0, str(src))
    import vdslab
    from vdslab import coherence, harness, priors, recovery, sampling, transforms

    if Path(vdslab.__file__).resolve().parent != (src / "vdslab").resolve():
        raise SystemExit(f"error: imported vdslab from {vdslab.__file__}, not from {src}")
    return SimpleNamespace(
        harness=harness, coherence=coherence, priors=priors,
        recovery=recovery, sampling=sampling, transforms=transforms,
    )


def _provenance(args, calls) -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None  # the benchmark also runs from plain source trees
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vdslab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "sweep_calls": len(calls),
        "trials_per_call": [c.attempted for c in calls],
    }


def _measure(v, args, workload, configs, problems):
    """--trace 0: the set-up peak, the timed calls with set-up passes between
    them, then a rerun of the first call."""
    import numpy as np
    from workloads import rre_geo_mean, run_sweep, setup_peak_mb, setup_seconds

    peak_mb = setup_peak_mb(v, configs[0])
    setup_times, calls = [], []
    for j, config in enumerate(configs):
        # set-up passes are spread over the run, so they meet the same machine
        # speed as the calls: three at least, and a second's worth at least
        share = (j + 1) / len(configs)
        while len(setup_times) < math.ceil(3 * share) or (not args.tiny and sum(setup_times) < share):
            setup_times.append(setup_seconds(v, configs[0]))
        calls.append(run_sweep(v, workload, config))
    rerun = run_sweep(v, workload, configs[0])
    if rerun.csv_rows != calls[0].csv_rows:
        problems.append("rerun of the first call: CSV rows differ (wall_time_ms excluded)")
    good = [c for c in calls if c.records is not None]
    runs = [*zip(configs, calls), (configs[0], rerun)]
    if not good:
        return runs, {}
    times = [r.wall_time_ms for c in good for r in c.records]
    records = [r for c in good for r in c.records]
    return runs, {
        "trials_per_s": (statistics.median(c.attempted / c.seconds for c in good), len(good)),
        "trial_ms_p50": (float(np.percentile(times, 50)), len(times)),
        "trial_ms_p90": (float(np.percentile(times, 90)), len(times)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "setup_peak_mb": (peak_mb, 1),
        "rre_geo_mean": (rre_geo_mean(records), len(records)),
    }


def _trace(v, args, workload, configs, problems):
    """--trace 1: the first half of the calls plain and then traced, then the kernel section."""
    import tracing
    from kernels import kernel_metrics
    from workloads import run_sweep

    tracer = tracing.Tracer()
    calls, traced, overheads = [], [], []
    for i, config in enumerate(configs[: math.ceil(len(configs) / 2)]):
        plain = run_sweep(v, workload, config)
        with tracing.installed(tracer, v):
            seen = run_sweep(v, workload, config)
        if seen.csv_rows != plain.csv_rows:
            problems.append(f"call {i}: traced CSV rows differ from the plain call's (wall_time_ms excluded)")
        calls.append(plain)
        traced.append(seen)
        overheads.append(seen.seconds / plain.seconds - 1.0)
    runs = [*zip(configs, calls), *zip(configs, traced)]
    if any(c.records is None for c in calls + traced):
        return runs, {}
    totals = tracing.trial_totals(tracer)
    rows = [r for c in traced for r in c.records]
    if len(totals) != len(rows):
        problems.append(f"traced {len(totals)} trials but the sweeps returned {len(rows)} rows")
    for row, t in zip(rows, totals):
        if t["self_ms"] > t["wall_ms"] * (1 + 1e-9):
            problems.append(f"trial self times {t['self_ms']:.6f} ms exceed its span {t['wall_ms']:.6f} ms")
            break
        if t["measure_solve_ms"] > row.wall_time_ms + 1e-6:
            problems.append(
                f"measure+solve spans {t['measure_solve_ms']:.6f} ms exceed wall_time_ms {row.wall_time_ms:.6f}"
            )
            break
    metrics = {name: (value, len(totals)) for name, value in tracing.layer_metrics(tracer).items()}
    metrics["trace.overhead_frac"] = (statistics.median(overheads), len(overheads))
    return runs, metrics | kernel_metrics(v, tiny=args.tiny)


def _run(args, spec) -> int:
    v = _load_vdslab()
    from workloads import WORKLOADS, accuracy_rails, check_call

    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    n_calls = 1 if args.tiny else max(1, int(args.seconds // CALL_SECONDS))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    problems: list[str] = []
    try:
        configs = [
            v.harness.ExperimentConfig(workload.mapping(v, args.seed + j * SEED_STRIDE, work, args.tiny))
            for j in range(n_calls)
        ]
        runner = _trace if args.trace else _measure
        runs, metrics = runner(v, args, workload, configs, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calls = [call for _, call in runs]
    first_of = {}  # the first call of each distinct config, for the accuracy rails
    for i, (config, call) in enumerate(runs):
        first_of.setdefault(id(config), call)
        if call.error is not None:
            problems.append(f"call {i} raised {call.error}")
        else:
            problems += check_call(v, config, call)
    if not args.tiny and all(c.records is not None for c in first_of.values()):
        problems += accuracy_rails(configs[0], [r for c in first_of.values() for r in c.records])

    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    if not args.trace:
        metrics["failed_trial_frac"] = (failed / attempted, attempted)

    def unit(name):
        return _layer_unit(name) if args.trace else E2E_UNITS[name]

    emitted = {}
    for entry in spec["per_layer"] if args.trace else spec["end_to_end"]:
        name = entry["name"]
        value = metrics.get(name, (math.nan, 0))[0]
        if not math.isfinite(value):
            problems.append(f"metric {name} is missing or not finite")
        elif entry["unit"] != unit(name):
            problems.append(f"metric {name} is in {unit(name)}, BENCHMARK.json says {entry['unit']}")
        emitted[name] = {"value": value if math.isfinite(value) else None, "unit": entry["unit"]}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"sweep calls {len(calls)}  trials attempted {attempted}  failed {failed}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit(name):<6} n={samples}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    record = {
        "provenance": _provenance(args, calls),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name), "samples": n}
            for name, (value, n) in metrics.items()
        },
    }
    if args.trace:
        from kernels import REFERENCE_US

        record["kernel_reference_us"] = {k: {"us": us, "what": what} for k, (us, what) in REFERENCE_US.items()}
    suffix = "-tiny" if args.tiny else ""
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": emitted}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: the acceptance test's)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time; sets the number of calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken configs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} not found")
    return _run(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
