"""The four benchmark workloads and the checks their sweep outputs must pass.

Each workload is one acceptance-style configuration of the vdslab sweep
harness. The seed given on the command line is the sweep's master_seed, which
drives every trial's signal, row draw, noise and solver streams. The network
and union files are drawn from the fixed Philox streams that
``tests/test_acceptance.py`` uses, so the prior itself is the acceptance
one on every seed: a different network per seed would move the error and
the run time far more than the trials do.

Why these four:

- sparse_sweep_1d (test_01 config): IHT plus the composed DFT.Haar
  transform do almost all the work; small-m trials run to the iteration
  cap and large-m trials converge, so the median and the tail differ.
- generative_sweep (test_02 config): the cost is the Python Adam loop and
  tiny n=64 FFTs; it skips hard thresholding and large transforms.
- compare_image_2d (scheme both, side 64): the only workload with heavy
  set-up (dense n x n coherence build) and the only one on 2D transforms
  and the uniform plan, on common random numbers. A call is one trial per
  cell and costs about five seconds, half of it set-up, so 101 timed trials
  take ``--seconds 90``; BENCHMARK.json leaves it out for that reason and
  it is run by hand.
- union_oracle (test_09 config): trials take about a millisecond, so the
  fixed per-trial harness cost (seed streams, signal draw, noise factor,
  bounds) and recover_oracle show. Its sub-millisecond timings swing with
  the host's speed more than the others (quartile spreads up to 0.43 over
  ten runs on a shared 2-vCPU box), so BENCHMARK.json leaves it out too and
  it is run by hand.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    compare: bool  # True: compare_schemes on scheme both; else run_denoise_sweep
    trials: int  # per cell and call; sized so a call takes about five seconds
    keys: Callable  # (v, work, tiny) -> the prior, measurement and grid config keys

    def mapping(self, v, seed: int, work: Path, tiny: bool) -> dict:
        """Config keys for this workload at ``seed``; writes prior files into ``work``."""
        return self.keys(v, work, tiny) | {
            "trials": 1 if tiny else self.trials,
            "master_seed": seed,
            "record_timing": True,
            "out": str(work / "sweep.csv"),
        }


def _philox(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key))


def _geom_grid(lo, hi, points, tiny):
    grid = [int(g) for g in np.unique(np.round(np.geomspace(lo, hi, points)))]
    return (grid[0], grid[-1]) if tiny else tuple(grid)


def _sparse_sweep_1d(v, work, tiny):
    return {
        "prior": "sparse",
        "n": 1024,
        "sparse_k": 10,
        "measurement": "dft",
        "sparsity": "haar",
        "sparsity_levels": 5,
        "m_grid": _geom_grid(math.ceil(10 * math.log(1024)), 4 * 1024, 16, tiny),
        "sigma_grid": (0.25, 1.0),
    }


def _generative_sweep(v, work, tiny):
    rng = _philox(11)
    net = v.priors.GenerativeNetwork(
        [
            rng.standard_normal((16, 3)) / math.sqrt(3),
            rng.standard_normal((64, 16)) / math.sqrt(16),
        ]
    )
    path = work / "net.vdsg"
    v.priors.save_network(net, path)
    return {
        "prior": "generative",
        "network_file": str(path),
        "measurement": "dft",
        "coherence_latents": 256,
        "m_grid": _geom_grid(math.ceil(3 * math.log(64)), 2048, 16, tiny),
        "sigma_grid": (0.5, 2.0),
    }


def _compare_image_2d(v, work, tiny):
    side, k, m_grid = (32, 10, (256, 512)) if tiny else (64, 40, (512, 1024, 2048))
    return {
        "prior": "sparse",
        "n": side * side,
        "sparse_k": k,
        "measurement": "dft2",
        "sparsity": "haar2",
        "sparsity_levels": 3,
        "scheme": "both",
        "m_grid": m_grid,
        "sigma_grid": (0.5,),
    }


def _union_oracle(v, work, tiny):
    rng = _philox(17)
    union = v.priors.SubspaceUnion(
        [v.priors.subspace_from_span(rng.standard_normal((64, 3))) for _ in range(8)]
    )
    path = work / "union.vdsu"
    v.priors.save_union(union, path)
    return {
        "prior": "union",
        "union_file": str(path),
        "measurement": "dft",
        "m_grid": (128,),
        "sigma_grid": (1.0,),
        "bound_delta": 0.05,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse_sweep_1d", 1, compare=False, trials=2, keys=_sparse_sweep_1d),
        Workload("generative_sweep", 1, compare=False, trials=2, keys=_generative_sweep),
        Workload("compare_image_2d", 1, compare=True, trials=1, keys=_compare_image_2d),
        Workload("union_oracle", 3, compare=False, trials=4000, keys=_union_oracle),
    )
}


def schemes(config) -> list[str]:
    return ["optimized", "uniform"] if config.scheme == "both" else [config.scheme]


@dataclass
class SweepCall:
    """One timed call of the sweep entry point and what it produced."""

    attempted: int
    seconds: float
    records: list | None
    csv_rows: list[str] | None  # header and data rows without the wall_time_ms column
    error: str | None

    @property
    def failed(self) -> int:
        if self.records is None:
            return self.attempted
        return sum(math.isnan(r.rre) for r in self.records)


def run_sweep(v, workload: Workload, config) -> SweepCall:
    """Call the harness entry point once, timing the whole call (set-up included)."""
    entry = v.harness.compare_schemes if workload.compare else v.harness.run_denoise_sweep
    attempted = len(schemes(config)) * len(config.m_grid) * len(config.sigma_grid) * config.trials
    started = time.perf_counter()
    try:
        result = entry(config)
    except Exception as exc:  # a raising sweep is a measured failure, not a crash
        elapsed = time.perf_counter() - started
        return SweepCall(attempted, elapsed, None, None, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - started
    records = result["optimized"] + result["uniform"] if workload.compare else result
    return SweepCall(attempted, seconds, records, _csv_rows(config.out), None)


def _csv_rows(path) -> list[str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [",".join(row[:-1]) for row in rows]


def check_call(v, config, call: SweepCall) -> list[str]:
    """Problems with a completed sweep call's output; an empty list means it passed."""
    problems = []
    if call.csv_rows[0] != v.harness.CSV_HEADER.rsplit(",", 1)[0]:
        problems.append(f"unexpected CSV header {call.csv_rows[0]!r}")
    if len(call.csv_rows) - 1 != len(call.records):
        problems.append("CSV row count differs from the returned records")
    expected = {}
    for si, sigma in enumerate(config.sigma_grid):
        for mi, m in enumerate(config.m_grid):
            cell = si * len(config.m_grid) + mi
            for trial in range(config.trials):
                seed_id = v.harness.trial_streams(config.master_seed, cell, trial).seed_id
                for scheme in schemes(config):
                    expected[(scheme, m, sigma, trial)] = seed_id
    got = {(r.scheme, r.m, r.sigma, r.trial): r.seed for r in call.records}
    if len(got) != len(call.records) or got != expected:
        problems.append("trial rows do not match the configured cells, trials and seed streams")
    for r in call.records:
        values = (r.objective, r.noise_factor, r.theorem_bound, r.corollary_bound)
        if math.isnan(r.rre):
            continue  # counted as a failed trial
        if not (np.all(np.isfinite(values)) and r.rre >= 0 and r.noise_factor > 0 and r.wall_time_ms > 0):
            problems.append(f"non-finite or out-of-range values in row {r}")
            break
    return problems


def _geo_mean(values) -> float:
    return float(np.exp(np.mean(np.log(np.maximum(values, 1e-15)))))


def accuracy_rails(config, records) -> list[str]:
    """Coarse accuracy checks on a whole run's records; they hold on every
    seed with a wide margin, but need more than a handful of trials."""
    problems = []
    ok = [r for r in records if not math.isnan(r.rre)]
    low, high = min(config.m_grid), max(config.m_grid)
    for scheme in schemes(config):
        for sigma in config.sigma_grid if low < high else ():
            lo, hi = (
                _geo_mean([r.rre for r in ok if (r.scheme, r.sigma, r.m) == (scheme, sigma, m)])
                for m in (low, high)
            )
            if not hi < lo:
                problems.append(f"{scheme} sigma={sigma}: error at m={high} ({hi:.3g}) "
                                f"is not below m={low} ({lo:.3g})")
    if config.scheme == "both":
        opt, uni = (_geo_mean([r.rre for r in ok if r.scheme == s]) for s in ("optimized", "uniform"))
        if not opt < uni:
            problems.append(f"optimized sampling ({opt:.3g}) does not beat uniform ({uni:.3g})")
    if config.prior == "union":
        covered = sum(r.rre <= r.theorem_bound for r in ok) / max(1, len(ok))
        if covered < 1.0 - config.bound_delta:
            problems.append(f"theorem bound covers {covered:.3f} of trials, below {1 - config.bound_delta}")
    return problems


def rre_geo_mean(records) -> float:
    return _geo_mean([r.rre for r in records])


def setup_seconds(v, config) -> float:
    """Wall seconds of one build_problem call plus the sampling plan(s)."""
    started = time.perf_counter()
    problem = v.harness.build_problem(config)
    if config.scheme in ("optimized", "both"):
        v.sampling.optimized_probabilities(problem.alpha)
    if config.scheme in ("uniform", "both"):
        v.sampling.uniform_plan(problem.n)
    return time.perf_counter() - started


def setup_peak_mb(v, config) -> float:
    """tracemalloc peak of one build_problem call, in MB (1e6 bytes)."""
    import tracemalloc

    tracemalloc.start()
    try:
        v.harness.build_problem(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6
