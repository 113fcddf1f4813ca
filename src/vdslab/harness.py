"""Experiment harness: flat-file config, seeded sweeps, aggregation and output files.

A sweep walks the (sigma, m) grid cell by cell and runs seeded independent
trials in each cell. Per-trial randomness comes from four spawned streams of
SeedSequence(master_seed, spawn_key=(cell_index, trial)): signal, draw,
noise, solver. The sampling scheme never enters the spawn key, so optimized
and uniform runs of the same config consume identical signals and noise
(common random numbers). Trials run one after another in task order, so the
output CSV bytes are deterministic.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import astuple, dataclass, fields
from numbers import Real
from operator import index
from pathlib import Path

import numpy as np

from .coherence import (
    coherence_vector,
    empirical_generative_coherence,
    sparse_coherence_vector,
)
from .priors import (
    SparsePrior,
    SubspaceUnion,
    difference_union,
    generative_forward,
    load_network,
    load_union,
    subspace_count_bounds,
)
from .recovery import (
    deterministic_corollary_bound,
    recover_generative,
    recover_oracle,
    recover_sparse_two_stage,
    relative_recovery_error,
    simulate_measurements,
    theorem_error_bound,
)
from .sampling import (
    SampledOperator,
    draw_sample,
    load_plan_csv,
    noise_factor,
    optimized_probabilities,
    uniform_plan,
)
from .transforms import compose_measurement_basis, make_dft_operator, make_haar_operator

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRecord",
    "TrialStreams",
    "parse_config_file",
    "build_problem",
    "trial_streams",
    "run_single_trial",
    "run_denoise_sweep",
    "compare_schemes",
    "aggregate_geometric",
    "fit_loglog_slope",
    "default_fit_window",
    "write_records_csv",
    "write_manifest",
]

_RRE_CLAMP = 1e-15


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _parse_bool(s: str) -> bool:
    lowered = s.strip().lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"expected true or false, got {s!r}")
    return lowered == "true"


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(s).split(",") if tok.strip())


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(s).split(",") if tok.strip())


_KEY_PARSERS = {
    "prior": str,
    "n": int,
    "measurement": str,
    "measurement_levels": int,
    "sparsity": str,
    "sparsity_levels": int,
    "sparse_k": int,
    "union_file": str,
    "network_file": str,
    "scheme": str,
    "plan_file": str,
    "m_grid": _parse_int_list,
    "sigma_grid": _parse_float_list,
    "m": int,
    "sigma": float,
    "trials": int,
    "master_seed": int,
    "out": str,
    "record_timing": _parse_bool,
    "bound_delta": float,
    "coherence_latents": int,
}

_DEFAULTS = {
    "scheme": "optimized",
    "sparsity": "none",
    "trials": 1,
    "master_seed": 0,
    "record_timing": False,
    "bound_delta": 0.05,
    "coherence_latents": 256,
}

_PRIORS = ("sparse", "union", "generative")
_SCHEMES = ("optimized", "uniform", "custom", "both")
_MEASUREMENTS = ("dft", "dft2", "haar", "haar2")
# real bases only: under a complex one the sparse step's closed-form ||A||^2 is only a bound
_SPARSITIES = ("none", "haar", "haar2")


def _integer(x) -> int:
    # index() takes Python and NumPy integers and rejects a float that int() would truncate;
    # a bool is an int to Python, so it is refused first
    if isinstance(x, (bool, np.bool_)):
        raise TypeError(f"expected an integer, got {x!r}")
    return index(x)


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, Real):  # NumPy's bool is no Real
        raise TypeError(f"expected a real number, got {x!r}")
    return float(x)


def _coerce_value(key, raw):
    """Parse config-file text with the key's parser; a library caller's non-string value must
    already have the key's type (a bool is neither an integer nor a real number here)."""
    parser = _KEY_PARSERS[key]
    if isinstance(raw, str):
        return parser(raw)
    if parser is int:
        return _integer(raw)
    if parser is _parse_int_list:
        return tuple(_integer(x) for x in raw)
    if parser is float:
        return _real(raw)
    if parser is _parse_float_list:
        return tuple(_real(x) for x in raw)
    if parser is _parse_bool:
        if not isinstance(raw, (bool, np.bool_)):
            raise TypeError(f"expected a bool, got {raw!r}")
        return bool(raw)
    return parser(raw)


def parse_config_file(path) -> dict:
    """Read a flat `key = value` file; # comments and blank lines allowed."""
    mapping = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


class ExperimentConfig:
    """Validated flat key-value configuration; unknown keys are errors."""

    def __init__(self, mapping: dict):
        unknown = set(mapping) - set(_KEY_PARSERS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = dict(_DEFAULTS)
        for key, raw in mapping.items():
            try:
                values[key] = _coerce_value(key, raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        self._values = values
        self._validate()

    def __getattr__(self, key):
        if key.startswith("_"):
            raise AttributeError(key)
        if key in _KEY_PARSERS:
            return self._values.get(key)
        raise AttributeError(key)

    def require(self, *keys):
        missing = [k for k in keys if self._values.get(k) is None]
        if missing:
            raise ConfigError(f"missing required config keys: {missing}")

    def _validate(self):
        v = self._values
        self.require("prior", "measurement")
        if v["prior"] not in _PRIORS:
            raise ConfigError(f"prior must be one of {_PRIORS}, got {v['prior']!r}")
        if v["scheme"] not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, got {v['scheme']!r}")
        if v["measurement"] not in _MEASUREMENTS:
            raise ConfigError(f"measurement must be one of {_MEASUREMENTS}")
        if v["sparsity"] not in _SPARSITIES:
            raise ConfigError(f"sparsity must be one of {_SPARSITIES}")
        if v["measurement"].startswith("haar") and v.get("measurement_levels") is None:
            raise ConfigError("haar measurement needs measurement_levels")
        if v["sparsity"].startswith("haar") and v.get("sparsity_levels") is None:
            raise ConfigError("haar sparsity needs sparsity_levels")
        if v["prior"] == "sparse":
            self.require("n", "sparse_k")
            if v["sparse_k"] < 1:
                raise ConfigError("sparse_k must be positive")
        elif v["prior"] == "union":
            self.require("union_file")
        else:
            self.require("network_file")
        if v["prior"] != "sparse" and v["sparsity"] != "none":
            raise ConfigError("sparsity transforms apply to the sparse prior only")
        for key in ("union_file", "network_file", "plan_file"):
            path = v.get(key)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{key} does not exist: {path}")
        if v["scheme"] == "custom" and v.get("plan_file") is None:
            raise ConfigError("scheme custom needs plan_file")
        lows = {"trials": 1, "master_seed": 0, "coherence_latents": 2, "m": 1, "sigma": 0}
        for key, low in lows.items():
            if not v.get(key, low) >= low:  # written so that NaN fails too
                raise ConfigError(f"{key} must be at least {low}")
        if not 0.0 < v["bound_delta"] < 1.0:
            raise ConfigError("bound_delta must be in (0, 1)")
        for key, floor in (("m_grid", 1), ("sigma_grid", 0)):
            grid = v.get(key)
            if grid is not None:
                if len(grid) == 0:
                    raise ConfigError(f"{key} must be non-empty")
                if any(not g >= floor for g in grid):
                    raise ConfigError(f"{key} entries must be at least {floor}")

    def resolved_items(self) -> list[tuple[str, str]]:
        return [(key, _format_value(v)) for key, v in sorted(self._values.items()) if v is not None]


@dataclass(frozen=True)
class ExperimentRecord:
    """One trial's results; reproducible from the config plus its seed columns."""

    scheme: str
    m: int
    sigma: float
    trial: int
    seed: int
    rre: float
    objective: float
    noise_factor: float
    theorem_bound: float
    corollary_bound: float
    wall_time_ms: float


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRecord))


@dataclass(frozen=True)
class _Problem:
    operator: object
    prior: object
    alpha: np.ndarray
    coherence_method: str
    n: int
    max_dim: int
    log_subspace_count: float
    support_weights: object = None


def _octave_band_weights(n: int, levels: int) -> np.ndarray:
    """Per-coefficient support probabilities with geometric octave decay.

    Piecewise-smooth signals have 1/f-type spectra, so their largest wavelet
    coefficients pile up in the coarse bands; each finer band gets half the
    mass of the previous one. Uniform supports would bury the coarse bands
    under the finest one and leave density-optimized sampling nothing to
    exploit.
    """
    weights = np.empty(n)
    coarse = n >> levels
    weights[:coarse] = 1.0 / coarse
    start, size, band = coarse, coarse, 1
    while start < n:
        weights[start : start + size] = 0.5**band / size
        start += size
        size *= 2
        band += 1
    return weights / weights.sum()


def _make_operator(kind: str, n: int, levels):
    """The named transform on n; a depth or size it cannot take is a config error."""
    try:
        if kind == "dft":
            return make_dft_operator(n)
        if kind == "dft2":
            return make_dft_operator(n, two_dim=True)
        if kind == "haar":
            return make_haar_operator(n, levels)
        return make_haar_operator(n, levels, two_dim=True)
    except ValueError as exc:
        raise ConfigError(f"{kind} transform on n={n}: {exc}") from exc


def build_problem(config: ExperimentConfig) -> _Problem:
    """Resolve operator, prior, coherence, and bound parameters from a config."""
    support_weights = None
    if config.prior == "sparse":
        n = config.n
        measurement = _make_operator(config.measurement, n, config.measurement_levels)
        if config.sparsity == "none":
            operator = measurement
        else:
            basis = _make_operator(config.sparsity, n, config.sparsity_levels)
            operator = compose_measurement_basis(measurement, basis)
            levels = config.sparsity_levels
            if config.sparsity == "haar":
                support_weights = _octave_band_weights(n, levels)
            elif config.sparsity == "haar2":
                side = math.isqrt(n)
                one_dim = _octave_band_weights(side, levels)
                support_weights = np.outer(one_dim, one_dim).ravel()
        if config.sparse_k > n:
            raise ConfigError("sparse_k exceeds the signal dimension")
        prior = SparsePrior(n, config.sparse_k)
        alpha = sparse_coherence_vector(operator, min(2 * config.sparse_k, n))
        method = "upper_bound"
        log_count, max_dim = subspace_count_bounds(prior)
    elif config.prior == "union":
        prior = load_union(config.union_file)
        n = prior.n
        operator = _make_operator(config.measurement, n, config.measurement_levels)
        differences = difference_union(prior)
        alpha = coherence_vector(operator, differences)
        method = "exact"
        max_dim = differences.max_dim
        log_count = math.log(differences.M)
    else:
        prior = load_network(config.network_file)
        n = prior.n
        operator = _make_operator(config.measurement, n, config.measurement_levels)
        alpha = empirical_generative_coherence(
            prior, operator, config.coherence_latents, config.master_seed
        )
        method = "empirical"
        log_count, max_dim = subspace_count_bounds(prior)
    if config.n is not None and config.n != n:
        raise ConfigError(f"config n={config.n} but the prior lives in dimension {n}")
    return _Problem(operator, prior, alpha, method, n, max_dim, log_count, support_weights)


def _plan_for(problem: _Problem, config: ExperimentConfig, scheme: str):
    if scheme == "optimized":
        return optimized_probabilities(problem.alpha)
    if scheme == "uniform":
        return uniform_plan(problem.n)
    plan = load_plan_csv(config.plan_file)
    if plan.n != problem.n:
        raise ConfigError("plan_file dimension does not match the problem")
    return plan


def _draw_signal(problem: _Problem, rng: np.random.Generator) -> np.ndarray:
    prior = problem.prior
    if isinstance(prior, SparsePrior):
        # equal-magnitude random signs keep every coefficient equally
        # detectable, so the support transition saturates instead of
        # bleeding marginal coefficients into the denoising regime
        x0 = np.zeros(prior.n)
        signs = 2.0 * rng.integers(0, 2, size=prior.k) - 1.0
        support = rng.choice(
            prior.n, size=prior.k, replace=False, p=problem.support_weights
        )
        x0[support] = signs
        return x0 / math.sqrt(prior.k)
    if isinstance(prior, SubspaceUnion):
        sub = prior.subspaces[int(rng.integers(prior.M))]
        w = rng.standard_normal(sub.dim)
        while not np.any(w):
            w = rng.standard_normal(sub.dim)
        x0 = sub.basis @ w
        return x0 / np.linalg.norm(x0)
    for _ in range(100):
        x0 = generative_forward(prior, rng.standard_normal(prior.latent_dim))
        if np.linalg.norm(x0) > 1e-9:
            return x0
    raise RuntimeError("network output vanished on 100 latent draws")


def _solve(problem: _Problem, A: SampledOperator, b: np.ndarray, solver_seed: int):
    """Run the prior's own solver: HTP for sparse, the oracle for unions, latent Adam for networks."""
    prior = problem.prior
    if isinstance(prior, SparsePrior):
        return recover_sparse_two_stage(A, b, prior.k)
    if isinstance(prior, SubspaceUnion):
        return recover_oracle(A, b, prior)
    return recover_generative(A, b, prior, seed=solver_seed)


@dataclass(frozen=True)
class TrialStreams:
    """Independent per-trial random streams plus the recorded seed id."""

    seed_id: int
    signal: np.random.Generator
    draw: np.random.Generator
    noise: np.random.Generator
    solver_seed: int


def trial_streams(master_seed: int, cell_index: int, trial: int) -> TrialStreams:
    """Derive the four per-trial streams from (master_seed, cell, trial).

    The sampling scheme stays out of the derivation on purpose: runs that
    differ only in scheme see the same signals and noise.
    """
    root = np.random.SeedSequence(master_seed, spawn_key=(cell_index, trial))
    seed_id = int(root.generate_state(1, dtype=np.uint64)[0])
    signal_ss, draw_ss, noise_ss, solver_ss = root.spawn(4)
    return TrialStreams(
        seed_id,
        np.random.Generator(np.random.Philox(signal_ss)),
        np.random.Generator(np.random.Philox(draw_ss)),
        np.random.Generator(np.random.Philox(noise_ss)),
        int(solver_ss.generate_state(1, dtype=np.uint64)[0]),
    )


def _run_trial(problem, plan, config, scheme, cell_index, m, sigma, trial) -> ExperimentRecord:
    streams = trial_streams(config.master_seed, cell_index, trial)
    x0 = _draw_signal(problem, streams.signal)
    sample = draw_sample(plan, m, streams.draw)
    cell = f"scheme={scheme} m={m} sigma={sigma} trial={trial}"
    started = time.perf_counter()
    try:
        b = simulate_measurements(problem.operator, sample, x0, sigma, seed=streams.noise)
        A = SampledOperator(problem.operator, sample)
        result = _solve(problem, A, b, streams.solver_seed)
        rre = relative_recovery_error(x0, result.x_hat)
        objective_value = result.objective
    except Exception as exc:
        warnings.warn(f"trial failed ({cell}): {type(exc).__name__}: {exc}", RuntimeWarning, stacklevel=2)
        rre, objective_value = float("nan"), float("nan")
    elapsed = (time.perf_counter() - started) * 1e3 if config.record_timing else 0.0
    try:
        nf = noise_factor(sample, problem.alpha)
        bound = theorem_error_bound(
            nf, m, sigma, problem.max_dim, problem.log_subspace_count, delta=config.bound_delta
        )
    except ValueError as exc:
        warnings.warn(f"noise factor undefined ({cell}): {exc}", RuntimeWarning, stacklevel=2)
        nf, bound = float("nan"), float("nan")
    try:
        corollary = deterministic_corollary_bound(sample, problem.alpha, sigma)
    except ValueError as exc:
        warnings.warn(f"corollary bound undefined ({cell}): {exc}", RuntimeWarning, stacklevel=2)
        corollary = float("nan")
    return ExperimentRecord(
        scheme, m, sigma, trial, streams.seed_id, rre, objective_value, nf, bound, corollary, elapsed
    )


def _sweep(problem, config, schemes) -> list[ExperimentRecord]:
    config.require("m_grid", "sigma_grid")
    cells = [
        (si * len(config.m_grid) + mi, m, sigma)
        for si, sigma in enumerate(config.sigma_grid)
        for mi, m in enumerate(config.m_grid)
    ]
    plans = {scheme: _plan_for(problem, config, scheme) for scheme in schemes}
    return [
        _run_trial(problem, plans[scheme], config, scheme, cell_index, m, sigma, trial)
        for scheme in schemes
        for cell_index, m, sigma in cells
        for trial in range(config.trials)
    ]


def _format_value(v) -> str:
    """Text of a record or config value: bools as true/false, reals to 17 digits, tuples comma-joined."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, tuple):
        return ",".join(_format_value(x) for x in v)
    return f"{float(v):.17g}"


def write_records_csv(records, path) -> None:
    lines = [CSV_HEADER]
    lines += [",".join(_format_value(v) for v in astuple(r)) for r in records]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(config: ExperimentConfig, out_path) -> None:
    """Echo the resolved config next to an output file as `<out>.manifest`."""
    lines = [f"{key} = {value}" for key, value in config.resolved_items()]
    with open(str(out_path) + ".manifest", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_single_trial(config: ExperimentConfig):
    """One seeded trial (cell 0, trial 0) at the config's single (m, sigma) point."""
    if config.scheme == "both":
        raise ConfigError("a single trial needs one concrete scheme")
    config.require("m", "sigma")
    problem = build_problem(config)
    plan = _plan_for(problem, config, config.scheme)
    return _run_trial(problem, plan, config, config.scheme, 0, config.m, config.sigma, 0)


def run_denoise_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the configured sweep, write its CSV and manifest, return the records."""
    if config.scheme == "both":
        raise ConfigError("scheme 'both' is for compare_schemes")
    config.require("out", "trials")
    problem = build_problem(config)
    records = _sweep(problem, config, [config.scheme])
    write_records_csv(records, config.out)
    write_manifest(config, config.out)
    return records


def compare_schemes(config: ExperimentConfig) -> dict:
    """Run optimized and uniform sweeps on common random numbers, paired by trial.

    The two schemes share per-trial signal and noise streams because the
    spawn key never includes the scheme; only the drawn rows differ.
    """
    if config.scheme != "both":
        raise ConfigError("compare_schemes needs scheme = both")
    config.require("out", "trials")
    problem = build_problem(config)
    records = _sweep(problem, config, ["optimized", "uniform"])
    write_records_csv(records, config.out)
    write_manifest(config, config.out)
    split = len(records) // 2
    return {"optimized": records[:split], "uniform": records[split:]}


def aggregate_geometric(records) -> dict:
    """Per-cell geometric mean and geometric standard error of the rre values.

    Returns {(scheme, m, sigma): {geo_mean_rre, geo_std_error, trials, clamped}}.
    Zero errors are clamped to 1e-15 before the logs and counted in
    ``clamped``; failed trials (NaN rre) are dropped.
    """
    groups: dict = {}
    for r in records:
        groups.setdefault((r.scheme, r.m, r.sigma), []).append(r.rre)
    if not groups:
        raise ValueError("no records to aggregate")
    out = {}
    for key, values in groups.items():
        arr = np.asarray(values, dtype=np.float64)
        arr = arr[~np.isnan(arr)]
        if arr.size == 0:
            raise ValueError(f"cell {key} has no usable trials")
        clamped = int(np.sum(arr < _RRE_CLAMP))
        logs = np.log(np.maximum(arr, _RRE_CLAMP))
        out[key] = {
            "geo_mean_rre": float(np.exp(np.mean(logs))),
            "geo_std_error": float(np.exp(np.std(logs) / math.sqrt(arr.size))),
            "trials": int(arr.size),
            "clamped": clamped,
        }
    return out


def fit_loglog_slope(points, window) -> dict:
    """OLS fit of log(rre) against log(m) inside the inclusive m-window."""
    lo, hi = window
    inside = [(m, v) for m, v in points if lo <= m <= hi]
    if len(inside) < 2:
        raise ValueError("need at least two points inside the fit window")
    log_m = np.log([p[0] for p in inside])
    log_v = np.log([p[1] for p in inside])
    slope, intercept = np.polyfit(log_m, log_v, 1)
    return {"slope": float(slope), "intercept": float(intercept)}


def default_fit_window(points) -> tuple[int, int]:
    """Post-transition window [4*m_transition, m_max].

    m_transition is the smallest m whose error drops below half the error at
    the smallest m; with no such drop the window starts at 4*m_min.
    """
    pts = sorted(points)
    if not pts:
        raise ValueError("no points")
    base = pts[0][1]
    m_transition = next((m for m, v in pts if v < 0.5 * base), pts[0][0])
    return 4 * m_transition, pts[-1][0]
