"""Experiment harness: flat-file config, seeded sweeps, aggregation and output files.

A sweep walks the (sigma, m) grid cell by cell and runs seeded independent
trials in each cell. Per-trial randomness comes from four spawned streams of
SeedSequence(master_seed, spawn_key=(cell_index, trial)): signal, draw,
noise, solver. A sweep derives every trial's keys in one batch, bitwise
equal to that SeedSequence's. The sampling scheme never enters the spawn key, so optimized
and uniform runs of the same config consume identical signals and noise
(common random numbers). Trials run in task order, in blocks of consecutive
trials: each trial is measured, and a sparse or union trial solved, on its
own, and a block's network draws are solved as one stacked run (a single
trial is a block of one), so the output CSV bytes are deterministic.
"""

from __future__ import annotations

import ctypes
import math
import sys
import time
import warnings
from dataclasses import dataclass, fields
from operator import index
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    recover_generative_stack,
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
from .transforms import _haar_bands, compose_measurement_basis, make_dft_operator, make_haar_operator

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
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.split(",") if tok.strip())


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


def _coerce_value(key, raw):
    """Parse a value with the key's config-file parser. A library caller's non-string value is
    parsed from its text, a grid's items comma-joined and a grid that is not a sequence taken as
    one item, so it passes exactly the checks that the same text in a config file does."""
    if key in ("m_grid", "sigma_grid") and not isinstance(raw, str):
        raw = ",".join(map(str, raw if np.iterable(raw) else [raw]))
    return _KEY_PARSERS[key](str(raw))


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
        out = v.get("out")
        if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigError(f"out must be a file in an existing directory, got {out}")
        if v["scheme"] == "custom" and v.get("plan_file") is None:
            raise ConfigError("scheme custom needs plan_file")
        lows = {"trials": 1, "master_seed": 0, "coherence_latents": 2, "m": 1, "sigma": 0}
        for key, low in lows.items():
            if not low <= v.get(key, low) < math.inf:  # written so that NaN fails too
                raise ConfigError(f"{key} must be finite and at least {low}")
        if not 0.0 < v["bound_delta"] < 1.0:
            raise ConfigError("bound_delta must be in (0, 1)")
        for key, floor in (("m_grid", 1), ("sigma_grid", 0)):
            grid = v.get(key)
            if grid is not None:
                if len(grid) == 0:
                    raise ConfigError(f"{key} must be non-empty")
                if any(not floor <= g < math.inf for g in grid):
                    raise ConfigError(f"{key} entries must be finite and at least {floor}")
                if len(set(grid)) < len(grid):  # (scheme, m, sigma, trial) would name two rows
                    raise ConfigError(f"{key} repeats a value: {grid}")

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
    exploit. The bands are those of ``_haar_bands``: the approximation band,
    then the detail bands from the coarsest to the finest, band b holding
    2^-b of the approximation band's mass.
    """
    sizes = _haar_bands(n, levels)[1]
    weights = np.repeat(0.5 ** np.arange(len(sizes)) / sizes, sizes)
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


@dataclass(frozen=True)
class TrialStreams:
    """Independent per-trial random streams plus the recorded seed id."""

    seed_id: int
    signal: np.random.Generator
    draw: np.random.Generator
    noise: np.random.Generator
    solver_seed: int


# The hash of numpy.random.SeedSequence (O'Neill's seed_seq with NumPy's constants), whose output
# NumPy keeps stable across releases. A key's entropy is the master seed's words, padded with zeros
# to the pool size, then the spawn key's words; each word past the pool size is mixed into all four
# pool words with four successive hashmix constants. Every key of a sweep shares the master seed,
# so NumPy mixes its pool once, and only the spawn-key words run per key, as uint32 arrays whose
# products wrap silently.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, while mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # while generating state from the pool
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _powers(start: int, mult: int, count: int) -> list:
    """start * mult**i mod 2**32 for i < count: the successive hash constants."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


def _xorshift(v):
    return v ^ (v >> 16)


def _master_pool(master_seed: int) -> tuple:
    """(pool, hashmix constant reached) after SeedSequence mixes in the master seed's words.

    Mixing hashes a zero for each word the seed lacks, so the zero padding a spawn key adds leaves
    the pool of ``SeedSequence(master_seed)``. It hashes each pool word once, each ordered pair of
    pool words once, and each word past the pool size once per pool word: 4 * max(4, words) hashes.
    """
    words = -(-master_seed.bit_length() // 32)  # the seed's uint32 words
    hashes = _POOL_SIZE * max(_POOL_SIZE, words)
    return np.random.SeedSequence(master_seed).pool, _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32


def _absorb(pool: np.ndarray, words: np.ndarray, const: int) -> tuple:
    """(pool, next constant) after mixing one entropy word past the pool size into every pool word.

    ``pool`` is uint32 of shape (4, ...) and ``words`` uint32 broadcasting against ``pool[0]``.
    """
    consts = _powers(const, _MULT_A, _POOL_SIZE + 1)
    table = np.array(consts, dtype=np.uint32).reshape(-1, *[1] * words.ndim)
    hashed = _xorshift((words ^ table[:-1]) * table[1:])
    return _xorshift(np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * hashed), consts[-1]


def _generate(pool: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint64) of each pool, stacked along axis 0."""
    consts = np.array(_powers(_INIT_B, _MULT_B, 2 * n_words + 1), dtype=np.uint32)
    consts = consts.reshape(-1, *[1] * (pool.ndim - 1))
    words = _xorshift((pool[np.arange(2 * n_words) % _POOL_SIZE] ^ consts[:-1]) * consts[1:])
    words = words.astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


def _stream_keys(master_seed: int, cells, trials) -> np.ndarray:
    """(N, 8) uint64 per (cell, trial) pair: seed_id, the signal, draw and noise Philox keys
    (two words each) and solver_seed, bitwise those of trial_streams's derivation.

    Key i is ``SeedSequence(master_seed, spawn_key=(cells[i], trials[i]))``:
    seed_id is its first uint64 state word, and its ``spawn(4)`` children,
    spawn keys (cells[i], trials[i], c), give the rest. Cells and trials
    must lie in [0, 2**32), so each takes one entropy word.
    """
    cells = np.asarray(cells, dtype=np.int64)
    trials = np.asarray(trials, dtype=np.int64)
    if cells.shape != trials.shape or cells.ndim != 1:
        raise ValueError("cells and trials must be vectors of equal length")
    if np.any((cells < 0) | (cells > _MASK32) | (trials < 0) | (trials > _MASK32)):
        raise ValueError("cell and trial indices must lie in [0, 2**32)")
    pool, const = _master_pool(index(master_seed))
    pool, const = _absorb(pool[:, None], cells.astype(np.uint32), const)
    root, const = _absorb(pool, trials.astype(np.uint32), const)
    # a child's entropy is its root's plus one word, so its pool is the root's with that word mixed in
    children, _ = _absorb(root[:, None, :], np.arange(4, dtype=np.uint32)[:, None], const)
    keys = _generate(children, 2)  # (word, child, key)
    # the solver's seed is its first word, as generate_state(1, np.uint64) gives it
    return np.column_stack([_generate(root, 1)[0], keys[:, 0].T, keys[:, 1].T, keys[:, 2].T, keys[0, 3]])


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox one precomputed key (two uint64 words)."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.key


def _streams(keys: np.ndarray) -> TrialStreams:
    """Fresh generators from one row of ``_stream_keys``."""
    signal, draw, noise = (
        np.random.Generator(np.random.Philox(_PhiloxKey(keys[j : j + 2]))) for j in (1, 3, 5)
    )
    return TrialStreams(int(keys[0]), signal, draw, noise, int(keys[7]))


def trial_streams(master_seed: int, cell_index: int, trial: int) -> TrialStreams:
    """Derive the four per-trial streams from (master_seed, cell, trial).

    The streams are the spawned children (signal, draw, noise, solver) of
    ``SeedSequence(master_seed, spawn_key=(cell_index, trial))``, and
    ``seed_id`` is that root's first uint64 state word; this is the
    one-trial case of the batch a sweep derives. The sampling scheme stays
    out of the derivation on purpose: runs that differ only in scheme see
    the same signals and noise.
    """
    return _streams(_stream_keys(master_seed, [cell_index], [trial])[0])


def _cell(scheme, m, sigma, trial) -> str:
    return f"scheme={scheme} m={m} sigma={sigma} trial={trial}"


def _run_trial(problem, plan, config, scheme, m, sigma, trial, streams: TrialStreams) -> tuple:
    """One trial up to its solve: (x0, outcome, ms, (noise_factor, theorem_bound, corollary_bound)).

    The trial draws its signal and rows and measures; a sparse draw is solved here with HTP and a
    union draw with the oracle, so ``outcome`` is their RecoveryResult, while a network's draw is
    left as (A, b, solver_seed) for its block's stacked solve. ``outcome`` is the exception that
    failed the trial instead, if any, and ``ms`` times the measurement and a solve made here. The
    noise factor and both bounds read only the draw; where one is undefined it is NaN, with a
    warning that names the cell.
    """
    x0 = _draw_signal(problem, streams.signal)
    sample = draw_sample(plan, m, streams.draw)
    prior = problem.prior
    started = time.perf_counter()
    try:
        b = simulate_measurements(problem.operator, sample, x0, sigma, seed=streams.noise)
        A = SampledOperator(problem.operator, sample)
        if isinstance(prior, SparsePrior):
            outcome = recover_sparse_two_stage(A, b, prior.k)
        elif isinstance(prior, SubspaceUnion):
            outcome = recover_oracle(A, b, prior)
        else:
            outcome = (A, b, streams.solver_seed)
    except Exception as exc:
        outcome = exc
    ms = (time.perf_counter() - started) * 1e3
    try:
        nf = noise_factor(sample, problem.alpha)
        bound = theorem_error_bound(
            nf, m, sigma, problem.max_dim, problem.log_subspace_count, delta=config.bound_delta
        )
    except ValueError as exc:
        cell = _cell(scheme, m, sigma, trial)
        warnings.warn(f"noise factor undefined ({cell}): {exc}", RuntimeWarning, stacklevel=2)
        nf, bound = float("nan"), float("nan")
    try:
        corollary = deterministic_corollary_bound(sample, problem.alpha, sigma)
    except ValueError as exc:
        cell = _cell(scheme, m, sigma, trial)
        warnings.warn(f"corollary bound undefined ({cell}): {exc}", RuntimeWarning, stacklevel=2)
        corollary = float("nan")
    return x0, outcome, ms, (nf, bound, corollary)


# a sweep runs this many consecutive trials at a time, and a block's network draws are solved as
# one stacked Adam run. An Adam step makes the same numpy calls at any block size, so a larger
# block shares them among more trials: on a 256-trial sweep of the (3, 16, 64) net (2 vCPU, one
# BLAS thread, median of 7) blocks of 16 / 32 / 64 / 128 / 256 gave trial p50 0.36 / 0.30 / 0.27
# / 0.26 / 0.27 ms, level from 64 on. The stack's memory grows with the block: a 64-trial call
# peaks at 2.4 MB of tracemalloc (0.9 MB in blocks of 16) and 256 trials in one block at 9.6 MB,
# so the cap keeps a long sweep's peak bounded
_STACK_TRIALS = 64


# glibc mallopt (parameter, value) pairs: arrays under 16 MB come from the heap, and up to 32 MB of
# freed heap stays with the process
_HEAP_SETTINGS = ((-3, 16 << 20), (-1, 32 << 20))  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD (malloc.h)


def _keep_freed_heap() -> None:
    """Keep freed arrays in the process between trials instead of returning them to the OS.

    Each threshold carries a different sweep. In alternating pairs on a 2-vCPU x86-64 VM
    (glibc 2.36), with one threshold at a time set by ``GLIBC_TUNABLES`` in place of this
    call: a 1-D sparse sweep (n = 1024) needs the trim threshold (p90 0.51 against 0.61 ms
    with neither, level with it alone, 0.66 ms with the mmap threshold alone); a paired 2-D
    comparison (n = 4096) needs the mmap threshold (p50 2.7 against 3.6 ms with the trim
    threshold alone, 3.2 ms with the mmap threshold alone, p90 5.3 against 6.0 ms with
    neither). Generative and union-oracle trials were level every way. Setting either
    threshold freezes glibc's own rising mmap threshold, hence both here. These are the
    thresholds glibc itself adopts after a 16 MB array is freed. The setting is
    process-wide; other C libraries keep their own policy.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        for param, value in _HEAP_SETTINGS:
            mallopt(param, value)


def _run(problem, plans, config, runs) -> list[ExperimentRecord]:
    """The rows of ``runs``, each a (scheme, m, sigma, trial, keys) tuple, in order.

    The runs go in blocks of ``_STACK_TRIALS``: ``_run_trial`` takes each run of a block up to its
    solve, one ``recover_generative_stack`` call solves the block's network draws, each from its
    own solver stream, and one loop makes the block's rows. A trial's ``wall_time_ms`` is its
    measurement, its solve and its rre; a network trial's solve is 1/T of its block's stacked
    solve, for a block of T trials. A trial that fails fails alone. The block size moves no row:
    with ``recover_generative_stack``'s default restarts, each draw gets its solo result bitwise.
    Blocks of 64 are where the per-trial cost stops falling (see ``_STACK_TRIALS``): a 64-trial
    benchmark call is one block, and a longer sweep's memory stays bounded.
    """
    records = []
    for start in range(0, len(runs), _STACK_TRIALS):
        block = runs[start : start + _STACK_TRIALS]
        trials = [
            _run_trial(problem, plans[scheme], config, scheme, m, sigma, trial, _streams(keys))
            for scheme, m, sigma, trial, keys in block
        ]
        draws = [outcome for _, outcome, _, _ in trials if isinstance(outcome, tuple)]
        share, solved = 0.0, iter(())
        if draws:
            started = time.perf_counter()
            solved = iter(recover_generative_stack(draws, problem.prior))
            share = (time.perf_counter() - started) * 1e3 / len(block)
        for (scheme, m, sigma, trial, keys), (x0, outcome, ms, bounds) in zip(block, trials):
            started = time.perf_counter()
            if isinstance(outcome, tuple):
                outcome = next(solved)
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                rre = relative_recovery_error(x0, outcome.x_hat)
                objective_value = outcome.objective
            except Exception as exc:
                cell = _cell(scheme, m, sigma, trial)
                warnings.warn(f"trial failed ({cell}): {type(exc).__name__}: {exc}", RuntimeWarning, stacklevel=2)
                rre, objective_value = float("nan"), float("nan")
            elapsed = ms + share + (time.perf_counter() - started) * 1e3 if config.record_timing else 0.0
            seed_id = int(keys[0])  # as _streams reads it
            records.append(
                ExperimentRecord(scheme, m, sigma, trial, seed_id, rre, objective_value, *bounds, elapsed)
            )
    return records


def _sweep(problem, config, schemes) -> list[ExperimentRecord]:
    config.require("m_grid", "sigma_grid")
    _keep_freed_heap()
    tasks = [
        (m, sigma, trial)
        for sigma in config.sigma_grid
        for m in config.m_grid
        for trial in range(config.trials)
    ]
    # cell index si * len(m_grid) + mi of task t is t // trials
    task_ids = np.arange(len(tasks))
    keys = _stream_keys(config.master_seed, task_ids // config.trials, task_ids % config.trials)
    plans = {scheme: _plan_for(problem, config, scheme) for scheme in schemes}
    # every scheme builds fresh generators from the same keys: common random numbers
    runs = [
        (scheme, m, sigma, trial, row) for scheme in schemes for (m, sigma, trial), row in zip(tasks, keys)
    ]
    return _run(problem, plans, config, runs)


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
    lines += [",".join(_format_value(getattr(r, f.name)) for f in fields(r)) for r in records]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(config: ExperimentConfig, out_path) -> None:
    """Echo the resolved config next to an output file as `<out>.manifest`."""
    lines = [f"{key} = {value}" for key, value in config.resolved_items()]
    with open(str(out_path) + ".manifest", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_single_trial(config: ExperimentConfig):
    """One seeded trial (cell 0, trial 0) at the config's single (m, sigma) point: the sweep's
    path on one run, so a network's trial is a stacked block of one."""
    if config.scheme == "both":
        raise ConfigError("a single trial needs one concrete scheme")
    config.require("m", "sigma")
    problem = build_problem(config)
    plans = {config.scheme: _plan_for(problem, config, config.scheme)}
    keys = _stream_keys(config.master_seed, [0], [0])[0]  # those of trial_streams(master_seed, 0, 0)
    (record,) = _run(problem, plans, config, [(config.scheme, config.m, config.sigma, 0, keys)])
    return record


def _sweep_to_file(config: ExperimentConfig, schemes) -> list[ExperimentRecord]:
    """Build the problem, sweep it under ``schemes``, and write the CSV and manifest at ``out``."""
    config.require("out")
    records = _sweep(build_problem(config), config, schemes)
    write_records_csv(records, config.out)
    write_manifest(config, config.out)
    return records


def run_denoise_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the configured sweep, write its CSV and manifest, return the records."""
    if config.scheme == "both":
        raise ConfigError("scheme 'both' is for compare_schemes")
    return _sweep_to_file(config, [config.scheme])


def compare_schemes(config: ExperimentConfig) -> dict:
    """Run optimized and uniform sweeps on common random numbers, paired by trial.

    The two schemes share per-trial signal and noise streams because the
    spawn key never includes the scheme; only the drawn rows differ.
    """
    if config.scheme != "both":
        raise ConfigError("compare_schemes needs scheme = both")
    records = _sweep_to_file(config, ["optimized", "uniform"])
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
    """OLS fit of log(rre) against log(m) inside the inclusive m-window.

    Every m and value inside the window must be finite and positive, and the window must hold
    at least two distinct m.
    """
    lo, hi = window
    inside = np.array([(m, v) for m, v in points if lo <= m <= hi], dtype=np.float64).reshape(-1, 2)
    if not np.all((inside > 0) & (inside < np.inf)):  # written so that NaN fails too
        raise ValueError("every m and value inside the fit window must be finite and positive")
    if np.unique(inside[:, 0]).size < 2:
        raise ValueError("need at least two points of distinct m inside the fit window")
    slope, intercept = np.polyfit(*np.log(inside).T, 1)
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
