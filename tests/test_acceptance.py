"""Desk-scale acceptance runs covering the whole laboratory end to end.

Each test is one verdict under ``pytest -v``: denoising rates for the sparse
and generative priors, the optimized-vs-uniform ordering, and the analytic
guarantees (probability optimality, noise-factor chain, projection bounds,
isotropy, isometry sample complexity, recovery bound coverage, solver
equivalence, noise linearity). The two sweeps dominate the runtime, so they
live in module-scoped fixtures and the downstream checks reuse their records.
Elapsed-time asserts are generous rails, not benchmarks.
"""

import itertools
import math
import time

import numpy as np
import pytest

from vdslab.calibration import ISOMETRY_COMPLEXITY_CONSTANT
from vdslab.coherence import coherence_vector, sparse_coherence_vector
from vdslab.harness import (
    CSV_HEADER,
    ExperimentConfig,
    aggregate_geometric,
    compare_schemes,
    default_fit_window,
    fit_loglog_slope,
    run_denoise_sweep,
    trial_streams,
)
from vdslab.priors import (
    GenerativeNetwork,
    Subspace,
    SubspaceUnion,
    save_network,
    save_union,
    subspace_from_span,
)
from vdslab.recovery import (
    recover_oracle,
    recover_sparse_two_stage,
    rip_check,
    simulate_measurements,
)
from vdslab.sampling import (
    SampledOperator,
    complexity_mu,
    draw_sample,
    noise_factor,
    noise_factor_bounds,
    optimized_probabilities,
    sample_complexity,
    unit_truncation,
)
from vdslab.transforms import make_dft_operator


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def _geom_grid(lo, hi, points):
    return [int(v) for v in np.unique(np.round(np.geomspace(lo, hi, points)))]


def _rre_curve(agg, scheme, grid, sigma):
    return [(m, agg[(scheme, m, sigma)]["geo_mean_rre"]) for m in grid]


def _transition(points):
    """Smallest m whose cell mean falls below half the smallest-m cell mean."""
    base = points[0][1]
    for m, rre in points:
        if rre < 0.5 * base:
            return m
    return points[0][0]


def _cell_geo_mean(records, field, m, sigma):
    vals = np.array([getattr(r, field) for r in records if r.m == m and r.sigma == sigma])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    return float(np.exp(np.mean(np.log(vals))))


@pytest.fixture(scope="module")
def sparse_sweep(tmp_path_factory):
    """Optimized-sampling sweep: n=1024, Haar level 5, k=10, DFT, 40 trials/cell."""
    out = tmp_path_factory.mktemp("sparse") / "sweep.csv"
    grid = _geom_grid(math.ceil(10 * math.log(1024)), 4 * 1024, 16)
    config = ExperimentConfig(
        {
            "prior": "sparse",
            "n": 1024,
            "sparse_k": 10,
            "measurement": "dft",
            "sparsity": "haar",
            "sparsity_levels": 5,
            "m_grid": ",".join(map(str, grid)),
            "sigma_grid": "0.25,1.0",
            "trials": 40,
            "master_seed": 1,
            "out": str(out),
        }
    )
    started = time.perf_counter()
    records = run_denoise_sweep(config)
    return {
        "grid": grid,
        "records": records,
        "agg": aggregate_geometric(records),
        "csv": out,
        "elapsed": time.perf_counter() - started,
    }


def test_01_sparse_denoising_rate(sparse_sweep):
    """Post-transition log-log slope of rre vs m sits in [-0.70, -0.35] for both sigmas."""
    assert sparse_sweep["elapsed"] < 600.0
    for sigma in (0.25, 1.0):
        points = _rre_curve(sparse_sweep["agg"], "optimized", sparse_sweep["grid"], sigma)
        slope = fit_loglog_slope(points, default_fit_window(points))["slope"]
        assert -0.70 <= slope <= -0.35, f"sigma={sigma}: slope {slope:.3f}"


def test_02_generative_denoising_rate(tmp_path_factory):
    """Latent descent on a (3, 16, 64) net: slopes in [-0.75, -0.25] for both sigmas."""
    work = tmp_path_factory.mktemp("generative")
    rng = _philox(11)
    net = GenerativeNetwork(
        [
            rng.standard_normal((16, 3)) / math.sqrt(3),
            rng.standard_normal((64, 16)) / math.sqrt(16),
        ]
    )
    net_path = work / "toy.vdsg"
    save_network(net, net_path)
    grid = _geom_grid(math.ceil(3 * math.log(64)), 2048, 16)
    config = ExperimentConfig(
        {
            "prior": "generative",
            "network_file": str(net_path),
            "measurement": "dft",
            "coherence_latents": 256,
            "m_grid": ",".join(map(str, grid)),
            "sigma_grid": "0.5,2.0",
            "trials": 30,
            "master_seed": 1,
            "out": str(work / "sweep.csv"),
        }
    )
    started = time.perf_counter()
    agg = aggregate_geometric(run_denoise_sweep(config))
    assert time.perf_counter() - started < 1200.0
    for sigma in (0.5, 2.0):
        points = _rre_curve(agg, "optimized", grid, sigma)
        slope = fit_loglog_slope(points, default_fit_window(points))["slope"]
        assert -0.75 <= slope <= -0.25, f"sigma={sigma}: slope {slope:.3f}"


def test_03_optimized_sampling_beats_uniform(sparse_sweep, tmp_path_factory):
    """Paired comparison at the three smallest post-transition m wins every cell."""
    work = tmp_path_factory.mktemp("compare")
    for sigma in (0.25, 1.0):
        points = _rre_curve(sparse_sweep["agg"], "optimized", sparse_sweep["grid"], sigma)
        past = [m for m in sparse_sweep["grid"] if m > _transition(points)][:3]
        assert len(past) == 3
        config = ExperimentConfig(
            {
                "prior": "sparse",
                "n": 1024,
                "sparse_k": 10,
                "measurement": "dft",
                "sparsity": "haar",
                "sparsity_levels": 5,
                "scheme": "both",
                "m_grid": ",".join(map(str, past)),
                "sigma_grid": str(sigma),
                "trials": 40,
                "master_seed": 1,
                "out": str(work / f"pair_{sigma}.csv"),
            }
        )
        halves = compare_schemes(config)
        agg = aggregate_geometric(halves["optimized"] + halves["uniform"])
        for m in past:
            opt = agg[("optimized", m, sigma)]["geo_mean_rre"]
            uni = agg[("uniform", m, sigma)]["geo_mean_rre"]
            assert opt < uni, f"sigma={sigma} m={m}: {opt:.4e} vs {uni:.4e}"


def test_04_optimized_probabilities_minimize_mu():
    """mu equals ||alpha||_2 at the optimum; every feasible perturbation is worse."""
    started = time.perf_counter()
    rng = _philox(71)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        alpha = 0.05 + rng.random(n)
        plan = optimized_probabilities(alpha)
        mu_opt = complexity_mu(alpha, plan.p)
        assert abs(mu_opt - np.linalg.norm(alpha)) <= 1e-12
        for _ in range(50):
            q = plan.p * (1.0 + 0.2 * rng.random(n)) + 1e-3 * rng.random(n)
            q /= q.sum()
            if np.allclose(q, plan.p, atol=1e-15):
                continue
            assert complexity_mu(alpha, q) > mu_opt
    assert time.perf_counter() - started < 60.0


def test_05_noise_factor_bound_chain():
    """10^4 optimized draws at n=256 respect every noise-factor bound."""
    started = time.perf_counter()
    n, m, draws = 256, 64, 10_000
    alpha = np.abs(_philox(72).standard_normal(n)) + 0.01
    plan = optimized_probabilities(alpha)
    alpha_norm = float(np.linalg.norm(alpha))
    cap = alpha_norm / (math.sqrt(n) * float(np.min(alpha)))
    stream = _philox(73)
    factors = np.empty(draws)
    for i in range(draws):
        sample = draw_sample(plan, m, stream)
        nf = noise_factor(sample, alpha)
        bounds = noise_factor_bounds(plan, sample, alpha, t=0.1)
        assert nf <= bounds["max_Sd"] + 1e-12
        assert bounds["max_Sd"] <= bounds["max_d"] + 1e-12
        factors[i] = nf
    for t in (0.1, 0.25):
        assert float(np.mean(factors > alpha_norm / math.sqrt(t))) <= t
    assert float(np.max(factors)) <= cap + 1e-12
    assert time.perf_counter() - started < 60.0


def test_06_diagonal_projection_bounds():
    """500 single + 500 paired instances: ||D~ P|| <= ||D~ T(beta)|| + 1e-10."""
    started = time.perf_counter()
    rng = _philox(76)
    for _ in range(500):
        m = int(rng.integers(2, 65))
        ell = int(rng.integers(1, min(m, 8) + 1))
        basis = np.linalg.qr(rng.standard_normal((m, ell)))[0]
        d_tilde = np.sort(0.1 + rng.random(m))[::-1]
        beta = np.linalg.norm(basis, axis=1)
        lhs = np.linalg.svd(d_tilde[:, None] * basis, compute_uv=False)[0]
        assert lhs <= np.linalg.norm(d_tilde * unit_truncation(beta)) + 1e-10
    rng = _philox(77)
    for _ in range(500):
        m = int(rng.integers(2, 65))
        ell = int(rng.integers(2, min(2 * m, 8) + 1))
        basis = np.linalg.qr(rng.standard_normal((2 * m, ell)))[0]
        d_tilde = np.sort(0.1 + rng.random(m))[::-1]
        # beta_i is the exact sup of the (2i-1, 2i) coordinate pair over the ball
        beta = np.linalg.svd(basis.reshape(m, 2, ell), compute_uv=False)[:, 0]
        lhs = np.linalg.svd(np.repeat(d_tilde, 2)[:, None] * basis, compute_uv=False)[0]
        assert lhs <= np.linalg.norm(d_tilde * unit_truncation(beta)) + 1e-10
    assert time.perf_counter() - started < 60.0


def test_07_isotropy_and_preconditioner_mass():
    """2e4 draws at n=16: averaged outer products near identity, E||Sd||^2 near n."""
    started = time.perf_counter()
    n, m, draws = 16, 4, 20_000
    alpha = 0.5 + _philox(74).random(n)
    plan = optimized_probabilities(alpha)
    f = make_dft_operator(n).matrix()
    omegas = np.searchsorted(np.cumsum(plan.p), _philox(75).random((draws, m)), side="right")
    counts = np.bincount(omegas.ravel(), minlength=n)
    weights = (n / m) * plan.d**2 * counts / draws
    deviation = np.linalg.norm(f.conj().T @ (weights[:, None] * f) - np.eye(n), ord=2)
    assert deviation <= 0.05
    mass = (n / m) * np.sum(plan.d[omegas] ** 2, axis=1)
    assert abs(float(np.mean(mass)) - n) <= 0.02 * n
    assert time.perf_counter() - started < 60.0


def test_08_isometry_sample_complexity_constant():
    """The recorded constant's m holds the isometry on >= 90% of seeds; m/8 breaks it."""
    started = time.perf_counter()
    n, subspaces, dim, delta = 256, 20, 5, 0.1
    rng = _philox(2026)
    union = SubspaceUnion(
        [Subspace(np.linalg.qr(rng.standard_normal((n, dim)))[0]) for _ in range(subspaces)]
    )
    op = make_dft_operator(n)
    alpha = coherence_vector(op, union)
    plan = optimized_probabilities(alpha)
    mu = float(np.linalg.norm(alpha))
    m_star = sample_complexity(mu, dim, math.log(subspaces), delta, ISOMETRY_COMPLEXITY_CONSTANT)

    def hold_rate(m):
        held = sum(
            rip_check(SampledOperator(op, draw_sample(plan, m, _philox(seed))), union)["holds"]
            for seed in range(200)
        )
        return held / 200

    assert hold_rate(m_star) >= 0.90
    assert 1.0 - hold_rate(m_star // 8) >= 0.50
    assert time.perf_counter() - started < 300.0


def test_09_recovery_error_bound_coverage(tmp_path_factory):
    """500 oracle trials on an 8-subspace union: error under the stated bound >= 95%."""
    work = tmp_path_factory.mktemp("coverage")
    rng = _philox(17)
    union = SubspaceUnion([subspace_from_span(rng.standard_normal((64, 3))) for _ in range(8)])
    union_path = work / "union.vdsu"
    save_union(union, union_path)
    config = ExperimentConfig(
        {
            "prior": "union",
            "union_file": str(union_path),
            "measurement": "dft",
            "m_grid": "128",
            "sigma_grid": "1.0",
            "trials": 500,
            "master_seed": 3,
            "bound_delta": 0.05,
            "out": str(work / "sweep.csv"),
        }
    )
    started = time.perf_counter()
    records = run_denoise_sweep(config)
    # drawn signals are unit norm, so rre is the absolute recovery error
    covered = sum(1 for r in records if r.rre <= r.theorem_bound)
    assert covered >= 0.95 * len(records)
    assert time.perf_counter() - started < 300.0


def test_10_deterministic_bound_not_denoising(sparse_sweep):
    """The fixed-draw corollary bound grows with m even as measured rre falls."""
    records = sparse_sweep["records"]
    grid = sparse_sweep["grid"]
    for sigma in (0.25, 1.0):
        bounds = [_cell_geo_mean(records, "corollary_bound", m, sigma) for m in grid]
        for lo, hi in itertools.pairwise(bounds):
            assert hi >= lo
        curve = _rre_curve(sparse_sweep["agg"], "optimized", grid, sigma)
        assert curve[-1][1] < 0.5 * curve[0][1]
    lines = sparse_sweep["csv"].read_text().splitlines()
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    column = CSV_HEADER.split(",").index("corollary_bound")
    assert float(first[column]) == pytest.approx(records[0].corollary_bound, rel=1e-12)


def test_11_two_stage_solver_matches_oracle():
    """n=16, k=2, 200 trials: same support >= 95%, objective within 1.1x always."""
    started = time.perf_counter()
    n, k, m, sigma, trials = 16, 2, 40, 0.05, 200
    op = make_dft_operator(n)
    plan = optimized_probabilities(sparse_coherence_vector(op, min(2 * k, n)))
    eye = np.eye(n)
    union = SubspaceUnion(
        [Subspace(eye[:, list(pair)]) for pair in itertools.combinations(range(n), 2)]
    )
    matches = 0
    for trial in range(trials):
        streams = trial_streams(99, 0, trial)
        x0 = np.zeros(n)
        support = streams.signal.choice(n, size=k, replace=False)
        x0[support] = (2.0 * streams.signal.integers(0, 2, size=k) - 1.0) / math.sqrt(k)
        sample = draw_sample(plan, m, streams.draw)
        measured = simulate_measurements(op, sample, x0, sigma, seed=streams.noise)
        A = SampledOperator(op, sample)
        two_stage = recover_sparse_two_stage(A, measured, k)
        oracle = recover_oracle(A, measured, union)
        lhs = frozenset(map(int, np.flatnonzero(np.abs(two_stage.x_hat) > 1e-12)))
        rhs = frozenset(map(int, np.flatnonzero(np.abs(oracle.x_hat) > 1e-12)))
        matches += lhs == rhs
        assert two_stage.objective <= 1.1 * oracle.objective + 1e-15
    assert matches >= 0.95 * trials
    assert time.perf_counter() - started < 60.0


def test_12_noise_scale_linearity(tmp_path_factory):
    """Doubling sigma at fixed post-transition m scales geo-mean rre by 1.5x to 2.5x."""
    out = tmp_path_factory.mktemp("linearity") / "sweep.csv"
    config = ExperimentConfig(
        {
            "prior": "sparse",
            "n": 1024,
            "sparse_k": 10,
            "measurement": "dft",
            "sparsity": "haar",
            "sparsity_levels": 5,
            "m_grid": "4096",
            "sigma_grid": "1.0,2.0",
            "trials": 40,
            "master_seed": 1,
            "out": str(out),
        }
    )
    agg = aggregate_geometric(run_denoise_sweep(config))
    factor = agg[("optimized", 4096, 2.0)]["geo_mean_rre"] / agg[("optimized", 4096, 1.0)]["geo_mean_rre"]
    assert 1.5 <= factor <= 2.5, f"factor {factor:.3f}"
