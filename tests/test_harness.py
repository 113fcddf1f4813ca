"""Experiment config parsing, seeded sweeps, aggregation, and image prep."""

import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import random_orthogonal

from vdslab import harness, recovery, sampling
from vdslab.harness import (
    _KEY_PARSERS,
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    aggregate_geometric,
    build_problem,
    compare_schemes,
    default_fit_window,
    fit_loglog_slope,
    parse_config_file,
    run_denoise_sweep,
    write_records_csv,
)
from vdslab.priors import (
    GenerativeNetwork,
    Subspace,
    SubspaceUnion,
    save_network,
    save_union,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _sparse_mapping(tmp_path, **overrides):
    mapping = {
        "prior": "sparse",
        "n": 64,
        "sparse_k": 3,
        "measurement": "dft",
        "m_grid": "32,96",
        "sigma_grid": "0.5",
        "trials": 2,
        "master_seed": 5,
        "out": str(tmp_path / "sweep.csv"),
    }
    mapping.update(overrides)
    return mapping


def _small_union(n, M, dim, seed):
    rng = _rng(seed)
    subs = []
    for _ in range(M):
        q = random_orthogonal(n, rng)[:, :dim]
        subs.append(Subspace(q))
    return SubspaceUnion(subs)


def _record(scheme="optimized", m=32, sigma=1.0, trial=0, rre=0.1):
    return ExperimentRecord(scheme, m, sigma, trial, 7, rre, 0.0, 1.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------- config file


def test_parse_config_file_comments_and_blanks(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# header\n\nprior = sparse\n  n=32  \n# tail\nsparse_k = 2\n")
    assert parse_config_file(path) == {"prior": "sparse", "n": "32", "sparse_k": "2"}


def test_parse_config_file_duplicate_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n = 32\nn = 64\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(path)


@pytest.mark.parametrize("line", ["just words", "n =", "= 32"])
def test_parse_config_file_malformed_line(tmp_path, line):
    path = tmp_path / "exp.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(path)


def test_config_from_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "prior = sparse\nn = 64\nsparse_k = 3\nmeasurement = dft\n"
        "m_grid = 16,32\nsigma_grid = 0.25,1.0\nrecord_timing = true\n"
    )
    cfg = ExperimentConfig(parse_config_file(path))
    assert cfg.m_grid == (16, 32)
    assert cfg.sigma_grid == (0.25, 1.0)
    assert cfg.record_timing is True


# ---------------------------------------------------------------- config validation


def test_config_defaults(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path))
    assert cfg.scheme == "optimized"
    assert cfg.sparsity == "none"
    assert cfg.record_timing is False
    assert cfg.bound_delta == 0.05
    assert cfg.coherence_latents == 256


def test_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig(_sparse_mapping(tmp_path, typo_key="1"))


def test_config_bad_value(tmp_path):
    with pytest.raises(ConfigError, match="bad value for 'n'"):
        ExperimentConfig(_sparse_mapping(tmp_path, n="sixty four"))


def test_config_integer_keys_reject_fractions(tmp_path):
    """A library caller's fraction for an integer key is an error, as it is in a config file;
    NumPy integers pass."""
    for key, value in (("n", 1024.7), ("sparse_k", 10.9), ("m_grid", (40.5, 80.2)), ("trials", 2.99)):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            ExperimentConfig(_sparse_mapping(tmp_path, **{key: value}))
    cfg = ExperimentConfig(_sparse_mapping(tmp_path, n=np.int64(64), m_grid=(np.int32(16), 32)))
    assert (cfg.n, cfg.m_grid) == (64, (16, 32))


@pytest.mark.parametrize(
    "key, value",
    [
        ("record_timing", math.nan),
        ("record_timing", 0.5),
        ("record_timing", [0]),
        ("record_timing", 1),
        ("sigma", True),
        ("bound_delta", np.bool_(True)),
        ("sigma_grid", (0.5, True)),
        ("n", True),
        ("m_grid", (True, 64)),
    ],
)
def test_config_library_values_get_the_file_checks(tmp_path, key, value):
    """Only a bool is a bool, no bool is a number, and each mismatch is a bad value
    as the same text in a config file is."""
    with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
        ExperimentConfig(_sparse_mapping(tmp_path, **{key: value}))


def test_readme_config_table_names_every_key():
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("### Config keys", 1)[1]
    table = itertools.takewhile(lambda line: line.startswith("|"), section.strip().splitlines())
    names = {name for row in table for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert names == set(_KEY_PARSERS)


def test_readme_example_config_parses(tmp_path):
    """The README's sweep config is a valid config file as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "exp.cfg"
    path.write_text(blocks[0])
    config = ExperimentConfig(parse_config_file(path))
    assert config.sparsity == "haar"


def test_config_bad_bool(tmp_path):
    with pytest.raises(ConfigError, match="record_timing"):
        ExperimentConfig(_sparse_mapping(tmp_path, record_timing="yes"))


def test_config_solver_must_match_prior(tmp_path):
    with pytest.raises(ConfigError, match="solver"):
        ExperimentConfig(_sparse_mapping(tmp_path, solver="oracle"))


def test_config_solver_keys_must_fit_solver(tmp_path):
    """Solver settings are the solvers' keyword arguments, not config keys."""
    with pytest.raises(ConfigError, match=r"unknown config keys: \['solver_restarts'\]"):
        ExperimentConfig(_sparse_mapping(tmp_path, solver_restarts=4))


def test_config_sparse_requires_n_and_k(tmp_path):
    mapping = _sparse_mapping(tmp_path)
    del mapping["sparse_k"]
    with pytest.raises(ConfigError, match="sparse_k"):
        ExperimentConfig(mapping)


def test_config_union_file_must_exist(tmp_path):
    mapping = {
        "prior": "union",
        "union_file": str(tmp_path / "missing.vdsu"),
        "measurement": "dft",
        "out": str(tmp_path / "x.csv"),
    }
    with pytest.raises(ConfigError, match="does not exist"):
        ExperimentConfig(mapping)


def test_config_haar_needs_levels(tmp_path):
    with pytest.raises(ConfigError, match="measurement_levels"):
        ExperimentConfig(_sparse_mapping(tmp_path, measurement="haar"))


def test_config_sparsity_only_for_sparse_prior(tmp_path):
    union = _small_union(16, 2, 2, seed=0)
    upath = tmp_path / "u.vdsu"
    save_union(union, upath)
    mapping = {
        "prior": "union",
        "union_file": str(upath),
        "measurement": "dft",
        "sparsity": "haar",
        "sparsity_levels": 2,
    }
    with pytest.raises(ConfigError, match="sparse prior only"):
        ExperimentConfig(mapping)


def test_config_sparsity_basis_must_be_real(tmp_path):
    """A DFT sparsity basis has no conjugate-row permutation, so the sparse step would only be a bound."""
    with pytest.raises(ConfigError, match="sparsity must be one of"):
        ExperimentConfig(_sparse_mapping(tmp_path, sparsity="dft"))


def test_config_custom_scheme_needs_plan(tmp_path):
    with pytest.raises(ConfigError, match="plan_file"):
        ExperimentConfig(_sparse_mapping(tmp_path, scheme="custom"))


def test_config_empty_grid(tmp_path):
    with pytest.raises(ConfigError, match="non-empty"):
        ExperimentConfig(_sparse_mapping(tmp_path, m_grid=","))


def test_config_nonpositive_m(tmp_path):
    with pytest.raises(ConfigError, match="m_grid"):
        ExperimentConfig(_sparse_mapping(tmp_path, m_grid="0,16"))


@pytest.mark.parametrize("grid", ["-0.5,1.0", "0.5,nan"])
def test_config_negative_or_nan_sigma_grid(tmp_path, grid):
    with pytest.raises(ConfigError, match="sigma_grid"):
        ExperimentConfig(_sparse_mapping(tmp_path, sigma_grid=grid))


def test_config_bad_delta(tmp_path):
    with pytest.raises(ConfigError, match="bound_delta"):
        ExperimentConfig(_sparse_mapping(tmp_path, bound_delta="1.5"))


def test_config_n_mismatch_with_prior_file(tmp_path):
    upath = tmp_path / "u.vdsu"
    save_union(_small_union(16, 2, 2, seed=1), upath)
    cfg = ExperimentConfig(
        {"prior": "union", "union_file": str(upath), "measurement": "dft", "n": 32}
    )
    with pytest.raises(ConfigError, match="dimension"):
        build_problem(cfg)


def test_config_k_exceeding_n_caught_at_build(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path, sparse_k=100))
    with pytest.raises(ConfigError, match="sparse_k"):
        build_problem(cfg)


def test_config_manifest_items_are_strings(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path, bound_delta="0.1", sigma_grid="0.1,0.5,2"))
    items = dict(cfg.resolved_items())
    assert items["trials"] == "2"
    assert items["record_timing"] == "false"
    assert items["bound_delta"] == "0.10000000000000001"
    assert items["sigma_grid"] == "0.10000000000000001,0.5,2"
    assert items["m_grid"] == "32,96"
    assert "solver" not in items  # the solver follows the prior; the manifest does not echo it


# ---------------------------------------------------------------- build_problem


def test_build_problem_sparse_dft_flat_coherence(tmp_path):
    problem = build_problem(ExperimentConfig(_sparse_mapping(tmp_path)))
    assert problem.n == 64
    assert np.allclose(problem.alpha, math.sqrt(6 / 64), atol=1e-12)
    assert problem.max_dim == 6  # min(2k, n)
    assert problem.log_subspace_count == pytest.approx(6 * math.log(math.e * 64 / 6))


def test_build_problem_union_uses_difference_set(tmp_path):
    upath = tmp_path / "u.vdsu"
    save_union(_small_union(16, 3, 2, seed=2), upath)
    cfg = ExperimentConfig(
        {"prior": "union", "union_file": str(upath), "measurement": "dft"}
    )
    problem = build_problem(cfg)
    assert problem.max_dim == 4  # generic pairwise spans double the dimension
    assert problem.log_subspace_count == pytest.approx(math.log(6))  # M(M+1)/2


def test_build_problem_generative(tmp_path):
    rng = _rng(3)
    net = GenerativeNetwork(
        [rng.standard_normal((8, 2)), rng.standard_normal((16, 8))]
    )
    npath = tmp_path / "g.vdsg"
    save_network(net, npath)
    cfg = ExperimentConfig(
        {
            "prior": "generative",
            "network_file": str(npath),
            "measurement": "dft",
            "coherence_latents": 64,
        }
    )
    problem = build_problem(cfg)
    assert problem.max_dim == 4  # min(2k, n)
    assert problem.alpha.shape == (16,)
    assert np.all(problem.alpha >= 0)


# ---------------------------------------------------------------- sweeps


def test_sweep_noiseless_oversampled_recovers(tmp_path):
    cfg = ExperimentConfig(
        _sparse_mapping(tmp_path, m_grid="256", sigma_grid="0.0", trials=1)
    )
    records = run_denoise_sweep(cfg)
    assert len(records) == 1
    assert records[0].rre <= 1e-6
    assert records[0].wall_time_ms == 0.0


def test_sweep_rerun_is_bit_identical(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path))
    run_denoise_sweep(cfg)
    first = (tmp_path / "sweep.csv").read_bytes()
    run_denoise_sweep(cfg)
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_failed_trial_warns_and_keeps_nan_row(tmp_path, monkeypatch):
    def failing_solver(*args, **kwargs):
        raise FloatingPointError("step size overflowed")

    monkeypatch.setattr(harness, "recover_sparse_two_stage", failing_solver)
    cfg = ExperimentConfig(_sparse_mapping(tmp_path, m_grid="32", trials=1))
    with pytest.warns(RuntimeWarning, match="FloatingPointError: step size overflowed") as caught:
        records = run_denoise_sweep(cfg)
    assert len(caught) == 1 and "m=32" in str(caught[0].message)
    assert len(records) == 1
    assert math.isnan(records[0].rre) and math.isnan(records[0].objective)
    assert math.isfinite(records[0].theorem_bound)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].split(",")[5:7] == ["nan", "nan"]


def _zero_coherence_union_config(tmp_path):
    """Union {span(e0,e1), span(e2,e3)} at n=64 under a 0-level Haar, uniform, m=4: the draw
    meets rows of zero coherence, so neither the noise factor nor the corollary bound exists."""
    eye = np.eye(64)
    upath = tmp_path / "u.vdsu"
    save_union(SubspaceUnion([Subspace(eye[:, :2]), Subspace(eye[:, 2:4])]), upath)
    return ExperimentConfig(
        {
            "prior": "union",
            "union_file": str(upath),
            "measurement": "haar",
            "measurement_levels": 0,
            "scheme": "uniform",
            "m_grid": "4",
            "sigma_grid": "1.0",
            "trials": 1,
            "out": str(tmp_path / "u.csv"),
        }
    )


def test_undefined_noise_factor_warns_and_keeps_row(tmp_path):
    """A draw whose (n/m) sum d~^2 alpha^2 is below 1 has no noise factor: the sweep keeps the
    row with NaN noise_factor and theorem_bound and warns with the cell, instead of aborting."""
    cfg = _zero_coherence_union_config(tmp_path)
    with pytest.warns(RuntimeWarning) as caught:  # the corollary bound warns too
        records = run_denoise_sweep(cfg)
    noise = [str(w.message) for w in caught if "noise factor undefined" in str(w.message)]
    assert len(noise) == 1 and "cannot unit-truncate" in noise[0]
    assert "scheme=uniform m=4 sigma=1.0 trial=0" in noise[0]
    assert len(records) == 1
    assert math.isnan(records[0].noise_factor) and math.isnan(records[0].theorem_bound)
    assert math.isfinite(records[0].rre)
    lines = (tmp_path / "u.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[7:9] == ["nan", "nan"]


def test_undefined_corollary_bound_warns_and_keeps_row(tmp_path):
    """A drawn row of zero coherence leaves the corollary bound undefined: the row keeps a NaN
    corollary_bound, and a warning names the cell and the reason."""
    cfg = _zero_coherence_union_config(tmp_path)
    with pytest.warns(RuntimeWarning) as caught:
        records = run_denoise_sweep(cfg)
    corollary = [str(w.message) for w in caught if "corollary bound undefined" in str(w.message)]
    assert len(corollary) == 1
    assert "scheme=uniform m=4 sigma=1.0 trial=0" in corollary[0]
    assert "positive coherence" in corollary[0]
    assert len(records) == 1 and math.isnan(records[0].corollary_bound)
    assert math.isfinite(records[0].rre)


def test_sweep_rows_do_not_depend_on_the_last_bits_of_alpha(tmp_path):
    """Rows follow alpha's value: moving every coherence by up to 4 ulps (DFT2 on Haar2, where
    many coherences tie in exact arithmetic) changes no column by more than rounding."""
    cfg = ExperimentConfig(
        {
            "prior": "sparse",
            "n": 32 * 32,
            "sparse_k": 10,
            "measurement": "dft2",
            "sparsity": "haar2",
            "sparsity_levels": 3,
            "scheme": "both",
            "m_grid": "256,512",
            "sigma_grid": "0.5",
            "trials": 1,
            "out": str(tmp_path / "c.csv"),
        }
    )
    problem = build_problem(cfg)
    alpha = problem.alpha
    scale = 1.0 + _rng(31).integers(-4, 5, size=alpha.size) * np.finfo(np.float64).eps
    perturbed = dataclasses.replace(problem, alpha=alpha * scale)
    assert not np.array_equal(perturbed.alpha, alpha)
    schemes = ["optimized", "uniform"]
    for base, moved in zip(harness._sweep(problem, cfg, schemes), harness._sweep(perturbed, cfg, schemes)):
        for name in ("rre", "objective", "noise_factor", "theorem_bound", "corollary_bound"):
            assert getattr(moved, name) == pytest.approx(getattr(base, name), rel=1e-9, abs=0), name


def test_noise_factor_computed_once_per_trial(tmp_path, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return sampling.noise_factor(*args)

    # count calls through every module that imports the function by name
    for module in (harness, recovery):
        if getattr(module, "noise_factor", None) is sampling.noise_factor:
            monkeypatch.setattr(module, "noise_factor", counting)
    records = run_denoise_sweep(ExperimentConfig(_sparse_mapping(tmp_path, m_grid="32", trials=3)))
    assert len(calls) == len(records) == 3


def test_sweep_csv_layout(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path))
    records = run_denoise_sweep(cfg)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # the header follows ExperimentRecord's fields; its text is part of the output format
    assert CSV_HEADER == (
        "scheme,m,sigma,trial,seed,rre,objective,noise_factor,theorem_bound,corollary_bound,wall_time_ms"
    )
    assert len(lines) == 1 + len(records) == 1 + 2 * 2
    assert lines[1].split(",")[0] == "optimized"
    assert (tmp_path / "sweep.csv.manifest").exists()


def test_sweep_master_seed_changes_results(tmp_path):
    base = run_denoise_sweep(ExperimentConfig(_sparse_mapping(tmp_path)))
    other = run_denoise_sweep(
        ExperimentConfig(_sparse_mapping(tmp_path, master_seed=6))
    )
    assert [r.rre for r in base] != [r.rre for r in other]


def test_sweep_record_timing(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path, record_timing="true"))
    records = run_denoise_sweep(cfg)
    assert all(r.wall_time_ms > 0.0 for r in records)


def test_sweep_rejects_both_scheme(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path, scheme="both"))
    with pytest.raises(ConfigError, match="compare_schemes"):
        run_denoise_sweep(cfg)


def test_sweep_union_prior(tmp_path):
    upath = tmp_path / "u.vdsu"
    save_union(_small_union(32, 3, 2, seed=4), upath)
    cfg = ExperimentConfig(
        {
            "prior": "union",
            "union_file": str(upath),
            "measurement": "dft",
            "m_grid": "128",
            "sigma_grid": "0.0",
            "trials": 2,
            "out": str(tmp_path / "u.csv"),
        }
    )
    records = run_denoise_sweep(cfg)
    assert all(r.rre <= 1e-8 for r in records)


def test_sweep_generative_prior(tmp_path):
    rng = _rng(9)
    net = GenerativeNetwork(
        [rng.standard_normal((8, 2)), rng.standard_normal((32, 8))]
    )
    npath = tmp_path / "g.vdsg"
    save_network(net, npath)
    cfg = ExperimentConfig(
        {
            "prior": "generative",
            "network_file": str(npath),
            "measurement": "dft",
            "m_grid": "32",
            "sigma_grid": "0.0",
            "trials": 2,
            "coherence_latents": 64,
            "out": str(tmp_path / "g.csv"),
        }
    )
    records = run_denoise_sweep(cfg)
    # nonconvex descent lands near, not on, the noiseless optimum
    assert all(r.rre <= 5e-2 for r in records)
    assert min(r.rre for r in records) <= 1e-3


def test_sweep_haar_sparsity_basis(tmp_path):
    cfg = ExperimentConfig(
        _sparse_mapping(
            tmp_path,
            sparsity="haar",
            sparsity_levels=3,
            m_grid="256",
            sigma_grid="0.0",
            trials=1,
        )
    )
    records = run_denoise_sweep(cfg)
    assert records[0].rre <= 1e-6


# ---------------------------------------------------------------- compare_schemes


def test_compare_requires_both(tmp_path):
    cfg = ExperimentConfig(_sparse_mapping(tmp_path))
    with pytest.raises(ConfigError, match="both"):
        compare_schemes(cfg)


def test_compare_pairs_common_random_numbers(tmp_path):
    cfg = ExperimentConfig(
        _sparse_mapping(tmp_path, scheme="both", m_grid="96", trials=3)
    )
    pair = compare_schemes(cfg)
    assert len(pair["optimized"]) == len(pair["uniform"]) == 3
    for opt, uni in zip(pair["optimized"], pair["uniform"]):
        assert opt.trial == uni.trial
        assert opt.seed == uni.seed


def test_compare_halves_match_standalone_sweeps(tmp_path):
    # the scheme stays out of the seed derivation, so each half of a paired
    # run reproduces the records of a standalone sweep of that scheme
    pair = compare_schemes(
        ExperimentConfig(
            _sparse_mapping(tmp_path, scheme="both", out=str(tmp_path / "cmp.csv"))
        )
    )
    solo_opt = run_denoise_sweep(
        ExperimentConfig(_sparse_mapping(tmp_path, out=str(tmp_path / "opt.csv")))
    )
    solo_uni = run_denoise_sweep(
        ExperimentConfig(
            _sparse_mapping(tmp_path, scheme="uniform", out=str(tmp_path / "uni.csv"))
        )
    )
    assert pair["optimized"] == solo_opt
    assert pair["uniform"] == solo_uni


def test_compare_noiseless_both_schemes_recover(tmp_path):
    cfg = ExperimentConfig(
        _sparse_mapping(tmp_path, scheme="both", m_grid="256", sigma_grid="0.0")
    )
    pair = compare_schemes(cfg)
    for records in pair.values():
        assert all(r.rre <= 1e-6 for r in records)


def test_compare_flat_coherence_statistically_indistinguishable(tmp_path):
    # canonical sparsity under the DFT has flat coherence, so the optimized
    # plan is uniform up to fp noise and the paired curves should only differ
    # by which rows each scheme happened to draw
    cfg = ExperimentConfig(
        _sparse_mapping(
            tmp_path, scheme="both", m_grid="48,96", sigma_grid="0.5",
            trials=20, master_seed=8,
        )
    )
    pair = compare_schemes(cfg)
    agg = aggregate_geometric(pair["optimized"] + pair["uniform"])
    for m in (48, 96):
        ratio = (
            agg[("optimized", m, 0.5)]["geo_mean_rre"]
            / agg[("uniform", m, 0.5)]["geo_mean_rre"]
        )
        assert 0.75 <= ratio <= 1.33


# ---------------------------------------------------------------- aggregation


def test_aggregate_constant_cell():
    records = [_record(trial=t, rre=0.3) for t in range(3)]
    cell = aggregate_geometric(records)[("optimized", 32, 1.0)]
    assert cell["geo_mean_rre"] == pytest.approx(0.3, rel=1e-12)
    assert cell["geo_std_error"] == pytest.approx(1.0, abs=1e-12)
    assert cell["trials"] == 3
    assert cell["clamped"] == 0


def test_aggregate_geometric_mean_and_spread():
    records = [_record(trial=0, rre=1.0), _record(trial=1, rre=4.0)]
    cell = aggregate_geometric(records)[("optimized", 32, 1.0)]
    assert cell["geo_mean_rre"] == pytest.approx(2.0, rel=1e-12)
    assert cell["geo_std_error"] == pytest.approx(
        math.exp(math.log(2.0) / math.sqrt(2.0)), rel=1e-12
    )


def test_aggregate_unit_spread_example():
    records = [_record(trial=0, rre=1.0), _record(trial=1, rre=math.e**2)]
    cell = aggregate_geometric(records)[("optimized", 32, 1.0)]
    assert cell["geo_std_error"] == pytest.approx(math.exp(1 / math.sqrt(2)), rel=1e-12)


def test_aggregate_clamps_zero_errors():
    records = [_record(trial=0, rre=0.0), _record(trial=1, rre=1e-15)]
    cell = aggregate_geometric(records)[("optimized", 32, 1.0)]
    assert cell["clamped"] == 1
    assert cell["geo_mean_rre"] == pytest.approx(1e-15, rel=1e-9)


def test_aggregate_drops_failed_trials():
    records = [_record(trial=0, rre=0.5), _record(trial=1, rre=float("nan"))]
    cell = aggregate_geometric(records)[("optimized", 32, 1.0)]
    assert cell["trials"] == 1
    assert cell["geo_mean_rre"] == pytest.approx(0.5)


def test_aggregate_empty_inputs():
    with pytest.raises(ValueError, match="no records"):
        aggregate_geometric([])
    with pytest.raises(ValueError, match="no usable"):
        aggregate_geometric([_record(rre=float("nan"))])


def test_aggregate_groups_by_cell_and_scheme():
    records = [
        _record(scheme="optimized", m=16, rre=0.1),
        _record(scheme="uniform", m=16, rre=0.2),
        _record(scheme="optimized", m=32, rre=0.3),
    ]
    agg = aggregate_geometric(records)
    assert set(agg) == {
        ("optimized", 16, 1.0),
        ("uniform", 16, 1.0),
        ("optimized", 32, 1.0),
    }


# ---------------------------------------------------------------- slope fits


def test_fit_slope_exact_inverse_sqrt():
    points = [(m, 3.0 / math.sqrt(m)) for m in (16, 32, 64, 128, 256)]
    fit = fit_loglog_slope(points, (16, 256))
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_slope_constant_is_flat():
    points = [(m, 0.7) for m in (16, 32, 64)]
    assert fit_loglog_slope(points, (16, 64))["slope"] == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_window_excludes_points():
    points = [(8, 100.0), (16, 1.0), (32, 1 / math.sqrt(2)), (64, 0.5), (1024, 9.0)]
    fit = fit_loglog_slope(points, (16, 64))
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)


def test_fit_slope_needs_two_points():
    with pytest.raises(ValueError, match="two points"):
        fit_loglog_slope([(16, 1.0), (32, 0.5)], (20, 30))


def test_fit_slope_recovers_noisy_exponent():
    m_grid = [2**j for j in range(4, 11)]
    for seed in range(20):
        rng = _rng(seed)
        points = [
            (m, m**-0.53 * math.exp(0.05 * rng.standard_normal())) for m in m_grid
        ]
        slope = fit_loglog_slope(points, (m_grid[0], m_grid[-1]))["slope"]
        assert -0.58 <= slope <= -0.48


def test_default_fit_window_finds_transition():
    points = [(8, 1.0), (16, 0.9), (32, 0.4), (64, 0.2), (128, 0.1)]
    assert default_fit_window(points) == (128, 128)


def test_default_fit_window_no_drop_falls_back():
    points = [(8, 1.0), (16, 0.9), (32, 0.8)]
    assert default_fit_window(points) == (32, 32)


def test_default_fit_window_empty():
    with pytest.raises(ValueError, match="no points"):
        default_fit_window([])


# ---------------------------------------------------------------- records csv


def test_write_records_csv_formats(tmp_path):
    path = tmp_path / "r.csv"
    write_records_csv([_record(rre=0.25)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[:6] == ["optimized", "32", "1", "0", "7", "0.25"]


def test_write_records_csv_nan(tmp_path):
    path = tmp_path / "r.csv"
    write_records_csv([_record(rre=float("nan"))], path)
    assert path.read_text().splitlines()[1].split(",")[5] == "nan"
