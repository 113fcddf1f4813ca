"""Experiment config parsing, seeded sweeps, aggregation, and image prep."""

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_orthogonal, spawned_trial_streams

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
    run_single_trial,
    trial_streams,
    write_records_csv,
)
from vdslab.priors import (
    GenerativeNetwork,
    Subspace,
    SubspaceUnion,
    save_network,
    save_union,
)
from vdslab.sampling import save_plan_csv, uniform_plan
from vdslab.transforms import _haar_bands


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
        ("sigma", Fraction(1, 2)),  # its text 1/2 is no config-file number
    ],
)
def test_config_library_values_get_the_file_checks(tmp_path, key, value):
    """Only a bool is a bool, no bool is a number, and each mismatch is a bad value
    as the same text in a config file is."""
    with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
        ExperimentConfig(_sparse_mapping(tmp_path, **{key: value}))


def test_config_library_values_resolve_as_their_text(tmp_path):
    """For every key, a library caller's typed value resolves to the config of its text in a
    config file; np.float32(0.1) is read as 0.1, not as the float32's own value."""
    upath, npath, ppath = tmp_path / "u.vdsu", tmp_path / "g.vdsg", tmp_path / "plan.csv"
    save_union(_small_union(64, 2, 2, seed=0), upath)
    save_network(GenerativeNetwork([_rng(1).standard_normal((64, 2))]), npath)
    save_plan_csv(uniform_plan(64), ppath)
    union = {"prior": "union", "union_file": str(upath)}
    network = {"prior": "generative", "network_file": str(npath)}
    cases = [  # (overrides of the sparse mapping, key, typed value, its text)
        ({}, "prior", np.str_("sparse"), "sparse"),
        ({}, "n", np.int64(64), "64"),
        ({}, "measurement", np.str_("dft2"), "dft2"),
        ({"measurement": "haar"}, "measurement_levels", np.uint8(2), "2"),
        ({"sparsity_levels": 2}, "sparsity", np.str_("haar"), "haar"),
        ({"sparsity": "haar"}, "sparsity_levels", np.int32(3), "3"),
        ({}, "sparse_k", np.int16(3), "3"),
        (union, "union_file", upath, str(upath)),
        (network, "network_file", npath, str(npath)),
        ({}, "scheme", np.str_("uniform"), "uniform"),
        ({"scheme": "custom"}, "plan_file", ppath, str(ppath)),
        ({}, "m_grid", np.array([16, 32]), "16,32"),
        ({}, "m_grid", (np.int16(16), 32), "16,32"),
        ({}, "m_grid", np.int64(64), "64"),
        ({}, "sigma_grid", (0.25, np.float64(1e-3)), "0.25,0.001"),
        ({}, "sigma_grid", np.array([0.5, 2.0]), "0.5,2.0"),
        ({}, "sigma_grid", 0.5, "0.5"),
        ({}, "m", np.int64(40), "40"),
        ({}, "sigma", np.float64(0.1), "0.1"),
        ({}, "sigma", np.float32(0.1), "0.1"),
        ({}, "trials", np.uint8(2), "2"),
        ({}, "master_seed", 2**70 + 1, "1180591620717411303425"),
        ({}, "master_seed", np.uint64(2**64 - 1), "18446744073709551615"),
        ({}, "out", tmp_path / "sweep.csv", str(tmp_path / "sweep.csv")),
        ({}, "record_timing", True, "true"),
        ({}, "record_timing", np.bool_(False), "false"),
        ({}, "bound_delta", np.float64(0.01), "0.01"),
        ({}, "coherence_latents", np.int64(8), "8"),
    ]
    assert {key for _, key, _, _ in cases} == set(_KEY_PARSERS)
    for base, key, typed, text in cases:
        mapping = _sparse_mapping(tmp_path, **base)
        typed_items = ExperimentConfig({**mapping, key: typed}).resolved_items()
        assert typed_items == ExperimentConfig({**mapping, key: text}).resolved_items(), (key, typed)


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


@pytest.mark.parametrize(
    "key, grid",
    [("m_grid", "16,16"), ("m_grid", "16,32,16"), ("m_grid", (16, np.int64(16))), ("sigma_grid", "0.5,0.50")],
    ids=["twice", "apart", "typed", "as_parsed"],
)
def test_config_repeated_grid_value(tmp_path, key, grid):
    """A repeated grid value would give two rows one (scheme, m, sigma, trial); values compare as
    parsed, so 0.5 and 0.50 are one value."""
    with pytest.raises(ConfigError, match=f"{key} repeats a value"):
        ExperimentConfig(_sparse_mapping(tmp_path, **{key: grid}))


def test_config_nonpositive_m(tmp_path):
    with pytest.raises(ConfigError, match="m_grid"):
        ExperimentConfig(_sparse_mapping(tmp_path, m_grid="0,16"))


@pytest.mark.parametrize("grid", ["-0.5,1.0", "0.5,nan", "0.5,inf"])
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


@pytest.mark.parametrize("n", [32, 1024])
def test_support_weights_follow_the_haar_bands(tmp_path, n):
    """A sparse prior over a Haar basis draws supports with one weight per ``_haar_bands`` band,
    band b carrying 2^-b of the approximation band's mass."""
    for levels in range(n.bit_length()):  # every depth whose 2**levels divides n
        starts, sizes = _haar_bands(n, levels)
        weights = harness._octave_band_weights(n, levels)
        bands = np.split(weights, starts[1:])
        assert [len(band) for band in bands] == list(sizes)
        assert all(np.all(band == band[0]) for band in bands)
        mass = np.array([band.sum() for band in bands])
        np.testing.assert_allclose(mass / mass[0], 0.5 ** np.arange(len(sizes)), rtol=1e-13)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)
        config = _sparse_mapping(tmp_path, n=n, sparsity="haar", sparsity_levels=levels)
        assert np.array_equal(build_problem(ExperimentConfig(config)).support_weights, weights)


def test_image_support_weights_are_the_outer_product_of_the_side_weights(tmp_path):
    side = 32
    for levels in range(side.bit_length()):
        one_dim = harness._octave_band_weights(side, levels)
        config = _sparse_mapping(
            tmp_path, n=side * side, measurement="dft2", sparsity="haar2", sparsity_levels=levels
        )
        got = build_problem(ExperimentConfig(config)).support_weights
        assert np.array_equal(got, np.outer(one_dim, one_dim).ravel())


def _image_mapping(tmp_path, side):
    """The compare_image_2d problem at ``side``: dft2 over a 3-level haar2 basis, k = 40."""
    return _sparse_mapping(
        tmp_path, n=side * side, sparse_k=40, measurement="dft2", sparsity="haar2", sparsity_levels=3
    )


def test_build_problem_side_64_image_peak_memory(tmp_path):
    """A side-64 image problem builds in under 16 MB: its dense complex matrix alone is 268 MB."""
    config = ExperimentConfig(_image_mapping(tmp_path, 64))
    tracemalloc.start()
    try:
        build_problem(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_build_problem_side_128_image(tmp_path):
    """A side-128 image problem builds, though its dense complex matrix alone would be 4.3 GB.
    The DC row meets only the 256 approximation wavelets, each at |A_0k|^2 = 4^3 / n = 1/256,
    so its coherence against 2k = 80-sparse vectors is sqrt(80/256)."""
    problem = build_problem(ExperimentConfig(_image_mapping(tmp_path, 128)))
    assert problem.alpha.shape == (128 * 128,)
    assert problem.alpha[0] == pytest.approx(math.sqrt(80 / 256), rel=1e-12)
    assert np.all(problem.alpha > 0) and np.all(problem.alpha <= 1 + 1e-12)


def test_sparse_trial_transient_memory(tmp_path):
    """One trial of the 1-D sparse sweep (n = 1024, a DFT over a 5-level Haar basis, k = 10) at
    m = 512 peaks under 400 KB of tracemalloc: HTP's refits gather their support columns. Pushing
    the k unit columns through the Haar synthesis and an FFT instead peaked at about 550 KB."""
    config = ExperimentConfig(
        _sparse_mapping(tmp_path, n=1024, sparse_k=10, sparsity="haar", sparsity_levels=5, m_grid="512")
    )
    problem = build_problem(config)
    plan = harness._plan_for(problem, config, "optimized")

    def run(trial):
        streams = trial_streams(1, 0, trial)
        return harness._run_trial(problem, plan, config, "optimized", 512, 0.5, trial, streams)

    run(0)  # the tables kept by the plan and the operator, and the FFT's plans, are made once
    tracemalloc.start()
    try:
        _, outcome, _, _ = run(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(outcome, recovery.RecoveryResult)
    assert peak < 400e3


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


def _same_streams(got, want):
    """Equal seed ids and solver seeds, and equal first draws from each generator."""
    assert (got.seed_id, got.solver_seed) == (want.seed_id, want.solver_seed)
    for name in ("signal", "draw", "noise"):
        assert np.array_equal(getattr(got, name).random(5), getattr(want, name).random(5)), name


_INDEX = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(
    master=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 3 * 2**128 + 11]),
    pairs=st.lists(st.tuples(_INDEX, _INDEX), min_size=1, max_size=6),
)
@example(master=2**256 + 3, pairs=[(0, 0), (31, 2**32 - 1)])  # a 9-word seed: more words than the pool
def test_batched_stream_keys_match_spawned_seed_sequences(master, pairs):
    """Every row of one batched key derivation, and trial_streams on each pair, gives the
    streams of SeedSequence(master, spawn_key=(cell, trial)).spawn(4), bitwise, and the
    uint32 wraparound raises no warning."""
    cells, trials = zip(*pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = harness._stream_keys(master, cells, trials)
        single = [trial_streams(master, cell, trial) for cell, trial in pairs]
    for row, one, (cell, trial) in zip(rows, single, pairs):
        _same_streams(harness._streams(row), spawned_trial_streams(master, cell, trial))
        _same_streams(one, spawned_trial_streams(master, cell, trial))


def test_trial_streams_pinned_values():
    """Values of the per-trial SeedSequence derivation, recorded before the batched one."""
    streams = trial_streams(1, 0, 0)
    assert streams.seed_id == 6651666526363356749
    assert streams.solver_seed == 4239756835503100592
    assert streams.signal.random() == 0.005955125846738629
    assert streams.draw.random() == 0.2912097957617924
    assert streams.noise.random() == 0.2831574512314643
    assert trial_streams(2**32, 31, 1).seed_id == 637512750616579297


@pytest.mark.parametrize(
    "master, cell, trial",
    [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 2**32, 0), (0, 0, 2**32)],
)
def test_trial_streams_reject_negative_or_wide_indices(master, cell, trial):
    with pytest.raises(ValueError):
        trial_streams(master, cell, trial)


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


def _generative_mapping(tmp_path):
    """A (2, 8, 32) net on a 32-point DFT: 18 trials, so two stacked blocks."""
    rng = _rng(9)
    npath = tmp_path / "g.vdsg"
    save_network(GenerativeNetwork([rng.standard_normal((8, 2)), rng.standard_normal((32, 8))]), npath)
    assert harness._STACK_TRIALS < 18
    return {
        "prior": "generative",
        "network_file": str(npath),
        "measurement": "dft",
        "m_grid": "16,24,32",
        "sigma_grid": "0.5",
        "trials": 6,
        "coherence_latents": 64,
        "out": str(tmp_path / "g.csv"),
    }


def _without_timing(record):
    return dataclasses.replace(record, wall_time_ms=0.0)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 8, so ``_generative_mapping``'s 18 trials run as blocks of 8, 8 and 2."""
    monkeypatch.setattr(harness, "_STACK_TRIALS", 8)


def test_block_size_moves_no_row(tmp_path, monkeypatch):
    """A generative sweep and a sparse sweep write the same rows bitwise, wall_time_ms aside,
    in blocks of 1, 7 or 64 trials: a block of 64 takes either sweep whole."""
    monkeypatch.setattr(harness, "_STACK_TRIALS", 1)
    configs = [
        ExperimentConfig(_generative_mapping(tmp_path)),
        ExperimentConfig(_sparse_mapping(tmp_path, trials=5)),
    ]
    rows = {}
    for size in (1, 7, 64):
        monkeypatch.setattr(harness, "_STACK_TRIALS", size)
        rows[size] = [[_without_timing(r) for r in run_denoise_sweep(cfg)] for cfg in configs]
    assert [len(records) for records in rows[1]] == [18, 10]
    assert rows[1] == rows[7] == rows[64]


def test_generative_sweep_call_peak_memory(tmp_path):
    """One benchmark-shaped generative sweep call, 64 trials on the (3, 16, 64) net in one block,
    peaks under 4 MB of tracemalloc: about 2.4 MB, against 0.9 MB in blocks of 16 and about
    9.6 MB for 256 trials in one block, so a block much above 64 trials breaks the pin."""
    rng = _rng(11)
    net = GenerativeNetwork(
        [rng.standard_normal((16, 3)) / math.sqrt(3), rng.standard_normal((64, 16)) / math.sqrt(16)]
    )
    save_network(net, tmp_path / "g.vdsg")
    m_grid = np.unique(np.round(np.geomspace(math.ceil(3 * math.log(64)), 2048, 16))).astype(int)
    config = ExperimentConfig(
        {
            "prior": "generative",
            "network_file": str(tmp_path / "g.vdsg"),
            "measurement": "dft",
            "coherence_latents": 256,
            "m_grid": ",".join(map(str, m_grid)),
            "sigma_grid": "0.5,2.0",
            "trials": 2,
            "out": str(tmp_path / "g.csv"),
        }
    )
    problem = build_problem(config)
    tracemalloc.start()
    try:
        records = harness._sweep(problem, config, ["optimized"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 64 <= harness._STACK_TRIALS
    assert peak < 4e6


@pytest.mark.parametrize(
    "fault, reason",
    [
        ("nan", "ValueError: latent descent met a non-finite objective"),
        ("raise", "FloatingPointError: overflow"),
    ],
)
@pytest.mark.usefixtures("small_blocks")
def test_generative_trial_fails_alone_in_its_block(tmp_path, monkeypatch, fault, reason):
    """A generative trial whose measurement is NaN, or raises, gets a NaN row and a warning that
    names its cell and the exception; every other row of its stacked block and of the next is
    the fault-free sweep's bitwise."""
    cfg = ExperimentConfig(_generative_mapping(tmp_path))
    clean = run_denoise_sweep(cfg)
    hit = []

    def faulty(F, sample, x0, sigma, seed):
        b = recovery.simulate_measurements(F, sample, x0, sigma, seed=seed)
        if sample.m != 24 or hit:
            return b
        hit.append(sample.m)  # the first trial at m = 24 only
        if fault == "raise":
            raise FloatingPointError("overflow")
        return np.full_like(b, np.nan)

    monkeypatch.setattr(harness, "simulate_measurements", faulty)
    with pytest.warns(RuntimeWarning) as caught:
        records = run_denoise_sweep(cfg)
    assert len(caught) == 1
    assert f"trial failed (scheme=optimized m=24 sigma=0.5 trial=0): {reason}" == str(caught[0].message)
    assert len(records) == len(clean) == 18
    for got, ref in zip(records, clean):
        if (got.m, got.trial) == (24, 0):
            assert math.isnan(got.rre) and math.isnan(got.objective)
            assert got.noise_factor == ref.noise_factor
        else:
            assert _without_timing(got) == _without_timing(ref)


def _union_mapping(tmp_path):
    """A union of three planes at n=32 on a 32-point DFT: 4 trials."""
    upath = tmp_path / "u.vdsu"
    save_union(_small_union(32, 3, 2, seed=4), upath)
    return {
        "prior": "union",
        "union_file": str(upath),
        "measurement": "dft",
        "m_grid": "24,48",
        "sigma_grid": "0.5",
        "trials": 2,
        "out": str(tmp_path / "u.csv"),
    }


_MAPPINGS = {"sparse": _sparse_mapping, "union": _union_mapping, "generative": _generative_mapping}


@pytest.mark.parametrize("prior", sorted(_MAPPINGS))
@pytest.mark.usefixtures("small_blocks")
def test_single_trial_is_the_sweeps_first_row(tmp_path, prior):
    """run_single_trial takes the sweep's path on one run, a block of one (so a network's trial is
    solved alone where the sweep stacks it), and writes the sweep's (cell 0, trial 0) row
    bitwise, wall_time_ms aside."""
    mapping = _MAPPINGS[prior](tmp_path)
    first = run_denoise_sweep(ExperimentConfig(mapping))[0]
    m, sigma = int(mapping["m_grid"].split(",")[0]), float(mapping["sigma_grid"].split(",")[0])
    single = run_single_trial(ExperimentConfig({**mapping, "m": m, "sigma": sigma}))
    assert (first.m, first.sigma, first.trial) == (m, sigma, 0)
    assert _without_timing(single) == _without_timing(first)


@pytest.mark.parametrize("prior", sorted(_MAPPINGS))
@pytest.mark.usefixtures("small_blocks")
def test_every_measurement_happens_inside_its_trial(tmp_path, monkeypatch, prior):
    """Every prior's trials go through ``_run_trial``, once per row and in row order, and each
    trial measures inside it, so a tracer rooted there sees every trial's measurement."""
    run_trial, simulate = harness._run_trial, harness.simulate_measurements
    depth, entered, inside, outside = [0], [], [], []

    def counted(*args, **kwargs):
        entered.append(args[3:7])  # (scheme, m, sigma, trial)
        depth[0] += 1
        try:
            return run_trial(*args, **kwargs)
        finally:
            depth[0] -= 1

    def spied(*args, **kwargs):
        (inside if depth[0] == 1 else outside).append(args[1].m)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_trial", counted)
    monkeypatch.setattr(harness, "simulate_measurements", spied)
    records = run_denoise_sweep(ExperimentConfig(_MAPPINGS[prior](tmp_path)))
    assert entered == [(r.scheme, r.m, r.sigma, r.trial) for r in records]
    assert outside == []
    assert inside == [r.m for r in records]


def test_sweep_sets_the_heap_thresholds_before_its_first_trial(tmp_path, monkeypatch):
    """One sweep call sets the malloc thresholds once, before its first trial runs."""
    keep_freed_heap, run_trial, events = harness._keep_freed_heap, harness._run_trial, []

    def kept():
        events.append("heap")
        keep_freed_heap()

    def counted(*args, **kwargs):
        events.append("trial")
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(harness, "_keep_freed_heap", kept)
    monkeypatch.setattr(harness, "_run_trial", counted)
    records = run_denoise_sweep(ExperimentConfig(_sparse_mapping(tmp_path)))
    assert events == ["heap"] + ["trial"] * len(records)


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
    """Points outside the window are not read, not even a zero or a NaN."""
    points = [
        (4, 0.0), (8, 100.0), (16, 1.0), (32, 1 / math.sqrt(2)), (64, 0.5), (1024, 9.0), (2048, math.nan)
    ]
    fit = fit_loglog_slope(points, (16, 64))
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)


def test_fit_slope_needs_two_points():
    with pytest.raises(ValueError, match="two points"):
        fit_loglog_slope([(16, 1.0), (32, 0.5)], (20, 30))
    with pytest.raises(ValueError, match="two points of distinct m"):
        fit_loglog_slope([(16, 1.0), (16, 0.5), (64, 0.2)], (1, 32))  # one m, twice


@pytest.mark.parametrize(
    "points",
    [
        [(10, 0.0), (20, 1.0)],
        [(10, 1.0), (20, -1.0)],
        [(10, math.nan), (20, 1.0)],
        [(10, 1.0), (20, math.inf)],
        [(10, 1.0), (math.inf, 1.0)],
        [(-10, 1.0), (20, 1.0)],
    ],
    ids=["zero", "negative", "nan", "inf", "inf_m", "negative_m"],
)
def test_fit_slope_rejects_nonpositive_or_nonfinite_points(points):
    with pytest.raises(ValueError, match="finite and positive"):
        fit_loglog_slope(points, (-100, math.inf))


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
