"""Exercises the command-line entry points and their exit codes."""

import warnings

import numpy as np
import pytest

from oracles import random_orthogonal

from vdslab import harness
from vdslab.cli import main
from vdslab.harness import CSV_HEADER
from vdslab.priors import GenerativeNetwork, Subspace, SubspaceUnion, save_network, save_union
from vdslab.sampling import load_plan_csv


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _write_config(tmp_path, name="exp.cfg", **keys):
    base = {
        "prior": "sparse",
        "n": 64,
        "sparse_k": 3,
        "measurement": "dft",
        "out": str(tmp_path / "out.csv"),
    }
    base.update(keys)
    path = tmp_path / name
    path.write_text(
        "".join(f"{k} = {v}\n" for k, v in base.items() if v is not None)
    )
    return str(path)


def _union_file(tmp_path, n=16, M=3, dim=2, seed=0):
    rng = _rng(seed)
    subs = [Subspace(random_orthogonal(n, rng)[:, :dim]) for _ in range(M)]
    path = tmp_path / "u.vdsu"
    save_union(SubspaceUnion(subs), path)
    return str(path)


def _network_file(tmp_path):
    net = GenerativeNetwork([_rng(1).standard_normal((8, 2)), _rng(2).standard_normal((16, 8))])
    path = tmp_path / "g.vdsg"
    save_network(net, path)
    return str(path)


_GENERATIVE = {"prior": "generative", "n": None, "sparse_k": None}


@pytest.mark.parametrize(
    "prior, method",
    [("sparse", "upper_bound"), ("union", "exact"), ("generative", "empirical")],
)
def test_coherence_command(tmp_path, capsys, prior, method):
    keys = {
        "sparse": {},
        "union": {"prior": "union", "n": None, "sparse_k": None, "union_file": _union_file(tmp_path)},
        "generative": _GENERATIVE | {"network_file": _network_file(tmp_path)},
    }[prior]
    cfg = _write_config(tmp_path, **keys)
    assert main(["coherence", "--config", cfg]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "index,alpha,method"
    rows = [line.split(",") for line in lines[1:]]
    problem = harness.build_problem(harness.ExperimentConfig(harness.parse_config_file(cfg)))
    assert [int(row[0]) for row in rows] == list(range(problem.n))
    assert np.array_equal([float(row[1]) for row in rows], problem.alpha)  # bit-exact through decimal
    assert {row[2] for row in rows} == {method}
    assert (tmp_path / "out.csv.manifest").exists()
    assert "wrote coherence" in capsys.readouterr().out


def test_plan_command(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["plan", "--config", cfg]) == 0
    plan = load_plan_csv(tmp_path / "out.csv")
    assert plan.n == 64
    assert plan.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_plan_rejects_both(tmp_path, capsys):
    cfg = _write_config(tmp_path, scheme="both")
    assert main(["plan", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_rip_check_command(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, prior="union", union_file=_union_file(tmp_path), m=128,
        n=None, sparse_k=None,
    )
    assert main(["rip-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "holds=true" in out
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "subspace,deviation"
    assert len(lines) == 1 + 6  # deduped pairwise expansion of M=3


def test_rip_check_fails_when_undersampled(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, prior="union", union_file=_union_file(tmp_path), m=2,
        n=None, sparse_k=None,
    )
    assert main(["rip-check", "--config", cfg]) == 0
    assert "holds=false" in capsys.readouterr().out


def test_rip_check_sparse_over_budget_exits_2(tmp_path, capsys):
    # n=64, k=3: the difference set has C(64, 6) supports, past the enumeration budget
    cfg = _write_config(tmp_path, m=32)
    assert main(["rip-check", "--config", cfg]) == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_rip_check_sparse_over_budget_exits_before_the_coherence_build(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense coherence was built")

    monkeypatch.setattr(harness, "sparse_coherence_vector", refuse)
    cfg = _write_config(tmp_path, n=2048, sparse_k=10, m=32)
    assert main(["rip-check", "--config", cfg]) == 2
    assert "exceed budget" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("solver", "sparse"), ("field", "complex")])
def test_solver_and_field_are_unknown_keys(tmp_path, capsys, key, value):
    # the solver follows the prior and the field follows the operator; neither is a setting
    cfg = _write_config(tmp_path, **{key: value})
    assert main(["coherence", "--config", cfg]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


def test_recover_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, m=256, sigma=0.0)
    assert main(["recover", "--config", cfg]) == 0
    assert "rre=" in capsys.readouterr().out
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert float(lines[1].split(",")[5]) <= 1e-6


def test_denoise_sweep_command(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, m_grid="32,96", sigma_grid="0.5", trials="2", master_seed="3"
    )
    assert main(["denoise-sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "scheme=optimized m=32" in out
    assert "wrote 4 records" in out


def test_compare_schemes_command(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, scheme="both", m_grid="64", sigma_grid="0.5", trials="2"
    )
    assert main(["compare-schemes", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "optimized/uniform=" in out
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # two schemes x two trials


def test_seed_flag_overrides_master_seed(tmp_path):
    cfg = _write_config(tmp_path, m_grid="48", sigma_grid="0.5", trials="1")
    main(["denoise-sweep", "--config", cfg])
    first = (tmp_path / "out.csv").read_text()
    main(["denoise-sweep", "--config", cfg, "--seed", "99"])
    second = (tmp_path / "out.csv").read_text()
    assert first != second
    main(["denoise-sweep", "--config", cfg])
    assert (tmp_path / "out.csv").read_text() == first


def test_out_flag_overrides_path(tmp_path):
    cfg = _write_config(tmp_path)
    other = tmp_path / "elsewhere.csv"
    assert main(["coherence", "--config", cfg, "--out", str(other)]) == 0
    assert other.exists()
    assert not (tmp_path / "out.csv").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, bogus="1")
    assert main(["coherence", "--config", cfg]) == 2
    assert "unknown" in capsys.readouterr().err


def test_missing_config_file_exits_3(tmp_path, capsys):
    assert main(["coherence", "--config", str(tmp_path / "nope.cfg")]) == 3
    assert "error" in capsys.readouterr().err


def test_corrupt_prior_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "u.vdsu"
    bad.write_bytes(b"not a union file")
    cfg = _write_config(tmp_path, prior="union", union_file=str(bad), n=None, sparse_k=None)
    assert main(["coherence", "--config", cfg]) == 3
    assert "error" in capsys.readouterr().err


def test_recover_requires_m_and_sigma(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["recover", "--config", cfg]) == 2
    assert "missing required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"m": 0}, "m must be"),
        ({"sigma": -0.5}, "sigma must be"),
        ({"sigma": "nan"}, "sigma must be"),
        ({"solver_max_iters": 0}, "unknown config keys"),
        ({"solver_power_iters": 40}, "unknown config keys"),
        ({"solver_tol": 1e-8}, "unknown config keys"),
        (_GENERATIVE | {"solver_restarts": 0}, "unknown config keys"),
        (_GENERATIVE | {"solver_iters": 0}, "unknown config keys"),
        (_GENERATIVE | {"solver_init_pool": 0}, "unknown config keys"),
        (_GENERATIVE | {"solver_step": -1}, "unknown config keys"),
        (_GENERATIVE | {"solver_step": "nan"}, "unknown config keys"),
        ({"sparsity": "haar", "sparsity_levels": -1}, "levels must be nonnegative"),
        ({"sparsity": "haar", "sparsity_levels": 7}, "n=64 not divisible by 2**7"),
        ({"measurement": "haar", "measurement_levels": -2}, "levels must be nonnegative"),
        ({"measurement": "dft2", "sparsity": "haar2", "sparsity_levels": 4}, "side 8 not divisible by 2**4"),
        (_GENERATIVE | {"measurement": "haar", "measurement_levels": 5}, "n=16 not divisible by 2**5"),
    ],
)
def test_recover_rejects_out_of_range_point_exits_2(tmp_path, capsys, keys, message):
    if keys.get("prior") == "generative":
        keys = keys | {"network_file": _network_file(tmp_path)}
    cfg = _write_config(tmp_path, **({"m": 256, "sigma": 0.0} | keys))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no trial may run and fail first
        assert main(["recover", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
