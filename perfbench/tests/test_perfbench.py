"""Smoke tests of the benchmark itself, at tiny sizes (under a minute).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# every workload the script offers, including any BENCHMARK.json leaves out
WORKLOADS = sorted(workloads.WORKLOADS)


def _bench(trace, workload, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [_result(_bench(1, w)) for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = _result(_bench(0, workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_emitted_with_units(traced_twice):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced_twice.values():
        for result in runs:
            assert result["correct"]
            assert _units(result) == expected


def test_per_layer_counts_repeat_exactly(traced_twice):
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "count" or m["name"] == "recovery.nonconverged_frac"]
    for first, second in traced_twice.values():
        assert {n: first["metrics"][n]["value"] for n in counts} == {
            n: second["metrics"][n]["value"] for n in counts
        }


@pytest.fixture()
def tiny_sparse(tmp_path):
    v = run._load_vdslab()
    workload = workloads.WORKLOADS["sparse_sweep_1d"]
    config = v.harness.ExperimentConfig(workload.mapping(v, 1, tmp_path, tiny=True))
    return v, workload, config


def test_trial_self_times_within_wall_time(tiny_sparse):
    v, workload, config = tiny_sparse
    tracer = tracing.Tracer()
    with tracing.installed(tracer, v):
        call = workloads.run_sweep(v, workload, config)
    totals = tracing.trial_totals(tracer)
    assert len(totals) == len(call.records) == call.attempted
    for row, t in zip(call.records, totals):
        assert 0 < t["self_ms"] <= t["wall_ms"] * (1 + 1e-9)
        assert 0 < t["measure_solve_ms"] <= row.wall_time_ms + 1e-6
    # the wrappers are gone again after the traced call
    assert not hasattr(v.harness.build_problem, "__wrapped__")
    assert not hasattr(v.transforms.UnitaryOperator.forward, "__wrapped__")


def test_row_checks_catch_a_wrong_seed(tiny_sparse):
    v, workload, config = tiny_sparse
    call = workloads.run_sweep(v, workload, config)
    assert workloads.check_call(v, config, call) == []
    call.records[0] = replace(call.records[0], seed=call.records[0].seed + 1)
    assert workloads.check_call(v, config, call)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = _bench(0, "union_oracle", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
