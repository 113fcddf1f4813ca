"""The sweep profiling script runs a tiny benchmark workload and prints per-trial self times."""

import importlib.util
import re
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_sweep.py"


def test_profile_sweep_prints_self_times_per_trial_on_a_tiny_sparse_sweep(capsys):
    spec = importlib.util.spec_from_file_location("profile_sweep", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--workload", "sparse_sweep_1d", "--seed", "1", "--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"sparse_sweep_1d seed=1 trials=4 profiled \S+ s \(\S+ ms per trial\)", lines[0])
    assert lines[1].split() == ["self", "ms/trial", "share", "calls/trial", "function"]
    rows = [line.split(maxsplit=3) for line in lines[2:]]
    assert len(rows) == script.TOP
    ms = [float(row[0]) for row in rows]
    assert ms == sorted(ms, reverse=True) and ms[0] > 0
    functions = {row[3] for row in rows}
    assert any(f.startswith("src/vdslab/") for f in functions)
