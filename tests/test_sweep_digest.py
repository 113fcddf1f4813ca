"""The sweep digest script is deterministic: two runs of one workload and seed print one digest."""

import importlib.util
import re
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_digest.py"


def test_sweep_digest_repeats_on_a_tiny_generative_sweep(capsys):
    spec = importlib.util.spec_from_file_location("sweep_digest", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    args = ["--workload", "generative_sweep", "--seed", "913", "--tiny"]
    assert script.main(args) == 0
    first = capsys.readouterr().out
    assert script.main(args) == 0
    assert capsys.readouterr().out == first
    assert re.fullmatch(r"[0-9a-f]{64}  generative_sweep seed=913 rows=4\n", first)
