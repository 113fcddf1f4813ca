"""The sweep digest script is deterministic: two runs of one workload and seed print one digest."""

import hashlib
import importlib.util
import re
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_digest.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("sweep_digest", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sweep_digest_repeats_on_a_tiny_generative_sweep(capsys):
    script = _load_script()
    args = ["--workload", "generative_sweep", "--seed", "913", "--tiny"]
    assert script.main(args) == 0
    first = capsys.readouterr().out
    assert script.main(args) == 0
    assert capsys.readouterr().out == first
    assert re.fullmatch(r"[0-9a-f]{64}  generative_sweep seed=913 rows=4\n", first)


def test_sweep_digest_rows_file_hashes_to_the_printed_digest(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    args = ["--workload", "generative_sweep", "--seed", "913", "--tiny", "--rows", str(rows)]
    assert _load_script().main(args) == 0
    digest, label = capsys.readouterr().out.split("  ")
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == digest
    lines = rows.read_text().split("\n")
    assert label == f"generative_sweep seed=913 rows={len(lines) - 1}\n"
    assert "wall_time_ms" not in lines[0]
