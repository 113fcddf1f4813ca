"""The sweep digest script is deterministic: two runs of one workload and seed print one digest.
With --against it reports how far its rows are from a saved rows file, column by column."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

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


def test_sweep_digest_against_reports_each_column_and_the_moved_rows(tmp_path, capsys):
    """Against a saved rows file with rre moved by 1e-6 in row 2 and by 1e-12 in row 3, --against
    reports rre's largest difference as 1e-6 and lists row 2 alone as moved."""
    script = _load_script()
    rows = tmp_path / "rows.csv"
    args = ["--workload", "generative_sweep", "--seed", "913", "--tiny"]
    assert script.main([*args, "--rows", str(rows)]) == 0
    capsys.readouterr()
    lines = [line.split(",") for line in rows.read_text().split("\n")]
    rre = lines[0].index("rre")
    old = {}
    for row, scale in ((2, 1 + 1e-6), (3, 1 + 1e-12)):
        old[row] = float(lines[row][rre]) * scale
        lines[row][rre] = repr(old[row])
    rows.write_text("\n".join(",".join(line) for line in lines))

    assert script.main([*args, "--against", str(rows)]) == 0
    report = capsys.readouterr().out.split("\n")
    worst = dict(line.split() for line in report[2:12])
    assert list(worst) == lines[0]
    assert all(float(worst[name]) == 0.0 for name in worst if name != "rre")
    assert float(worst["rre"]) == pytest.approx(1e-6, rel=1e-3)
    assert report[12] == "rows moved by more than 1e-09 relative: 1 of 4"
    assert report[13].startswith(f"  row 2: rre {old[2]!r} -> ")
    assert report[14:] == [""]


def test_sweep_digest_against_refuses_rows_of_another_shape(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("scheme,m\noptimized,13")
    args = ["--workload", "generative_sweep", "--seed", "913", "--tiny", "--against", str(rows)]
    assert _load_script().main(args) == 1
    assert "another header or row count" in capsys.readouterr().err
