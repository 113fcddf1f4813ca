"""The calibration script still runs and reproduces the recorded constant."""

import importlib.util
import re
from pathlib import Path

import pytest

from vdslab.calibration import ISOMETRY_COMPLEXITY_CONSTANT

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_rip_constant.py"


def test_calibration_script_reproduces_recorded_constant(capsys):
    spec = importlib.util.spec_from_file_location("calibrate_rip_constant", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([]) == 0  # without --write: prints, rewrites nothing
    found = re.search(r"calibrated C = ([0-9.]+)", capsys.readouterr().out)
    assert found is not None
    assert float(found.group(1)) == pytest.approx(ISOMETRY_COMPLEXITY_CONSTANT, abs=1e-12)
