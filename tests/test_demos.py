"""Smoke test of the fast demos: each runs to completion in a subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest

from oracles import checkout_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_flight_model.py", "02_path_geometry.py",
                                  "03_guidance_errors.py"])
def test_demo_runs(name):
    run = subprocess.run([sys.executable, str(DEMOS / name)], env=checkout_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
