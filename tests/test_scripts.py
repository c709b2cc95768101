"""Smoke runs of the experiment scripts: each exits 0 and prints its summary."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, summary",
    [
        (
            "run_surface_sweep.py",
            ["--points", "2", "--d-min", "1", "--d-max", "3", "--gamma-min", "1",
             "--gamma-max", "3", "--out", "surface"],
            r"^surface max: 0\.\d{6} \(4 points, all converged: True\)$",
        ),
        (
            "run_protection_study.py",
            ["--pairs", "3", "--kappa-t", "0.1", "--out", "study.csv"],
            r"^kappa_t=0\.1 +corrected=\d\.\d{4} uncorrected=\d\.\d{4} gain=",
        ),
        (
            "run_pipeline_demo.py",
            ["--sizes", "4"],
            r"^ +4 +2 +\d\.\d{8} +\d\.\d{6}$",
        ),
    ],
    ids=["surface_sweep", "protection_study", "pipeline_demo"],
)
def test_script_runs(tmp_path, script, args, summary):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(summary, proc.stdout, re.MULTILINE), proc.stdout
