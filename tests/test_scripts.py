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
            r"^surface max: 0\.\d{6} \(4 points\)$",
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


@pytest.mark.parametrize(
    "args, problem",
    [
        (["--d-min", "0"], "config error: sweep: need 0 < d_min < d_max"),
        (["--out", "taken/surface"], "config error: cannot write output: "),
    ],
    ids=["zero_d_min", "out_under_file"],
)
def test_surface_sweep_rejects_bad_input_before_running(tmp_path, args, problem):
    (tmp_path / "taken").write_text("a regular file")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_surface_sweep.py"), "--points", "2", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(problem) and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""  # nothing was computed or written


@pytest.mark.parametrize(
    "script, args, problem",
    [
        ("run_pipeline_demo.py", ["--sizes", "0"], "config error: register.n_dots: "),
        ("run_pipeline_demo.py", ["--sizes", "4", "12"], "config error: register.n_dots: "),
        ("run_pipeline_demo.py", ["--p-success", "2"], "config error: swap.p_success: "),
        ("run_pipeline_demo.py", ["--kappa", "-5"], "config error: storage.kappa: "),
        ("run_protection_study.py", ["--kappa-t", "-1"], "config error: --kappa-t "),
        ("run_protection_study.py", ["--kappa-t", "nan"], "config error: --kappa-t "),
        ("run_protection_study.py", ["--pairs", "0"], "config error: --pairs "),
        ("run_protection_study.py", ["--n-max", "5"], "config error: storage.n_max: "),
        ("run_protection_study.py", ["--alpha", "0"], "config error: storage.alpha: "),
        ("run_protection_study.py", ["--cavities", "0"], "config error: register.n_dots: "),
    ],
    ids=["demo_zero_dots", "demo_over_cap", "demo_p_success_2", "demo_negative_kappa",
         "study_negative_kappa_t", "study_nan_kappa_t", "study_zero_pairs",
         "study_n_max_below_truncation", "study_zero_alpha", "study_zero_cavities"],
)
def test_script_rejects_bad_input_before_running(tmp_path, script, args, problem):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(problem) and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""  # nothing was computed or written
    assert list(tmp_path.iterdir()) == []
