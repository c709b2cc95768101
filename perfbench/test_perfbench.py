"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from child import layer_metrics, trace_hooks  # noqa: E402
from tracer import Span, Tracer, root_time, self_times, span_stats  # noqa: E402
from run import end_to_end  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END, EXACT, PER_LAYER, REF_S, WORKLOADS, artifact_digest, at_reference_speed,
    smatrix_conversion,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize(
    "d, gamma, expected, tol",
    [(0.1, 10.0, 0.99998, 5e-6), (0.1, 1.0, 0.9975, 5e-5), (1.0, 1.0, 0.8427, 5e-5)],
)
def test_smatrix_reference_values(d, gamma, expected, tol):
    assert smatrix_conversion(d, gamma) == pytest.approx(expected, abs=tol)


def test_times_scale_to_reference_speed():
    # A stretch on a machine at half the reference speed, one at full speed.
    assert at_reference_speed([(4.0, 2 * REF_S), (1.5, REF_S)]) == pytest.approx(3.5)
    runs = [{"units": 10, "peak_rss_mb": 80.0 + i, "at_ref_speed": {"wall_s": w, "setup_s": s}}
            for i, (w, s) in enumerate([(2.0, 0.5), (2.5, 0.6), (2.1, 0.7)])]
    values = end_to_end(runs)
    assert set(values) == set(END_TO_END)
    assert values == pytest.approx(
        {"wall_s": 2.1, "units_per_s": 10 / 2.1, "setup_s": 0.6, "peak_rss_mb": 81.0})


def test_self_times_on_nested_tree():
    # A[0,10] > (B[1,4] > C[2,3]), D[5,9];  E[11,12] is a second root.
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 5.0, 9.0, 0),
        Span("a", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert root_time(spans) == 11.0
    assert sum(self_times(spans)) == root_time(spans)
    stats = span_stats(spans)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["busy_s"] == 11.0
    assert stats["a"]["self_s"] == 4.0
    assert stats["a"]["max_ms"] == 10000.0
    assert stats["b"]["self_s"] == 2.0


def test_wrapped_calls_build_the_span_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: mid())
    top()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("top", -1), ("mid", 0), ("leaf", 1), ("leaf", 1)]
    own = dict(zip([s.name for s in tracer.spans], self_times(tracer.spans)))
    assert sum(self_times(tracer.spans)) == root_time(tracer.spans)
    assert own["top"] == 2.0  # 7 ticks, less mid's 5


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert set(EXACT) <= set(PER_LAYER)
    for m in bench["end_to_end"]:
        assert END_TO_END[m["name"]] == m["unit"]
    for m in bench["per_layer"]:
        assert PER_LAYER[m["name"]] == m["unit"]


TINY = {
    "surface": {"sweep": {"d_min": 1.0, "d_max": 3.0, "gamma_min": 1.0, "gamma_max": 3.0,
                          "points_per_axis": 2}},
    "storage": {"register": {"n_dots": 6},
                "storage": {"kappa": 25000.0, "trajectories": 24, "rounds": 4, "tau_syn": 1e-6}},
    "chain": {
        "register": {"n_dots": 4},
        "storage": {"kappa": 25000.0, "rounds": 4, "tau_syn": 1e-6},
        "swap": {"p_success": 0.95},
        "conversion": {"eta_bbo": 0.9, "detector_efficiency": 0.9}},
}

EXPECTED_SPANS = {
    "surface": {"photon_swap.sweep_point", "photon_swap.propagate_static",
                "photon_swap.expm_multiply", "photon_swap.static_generator",
                "photon_swap.closed_form_report", "runner.write_stage_result"},
    "storage": {"cat_code.run_protected", "cat_code.fc_loss_segment", "cat_code.brentq",
                "cat_code.recovery_matrix", "cat_code.fc_parity_probability",
                "cat_code.fc_project_parity", "runner.write_stage_result"},
    "chain": {"spin_register.plan_ghz", "spin_register.execute", "spin_register.is_ghz_class",
              "hilbert.schmidt_spectrum", "hilbert.apply_local", "photon_swap.register_swap",
              "polarization.convert_register", "cat_code.run_protected"},
}


def _run(wl, out_root: Path, config: Path) -> list:
    import entpipe.cli

    outs = []
    for i, seed in enumerate(wl.seeds(5)):
        out = out_root / str(i)
        argv = [wl.command, "--config", str(config), "--out", str(out), "--workers", "1",
                "--seed", str(seed)]
        assert entpipe.cli.main(argv) == 0
        outs.append(out)
    return outs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_artifacts_identical(name, tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("EP_")]:
        monkeypatch.delenv(key)
    wl = replace(WORKLOADS[name], config=TINY[name], calls=min(WORKLOADS[name].calls, 2))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config))
    out = tmp_path / "out"  # reports echo the output path, so both runs share it

    plain = _run(wl, out, config)
    problems, units, _ = wl.check(plain)
    assert problems == [] and units > 0
    digest, nbytes = artifact_digest(plain)

    shutil.rmtree(out)
    tracer = Tracer()
    tracer.install(trace_hooks())
    try:
        traced = _run(wl, out, config)
    finally:
        tracer.uninstall()
    assert artifact_digest(traced) == (digest, nbytes)
    assert EXPECTED_SPANS[name] <= {s.name for s in tracer.spans}

    import entpipe.runner

    assert entpipe.runner.run_protected.__module__ == "entpipe.cat_code"
    assert not hasattr(entpipe.runner.run_protected, "__wrapped__")

    wall = root_time(tracer.spans) + 0.5
    layers = layer_metrics(tracer, wall, {"import_s": 0.1, "config_s": 0.01}, nbytes, 0.0)
    assert set(layers) == set(PER_LAYER) - {"trace.overhead_frac"}
    assert layers["trace.span_self_s"] + layers["trace.other_self_s"] == pytest.approx(wall)


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
