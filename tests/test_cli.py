"""End-to-end CLI runs: exit codes, artifacts, determinism."""
import concurrent.futures
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import entpipe.cat_code
import entpipe.photon_swap
import entpipe.runner
from entpipe.cli import main
from entpipe.config import default_config, serialize
from entpipe.spin_register import plus_register


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("EP_"):
            monkeypatch.delenv(key)


def write_cfg(tmp_path, **section_updates):
    cfg = default_config()
    for name, fields in section_updates.items():
        cfg = replace(cfg, **{name: replace(getattr(cfg, name), **fields)})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(serialize(cfg)))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -------------------------------------------------------------- front end

@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no_stage", "unknown_stage"])
def test_missing_or_unknown_stage_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: entpipe" in capsys.readouterr().err


def test_help_lists_every_stage_with_its_driver_summary(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, run in entpipe.runner.STAGES.items():
        summary = run.__doc__.partition("\n")[0]
        assert summary and re.search(rf"^  {name} +{re.escape(summary)}$", out, re.MULTILINE)


def test_flags_before_the_stage_write_the_same_bytes(tmp_path):
    # the report echoes --out, so both runs write to the same directory
    out = tmp_path / "out"

    def artifacts(argv):
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    before = artifacts(["--seed", "7", "ghz", "--out", str(out)])
    assert b'"base_seed": 7,' in before["ghz_report.json"]
    assert before == artifacts(["ghz", "--seed", "7", "--out", str(out)])


# ------------------------------------------------------------------- ghz

def test_ghz_default_register(tmp_path):
    out = tmp_path / "out"
    assert main(["ghz", "--out", str(out)]) == 0
    rep = read_json(out / "ghz_report.json")
    assert rep["schema"] == "entpipe-report/1"
    assert rep["stage"] == "ghz"
    assert rep["fidelities"]["canonical_ghz"] >= 1 - 1e-10
    assert rep["timing"]["interaction_steps"] == 3
    assert rep["stats"]["ghz_class"] == 1
    dump = read_json(out / "ghz_state.json")
    assert len(dump["amplitudes"]) == 16


def test_ghz_two_dots_timing(tmp_path):
    cfg = write_cfg(tmp_path, register={"n_dots": 2})
    out = tmp_path / "out"
    assert main(["ghz", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out / "ghz_report.json")
    assert rep["fidelities"]["canonical_ghz"] >= 1 - 1e-10
    assert rep["timing"]["total_seconds"] == pytest.approx(7.853981633974483e-9, rel=1e-12)


def test_ghz_rejects_single_dot(tmp_path, capsys):
    cfg = write_cfg(tmp_path, register={"n_dots": 1})
    assert main(["ghz", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "n_dots" in capsys.readouterr().err


def test_bad_config_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["ghz", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def _single_config_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    return err[0]


@pytest.mark.parametrize(
    "stage,doc",
    [
        ("protect", '{"storage": {"kappa": "nan"}}'),
        ("protect", '{"storage": {"kappa": NaN}}'),
        ("swap", '{"swap": {"d": "inf"}}'),
        ("swap", '{"swap": {"d": -Infinity}}'),
        ("swap", '{"swap": {"p_success": "nan"}}'),
    ],
)
def test_non_finite_config_value_is_exit_2(tmp_path, capsys, stage, doc):
    # NaN and inf pass every "< 0" / "<= 0" check, so they must stop at parsing
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    out = tmp_path / "out"
    assert main([stage, "--config", str(path), "--out", str(out)]) == 2
    assert "expected a finite number" in _single_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "stage, doc, problem",
    [
        ("protect", '{"storage": {"kappa": true}}', "storage.kappa: expected a number"),
        ("swap", '{"swap": {"p_success": true}}', "swap.p_success: expected a number or string"),
        ("swap", '{"swap": {"p_success": false}}', "swap.p_success: expected a number or string"),
    ],
    ids=["kappa_true", "p_success_true", "p_success_false"],
)
def test_json_boolean_number_is_exit_2(tmp_path, capsys, stage, doc, problem):
    # float(True) is 1.0: a JSON boolean must not pass as a number
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    out = tmp_path / "out"
    assert main([stage, "--config", str(path), "--out", str(out)]) == 2
    assert problem in _single_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("stage", ["protect", "pipeline"])
@pytest.mark.parametrize(
    "storage, problem",
    [
        ({"tau_syn": 1e308}, "kappa * rounds * tau_syn must stay finite"),
        ({"kappa": 1e200, "tau_syn": 1e200}, "kappa * rounds * tau_syn must stay finite"),
        ({"kappa": 1e307, "tau_syn": 1.0, "rounds": 1}, "kappa * rounds * tau_syn * n_max must"),
    ],
    ids=["time", "kappa_t", "kappa_t_n_max"],
)
def test_storage_time_beyond_float_range_is_exit_2(tmp_path, capsys, stage, storage, problem):
    # an infinite storage time made the report non-JSON (exit 1); an infinite
    # kappa * time gave NaN survival values under a numpy warning (exit 3);
    # an infinite kappa * time * n_max overflowed the loss exponent of the
    # top Fock level under numpy warnings and still exited 0
    cfg = write_cfg(tmp_path, storage=storage)
    out = tmp_path / "out"
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert problem in _single_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("stage", ["ghz", "pipeline"])
@pytest.mark.parametrize(
    "register",
    [{"j2_hz": 1e-320}, {"j1_hz": 1e-320}, {"j2_hz": 1e308},
     {"n_dots": 10, "j1_hz": 2.3e-309, "j2_hz": 5e-309}],
    ids=["j2_tiny", "j1_tiny", "j2_huge", "total_inf"],
)
def test_register_timing_beyond_float_range_is_exit_2(tmp_path, capsys, stage, register):
    # an infinite interval made NaN gates and an SVD traceback (exit 1), a
    # zero one a planner error (exit 4), and an infinite total time a
    # truncated, non-JSON ghz_report.json (exit 1)
    cfg = write_cfg(tmp_path, register=register)
    out = tmp_path / "out"
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert "register: j1_hz and j2_hz must give positive finite" in _single_config_error(capsys)
    assert not out.exists()


def test_non_finite_env_value_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EP_STORAGE__KAPPA", "nan")
    assert main(["protect", "--out", str(tmp_path / "out")]) == 2
    assert "storage.kappa: expected a finite number" in _single_config_error(capsys)


@pytest.mark.parametrize(
    "stage, doc, env, problem",
    [
        ("swap", {"swap": {"w1": 1e9}}, {}, "swap: unknown key 'w1'"),
        ("swap", {"swap": {"w2": 0.0}}, {}, "swap: unknown key 'w2'"),
        ("sweep", {"sweep": {"unit": "dimensionless"}}, {}, "sweep: unknown key 'unit'"),
        ("swap", {}, {"EP_SWAP__W1": "1e9"}, "EP_SWAP__W1: unknown field 'w1'"),
    ],
    ids=["swap.w1", "swap.w2", "sweep.unit", "EP_SWAP__W1"],
)
def test_dropped_config_fields_are_exit_2(tmp_path, monkeypatch, capsys, stage, doc, env,
                                          problem):
    # the transition frequencies and the sweep's unit changed no output and
    # are gone from the schema: naming one, even at its old default, is an error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "out"
    assert main([stage, "--config", str(path), "--out", str(out)]) == 2
    assert _single_config_error(capsys) == f"config error: {problem}"
    assert not out.exists()


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_unreadable_config_path_is_exit_2(tmp_path, capsys, name):
    # a missing file and a directory: FileNotFoundError, IsADirectoryError
    path = tmp_path / name
    assert main(["ghz", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    _single_config_error(capsys)


@pytest.mark.parametrize("below", [False, True])
def test_unwritable_out_is_exit_2(tmp_path, capsys, below):
    # --out is a regular file, or a path under one
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / "sub" if below else blocker
    assert main(["ghz", "--out", str(out)]) == 2
    _single_config_error(capsys)
    assert blocker.read_text() == "not a directory"


# --------------------------------------------------------------- protect

def test_protect_lossless_both_arms_perfect(tmp_path):
    cfg = write_cfg(tmp_path, storage={"trajectories": 20})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out / "protect_report.json")
    assert rep["fidelities"]["corrected_mean"] == pytest.approx(1.0, abs=1e-8)
    assert rep["fidelities"]["uncorrected_mean"] == pytest.approx(1.0, abs=1e-8)
    rows = read_csv(out / "protect_trajectories.csv")
    assert len(rows) == 40
    assert {r["corrected"] for r in rows} == {"0", "1"}


def test_protect_with_loss_shows_significant_gain(tmp_path):
    # kappa * duration = 0.1 with the default four 1 us rounds
    cfg = write_cfg(tmp_path, storage={"kappa": 25000.0, "trajectories": 1000})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out / "protect_report.json")
    assert rep["fidelities"]["corrected_mean"] > rep["fidelities"]["uncorrected_mean"]
    assert rep["stats"]["gain_sigma"] >= 3.0
    assert len(read_csv(out / "protect_trajectories.csv")) == 2000


def test_protect_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, storage={"kappa": 25000.0, "trajectories": 50})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "protect_trajectories.csv").read_bytes()
    report_first = (out / "protect_report.json").read_bytes()
    assert main(["protect", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "protect_trajectories.csv").read_bytes() == first
    assert (out / "protect_report.json").read_bytes() == report_first


def test_protect_worker_count_does_not_change_bytes(tmp_path):
    cfg = write_cfg(tmp_path, storage={"kappa": 25000.0, "trajectories": 24})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    serial = (out / "protect_trajectories.csv").read_bytes()
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 0
    assert (out / "protect_trajectories.csv").read_bytes() == serial


def test_seed_flag_changes_trajectories(tmp_path):
    cfg = write_cfg(tmp_path, storage={"kappa": 25000.0, "trajectories": 10})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["protect", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["protect", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == 0
    rows_a = read_csv(out_a / "protect_trajectories.csv")
    rows_b = read_csv(out_b / "protect_trajectories.csv")
    assert [r["seed"] for r in rows_a] != [r["seed"] for r in rows_b]


# ----------------------------------------------------------- golden pins
# Rerun tests compare one commit with itself; these catch drift across
# commits.  The protect and pipeline pins were re-pinned when the repump
# became the code-space map and parity reads of definite-parity cavities
# exact: jump counts and parity outcomes kept, fidelities moved by <= 2e-15.
# They were re-pinned again when the jump-time root moved to ln S - ln r:
# jump times moved within Brent's xtol (<= 1e-16 s), jump counts and parity
# outcomes kept, report values by <= 3 ulp, and CSV fidelities flipped only
# between 0 and <= 1.5e-31 on trajectories with a logical error.
# The swap and sweep pins are the continuum closed form; Krylov at the old
# windows (+-20 Gamma for the swap, +-12 Gamma for the sweep) sat
# 2e-3..4e-3 above it.  The continuum P does not
# depend on the rail splitting w2, so the split-rail series equals the
# default one byte for byte.  The sweep digest was re-pinned when each row
# became the exact long-time limit (two erfcx values) in place of the
# quadrature at the horizon, and lost its t_end and n_t columns: p_longtime
# rose by at most 3.0e-6 on the pinned box.
# The ghz digest and the pipeline's ghz fidelity were re-pinned when
# execute began composing consecutive steps into one gate per group: the
# 10-dot amplitudes moved by at most 3.1e-16 entrywise and the fidelity
# from 0.9999999999999987 to 0.9999999999999991.

def test_protect_trajectories_golden_digest(tmp_path):
    cfg = write_cfg(tmp_path, register={"n_dots": 8}, storage={"kappa": 25000.0, "trajectories": 24})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--seed", "2718"]) == 0
    csv_path = out / "protect_trajectories.csv"
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == "526dbd2ce91ec9f420a2d0b51bc803e150d1a1e1fdcba420cbfc25643a3d905b"
    assert sum(int(row["jumps"]) for row in read_csv(csv_path)) == 136


# kappa t = 0.4: several jumps per segment, repumps, and cavities whose
# columns are replaced more than once.  Every parity read is certain, so
# every projection returns its chain unchanged.
# The report echoes out_dir, so its values are pinned, not its digest.
@pytest.mark.parametrize(
    "n_dots, digest, jumps, fidelities, gain, gain_sigma",
    [
        pytest.param(
            2, "3db486ebac0517d7b0d59b85d4e1aa0c4d2490fc486a49a2162df677ce832a9e", 62,
            {"corrected_mean": 0.6539582937088869, "uncorrected_mean": 0.36456238045116945},
            0.28939591325771746, 2.6860171641444253,
            id="n_dots_2",
        ),
        pytest.param(
            4, "f7f63a4c64e0e774db9273a3bbcfc8a968b5a9a6b34c7df9bf389489301542b9", 220,
            {"corrected_mean": 0.5178681188500823, "uncorrected_mean": 0.02790859911979068},
            0.48995951973029167, 5.85493227796561,
            id="n_dots_4",
        ),
    ],
)
def test_protect_high_loss_golden_values(tmp_path, n_dots, digest, jumps, fidelities, gain,
                                         gain_sigma):
    cfg = write_cfg(
        tmp_path, register={"n_dots": n_dots}, storage={"kappa": 100000.0, "trajectories": 24}
    )
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--seed", "2718"]) == 0
    csv_path = out / "protect_trajectories.csv"
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest
    assert sum(int(row["jumps"]) for row in read_csv(csv_path)) == jumps
    rep = read_json(out / "protect_report.json")
    assert rep["fidelities"] == fidelities
    assert rep["stats"] == {
        "cavities": n_dots - 1,
        "gain": gain,
        "gain_sigma": gain_sigma,
        "kappa_t": 0.39999999999999997,
        "trajectories": 24,
    }


def test_pipeline_report_golden_values(tmp_path):
    cfg = write_cfg(
        tmp_path, register={"n_dots": 10}, storage={"kappa": 25000.0}, swap={"p_success": 0.95}
    )
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out / "pipeline_report.json")
    assert rep["fidelities"] == {
        "final_polarization": 0.9252139446595629,
        "ghz": 0.9999999999999991,
        "storage_logical": 0.9252139446595627,
    }
    assert rep["heralds"] == {
        "conversion": 0.3486784401000001,
        "swap": 0.5987369392383786,
        "total": 0.20876666200388638,
    }
    assert rep["stats"] == {
        "code_weight": 0.9252139446595629,
        "n_dots": 10,
        "per_dot_success": 0.95,
        "polarization_photons": 5,
    }


def _recorded_protect(tmp_path, monkeypatch, n_dots, kappa, trajectories):
    """Run ``protect`` serially; return its exit code and each run's
    (corrected, jump counts, parity outcomes)."""
    runs = []
    real = entpipe.runner.run_protected

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        runs.append((res.corrected, res.record.jump_counts, res.record.parity_outcomes))
        return res

    monkeypatch.setattr(entpipe.runner, "run_protected", recording)
    cfg = write_cfg(
        tmp_path, register={"n_dots": n_dots},
        storage={"kappa": kappa, "trajectories": trajectories},
    )
    out = tmp_path / "out"
    argv = ["protect", "--config", str(cfg), "--out", str(out), "--seed", "2718", "--workers", "1"]
    return main(argv), runs


def test_protect_survival_underflow_runs(tmp_path, monkeypatch):
    """At kappa t = 4e6 the survival underflows to 0.0 within a segment: the
    jump-time root clamps it, and the jumps and parities are those of the
    root on S - r, which needs no clamp."""
    code, runs = _recorded_protect(tmp_path, monkeypatch, 4, 1e12, 3)
    assert code == 0
    always_even = ((1,) * 4,) * 3
    assert runs == [
        (correct, counts, always_even)
        for counts in ((4, 4, 8), (8, 4, 2), (6, 4, 4))
        for correct in (True, False)
    ]


def test_jump_time_root_needs_few_survival_evaluations(tmp_path, monkeypatch):
    """Evaluations of the survival function per jump-time root, the bracket
    end included, on the golden-digest config: 5.98 on ln S - ln r against
    7.64 on S - r.  The count is deterministic."""
    evaluations = [0]
    per_root = []
    real_survival, real_brentq = entpipe.cat_code._fc_survival, entpipe.cat_code.brentq

    def counted_survival(*args):
        survival = real_survival(*args)
        evaluations[0] = 0

        def counted(tau):
            evaluations[0] += 1
            return survival(tau)

        return counted

    def counted_brentq(*args, **kwargs):
        root = real_brentq(*args, **kwargs)
        per_root.append(evaluations[0])
        return root

    monkeypatch.setattr(entpipe.cat_code, "_fc_survival", counted_survival)
    monkeypatch.setattr(entpipe.cat_code, "brentq", counted_brentq)
    code, runs = _recorded_protect(tmp_path, monkeypatch, 8, 25000.0, 24)
    assert code == 0 and len(runs) == 48
    assert len(per_root) == 97
    assert min(per_root) >= 2  # the bracket ends at least: the seam was reached
    assert sum(per_root) / len(per_root) <= 6.5


def test_ghz_state_golden_digest(tmp_path):
    # the executed amplitudes themselves, not only their fidelity
    cfg = write_cfg(tmp_path, register={"n_dots": 10})
    out = tmp_path / "out"
    assert main(["ghz", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "ghz_state.json").read_bytes()).hexdigest()
    assert digest == "13a9d53bf718fc68ada37fde2c9cbf48c7ff7e601524004d1d15f663214ce780"


def test_swap_series_golden_digest(tmp_path):
    out = tmp_path / "out"
    assert main(["swap", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "swap_series.csv").read_bytes()).hexdigest()
    assert digest == "c7be08e525ae6c08cc8e44aa31ad93629650ddb45bd28f4d28f6e56656b48721"


def test_sweep_surface_golden_digest(tmp_path):
    cfg = write_cfg(
        tmp_path,
        sweep={"d_min": 1.0, "d_max": 3.0, "gamma_min": 1.0, "gamma_max": 3.0,
               "points_per_axis": 2},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "sweep_surface.csv").read_bytes()).hexdigest()
    assert digest == "720cca86314efd0987f703ed7fa604f18db7583ec42b82c4cda843ffb5efc069"


def test_sweep_report_discrepancy_golden_values(tmp_path):
    # the fixed grid reference point and the printed formula beside it
    cfg = write_cfg(
        tmp_path,
        sweep={"d_min": 1.0, "d_max": 3.0, "gamma_min": 1.0, "gamma_max": 3.0,
               "points_per_axis": 2},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out / "sweep_report.json")
    assert rep["discrepancy"] == {
        "abs_diff": 96.6544466143938,
        "p_closed": 96.96488123978082,
        "p_ode": 0.3104346253870182,
        "params": {"d": 1.0, "gamma1": 1.0, "gamma2": 1.0, "t": 6.0},
    }


# ------------------------------------------------------------------ swap

def test_swap_series_and_discrepancy_report(tmp_path):
    out = tmp_path / "out"
    assert main(["swap", "--out", str(out)]) == 0
    rep = read_json(out / "swap_report.json")
    # the default swap is the sweep's (d, gamma) = (1, 1) point in units of 5e7
    p_sweep = entpipe.photon_swap.sweep_point(1.0, 1.0)["p_longtime"]
    assert rep["heralds"]["p_longtime"] == pytest.approx(p_sweep, abs=1e-12)
    assert rep["stats"]["n_t"] > 0
    assert set(rep["discrepancy"]) == {"params", "p_ode", "p_closed", "abs_diff"}
    assert rep["discrepancy"]["abs_diff"] > 0
    # the comparison reads the series at its end, which trails the exact
    # long-time limit by at most 8e-6
    gap = rep["heralds"]["p_longtime"] - rep["discrepancy"]["p_ode"]
    assert 0 <= gap <= 1e-5
    rows = read_csv(out / "swap_series.csv")
    assert len(rows) == 101
    assert float(rows[0]["p"]) == 0.0


def test_swap_without_second_channel_stays_zero(tmp_path):
    cfg = write_cfg(tmp_path, swap={"gamma2": 0.0})
    out = tmp_path / "out"
    assert main(["swap", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "swap_series.csv")
    assert all(float(r["p"]) == 0.0 for r in rows)


def test_swap_without_decay_stays_zero(tmp_path):
    cfg = write_cfg(tmp_path, swap={"gamma1": 0.0, "gamma2": 0.0})
    out = tmp_path / "out"
    assert main(["swap", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "swap_series.csv")
    assert len(rows) == 101 and all(float(r["p"]) == 0.0 for r in rows)
    assert read_json(out / "swap_report.json")["stats"]["n_t"] == 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "swap",
    [{"gamma1": 1e300, "gamma2": 1e300}, {"gamma1": 1e-290, "gamma2": 1e-290},
     {"d": 1e-290}, {"gamma1": 1e10, "gamma2": 1e10}],
    ids=["rates_1e300", "rates_1e-290", "d_1e-290", "rates_1e10"],
)
def test_extreme_swap_rates_run(tmp_path, swap):
    # rows stay finite and in [0, 1]; where the printed formula's growing
    # exponential leaves float64 the report says null, never Infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"swap": swap}))
    out = tmp_path / "out"
    assert main(["swap", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "swap_series.csv")
    assert len(rows) == 101
    for r in rows:
        assert 0.0 <= float(r["p"]) <= 1.0 and math.isfinite(float(r["t"]))
    text = (out / "swap_report.json").read_text()
    disc = json.loads(text, parse_constant=_reject_constant)["discrepancy"]
    assert disc["p_closed"] is None and disc["abs_diff"] is None


@pytest.mark.parametrize(
    "swap", [{"gamma1": 1e-300, "gamma2": 1e-300}, {"d": 1e-300}, {"gamma1": 1e308, "gamma2": 1e308}],
    ids=["rates_1e-300", "d_1e-300", "rates_1e308"],
)
def test_swap_rates_beyond_float_range_are_exit_2(tmp_path, capsys, swap):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"swap": swap}))
    out = tmp_path / "out"
    assert main(["swap", "--config", str(cfg), "--out", str(out)]) == 2
    assert _single_config_error(capsys).startswith("config error: swap: ")
    assert not out.exists()


# ----------------------------------------------------------------- sweep

def test_sweep_small_box(tmp_path):
    cfg = write_cfg(
        tmp_path,
        sweep={"d_min": 0.5, "d_max": 2.0, "gamma_min": 0.5, "gamma_max": 2.0,
               "points_per_axis": 2},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep_surface.csv")
    assert len(rows) == 4
    assert all(r["converged"] == "1" for r in rows)
    rep = read_json(out / "sweep_report.json")
    assert rep["stats"] == {"points": 4}
    assert 0 < rep["heralds"]["surface_max"] <= 1
    assert set(rep["discrepancy"]) == {"params", "p_ode", "p_closed", "abs_diff"}


def test_extreme_rate_sweep_box_runs(tmp_path):
    # Gamma / d reaches 1e-300 at gamma_min: every row must stay finite and in [0, 1]
    cfg = write_cfg(tmp_path, sweep={"gamma_min": 1e-300, "points_per_axis": 3})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    rows = read_csv(out / "sweep_surface.csv")
    assert len(rows) == 9 and all(r["converged"] == "1" for r in rows)
    for r in rows:
        p = float(r["p_longtime"])
        assert math.isfinite(p) and 0.0 <= p <= 1.0


@pytest.mark.parametrize("box", [{"d_min": 1e-310}, {"gamma_max": 1e306},
                                 {"gamma_min": 1e-300, "d_max": 1e10}])
def test_sweep_box_beyond_float_range_is_exit_2(tmp_path, capsys, box):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": box}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: sweep: " in capsys.readouterr().err
    assert not out.exists()


def test_sweep_json_format(tmp_path):
    cfg = write_cfg(
        tmp_path,
        sweep={"d_min": 0.5, "d_max": 2.0, "gamma_min": 0.5, "gamma_max": 2.0,
               "points_per_axis": 2},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    rows = read_json(out / "sweep_surface.json")
    assert len(rows) == 4
    assert all(row["converged"] == 1 for row in rows)


# -------------------------------------------------------------- pipeline

def test_pipeline_ideal_run(tmp_path):
    cfg = write_cfg(
        tmp_path,
        swap={"p_success": 1.0},
        conversion={"eta_bbo": 1.0, "detector_efficiency": 1.0},
    )
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out / "pipeline_report.json")
    assert rep["fidelities"]["final_polarization"] >= 1 - 1e-9
    assert rep["heralds"]["total"] == pytest.approx(1.0)
    assert rep["stats"]["polarization_photons"] == 2


def test_pipeline_default_heralds_below_one(tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "--out", str(out)]) == 0
    rep = read_json(out / "pipeline_report.json")
    assert 0 < rep["heralds"]["total"] < 1
    assert rep["heralds"]["total"] == pytest.approx(
        rep["heralds"]["swap"] * rep["heralds"]["conversion"]
    )


def test_pipeline_simulated_success_is_the_swap_value(tmp_path):
    cfg = write_cfg(tmp_path, swap={"p_success": "simulate"})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["swap", "--config", str(cfg), "--out", str(out)]) == 0
    pipe = read_json(out / "pipeline_report.json")
    p = pipe["stats"]["per_dot_success"]
    assert p == read_json(out / "swap_report.json")["heralds"]["p_longtime"]
    assert pipe["heralds"]["swap"] == p ** pipe["stats"]["n_dots"]


def test_pipeline_memory_stays_two_branch():
    """The ten-dot chain never builds a 4^n rail vector.

    One 4^10 complex vector is 16.8 MB and the dense route held two; the
    two-branch route peaked at 0.13-0.18 MB under tracemalloc (cold and warm
    caches), so 2 MB leaves room for library changes and still catches any
    rail vector past eight dots.
    """
    import tracemalloc

    cfg = default_config()
    cfg = replace(
        cfg,
        register=replace(cfg.register, n_dots=10),
        storage=replace(cfg.storage, kappa=25000.0),
        swap=replace(cfg.swap, p_success=0.95),
    )
    tracemalloc.start()
    try:
        entpipe.runner.run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_pipeline_storage_time_at_zero_loss_is_protects(tmp_path):
    """Storage runs ``rounds * tau_syn`` at every kappa, kappa = 0 included."""
    cfg = write_cfg(tmp_path, storage={"kappa": 0.0})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["protect", "--config", str(cfg), "--out", str(out)]) == 0
    got = read_json(out / "pipeline_report.json")["timing"]["storage_seconds"]
    assert got == read_json(out / "protect_report.json")["timing"]["storage_seconds"] > 0


@pytest.mark.parametrize("kappa", [0.0, 25000.0])
@pytest.mark.parametrize("n_dots", [2, 4, 6, 8, 10])
def test_pipeline_final_fidelity_is_the_storage_fidelity(n_dots, kappa):
    """Swap and conversion carry the stored amplitudes unchanged, so the
    final fidelity, code weight times the two-branch GHZ fidelity, is the
    stored chain's logical fidelity to rounding (4 ulp)."""
    cfg = default_config()
    cfg = replace(
        cfg,
        register=replace(cfg.register, n_dots=n_dots),
        storage=replace(cfg.storage, kappa=kappa),
    )
    fids = entpipe.runner.run_pipeline(cfg).report.fidelities
    final, stored = fids["final_polarization"], fids["storage_logical"]
    assert abs(final - stored) <= 4 * math.ulp(max(final, stored))


def test_pipeline_refuses_a_register_that_is_not_ghz(tmp_path, monkeypatch, capsys):
    # the schedule's state is swapped for the idle |+>^n register, which is
    # not two complementary branches
    monkeypatch.setattr(entpipe.runner, "execute", lambda schedule: plus_register(schedule.n_dots))
    out = tmp_path / "out"
    assert main(["pipeline", "--out", str(out)]) == 4
    assert "[pipeline] NotGhzClassError" in capsys.readouterr().err
    assert not out.exists()


def _states_built_after_execute(monkeypatch, stage, cfg) -> list:
    """Run a stage driver; return the layout of every StateVector built
    after ``execute`` has returned the register."""
    from entpipe.hilbert import StateVector

    executed, built = [], []
    real_execute = entpipe.runner.execute
    real_post_init = StateVector.__post_init__

    def execute(schedule):
        state = real_execute(schedule)
        executed.append(True)
        return state

    def post_init(self):
        if executed:
            built.append(self.layout.dims)
        real_post_init(self)

    monkeypatch.setattr(entpipe.runner, "execute", execute)
    monkeypatch.setattr(StateVector, "__post_init__", post_init)
    stage(cfg)
    assert executed == [True]
    return built


def test_pipeline_builds_no_dense_state_after_the_ghz_fidelity(monkeypatch):
    """From the executed register on, the register is one two-branch value
    through the GHZ fidelity, storage, swap and conversion: no StateVector
    (no dense GHZ reference either) is built."""
    cfg = default_config()
    cfg = replace(
        cfg,
        register=replace(cfg.register, n_dots=10),
        storage=replace(cfg.storage, kappa=25000.0),
        swap=replace(cfg.swap, p_success=0.95),
    )
    assert _states_built_after_execute(monkeypatch, entpipe.runner.run_pipeline, cfg) == []


def test_ghz_stage_builds_no_dense_state_after_execute(monkeypatch):
    """The ghz stage reads its GHZ fidelity from two entries of the executed
    register and builds no dense GHZ reference."""
    cfg = default_config()
    cfg = replace(cfg, register=replace(cfg.register, n_dots=10))
    assert _states_built_after_execute(monkeypatch, entpipe.runner.run_ghz, cfg) == []


@pytest.mark.parametrize(
    "swap",
    [{"gamma2": 0.0}, {"gamma1": 0.0}, {"gamma2": 1e-320}],
    ids=["gamma2_zero", "gamma1_zero", "gamma2_underflow"],
)
def test_pipeline_with_zero_simulated_success_is_exit_2(tmp_path, capsys, swap):
    """A simulated per-dot success of 0 (one channel off, or P underflowing
    to 0) is a config problem for the pipeline; the swap stage still runs."""
    cfg = write_cfg(tmp_path, register={"n_dots": 4}, swap={**swap, "p_success": "simulate"})
    out = tmp_path / "out"
    assert main(["swap", "--config", str(cfg), "--out", str(out / "swap")]) == 0
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg), "--out", str(out / "pipeline")]) == 2
    assert _single_config_error(capsys).startswith("config error: swap.p_success: ")
    assert not (out / "pipeline").exists()


def test_pipeline_rejects_odd_register(tmp_path, capsys):
    cfg = write_cfg(tmp_path, register={"n_dots": 5})
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "even" in capsys.readouterr().err


# ------------------------------------------------------- env and echoes

def test_env_format_override(tmp_path, monkeypatch):
    monkeypatch.setenv("EP_FORMAT", "json")
    cfg = write_cfg(tmp_path, storage={"trajectories": 5})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "protect_trajectories.json").exists()


def test_flag_beats_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("EP_SEED", "111")
    cfg = write_cfg(tmp_path, storage={"trajectories": 3})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--seed", "222"]) == 0
    rep = read_json(out / "protect_report.json")
    assert rep["config"]["run"]["base_seed"] == 222


def test_report_echoes_effective_config(tmp_path):
    cfg = write_cfg(tmp_path, register={"n_dots": 6})
    out = tmp_path / "out"
    assert main(["ghz", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_json(out / "ghz_report.json")
    assert rep["config"]["register"]["n_dots"] == 6
    assert rep["config"]["run"]["out_dir"] == str(out)
    # pool size shapes scheduling only; leaving it out keeps reruns at any
    # worker count byte-identical
    assert "workers" not in rep["config"]["run"]


def test_worker_count_does_not_change_report_bytes(tmp_path):
    cfg = write_cfg(tmp_path, storage={"kappa": 25000.0, "trajectories": 8})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    serial = (out / "protect_report.json").read_bytes()
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 0
    assert (out / "protect_report.json").read_bytes() == serial


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers,n_items,cpus,size",
    [(5000, 10, 4, 4), (5000, 3, 64, 3), (2, 10, 64, 2), (5000, 10, 1, None)],
)
def test_parallel_map_caps_pool_size(monkeypatch, workers, n_items, cpus, size):
    # a forked pool starts all max_workers processes at once, so an oversized
    # request (EP_WORKERS=5000) must shrink to the items and the CPUs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    items = list(range(n_items))
    assert entpipe.runner.parallel_map(abs, items, workers) == items
    assert _RecordingPool.sizes == ([] if size is None else [size])


# ------------------------------------------------------------ exit codes
# No config reaches these failures on its own: at |alpha| = 1e-4 a storage
# run expects under 1e-8 jumps, so it never repumps, and the sweep report's
# fixed reference grid stays inside its recurrence guard.  Each test swaps
# one production piece so that the real error path runs.

def test_convergence_error_is_exit_3(tmp_path, monkeypatch, capsys):
    # every repump is asked for the isometry at |alpha| = 1e-4, where the two
    # decayed odd cats are numerically dependent and _lowdin raises
    real = entpipe.cat_code.recovery_matrix
    monkeypatch.setattr(entpipe.cat_code, "recovery_matrix", lambda spec, _: real(spec, 1e-4))
    cfg = write_cfg(tmp_path, storage={"kappa": 25000.0, "trajectories": 4})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_typed_stage_error_is_exit_4(tmp_path, monkeypatch, capsys):
    # a 64-point reference grid echoes long before the report's t = 6: GridError
    real = entpipe.runner._dimensionless_reference

    def coarse():
        dot, mode, grid, t = real()
        return dot, mode, replace(grid, n_k=64), t

    monkeypatch.setattr(entpipe.runner, "_dimensionless_reference", coarse)
    cfg = write_cfg(
        tmp_path,
        sweep={"d_min": 1.0, "d_max": 3.0, "gamma_min": 1.0, "gamma_max": 3.0,
               "points_per_axis": 2},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 4
    assert "[sweep] GridError: " in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_jump_time_is_exit_3(tmp_path, monkeypatch, capsys):
    real = entpipe.cat_code.brentq

    def one_step(f, xa, xb, xtol, rtol, maxiter=100):
        return real(f, xa, xb, xtol, rtol, maxiter=1)

    monkeypatch.setattr(entpipe.cat_code, "brentq", one_step)
    cfg = write_cfg(tmp_path, storage={"kappa": 25000.0, "trajectories": 10})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 3
    assert "[protect] did not converge: " in capsys.readouterr().err
    assert not out.exists()


def test_protect_at_extreme_loss_is_exit_3(tmp_path, capsys):
    """At kappa = 1e13 the jump-time root's absolute tolerance (1e-16 s) is
    a sizeable fraction of a jump time, and a root placed on a round's end
    breaks the record check: reported as non-convergence in one line, with
    no traceback."""
    cfg = write_cfg(tmp_path, register={"n_dots": 8}, storage={"kappa": 1e13, "trajectories": 50})
    out = tmp_path / "out"
    assert main(["protect", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("[protect] did not converge: "), err
    assert "kappa = 1e+13" in err[0] and "1e-16 s" in err[0]
    assert not out.exists()


# ----------------------------------------------------------- import graph

def test_cli_import_leaves_out_scipy_optimize_and_integrate():
    # a fresh process: this test session has already imported both
    src = Path(entpipe.runner.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys, entpipe.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_scipy_sparse_and_linalg():
    # only the sweep's grid reference needs scipy;
    # scipy.special would also pull in numpy.testing (with unittest),
    # numpy.f2py and charset_normalizer, most of the set-up time
    code = (
        "import sys, entpipe.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in "
        "('numpy.testing', 'numpy.f2py', 'unittest', 'charset_normalizer')))"
    )
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize(
    "stage, doc, loaded",
    [
        ("protect", {"storage": {"kappa": 25000.0, "trajectories": 2}}, []),
        ("ghz", {}, []),
        ("sweep", {"sweep": {"d_min": 1.0, "d_max": 3.0, "gamma_min": 1.0, "gamma_max": 3.0,
                             "points_per_axis": 2}},
         ["scipy.sparse"]),
        ("swap", {}, []),
        ("pipeline", {"swap": {"p_success": "simulate"}}, []),
    ],
)
def test_stage_loads_only_the_scipy_modules_it_uses(tmp_path, stage, doc, loaded):
    # a fresh process runs the stage, so a broken deferred import fails here
    # even though the oracles have loaded every module in this process; a
    # stage that needs none of these loads no scipy module at all
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [stage, "--config", str(cfg), "--out", str(tmp_path / "out"), "--workers", "1"]
    code = (
        f"import sys; from entpipe.cli import main; rc = main({argv!r}); "
        "print(rc, 'scipy' in sys.modules, sorted(m for m in ('scipy.sparse', "
        "'scipy.sparse.linalg', 'scipy.linalg', 'scipy.special') if m in sys.modules))"
    )
    assert _fresh_python(code).splitlines()[-1] == f"0 {bool(loaded)} {loaded}"


def test_cli_import_leaves_out_process_pools():
    # parallel_map imports the pool only when it starts one (--workers 2 and up)
    code = (
        "import sys, entpipe.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    assert _fresh_python(code) == "[]"


def test_module_form_runs_without_runtime_warning():
    # importing the package must not load entpipe.cli before runpy runs it
    # as __main__, or runpy warns (here: fails) on every ``python -m`` run
    src = Path(entpipe.runner.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "entpipe.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "stages:" in proc.stdout


def _fresh_python(code: str) -> str:
    """Standard output of ``python -c code`` in a new process importing this src/."""
    src = Path(entpipe.runner.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
