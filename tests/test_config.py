"""Config parsing, validation, and override precedence."""
import json
from dataclasses import replace

import pytest

from entpipe.config import (
    apply_env,
    apply_flags,
    default_config,
    load_config,
    parse_config,
    serialize,
    validate,
)
from entpipe.errors import ConfigError


def test_defaults_are_valid():
    assert validate(default_config()) == []


def test_serialize_parse_round_trip():
    cfg = default_config()
    doc = serialize(cfg)
    again = parse_config(doc)
    assert again == cfg
    assert serialize(again) == doc


def test_round_trip_preserves_overrides():
    cfg = default_config()
    cfg = replace(cfg, storage=replace(cfg.storage, kappa=123.0, trajectories=7))
    assert parse_config(serialize(cfg)) == cfg


def test_unknown_section_and_key_are_both_reported():
    with pytest.raises(ConfigError) as err:
        parse_config({"register": {"bogus": 1}, "mystery": {}})
    text = "; ".join(err.value.problems)
    assert "bogus" in text
    assert "mystery" in text


def test_type_errors_are_aggregated():
    doc = serialize(default_config())
    doc["register"]["n_dots"] = "four"
    doc["storage"]["alpha"] = "big"
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert len(err.value.problems) >= 2


def test_int_fields_reject_fractions():
    # a float is refused even when its value is a whole number
    for value in (4.5, 4.0, 1e20):
        doc = serialize(default_config())
        doc["register"]["n_dots"] = value
        with pytest.raises(ConfigError):
            parse_config(doc)


@pytest.mark.parametrize(
    "section,key,value,problem",
    [
        ("storage", "kappa", True, "storage.kappa: expected a number, got True"),
        ("swap", "p_success", True, "swap.p_success: expected a number or string, got True"),
        ("swap", "p_success", False, "swap.p_success: expected a number or string, got False"),
    ],
    ids=["kappa_true", "p_success_true", "p_success_false"],
)
def test_booleans_are_not_numbers(section, key, value, problem):
    # float(True) is 1.0; an int field already refuses a boolean
    doc = serialize(default_config())
    doc[section][key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.problems == [problem]


@pytest.mark.parametrize(
    "section,key,value,needle",
    [
        ("register", "n_dots", 1, "n_dots"),
        ("register", "n_dots", 11, "n_dots"),
        ("register", "j1_hz", 0.0, "j1_hz"),
        ("register", "j1_hz", 1e-320, "coupling intervals"),
        ("register", "j2_hz", 1e-320, "coupling intervals"),
        ("register", "j2_hz", 1e308, "coupling intervals"),
        pytest.param(
            "register", None, {"n_dots": 10, "j1_hz": 2.3e-309, "j2_hz": 5e-309},
            "total GHZ time", id="register-total_time_inf",
        ),
        ("storage", "alpha", -1.0, "alpha"),
        ("storage", "n_max", 3, "n_max"),
        ("storage", "tau_syn", 0.0, "tau_syn"),
        ("storage", "tau_syn", 1e308, "rounds * tau_syn"),
        pytest.param("storage", "rounds", 10**400, "rounds * tau_syn", id="storage-rounds-10**400"),
        ("storage", "rounds", 0, "rounds"),
        pytest.param(
            "storage", None, {"kappa": 1e307, "tau_syn": 1.0, "rounds": 1},
            "kappa * rounds * tau_syn * n_max", id="storage-kappa_t_n_max",
        ),
        ("swap", "d", 0.0, "d"),
        ("swap", "p_success", 0.0, "p_success"),
        ("swap", "p_success", "guess", "p_success"),
        ("sweep", "points_per_axis", 1, "points_per_axis"),
        ("sweep", "d_min", 20.0, "d_"),
        ("conversion", "eta_bbo", 1.5, "eta_bbo"),
        ("run", "format", "xml", "format"),
        ("run", "workers", -1, "workers"),
    ],
)
def test_semantic_validation(section, key, value, needle):
    # a row with key None sets several keys of the section at once
    doc = serialize(default_config())
    doc[section].update(value if key is None else {key: value})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any(needle in p for p in err.value.problems)


def test_env_shorthand_overrides():
    cfg = apply_env(
        default_config(),
        {"EP_SEED": "99", "EP_OUT": "elsewhere", "EP_WORKERS": "4", "EP_FORMAT": "json"},
    )
    assert cfg.run.base_seed == 99
    assert cfg.run.out_dir == "elsewhere"
    assert cfg.run.workers == 4
    assert cfg.run.format == "json"


def test_env_section_overrides():
    cfg = apply_env(
        default_config(),
        {"EP_STORAGE__KAPPA": "250.0", "EP_REGISTER__N_DOTS": "6"},
    )
    assert cfg.storage.kappa == 250.0
    assert cfg.register.n_dots == 6


def test_env_swap_success_accepts_number_or_simulate():
    cfg = apply_env(default_config(), {"EP_SWAP__P_SUCCESS": "0.5"})
    assert cfg.swap.p_success == 0.5
    cfg = apply_env(default_config(), {"EP_SWAP__P_SUCCESS": "simulate"})
    assert cfg.swap.p_success == "simulate"


def test_env_unknown_variable_rejected():
    with pytest.raises(ConfigError):
        apply_env(default_config(), {"EP_NOPE": "1"})


def test_env_without_overrides_returns_the_config_itself():
    cfg = replace(default_config(), run=replace(default_config().run, base_seed=5))
    assert apply_env(cfg, {}) is cfg
    assert apply_env(cfg, {"HOME": "/", "PATH": "", "XEP_SEED": "1"}) is cfg
    with pytest.raises(ConfigError):
        apply_env(cfg, {"HOME": "/", "EP_NOPE": "1"})


def test_env_bad_value_rejected():
    with pytest.raises(ConfigError):
        apply_env(default_config(), {"EP_SEED": "not-a-number"})


def test_flags_override_env():
    cfg = apply_env(default_config(), {"EP_SEED": "99", "EP_FORMAT": "json"})
    cfg = apply_flags(cfg, seed=7, fmt="csv")
    assert cfg.run.base_seed == 7
    assert cfg.run.format == "csv"


def test_flags_validate_result():
    with pytest.raises(ConfigError):
        apply_flags(default_config(), workers=-2)


def test_load_config_file_round_trip(tmp_path):
    cfg = default_config()
    cfg = replace(cfg, register=replace(cfg.register, n_dots=6))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(serialize(cfg)))
    assert load_config(path) == cfg


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
