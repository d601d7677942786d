"""Config loading: strict keys, strict types, section plumbing."""

import json

import pytest

from bandlayer.config import load_config, parse_config
from bandlayer.errors import ConfigError
from bandlayer.model import CostKind


def full_raw():
    return {
        "model": {"sigma": 0.02, "omega": 0.1, "lam": 1.0, "rho": 1e-3},
        "costs": {"gamma_lin": 2e-4, "kind": "quadratic", "eta": 1e-6},
        "grid": {"x_min": -0.1, "x_max": 0.1, "nx": 11,
                 "theta_min": -0.01, "theta_max": 0.01, "ntheta": 101},
        "solver": {"max_iters": 50, "convergence_tol": 1e-8},
        "band": {"count": 21},
        "layer": {"x": 0.0, "samples": 501},
        "sweep": {"kind": "eta_shift", "values": [1e-7, 1e-6, 1e-5, 1e-4]},
        "validity": {"gamma_coeff": 0.3, "phi": 0.01,
                     "daily_volume": 1e6, "risk_target": 2e5},
        "check": {},
        "output": {"prefix": "run1_"},
    }


class TestParse:
    def test_full_document_round_trips(self):
        cfg = parse_config(full_raw())
        assert cfg.model.sigma == 0.02
        assert cfg.costs.kind is CostKind.QUADRATIC
        assert cfg.grid.nx == 11
        assert cfg.solver.max_iters == 50
        assert cfg.band.count == 21
        assert cfg.sweep.values == (1e-7, 1e-6, 1e-5, 1e-4)
        assert cfg.validity.phi == 0.01
        assert cfg.output_prefix == "run1_"

    def test_empty_document_gives_empty_config(self):
        cfg = parse_config({})
        assert cfg.model is None and cfg.sweep is None

    def test_unknown_top_level_key_rejected(self):
        raw = full_raw()
        raw["modle"] = raw.pop("model")
        with pytest.raises(ConfigError, match="modle"):
            parse_config(raw)

    @pytest.mark.parametrize("section,key", [
        ("model", "sigmas"), ("costs", "eta2"), ("grid", "nx_fine"),
        ("solver", "tol"), ("sweep", "etas"), ("validity", "vol"),
        # knobs of the removed explicit scheme: an old config must fail
        # loudly rather than have them ignored
        ("solver", "scheme"), ("solver", "pseudo_time_step"),
    ])
    def test_unknown_nested_key_rejected(self, section, key):
        raw = full_raw()
        raw[section][key] = 1.0
        with pytest.raises(ConfigError, match=key):
            parse_config(raw)

    def test_string_where_number_expected(self):
        raw = full_raw()
        raw["model"]["sigma"] = "0.02"
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(raw)

    def test_bool_rejected_as_number(self):
        # JSON true is a bool, which python would happily treat as 1.0
        raw = full_raw()
        raw["model"]["sigma"] = True
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(raw)

    def test_float_where_int_expected(self):
        raw = full_raw()
        raw["grid"]["nx"] = 11.5
        with pytest.raises(ConfigError, match="nx"):
            parse_config(raw)

    def test_section_must_be_table(self):
        raw = full_raw()
        raw["model"] = [1, 2, 3]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_model_invariants_enforced_on_load(self):
        raw = full_raw()
        raw["model"]["sigma"] = -0.02
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_costs_gamma_must_be_positive(self):
        raw = full_raw()
        raw["costs"]["gamma_lin"] = 0.0
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_grid_validated_eagerly(self):
        raw = full_raw()
        raw["grid"]["nx"] = 1
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_cost_kind(self):
        raw = full_raw()
        raw["costs"]["kind"] = "cubic"
        with pytest.raises(ConfigError, match="cubic"):
            parse_config(raw)

    def test_three_halves_kind_parses(self):
        raw = full_raw()
        raw["costs"] = {"gamma_lin": 2e-4, "kind": "three_halves",
                        "zeta": 1e-4}
        cfg = parse_config(raw)
        assert cfg.costs.kind is CostKind.THREE_HALVES
        assert cfg.costs.zeta == 1e-4

    def test_band_both_nodes_and_count_rejected(self):
        raw = full_raw()
        raw["band"] = {"x_nodes": [0.0, 0.1, 0.2], "count": 5}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_sweep_kind_checked(self):
        raw = full_raw()
        raw["sweep"]["kind"] = "zeta_shift"
        with pytest.raises(ConfigError, match="zeta_shift"):
            parse_config(raw)

    def test_sweep_values_required_except_regime(self):
        raw = full_raw()
        del raw["sweep"]["values"]
        with pytest.raises(ConfigError, match="values"):
            parse_config(raw)
        raw["sweep"] = {"kind": "regime"}
        assert parse_config(raw).sweep.kind == "regime"

    def test_need_raises_on_missing_section(self):
        cfg = parse_config({})
        with pytest.raises(ConfigError, match="model"):
            cfg.need("model")


class TestLoad:
    def test_load_round_trip(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(full_raw()))
        cfg = load_config(str(p))
        assert cfg.model.omega == 0.1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "gone.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{model: ")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(p))
