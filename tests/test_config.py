"""Config loading: strict keys, strict types, section plumbing."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from bandlayer.config import _SECTIONS, SweepSpec, load_config, parse_config
from bandlayer.errors import ConfigError
from bandlayer.hjb import SolverConfig


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
        "validity": {"gamma_coeff": 0.3, "daily_volume": 1e6},
        "output": {"prefix": "run1_"},
    }


class TestParse:
    def test_full_document_round_trips(self):
        cfg = parse_config(full_raw())
        assert cfg.model.sigma == 0.02
        assert (cfg.costs.coeff, cfg.costs.power) == (1e-6, 2.0)
        assert cfg.grid.nx == 11
        assert cfg.solver.max_iters == 50
        assert cfg.band.count == 21
        assert cfg.sweep.values == (1e-7, 1e-6, 1e-5, 1e-4)
        assert cfg.validity.daily_volume == 1e6
        assert cfg.output_prefix == "run1_"

    def test_empty_document_gives_empty_config(self):
        cfg = parse_config({})
        assert cfg.model is None and cfg.sweep is None

    def test_unknown_top_level_key_rejected(self):
        raw = full_raw()
        raw["modle"] = raw.pop("model")
        with pytest.raises(ConfigError, match="modle"):
            parse_config(raw)
        # check always judges the profile it computes, so the section
        # that named an external layer table is gone
        raw = dict(full_raw(), check={})
        with pytest.raises(ConfigError, match="'check'"):
            parse_config(raw)

    @pytest.mark.parametrize("section,key", [
        ("model", "sigmas"), ("costs", "eta2"), ("grid", "nx_fine"),
        ("solver", "tol"), ("sweep", "etas"), ("validity", "vol"),
        # knobs of the removed explicit scheme: an old config must fail
        # loudly rather than have them ignored
        ("solver", "scheme"), ("solver", "pseudo_time_step"),
        # knobs that became constants: the same holds for them
        ("solver", "eta_floor"), ("solver", "velocity_cap_factor"),
        ("solver", "band_threshold"), ("sweep", "crossing_cells"),
        # phi fed only the restated validity forms, which are gone
        ("validity", "phi"),
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"),
                                       pytest.param(10 ** 400, id="1e400")])
    def test_non_finite_number_rejected(self, value):
        raw = full_raw()
        raw["costs"]["gamma_lin"] = value
        with pytest.raises(ConfigError, match="costs.gamma_lin"):
            parse_config(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_list_entry_rejected(self, value):
        raw = full_raw()
        raw["sweep"]["values"][2] = value
        with pytest.raises(ConfigError, match=r"sweep\.values\[2\]"):
            parse_config(raw)

    def test_non_finite_literals_rejected_on_load(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text('{"solver": {"convergence_tol": Infinity}}')
        with pytest.raises(ConfigError, match="convergence_tol"):
            load_config(str(p))

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
        assert (cfg.costs.coeff, cfg.costs.power) == (1e-4, 1.5)

    def test_rejects_wrong_coefficient(self):
        # eta and zeta are the coefficients of the two kinds; the other
        # kind's coefficient must be 0, the default kind quadratic included
        raw = full_raw()
        for costs in ({"kind": "quadratic", "zeta": 1e-6}, {"zeta": 1e-6},
                      {"kind": "three_halves", "eta": 1e-6}):
            raw["costs"] = {"gamma_lin": 2e-4, **costs}
            with pytest.raises(ConfigError, match="must be 0 when kind is"):
                parse_config(raw)

    def test_band_both_nodes_and_count_rejected(self):
        raw = full_raw()
        raw["band"] = {"x_nodes": [0.0, 0.1, 0.2], "count": 5}
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("y_max", [0.0, -1.0, float("nan")])
    def test_layer_y_max_must_be_positive(self, y_max):
        raw = full_raw()
        raw["layer"]["y_max"] = y_max
        with pytest.raises(ConfigError, match="layer.y_max"):
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

    def test_integer_past_the_digit_limit(self, tmp_path):
        # python's json refuses integers over 4300 digits with ValueError
        p = tmp_path / "long.json"
        p.write_text('{"grid": {"nx": 1' + "0" * 5000 + "}}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(p))


# each section's required keys, with values its builder accepts
REQUIRED_ONLY = {
    "model": {"sigma": 0.02, "omega": 0.1, "lam": 1.0, "rho": 1e-3},
    "costs": {"gamma_lin": 2e-4},
    "grid": {"x_min": -0.1, "x_max": 0.1, "nx": 11,
             "theta_min": -0.01, "theta_max": 0.01, "ntheta": 101},
    "solver": {},
    "band": {},
    "layer": {},
    "sweep": {"kind": "regime"},
    "validity": {"gamma_coeff": 0.3, "daily_volume": 1e6},
    "output": {},
}


def _comparable(obj):
    """A built object's fields as plain lists, so array fields compare."""
    if not dataclasses.is_dataclass(obj):
        return obj
    return {f.name: np.asarray(getattr(obj, f.name)).tolist()
            for f in dataclasses.fields(obj)}


class TestSchema:
    """Each section's keys are exactly its builder's parameters, and a key
    left out takes the builder's own default, so the two cannot drift
    apart."""

    @pytest.mark.parametrize("name", sorted(_SECTIONS))
    def test_keys_are_the_builders_parameters(self, name):
        build, types, _ = _SECTIONS[name]
        assert set(types) == set(inspect.signature(build).parameters)

    @pytest.mark.parametrize("name", sorted(_SECTIONS))
    def test_absent_keys_take_the_builders_defaults(self, name):
        build, _, required = _SECTIONS[name]
        sec = REQUIRED_ONLY[name]
        assert set(sec) == set(required)
        cfg = parse_config({name: sec})
        got = cfg.output_prefix if name == "output" else getattr(cfg, name)
        assert _comparable(got) == _comparable(build(**sec))

    def test_sweep_kind_required(self):
        with pytest.raises(ConfigError, match="missing required key 'kind'"):
            parse_config({"sweep": {"values": [1e-7, 1e-6]}})

    def test_solver_section_names_every_field(self):
        sec = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
        assert parse_config({"solver": sec}).solver == SolverConfig()

    def test_sweep_section_names_every_field(self):
        sec = {"kind": "eta_shift", "values": [1e-7, 1e-6, 1e-5, 1e-4],
               "x": 0.0}
        assert set(sec) == {f.name for f in dataclasses.fields(SweepSpec)}
        assert parse_config({"sweep": sec}).sweep == SweepSpec(
            kind="eta_shift", values=(1e-7, 1e-6, 1e-5, 1e-4))
