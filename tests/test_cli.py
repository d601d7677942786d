"""End-to-end command tests: exit codes, files written, failure paths.

The dynamic-programming command (hjb) runs on a coarse, fast parameter
point; the exact-band commands (band, layer, sweep, validate, check) run
at the desk point.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from bandlayer import band_zero
from bandlayer.cli import main

DESK = {"sigma": 0.02, "omega": 0.1, "lam": 1.0, "rho": 1e-3}
COARSE = {"sigma": 0.5, "omega": 0.3, "lam": 1.0, "rho": 1.0}


def write_cfg(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestParsing:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main(["polish"])
        assert e.value.code == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["band", "--config", str(tmp_path / "gone.json")])
        assert rc == 2

    def test_malformed_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert main(["band", "--config", str(p)]) == 2


class TestBand:
    def test_writes_csv_with_requested_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "band": {"count": 31}})
        out = str(tmp_path / "out")
        assert main(["band", "--config", cfg, "--out", out, "--quiet"]) == 0
        t = read_csv(os.path.join(out, "band.csv"))
        assert t.shape[0] == 31
        # boundaries track the ideal position, which changes sign across
        # the domain; only the width is sign-definite
        assert np.all(t["width"] > 0)
        mid = t["theta_plus"][15]
        assert mid > 0 and abs(mid - t["width"][15] / 2) < t["width"][15]
        d = np.diff(t["theta_plus"])
        assert np.all(d < 0) or np.all(d > 0)

    def test_gamma_nonpositive_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": -1e-4}})
        assert main(["band", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_model_section(self, tmp_path):
        cfg = write_cfg(tmp_path, {"costs": {"gamma_lin": 2e-4}})
        assert main(["band", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_flat_band_from_zero_omega(self, tmp_path):
        flat = dict(DESK, omega=0.0)
        cfg = write_cfg(tmp_path, {
            "model": flat, "costs": {"gamma_lin": 2e-4},
            "band": {"count": 11}})
        out = str(tmp_path / "o")
        assert main(["band", "--config", cfg, "--out", out, "--quiet"]) == 0
        t = read_csv(os.path.join(out, "band.csv"))
        assert np.ptp(t["theta_plus"]) == 0.0


class TestLayer:
    def test_quadratic_profile_starts_at_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK,
            "costs": {"gamma_lin": 2e-4, "kind": "quadratic", "eta": 1e-6},
            "layer": {"x": 0.0, "samples": 301}})
        out = str(tmp_path / "o")
        assert main(["layer", "--config", cfg, "--out", out, "--quiet"]) == 0
        t = read_csv(os.path.join(out, "layer_airy.csv"))
        assert t.shape[0] == 301
        assert t["y"][0] == 0.0 and t["profile"][0] == 0.0
        assert np.all(np.diff(t["profile"]) > 0)

    def test_three_halves_profile(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK,
            "costs": {"gamma_lin": 2e-4, "kind": "three_halves",
                      "zeta": 1e-4},
            "layer": {"samples": 201}})
        out = str(tmp_path / "o")
        assert main(["layer", "--config", cfg, "--out", out, "--quiet"]) == 0
        t = read_csv(os.path.join(out, "layer_abel.csv"))
        assert t["profile"][0] == 0.0
        assert np.all(t["profile"][1:] > 0)

    def test_flat_band_degeneracy_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": dict(DESK, omega=0.0),
            "costs": {"gamma_lin": 2e-4, "kind": "quadratic", "eta": 1e-6},
            "layer": {}})
        assert main(["layer", "--config", cfg, "--out", str(tmp_path)]) == 3


class TestHjb:
    def base_doc(self, **solver):
        return {
            "model": COARSE,
            "costs": {"gamma_lin": 0.05, "kind": "quadratic", "eta": 0.05},
            "grid": {"x_min": -1.29, "x_max": 1.29, "nx": 21,
                     "theta_min": -0.6, "theta_max": 0.6, "ntheta": 121},
            "solver": dict({"max_iters": 120, "convergence_tol": 1e-8},
                           **solver),
        }

    def test_solves_and_writes_all_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, self.base_doc())
        out = str(tmp_path / "o")
        assert main(["hjb", "--config", cfg, "--out", out, "--quiet"]) == 0
        field = read_csv(os.path.join(out, "field.csv"))
        assert field.shape[0] == 21 * 121
        band = read_csv(os.path.join(out, "hjb_band.csv"))
        assert band.shape[0] == 21
        assert np.any(band["plus_found"] == 1.0)
        res = read_csv(os.path.join(out, "residuals.csv"))
        assert res.shape[0] >= 1
        assert res["max_update"][-1] <= res["max_update"][0]

    def test_non_convergence_exits_4(self, tmp_path):
        cfg = write_cfg(tmp_path, self.base_doc(max_iters=1))
        assert main(["hjb", "--config", cfg, "--out", str(tmp_path)]) == 4

    def test_huge_gamma_gives_empty_band_mask(self, tmp_path):
        doc = self.base_doc()
        doc["costs"]["gamma_lin"] = 500.0
        cfg = write_cfg(tmp_path, doc)
        out = str(tmp_path / "o")
        assert main(["hjb", "--config", cfg, "--out", out, "--quiet"]) == 0
        band = read_csv(os.path.join(out, "hjb_band.csv"))
        assert np.all(band["plus_found"] == 0.0)
        assert np.all(np.isnan(band["band_plus"]))


class TestSweep:
    def test_single_point_sweep_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "sweep": {"kind": "eta_shift", "values": [1e-6]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_narrow_span_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "sweep": {"kind": "eta_shift",
                      "values": [1e-6, 2e-6, 3e-6, 4e-6]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_gamma_width_sweep_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "sweep": {"kind": "gamma_width",
                      "values": [2e-5, 2e-4, 2e-3, 2e-2]}})
        out = str(tmp_path / "o")
        assert main(["sweep", "--config", cfg, "--out", out, "--quiet"]) == 0
        t = read_csv(os.path.join(out, "gamma_width.csv"))
        assert t.shape[0] == 4
        assert np.all(np.diff(t["width"]) > 0)
        summary = Path(os.path.join(out, "gamma_width_summary.txt")).read_text()
        assert "slope" in summary
        assert os.path.exists(os.path.join(out, "gamma_width.gp"))


class TestValidate:
    def test_report_written(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "validity": {"gamma_coeff": 0.3, "phi": 0.01,
                         "daily_volume": 1e6, "risk_target": 1e4}})
        out = str(tmp_path / "o")
        assert main(["validate", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        text = Path(os.path.join(out, "validity.txt")).read_text()
        assert "threshold" in text and "margin_decades" in text


@pytest.mark.slow
class TestCheck:
    def desk_doc(self):
        return {"model": DESK, "costs": {"gamma_lin": 2e-4, "eta": 1e-6,
                                         "kind": "quadratic"}}

    def test_desk_point_all_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, self.desk_doc())
        out = str(tmp_path / "o")
        assert main(["check", "--config", cfg, "--out", out, "--quiet"]) == 0
        report = Path(os.path.join(out, "check_report.txt")).read_text()
        assert "FAIL" not in report
        assert report.count("PASS") == 5

    def test_solves_homogeneous_pair_once(self, tmp_path, monkeypatch):
        # the band reuses the Green's data the check builds for itself
        calls = []
        solve = band_zero.solve_homogeneous

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(band_zero, "solve_homogeneous", counting)
        cfg = write_cfg(tmp_path, self.desk_doc())
        assert main(["check", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 0
        assert len(calls) == 1

    def test_gamma_zero_is_config_error(self, tmp_path):
        doc = self.desk_doc()
        doc["costs"]["gamma_lin"] = 0.0
        cfg = write_cfg(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_perturbed_layer_table_fails(self, tmp_path):
        # generate an authentic profile, corrupt it by 1%, feed it back
        doc = self.desk_doc()
        doc["layer"] = {"samples": 401}
        cfg = write_cfg(tmp_path, doc)
        out = str(tmp_path / "o")
        assert main(["layer", "--config", cfg, "--out", out, "--quiet"]) == 0
        src = os.path.join(out, "layer_airy.csv")
        t = read_csv(src)
        bad = os.path.join(out, "perturbed.csv")
        with open(bad, "w") as fh:
            fh.write("y,profile,profile_slope\n")
            for y, f, fs in zip(t["y"], t["profile"] * 1.01,
                                t["profile_slope"]):
                fh.write(f"{y!r},{f!r},{fs!r}\n")
        doc["check"] = {"layer_table": bad}
        cfg2 = write_cfg(tmp_path, doc, "check.json")
        rc = main(["check", "--config", cfg2, "--out", out, "--quiet"])
        assert rc == 1
        report = Path(os.path.join(out, "check_report.txt")).read_text()
        assert "FAIL" in report and "residual" in report
