"""End-to-end command tests: exit codes, files written, failure paths.

The dynamic-programming command (hjb) runs on a coarse, fast parameter
point; the exact-band commands (band, layer, sweep, validate, check) run
at the desk point, and so do the regime and eta-shift sweeps, on a small
explicit grid.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bandlayer import band_zero, hjb
from bandlayer.cli import _COMMANDS, EXIT_CONFIG, build_parser, main
from bandlayer.config import load_config
from bandlayer.output import write_csv

DESK = {"sigma": 0.02, "omega": 0.1, "lam": 1.0, "rho": 1e-3}
COARSE = {"sigma": 0.5, "omega": 0.3, "lam": 1.0, "rho": 1.0}


def write_cfg(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestDispatchImports:
    # each command imports the layers it runs when it is dispatched, so a
    # DP process never loads the exact band, its layers, the studies or
    # the scipy stack beneath them
    EXACT_STACK = ("scipy.integrate", "scipy.interpolate", "scipy.special",
                   "scipy.optimize", "bandlayer.band_zero",
                   "bandlayer.asymptotics", "bandlayer.experiments",
                   "bandlayer.special")
    # in a fresh interpreter: import the CLI, load the config, run one
    # command, then print its exit code and every module loaded
    RUN = ("import json, sys\n"
           "import bandlayer.cli as cli\n"
           "from bandlayer.config import load_config\n"
           "load_config(sys.argv[2])\n"
           "rc = cli.main([sys.argv[1], '--config', sys.argv[2], '--out',"
           " sys.argv[3], '--quiet'])\n"
           "print(json.dumps([rc, sorted(sys.modules)]))\n")

    def loaded_modules(self, tmp_path, command, doc):
        src = str(Path(hjb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.RUN, command,
             write_cfg(tmp_path, doc), str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, modules = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        return set(modules)

    def test_hjb_loads_no_exact_stack(self, tmp_path):
        modules = self.loaded_modules(tmp_path, "hjb", {
            "model": COARSE,
            "costs": {"gamma_lin": 0.05, "kind": "quadratic", "eta": 0.05},
            "grid": {"x_min": -1.29, "x_max": 1.29, "nx": 7,
                     "theta_min": -0.6, "theta_max": 0.6, "ntheta": 25}})
        assert "bandlayer.hjb" in modules
        loaded = [m for m in self.EXACT_STACK if m in modules]
        assert not loaded, f"hjb loaded {loaded}"

    def test_band_loads_the_band(self, tmp_path):
        modules = self.loaded_modules(tmp_path, "band", {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "band": {"count": 5}})
        assert "bandlayer.band_zero" in modules


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

    def test_every_subcommand_has_help_text(self):
        lines = build_parser().format_help().splitlines()
        for name in _COMMANDS:
            line = next((ln.split() for ln in lines
                         if ln.split()[:1] == [name]), [])
            assert len(line) > 1, f"no help text for {name!r}"

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4}})
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["band", "--config", cfg, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


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

    def test_infinite_gamma_is_config_error(self, tmp_path, capsys):
        # json writes inf as the literal Infinity, which json.load accepts
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": float("inf")}})
        assert main(["band", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [-1, 0, 2])
    def test_band_count_below_three_is_config_error(self, tmp_path, capsys,
                                                    count):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "band": {"count": count}})
        assert main(["band", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "band.count must be >= 3" in capsys.readouterr().err

    def test_missing_model_section(self, tmp_path):
        cfg = write_cfg(tmp_path, {"costs": {"gamma_lin": 2e-4}})
        assert main(["band", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_overflowing_domain_exits_4(self, tmp_path, capsys):
        # +-1.5 is 22 stationary deviations: the homogeneous pass overflows
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "band": {"x_nodes": np.linspace(-1.5, 1.5, 31).tolist()}})
        assert main(["band", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: ")
        assert "overflows on span" in err

    def test_flat_band_from_zero_omega(self, tmp_path):
        flat = dict(DESK, omega=0.0)
        cfg = write_cfg(tmp_path, {
            "model": flat, "costs": {"gamma_lin": 2e-4},
            "band": {"count": 11}})
        out = str(tmp_path / "o")
        assert main(["band", "--config", cfg, "--out", out, "--quiet"]) == 0
        t = read_csv(os.path.join(out, "band.csv"))
        assert np.ptp(t["theta_plus"]) == 0.0

    def test_flat_band_on_default_nodes(self, tmp_path):
        # no band section: the default x range must not need a
        # stationary distribution, which omega = 0 does not have
        cfg = write_cfg(tmp_path, {
            "model": dict(DESK, omega=0.0), "costs": {"gamma_lin": 2e-4}})
        out = str(tmp_path / "o")
        assert main(["band", "--config", cfg, "--out", out, "--quiet"]) == 0
        t = read_csv(os.path.join(out, "band.csv"))
        assert t["x"][0] == -1.0 and t["x"][-1] == 1.0
        assert np.ptp(t["theta_plus"]) == 0.0
        np.testing.assert_array_equal(t["theta_minus"], t["theta_plus"])


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
        # the summary names the balance exponent q = 1.5 / (1.5 - 1)
        summary = Path(out, "layer_abel_summary.txt").read_text()
        assert summary.splitlines()[0].split() == ["power", "3"]

    def test_zero_y_max_is_config_error(self, tmp_path):
        # 0 must not be mistaken for "unset" and replaced by the default
        cfg = write_cfg(tmp_path, {
            "model": DESK,
            "costs": {"gamma_lin": 2e-4, "kind": "quadratic", "eta": 1e-6},
            "layer": {"y_max": 0.0}})
        out = str(tmp_path / "o")
        assert main(["layer", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert not os.path.exists(os.path.join(out, "layer_airy.csv"))

    @pytest.mark.parametrize("x, code", [(0.3, 0), (0.5, 3)],
                             ids=["inside_padding", "outside"])
    def test_x_must_lie_in_solved_domain(self, tmp_path, capsys, x, code):
        # the default grid spans +-0.268, padded to +-0.349 for the pair
        cfg = write_cfg(tmp_path, {
            "model": DESK,
            "costs": {"gamma_lin": 2e-4, "kind": "quadratic", "eta": 1e-6},
            "layer": {"x": x, "samples": 101}})
        out = str(tmp_path / "o")
        assert main(["layer", "--config", cfg, "--out", out, "--quiet"]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("domain error: ")
            assert "outside the band's solved domain" in err

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

    def test_field_matches_float_columns(self, tmp_path):
        # the axes are written from strings formatted once per node; the
        # file must equal write_csv run on the float columns, byte for byte
        cfg = write_cfg(tmp_path, self.base_doc())
        out = tmp_path / "o"
        assert main(["hjb", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        run = load_config(cfg)
        grid = run.grid
        vg = hjb.solve_hjb(run.need("model"), run.need("costs"), grid,
                           run.solver)
        ref = tmp_path / "ref.csv"
        write_csv(str(ref), ["x", "theta", "value", "speed"],
                  [np.repeat(grid.x_nodes, grid.ntheta),
                   np.tile(grid.theta_nodes, grid.nx),
                   vg.V.ravel(), vg.v.ravel()])
        assert (out / "field.csv").read_bytes() == ref.read_bytes()

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

    def test_regime_values_are_config_error(self, tmp_path, capsys):
        # the regime sweep solves one eta and would ignore the list
        cfg = write_cfg(tmp_path, {
            "model": DESK,
            "costs": {"gamma_lin": 2e-4, "kind": "quadratic", "eta": 1e-4},
            "sweep": {"kind": "regime", "values": [1e-4, 1e-5]}})
        assert main(["sweep", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        assert "takes no sweep.values" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_narrow_span_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "sweep": {"kind": "eta_shift",
                      "values": [1e-6, 2e-6, 3e-6, 4e-6]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_gamma_width_overflow_exits_4(self, tmp_path, capsys):
        # gamma 1e-1 overflows the pair at the widest pad retry and is
        # excluded, which leaves too few widths to fit
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "sweep": {"kind": "gamma_width", "x": 0.1,
                      "values": [2e-4, 2e-3, 2e-2, 1e-1]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "fewer than 4 usable widths" in capsys.readouterr().err

    def test_exclusion_is_written_once(self, tmp_path):
        # gamma 1e-1 overflows at every pad and is excluded; the summary
        # names it on one line, and no other line mentions an exclusion
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "sweep": {"kind": "gamma_width", "x": 0.1,
                      "values": [2e-5, 2e-4, 2e-3, 2e-2, 1e-1]}})
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "gamma_width_summary.txt").read_text().splitlines()
        excluded = [line for line in lines if "exclu" in line]
        assert len(excluded) == 1, lines
        assert excluded[0].startswith("warning: excluded 0.1: band not found")

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
        np.testing.assert_allclose(
            t["ratio"], t["width"] / t["predicted_width"], rtol=1e-15)
        summary = Path(os.path.join(out, "gamma_width_summary.txt")).read_text()
        assert "slope" in summary
        assert os.path.exists(os.path.join(out, "gamma_width.gp"))

    def test_eta_shift_sweep_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "grid": {"x_min": -0.134, "x_max": 0.134, "nx": 11,
                     "theta_min": -7.5e-3, "theta_max": 7.5e-3,
                     "ntheta": 301},
            "solver": {"max_iters": 200, "convergence_tol": 1e-9},
            "sweep": {"kind": "eta_shift",
                      "values": [1e-7, 1e-6, 1e-5, 1e-4]}})
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        t = read_csv(str(out / "eta_shift.csv"))
        assert t.shape[0] == 4
        summary = (out / "eta_shift_summary.txt").read_text().splitlines()
        fields = dict(line.split(None, 1) for line in summary
                      if not line.startswith("note:"))
        assert np.isfinite(float(fields["slope"]))
        assert fields["points"] == "4"
        assert any(line.startswith("note: fitted zero-cost onset theta0 ")
                   for line in summary)
        assert (out / "eta_shift.gp").exists()

    def test_regime_sweep_end_to_end(self, tmp_path):
        # x = 0.02 is off the grid's nodes, and the upper onset at the
        # nearest node (x = 0.0268) is below theta = 0
        for x in (0.0, 0.02):
            cfg = write_cfg(tmp_path, {
                "model": DESK,
                "costs": {"gamma_lin": 2e-4, "kind": "quadratic",
                          "eta": 1e-4},
                "grid": {"x_min": -0.134, "x_max": 0.134, "nx": 11,
                         "theta_min": -7.5e-3, "theta_max": 7.5e-3,
                         "ntheta": 301},
                "sweep": {"kind": "regime", "x": x}})
            out = tmp_path / f"o{x:g}"
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
            lines = (out / "regime.csv").read_text().splitlines()
            assert lines[0] == "theta,speed,composite,zone"
            assert len(lines) == 1 + 301
            zones = {line.rsplit(",", 1)[1] for line in lines[1:]}
            assert "NT" in zones and zones <= {"NT", "BUY", "LAYER", "SQRT",
                                               "LINEAR", "?"}
            summary = (out / "regime_summary.txt").read_text().splitlines()
            keys = [line.split()[0] for line in summary
                    if not line.startswith("note:")]
            assert keys == ["x", "eta", "boundary", "layer_slope",
                            "sqrt_slope", "linear_slope", "layer_width",
                            "layer_width_predicted", "crossover",
                            "crossover_predicted"]
            assert (out / "regime.gp").exists()


class TestValidate:
    VALIDITY = {"gamma_coeff": 0.3, "daily_volume": 1e6}

    def test_report_written(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": DESK, "costs": {"gamma_lin": 2e-4},
            "validity": self.VALIDITY})
        out = tmp_path / "o"
        assert main(["validate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        report = (out / "validity.txt").read_text().splitlines()
        assert [line.split()[0] for line in report] == [
            "eta_implied", "gauge", "inside_domain"]

    def test_removed_key_is_config_error(self, tmp_path, capsys):
        # the risk target and phi fed only the restated forms, which are
        # gone
        for key, value in (("risk_target", 1e4), ("phi", 0.01)):
            cfg = write_cfg(tmp_path, {
                "model": DESK, "costs": {"gamma_lin": 2e-4},
                "validity": {**self.VALIDITY, key: value}})
            assert main(["validate", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
            assert f"'{key}'" in capsys.readouterr().err


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
        # every diagnostic of the check reads the band's own Green's data
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
