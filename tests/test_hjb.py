"""Tests for the finite-difference dynamic-programming solver.

Oracle strategy, by class:

* TestClosedFormNoTrade: when the linear cost is so large that trading is
  never optimal, the stationary value function has an exact closed form
  (quadratic in position, bilinear in signal).  The solver must reproduce
  it to near machine precision, since the discrete operator is exact on
  that polynomial.
* TestDiscreteResidual: the policy solution must satisfy the discrete
  equation rho V - r - H - L_x V = 0, evaluated by a slice-based numpy
  residual written here from scratch (its own x-stencil and closed-form
  Hamiltonian; nothing of the solver's sparse operator).  One grid runs
  both the centered and the upwind x-advection branch; on it the
  assembled matrix must also have the sign pattern of a monotone scheme.
* TestControlFormula: the reported speed must maximize the pointwise
  Hamiltonian; the test recomputes the maximizer from the final value
  surface using the closed-form first-order condition.
* Everything else checks interface contracts and qualitative properties
  (monotone cost effects, symmetry, residual bounds) that hold regardless
  of discretization details.
"""

import itertools
import math
import re
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from bandlayer.errors import ConfigError, ConvergenceError, DomainError
from bandlayer.model import CostParams, Grid2D, ModelParams, stationary_std
from bandlayer import asymptotics, experiments, hjb
from bandlayer.special import fd_weights
from conftest import shift_law


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def desk_params():
    return ModelParams(sigma=0.02, omega=0.1, lam=1.0, rho=1e-3)


@pytest.fixture(scope="module")
def coarse_grid():
    # x spans 3 stationary sigmas, theta comfortably brackets the band
    return Grid2D.regular(-0.134, 0.134, 31, -7.5e-3, 7.5e-3, 751)


@pytest.fixture(scope="module")
def desk_solve(desk_params, coarse_grid):
    costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
    return hjb.solve_hjb(desk_params, costs, coarse_grid,
                         hjb.SolverConfig(max_iters=200))


# ------------------------------------------------------- config validation


class TestConfigValidation:
    def test_defaults_accepted(self):
        hjb.SolverConfig()

    # the ids are fixed so that a case keeps its name when others are
    # added or removed (kwargs2-5, 7 and 8 were cases on fields that are
    # now the hjb constants)
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"max_iters": 0}, id="kwargs0"),
            pytest.param({"convergence_tol": 0.0}, id="kwargs1"),
            # a JSON config can carry NaN; the range checks must reject it
            pytest.param({"convergence_tol": float("nan")}, id="kwargs6"),
            # an iteration count must be an integer, and a bool is not one
            pytest.param({"max_iters": float("nan")}, id="kwargs9"),
            pytest.param({"max_iters": 2.5}, id="kwargs10"),
            pytest.param({"max_iters": True}, id="kwargs11"),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            hjb.SolverConfig(**kwargs)

    def test_eta_below_floor_rejected(self, desk_params):
        grid = Grid2D.regular(-0.1, 0.1, 5, -1e-3, 1e-3, 11)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-12)
        with pytest.raises(ConfigError):
            hjb.solve_hjb(desk_params, costs, grid)

    def test_three_halves_needs_zeta(self, desk_params):
        # the coefficient floor holds at every power
        grid = Grid2D.regular(-0.1, 0.1, 5, -1e-3, 1e-3, 11)
        for zeta in (0.0, 1e-12):
            costs = CostParams(gamma_lin=2e-4, coeff=zeta, power=1.5)
            with pytest.raises(ConfigError, match="below ETA_FLOOR"):
                hjb.solve_hjb(desk_params, costs, grid)

    def test_initial_guess_shape_checked(self, desk_params):
        grid = Grid2D.regular(-0.1, 0.1, 5, -1e-3, 1e-3, 11)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        with pytest.raises(ConfigError):
            hjb.solve_hjb(desk_params, costs, grid, initial=np.zeros((3, 3)))

    def test_initial_guess_must_be_finite(self, desk_params):
        # a NaN used to reach the policy cast and then SuperLU, which
        # failed with a bare "Factor is exactly singular"
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 101)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        initial = hjb._nt_initial(desk_params, grid)
        initial[5, 50] = np.nan
        with pytest.raises(ConfigError, match="1 non-finite"):
            hjb.solve_hjb(desk_params, costs, grid, initial=initial)

    def test_nonuniform_grid_rejected(self):
        # the scheme assumes one step per axis; a grid with any other
        # nodes is refused when it is built, before any solve
        x = np.array([-0.1, -0.02, 0.0, 0.02, 0.1])
        t = np.linspace(-1e-3, 1e-3, 11)
        with pytest.raises(ConfigError, match="x nodes must be uniformly"):
            Grid2D(x_nodes=x, theta_nodes=t)


# -------------------------------------------------- closed-form oracle


class TestClosedFormNoTrade:
    """With a prohibitive linear cost the exact value function is

        V(theta, x) = -(lam/rho) theta^2 - (Omega/(rho+Omega)) x theta

    (stationary solution with zero trading).  The discrete generator is
    exact on polynomials of this form, so the solver should match it to
    rounding error, trade nowhere, and find no band boundary inside the
    grid.
    """

    def _exact(self, p, grid):
        th = grid.theta_nodes[None, :]
        x = grid.x_nodes[:, None]
        return -(p.lam / p.rho) * th**2 - (p.omega / (p.rho + p.omega)) * x * th

    def test_matches_closed_form(self, desk_params):
        grid = Grid2D.regular(-0.134, 0.134, 21, -0.05, 0.05, 41)
        costs = CostParams(gamma_lin=500.0, coeff=1e-4)
        vg = hjb.solve_hjb(desk_params, costs, grid)
        exact = self._exact(desk_params, grid)
        scale = np.abs(exact).max()
        assert np.abs(vg.V - exact).max() <= 1e-9 * scale
        assert np.all(vg.v == 0.0)

    def test_band_masked_when_no_crossing(self, desk_params):
        grid = Grid2D.regular(-0.134, 0.134, 21, -0.05, 0.05, 41)
        costs = CostParams(gamma_lin=500.0, coeff=1e-4)
        vg = hjb.solve_hjb(desk_params, costs, grid)
        assert np.all(np.isnan(vg.band_plus))
        assert np.all(np.isnan(vg.band_minus))

    def test_one_sided_slopes_within_linear_cost(self, desk_params):
        # in the no-trade region the scheme keeps both one-sided
        # differences inside [-Gamma, Gamma] by construction: both node
        # slacks stay below 1e-3 Gamma, and the missing candidates at the
        # theta edges are disabled
        grid = Grid2D.regular(-0.134, 0.134, 21, -0.05, 0.05, 41)
        costs = CostParams(gamma_lin=500.0, coeff=1e-4)
        vg = hjb.solve_hjb(desk_params, costs, grid)
        buy, sell = hjb._slacks(vg.V, grid.htheta, costs.gamma_lin)
        tol = 1e-3 * costs.gamma_lin
        assert np.all(buy[:, :-1] <= tol)
        assert np.all(sell[:, 1:] <= tol)
        assert np.all(buy[:, -1] == -np.inf)
        assert np.all(sell[:, 0] == -np.inf)


# ------------------------------------------------------ solved-field checks


class TestSolvedField:
    def test_residual_bound(self, desk_solve):
        # converged Bellman residual small relative to the value scale
        scale = max(1.0, np.abs(desk_solve.V).max())
        assert desk_solve.residual <= 10 * 1e-9 * scale

    def test_no_trade_slopes_bounded(self, desk_solve, coarse_grid):
        gamma = 2e-4
        buy, sell = hjb._slacks(desk_solve.V, coarse_grid.htheta, gamma)
        quiet = desk_solve.v == 0.0
        tol = 1e-3 * gamma
        assert np.all(buy[quiet] <= tol)
        assert np.all(sell[quiet] <= tol)

    def test_antisymmetry(self, desk_solve):
        # invariance under (theta, x) -> (-theta, -x)
        V = desk_solve.V
        flipped = V[::-1, ::-1]
        scale = np.abs(V).max()
        assert np.abs(V - flipped).max() <= 1e-6 * scale

    def test_velocity_sign(self, desk_solve, coarse_grid):
        # selling above the band, buying below
        v = desk_solve.v
        th = coarse_grid.theta_nodes[None, :]
        bp = desk_solve.band_plus[:, None]
        bm = desk_solve.band_minus[:, None]
        sell = v[(th > bp + 2 * coarse_grid.htheta) & np.isfinite(bp)]
        buy = v[(th < -bm - 2 * coarse_grid.htheta) & np.isfinite(bm)]
        assert np.all(sell <= 0)
        assert np.all(buy >= 0)

    def test_control_formula(self, desk_solve, coarse_grid):
        # the reported speed maximizes -Gamma|v| - eta v^2 + slope * v,
        # priced on the one-sided difference in the direction of trade
        gamma, eta = 2e-4, 1e-4
        s_buy, s_sell = hjb._slacks(desk_solve.V, coarse_grid.htheta, gamma)
        v = desk_solve.v
        sell = v < 0
        buy = v > 0
        v_sell = np.minimum(-s_sell / (2 * eta), 0.0)
        v_buy = np.maximum(s_buy / (2 * eta), 0.0)
        assert np.allclose(v[sell], v_sell[sell], rtol=1e-10, atol=1e-12)
        assert np.allclose(v[buy], v_buy[buy], rtol=1e-10, atol=1e-12)


# ------------------------------------------------------- cost monotonicity


class TestCostMonotonicity:
    GRID = Grid2D.regular(-0.134, 0.134, 31, -7.5e-3, 7.5e-3, 751)

    def _width(self, params, costs):
        vg = hjb.solve_hjb(params, costs, self.GRID)
        i0 = self.GRID.nx // 2
        assert np.isfinite([vg.band_plus[i0], vg.band_minus[i0]]).all()
        return vg.band_plus[i0] + vg.band_minus[i0]

    def test_band_grows_with_linear_cost(self, desk_params):
        widths = [
            self._width(desk_params, CostParams(gamma_lin=g, coeff=1e-4))
            for g in (1e-4, 2e-4, 4e-4)
        ]
        assert widths[0] < widths[1] < widths[2]

    def test_band_shrinks_with_quadratic_cost(self, desk_params):
        widths = [
            self._width(desk_params, CostParams(gamma_lin=2e-4, coeff=e))
            for e in (1e-5, 1e-4, 1e-3)
        ]
        assert widths[0] >= widths[1] >= widths[2]
        assert widths[0] > widths[2]


# --------------------------------------------------------- band extraction


def _quadratic_value(x_nodes, theta_nodes, centre, half, gamma):
    """V = -gamma (theta - centre)^2 / (2 half) per x row, and its grid.

    Its theta-differences are V' at the cell midpoints, -gamma (m -
    centre) / half, to rounding, so both slacks are linear in the
    midpoint: quiet on [centre - half, centre + half], selling above and
    buying below, with the onsets exactly at the interval's ends.
    """
    grid = Grid2D(x_nodes=x_nodes, theta_nodes=theta_nodes)
    th = theta_nodes[None, :]
    c, w = np.asarray(centre)[:, None], np.asarray(half)[:, None]
    return -gamma * (th - c) ** 2 / (2.0 * w), grid


class TestBandExtraction:
    def test_known_piecewise_profile(self):
        # a different interval per x row, its ends off the nodes; the
        # linear interpolation of a linear slack recovers them to rounding
        x = np.linspace(-1, 1, 5)
        th = np.linspace(-1, 1, 2001)
        centre = 0.05 * x + 0.01234
        half = 0.31 + 0.02 * x ** 2
        bp, bm = hjb.extract_band(
            *_quadratic_value(x, th, centre, half, 0.7), 0.7)
        np.testing.assert_allclose(bp, centre + half, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bm, half - centre, rtol=0, atol=1e-12)

    def test_zero_field_gives_nan(self):
        # a flat V is quiet everywhere: the run touches both edges
        x = np.linspace(-1, 1, 3)
        th = np.linspace(-1, 1, 11)
        bp, bm = hjb.extract_band(np.zeros((3, 11)),
                                  Grid2D(x_nodes=x, theta_nodes=th), 2e-4)
        assert np.all(np.isnan(bp)) and np.all(np.isnan(bm))

    def test_edge_touching_run_masked(self):
        # quiet run reaching the grid edge means the crossing was not
        # bracketed; that side must come back NaN
        x = np.linspace(-1, 1, 3)
        th = np.linspace(-1, 1, 101)
        bp, bm = hjb.extract_band(
            *_quadratic_value(x, th, np.full(3, -0.4), np.full(3, 0.9), 0.5),
            0.5)
        np.testing.assert_allclose(bp, 0.5, rtol=0, atol=1e-12)
        assert np.all(np.isnan(bm))

    def test_onset_independent_of_the_x_window(self, desk_params):
        # the same hx on two x windows: the onset at x = 0 reads V alone,
        # and V there hardly sees the x edges (a |v| cut normalized by
        # max|v| over the grid moves by 3.2e-4 relative here)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        narrow, wide = (
            hjb.solve_hjb(desk_params, costs,
                          Grid2D.regular(-half, half, nx, -2.5e-3, 2.5e-3,
                                         251))
            for half, nx in ((0.0335, 11), (0.067, 21)))
        assert np.isfinite(narrow.band_plus[5])
        assert narrow.band_plus[5] == pytest.approx(wide.band_plus[10],
                                                    rel=1e-5, abs=0.0)

    def test_band_symmetry(self, desk_solve):
        # model symmetry maps band_plus(x) to band_minus(-x)
        bp = desk_solve.band_plus
        bm = desk_solve.band_minus[::-1]
        ok = np.isfinite(bp) & np.isfinite(bm)
        assert ok.any()
        # V is point-symmetric bit for bit (the folded solve), so the two
        # onsets differ only by the rounding of the mirrored theta nodes
        assert np.nanmax(np.abs(bp[ok] - bm[ok])) <= \
            1e-9 * desk_solve.grid.htheta


# ---------------------------------------------------------------- regime map


class TestRegimeMap:
    COSTS = CostParams(gamma_lin=2e-4, coeff=1e-4)

    @pytest.fixture(scope="class")
    def report(self, desk_params, coarse_grid):
        return experiments.regime_map(desk_params, self.COSTS, 0.0,
                                      grid=coarse_grid,
                                      cfg=hjb.SolverConfig(max_iters=200))

    def test_nearest_node_and_zero_inside(self, report):
        # at x = 0 the band is [-boundary, boundary] by point symmetry
        assert report.x == pytest.approx(0.0, abs=1e-12)
        inside = np.abs(report.theta) < report.boundary
        assert inside.sum() > 2
        assert np.all(report.v[inside] == 0.0)

    def test_monotone_beyond_band(self, report):
        mag = np.abs(report.v[report.theta >= report.boundary])
        assert np.all(np.diff(mag) >= -1e-12)

    def test_labels_and_composite_on_the_trading_samples(self, report):
        # "NT" exactly where the speed is 0, "BUY" on the buying sector
        labels = np.array(report.labels)
        np.testing.assert_array_equal(labels == "NT", report.v == 0)
        assert np.all(labels[report.v > 0] == "BUY")
        trading = (report.theta > report.boundary) & (np.abs(report.v) > 0)
        np.testing.assert_array_equal(np.isfinite(report.v_composite),
                                      trading)

    def test_theory_read_at_the_node(self, desk_params, desk_band):
        # x = 0.02 lies between nodes (the nearest is 0.0268): the
        # predictions are read where the DP speed and onset are
        assert desk_band.gamma_lin == self.COSTS.gamma_lin
        eta = self.COSTS.coeff
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 301)
        report = experiments.regime_map(desk_params, self.COSTS, 0.02,
                                        grid=grid)
        assert report.x != 0.02
        c = asymptotics.layer_constants(desk_band, report.x)
        assert report.layer_width_predicted == c.shift(eta)
        trading = np.isfinite(report.v_composite)
        np.testing.assert_array_equal(
            report.v_composite[trading], asymptotics.composite_velocity(
                desk_band, report.x, eta, report.theta[trading]))

    def test_linear_zone_starts_at_the_crossover(self, desk_params, desk_band,
                                                 monkeypatch):
        # a field whose trading speed at x = 0 is the outer branch itself:
        # its log-slope against the distance d past the band climbs from
        # 1/2 through 3/4 at sqrt_linear_crossover, where the walk must
        # switch from SQRT to LINEAR
        eta, band = self.COSTS.coeff, desk_band
        assert band.gamma_lin == self.COSTS.gamma_lin
        theta0 = float(band.theta_plus_at(0.0))
        cross = asymptotics.sqrt_linear_crossover(
            desk_params, asymptotics.layer_constants(band, 0.0))
        top = theta0 + 4 * cross
        grid = Grid2D.regular(-0.134, 0.134, 3, -top, top, 1201)
        beyond = grid.theta_nodes > theta0
        row = np.zeros(grid.ntheta)
        row[beyond] = asymptotics.outer_velocity(
            desk_params, asymptotics.layer_constants(band, 0.0),
            grid.theta_nodes[beyond], eta)
        v = np.tile(row, (3, 1))
        edge = np.full(3, theta0)
        solved = hjb.ValueGrid(V=np.zeros_like(v), v=v, grid=grid,
                               band_plus=edge, band_minus=edge, residual=0.0,
                               iterations=0)
        monkeypatch.setattr(hjb, "solve_hjb", lambda *args: solved)
        report = experiments.regime_map(desk_params, self.COSTS, 0.0,
                                        grid=grid)
        assert report.crossover_predicted == cross
        assert abs(report.crossover - cross) <= 2 * grid.htheta
        labels = [z for z in report.labels if z not in ("NT", "?")]
        k = labels.index("LINEAR")
        assert set(labels[:k]) == {"SQRT"} and set(labels[k:]) == {"LINEAR"}
        assert report.linear_slope == pytest.approx(1.0, abs=0.1)

    def test_short_zone_reports_no_slope(self, desk_params):
        # on this coarse box the walk labels one sample SQRT between the
        # onset and the far field: a transition, not a zone, so it gets no
        # median slope, and a note gives its count
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 301)
        report = experiments.regime_map(desk_params, self.COSTS, 0.0,
                                        grid=grid)
        assert report.labels.count("SQRT") == 1
        assert math.isnan(report.sqrt_slope)
        assert ("SQRT zone holds 1 sample(s), fewer than 3: its median "
                "slope is NaN") in report.notes
        assert report.labels.count("LINEAR") >= 3
        assert report.linear_slope == pytest.approx(1.0, abs=0.1)

    def test_outside_domain_rejected(self, desk_params, coarse_grid,
                                     monkeypatch):
        # x = 0.2 lies inside the exact band's domain (+-0.268) but
        # outside the grid's (+-0.134); no DP solve may run first
        def no_solve(*args, **kwargs):
            raise AssertionError("regime_map ran a DP solve")

        monkeypatch.setattr(hjb, "solve_hjb", no_solve)
        with pytest.raises(DomainError, match="outside the grid"):
            experiments.regime_map(desk_params, self.COSTS, 0.2,
                                   grid=coarse_grid)


# ---------------------------------------------------------------- study grid


class TestStudyGrid:
    """The default grid of both DP studies, at three etas and one x off
    the centre (x = 0.1, where the Markowitz term sizes theta)."""

    @pytest.fixture(scope="class",
                    params=[(0.0, 1e-3), (0.0, 1e-4), (0.0, 1e-7),
                            (0.1, 1e-4)],
                    ids=["eta1e-3", "eta1e-4", "eta1e-7", "x0.1"])
    def case(self, request, desk_band):
        x, eta = request.param
        return x, eta, experiments._study_grid(desk_band, x, eta)

    def test_system_is_folded(self, case):
        grid = case[2]
        assert hjb._fold_rows(grid) == (grid.nx * grid.ntheta + 1) // 2

    def test_window_holds_x_and_the_far_field(self, case, desk_band):
        x, _, grid = case
        assert grid.x_nodes[0] < x < grid.x_nodes[-1]
        assert grid.x_nodes[-1] >= 0.75 * stationary_std(desk_band.params)
        c = asymptotics.layer_constants(desk_band, x)
        far = (float(desk_band.theta_plus_at(x))
               + 8.0 * asymptotics.sqrt_linear_crossover(desk_band.params, c))
        assert grid.theta_nodes[-1] >= far

    def test_step_resolves_the_layer(self, case, desk_band):
        x, eta, grid = case
        c = asymptotics.layer_constants(desk_band, x)
        assert grid.htheta <= c.wall_offset * eta ** (1.0 / 3.0) / 8.0 \
            * (1.0 + 1e-12)

    def test_node_cap_names_the_count(self, desk_band):
        with pytest.raises(ConfigError, match="theta nodes") as exc:
            experiments._study_grid(desk_band, 0.0, 1e-8)
        count = re.search(r"needs (\d+) theta nodes", str(exc.value))
        assert int(count.group(1)) > 60001


# ---------------------------------------------------------- eta shift sweep


class TestEtaShiftSweep:
    ETAS = (1e-7, 1e-6, 1e-5, 1e-4)

    @pytest.fixture(scope="class")
    def sweep(self, desk_params):
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 301)
        return experiments.eta_shift_sweep(
            desk_params, 2e-4, self.ETAS, grid=grid,
            cfg=hjb.SolverConfig(max_iters=200))

    def test_prediction_is_the_shifted_boundary(self, sweep, desk_band):
        # the reported prediction is the full asymptotic shift of the
        # exact band, theta_b - shifted_boundary(c, eta)
        assert sweep.values.size >= 2
        c = asymptotics.layer_constants(desk_band, 0.0)
        for eta, predicted in zip(sweep.values, sweep.predicted):
            want = c.boundary - asymptotics.shifted_boundary(c, eta)
            assert predicted == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_solves_once_per_kept_eta(self, desk_params, exact_shift_law,
                                      monkeypatch):
        # the zero-cost onset is fitted, not solved for: one solve per
        # kept eta, largest first, and none at the solver's floor
        law, etas = hjb.solve_hjb, []

        def counted(params, costs, grid, cfg, initial=None):
            etas.append(costs.coeff)
            return law(params, costs, grid, cfg, initial)

        monkeypatch.setattr(hjb, "solve_hjb", counted)
        experiments.eta_shift_sweep(desk_params, 2e-4, self.ETAS,
                                    grid=exact_shift_law)
        assert etas == sorted(self.ETAS, reverse=True)
        assert hjb.ETA_FLOOR not in etas

    def test_fit_recovers_a_second_order_law(self, desk_params, desk_band,
                                             monkeypatch):
        # onset = theta0 - c eta^(1/3) - d eta^(2/3) with d > 0: the fit
        # returns theta0, so every shift is the law's own c eta^(1/3) +
        # d eta^(2/3), and measured / predicted reads 1 + d eta^(1/3) / c
        theta0 = float(desk_band.theta_plus_at(0.0))
        c = asymptotics.layer_constants(desk_band, 0.0).wall_offset
        d = 0.5 * c
        monkeypatch.setattr(hjb, "solve_hjb", shift_law(theta0, c, d))
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 301)
        etas = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
        sweep = experiments.eta_shift_sweep(desk_params, 2e-4, etas,
                                            grid=grid)
        t = np.array(etas) ** (1 / 3)
        assert sweep.excluded == ()
        np.testing.assert_allclose(sweep.measured / (c * t + d * t * t),
                                   1.0, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(sweep.ratios, 1.0 + d * t / c,
                                   rtol=1e-10, atol=0.0)
        fitted = re.search(r"fitted zero-cost onset theta0 (\S+), "
                           r"c (\S+), d (\S+) \(find_band_zero theta0 (\S+),",
                           sweep.notes[-1])
        np.testing.assert_allclose(
            [float(v) for v in fitted.groups()], [theta0, c, d, theta0],
            rtol=1e-10, atol=0.0)

    def test_slope_is_finite(self, sweep):
        assert np.isfinite(sweep.fit.slope)

    def test_gauge_excludes_large_etas(self, desk_params, desk_band,
                                      exact_shift_law):
        # a stub solve whose boundary follows the first-order law exactly:
        # every eta whose full shift is more than GAUGE_MAX of the band
        # width is excluded for that reason alone, and every kept ratio
        # is 1
        offset = asymptotics.layer_constants(desk_band, 0.0).wall_offset
        etas = (1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 3e-2, 1e-1)
        sweep = experiments.eta_shift_sweep(desk_params, 2e-4, etas,
                                            grid=exact_shift_law)
        gauge = {eta: offset * eta ** (1 / 3) / float(desk_band.width(0.0))
                 for eta in etas}
        outside = [eta for eta in etas if gauge[eta] > experiments.GAUGE_MAX]
        assert outside == [3e-2, 1e-1]
        assert [eta for eta, _ in sweep.excluded] == outside
        assert all(reason.startswith("outside validity gauge")
                   for _, reason in sweep.excluded)
        np.testing.assert_array_equal(
            sweep.values, [eta for eta in etas if eta not in outside])
        np.testing.assert_allclose(sweep.ratios, 1.0, rtol=1e-12, atol=0.0)

    def test_missing_onset_is_left_out_of_the_fit(self, desk_params,
                                                   exact_shift_law,
                                                   monkeypatch):
        # a solve with no onset is excluded by name and the other four
        # still fit the law exactly
        law = hjb.solve_hjb

        def gap(params, costs, grid, cfg, initial=None):
            vg = law(params, costs, grid, cfg, initial)
            if costs.coeff == 1e-5:
                vg.band_plus[:] = np.nan
            return vg

        monkeypatch.setattr(hjb, "solve_hjb", gap)
        sweep = experiments.eta_shift_sweep(
            desk_params, 2e-4, (1e-7, 1e-6, 1e-5, 1e-4, 1e-3),
            grid=exact_shift_law)
        assert sweep.excluded == ((1e-5, "no trading onset found"),)
        np.testing.assert_array_equal(sweep.values, [1e-7, 1e-6, 1e-4, 1e-3])
        np.testing.assert_allclose(sweep.ratios, 1.0, rtol=1e-10, atol=0.0)

    def test_eta_at_floor_rejected(self, desk_params):
        # the sweep refuses what solve_hjb refuses, an eta below the floor;
        # the floor itself is solved (TestStoppingAndErrors)
        etas = (0.5 * hjb.ETA_FLOOR, 1e-7, 1e-6, 1e-5)
        with pytest.raises(ConfigError, match="ETA_FLOOR"):
            experiments.eta_shift_sweep(desk_params, 2e-4, etas)

    def test_eta_at_the_floor_is_swept(self, desk_params, exact_shift_law):
        etas = (hjb.ETA_FLOOR, 1e-7, 1e-6, 1e-5)
        sweep = experiments.eta_shift_sweep(desk_params, 2e-4, etas,
                                            grid=exact_shift_law)
        np.testing.assert_array_equal(sweep.values, etas)

    def test_short_span_rejected(self, desk_params):
        with pytest.raises(ConfigError):
            experiments.eta_shift_sweep(desk_params, 2e-4,
                                        (1e-6, 2e-6, 5e-6, 9e-6))

    def test_x_outside_the_grid_rejected(self, desk_params, monkeypatch):
        # the edge node used to be read silently; no DP solve may run
        def no_solve(*args, **kwargs):
            raise AssertionError("eta_shift_sweep ran a DP solve")

        monkeypatch.setattr(hjb, "solve_hjb", no_solve)
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 301)
        with pytest.raises(DomainError, match="outside the grid"):
            experiments.eta_shift_sweep(desk_params, 2e-4, self.ETAS, x=0.2,
                                        grid=grid)


# ------------------------------------------------ discrete residual oracle


def _discrete_residual(p, costs, grid, V):
    """rho V - r - H - L_x V of the upwind scheme at every node of V.

    L_x: zero curvature and inward drift only at the x edges; inside,
    centered advection where |mu| hx <= sigma^2, upwind by drift sign
    elsewhere.  H is the closed-form sup over v of v * slope - cost(v),
    with buying priced on the forward theta-difference and selling on the
    backward one (no buying at the top edge, no selling at the bottom).
    The solver's velocity cap is not modelled, so it must not bind.
    """
    sig2 = p.sigma ** 2
    hx, ht = grid.hx, grid.htheta
    x = grid.x_nodes[:, None]
    th = grid.theta_nodes[None, :]
    mu = -p.omega * x
    lx = np.zeros_like(V)
    m = mu[1:-1]
    fwd = (V[2:] - V[1:-1]) / hx
    bwd = (V[1:-1] - V[:-2]) / hx
    adv = np.where(np.abs(m) * hx <= sig2, 0.5 * m * (fwd + bwd),
                   np.where(m > 0, m * fwd, m * bwd))
    lx[1:-1] = 0.5 * sig2 * (fwd - bwd) / hx + adv
    lx[0] = max(mu[0, 0], 0.0) * (V[1] - V[0]) / hx
    lx[-1] = min(mu[-1, 0], 0.0) * (V[-1] - V[-2]) / hx
    slack_buy = np.full_like(V, -np.inf)
    slack_sell = np.full_like(V, -np.inf)
    slack_buy[:, :-1] = (V[:, 1:] - V[:, :-1]) / ht - costs.gamma_lin
    slack_sell[:, 1:] = -(V[:, 1:] - V[:, :-1]) / ht - costs.gamma_lin
    s = np.maximum(np.maximum(slack_buy, slack_sell), 0.0)
    c, a = costs.coeff, costs.power
    if a == 2.0:
        h = s ** 2 / (4.0 * c)
    elif a == 1.5:
        h = 4.0 * s ** 3 / (27.0 * c ** 2)
    else:
        # sup_v (v s - c v^a), at v = (s / (a c))^(1 / (a - 1))
        h = (a - 1.0) * c * (s / (a * c)) ** (a / (a - 1.0))
    return p.rho * V - (mu * th - p.lam * th ** 2) - h - lx


class TestDiscreteResidual:
    """Scaled-up parameters, so that trading is fast and the band narrow
    on small grids."""

    PARAMS = ModelParams(sigma=0.5, omega=0.3, lam=1.0, rho=1.0)
    GRID = Grid2D.regular(-1.29, 1.29, 21, -0.6, 0.6, 121)
    # hx = 0.75: centered for |x| <= 0.75, upwind at |x| = 1.5 and 2.25
    MIXED = Grid2D.regular(-3.0, 3.0, 9, -0.6, 0.6, 121)
    # theta edges close enough to the band that some edge rows trade
    EDGE = Grid2D.regular(-0.3, 0.3, 9, -0.055, 0.055, 121)
    # even N: on EVEN_THETA the north neighbour of (0, -htheta/2) is its
    # own mirror, on EVEN_X the east neighbour of (-hx/2, 0)
    EVEN_THETA = Grid2D.regular(-1.29, 1.29, 21, -0.6, 0.6, 120)
    EVEN_X = Grid2D.regular(-1.29, 1.29, 20, -0.6, 0.6, 121)
    QUADRATIC = CostParams(gamma_lin=0.05, coeff=0.05)
    THREE_HALVES = CostParams(gamma_lin=0.05, coeff=0.05, power=1.5)
    # a power no closed form above covers
    POWER_1_75 = CostParams(gamma_lin=0.05, coeff=0.05, power=1.75)

    def _solve(self, costs, grid):
        return hjb.solve_hjb(self.PARAMS, costs, grid,
                             hjb.SolverConfig(max_iters=200))

    def _assert_solves_discrete_equation(self, costs, grid):
        vg = self._solve(costs, grid)
        V = vg.V
        res = _discrete_residual(self.PARAMS, costs, grid, V)
        assert np.abs(res).max() <= 1e-10 * np.abs(V).max()
        return vg

    def test_quadratic(self):
        self._assert_solves_discrete_equation(self.QUADRATIC, self.GRID)

    def test_three_halves(self):
        self._assert_solves_discrete_equation(self.THREE_HALVES, self.GRID)

    def test_power_1_75(self):
        vg = self._assert_solves_discrete_equation(self.POWER_1_75, self.GRID)
        assert np.any(vg.v != 0.0)

    def test_mixed_branches(self):
        mu = -self.PARAMS.omega * self.MIXED.x_nodes[1:-1]
        centered = np.abs(mu) * self.MIXED.hx <= self.PARAMS.sigma ** 2
        assert centered.any() and not centered.all()
        self._assert_solves_discrete_equation(self.QUADRATIC, self.MIXED)

    @pytest.mark.parametrize("costs_name", ["QUADRATIC", "THREE_HALVES"])
    def test_trades_on_edge_optimality_rows(self, costs_name):
        costs = getattr(self, costs_name)
        vg = self._assert_solves_discrete_equation(costs, self.EDGE)
        assert np.any(vg.v[:, [0, -1]] != 0.0)

    @pytest.mark.parametrize("grid_name, folded", [
        pytest.param("GRID", False, id="GRID"),
        pytest.param("MIXED", False, id="MIXED"),
        pytest.param("EDGE", False, id="EDGE"),
        # the system folded onto ceil(N/2) rows, at odd and at even N
        pytest.param("GRID", True, id="GRID-folded"),
        pytest.param("EVEN_THETA", True, id="EVEN_THETA-folded"),
        pytest.param("EVEN_X", True, id="EVEN_X-folded"),
    ])
    def test_assembled_matrix_is_monotone(self, grid_name, folded):
        # Barles-Souganidis: non-positive off-diagonals, and every row,
        # theta edges included, sums to rho
        grid = getattr(self, grid_name)
        p, costs = self.PARAMS, self.QUADRATIC
        vg = self._solve(costs, grid)
        size = grid.nx * grid.ntheta
        n = hjb._fold_rows(grid) if folded else size
        assert n == ((size + 1) // 2 if folded else size)
        A = hjb._assemble(p, grid, hjb._x_stencil(p, grid), vg.v, n)
        assert A.shape == (n, n)
        coo = A.tocoo()
        assert np.all(coo.data[coo.row != coo.col] <= 0.0)
        sums = np.asarray(A.sum(axis=1)).ravel()
        assert np.all(np.abs(sums - p.rho) <= 1e-12 * np.abs(A.diagonal()))

    @pytest.mark.parametrize("grid_name, i, j, step", [
        # node (0, -htheta/2), whose north neighbour is its own mirror
        pytest.param("EVEN_THETA", 10, 59, 21, id="EVEN_THETA"),
        # node (-hx/2, 0), whose east neighbour is its own mirror
        pytest.param("EVEN_X", 9, 60, 1, id="EVEN_X"),
    ])
    def test_self_mirrored_neighbour_folds_onto_the_diagonal(
            self, grid_name, i, j, step):
        # a policy that trades at every node, toward theta = 0, so that the
        # theta neighbours of the centre carry weight too
        grid = getattr(self, grid_name)
        p = self.PARAMS
        size = grid.nx * grid.ntheta
        v = -np.tile(grid.theta_nodes, (grid.nx, 1))
        args = (p, grid, hjb._x_stencil(p, grid), v)
        full = hjb._assemble(*args).tocsr()
        folded = hjb._assemble(*args, (size + 1) // 2).tocsr()
        k = i + j * grid.nx
        mirror = size - 1 - k
        assert mirror == k + step
        assert full[k, mirror] < 0.0
        assert folded[k, k] == full[k, k] + full[k, mirror]
        row = folded[k].toarray().ravel()
        assert np.all(np.delete(row, k) <= 0.0)
        assert abs(row.sum() - p.rho) <= 1e-12 * folded[k, k]


# ------------------------------------------------------------ 3/2-power cost


class TestThreeHalvesCost:
    def test_control_formula(self, desk_params, coarse_grid):
        gamma, zeta = 2e-4, 1e-4
        costs = CostParams(gamma_lin=gamma, coeff=zeta, power=1.5)
        vg = hjb.solve_hjb(desk_params, costs, coarse_grid)
        _, s_sell = hjb._slacks(vg.V, coarse_grid.htheta, gamma)
        v = vg.v
        sell = v < 0
        slack_sell = np.maximum(s_sell, 0.0)
        expect = -((2.0 * slack_sell) / (3.0 * zeta)) ** 2
        assert np.allclose(v[sell], expect[sell], rtol=1e-10, atol=1e-12)

    def test_band_narrower_than_quadratic_at_same_coefficient(
        self, desk_params, coarse_grid
    ):
        # at speeds below 1 the 3/2 penalty is weaker than the quadratic
        # one, so trading starts closer to the ideal position only for
        # the quadratic cost; just assert both bands exist and are sane
        q = hjb.solve_hjb(
            desk_params, CostParams(gamma_lin=2e-4, coeff=1e-4), coarse_grid
        )
        c = hjb.solve_hjb(
            desk_params,
            CostParams(gamma_lin=2e-4, coeff=1e-4, power=1.5),
            coarse_grid,
        )
        i0 = coarse_grid.nx // 2
        assert np.isfinite(q.band_plus[i0])
        assert 0 < c.band_plus[i0] < coarse_grid.theta_nodes[-1]


# ------------------------------------------------------- stopping behavior


class TestStoppingAndErrors:
    LADDER = (1e-4, 1e-5, 1e-6, 1e-7, hjb.ETA_FLOOR)

    @pytest.fixture(scope="class")
    def ladder(self, desk_params, coarse_grid):
        """V per eta of LADDER, the first solved cold and each next one
        warm-started from the one before."""
        values, V = {}, None
        for eta in self.LADDER:
            V = values[eta] = hjb.solve_hjb(
                desk_params, CostParams(gamma_lin=2e-4, coeff=eta),
                coarse_grid, hjb.SolverConfig(max_iters=200), initial=V).V
        return values

    def test_iteration_budget_exhausted(self, desk_params):
        # one solve from the no-trade value, whose policy the solve then
        # changes: the history holds the check before the solve and the
        # one after
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 101)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        with pytest.raises(ConvergenceError, match=(
                r"on 101 theta nodes did not converge in 1 iterations "
                r"\(backward error \S+, last solve's \S+\)")) as exc:
            hjb.solve_hjb(desk_params, costs, grid,
                          hjb.SolverConfig(max_iters=1),
                          initial=hjb._nt_initial(desk_params, grid))
        assert len(exc.value.history) == 2

    def test_warm_start_converges_faster(self, desk_params):
        grid = Grid2D.regular(-0.134, 0.134, 21, -7.5e-3, 7.5e-3, 301)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        cold = hjb.solve_hjb(desk_params, costs, grid)
        warm = hjb.solve_hjb(
            desk_params, costs, grid, initial=cold.V
        )
        # the first check has no solve to compare with; the second finds
        # V solving its own policy's system as well as that solve did
        assert warm.iterations == 1
        np.testing.assert_array_equal(np.sign(warm.v), np.sign(cold.v))

    def test_stops_only_once_policy_settled(self, desk_params):
        # on this grid a stop on the update size alone left isolated
        # trading nodes in the band and a negative band_plus(0)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        grid = Grid2D.regular(-0.134, 0.134, 31, -7.5e-3, 7.5e-3, 2001)
        vg = hjb.solve_hjb(desk_params, costs, grid)
        assert vg.residual <= 10 * 1e-9 * max(1.0, np.abs(vg.V).max())
        i0 = grid.nx // 2
        assert vg.band_plus[i0] > 0
        # no trading node whose velocity sign differs from both of its
        # theta-neighbours
        s = np.sign(vg.v)
        mid = s[:, 1:-1]
        isolated = (mid != 0) & (mid != s[:, :-2]) & (mid != s[:, 2:])
        assert not isolated.any()

    def test_cold_solve_at_the_floor_converges(self, desk_params,
                                               coarse_grid, ladder):
        # the smallest coefficient accepted is solved cold as well, and
        # lands on the solve warm-started down the ladder
        vg = hjb.solve_hjb(desk_params,
                           CostParams(gamma_lin=2e-4, coeff=hjb.ETA_FLOOR),
                           coarse_grid, hjb.SolverConfig(max_iters=200))
        want = ladder[hjb.ETA_FLOOR]
        assert np.abs(vg.V - want).max() <= 1e-10 * np.abs(want).max()

    def test_extrapolated_seed_converges(self, desk_params, coarse_grid,
                                         ladder):
        # seeding eta 1e-7 by extrapolating the ladder in eta^{1/3} makes
        # the updates oscillate while isolated nodes inside the band still
        # trade; a stop on the update size once ended there, with a Bellman
        # residual 6.8e4 times its rounding floor.  The backward-error
        # test runs on to the plain warm start's V
        s5, s6, s7 = (eta ** (1 / 3) for eta in (1e-5, 1e-6, 1e-7))
        V5, V6 = ladder[1e-5], ladder[1e-6]
        seed = V6 + (V6 - V5) * (s7 - s6) / (s6 - s5)
        vg = hjb.solve_hjb(desk_params, CostParams(gamma_lin=2e-4, coeff=1e-7),
                           coarse_grid, hjb.SolverConfig(max_iters=200),
                           initial=seed)
        want = ladder[1e-7]
        assert np.abs(vg.V - want).max() <= 1e-10 * np.abs(want).max()

    def test_grid_refinement_stability(self, desk_params):
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        g1 =Grid2D.regular(-0.134, 0.134, 31, -7.5e-3, 7.5e-3, 376)
        g2 = Grid2D.regular(-0.134, 0.134, 31, -7.5e-3, 7.5e-3, 751)
        b1 = hjb.solve_hjb(desk_params, costs, g1)
        b2 = hjb.solve_hjb(desk_params, costs, g2)
        i0 = 15
        assert abs(b1.band_plus[i0] - b2.band_plus[i0]) <= 2 * g1.htheta


# -------------------------------------------------- coarse-to-fine cold start


class TestColdStart:
    """A cold solve is seeded from the same problem on half the theta
    nodes (recursively); it must land on the solve seeded directly with
    the all-no-trade value, in far fewer target-grid iterations, although
    its seeding levels stop once their policy settles."""

    GRID = Grid2D.regular(-0.134, 0.134, 21, -7.5e-3, 7.5e-3, 401)
    COSTS = {"quadratic": CostParams(gamma_lin=2e-4, coeff=1e-4),
             "three_halves": CostParams(gamma_lin=2e-4, coeff=1e-4,
                                        power=1.5)}
    # splu calls of the cold solve on GRID, as measured with the
    # settled-policy stop on the seeding levels; seeding levels converged
    # as tightly as the target took 53 and 63.  With the optimality
    # equation on every theta-edge row the solve takes 41 and 45
    FACTORS = {"quadratic": 49, "three_halves": 51}

    def _solve_both(self, params, costs):
        """Cold and no-trade-seeded solves, and the cold one's splu calls."""
        calls = []

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hjb, "splu", counting_splu)
            cold = hjb.solve_hjb(params, costs, self.GRID)
        seeded = hjb.solve_hjb(params, costs, self.GRID,
                               initial=hjb._nt_initial(params, self.GRID))
        return cold, seeded, len(calls)

    @pytest.fixture(scope="class", params=list(COSTS))
    def pair(self, request, desk_params):
        assert self.GRID.ntheta > hjb._COARSEST_NTHETA
        return request.param, *self._solve_both(desk_params,
                                                self.COSTS[request.param])

    @staticmethod
    def _assert_same_answer(cold, seeded):
        V, ref = cold.V, seeded.V
        assert np.abs(V - ref).max() <= 1e-10 * np.abs(ref).max()
        np.testing.assert_array_equal(np.sign(cold.v),
                                      np.sign(seeded.v))

    def test_matches_no_trade_seeded_solve(self, pair):
        self._assert_same_answer(*pair[1:3])

    def test_factorization_count(self, pair):
        kind, _, _, calls = pair
        assert calls <= self.FACTORS[kind]

    def test_halves_the_iterations(self, pair):
        _, cold, seeded, _ = pair
        assert cold.iterations <= seeded.iterations // 2

    def test_coarse_budget_names_its_level(self, desk_params):
        # 401 nodes are seeded from 201, 101, 51, 26 and 13; the 13-, 26-
        # and 51-node levels settle in 2, 3 and 2 iterations from the
        # no-trade seed, and the 101-node level seeded from them needs
        # far more than 3 (19)
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        with pytest.raises(ConvergenceError, match=r"on 101 theta nodes"):
            hjb.solve_hjb(desk_params, costs, self.GRID,
                          hjb.SolverConfig(max_iters=3))


# ------------------------------------------------------ point-symmetric fold


class TestFold:
    """On a grid point-symmetric about (0, 0) each policy system is solved
    on its first ceil(N/2) nodes and the others are written as their
    mirrors.  The result must be point-symmetric bit for bit, equal the
    solve of the full system for the same policy (built and solved here,
    unfolded), and satisfy the discrete equation; a grid off the centre
    keeps all N rows."""

    GRIDS = {"odd_N": Grid2D.regular(-0.134, 0.134, 21, -7.5e-3, 7.5e-3, 401),
             "even_ntheta": Grid2D.regular(-0.134, 0.134, 21,
                                           -7.5e-3, 7.5e-3, 400),
             "even_nx": Grid2D.regular(-0.134, 0.134, 20,
                                       -7.5e-3, 7.5e-3, 401)}
    COSTS = TestColdStart.COSTS

    @pytest.fixture(scope="class",
                    params=list(itertools.product(GRIDS, COSTS)),
                    ids=lambda gc: "-".join(gc))
    def solved(self, request, desk_params):
        grid, costs = self.GRIDS[request.param[0]], self.COSTS[request.param[1]]
        return grid, costs, hjb.solve_hjb(desk_params, costs, grid)

    @staticmethod
    def _assert_solves_discrete_equation(params, costs, grid, V):
        res = _discrete_residual(params, costs, grid, V)
        assert np.abs(res).max() <= 1e-10 * np.abs(V).max()

    @staticmethod
    def _factored_rows(params, costs, grid):
        """Rows of every matrix factored by one solve from the no-trade
        seed (a single level), and the solve."""
        rows = []

        def spying_splu(A, *args, **kwargs):
            rows.append(A.shape[0])
            return splu(A, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hjb, "splu", spying_splu)
            vg = hjb.solve_hjb(params, costs, grid,
                               initial=hjb._nt_initial(params, grid))
        return rows, vg

    def test_value_is_point_symmetric(self, solved):
        V = solved[2].V
        np.testing.assert_array_equal(V, V[::-1, ::-1])

    def test_matches_the_unfolded_solve(self, solved, desk_params):
        grid, costs, vg = solved
        p, v = desk_params, vg.v
        A = hjb._assemble(p, grid, hjb._x_stencil(p, grid), v)
        assert A.shape[0] == grid.nx * grid.ntheta
        ref = np.reshape(
            splu(A, permc_spec="NATURAL").solve(
                np.ravel(hjb._reward(p, costs, grid, v), order="F")),
            v.shape, order="F")
        assert np.abs(vg.V - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_solves_the_discrete_equation(self, solved, desk_params):
        grid, costs, vg = solved
        self._assert_solves_discrete_equation(desk_params, costs, grid,
                                              vg.V)

    def test_linspace_grid_is_folded(self, desk_params):
        grid = self.GRIDS["odd_N"]
        # np.linspace(-a, a, n) misses its own mirror by an ulp or two
        assert not np.array_equal(grid.x_nodes, -grid.x_nodes[::-1])
        size = grid.nx * grid.ntheta
        rows, _ = self._factored_rows(desk_params, self.COSTS["quadratic"],
                                      grid)
        assert rows and set(rows) == {(size + 1) // 2}

    @pytest.mark.parametrize("grid", [
        pytest.param(Grid2D.regular(-0.1, 0.168, 21, -7.5e-3, 7.5e-3, 401),
                     id="off_centre_x"),
        pytest.param(Grid2D.regular(-0.134, 0.134, 21, -6e-3, 9e-3, 401),
                     id="off_centre_theta"),
    ])
    def test_off_centre_grid_is_not_folded(self, desk_params, grid):
        costs = self.COSTS["quadratic"]
        rows, vg = self._factored_rows(desk_params, costs, grid)
        assert rows and set(rows) == {grid.nx * grid.ntheta}
        self._assert_solves_discrete_equation(desk_params, costs, grid,
                                              vg.V)

    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["solved", "perturbed"])
    def test_kept_node_policy_is_the_full_grid_policy(self, solved,
                                                      desk_params, symmetric):
        # the policy and reward of the folded system are computed on the
        # theta columns of the kept nodes only; on those nodes they must be
        # the full grid's bit for bit, for a V that is not point-symmetric
        # (a warm start) as well
        grid, costs, vg = solved
        p, V = desk_params, vg.V
        if not symmetric:
            V = V + 1e-3 * np.abs(V).max() * np.sin(
                np.arange(V.size).reshape(V.shape))
        n = hjb._fold_rows(grid)
        cols = -(-n // grid.nx)
        assert cols < grid.ntheta
        cap = hjb._velocity_cap(p, costs, grid)
        full = hjb._policy(costs, V, grid.ntheta, grid.htheta, cap)
        kept = hjb._policy(costs, V, cols, grid.htheta, cap)
        assert kept.shape == (grid.nx, cols)
        np.testing.assert_array_equal(kept, full[:, :cols])
        np.testing.assert_array_equal(
            hjb._reward(p, costs, grid, kept),
            hjb._reward(p, costs, grid, full)[:, :cols])

    def test_solve_matches_the_full_grid_policy(self, solved, desk_params):
        # the same solve with each policy computed on all N nodes and then
        # cut to the kept columns: the same V, bit for bit
        grid, costs, vg = solved
        policy = hjb._policy

        def full_grid_policy(costs, V, cols, ht, cap):
            return policy(costs, V, V.shape[1], ht, cap)[:, :cols]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hjb, "_policy", full_grid_policy)
            ref = hjb.solve_hjb(desk_params, costs, grid)
        assert (vg.iterations, vg.history) == (ref.iterations, ref.history)
        np.testing.assert_array_equal(vg.V, ref.V)


# ------------------------------------------------------------ sparse factor


class TestFactor:
    """Every policy system is factored through ``hjb.splu`` in the natural
    order with panels of ``_PANEL_SIZE`` columns.  The small panel changes
    only SuperLU's blocking: V must lie within 1e-10 relative of a solve
    whose every factor is a plain natural-order ``splu`` (SuperLU's
    default panel), with the same sign pattern."""

    GRIDS = {"odd_N": TestFold.GRIDS["odd_N"],
             "even_ntheta": TestFold.GRIDS["even_ntheta"],
             "off_centre": Grid2D.regular(-0.1, 0.168, 21,
                                          -7.5e-3, 7.5e-3, 401)}
    COSTS = TestColdStart.COSTS

    @staticmethod
    def _solve(params, costs, grid, factor=None):
        """A cold solve, and the (rows, keyword arguments) of its factors;
        ``factor`` stands in for splu."""
        calls = []

        def spying_splu(A, **kwargs):
            calls.append((A.shape[0], kwargs))
            return (factor or splu)(A, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hjb, "splu", spying_splu)
            vg = hjb.solve_hjb(params, costs, grid)
        return vg, calls

    def test_every_factor_gets_the_small_panel(self, desk_params):
        _, calls = self._solve(desk_params, self.COSTS["quadratic"],
                               self.GRIDS["odd_N"])
        # the coarse-to-fine levels on 13, 26, 51, 101, 201 and 401 nodes
        assert len({rows for rows, _ in calls}) == 6
        want = dict(permc_spec="NATURAL", panel_size=hjb._PANEL_SIZE)
        assert all(kwargs == want for _, kwargs in calls)

    @pytest.mark.parametrize("grid_name, kind",
                             list(itertools.product(GRIDS, COSTS)),
                             ids=lambda v: v)
    def test_small_panel_matches_default_panel(self, desk_params,
                                               grid_name, kind):
        grid, costs = self.GRIDS[grid_name], self.COSTS[kind]
        vg, calls = self._solve(desk_params, costs, grid)
        assert {rows for rows, _ in calls} >= {hjb._fold_rows(grid)}

        def default_panel(A, **_):
            return splu(A, permc_spec="NATURAL")

        ref, _ = self._solve(desk_params, costs, grid, factor=default_panel)
        V, want = vg.V, ref.V
        assert np.abs(V - want).max() <= 1e-10 * np.abs(want).max()
        np.testing.assert_array_equal(np.sign(vg.v),
                                      np.sign(ref.v))

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_one_factor_lives_at_a_time(self, desk_params, start):
        # every factor is a proxy whose death is recorded; when splu is
        # called, each factor made before must already be gone
        grid = Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 151)
        costs = self.COSTS["quadratic"]
        initial = (None if start == "cold"
                   else hjb._nt_initial(desk_params, grid))
        finalizers, alive_at_call = [], []

        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return self.lu.solve(b)

        def tracked_splu(A, **kwargs):
            alive_at_call.append(sum(f.alive for f in finalizers))
            factor = Factor(splu(A, **kwargs))
            finalizers.append(weakref.finalize(factor, lambda: None))
            return factor

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hjb, "splu", tracked_splu)
            vg = hjb.solve_hjb(desk_params, costs, grid, initial=initial)
        assert vg.iterations >= 2 and len(alive_at_call) >= 3
        assert alive_at_call == [0] * len(alive_at_call)
        assert not any(f.alive for f in finalizers)


# --------------------------------------------------- continuity diagnostics

# The smoothness oracle of the DP field: derivative jumps across the
# boundary, extrapolated from both sides, on two grids.


@dataclass(frozen=True)
class ContinuityReport:
    """Two-grid refinement study of derivative jumps across the boundary."""

    x_nodes: np.ndarray
    jump1_coarse: np.ndarray
    jump1_fine: np.ndarray
    jump2_coarse: np.ndarray
    jump2_fine: np.ndarray
    first_order: float
    second_order: float
    collinear_flags: np.ndarray
    passed: bool


def _boundary_jumps(vg: hjb.ValueGrid, stencil: int = 4):
    """One-sided extrapolated V_theta and V_thetatheta jumps at the upper
    boundary, per x node (NaN where the boundary is missing or too close
    to a theta edge for the stencils)."""
    grid = vg.grid
    V = vg.V
    th = grid.theta_nodes
    nx = grid.nx
    j1 = np.full(nx, np.nan)
    j2 = np.full(nx, np.nan)
    for i in range(nx):
        tb = vg.band_plus[i]
        if not np.isfinite(tb):
            continue
        jb = int(np.searchsorted(th, tb))
        if jb - stencil < 0 or jb + 1 + stencil > th.size:
            continue
        inside = slice(jb - stencil, jb)
        outside = slice(jb + 1, jb + 1 + stencil)
        d1_in = float(fd_weights(tb, th[inside], 1) @ V[i, inside])
        d1_out = float(fd_weights(tb, th[outside], 1) @ V[i, outside])
        d2_in = float(fd_weights(tb, th[inside], 2) @ V[i, inside])
        d2_out = float(fd_weights(tb, th[outside], 2) @ V[i, outside])
        j1[i] = abs(d1_out - d1_in)
        j2[i] = abs(d2_out - d2_in)
    return j1, j2


def c2_continuity_check(coarse: hjb.ValueGrid, fine: hjb.ValueGrid) -> ContinuityReport:
    """Grid-refinement study of smoothness across the no-trade boundary.

    ``fine`` must be the same problem re-solved with the theta spacing
    halved, on either the same x nodes or x nodes that halve the coarse
    ones (nx -> 2 nx - 1); jumps are compared at the shared x nodes.
    Extrapolates first and second theta derivatives to the extracted
    boundary from both sides on each grid; the decay rate of the jumps
    under refinement is the smoothness order.  Passes when the
    second-derivative jump decays at order >= 1 and the first-derivative
    jump at order >= 2 (or no boundary exists at all).

    Refine x as well to see the jumps vanish.  The x-stencil reads
    V(x +- hx, theta), and there the oblique boundary has moved by
    |m| hx (m the Markowitz slope), which can exceed the boundary region.
    Under theta-only refinement the jumps therefore converge to this
    hx-limited jump, not to zero, and the measured orders tend to 0.
    """
    gc, gf = coarse.grid, fine.grid
    if gf.nx == gc.nx:
        stride = 1
    elif gf.nx == 2 * gc.nx - 1:
        stride = 2
    else:
        raise ConfigError("fine grid must keep or halve the x spacing")
    if not np.allclose(gc.x_nodes, gf.x_nodes[::stride]):
        raise ConfigError("fine x nodes must contain the coarse ones")
    if not math.isclose(gf.htheta, 0.5 * gc.htheta, rel_tol=0.02):
        raise ConfigError("fine grid must halve the theta spacing")

    j1c, j2c = _boundary_jumps(coarse)
    j1f, j2f = (j[::stride] for j in _boundary_jumps(fine))
    valid = np.isfinite(j1c) & np.isfinite(j1f) & (j1f > 0) & (j2f > 0)

    if not np.any(valid):
        # degenerate all-quiet case: nothing to jump across
        zeros = np.zeros(gc.nx)
        return ContinuityReport(gc.x_nodes, zeros, zeros.copy(),
                                zeros.copy(), zeros.copy(),
                                math.nan, math.nan,
                                np.zeros(gc.nx, dtype=bool), True)

    # boundary slope in x, to flag nodes where it is nearly flat
    # (the smoothness argument degrades where the boundary runs along x)
    slope = np.gradient(coarse.band_plus, gc.x_nodes)
    ref = np.nanmedian(np.abs(slope[valid]))
    collinear = np.abs(slope) < 0.1 * ref
    use = valid & ~collinear
    if not np.any(use):
        use = valid

    p1 = float(np.nanmedian(np.log2(j1c[use] / j1f[use])))
    p2 = float(np.nanmedian(np.log2(j2c[use] / j2f[use])))
    return ContinuityReport(gc.x_nodes, j1c, j1f, j2c, j2f, p1, p2,
                            collinear, bool(p2 >= 1.0 and p1 >= 2.0))


class TestContinuityDiagnostics:
    def test_grid_pairing_validated(self, desk_params):
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        g1 = Grid2D.regular(-0.134, 0.134, 21, -7.5e-3, 7.5e-3, 301)
        g2 = Grid2D.regular(-0.134, 0.134, 21, -7.5e-3, 7.5e-3, 401)
        a = hjb.solve_hjb(desk_params, costs, g1)
        b = hjb.solve_hjb(desk_params, costs, g2)
        with pytest.raises(ConfigError):
            c2_continuity_check(a, b)  # 401 is not a halving of 301

    def test_degenerate_quiet_field_passes(self, desk_params):
        # no boundary anywhere: report must be trivially clean, not crash
        costs = CostParams(gamma_lin=500.0, coeff=1e-4)
        g1 = Grid2D.regular(-0.134, 0.134, 11, -0.05, 0.05, 41)
        g2 = Grid2D.regular(-0.134, 0.134, 11, -0.05, 0.05, 81)
        a = hjb.solve_hjb(desk_params, costs, g1)
        b = hjb.solve_hjb(desk_params, costs, g2)
        rep = c2_continuity_check(a, b)
        assert rep.passed
        assert np.isnan(rep.first_order) and np.isnan(rep.second_order)

    def test_derivative_jumps_shrink_under_refinement(self, desk_params):
        costs = CostParams(gamma_lin=2e-4, coeff=1e-4)
        # x is refined with theta: the x-stencil reads V one hx away, where
        # the oblique boundary has moved by |m| hx (more than the band's
        # half-width at nx 31), so at a fixed hx the jumps cannot shrink
        g1 = Grid2D.regular(-0.134, 0.134, 31, -7.5e-3, 7.5e-3, 1001)
        g2 = Grid2D.regular(-0.134, 0.134, 61, -7.5e-3, 7.5e-3, 2001)
        a = hjb.solve_hjb(desk_params, costs, g1)
        b = hjb.solve_hjb(desk_params, costs, g2)
        # the orders are medians over x nodes and do not see a solve that
        # stopped early, so hold both to the criterion of test_residual_bound
        for vg in (a, b):
            assert vg.residual <= 10 * 1e-9 * max(1.0, np.abs(vg.V).max())
        rep = c2_continuity_check(a, b)
        # first derivative jump vanishes fast, curvature jump at least
        # linearly
        assert rep.first_order >= 1.0
        assert rep.second_order >= 0.5
