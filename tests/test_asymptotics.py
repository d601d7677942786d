"""Boundary-layer asymptotics: profile exactness, shifts, composites.

Oracles used here:
  - closed-form algebra on the layer constants (identities exact by
    construction are labeled as such);
  - the small-linear-cost closed forms for the third derivative and the
    band geometry, an independent route to the shift magnitude;
  - finite differences of sampled profiles against analytic slopes;
  - exact rescaling invariance of the cubic (Abel) layer.
"""

import dataclasses
import math

import numpy as np
import pytest

from bandlayer.errors import BracketError, ConfigError, DomainError, RegimeError
from bandlayer.model import CostKind, ModelParams
from bandlayer.band_zero import find_band_zero, third_derivative_at_band
from bandlayer.special import fd_weights
from bandlayer import asymptotics as asy
from bandlayer.experiments import ValidityParams, validity_report

WALL_ROOT_LITERAL = 1.0187929716  # |u| at the first Airy maximum, 10 digits


@pytest.fixture(scope="module")
def desk_constants(desk_model, desk_band):
    return asy.layer_constants(desk_model, desk_band, 0.0)


@pytest.fixture(scope="module")
def desk_profile(desk_constants):
    return asy.layer_profile_airy(desk_constants, y_max=50 * desk_constants.wall_offset,
                                  n=4001)


@pytest.fixture(scope="module")
def abel_canonical():
    return asy.abel_layer_solve(1.0, 1.0, y_max=130.0, n=6001)


@pytest.fixture(scope="module")
def flat_band():
    p0 = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
    return p0, find_band_zero(p0, 2e-4, x_nodes=np.linspace(-1.0, 1.0, 5))


# ---------------------------------------------------------------- constants

class TestLayerConstants:
    def test_fields_recompute_from_band(self, desk_model, desk_band, desk_constants):
        # arithmetic oracle: re-derive every field from band queries
        t0 = desk_band.theta_plus_at(0.0)
        s0 = desk_band.theta_plus_deriv_at(0.0)
        assert desk_constants.boundary == t0
        assert desk_constants.amp == pytest.approx(
            2.0 * math.sqrt(2.0 * desk_model.lam * t0), rel=1e-14)
        assert desk_constants.diffusivity == pytest.approx(
            2.0 * desk_model.sigma ** 2 * s0 ** 2, rel=1e-14)

    def test_arg_scale_cube_identity(self, desk_constants):
        c = desk_constants
        assert c.arg_scale ** 3 == pytest.approx(
            c.amp ** 2 / c.diffusivity ** 2, rel=1e-12)

    def test_wall_slope_closed_form_random(self):
        # A^2 y0 / B == |u*| A^{4/3} B^{-1/3}: algebraic identity via the
        # cube relation, checked on synthetic positive constants.
        rng = np.random.default_rng(42)
        for amp, diff in rng.uniform(0.05, 20.0, size=(25, 2)):
            z = (amp / diff) ** (2.0 / 3.0)
            c = asy.LayerConstants(x=0.0, boundary=1.0, boundary_slope=-1.0,
                                   drift=0.0, amp=amp, diffusivity=diff,
                                   arg_scale=z, wall_offset=WALL_ROOT_LITERAL / z)
            closed = WALL_ROOT_LITERAL * amp ** (4.0 / 3.0) * diff ** (-1.0 / 3.0)
            assert c.wall_slope == pytest.approx(closed, rel=1e-9)

    def test_diffusivity_scales_with_sigma_squared(self, desk_model, desk_band):
        p2 = ModelParams(sigma=2 * desk_model.sigma, omega=desk_model.omega,
                         lam=desk_model.lam, rho=desk_model.rho)
        c1 = asy.layer_constants(desk_model, desk_band, 0.0)
        c2 = asy.layer_constants(p2, desk_band, 0.0)  # band held fixed
        assert c2.diffusivity / c1.diffusivity == pytest.approx(4.0, rel=1e-14)

    def test_positive_and_finite_across_x(self, desk_model, desk_band):
        for x in (-0.1, 0.0, 0.1):
            c = asy.layer_constants(desk_model, desk_band, x)
            for val in (c.amp, c.diffusivity, c.arg_scale, c.wall_offset):
                assert val > 0.0 and np.isfinite(val)

    def test_flat_band_rejected(self, flat_band):
        p0, band0 = flat_band
        with pytest.raises(RegimeError):
            asy.layer_constants(p0, band0, 0.0)


# ------------------------------------------------------------- airy profile

class TestAiryProfile:
    def test_wall_value_exactly_zero(self, desk_profile):
        assert desk_profile.f[0] == 0.0

    def test_strictly_positive_beyond_wall(self, desk_profile):
        assert np.all(desk_profile.f[1:] > 0.0)

    def test_wall_slope_against_finite_difference(self, desk_profile):
        w = fd_weights(0.0, desk_profile.y[:7], 1)
        fd = float(w @ desk_profile.f[:7])
        assert fd == pytest.approx(desk_profile.slope_at_zero, rel=1e-6)

    def test_far_field_square_root(self, desk_constants, desk_profile):
        # at y = 50*y0 the ratio to amp*sqrt(y) has the closed-form value
        # sqrt(49/50) * (1 + 1/(4 u^{3/2})) with u = 49*|u*|
        y_end = desk_profile.y[-1]
        ratio = desk_profile.f[-1] / (desk_constants.amp * math.sqrt(y_end))
        assert 0.99 < ratio < 1.01
        u = 49.0 * WALL_ROOT_LITERAL
        predicted = math.sqrt(49.0 / 50.0) * (1.0 + 1.0 / (4.0 * u ** 1.5))
        assert ratio == pytest.approx(predicted, abs=1e-4)

    def test_input_validation(self, desk_constants):
        with pytest.raises(DomainError):
            asy.layer_profile_airy(desk_constants, y_max=0.0)
        with pytest.raises(ConfigError):
            asy.layer_profile_airy(desk_constants, y_max=1.0, n=5)


class TestOdeResidual:
    def test_airy_profile_satisfies_balance(self, desk_profile):
        assert asy.layer_ode_residual(desk_profile) <= 1e-8

    def test_detects_one_percent_corruption(self):
        # canonical scale (amp = diffusivity = 1) so the normalized residual
        # of a 1% amplitude error is O(1%) rather than O(y_max)
        c = asy.LayerConstants(x=0.0, boundary=1.0, boundary_slope=-1.0,
                               drift=0.0, amp=1.0, diffusivity=1.0,
                               arg_scale=1.0, wall_offset=WALL_ROOT_LITERAL)
        prof = asy.layer_profile_airy(c, y_max=10.0, n=2001)
        assert asy.layer_ode_residual(prof) <= 1e-8
        bad = dataclasses.replace(prof, f=1.01 * prof.f)
        assert asy.layer_ode_residual(bad) > 1e-3

    @pytest.mark.parametrize("offsets", [110, 1000])
    def test_wide_window(self, desk_constants, offsets):
        # beyond ~105 wall offsets Ai itself underflows to 0.0; the profile
        # reads only Ai'/Ai, which stays finite there
        c = desk_constants
        prof = asy.layer_profile_airy(c, y_max=offsets * c.wall_offset)
        assert asy.layer_ode_residual(prof) <= 1e-8

    def test_balance_vanishes_at_offset(self, desk_constants):
        # grid chosen so the offset itself is a sample; rhs vanishes there
        c = desk_constants
        prof = asy.layer_profile_airy(c, y_max=8 * c.wall_offset, n=9)
        k = 1
        assert prof.y[k] == pytest.approx(c.wall_offset, rel=1e-12)
        lhs = prof.f[k] ** 2 - c.diffusivity * prof.f_slope[k]
        assert abs(lhs) <= 1e-10 * c.amp ** 2 * (1 + c.wall_offset)


# ------------------------------------------------------------ band shift

class TestShiftedBoundary:
    def test_no_cost_no_shift(self, desk_model, desk_comp, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        assert asy.shifted_boundary(desk_model, desk_comp, desk_band, 0.0, 0.0) == t0

    def test_cube_root_scaling_exact(self, desk_model, desk_comp, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        s1 = t0 - asy.shifted_boundary(desk_model, desk_comp, desk_band, 0.0, 1e-6)
        s8 = t0 - asy.shifted_boundary(desk_model, desk_comp, desk_band, 0.0, 8e-6)
        assert s8 / s1 == pytest.approx(2.0, rel=1e-12)

    def test_shift_is_inward(self, desk_model, desk_comp, desk_band):
        for x in (-0.1, 0.0, 0.15):
            t0 = desk_band.theta_plus_at(x)
            te = asy.shifted_boundary(desk_model, desk_comp, desk_band, x, 1e-6)
            assert te < t0

    def test_small_cost_closed_form_oracle(self, desk_model, desk_comp, desk_band):
        # independent route: the small-linear-cost estimates for the third
        # derivative and the band geometry at x=0
        p = desk_model
        g = desk_band.gamma_lin
        cube = (3.0 * g * p.sigma ** 2 / (2.0 * p.omega)) ** (1.0 / 3.0)
        v3_est = 8.0 * p.lam ** 2 / (p.sigma ** 2 * p.omega) * cube
        w_est = p.omega / (2.0 * p.lam) * cube
        slope_est = -p.omega / (2.0 * p.lam)
        amp_est = 2.0 * math.sqrt(2.0 * p.lam * w_est)
        diff_est = 2.0 * p.sigma ** 2 * slope_est ** 2
        z_est = (amp_est / diff_est) ** (2.0 / 3.0)
        fy0_est = amp_est ** 2 * (WALL_ROOT_LITERAL / z_est) / diff_est
        for eta in (1e-7, 1e-5):
            est = fy0_est / v3_est * eta ** (1.0 / 3.0)
            got = desk_band.theta_plus_at(0.0) - asy.shifted_boundary(
                desk_model, desk_comp, desk_band, 0.0, eta)
            assert got == pytest.approx(est, rel=0.05)

    def test_negative_eta_rejected(self, desk_model, desk_comp, desk_band):
        with pytest.raises(DomainError):
            asy.shifted_boundary(desk_model, desk_comp, desk_band, 0.0, -1e-9)


# ---------------------------------------------------------- outer velocity

class TestOuterVelocity:
    def test_vanishes_at_boundary(self, desk_model, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        assert asy.outer_velocity(desk_model, desk_band, 0.0, t0, 1e-5) == 0.0

    def test_near_band_square_root(self, desk_model, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        d = 1e-3 * t0
        v = asy.outer_velocity(desk_model, desk_band, 0.0, t0 + d, 1e-5)
        sqrt_only = -math.sqrt(2.0 * desk_model.lam * t0 * d / 1e-5)
        ratio = v / sqrt_only
        assert abs(ratio - 1.0) < 0.01
        # at x=0 the ratio is exactly sqrt(1 + lam*d/(2*lam*t0))
        assert ratio == pytest.approx(
            math.sqrt(1.0 + d / (2.0 * t0)), rel=1e-12)

    def test_far_field_linear(self, desk_model, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        theta = 100.0 * t0
        v = asy.outer_velocity(desk_model, desk_band, 0.0, theta, 1e-5)
        assert abs(v / theta / (-math.sqrt(desk_model.lam / 1e-5)) - 1.0) < 0.01

    def test_inside_band_rejected(self, desk_model, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        with pytest.raises(RegimeError):
            asy.outer_velocity(desk_model, desk_band, 0.0, 0.5 * t0, 1e-5)
        with pytest.raises(DomainError):
            asy.outer_velocity(desk_model, desk_band, 0.0, 2 * t0, 0.0)


# ------------------------------------------------------- composite velocity

ETA_DEEP = 1e-18  # scale separation: layer << band width << crossover


@pytest.fixture(scope="module")
def deep_profile(desk_model, desk_comp, desk_band):
    c = asy.layer_constants(desk_model, desk_band, 0.0)
    te = asy.shifted_boundary(desk_model, desk_comp, desk_band, 0.0, ETA_DEEP)
    t0 = desk_band.theta_plus_at(0.0)
    sc = ETA_DEEP ** (1.0 / 3.0)
    dc = asy.sqrt_linear_crossover(desk_model, c)
    grid = np.sort(np.concatenate([
        np.linspace(0.0, te, 8),
        te + sc * np.linspace(0.01, 29.9, 40),
        te + sc * np.linspace(30.1, 200.0, 30),
        t0 + np.linspace(1.1 * dc, 20.0 * dc, 20),
    ]))
    return asy.composite_velocity(desk_model, desk_comp, desk_band, 0.0,
                                  ETA_DEEP, grid)


class TestCompositeVelocity:
    def test_all_regimes_present_in_order(self, deep_profile):
        order = {asy.Regime.NO_TRADE: 0, asy.Regime.LAYER: 1,
                 asy.Regime.SQRT: 2, asy.Regime.LINEAR: 3}
        codes = [order[r] for r in deep_profile.regime]
        assert set(codes) == {0, 1, 2, 3}
        assert codes == sorted(codes)

    def test_no_trade_samples_exactly_zero(self, deep_profile):
        for vi, ri in zip(deep_profile.v, deep_profile.regime):
            if ri is asy.Regime.NO_TRADE:
                assert vi == 0.0

    def test_speed_magnitude_nondecreasing(self, deep_profile):
        trading = [i for i, r in enumerate(deep_profile.regime)
                   if r is not asy.Regime.NO_TRADE]
        mags = np.abs(deep_profile.v[trading])
        assert np.all(np.diff(mags) >= 0.0)

    def test_selling_sector_sign(self, deep_profile):
        trading = [i for i, r in enumerate(deep_profile.regime)
                   if r is not asy.Regime.NO_TRADE]
        assert np.all(deep_profile.v[trading] < 0.0)

    def test_linear_near_wall(self, desk_model, desk_comp, desk_band):
        c = asy.layer_constants(desk_model, desk_band, 0.0)
        te = asy.shifted_boundary(desk_model, desk_comp, desk_band, 0.0, ETA_DEEP)
        y = 0.01 * c.wall_offset
        theta = te + y * ETA_DEEP ** (1.0 / 3.0)
        vp = asy.composite_velocity(desk_model, desk_comp, desk_band, 0.0,
                                    ETA_DEEP, np.array([te - 1e-9, theta]))
        linear = -c.wall_slope * (theta - te) / (2.0 * ETA_DEEP ** (2.0 / 3.0))
        assert vp.v[1] == pytest.approx(linear, rel=0.02)

    def test_seam_mismatch_small(self, desk_model, desk_comp, desk_band):
        # evaluate both branches at the seam point itself
        c = asy.layer_constants(desk_model, desk_band, 0.0)
        te = asy.shifted_boundary(desk_model, desk_comp, desk_band, 0.0, ETA_DEEP)
        sc = ETA_DEEP ** (1.0 / 3.0)
        theta_s = te + 30.0 * sc
        f_s, _ = asy._layer_values(c, np.array([30.0]))
        inner = -f_s[0] / (2.0 * sc)
        blended = (inner
                   + asy.outer_velocity(desk_model, desk_band, 0.0, theta_s, ETA_DEEP)
                   + 0.5 * c.amp * math.sqrt(theta_s - te) / math.sqrt(ETA_DEEP))
        assert abs(blended / inner - 1.0) <= 0.02

    def test_far_field_eta_scaling(self, desk_model, desk_comp, desk_band):
        c = asy.layer_constants(desk_model, desk_band, 0.0)
        theta_far = desk_band.theta_plus_at(0.0) + 10.0 * asy.sqrt_linear_crossover(
            desk_model, c)
        grid = np.array([0.0, theta_far])

        def v_at(eta):
            return asy.composite_velocity(desk_model, desk_comp, desk_band,
                                          0.0, eta, grid).v[1]

        assert v_at(ETA_DEEP) / v_at(4 * ETA_DEEP) == pytest.approx(2.0, rel=0.01)

    def test_gauge_warning_flag(self, desk_model, desk_comp, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        grid = np.array([0.0, 1.5 * t0])
        quiet = asy.composite_velocity(desk_model, desk_comp, desk_band, 0.0,
                                       1e-5, grid)
        assert not quiet.gauge_warning and quiet.gauge < 0.05
        loud = asy.composite_velocity(desk_model, desk_comp, desk_band, 0.0,
                                      2e-2, grid)
        assert loud.gauge_warning and loud.gauge > 0.2

    def test_lower_sector_rejected(self, desk_model, desk_comp, desk_band):
        lower = -desk_band.theta_minus_at(0.0)
        with pytest.raises(DomainError):
            asy.composite_velocity(desk_model, desk_comp, desk_band, 0.0, 1e-6,
                                   np.array([lower - 1e-5, 0.0]))

    def test_grid_validation(self, desk_model, desk_comp, desk_band):
        with pytest.raises(ConfigError):
            asy.composite_velocity(desk_model, desk_comp, desk_band, 0.0, 1e-6,
                                   np.array([0.0]))
        with pytest.raises(DomainError):
            asy.composite_velocity(desk_model, desk_comp, desk_band, 0.0, 0.0,
                                   np.array([0.0, 1e-4]))


# -------------------------------------------------------------- abel layer

class TestAbelLayer:
    def test_wall_condition_and_residuals(self, abel_canonical):
        pr = abel_canonical
        assert pr.f[0] == 0.0
        assert abs(pr.wall_residual) <= 1e-8  # canonical amplitude is O(1)
        assert asy.layer_ode_residual(pr) <= 1e-8
        assert np.all(np.diff(pr.f) > 0.0)

    def test_cube_root_asymptote(self, abel_canonical):
        pr = abel_canonical
        y_ref = 100.0 * pr.wall_offset
        assert y_ref < pr.y[-1]
        g_ref = float(np.interp(y_ref, pr.y, pr.f))
        ratio = g_ref / y_ref ** (1.0 / 3.0)
        assert 0.98 <= ratio <= 1.02
        # dominant-balance refinement: (1 - y0/y)^{1/3} to first order
        assert ratio == pytest.approx((1.0 - 0.01) ** (1.0 / 3.0), abs=5e-3)

    def test_slope_at_zero_is_offset_ratio(self, abel_canonical):
        pr = abel_canonical
        assert pr.slope_at_zero == pytest.approx(pr.wall_offset, rel=1e-12)
        assert pr.f_slope[0] == pytest.approx(pr.slope_at_zero, rel=1e-12)

    def test_rescaling_invariance(self, abel_canonical):
        # exact symmetry: offset/(bprime/aprime^{4/3})^{3/5} is universal
        ref = abel_canonical.wall_offset
        for a, b in ((2.0, 0.5), (0.3, 4.0)):
            s = (b / a ** (4.0 / 3.0)) ** 0.6
            pr = asy.abel_layer_solve(a, b, y_max=130.0 * s, n=3001)
            assert pr.wall_offset / s == pytest.approx(ref, rel=1e-7)

    def test_bad_bracket_reports_scale(self):
        with pytest.raises(BracketError) as err:
            asy.abel_layer_solve(1.0, 1.0, y_max=130.0,
                                 offset_bracket=(1e-9, 2e-9))
        assert "scale" in str(err.value).lower()

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            asy.abel_layer_solve(-1.0, 1.0, y_max=10.0)
        with pytest.raises(DomainError):
            asy.abel_layer_solve(1.0, 1.0, y_max=0.0)
        with pytest.raises(DomainError):
            asy.abel_layer_solve(1.0, 1.0, y_max=1.5)  # no room for the seed


# ------------------------------------------------------------ power scaling

class TestPowerScaling:
    def test_quadratic_exponents(self):
        ps = asy.power_cost_scaling(CostKind.QUADRATIC)
        assert ps == (pytest.approx(2 / 3), pytest.approx(1 / 3), 0.5)
        # matching relation tying the layer amplitude to the sqrt expansion
        assert ps.amplitude_exp - ps.width_exp / 2 == pytest.approx(0.5)

    def test_three_halves_exponents(self):
        ps = asy.power_cost_scaling(CostKind.THREE_HALVES)
        assert ps == (pytest.approx(0.8), pytest.approx(0.4), pytest.approx(2 / 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            asy.power_cost_scaling("cubic")


# ---------------------------------------------------------------- validity
# The expansion's validity domain, as evaluated by experiments.validity_report.

def _validity(params, gamma_lin, phi, gamma_coeff=1.0):
    # daily_volume and risk_target only enter the restated forms, not the
    # headline inequality tested here
    vp = ValidityParams(gamma_coeff=gamma_coeff, phi=phi, daily_volume=1e6,
                        risk_target=1e-4)
    return validity_report(params, gamma_lin, vp)


class TestValidityCheck:
    def test_worked_desk_example(self, desk_model, desk_band):
        res = _validity(desk_model, desk_band.gamma_lin, phi=1e-4)
        # (2e-4/0.02)^{4/3} * 0.1^{-5/6} = 10^{-11/6} exactly
        assert res.threshold == pytest.approx(10.0 ** (-11.0 / 6.0), rel=1e-12)
        assert abs(math.log10(res.threshold) - (-2.0)) <= 0.4  # order 1e-2
        assert res.ok  # 1e-4 is a decade below the threshold

    def test_threshold_power_laws(self, desk_model, desk_band):
        g = desk_band.gamma_lin
        base = _validity(desk_model, g, 1e-4).threshold
        assert _validity(desk_model, 2 * g, 1e-4).threshold / base == \
            pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-12)
        p10 = ModelParams(sigma=desk_model.sigma, omega=10 * desk_model.omega,
                          lam=desk_model.lam, rho=desk_model.rho)
        assert _validity(p10, g, 1e-4).threshold / base == \
            pytest.approx(10.0 ** (-5.0 / 6.0), rel=1e-12)

    def test_margin_semantics(self, desk_model, desk_band):
        # "much less than" is one decade of margin
        g = desk_band.gamma_lin
        rhs = _validity(desk_model, g, 1e-8).threshold
        assert _validity(desk_model, g, 0.099 * rhs).ok
        assert not _validity(desk_model, g, 0.101 * rhs).ok

    def test_input_validation(self, desk_model, desk_band, flat_band):
        g = desk_band.gamma_lin
        with pytest.raises(ConfigError):
            _validity(desk_model, g, 1e-4, gamma_coeff=0.0)
        with pytest.raises(ConfigError):
            _validity(desk_model, 0.0, 1e-4)
        p0, _ = flat_band
        with pytest.raises(RegimeError):
            _validity(p0, g, 1e-4)
