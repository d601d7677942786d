"""Boundary-layer asymptotics: profile exactness, shifts, composites.

Oracles used here:
  - closed-form algebra on the layer constants (identities exact by
    construction are labeled as such);
  - the small-linear-cost closed forms for the third derivative and the
    band geometry, an independent route to the shift magnitude;
  - finite differences of sampled profiles against analytic slopes;
  - exact rescaling invariance of the cubic (Abel) layer;
  - forward shots from the wall, which straddle the Abel offset (the
    solver integrates the other way, so this is an independent route);
  - one ``solve_ivp`` pass stopped at the Abel wall zero by an event,
    in place of the solver's compiled passes and Newton on the zero;
  - the Airy closed form, which the generic layer pass must reproduce
    at the quadratic cost's exponent q = 2.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bandlayer.errors import (ConfigError, ConvergenceError, DomainError,
                              RegimeError)
from bandlayer.model import ModelParams, ValidityParams
from bandlayer.band_zero import find_band_zero
from bandlayer.special import fd_weights
from bandlayer import asymptotics as asy
from bandlayer.experiments import (GAUGE_MAX, eta_shift_sweep, validity_gauge,
                                   validity_report)

WALL_ROOT_LITERAL = 1.0187929716  # |u| at the first Airy maximum, 10 digits
ABEL_OFFSET_LITERAL = 1.094848850  # canonical Abel wall offset / s, 10 digits


@pytest.fixture(scope="module")
def desk_constants(desk_band):
    return asy.layer_constants(desk_band, 0.0)


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
        _, s0 = desk_band.plus_edge_at(0.0)
        assert desk_constants.boundary == t0
        # the forcing carries the risk-adjusted edge, -rho*gamma included
        # (the drift vanishes at x = 0)
        edge = (2.0 * desk_model.lam * t0
                - desk_model.rho * desk_band.gamma_lin)
        assert desk_constants.amp == pytest.approx(2.0 * math.sqrt(edge),
                                                   rel=1e-14)
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
                                   amp=amp, diffusivity=diff,
                                   arg_scale=z, wall_offset=WALL_ROOT_LITERAL / z)
            closed = WALL_ROOT_LITERAL * amp ** (4.0 / 3.0) * diff ** (-1.0 / 3.0)
            assert c.wall_slope == pytest.approx(closed, rel=1e-9)

    def test_diffusivity_scales_with_sigma_squared(self, desk_model, desk_band):
        p2 = ModelParams(sigma=2 * desk_model.sigma, omega=desk_model.omega,
                         lam=desk_model.lam, rho=desk_model.rho)
        c1 = asy.layer_constants(desk_band, 0.0)
        # band held fixed
        c2 = asy.layer_constants(dataclasses.replace(desk_band, params=p2), 0.0)
        assert c2.diffusivity / c1.diffusivity == pytest.approx(4.0, rel=1e-14)

    def test_positive_and_finite_across_x(self, desk_band):
        for x in (-0.1, 0.0, 0.1):
            c = asy.layer_constants(desk_band, x)
            for val in (c.amp, c.diffusivity, c.arg_scale, c.wall_offset):
                assert val > 0.0 and np.isfinite(val)

    def test_flat_band_rejected(self, flat_band):
        _, band0 = flat_band
        with pytest.raises(RegimeError):
            asy.layer_constants(band0, 0.0)


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

    def test_wall_root_is_the_first_airy_maximum(self):
        # -_WALL_ROOT is the largest zero of Ai', where Ai peaks first
        u = -asy._WALL_ROOT
        with mpmath.workdps(40):
            want = float(mpmath.airyaizero(1, derivative=1))
            slope = float(mpmath.airyai(u, derivative=1))
        assert u == pytest.approx(want, abs=1e-14)
        assert abs(slope) < 1e-14
        assert asy._WALL_ROOT == pytest.approx(WALL_ROOT_LITERAL, abs=1e-10)

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
                               amp=1.0, diffusivity=1.0,
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
    def test_no_cost_no_shift(self, desk_band):
        c = asy.layer_constants(desk_band, 0.0)
        assert asy.shifted_boundary(c, 0.0) == desk_band.theta_plus_at(0.0)

    def test_cube_root_scaling_exact(self, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        c = asy.layer_constants(desk_band, 0.0)
        s1 = t0 - asy.shifted_boundary(c, 1e-6)
        s8 = t0 - asy.shifted_boundary(c, 8e-6)
        assert s8 / s1 == pytest.approx(2.0, rel=1e-12)

    def test_shifted_boundary_is_boundary_minus_shift(self, desk_band):
        # the one statement of the law: wall_offset * eta^{1/3}, bit for bit
        c = asy.layer_constants(desk_band, 0.0)
        for eta in (1e-7, 1e-4, 0.3):
            assert c.shift(eta) == c.wall_offset * eta ** (1.0 / 3.0)
            assert asy.shifted_boundary(c, eta) == c.boundary - c.shift(eta)

    def test_shift_is_inward(self, desk_band):
        for x in (-0.1, 0.0, 0.15):
            t0 = desk_band.theta_plus_at(x)
            c = asy.layer_constants(desk_band, x)
            te = asy.shifted_boundary(c, 1e-6)
            assert te < t0

    def test_small_cost_closed_form_oracle(self, desk_model, desk_band):
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
                asy.layer_constants(desk_band, 0.0), eta)
            assert got == pytest.approx(est, rel=0.05)

    def test_negative_eta_rejected(self, desk_band):
        with pytest.raises(DomainError):
            asy.shifted_boundary(asy.layer_constants(desk_band, 0.0),
                                 -1e-9)


# ---------------------------------------------------------- outer velocity

class TestOuterVelocity:
    def test_vanishes_at_boundary(self, desk_model, desk_band):
        c = asy.layer_constants(desk_band, 0.0)
        assert asy.outer_velocity(desk_model, c, c.boundary, 1e-5) == 0.0

    def test_near_band_square_root(self, desk_model, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        d = 1e-3 * t0
        c = asy.layer_constants(desk_band, 0.0)
        v = asy.outer_velocity(desk_model, c, t0 + d, 1e-5)
        # risk-adjusted edge at x = 0, where the drift vanishes
        edge = 2.0 * desk_model.lam * t0 - desk_model.rho * desk_band.gamma_lin
        sqrt_only = -math.sqrt(edge * d / 1e-5)
        ratio = v / sqrt_only
        assert abs(ratio - 1.0) < 0.01
        # at x=0 the ratio is exactly sqrt(1 + lam*d/edge)
        assert ratio == pytest.approx(
            math.sqrt(1.0 + desk_model.lam * d / edge), rel=1e-12)

    def test_array_equals_scalar_calls(self, desk_model, desk_band):
        # an array theta is the scalar calls side by side, bit for bit;
        # a float theta returns a float
        c = asy.layer_constants(desk_band, 0.0)
        thetas = c.boundary * np.array([1.0, 1.001, 1.5, 3.0, 100.0])
        got = asy.outer_velocity(desk_model, c, thetas, 1e-5)
        alone = [asy.outer_velocity(desk_model, c, t, 1e-5)
                 for t in thetas.tolist()]
        assert all(type(v) is float for v in alone)
        assert got.shape == thetas.shape and got.tolist() == alone

    def test_far_field_linear(self, desk_model, desk_band):
        t0 = desk_band.theta_plus_at(0.0)
        theta = 100.0 * t0
        c = asy.layer_constants(desk_band, 0.0)
        v = asy.outer_velocity(desk_model, c, theta, 1e-5)
        assert abs(v / theta / (-math.sqrt(desk_model.lam / 1e-5)) - 1.0) < 0.01

    def test_inside_band_rejected(self, desk_model, desk_band):
        c = asy.layer_constants(desk_band, 0.0)
        with pytest.raises(RegimeError):
            asy.outer_velocity(desk_model, c, 0.5 * c.boundary, 1e-5)
        with pytest.raises(DomainError):
            asy.outer_velocity(desk_model, c, 2 * c.boundary, 0.0)


# ------------------------------------------------------- composite velocity

ETA_DEEP = 1e-18  # scale separation: layer << band width << crossover


@pytest.fixture(scope="module")
def deep_profile(desk_model, desk_band):
    """(theta, v, trade): the composite at ETA_DEEP on samples reaching
    past the seam and the crossover, and the samples beyond the shifted
    edge."""
    c = asy.layer_constants(desk_band, 0.0)
    te = asy.shifted_boundary(c, ETA_DEEP)
    t0 = desk_band.theta_plus_at(0.0)
    sc = ETA_DEEP ** (1.0 / 3.0)
    dc = asy.sqrt_linear_crossover(desk_model, c)
    grid = np.sort(np.concatenate([
        np.linspace(0.0, te, 8),
        te + sc * np.linspace(0.01, 29.9, 40),
        te + sc * np.linspace(30.1, 200.0, 30),
        t0 + np.linspace(1.1 * dc, 20.0 * dc, 20),
    ]))
    v = asy.composite_velocity(desk_band, 0.0, ETA_DEEP, grid)
    return grid, v, grid > te


class TestCompositeVelocity:
    def test_no_trade_samples_exactly_zero(self, deep_profile):
        theta, v, trade = deep_profile
        assert isinstance(v, np.ndarray) and v.shape == theta.shape
        assert (~trade).sum() == 8   # the samples on [0, te]
        assert np.all(v[~trade] == 0.0)

    def test_speed_magnitude_nondecreasing(self, deep_profile):
        _, v, trade = deep_profile
        assert np.all(np.diff(np.abs(v[trade])) >= 0.0)

    def test_selling_sector_sign(self, deep_profile):
        _, v, trade = deep_profile
        assert np.all(v[trade] < 0.0)

    def test_linear_near_wall(self, desk_band):
        c = asy.layer_constants(desk_band, 0.0)
        te = asy.shifted_boundary(c, ETA_DEEP)
        y = 0.01 * c.wall_offset
        theta = te + y * ETA_DEEP ** (1.0 / 3.0)
        v = asy.composite_velocity(desk_band, 0.0, ETA_DEEP,
                                   np.array([te - 1e-9, theta]))
        linear = -c.wall_slope * (theta - te) / (2.0 * ETA_DEEP ** (2.0 / 3.0))
        assert v[1] == pytest.approx(linear, rel=0.02)

    def test_seam_mismatch_small(self, desk_band):
        # evaluate both branches at the seam point itself
        c = asy.layer_constants(desk_band, 0.0)
        te = asy.shifted_boundary(c, ETA_DEEP)
        sc = ETA_DEEP ** (1.0 / 3.0)
        theta_s = te + 30.0 * sc
        f_s, _ = asy._layer_values(c, np.array([30.0]))
        inner = -f_s[0] / (2.0 * sc)
        blended = (inner
                   + asy.outer_velocity(desk_band.params, c, theta_s,
                                        ETA_DEEP)
                   + 0.5 * c.amp * math.sqrt(theta_s - te) / math.sqrt(ETA_DEEP))
        assert abs(blended / inner - 1.0) <= 0.02

    def test_far_field_eta_scaling(self, desk_model, desk_band):
        c = asy.layer_constants(desk_band, 0.0)
        theta_far = desk_band.theta_plus_at(0.0) + 10.0 * asy.sqrt_linear_crossover(
            desk_model, c)
        grid = np.array([0.0, theta_far])

        def v_at(eta):
            return asy.composite_velocity(desk_band, 0.0, eta, grid)[1]

        assert v_at(ETA_DEEP) / v_at(4 * ETA_DEEP) == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("eta", [ETA_DEEP, 1e-5])
    def test_layer_constants_built_once(self, desk_model, desk_band,
                                        monkeypatch, eta):
        # the ETA_DEEP grid reaches the blend beyond the seam; at 1e-5 the
        # same grid stays within the layer
        c = asy.layer_constants(desk_band, 0.0)
        t0 = desk_band.theta_plus_at(0.0)
        grid = np.linspace(0.0, t0 + 20.0 * asy.sqrt_linear_crossover(
            desk_model, c), 50)
        calls = []

        def counting(band, x):
            calls.append(x)
            return c

        monkeypatch.setattr(asy, "layer_constants", counting)
        asy.composite_velocity(desk_band, 0.0, eta, grid)
        y = (grid - asy.shifted_boundary(c, eta)) / eta ** (1.0 / 3.0)
        assert bool(np.any(y >= asy._SEAM)) == (eta == ETA_DEEP)
        assert len(calls) == 1

    def test_lower_sector_rejected(self, desk_band):
        lower = -desk_band.theta_minus_at(0.0)
        with pytest.raises(DomainError):
            asy.composite_velocity(desk_band, 0.0, 1e-6,
                                   np.array([lower - 1e-5, 0.0]))

    def test_grid_validation(self, desk_band):
        with pytest.raises(ConfigError):
            asy.composite_velocity(desk_band, 0.0, 1e-6,
                                   np.array([0.0]))
        with pytest.raises(DomainError):
            asy.composite_velocity(desk_band, 0.0, 0.0,
                                   np.array([0.0, 1e-4]))


# -------------------------------------------------------------- abel layer

def abel_forward_class(aprime, bprime, offset, y_max):
    """Shoot the cubic balance forward from g(0) = 0 with a trial offset.

    +1: the orbit blows up (offset too large); -1: it dives below the
    asymptotic orbit (offset too small); 0: it survived to the stop point.
    """
    s = (bprime / aprime ** (4.0 / 3.0)) ** 0.6
    g_big = 4.0 * (aprime ** 2 * (y_max + 4.0 * s)) ** (1.0 / 3.0)
    g_low = -0.5 * (aprime ** 2 * s) ** (1.0 / 3.0)
    hit_hi = lambda t, g: g[0] - g_big
    hit_hi.terminal = True
    hit_lo = lambda t, g: g[0] - g_low
    hit_lo.terminal = True
    sol = solve_ivp(lambda t, g: (g ** 3 - aprime ** 2 * (t - offset)) / bprime,
                    (0.0, min(y_max, 12.0 * s)), [0.0], method="RK45",
                    rtol=1e-11, atol=1e-13 * g_big, events=[hit_hi, hit_lo])
    if not sol.success or sol.t_events[0].size:
        return 1  # step-size underflow right at blowup counts as blowup
    return -1 if sol.t_events[1].size else 0


def abel_event_pass(aprime, bprime, y_max, n, q=3):
    """The layer of balance exponent q as one ``solve_ivp`` LSODA pass from
    the same seed, stopped at the wall zero by a terminal event and
    sampled from its dense output: (offset, f)."""
    s = (bprime ** q / aprime ** (2 * q - 2)) ** (1.0 / (2 * q - 1))
    a2 = aprime * aprime
    w_seed = max(float(y_max), 10.0 * s)
    g_far = (a2 * w_seed) ** (1.0 / q)
    # first correction to the asymptote, from q g_far^(q-1) dg = bprime g_far'
    g_seed = g_far + bprime * g_far / (q * q * w_seed * g_far ** (q - 1))
    wall = lambda w, g: g[0]
    wall.terminal = True
    sol = solve_ivp(lambda w, g: (np.sign(g) * np.abs(g) ** q - a2 * w)
                    / bprime,
                    (w_seed, -4.0 * s), [g_seed], method="LSODA",
                    jac=lambda w, g: [[q * abs(g[0]) ** (q - 1) / bprime]],
                    rtol=1e-12, atol=1e-14 * (a2 * s) ** (1.0 / q),
                    events=wall, dense_output=True)
    offset = -float(sol.t_events[0][0])
    f = sol.sol(np.linspace(0.0, y_max, n) - offset)[0]
    f[0] = 0.0
    return offset, f


class TestAbelLayer:
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)])
    def test_matches_event_pass(self, a, b):
        s = (b / a ** (4.0 / 3.0)) ** 0.6
        pr = asy.abel_layer_solve(a, b, y_max=150.0 * s, n=2001)
        offset, f = abel_event_pass(a, b, 150.0 * s, 2001)
        assert pr.wall_offset == pytest.approx(offset, rel=1e-11, abs=0)
        assert np.max(np.abs(pr.f - f)) <= 1e-10 * np.max(np.abs(f))

    def test_matches_event_pass_at_another_power(self):
        # q = 7/3 is the cost power 1.75, which no closed form covers
        q, y_max = 7.0 / 3.0, 150.0
        pr = asy.abel_layer_solve(1.0, 1.0, y_max=y_max, n=2001, q=q)
        offset, f = abel_event_pass(1.0, 1.0, y_max, 2001, q=q)
        assert pr.power == q
        assert pr.wall_offset == pytest.approx(offset, rel=1e-11, abs=0)
        assert np.max(np.abs(pr.f - f)) <= 1e-10 * np.max(np.abs(f))
        assert asy.layer_ode_residual(pr) <= 1e-8

    def test_square_balance_is_the_airy_profile(self, desk_constants):
        # at q = 2 the balance is the quadratic cost's, whose closed form
        # is the Airy profile; the generic pass is checked against it
        c = desk_constants
        y_max = 50.0 * c.wall_offset
        airy = asy.layer_profile_airy(c, y_max, n=2001)
        pr = asy.abel_layer_solve(c.amp, c.diffusivity, y_max, n=2001, q=2.0)
        assert asy.layer_width(c.amp, c.diffusivity, 2.0) * c.arg_scale \
            == pytest.approx(1.0, rel=1e-14)
        assert pr.power == airy.power == 2.0
        np.testing.assert_array_equal(pr.y, airy.y)
        assert pr.wall_offset == pytest.approx(c.wall_offset, rel=1e-9, abs=0)
        assert np.max(np.abs(pr.f - airy.f)) <= 1e-9 * np.max(airy.f)
        assert np.max(np.abs(pr.f_slope - airy.f_slope)) \
            <= 1e-7 * np.max(np.abs(airy.f_slope))

    def test_no_sign_change_raises(self, monkeypatch):
        # a pass that never crosses zero has no wall to report
        real = asy.odeint

        def never_crossing(*args, **kwargs):
            g, info = real(*args, **kwargs)
            return np.abs(g), info

        monkeypatch.setattr(asy, "odeint", never_crossing)
        with pytest.raises(ConvergenceError,
                           match="backward pass found no wall zero"):
            asy.abel_layer_solve(1.0, 1.0, y_max=10.0)

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

    def test_forward_shots_straddle_offset(self, abel_canonical):
        # the wall orbit is unstable forward: a slightly smaller offset
        # dives, a slightly larger one blows up
        off = abel_canonical.wall_offset
        assert abel_forward_class(1.0, 1.0, off * (1.0 - 1e-10), 130.0) == -1
        assert abel_forward_class(1.0, 1.0, off * (1.0 + 1e-10), 130.0) == 1

    def test_offset_literal(self, abel_canonical):
        assert abel_canonical.wall_offset == pytest.approx(ABEL_OFFSET_LITERAL,
                                                           rel=1e-9)

    def test_slope_against_finite_difference(self, abel_canonical):
        # f_slope is computed from f through the balance itself, so the
        # ODE residual cannot see a wrong orbit; a difference of f can
        pr = abel_canonical
        w = fd_weights(0.0, [-2.0, -1.0, 0.0, 1.0, 2.0], 1)
        h = pr.y[1] - pr.y[0]
        fd = np.convolve(pr.f, w[::-1], mode="valid") / h
        scale = np.max(np.abs(pr.f_slope))
        assert np.max(np.abs(fd - pr.f_slope[2:-2])) <= 1e-6 * scale

    def test_profile_independent_of_window(self):
        # each short window samples the same y as the long one on its
        # span; none may carry a seed error, however close its far end
        # comes to the wall offset (about 1.09 here)
        long = asy.abel_layer_solve(1.0, 1.0, y_max=130.0, n=26001)
        for y_max, n in ((10.0, 2001), (3.2, 641), (1.5, 301)):
            short = asy.abel_layer_solve(1.0, 1.0, y_max=y_max, n=n)
            np.testing.assert_array_equal(long.y[:n], short.y)
            diff = np.max(np.abs(long.f[:n] - short.f))
            assert diff <= 1e-9 * np.max(np.abs(short.f)), y_max

    def test_rescaling_invariance(self, abel_canonical):
        # exact symmetry: offset/(bprime/aprime^{4/3})^{3/5} is universal
        ref = abel_canonical.wall_offset
        for a, b in ((2.0, 0.5), (0.3, 4.0)):
            s = (b / a ** (4.0 / 3.0)) ** 0.6
            pr = asy.abel_layer_solve(a, b, y_max=130.0 * s, n=3001)
            assert pr.wall_offset / s == pytest.approx(ref, rel=1e-7)

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            asy.abel_layer_solve(-1.0, 1.0, y_max=10.0)
        with pytest.raises(DomainError):
            asy.abel_layer_solve(1.0, 1.0, y_max=0.0)
        with pytest.raises(ConfigError):
            asy.abel_layer_solve(1.0, 1.0, y_max=10.0, q=1.0)


# ---------------------------------------------------------------- validity
# The expansion's validity domain: the gauge of experiments.validity_gauge,
# and the desk-unit report of experiments.validity_report built on it.

def _validity(band, gamma_coeff=1.0):
    # eta_implied = gamma_coeff * sigma / daily_volume
    vp = ValidityParams(gamma_coeff=gamma_coeff, daily_volume=1e6)
    return validity_report(band, vp)


def _gauge_edge(band):
    # the eta at which the gauge at x = 0 reaches GAUGE_MAX; the gauge
    # grows exactly as eta^(1/3)
    return (GAUGE_MAX / validity_gauge(band, 0.0, 1.0)[0]) ** 3


class TestValidityCheck:
    def test_worked_desk_example(self, desk_band):
        res = _validity(desk_band)
        assert res.eta_implied == pytest.approx(2e-8, rel=1e-15)
        assert res.ok  # eta 2e-8 is almost six decades below the gauge edge

    def test_gauge_decides(self, desk_model, desk_band, exact_shift_law):
        # inside_domain is the gauge test alone, and the shift sweep
        # excludes by the same test: 1% either side of the gauge's edge,
        # both flip together
        edge = _gauge_edge(desk_band)
        etas = (0.99 * edge, 1.01 * edge)
        oks = []
        for eta in etas:
            res = _validity(desk_band,
                            gamma_coeff=eta * 1e6 / desk_model.sigma)
            assert res.eta_implied == pytest.approx(eta, rel=1e-12)
            oks.append(res.ok)
        assert oks == [True, False]
        sweep = eta_shift_sweep(
            desk_model, desk_band.gamma_lin, (1e-6, 1e-5, 1e-4, 1e-3, *etas),
            grid=exact_shift_law)
        assert [eta for eta, _ in sweep.excluded] == [
            eta for eta, ok in zip(etas, oks) if not ok]

    def test_gauge_collapses_on_eta_over_gamma_four_thirds(self, desk_model):
        # the gauge's edge over gamma^{4/3} is one number to 4.2% (825.4
        # to 860.4) over 2.7 decades of gamma: the gauge reads the
        # variable of the paper's condition, eta/gamma^{4/3}
        scaled = [_gauge_edge(find_band_zero(desk_model, g)) / g ** (4 / 3)
                  for g in (2e-6, 2e-5, 2e-4, 1e-3)]
        assert max(scaled) / min(scaled) <= 1.06

    def test_input_validation(self, desk_model, desk_band, flat_band):
        with pytest.raises(ConfigError):
            _validity(desk_band, gamma_coeff=0.0)
        with pytest.raises(ConfigError):
            _validity(find_band_zero(desk_model, 0.0))
        _, flat = flat_band
        with pytest.raises(RegimeError):
            _validity(flat)
