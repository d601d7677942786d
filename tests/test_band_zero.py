"""Linear-cost band: homogeneous pair, resolvent, boundaries, values.

Oracles used here, all independent of the construction under test:
- the resolvent of a linear source is linear and of a constant source is
  constant (hand closed forms for the mean-reverting signal),
- the Wronskian of the homogeneous pair obeys the integrating-factor
  identity, and the recessive member is a Hermite function (evaluated
  by mpmath),
- the closed-form Hermite tables have scipy's ``CubicHermiteSpline``
  coefficients bit for bit, and the band moves by less than the LSODA
  noise floor against not-a-knot tables and against four times the
  quadrature nodes,
- with no signal dynamics everything collapses to hand-computable
  exponentials and a flat band,
- the closed-form third derivative at the boundary equals implicit
  differentiation of the optimality system at a boundary state polished
  onto each x.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from bandlayer import asymptotics, band_zero, experiments
from bandlayer.errors import (ConfigError, ConvergenceError, DomainError,
                              RegimeError)
from bandlayer.model import ModelParams, small_cost_half_width
from bandlayer.band_zero import (check_displacement_identity, find_band_zero,
                                 flat_band_level, second_derivative_at_band,
                                 solve_homogeneous, third_derivative_at_band,
                                 value_nt_zero)
from conftest import DESK_GAMMA


def _spy_on_odeint(monkeypatch):
    """The output grids the homogeneous pass hands LSODA, as it runs."""
    seen = []
    real = band_zero.odeint

    def spy(func, y0, t, **kw):
        seen.append(np.array(t))
        return real(func, y0, t, **kw)

    monkeypatch.setattr(band_zero, "odeint", spy)
    return seen


class TestHomogeneousPair:
    def test_wronskian_negative_everywhere(self, desk_pair):
        assert np.all(desk_pair.wronskian_samples < 0)

    def test_wronskian_integrating_factor(self, desk_model, desk_pair):
        # W(x) * exp(-int 2 mu/sigma^2) is constant; the factor is itself
        # computed by quadrature so the check is independent of the
        # closed-form exponential
        xq = desk_pair.x_quad
        mu = -desk_model.omega * xq
        expo = cumulative_trapezoid(-2 * mu / desk_model.sigma ** 2, xq,
                                    initial=0.0)
        expo -= expo[np.argmin(np.abs(xq))]
        scaled = desk_pair.wronskian_samples * np.exp(-expo)
        assert np.max(np.abs(scaled + 1.0)) < 1e-6

    def test_reflection_symmetry(self, desk_pair):
        # symmetric signal: the two solutions are mirror images.  Both are
        # read from one mirrored pass, so this holds by construction; the
        # off-center band test checks the pass independently
        scale = np.max(desk_pair.psi1_s)
        dev = np.abs(desk_pair.psi2_s - desk_pair.psi1_s[::-1]) / scale
        assert np.max(dev) < 1e-8

    def test_growth_directions(self, desk_pair):
        # psi1 recessive at the left edge, dominant at the right
        assert desk_pair.psi1_s[0] < 1e-6 * desk_pair.psi1_s[-1]
        assert desk_pair.psi2_s[-1] < 1e-6 * desk_pair.psi2_s[0]
        assert np.all(desk_pair.psi1_s > 0)
        assert np.all(desk_pair.psi2_s > 0)

    def test_ode_residual_via_spline(self, desk_model, desk_pair):
        # differentiating the spline twice must reproduce the equation
        xs = np.linspace(-0.25, 0.25, 401)
        p = desk_model
        psi1, _, psi1_d, _ = desk_pair.spline(xs).T
        d2 = desk_pair.spline.derivative(2)(xs)[:, 0]
        lhs = 0.5 * p.sigma ** 2 * d2
        rhs = p.omega * xs * psi1_d + p.rho * psi1
        scale = np.abs(rhs) + np.max(np.abs(rhs)) * 1e-3
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-5

    def test_flattens_as_discount_vanishes(self):
        # at zero discounting a constant solves the equation, so the
        # center log-slope of the recessive solution scales like rho
        dom = (-0.3, 0.3)
        slope = {}
        for rho in (1e-2, 1e-4):
            p = ModelParams(sigma=0.02, omega=0.1, lam=1.0, rho=rho)
            pr = solve_homogeneous(p, dom)
            psi1, _, psi1_d, _ = pr.spline(0.0)
            slope[rho] = abs(float(psi1_d / psi1))
        assert slope[1e-4] < 0.05 * slope[1e-2]

    def test_no_reversion_exponentials(self):
        # omega = 0: solutions are exp(-+kappa x) with kappa = sqrt(2 rho)/sigma
        p = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
        pr = solve_homogeneous(p, (-2.0, 2.0))
        kappa = math.sqrt(2 * p.rho) / p.sigma
        xs = pr.x_quad
        w_abs = math.sqrt(2 * kappa)     # normalization fixes |W| = 1
        want1 = np.exp(kappa * xs) / w_abs * math.exp(0.0)
        # match at the center to remove the edge-anchored scaling
        ic = np.argmin(np.abs(xs))
        got1 = pr.psi1_s / pr.psi1_s[ic] * want1[ic]
        assert np.max(np.abs(got1 - want1) / want1) < 1e-8

    def test_bad_domain(self, desk_model):
        with pytest.raises(ConfigError):
            solve_homogeneous(desk_model, (0.3, -0.3))

    def test_recessive_member_is_hermite_function(self, desk_model,
                                                  desk_pair):
        # with nu = -rho/omega and k = sqrt(omega)/sigma the equation is
        # Hermite's in z = -k x, so psi1(x) ~ H_nu(-k x) and
        # psi1'(x) ~ -2 k nu H_{nu-1}(-k x).  Compared at quadrature nodes
        # of [-0.1, 0.3], normalized at the node nearest 0; the left edge
        # is avoided, where the start data mix in up to 1e-7 of psi2
        p = desk_model
        xq = desk_pair.x_quad
        idx = np.searchsorted(xq, np.linspace(-0.1, 0.3, 20))
        ic = int(np.argmin(np.abs(xq)))
        with mpmath.workdps(30):
            nu = -mpmath.mpf(p.rho) / p.omega
            k = mpmath.sqrt(p.omega) / p.sigma

            def hermite(shift, x):
                return mpmath.hermite(nu + shift, -k * mpmath.mpf(x))

            h0 = hermite(0, xq[ic])
            want = np.array([[float(hermite(0, xq[i]) / h0),
                              float(-2 * k * nu * hermite(-1, xq[i]) / h0)]
                             for i in idx])
        got = np.column_stack([desk_pair.psi1_s[idx],
                               desk_pair.psi1_d_s[idx]]) / desk_pair.psi1_s[ic]
        assert np.max(np.abs(got / want - 1)) < 1e-10

    def test_default_grid_is_mirror_symmetric(self, desk_pair):
        # the grid is h*k, k = -K..K, so negation maps it onto itself
        xq = desk_pair.x_quad
        assert xq.size == band_zero._QUAD_NODES
        assert np.array_equal(-xq[::-1], xq)
        # centred, the span is the padded domain itself, bit for bit
        assert desk_pair.span == (desk_pair.x_lo, desk_pair.x_hi)

    def test_pass_writes_one_node_per_quadrature_node(self, desk_model,
                                                       monkeypatch):
        # the mirrored pass needs no merged grid: LSODA is handed the
        # quadrature grid itself on a centred domain
        seen = _spy_on_odeint(monkeypatch)
        pair = solve_homogeneous(desk_model)
        (t,) = seen
        assert t.size == band_zero._QUAD_NODES
        assert np.array_equal(t, pair.x_quad)

    def test_psi2_is_psi1_reversed(self, desk_pair):
        assert np.array_equal(desk_pair.psi2_s, desk_pair.psi1_s[::-1])
        assert np.array_equal(desk_pair.psi2_d_s, -desk_pair.psi1_d_s[::-1])

    def test_off_center_grid_is_a_run_of_the_pass(self, desk_model,
                                                  monkeypatch):
        # off centre the pass spans [-R, R] past the padded domain; the
        # quadrature grid is the whole pass, and it just covers the span
        seen = _spy_on_odeint(monkeypatch)
        pair = solve_homogeneous(desk_model, (-0.06, 0.26))
        (t,) = seen
        assert np.array_equal(-t[::-1], t)
        assert np.array_equal(t, pair.x_quad)
        lo, hi = pair.span
        assert (lo, hi) == (-pair.x_hi, pair.x_hi) and lo < pair.x_lo
        assert t[0] <= lo < t[1]
        assert t[-2] < hi <= t[-1]

    def test_integrator_failure_names_span(self, desk_model, monkeypatch):
        # what odeint returns when LSODA gives up, without the
        # ODEintWarning it also emits: the code must read full_output
        def failing(func, y0, t, **kw):
            return np.zeros((t.size, 2)), {
                "message": "Excess work done on this call (perhaps wrong "
                           "Dfun type).", "tcur": t}

        monkeypatch.setattr(band_zero, "odeint", failing)
        with pytest.raises(ConvergenceError,
                           match=r"failed on span \(-0\.26\d*, 0\.26\d*\): "
                                 r"Excess work"):
            solve_homogeneous(desk_model, (-0.2, 0.2))

    def test_overflow_names_span(self, desk_model):
        # +-1.5 is 22 stationary deviations: psi1 grows past the largest
        # double before the pass reaches the right edge
        with pytest.raises(ConvergenceError,
                           match=r"overflows on span \(-1\.95\d*, 1\.95\d*\)"):
            find_band_zero(desk_model, DESK_GAMMA,
                           x_nodes=np.linspace(-1.5, 1.5, 31))


class TestGreensParticular:
    def test_drift_part_closed_form(self, desk_model, desk_band):
        # resolvent of the linear drift is exactly linear: -omega x/(rho+omega)
        p = desk_model
        xs = np.linspace(-0.26, 0.26, 53)
        want = -p.omega * xs / (p.rho + p.omega)
        drift_part = desk_band.comp.spline(xs)[:, 0]
        assert np.max(np.abs(drift_part - want)) < 1e-7

    def test_risk_part_closed_form(self, desk_model, desk_band):
        # resolvent of a constant is that constant over the discount rate
        p = desk_model
        xs = np.linspace(-0.26, 0.26, 53)
        want = -2 * p.lam / p.rho
        risk_part = desk_band.comp.spline(xs)[:, 1]
        assert np.max(np.abs(risk_part / want - 1)) < 1e-6

    def test_equation_residual_from_samples(self, desk_model, desk_band):
        # second differences of the tabulated parts must satisfy the
        # defining equations (no use of the stored derivative identities).
        # Stride the sample grid so the 1/h^2 amplification does not pick
        # up node-parity jitter of the cumulative quadrature.
        p = desk_model
        xq = desk_band.comp.pair.x_quad[::8]
        keep = (xq >= -0.26) & (xq <= 0.26)
        h = xq[1] - xq[0]
        drift_part, risk_part, _, _ = desk_band.comp.spline(xq).T
        for f, source in ((drift_part, -p.omega * xq),
                          (risk_part, np.full_like(xq, -2 * p.lam))):
            fxx = (f[2:] - 2 * f[1:-1] + f[:-2]) / h ** 2
            fx = (f[2:] - f[:-2]) / (2 * h)
            mu = -p.omega * xq[1:-1]
            resid = (0.5 * p.sigma ** 2 * fxx + mu * fx - p.rho * f[1:-1]
                     + source[1:-1])
            scale = np.max(np.abs(source)) + 1e-300
            assert np.max(np.abs(resid[keep[1:-1]])) / scale < 1e-6

    def test_slope_conditions_reconstructed(self, desk_band):
        # at swept levels the boundary-value conditions hold to roundoff
        b = desk_band
        pr = desk_band.comp.pair
        for j in (3, len(b.levels) // 2, len(b.levels) - 4):
            th, hp, hm = b.levels[j], b.h_plus[j], b.h_minus[j]
            a1, a2 = b.alpha1_prime[j], b.alpha2_prime[j]
            (p1p, p2p, _, _), (p1m, p2m, _, _) = pr.spline([hp, hm])
            (fp, qp, _, _), (fm, qm, _, _) = desk_band.comp.spline([hp, hm])
            up = fp + th * qp + a1 * p1p + a2 * p2p
            dn = fm + th * qm + a1 * p1m + a2 * p2m
            assert up == pytest.approx(-DESK_GAMMA, abs=1e-12)
            assert dn == pytest.approx(+DESK_GAMMA, abs=1e-12)

    def test_alpha_antisymmetry(self, desk_band):
        # x -> -x, theta -> -theta maps the solution onto itself with the
        # two homogeneous solutions swapped
        hp, hm, th = np.array([0.013]), np.array([-0.008]), np.array([2e-4])
        a = band_zero._level_state(desk_band.comp, DESK_GAMMA, th, hp, hm)
        b = band_zero._level_state(desk_band.comp, DESK_GAMMA, -th, -hm, -hp)
        assert a["a1"] == pytest.approx(-b["a2"], rel=1e-9)
        assert a["a2"] == pytest.approx(-b["a1"], rel=1e-9)


class TestHermiteTables:
    """Both tables are cubic Hermite interpolants of their sampled values
    and of derivative columns known from the defining equations."""

    def test_derivative_columns_at_knots(self, desk_model, desk_band):
        p, comp = desk_model, desk_band.comp
        xq = comp.pair.x_quad
        c, mu = 2.0 / p.sigma ** 2, -p.omega * xq
        psi1, psi2, d1, d2 = comp.pair.spline(xq).T
        drift, risk, drift_d, risk_d = comp.spline(xq).T
        tables = (
            (comp.pair.spline, [d1, d2, c * (p.omega * xq * d1 + p.rho * psi1),
                                c * (p.omega * xq * d2 + p.rho * psi2)]),
            (comp.spline, [drift_d, risk_d,
                           c * (p.rho * drift - mu * drift_d - mu),
                           c * (p.rho * risk - mu * risk_d + 2.0 * p.lam)]))
        for spline, want in tables:
            got = spline.derivative()(xq).T
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_closed_form_matches_cubic_hermite_spline(self, desk_model,
                                                      desk_pair):
        # the closed-form coefficients are scipy's, operation for operation
        p, pr = desk_model, desk_pair
        xq, c = pr.x_quad, 2.0 / desk_model.sigma ** 2
        values = (pr.psi1_s, pr.psi2_s, pr.psi1_d_s, pr.psi2_d_s)
        slopes = (pr.psi1_d_s, pr.psi2_d_s,
                  c * (p.omega * xq * pr.psi1_d_s + p.rho * pr.psi1_s),
                  c * (p.omega * xq * pr.psi2_d_s + p.rho * pr.psi2_s))
        want = CubicHermiteSpline(xq, np.column_stack(values),
                                  np.column_stack(slopes)).c
        got = band_zero._hermite_table(xq, values, slopes)
        assert np.array_equal(got.c, want)
        assert np.array_equal(pr.spline.c, want)
        assert np.array_equal(got.x, xq)

    @pytest.mark.parametrize("sigma, omega, gamma_factor", [
        (0.02, 0.1, 1.0), (0.02, 0.1, 0.9), (0.02, 0.1, 1.1),
        (0.01, 0.02, 1.0), (0.01, 0.5, 1.0), (0.05, 0.02, 1.0),
        (0.05, 0.5, 1.0)])
    def test_matches_not_a_knot_oracle(self, monkeypatch, sigma, omega,
                                       gamma_factor):
        # the same band with both tables built as not-a-knot splines of
        # the values alone, ignoring the derivative columns
        p = ModelParams(sigma=sigma, omega=omega, lam=1.0, rho=1e-3)
        band = find_band_zero(p, DESK_GAMMA * gamma_factor)
        monkeypatch.setattr(band_zero, "_hermite_table",
                            lambda x, values, slopes: CubicSpline(
                                x, np.column_stack(values)))
        ref = find_band_zero(p, DESK_GAMMA * gamma_factor)
        scale = np.max(np.abs(ref.theta_plus))
        for got, want in ((band.theta_plus, ref.theta_plus),
                          (band.theta_minus, ref.theta_minus)):
            assert np.max(np.abs(got - want)) <= 1e-11 * scale


class TestQuadratureNodes:
    @pytest.mark.parametrize("gamma_factor", [0.9, 1.0, 1.1])
    def test_band_converged_in_node_count(self, desk_model, monkeypatch,
                                          gamma_factor):
        # at _QUAD_NODES the h^4 interpolation and Simpson error sits
        # below the LSODA pass's noise floor: a solve on four times the
        # nodes moves the band by less than 1e-11 of its scale
        gamma = DESK_GAMMA * gamma_factor
        band = find_band_zero(desk_model, gamma)
        monkeypatch.setattr(band_zero, "_QUAD_NODES",
                            4 * (band_zero._QUAD_NODES - 1) + 1)
        fine = find_band_zero(desk_model, gamma)
        assert fine.comp.pair.x_quad.size == 4 * (band.comp.pair.x_quad.size
                                                  - 1) + 1
        scale = np.max(np.abs(fine.theta_plus))
        for got, want in ((band.theta_plus, fine.theta_plus),
                          (band.theta_minus, fine.theta_minus)):
            assert np.max(np.abs(got - want)) <= 1e-11 * scale


class TestBandGeometry:
    def test_symmetry(self, desk_band):
        # reflection symmetry of the model implies band antisymmetry;
        # compare at the polished nodes themselves (the node grid is
        # symmetric) so no interpolation enters
        up = desk_band.theta_plus
        dn = desk_band.theta_minus[::-1]
        np.testing.assert_allclose(up, dn, rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(up)))

    def test_mirror_is_exact_on_a_self_mirrored_grid(self, desk_model):
        # the lower half is the upper half mirrored, so on nodes that are
        # their own negation bit for bit the band and its level tables are
        # their own mirrors bit for bit; level 0, solved by Newton, is
        # symmetric only to rounding
        x = 0.268 / 90 * np.arange(-90, 91)
        assert np.array_equal(-x[::-1], x)
        band = find_band_zero(desk_model, DESK_GAMMA, x_nodes=x)
        assert np.array_equal(band.theta_minus, band.theta_plus[::-1])
        assert np.array_equal(band.theta_minus_deriv,
                              -band.theta_plus_deriv[::-1])
        assert np.array_equal(band.levels, -band.levels[::-1])
        assert np.array_equal(band.alpha2_prime, -band.alpha1_prime[::-1])
        off = band.levels != 0.0
        assert np.count_nonzero(~off) == 1
        assert np.array_equal(band.h_minus[off], -band.h_plus[::-1][off])

    def test_off_center_grid_matches_centered(self, desk_model):
        # an off-center grid makes the mirrored pass reach past the padded
        # domain on the left (R > -x_lo); the band must not notice
        off = find_band_zero(desk_model, DESK_GAMMA,
                             x_nodes=np.linspace(-0.06, 0.26, 33))
        cen = find_band_zero(desk_model, DESK_GAMMA,
                             x_nodes=np.linspace(-0.26, 0.26, 53))
        pr = off.comp.pair
        assert pr.x_hi > -pr.x_lo
        np.testing.assert_allclose(off.x_nodes, cen.x_nodes[20:],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(off.theta_plus, cen.theta_plus[20:],
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(off.theta_minus, cen.theta_minus[20:],
                                   rtol=1e-9, atol=0)

    def test_upper_boundary_decreasing(self, desk_band):
        assert np.all(np.diff(desk_band.theta_plus) < 0)
        assert np.all(desk_band.theta_plus_deriv < 0)

    def test_width_positive_and_near_small_cost_scale(self, desk_model,
                                                      desk_band):
        p = desk_model
        w_small = (p.omega / (2 * p.lam)) * (
            1.5 * DESK_GAMMA * p.sigma ** 2 / p.omega) ** (1 / 3)
        width = desk_band.theta_plus + desk_band.theta_minus
        assert np.all(width > 0)
        # small-cost scale is right to ~10% at these parameters
        assert abs(width[len(width) // 2] / (2 * w_small) - 1) < 0.1

    def test_band_brackets_frictionless_target(self, desk_model, desk_band):
        xs = desk_band.x_nodes
        target = -desk_model.omega * xs / (2 * desk_model.lam)
        assert np.all(desk_band.theta_plus > target)
        assert np.all(-desk_band.theta_minus < target)

    def test_slope_matches_differenced_level_curve(self, desk_band):
        # stored exact slopes vs differentiated spline of the sampled curve
        xs = np.linspace(-0.2, 0.2, 9)
        sp = CubicSpline(desk_band.x_nodes, desk_band.theta_plus)
        _, got = desk_band.plus_edge_at(xs)
        np.testing.assert_allclose(got, sp.derivative()(xs), rtol=1e-5)

    def test_narrows_with_smaller_cost(self, desk_model, desk_band):
        b_small = find_band_zero(desk_model, DESK_GAMMA / 8)
        assert float(b_small.theta_plus_at(0.0)) < float(
            desk_band.theta_plus_at(0.0))
        # cube-root law: gamma/8 halves the width
        ratio = float(b_small.theta_plus_at(0.0) + b_small.theta_minus_at(0.0)) \
            / float(desk_band.theta_plus_at(0.0) + desk_band.theta_minus_at(0.0))
        assert ratio == pytest.approx(0.5, abs=0.02)

    def test_tiny_cost_still_solves(self, desk_model):
        widths = {}
        for gamma in (1e-6, 1e-7):
            b = find_band_zero(desk_model, gamma,
                               x_nodes=np.linspace(-0.1, 0.1, 41))
            assert float(b.theta_plus_at(0.0)) > 0
            assert np.all(np.isfinite(b.alpha1_prime))
            assert np.all(np.isfinite(b.alpha2_prime))
            widths[gamma] = float(b.width(0.0))
        # widths follow the cube-root cost law deep into the small-cost end
        assert widths[1e-7] / widths[1e-6] == pytest.approx(0.1 ** (1 / 3),
                                                            rel=0.02)

    def test_rejects_bad_gamma(self, desk_model):
        with pytest.raises(ConfigError):
            find_band_zero(desk_model, 0.0)

    def test_coverage_failure_raises(self, desk_model):
        # with almost no padding the level interval cannot step past the
        # grid ends, so the boundary cannot cover the grid: fail loudly
        with pytest.raises(RegimeError):
            find_band_zero(desk_model, DESK_GAMMA,
                           x_nodes=np.linspace(-0.4, 0.4, 31),
                           pad_frac=0.005)

    def test_flat_band_without_reversion(self):
        p = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
        b = find_band_zero(p, DESK_GAMMA,
                           x_nodes=np.linspace(-1.0, 1.0, 11))
        want = flat_band_level(p, DESK_GAMMA)
        assert want == pytest.approx(1e-3 * DESK_GAMMA / 2, rel=1e-12)
        np.testing.assert_allclose(b.theta_plus, want, rtol=1e-12)
        np.testing.assert_allclose(b.theta_minus, want, rtol=1e-12)
        assert b.flat
        assert float(b.plus_edge_at(0.3)[1]) == 0.0
        # the three interpolants and the width on an array reaching past
        # the nodes on both sides: exactly constant, exactly flat
        xs = np.array([-1.7, 0.0, 0.3, 2.5])
        theta, got = b.plus_edge_at(xs)
        for level in (b.theta_plus_at(xs), b.theta_minus_at(xs), theta):
            assert level.shape == xs.shape
            assert np.all(level == want)
        assert got.shape == xs.shape
        assert np.all(got == 0.0)
        assert np.all(b.theta_minus_deriv == 0.0)
        assert np.all(b.width(xs) == 2 * want)


class TestBandDerivatives:
    def test_second_derivative_vanishes(self, desk_band):
        # optimality of the boundary family: total curvature in the level
        # direction is zero at the boundary
        gamma = desk_band.gamma_lin
        for x in (-0.2, -0.05, 0.0, 0.1, 0.22):
            width = float(desk_band.width(x))
            v2 = second_derivative_at_band(desk_band, x)
            assert abs(v2) * width / gamma < 1e-6

    def test_third_derivative_exact_relation(self, desk_model, desk_band):
        # the closed form against implicit differentiation of the
        # optimality system, (dR+/dtheta)^2 / S+, at a boundary state
        # polished onto each x: its upper endpoint pinned at x, its lower
        # seeded from the nearest node's solved partner moved with x
        p = desk_model
        xs = np.array([-0.1, -0.05, 0.0, 0.03, 0.1, 0.2])
        for band in (find_band_zero(p, 2e-6), find_band_zero(p, 2e-5),
                     desk_band):
            nodes = band_zero._polish_node(
                band.comp, band.gamma_lin, band.x_nodes,
                *_nearest_level_seeds(band, band.x_nodes))
            i = np.abs(band.x_nodes - xs[:, None]).argmin(axis=1)
            st = band_zero._polish_node(
                band.comp, band.gamma_lin, xs, band.theta_plus_at(xs),
                nodes["hm"][i] + (xs - band.x_nodes[i]))
            got = third_derivative_at_band(band, xs)
            np.testing.assert_allclose(got, st["jac"][0][0] ** 2 / st["sp"],
                                       rtol=1e-8, atol=0)
            for x, v in zip(xs.tolist(), got.tolist()):
                # a float x is a batch of one and returns that batch's float
                alone = third_derivative_at_band(band, x)
                assert type(alone) is float and alone == v
                # the layer's forcing is V_theta3 * D, so its wall slope
                # over V_theta3 is the wall offset, and the band edge
                # moves inward by exactly that times eta^(1/3)
                c = asymptotics.layer_constants(band, x)
                assert c.amp ** 2 == pytest.approx(v * c.diffusivity,
                                                   rel=1e-14, abs=0)
                assert c.wall_slope == pytest.approx(v * c.wall_offset,
                                                     rel=1e-14, abs=0)
                eta = 1e-4
                assert c.boundary == band.theta_plus_at(x)
                assert c.shift(eta) == c.wall_offset * eta ** (1 / 3)
                assert (asymptotics.shifted_boundary(c, eta)
                        == c.boundary - c.shift(eta))

    def test_third_derivative_small_cost_scale(self, desk_model, desk_band):
        p = desk_model
        est = 8 * p.lam ** 2 / (p.sigma ** 2 * p.omega) * (
            1.5 * desk_band.gamma_lin * p.sigma ** 2 / p.omega) ** (1 / 3)
        got = third_derivative_at_band(desk_band, 0.0)
        assert got == pytest.approx(est, rel=0.05)

    @pytest.mark.parametrize("gamma, nodes, x", [
        (DESK_GAMMA, (-0.06, 0.26, 33), -0.2),
        (1e-6, (-0.1, 0.1, 41), 0.17)], ids=["off_center", "tiny_cost"])
    def test_outside_solved_domain_raises(self, desk_model, gamma, nodes, x):
        # the polish would start from the band spline's extrapolation and
        # stall; a point outside the pair's padded domain is refused
        band = find_band_zero(desk_model, gamma, x_nodes=np.linspace(*nodes))
        pr = band.comp.pair
        with pytest.raises(DomainError, match=re.escape(
                f"[{pr.x_lo:.6g}, {pr.x_hi:.6g}]")):
            third_derivative_at_band(band, x)

    def test_past_the_nodes_inside_padding_answers(self, desk_band):
        # on both sides: left of the nodes the lower endpoint's seed must
        # move with x, or it starts right of the upper endpoint
        pr = desk_band.comp.pair
        for x in (0.3, -0.3):
            assert pr.x_lo < x < pr.x_hi
            assert not desk_band.x_nodes[0] < x < desk_band.x_nodes[-1]
            assert third_derivative_at_band(desk_band, x) > 0

    def test_flat_band_rejects_third_derivative(self):
        p = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
        b = find_band_zero(p, DESK_GAMMA, x_nodes=np.linspace(-1, 1, 11))
        with pytest.raises(RegimeError):
            third_derivative_at_band(b, 0.0)


def _solve_level(comp, gamma, theta, hp, hm):
    """One level solved alone, as a batch of one; raises its Newton's
    error, and returns its (theta, hp, hm, a1, a2) as floats."""
    st, _, errors = band_zero._newton_level(
        comp, gamma, np.array([theta]), np.array([hp]), np.array([hm]))
    if errors[0] is not None:
        raise errors[0]
    return {k: float(st[k][0]) for k in ("theta", "hp", "hm", "a1", "a2")}


def _continuation_levels(band):
    """The level sweep as a sequential continuation, one Newton per level
    (each a batch of one).

    Level 0 is solved from the small-cost seed (+-x0); every other level
    k*dtheta from the two levels before it by linear extrapolation,
    clamped into the guarded span, until a converged level meets the end
    rule over the grid's symmetric hull [x_far, -x_far], a seed pair
    crosses, or a Newton fails.  Both directions are solved, so the
    levels below zero check the band's mirrored ones independently.
    Returns the levels' (theta, h+, h-) sorted by theta and, per
    direction (up, down), "end rule" or the reason it stopped short.
    """
    comp, gamma = band.comp, band.gamma_lin
    p, (lo, hi) = comp.params, comp.pair.span
    x_far = min(band.x_nodes[0], -band.x_nodes[-1])
    guard = 0.02 * (hi - lo)
    lo_lim, hi_lim = lo + guard, hi - guard
    w = small_cost_half_width(p, gamma)
    dtheta = 0.1 * w

    def newton(theta, hp, hm):
        return _solve_level(comp, gamma, theta, hp, hm)

    x0 = 2.0 * p.lam * w / p.omega
    st0 = newton(0.0, x0, -x0)

    def sweep(direction):
        prev2, prev, out = None, st0, []
        for k in range(1, 40001):
            theta = direction * k * dtheta
            if prev2 is not None:
                hp_seed = 2 * prev["hp"] - prev2["hp"]
                hm_seed = 2 * prev["hm"] - prev2["hm"]
            else:
                hp_seed, hm_seed = prev["hp"], prev["hm"]
            hp_seed = min(max(hp_seed, lo_lim), hi_lim)
            hm_seed = min(max(hm_seed, lo_lim), hi_lim)
            if hp_seed <= hm_seed:
                return out, "seeds crossed"
            try:
                st = newton(theta, hp_seed, hm_seed)
            except (ConvergenceError, RegimeError) as exc:
                return out, str(exc)
            out.append(st)
            prev2, prev = prev, st
            if direction > 0 and (st["hp"] <= x_far
                                  or st["hm"] <= lo_lim + guard):
                return out, "end rule"
            if direction < 0 and (st["hm"] >= -x_far
                                  or st["hp"] >= hi_lim - guard):
                return out, "end rule"
        raise AssertionError("continuation exceeded its level budget")

    ups, up_end = sweep(+1.0)
    downs, down_end = sweep(-1.0)
    records = downs[::-1] + [st0] + ups
    return (tuple(np.array([r[k] for r in records])
                  for k in ("theta", "hp", "hm")), (up_end, down_end))


_SWEEP_CASES = (
    [("desk", 0.02, 0.1, 1.0)]
    + [(f"gamma_x{f}", 0.02, 0.1, f)
       for f in (0.9, 0.95, 1.05, 1.1, 0.1, 0.3, 3.0)]
    + [(f"sigma{s}_omega{o}", s, o, 1.0)
       for s in (0.01, 0.02, 0.05) for o in (0.02, 0.1, 0.5)])


class TestLevelNewton:
    @pytest.mark.parametrize("sigma, omega, gamma_factor",
                             [c[1:] for c in _SWEEP_CASES],
                             ids=[c[0] for c in _SWEEP_CASES])
    def test_matches_scalar_continuation(self, sigma, omega, gamma_factor):
        # the batched sweep from the small-cost seeds, mirrored below
        # zero, finds the levels the two-direction scalar continuation
        # finds, and each direction ends as it does
        p = ModelParams(sigma=sigma, omega=omega, lam=1.0, rho=1e-3)
        band = find_band_zero(p, DESK_GAMMA * gamma_factor)
        (theta, hp, hm), ends = _continuation_levels(band)
        np.testing.assert_array_equal(band.levels, theta)
        lo, hi = band.comp.pair.span
        tol = 1e-11 * (hi - lo)
        np.testing.assert_allclose(band.h_plus, hp, rtol=0, atol=tol)
        np.testing.assert_allclose(band.h_minus, hm, rtol=0, atol=tol)
        assert ends == ("end rule", "end rule")
        assert band.sweep_end == band_zero.SweepEnd(theta[-1])

    def test_desk_sweep_ends_on_the_end_rule(self, desk_band):
        # the sweep stops at its last level, which meets the end rule, not
        # at a failed Newton; the levels below zero end on its mirror
        assert desk_band.sweep_end == band_zero.SweepEnd(desk_band.levels[-1])
        assert desk_band.levels[0] == -desk_band.levels[-1]
        assert desk_band.h_plus[-1] <= desk_band.x_nodes[0]
        assert desk_band.h_minus[0] >= desk_band.x_nodes[-1]

    def test_short_batch_is_solved_again_further_out(self, desk_model,
                                                     desk_band, monkeypatch):
        # a first batch that falls short of the end is solved again out
        # to twice as far; each level's Newton is its own, so the levels
        # come out bit for bit as from a batch that reached far enough
        calls = []
        real = band_zero._newton_level

        def counting(comp, gamma_lin, theta, *args):
            calls.append(theta.size)
            return real(comp, gamma_lin, theta, *args)

        monkeypatch.setattr(band_zero, "_END_MARGIN", -0.4)
        monkeypatch.setattr(band_zero, "_newton_level", counting)
        band = find_band_zero(desk_model, DESK_GAMMA)
        assert len(calls) == 2 and calls[1] == 2 * calls[0] - 1
        for key in ("levels", "h_plus", "h_minus", "theta_plus"):
            assert np.array_equal(getattr(band, key), getattr(desk_band, key))
        assert band.sweep_end == desk_band.sweep_end

    def test_level_alone_matches_its_batch(self, desk_model, monkeypatch):
        # every level the sweep keeps, solved alone from its seed as a
        # batch of one, ends bit for bit where it ends inside the sweep's
        # batch: the whole state, Jacobian included.  The batch holds the
        # levels theta >= 0; those below zero are their mirrors
        batches = []
        real = band_zero._newton_level

        def spy(comp, gamma_lin, theta, hp0, hm0, drop=None):
            out = real(comp, gamma_lin, theta, hp0, hm0, drop)
            batches.append(((comp, gamma_lin, theta, hp0, hm0), out))
            return out

        monkeypatch.setattr(band_zero, "_newton_level", spy)
        band = find_band_zero(desk_model, DESK_GAMMA)
        ((comp, gamma, theta, hp0, hm0), (st, done, _)), = batches
        kept = np.flatnonzero(np.isin(theta, band.levels))
        assert kept.size == np.count_nonzero(band.levels >= 0)
        assert done[kept].all()
        for k in kept.tolist():
            one = slice(k, k + 1)
            alone, done1, _ = real(comp, gamma, theta[one], hp0[one],
                                   hm0[one])
            assert done1[0]
            for a, b in zip(band_zero._leaves(alone), band_zero._leaves(st)):
                assert np.array_equal(a, b[one]), k

    def test_zero_level_failure_raises(self, desk_model):
        # a grid right of the band's zero level: the sweep's span [-R, R]
        # holds the zero level, but the upper boundary reaches the span's
        # guarded edge before it covers the grid's mirror, so the band is
        # refused by the coverage check
        with pytest.raises(RegimeError, match=re.escape(
                "but the grid and its mirror request [-0.26, 0.26]")) as info:
            find_band_zero(desk_model, DESK_GAMMA,
                           x_nodes=np.linspace(0.05, 0.26, 33))
        assert str(info.value).startswith("upper boundary only covers")

    def test_failed_level_ends_its_direction(self, desk_model, monkeypatch):
        # a level whose Newton fails ends the sweep before it; the upper
        # boundary then misses the grid's left end, and the error names
        # the failed level and its Newton's error
        real = band_zero._level_state
        bad = []

        def stub(comp, gamma_lin, theta, hp, hm):
            st = real(comp, gamma_lin, theta, hp, hm)
            if not bad:
                bad.append(theta[np.argmin(np.abs(theta - 3e-3))])
            hit = theta == bad[0]
            st["jac"] = tuple(tuple(np.where(hit, 0.0, e) for e in r)
                              for r in st["jac"])
            st["rp"] = np.where(hit, 1.0, st["rp"])
            return st

        monkeypatch.setattr(band_zero, "_level_state", stub)
        with pytest.raises(RegimeError) as info:
            find_band_zero(desk_model, DESK_GAMMA)
        msg = str(info.value)
        assert msg.startswith("upper boundary only covers")
        assert (f"; the level sweep stopped before theta={bad[0]:.6g}: "
                f"singular level Newton Jacobian at theta={bad[0]:.6g}, h+="
                ) in msg

    def test_level_state_call_budget(self, desk_model, monkeypatch):
        # the desk band's sweep and node polish together evaluate the
        # level system in at most 10 batched calls (they make 9; a sweep of
        # both directions and a polish per side made 13, and a sweep of
        # one scalar Newton per level 1051)
        calls = []
        real = band_zero._level_state

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(band_zero, "_level_state", counting)
        find_band_zero(desk_model, DESK_GAMMA)
        assert len(calls) <= 10

    @pytest.mark.parametrize("jac", [((1.0, 2.0, 4.0), (0.5, 1.0, 2.0)),
                                     ((0.0, math.nan, 1.0), (1.0, 1.0, 1.0))],
                             ids=["rank_deficient", "not_finite"])
    def test_singular_step_raises(self, desk_band, monkeypatch, jac):
        # a Jacobian with no usable 2x2 step must stop the Newton loudly,
        # not walk on a nan or infinite step
        real = band_zero._level_state

        def stub(*args):
            st = real(*args)
            ones = np.ones_like(st["rp"])
            return dict(st, rp=ones, rm=ones, scale=ones,
                        jac=tuple(tuple(e * ones for e in r) for r in jac))

        monkeypatch.setattr(band_zero, "_level_state", stub)
        pr = desk_band.comp.pair
        st, done, errors = band_zero._newton_level(
            desk_band.comp, DESK_GAMMA, np.zeros(1), np.array([0.5 * pr.x_hi]),
            np.array([0.5 * pr.x_lo]))
        assert not done.any()
        assert isinstance(errors[0], ConvergenceError)
        assert str(errors[0]).startswith("singular level Newton Jacobian")


def _nearest_level_seeds(band, x):
    """Seeds of the node polish as find_band_zero takes them: the swept
    level whose upper endpoint is nearest each x."""
    order = np.argsort(band.h_plus)
    j = order[np.minimum(np.searchsorted(band.h_plus[order], x),
                         band.levels.size - 1)]
    return band.levels[j], band.h_minus[j]


class TestBatchedPolish:
    """The batched polish of the upper boundary, at the nodes (the upper
    side) and at their mirrors (the lower side), against each node
    polished alone."""

    @pytest.fixture(scope="class")
    def off_band(self, desk_model):
        return find_band_zero(desk_model, DESK_GAMMA,
                              x_nodes=np.linspace(-0.06, 0.26, 33))

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("grid", ["desk", "off_center"])
    def test_matches_per_node_newton(self, desk_band, off_band, grid, side):
        band = desk_band if grid == "desk" else off_band
        x = band.x_nodes if side == "plus" else -band.x_nodes
        theta0, hm0 = _nearest_level_seeds(band, x)
        got = band_zero._polish_node(band.comp, DESK_GAMMA, x, theta0, hm0)
        # each node polished alone, as a batch of one, ends bit for bit
        # where it ends inside the batch: the whole state, Jacobian included
        for k in range(x.size):
            one = slice(k, k + 1)
            alone = band_zero._polish_node(band.comp, DESK_GAMMA, x[one],
                                           theta0[one], hm0[one])
            for a, b in zip(band_zero._leaves(alone), band_zero._leaves(got)):
                assert np.array_equal(a, b[one]), k
        # and the band itself holds the batch's answer: the lower edge at
        # x is the upper edge at -x
        want = band.theta_plus if side == "plus" else band.theta_minus
        assert np.array_equal(want, got["theta"])

    def _stub_node(self, monkeypatch, x_bad, **override):
        """_level_state with the entries in override forced at h+ = x_bad."""
        real = band_zero._level_state

        def stub(comp, gamma_lin, theta, hp, hm):
            st = real(comp, gamma_lin, theta, hp, hm)
            hit = hp == x_bad
            for key, val in override.items():
                if key == "jac":
                    st[key] = tuple(tuple(np.where(hit, val, e) for e in r)
                                    for r in st[key])
                else:
                    st[key] = np.where(hit, val, st[key])
            return st

        monkeypatch.setattr(band_zero, "_level_state", stub)

    def test_node_that_never_improves_raises(self, desk_band, monkeypatch):
        x_bad = float(desk_band.x_nodes[57])
        theta0, other0 = _nearest_level_seeds(desk_band,
                                              desk_band.x_nodes)
        self._stub_node(monkeypatch, x_bad, rp=1.0, rm=1.0, scale=1.0)
        with pytest.raises(ConvergenceError,
                           match=r"stalled at .*" + re.escape(
                               f"h+={x_bad:.6g}, ")):
            band_zero._polish_node(desk_band.comp, DESK_GAMMA,
                                   desk_band.x_nodes, theta0, other0)

    def test_singular_node_raises(self, desk_band, monkeypatch):
        x_bad = float(desk_band.x_nodes[120])
        theta0, other0 = _nearest_level_seeds(desk_band,
                                              desk_band.x_nodes)
        self._stub_node(monkeypatch, x_bad, rp=1.0, rm=1.0, scale=1.0,
                        jac=1.0)
        with pytest.raises(ConvergenceError,
                           match=r"singular .*" + re.escape(
                               f"h+={x_bad:.6g}, ")):
            band_zero._polish_node(desk_band.comp, DESK_GAMMA,
                                   desk_band.x_nodes, theta0, other0)


class TestDisplacementIdentity:
    def test_matches_minus_third_derivative(self, desk_band):
        # the identity's quadratic-regime guard (estimates at delta and
        # delta/2 within 25%) raises unless the response to displacing the
        # boundary is quadratic in delta, so passing checks that too
        for x in (-0.2, -0.1, 0.0, 0.1, 0.2):
            lhs, rhs = check_displacement_identity(desk_band, x)
            assert lhs == pytest.approx(rhs, rel=1e-2)

    @staticmethod
    def _ten_solve_lhs(band, x):
        """The identity's lhs with every level of every displaced family
        solved afresh and alone: 10 level Newtons per x, 5 of them
        distinct, each seeded from the swept level above it."""
        theta_b = float(band.theta_plus_at(x))
        delta = 0.02 * float(band.width(x))
        p1x, p2x, _, _ = band.comp.pair.spline(x).tolist()

        def level(theta):
            j = int(np.clip(np.searchsorted(band.levels, theta), 1,
                            band.levels.size - 1))
            return _solve_level(band.comp, band.gamma_lin, theta,
                                band.h_plus[j], band.h_minus[j])

        def alpha(d):
            st = band_zero._level_state(
                band.comp, band.gamma_lin, np.array([theta_b]),
                np.array([level(theta_b - d)["hp"]]),
                np.array([level(theta_b)["hm"]]))
            return st["a1"][0], st["a2"][0]

        def gprime(d):
            st0 = level(theta_b)
            (a1p, a2p), (a1m, a2m) = alpha(+d), alpha(-d)
            return ((a1p + a1m - 2 * st0["a1"]) * p1x
                    + (a2p + a2m - 2 * st0["a2"]) * p2x) / (d * d)

        gprime(delta)
        return float(gprime(delta / 2))

    def test_solves_each_level_once(self, desk_band, monkeypatch):
        # one level batch for all x, 5 distinct levels per x, and the
        # same lhs as solving all ten levels of each x one at a time
        xs = np.array([-0.1, 0.0, 0.2])
        batches = []
        real = band_zero._newton_level

        def counting(comp, gamma_lin, theta, *args):
            batches.append(theta)
            return real(comp, gamma_lin, theta, *args)

        with monkeypatch.context() as mp:
            mp.setattr(band_zero, "_newton_level", counting)
            lhs, rhs = check_displacement_identity(desk_band, xs)
        (thetas,) = batches
        assert thetas.size == np.unique(thetas).size == 5 * xs.size
        for k, x in enumerate(xs.tolist()):
            assert lhs[k] == self._ten_solve_lhs(desk_band, x)
            # a float x is a batch of one, with the batch's answer
            assert check_displacement_identity(desk_band, x) == (lhs[k],
                                                                 rhs[k])
        assert np.array_equal(
            rhs, -band_zero.third_derivative_at_band(desk_band, xs))


class TestValues:
    def test_domain_errors(self, desk_band):
        tb = float(desk_band.theta_plus_at(0.0))
        with pytest.raises(DomainError):
            value_nt_zero(desk_band, 0.0, 1.5 * tb)

    def test_value_negative_inside(self, desk_band):
        # with the level-zero gauge the running penalty makes value < 0
        assert value_nt_zero(desk_band, 0.0,
                             0.5 * float(desk_band.theta_plus_at(0.0))) < 0

    def test_more_risk_aversion_lowers_value(self, desk_model, desk_band):
        p2 = ModelParams(sigma=desk_model.sigma, omega=desk_model.omega,
                         lam=1.5 * desk_model.lam, rho=desk_model.rho)
        band2 = find_band_zero(p2, DESK_GAMMA)
        th = 0.5 * float(desk_band.theta_plus_at(0.0))
        assert value_nt_zero(band2, 0.0, th) < value_nt_zero(desk_band, 0.0, th)

    def test_no_reversion_closed_form(self):
        # flat case: value is -lam theta^2 / rho exactly
        p = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
        b = find_band_zero(p, DESK_GAMMA, x_nodes=np.linspace(-1, 1, 11))
        th = 0.5 * flat_band_level(p, DESK_GAMMA)
        assert value_nt_zero(b, 0.0, th) == pytest.approx(
            -p.lam * th ** 2 / p.rho, rel=1e-12, abs=0.0)

    def test_flat_band_domain_error(self):
        # the flat band has a closed-form value, but only inside the band
        p = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
        b = find_band_zero(p, DESK_GAMMA, x_nodes=np.linspace(-1, 1, 11))
        with pytest.raises(DomainError):
            value_nt_zero(b, 0.0, 5 * flat_band_level(p, DESK_GAMMA))


class TestWidthSweep:
    def test_overflowing_gamma_is_excluded(self, desk_model):
        # the widest pad retry of gamma 1e-1 overflows the homogeneous
        # pass; the sweep names that and fits the other four
        res = experiments.gamma_width_sweep(
            desk_model, [2e-5, 2e-4, 2e-3, 2e-2, 1e-1], x=0.1)
        np.testing.assert_array_equal(res.values, [2e-5, 2e-4, 2e-3, 2e-2])
        (gamma, reason), = res.excluded
        assert gamma == 1e-1 and "overflows on span" in reason

    def test_pad_retry_is_noted(self, desk_model, monkeypatch):
        # a gamma whose band fails on the narrow pads is retried wider;
        # the sweep notes the pad that worked and what each narrower one
        # raised, and says nothing of the gammas solved on the first pad
        # (all the others here).  The first pad of gamma 1e-4 is 4
        # small-cost half-widths over the Markowitz slope across the
        # window, 0.377195; a retry goes to a rung at least twice the pad
        # that failed, so it skips 0.15 and 0.5 and lands on 1.5
        real = band_zero.find_band_zero

        def narrow_fails(params, gamma, x_nodes=None, pad_frac=0.15):
            if gamma == 1e-4 and pad_frac < 1.0:
                raise RegimeError(f"stub at pad {pad_frac:g}")
            return real(params, gamma, x_nodes=x_nodes, pad_frac=pad_frac)

        monkeypatch.setattr(band_zero, "find_band_zero", narrow_fails)
        res = experiments.gamma_width_sweep(desk_model,
                                            [5e-7, 5e-6, 2e-5, 1e-4])
        np.testing.assert_array_equal(res.values, [5e-7, 5e-6, 2e-5, 1e-4])
        assert res.excluded == ()
        assert res.notes == (
            "gamma=0.0001 needed pad 1.5: pad 0.377195 raised RegimeError: "
            "stub at pad 0.377195",)

    def test_first_pad_fits_every_acceptance_gamma(self, desk_model,
                                                   monkeypatch):
        # the first pad is sized from the small-cost band, so the 7 gammas
        # of the acceptance sweep solve one band each (a fixed first pad
        # of 0.15 failed on 5 of them and took 13 solves)
        pads = []
        real = band_zero.find_band_zero

        def counting(params, gamma, x_nodes=None, pad_frac=0.15):
            pads.append(pad_frac)
            return real(params, gamma, x_nodes=x_nodes, pad_frac=pad_frac)

        monkeypatch.setattr(band_zero, "find_band_zero", counting)
        res = experiments.gamma_width_sweep(desk_model,
                                            np.geomspace(2e-6, 2e-3, 7))
        assert len(pads) == 7 and res.excluded == ()
        assert not [n for n in res.notes if "needed pad" in n]
