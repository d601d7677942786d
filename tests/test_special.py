"""Airy log-derivative, ODE integration, stencil weights.

The library takes the Airy functions from scipy.special; the oracle for
them here is mpmath at 40 significant digits, so the tests do not share
code with what they check.
"""

import math

import mpmath
import numpy as np
import pytest

from bandlayer.errors import ConfigError
from bandlayer.special import (airy_first_max, airy_log_derivative,
                               fd_weights, integrate_ode)

# Ai(0) and Ai'(0) in closed form, through the gamma function
AI0 = 3 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP0 = -(3 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def _max_rel_error(u):
    """Largest relative error of Ai'/Ai at the samples u against mpmath."""
    with mpmath.workdps(40):
        want = np.array([float(mpmath.airyai(v, derivative=1)
                               / mpmath.airyai(v)) for v in u])
    return float(np.max(np.abs(airy_log_derivative(u) - want) / np.abs(want)))


class TestAiryValues:
    def test_against_reference_wide(self):
        # both sides of the origin, across the first maximum at -1.0188
        assert _max_rel_error(np.linspace(-2.0, 0.0, 201)) <= 1e-12
        assert _max_rel_error(np.linspace(0.0, 8.0, 401)) <= 1e-12

    def test_origin_values(self):
        assert airy_log_derivative(0.0) == pytest.approx(AIP0 / AI0, rel=1e-14)

    def test_derivative_consistency(self):
        # the log-derivative r solves the Riccati equation r' = u - r^2;
        # a Richardson-extrapolated difference of r must match at u = -1
        u = -1.0
        h = 1e-5
        d1 = (airy_log_derivative(u + h) - airy_log_derivative(u - h)) / (2 * h)
        d2 = (airy_log_derivative(u + h / 2)
              - airy_log_derivative(u - h / 2)) / h
        richardson = (4 * d2 - d1) / 3
        assert abs(richardson - (u - airy_log_derivative(u) ** 2)) < 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            airy_log_derivative(float("nan"))
        with pytest.raises(ConfigError):
            airy_log_derivative(float("inf"))
        with pytest.raises(ConfigError):
            airy_log_derivative(np.array([0.0, -math.inf]))

    def test_first_max_location(self):
        u = airy_first_max()
        with mpmath.workdps(40):
            want = float(mpmath.airyaizero(1, derivative=1))
            slope = float(mpmath.airyai(u, derivative=1))
        assert u == pytest.approx(want, abs=1e-14)
        assert abs(slope) < 1e-14


class TestAiryLogDerivative:
    def test_matches_ratio_deep(self):
        assert _max_rel_error(np.linspace(8.0, 95.0, 175)) <= 1e-12

    def test_matches_ratio_asymptotic(self):
        # Ai itself underflows a double beyond u ~ 105
        assert _max_rel_error(np.linspace(95.0, 1000.0, 182)) <= 1e-12

    def test_matches_ratio_beyond_airye_range(self):
        # scipy's airye returns NaN past u ~ 1e6; the composite speed curve
        # at small eta reaches u ~ 1e7 and beyond
        assert _max_rel_error(np.geomspace(1e3, 1e12, 37)) <= 1e-12

    def test_far_field_behaves(self):
        r = airy_log_derivative(600.0)
        assert r == pytest.approx(-math.sqrt(600.0), rel=1e-3)
        assert r < -math.sqrt(600.0)  # the 1/(4u) correction is negative

    def test_scalar_and_array_shapes(self):
        assert isinstance(airy_log_derivative(1.0), float)
        u = np.array([[-1.5, 0.0], [3.0, 200.0]])
        r = airy_log_derivative(u)
        assert r.shape == u.shape
        assert r[0, 1] == airy_log_derivative(0.0)


class TestIntegrateOde:
    def test_exponential(self):
        traj = integrate_ode(lambda t, y: [y[0]], [1.0], (0.0, 1.0), tol=1e-12)
        assert traj.end_state[0] == pytest.approx(math.e, rel=1e-11)

    def test_logistic_eval_grid(self):
        ts = np.linspace(0.0, 2.0, 41)
        traj = integrate_ode(lambda t, y: [y[0] * (1 - y[0])], [0.5],
                             (0.0, 2.0), tol=1e-12, t_eval=ts)
        want = 1.0 / (1.0 + np.exp(-ts))
        np.testing.assert_allclose(traj.ys[0], want, rtol=1e-10)

    def test_airy_equation_roundtrip(self):
        # y'' = t y from the origin reproduces the Airy function
        traj = integrate_ode(lambda t, y: [y[1], t * y[0]], [AI0, AIP0],
                             (0.0, 2.0), tol=1e-12)
        assert traj.end_state[0] == pytest.approx(float(mpmath.airyai(2.0)),
                                                  rel=1e-9)

    def test_backward_span(self):
        traj = integrate_ode(lambda t, y: [y[0]], [1.0], (1.0, 0.0), tol=1e-12)
        assert traj.end_state[0] == pytest.approx(1.0 / math.e, rel=1e-10)


class TestFdWeights:
    def test_central_first(self):
        w = fd_weights(0.0, np.array([-1.0, 0.0, 1.0]), 1)
        np.testing.assert_allclose(w, [-0.5, 0.0, 0.5], atol=1e-14)

    def test_central_second(self):
        w = fd_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2)
        np.testing.assert_allclose(w, [1.0, -2.0, 1.0], atol=1e-14)

    def test_one_sided_second_order(self):
        w = fd_weights(0.0, np.array([0.0, 1.0, 2.0]), 1)
        np.testing.assert_allclose(w, [-1.5, 2.0, -0.5], atol=1e-14)

    def test_exact_on_polynomial(self):
        # 7-point weights on scattered nodes differentiate degree-6 exactly
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(-1, 1, 7))
        z = 0.1
        coef = rng.uniform(-1, 1, 7)
        w1 = fd_weights(z, xs, 1)
        w2 = fd_weights(z, xs, 2)
        p = np.polynomial.Polynomial(coef)
        assert w1 @ p(xs) == pytest.approx(p.deriv(1)(z), rel=1e-10)
        assert w2 @ p(xs) == pytest.approx(p.deriv(2)(z), rel=1e-10)

    def test_order_too_high(self):
        with pytest.raises(ConfigError):
            fd_weights(0.0, np.array([0.0, 1.0]), 2)
