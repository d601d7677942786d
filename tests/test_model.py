"""Parameter containers, grids, and the signal formulas."""

import math

import numpy as np
import pytest

from bandlayer.errors import ConfigError, RegimeError
from bandlayer.model import (CostKind, CostParams, Grid2D, ModelParams,
                             ScalarField, default_x_domain,
                             drift, markowitz_position, nt_rhs,
                             stationary_std)


class TestModelParams:
    def test_valid(self, desk_model):
        assert desk_model.sigma == 0.02
        assert desk_model.rho == 1e-3

    @pytest.mark.parametrize("kw", [
        dict(sigma=0.0), dict(sigma=-1.0), dict(lam=0.0), dict(lam=-2.0),
        dict(rho=0.0), dict(rho=-1e-3), dict(omega=-0.1),
    ])
    def test_rejects_bad(self, kw):
        base = dict(sigma=0.02, omega=0.1, lam=1.0, rho=1e-3)
        base.update(kw)
        with pytest.raises(ConfigError):
            ModelParams(**base)

    def test_omega_zero_allowed(self):
        p = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
        assert p.omega == 0.0

    def test_frozen(self, desk_model):
        with pytest.raises(AttributeError):
            desk_model.sigma = 1.0


class TestCostParams:
    def test_quadratic(self):
        c = CostParams(gamma_lin=2e-4, eta=1e-6, kind=CostKind.QUADRATIC)
        assert c.nonlinear

    def test_linear_only(self):
        c = CostParams(gamma_lin=2e-4)
        assert not c.nonlinear

    def test_rejects_wrong_coefficient(self):
        with pytest.raises(ConfigError):
            CostParams(gamma_lin=2e-4, zeta=1e-6, kind=CostKind.QUADRATIC)
        with pytest.raises(ConfigError):
            CostParams(gamma_lin=2e-4, eta=1e-6, kind=CostKind.THREE_HALVES)

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            CostParams(gamma_lin=-1e-4)
        with pytest.raises(ConfigError):
            CostParams(gamma_lin=2e-4, eta=-1e-6, kind=CostKind.QUADRATIC)


class TestSignalModel:
    def test_drift_linear(self, desk_model):
        assert drift(desk_model, 0.5) == pytest.approx(-0.05)
        xs = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(drift(desk_model, xs), [0.1, 0.0, -0.2])

    def test_markowitz_ratio(self, desk_model):
        # frictionless target: drift over twice the risk penalty
        x = 0.3
        assert markowitz_position(desk_model, x) == pytest.approx(
            drift(desk_model, x) / (2 * desk_model.lam))

    def test_stationary_std(self, desk_model):
        want = 0.02 / math.sqrt(2 * 0.1)
        assert stationary_std(desk_model) == pytest.approx(want, rel=1e-14)

    def test_stationary_std_needs_reversion(self):
        p = ModelParams(sigma=0.02, omega=0.0, lam=1.0, rho=1e-3)
        with pytest.raises(RegimeError):
            stationary_std(p)

    def test_default_domain_symmetric(self, desk_model):
        lo, hi = default_x_domain(desk_model)
        assert lo == -hi
        assert hi == pytest.approx(6 * stationary_std(desk_model))

    def test_nt_rhs(self, desk_model):
        # source of the no-trade equation: -mu*theta + lam*theta^2
        x, th = 0.5, 0.01
        want = 0.05 * 0.01 + 1.0 * 1e-4
        assert nt_rhs(desk_model, x, th) == pytest.approx(want)


class TestGrid2D:
    def test_regular(self):
        g = Grid2D.regular(-1.0, 1.0, 21, -0.5, 0.5, 11)
        assert g.nx == 21 and g.ntheta == 11
        assert g.hx == pytest.approx(0.1)
        assert g.htheta == pytest.approx(0.1)
        assert g.x_uniform and g.theta_uniform

    def test_rejects_tiny(self):
        with pytest.raises(ConfigError):
            Grid2D.regular(-1.0, 1.0, 2, -0.5, 0.5, 11)

    def test_rejects_reversed(self):
        with pytest.raises(ConfigError):
            Grid2D.regular(1.0, -1.0, 21, -0.5, 0.5, 11)

    def test_scalar_field_shape(self):
        g = Grid2D.regular(-1.0, 1.0, 5, -0.5, 0.5, 7)
        ScalarField(np.zeros((5, 7)), g)
        with pytest.raises(ConfigError):
            ScalarField(np.zeros((7, 5)), g)
