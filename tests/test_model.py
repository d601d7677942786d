"""Parameter containers, grids, and the signal formulas."""

import dataclasses
import math

import numpy as np
import pytest

from bandlayer.errors import ConfigError, RegimeError
from bandlayer.model import (CostParams, Grid2D, ModelParams, ValidityParams,
                             default_x_domain, drift, markowitz_position,
                             nt_rhs, stationary_std)

# a valid instance of each input dataclass, to spoil one field at a time
VALID_INPUTS = [ModelParams(sigma=0.02, omega=0.1, lam=1.0, rho=1e-3),
                CostParams(gamma_lin=2e-4, coeff=1e-6, power=2.0),
                ValidityParams(gamma_coeff=0.1, daily_volume=1e6)]


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
        c = CostParams(gamma_lin=2e-4, coeff=1e-6)
        assert (c.coeff, c.power) == (1e-6, 2.0)

    def test_linear_only(self):
        c = CostParams(gamma_lin=2e-4)
        assert (c.coeff, c.power) == (0.0, 2.0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            CostParams(gamma_lin=-1e-4)
        with pytest.raises(ConfigError):
            CostParams(gamma_lin=2e-4, coeff=-1e-6)

    @pytest.mark.parametrize("power", [1.0, 0.5, float("nan")])
    def test_rejects_power_not_above_one(self, power):
        with pytest.raises(ConfigError, match="power > 1"):
            CostParams(gamma_lin=2e-4, coeff=1e-6, power=power)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("valid, name", [
    pytest.param(valid, f.name, id=f"{type(valid).__name__}.{f.name}")
    for valid in VALID_INPUTS for f in dataclasses.fields(valid)])
def test_non_finite_field_is_refused_by_name(valid, name, bad):
    # a NaN passes every ordering test and an infinity every lower bound;
    # either must be refused here, naming its field, not downstream
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        dataclasses.replace(valid, **{name: bad})


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

    def test_rejects_tiny(self):
        with pytest.raises(ConfigError):
            Grid2D.regular(-1.0, 1.0, 2, -0.5, 0.5, 11)

    def test_rejects_reversed(self):
        with pytest.raises(ConfigError):
            Grid2D.regular(1.0, -1.0, 21, -0.5, 0.5, 11)
