"""Problem definition: signal dynamics, cost structure, desk validity
inputs, grids.

The state is a pair (position theta, signal x).  The signal is mean
reverting with rate ``omega`` and volatility ``sigma`` (time unit: one
day), the running reward is ``mu(x)*theta - lam*theta**2`` and trading
is penalized by a linear cost ``gamma_lin`` per unit traded plus a small
nonlinear cost ``coeff * |v|**power`` at speed v, any power > 1 (2 is the
quadratic cost eta, 1.5 the three-halves cost zeta).  The long-run
average objective is regularized by a small discount rate ``rho``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, RegimeError

__all__ = [
    "ModelParams",
    "CostParams",
    "ValidityParams",
    "Grid2D",
    "drift",
    "nt_rhs",
    "markowitz_position",
    "small_cost_half_width",
    "stationary_std",
    "default_x_domain",
]


def _require_finite(params) -> None:
    """Raise ConfigError naming the first field of ``params`` that is not
    a finite number; a NaN passes every ordering test."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Signal dynamics and objective coefficients.

    Attributes
    ----------
    sigma : float
        Signal volatility per sqrt(day).
    omega : float
        Mean-reversion rate per day; the signal drift is ``-omega * x``.
    lam : float
        Risk-cost coefficient (per position^2 per day).
    rho : float
        Discount rate per day, regularizing the long-run average.
    """

    sigma: float
    omega: float
    lam: float
    rho: float = 1e-3

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if self.omega < 0:
            raise ConfigError(f"omega must be >= 0, got {self.omega}")
        if not (self.lam > 0):
            raise ConfigError(f"lam must be > 0, got {self.lam}")
        if not (self.rho > 0):
            raise ConfigError(f"rho must be > 0, got {self.rho}")
        _require_finite(self)


@dataclass(frozen=True)
class CostParams:
    """Trading-cost structure: ``gamma_lin`` per unit traded plus the
    nonlinear cost rate ``coeff * |v|**power`` at trading speed v."""

    gamma_lin: float
    coeff: float = 0.0
    power: float = 2.0

    def __post_init__(self):
        if not (self.gamma_lin > 0):
            raise ConfigError(f"gamma_lin must be > 0, got {self.gamma_lin}")
        if not (self.coeff >= 0 and self.power > 1):
            raise ConfigError("nonlinear cost needs coeff >= 0 and power > 1,"
                              f" got coeff={self.coeff}, power={self.power}")
        _require_finite(self)


@dataclass(frozen=True)
class ValidityParams:
    """Desk-scale inputs for the expansion-validity calculator.

    gamma_coeff: dimensionless quadratic-cost number (the speed cost is
        eta = gamma_coeff * sigma / daily_volume, quoted per day);
    daily_volume: the dimensional anchor of eta.
    """

    gamma_coeff: float
    daily_volume: float

    def __post_init__(self):
        for name in ("gamma_coeff", "daily_volume"):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be > 0")
        _require_finite(self)


@dataclass(frozen=True)
class Grid2D:
    """Rectangular (x, theta) grid with uniform steps ``hx``, ``htheta``.

    Each axis needs at least 3 strictly increasing nodes at one step, to
    a relative 1e-12; other nodes raise ConfigError.
    """

    x_nodes: np.ndarray
    theta_nodes: np.ndarray
    hx: float = field(init=False)
    htheta: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x_nodes, dtype=float)
        th = np.asarray(self.theta_nodes, dtype=float)
        for name, nodes in (("x", x), ("theta", th)):
            if nodes.ndim != 1 or nodes.size < 3:
                raise ConfigError(f"{name} axis needs >= 3 nodes")
            steps = np.diff(nodes)
            if not np.all(steps > 0):
                raise ConfigError(f"{name} nodes must be strictly increasing")
            h = float(steps[0])
            if not np.allclose(steps, h, rtol=1e-12,
                               atol=1e-15 * max(1.0, abs(h))):
                raise ConfigError(f"{name} nodes must be uniformly spaced")
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "theta_nodes", th)
        object.__setattr__(self, "hx", float(x[1] - x[0]))
        object.__setattr__(self, "htheta", float(th[1] - th[0]))

    @property
    def nx(self) -> int:
        return self.x_nodes.size

    @property
    def ntheta(self) -> int:
        return self.theta_nodes.size

    @classmethod
    def regular(cls, x_min, x_max, nx, theta_min, theta_max, ntheta) -> "Grid2D":
        if not (x_max > x_min) or not (theta_max > theta_min):
            raise ConfigError("grid bounds must satisfy min < max")
        if nx < 3 or ntheta < 3:
            raise ConfigError("grid needs >= 3 nodes per axis")
        return cls(np.linspace(x_min, x_max, int(nx)),
                   np.linspace(theta_min, theta_max, int(ntheta)))


def drift(params: ModelParams, x):
    """Signal drift mu(x) = -omega * x, at a float or an array x."""
    return -params.omega * x


def markowitz_position(params: ModelParams, x):
    """Cost-free ideal position mu(x) / (2 lam)."""
    return drift(params, x) / (2.0 * params.lam)


def small_cost_half_width(params: ModelParams, gamma_lin: float) -> float:
    """Small-cost half-width of the linear-cost band around theta*.

    (omega / 2 lam) * (3 gamma_lin sigma^2 / (2 omega))^{1/3}, the leading
    term as gamma_lin -> 0; 0 when omega = 0, where it has no meaning.
    """
    p = params
    if p.omega == 0:
        return 0.0
    return (p.omega / (2 * p.lam)) * (1.5 * gamma_lin * p.sigma ** 2 / p.omega) ** (1.0 / 3.0)


def stationary_std(params: ModelParams) -> float:
    """Stationary standard deviation of the signal, sigma / sqrt(2 omega)."""
    if params.omega <= 0:
        raise RegimeError("stationary distribution undefined for omega = 0")
    return params.sigma / math.sqrt(2.0 * params.omega)


# half-width of the default signal domain, in stationary deviations
_DOMAIN_STDS = 6.0


def default_x_domain(params: ModelParams):
    """Default signal domain: +-6 stationary standard deviations, or
    [-1, 1] without mean reversion, where the band does not depend on x."""
    if params.omega == 0:
        return (-1.0, 1.0)
    s = stationary_std(params)
    return (-_DOMAIN_STDS * s, _DOMAIN_STDS * s)


def nt_rhs(params: ModelParams, x, theta):
    """Source term -mu(x)*theta + lam*theta**2 of the no-trade equation."""
    return -drift(params, x) * theta + params.lam * theta ** 2
