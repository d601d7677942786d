"""Problem definition: signal dynamics, cost structure, grids.

The state is a pair (position theta, signal x).  The signal is mean
reverting with rate ``omega`` and volatility ``sigma`` (time unit: one
day), the running reward is ``mu(x)*theta - lam*theta**2`` and trading
is penalized by a linear cost ``gamma_lin`` per unit traded plus a small
nonlinear cost (quadratic ``eta`` or 3/2-power ``zeta``).  The long-run
average objective is regularized by a small discount rate ``rho``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RegimeError

__all__ = [
    "ModelParams",
    "CostKind",
    "CostParams",
    "Grid2D",
    "ScalarField",
    "drift",
    "nt_rhs",
    "markowitz_position",
    "small_cost_half_width",
    "stationary_std",
    "default_x_domain",
]


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


class CostKind(enum.Enum):
    QUADRATIC = "quadratic"
    THREE_HALVES = "three_halves"


@dataclass(frozen=True)
class CostParams:
    """Trading-cost structure.

    ``gamma_lin`` is the linear cost per unit traded.  Exactly one of the
    nonlinear coefficients is active: ``eta`` (quadratic in speed) when
    ``kind`` is QUADRATIC, ``zeta`` (3/2 power) when THREE_HALVES.
    """

    gamma_lin: float
    eta: float = 0.0
    zeta: float = 0.0
    kind: CostKind = CostKind.QUADRATIC

    def __post_init__(self):
        if not (self.gamma_lin > 0):
            raise ConfigError(f"gamma_lin must be > 0, got {self.gamma_lin}")
        if self.eta < 0 or self.zeta < 0:
            raise ConfigError("nonlinear cost coefficients must be >= 0")
        if self.kind is CostKind.QUADRATIC and self.zeta != 0.0:
            raise ConfigError("zeta must be 0 when kind is quadratic")
        if self.kind is CostKind.THREE_HALVES and self.eta != 0.0:
            raise ConfigError("eta must be 0 when kind is three_halves")

    @property
    def nonlinear(self) -> float:
        return self.eta if self.kind is CostKind.QUADRATIC else self.zeta


def _spacing(nodes: np.ndarray):
    steps = np.diff(nodes)
    if steps.size == 0:
        return 0.0, True
    h = float(steps[0])
    uniform = bool(np.allclose(steps, h, rtol=1e-12, atol=1e-15 * max(1.0, abs(h))))
    return h, uniform


@dataclass(frozen=True)
class Grid2D:
    """Rectangular (x, theta) grid with cached spacings."""

    x_nodes: np.ndarray
    theta_nodes: np.ndarray
    hx: float = field(init=False)
    htheta: float = field(init=False)
    x_uniform: bool = field(init=False)
    theta_uniform: bool = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x_nodes, dtype=float)
        th = np.asarray(self.theta_nodes, dtype=float)
        for name, nodes in (("x", x), ("theta", th)):
            if nodes.ndim != 1 or nodes.size < 3:
                raise ConfigError(f"{name} axis needs >= 3 nodes")
            if not np.all(np.diff(nodes) > 0):
                raise ConfigError(f"{name} nodes must be strictly increasing")
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "theta_nodes", th)
        hx, xu = _spacing(x)
        ht, tu = _spacing(th)
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "htheta", ht)
        object.__setattr__(self, "x_uniform", xu)
        object.__setattr__(self, "theta_uniform", tu)

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


@dataclass(frozen=True)
class ScalarField:
    """Values on a Grid2D, indexed ``values[x_index, theta_index]``."""

    values: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nx, self.grid.ntheta):
            raise ConfigError(
                f"field shape {v.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ntheta})")
        object.__setattr__(self, "values", v)


def drift(params: ModelParams, x):
    """Signal drift mu(x) = -omega * x (vectorized over x)."""
    out = -params.omega * np.asarray(x, dtype=float)
    return out if out.ndim else float(out)


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


def default_x_domain(params: ModelParams, n_std: float = 6.0):
    """Default signal domain: +-n_std stationary standard deviations."""
    s = stationary_std(params)
    return (-n_std * s, n_std * s)


def nt_rhs(params: ModelParams, x, theta):
    """Source term -mu(x)*theta + lam*theta**2 of the no-trade equation."""
    return -drift(params, x) * theta + params.lam * theta ** 2
