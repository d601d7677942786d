"""Boundary-layer analysis of the band under small nonlinear trading costs.

With linear costs alone the optimal speed jumps at the band edge: zero
inside, instantaneous rebalancing outside.  A small quadratic speed cost
eta smooths that jump over a strip of width ~ eta^{1/3} around the (now
slightly narrower) band.  After rescaling, the slope of the value
correction inside the strip obeys a universal first-order balance

    f_sq - diffusivity * f_y = amp^2 * (y - wall_offset)

whose solution is an Airy logarithmic derivative.  This module builds
that profile, the shifted band level, and a composite speed curve that
splices the strip onto the square-root/linear outer behaviour.  The
3/2-power cost analog replaces the quadratic balance by a cubic one
(an Abel equation) solved here by shooting.

Everything operates on the zero-eta band produced by band_zero; the
nonlinear cost enters only through closed-form corrections.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import BracketError, ConfigError, ConvergenceError, DomainError, RegimeError
from .model import CostKind, ModelParams, drift
from .band_zero import Band, GreensDecomposition, third_derivative_at_band
from .special import airy_first_max, airy_log_derivative

__all__ = [
    "Regime",
    "LayerKind",
    "LayerConstants",
    "LayerProfile",
    "VelocityProfile",
    "PowerScaling",
    "layer_constants",
    "layer_profile_airy",
    "layer_ode_residual",
    "shifted_boundary",
    "outer_velocity",
    "sqrt_linear_crossover",
    "composite_velocity",
    "abel_layer_solve",
    "power_cost_scaling",
]


class Regime(enum.Enum):
    """Speed-profile classification, outward from the band center."""

    NO_TRADE = "NT"
    LAYER = "LAYER"
    SQRT = "SQRT"
    LINEAR = "LINEAR"


class LayerKind(enum.Enum):
    AIRY_QUADRATIC = "airy-quadratic"
    ABEL_THREE_HALVES = "abel-three-halves"


# |u| at the first maximum of Ai on the negative axis; wall_offset is
# this number divided by arg_scale, which pins the profile zero to y=0.
_WALL_ROOT = -airy_first_max()


@dataclass(frozen=True)
class LayerConstants:
    """Coefficients of the rescaled boundary-layer balance at one x.

    amp          far-field amplitude: the layer slope grows like
                 amp*sqrt(y); equals 2*sqrt(2*lam*boundary - drift).
    diffusivity  coefficient of the f_y term, 2*sigma^2*boundary_slope^2;
                 encodes how signal diffusion feeds the layer.
    arg_scale    rescaling into Airy coordinates, (amp/diffusivity)^{2/3}.
    wall_offset  y-distance from the shifted edge to the Airy turning
                 structure; profile vanishes at y = 0 by construction.
    """

    x: float
    boundary: float
    boundary_slope: float
    drift: float
    amp: float
    diffusivity: float
    arg_scale: float
    wall_offset: float

    @property
    def wall_slope(self) -> float:
        """Slope of the layer profile at the wall, amp^2*offset/diffusivity."""
        return self.amp ** 2 * self.wall_offset / self.diffusivity


@dataclass(frozen=True)
class LayerProfile:
    """Sampled universal layer profile, either kind.

    ``f`` is the rescaled slope of the value correction; the physical
    speed inside the strip is -f/(2*eta^{1/3}) for the quadratic kind.
    ``f_slope`` holds the analytic derivative at the same samples, so
    residual checks never re-differentiate numerically.
    """

    kind: LayerKind
    y: np.ndarray
    f: np.ndarray
    f_slope: np.ndarray
    slope_at_zero: float
    amp: float
    diffusivity: float
    wall_offset: float
    constants: Optional[LayerConstants] = None
    wall_residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        object.__setattr__(self, "f_slope", np.asarray(self.f_slope, dtype=float))


@dataclass(frozen=True)
class VelocityProfile:
    """Composite trading-speed curve at fixed x on the selling sector."""

    x: float
    eta: float
    theta: np.ndarray
    v: np.ndarray
    regime: tuple
    boundary_level: float
    shifted_level: float
    gauge: float
    gauge_warning: bool

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


class PowerScaling(NamedTuple):
    amplitude_exp: float
    width_exp: float
    expansion_exp: float


def layer_constants(params: ModelParams, band: Band, x: float) -> LayerConstants:
    """Evaluate the layer coefficients at ``x`` on the upper boundary.

    Raises RegimeError when the risk-adjusted edge 2*lam*boundary - drift
    is nonpositive (no square-root outer regime to match) or when the
    boundary is flat (zero slope kills the diffusive term).
    """
    if band.flat:
        raise RegimeError(
            "flat band has boundary_slope = 0; the layer balance degenerates "
            "(no signal-diffusion term). Use a mean-reverting signal.")
    theta0 = band.theta_plus_at(x)
    slope0 = band.theta_plus_deriv_at(x)
    mu = drift(params, x)
    edge = 2.0 * params.lam * theta0 - mu
    if edge <= 0.0:
        raise RegimeError(
            f"risk-adjusted edge 2*lam*boundary - drift = {edge:.3e} <= 0 "
            f"at x={x:g}; the outer square-root regime does not exist there.")
    if slope0 == 0.0:
        raise RegimeError(f"boundary slope vanishes at x={x:g}; layer "
                          "coefficients degenerate.")
    amp = 2.0 * math.sqrt(edge)
    diffusivity = 2.0 * params.sigma ** 2 * slope0 ** 2
    arg_scale = (amp / diffusivity) ** (2.0 / 3.0)
    return LayerConstants(
        x=float(x), boundary=float(theta0), boundary_slope=float(slope0),
        drift=float(mu), amp=amp, diffusivity=diffusivity,
        arg_scale=arg_scale, wall_offset=_WALL_ROOT / arg_scale)


def _layer_values(c: LayerConstants, y: np.ndarray):
    """Profile value and analytic derivative at the given y samples."""
    y = np.asarray(y, dtype=float)
    u = c.arg_scale * (y - c.wall_offset)
    if np.any(u <= -2.0):
        # First Ai zero sits at -2.338; arguments can only get there if the
        # constants are corrupted (u >= -wall root > -2 for y >= 0).
        raise DomainError("Airy argument reached the oscillatory region; "
                          "layer constants are inconsistent.")
    r = airy_log_derivative(u)
    f = -c.diffusivity * c.arg_scale * r
    f_y = -c.diffusivity * c.arg_scale ** 2 * (u - r ** 2)
    f = np.where(y == 0.0, 0.0, f)  # wall pinned exactly
    return f, f_y


def layer_profile_airy(c: LayerConstants, y_max: float, n: int = 2001) -> LayerProfile:
    """Sample the quadratic-cost layer profile on [0, y_max].

    The profile is the Airy logarithmic derivative rescaled by the layer
    constants; the wall value is exactly zero and the wall slope is the
    closed form amp^2*wall_offset/diffusivity.
    """
    if not (y_max > 0.0):
        raise DomainError(f"y_max must be > 0, got {y_max}")
    if n < 9:
        raise ConfigError(f"need at least 9 samples, got {n}")
    y = np.linspace(0.0, float(y_max), int(n))
    f, f_y = _layer_values(c, y)
    return LayerProfile(
        kind=LayerKind.AIRY_QUADRATIC, y=y, f=f, f_slope=f_y,
        slope_at_zero=c.wall_slope, amp=c.amp, diffusivity=c.diffusivity,
        wall_offset=c.wall_offset, constants=c)


def layer_ode_residual(profile: LayerProfile) -> float:
    """Scaled residual of the defining layer balance over the samples.

    Quadratic kind:    |f^2 - D f_y - A^2 (y - y0)| / (A^2 (1+y))
    Three-halves kind: |f^3 - D f_y - A^2 (y - y0)| / (A^2 (1+y))

    Small on authentic profiles; order 1e-2 already for a 1% corruption
    of f, which is what makes it a useful detector.
    """
    power = 2 if profile.kind is LayerKind.AIRY_QUADRATIC else 3
    lhs = profile.f ** power - profile.diffusivity * profile.f_slope
    rhs = profile.amp ** 2 * (profile.y - profile.wall_offset)
    scale = profile.amp ** 2 * (1.0 + profile.y)
    return float(np.max(np.abs(lhs - rhs) / scale))


def shifted_boundary(params: ModelParams, comp: GreensDecomposition,
                     band: Band, x: float, eta: float) -> float:
    """Upper boundary level once a quadratic speed cost eta is present.

    The band edge moves inward by wall_slope/third_derivative * eta^{1/3};
    positivity of the third theta-derivative at the edge guarantees the
    inward direction.
    """
    if eta < 0.0:
        raise DomainError(f"eta must be >= 0, got {eta}")
    theta0 = band.theta_plus_at(x)
    if eta == 0.0:
        return float(theta0)
    c = layer_constants(params, band, x)
    v3 = third_derivative_at_band(comp, band, x)  # raises RegimeError if <= 0
    return float(theta0 - (c.wall_slope / v3) * eta ** (1.0 / 3.0))


def outer_velocity(params: ModelParams, band: Band, x: float,
                   theta: float, eta: float) -> float:
    """Trading speed far outside the layer, on the selling sector.

    Square root of the risk-adjusted distance to the band over sqrt(eta);
    negative (selling).  Raises RegimeError when the radicand is negative,
    i.e. when theta is not beyond the upper boundary.
    """
    if not (eta > 0.0):
        raise DomainError(f"eta must be > 0, got {eta}")
    theta0 = band.theta_plus_at(x)
    mu = drift(params, x)
    rad = params.lam * (theta ** 2 - theta0 ** 2) - mu * (theta - theta0)
    if rad < 0.0:
        raise RegimeError(
            f"outer radicand negative at theta={theta:g}, x={x:g}: "
            "point lies inside the band where the outer branch is undefined.")
    return -math.sqrt(rad / eta)


def sqrt_linear_crossover(params: ModelParams, c: LayerConstants) -> float:
    """Distance beyond the boundary where the outer speed turns linear.

    The radicand factors as (theta - boundary) * (lam*(theta - boundary)
    + amp^2/4); the two terms balance at amp^2/(4*lam).
    """
    return c.amp ** 2 / (4.0 * params.lam)


def composite_velocity(params: ModelParams, comp: GreensDecomposition,
                       band: Band, x: float, eta: float, theta_grid,
                       seam: float = 30.0) -> VelocityProfile:
    """Uniform trading-speed curve across all four regimes at fixed x.

    Inside the shifted band the speed is exactly zero.  Within
    seam*eta^{1/3} of the shifted edge the layer profile alone is used;
    beyond, the standard additive composite (layer + outer - shared
    square-root part) blends into the outer branch.  Samples are labeled
    NO_TRADE / LAYER / SQRT / LINEAR, the last two split at the
    square-root-to-linear crossover distance.

    Only the selling sector is modeled; by the (x, theta) -> (-x, -theta)
    antisymmetry of the problem the buying sector is its mirror image.
    Requesting samples below the lower boundary raises DomainError.
    """
    if not (eta > 0.0):
        raise DomainError(f"eta must be > 0, got {eta}")
    theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size < 2:
        raise ConfigError("theta_grid must be a 1-d array with >= 2 samples")
    lower = -band.theta_minus_at(x)
    if np.min(theta) < lower - 1e-12 * max(1.0, abs(lower)):
        raise DomainError(
            f"theta_grid reaches below the lower boundary {lower:g}; only "
            "the selling sector is modeled (mirror the problem for buying).")

    c = layer_constants(params, band, x)
    theta0 = c.boundary
    v3 = third_derivative_at_band(comp, band, x)
    width = band.width(x)
    scale = eta ** (1.0 / 3.0)
    shift = (c.wall_slope / v3) * scale
    theta_eta = theta0 - shift
    gauge = shift / width
    d_cross = sqrt_linear_crossover(params, c)

    v = np.zeros(theta.shape, dtype=float)
    labels = [Regime.NO_TRADE] * theta.size
    trade = theta > theta_eta
    y = (theta - theta_eta) / scale
    if np.any(trade):
        f_tr, _ = _layer_values(c, y[trade])
        v[trade] = -f_tr / (2.0 * scale)
    blend = trade & (y >= seam)
    for i in np.nonzero(trade)[0]:
        if blend[i]:
            out = outer_velocity(params, band, x, float(theta[i]), eta)
            common = -0.5 * c.amp * math.sqrt(theta[i] - theta_eta) / math.sqrt(eta)
            v[i] += out - common
            labels[i] = (Regime.SQRT if theta[i] - theta0 < d_cross
                         else Regime.LINEAR)
        else:
            labels[i] = Regime.LAYER

    return VelocityProfile(
        x=float(x), eta=float(eta), theta=theta, v=v, regime=tuple(labels),
        boundary_level=float(theta0), shifted_level=float(theta_eta),
        gauge=float(gauge), gauge_warning=bool(gauge > 0.2))


def _abel_rhs(aprime: float, bprime: float, offset: float):
    a2 = aprime * aprime

    def rhs(t, g):
        return (g[0] ** 3 - a2 * (t - offset)) / bprime

    return rhs


def _abel_forward_class(aprime: float, bprime: float, offset: float,
                        y_stop: float, g_big: float, g_low: float) -> int:
    """Forward-shoot from the wall; +1 means blowup (offset too large),
    -1 means the solution dove below the separatrix (offset too small),
    0 means it survived to y_stop."""
    hit_hi = lambda t, g: g[0] - g_big
    hit_hi.terminal = True
    hit_lo = lambda t, g: g[0] - g_low
    hit_lo.terminal = True
    sol = solve_ivp(_abel_rhs(aprime, bprime, offset), (0.0, y_stop), [0.0],
                    method="RK45", rtol=1e-11, atol=1e-13 * g_big,
                    events=[hit_hi, hit_lo])
    if not sol.success:
        # step-size underflow right at blowup counts as blowup
        return 1
    if sol.t_events[0].size:
        return 1
    if sol.t_events[1].size:
        return -1
    return 0


def abel_layer_solve(aprime: float, bprime: float, y_max: float,
                     n: int = 4001, offset_bracket=None) -> LayerProfile:
    """Layer profile for the 3/2-power cost: solve the cubic balance

        g^3 - bprime * g_y = aprime^2 * (y - offset),  g(0) = 0,

    by shooting on the offset.  Forward integration classifies each trial
    offset (the wall orbit either blows up or dives, depending on the
    side); bisection pins the connecting orbit.  The returned samples come
    from a backward pass seeded on the cube-root asymptote at y_max, the
    direction in which departures from the connecting orbit decay, so the
    profile stays on it over the whole window.  The leftover value at the
    wall from that pass is reported as ``wall_residual``.

    The proportionality constants aprime, bprime are inputs: they carry
    the model- and units-dependent prefactors that the rescaling does not
    fix.  Scaling both according to s = (bprime/aprime^{4/3})^{3/5} maps
    solutions onto one canonical curve; tests rely on that invariance.
    """
    if not (aprime > 0.0 and bprime > 0.0):
        raise ConfigError("aprime and bprime must be > 0")
    if not (y_max > 0.0):
        raise DomainError(f"y_max must be > 0, got {y_max}")
    if n < 9:
        raise ConfigError(f"need at least 9 samples, got {n}")

    s = (bprime / aprime ** (4.0 / 3.0)) ** 0.6  # layer width scale
    g_ref = (aprime ** 2 * s) ** (1.0 / 3.0)
    g_big = 4.0 * (aprime ** 2 * (y_max + 4.0 * s)) ** (1.0 / 3.0)
    g_low = -0.5 * g_ref
    y_stop = min(float(y_max), 12.0 * s)

    def classify(off):
        return _abel_forward_class(aprime, bprime, off, y_stop, g_big, g_low)

    if offset_bracket is not None:
        lo, hi = float(offset_bracket[0]), float(offset_bracket[1])
        if not (classify(lo) < 0 < classify(hi)):
            raise BracketError(
                f"offset bracket ({lo:g}, {hi:g}) does not straddle the "
                "connecting orbit: need dive on the left end, blowup on the "
                "right. Scale guess: offset ~ 0.7 * "
                f"(bprime/aprime^(4/3))^(3/5) = {0.7 * s:g}")
    else:
        lo = 0.0  # zero offset always dives: g_y(0) < 0 immediately
        hi = 1.5 * s
        tries = 0
        while classify(hi) <= 0:
            hi *= 2.0
            tries += 1
            if tries > 8:
                raise BracketError(
                    f"no blowup found for offset up to {hi:g} "
                    f"(searched [{lo:g}, {hi:g}]); aprime={aprime:g}, "
                    f"bprime={bprime:g}, scale={s:g}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if classify(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(s, hi):
            break
    offset = 0.5 * (lo + hi)

    # Assemble on the stable (decreasing-y) direction from the asymptote.
    w_max = y_max - offset
    if w_max <= 2.0 * s:
        raise DomainError(
            f"y_max={y_max:g} too small: needs room beyond the located "
            f"offset {offset:g} for the asymptotic seed (>= {offset + 2 * s:g})")
    g_seed = ((aprime ** 2 * w_max) ** (1.0 / 3.0)
              + bprime / (9.0 * (aprime ** 2 * w_max) ** (1.0 / 3.0) * w_max))
    y = np.linspace(0.0, float(y_max), int(n))
    sol = solve_ivp(_abel_rhs(aprime, bprime, offset), (float(y_max), 0.0),
                    [g_seed], method="RK45", rtol=1e-11, atol=1e-14 * g_ref,
                    dense_output=True)
    if not sol.success:
        raise ConvergenceError(
            f"backward assembly failed: {sol.message}", history=sol.t)
    g = sol.sol(y)[0]
    wall_residual = float(g[0])
    g[0] = 0.0  # boundary condition; leftover reported separately
    a2 = aprime * aprime
    g_y = (g ** 3 - a2 * (y - offset)) / bprime
    return LayerProfile(
        kind=LayerKind.ABEL_THREE_HALVES, y=y, f=g, f_slope=g_y,
        slope_at_zero=float(a2 * offset / bprime), amp=aprime,
        diffusivity=bprime, wall_offset=float(offset),
        wall_residual=wall_residual)


def power_cost_scaling(kind: CostKind) -> PowerScaling:
    """Exponents of the small-cost expansion for each cost shape.

    amplitude_exp scales the value-slope correction inside the layer,
    width_exp the layer width, expansion_exp the value expansion itself.
    The quadratic pair satisfies the matching relation
    amplitude_exp - width_exp/2 = 1/2 tying the layer to the sqrt(cost)
    outer correction.
    """
    if kind is CostKind.QUADRATIC:
        return PowerScaling(2.0 / 3.0, 1.0 / 3.0, 0.5)
    if kind is CostKind.THREE_HALVES:
        return PowerScaling(0.8, 0.4, 2.0 / 3.0)
    raise ConfigError(f"unsupported cost kind: {kind!r}")

