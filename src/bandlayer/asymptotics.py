"""Boundary-layer analysis of the band under small nonlinear trading costs.

With linear costs alone the optimal speed jumps at the band edge: zero
inside, instantaneous rebalancing outside.  A small quadratic speed cost
eta smooths that jump over a strip of width ~ eta^{1/3} around the (now
slightly narrower) band.  After rescaling, the slope of the value
correction inside the strip obeys a universal first-order balance

    f_sq - diffusivity * f_y = amp^2 * (y - wall_offset)

whose solution is an Airy logarithmic derivative.  The forcing is read
from the band alone: amp^2 = V_theta3 * diffusivity, with V_theta3 the
third theta-derivative of the no-trade value at the band
(``band_zero.third_derivative_at_band``, the one place the risk-adjusted
edge 2*lam*theta_b - mu - rho*gamma is written).  So the band edge moves
inward by exactly wall_offset * eta^{1/3}.  This module builds that
profile, the shifted band level, and a composite speed curve that
splices the strip onto the square-root/linear outer behaviour, whose
radicand carries the same amp.  The composite is the speed alone: its
zones are labelled by ``experiments.regime_map``, and the validity gauge
is judged by ``experiments.validity_gauge``.  A cost coeff |v|^alpha
replaces the square by sign(f)|f|^q, q = alpha/(alpha-1), solved here by
one backward integration along its asymptote that stops at the profile's
zero, which fixes the wall offset.

Everything operates on the zero-eta band produced by band_zero, which
carries its model and Green's data, so each function here takes the band
alone or the layer constants built from it once; the nonlinear cost
enters only through closed-form corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import odeint
from scipy.special import ai_zeros

from .errors import ConfigError, ConvergenceError, DomainError, RegimeError
from .model import ModelParams
from .band_zero import Band, third_derivative_at_band
from .special import airy_log_derivative

__all__ = [
    "LayerConstants",
    "LayerProfile",
    "layer_constants",
    "layer_profile_airy",
    "layer_ode_residual",
    "shifted_boundary",
    "outer_velocity",
    "sqrt_linear_crossover",
    "composite_velocity",
    "layer_width",
    "abel_layer_solve",
]


# |u| at the first maximum of Ai (the largest zero of Ai'); wall_offset
# is this over arg_scale, which pins the profile zero to y=0.
_WALL_ROOT = -float(ai_zeros(1)[1][0])


@dataclass(frozen=True)
class LayerConstants:
    """Coefficients of the rescaled boundary-layer balance at one x.

    amp          far-field amplitude: the layer slope grows like
                 amp*sqrt(y); amp^2 = V_theta3 * diffusivity, that is
                 amp = 2*sqrt(2*lam*boundary - mu - rho*gamma).
    diffusivity  coefficient of the f_y term, 2*sigma^2*boundary_slope^2;
                 encodes how signal diffusion feeds the layer.
    arg_scale    rescaling into Airy coordinates, (amp/diffusivity)^{2/3}.
    wall_offset  y-distance from the shifted edge to the Airy turning
                 structure; profile vanishes at y = 0 by construction.
    """

    x: float
    boundary: float
    boundary_slope: float
    amp: float
    diffusivity: float
    arg_scale: float
    wall_offset: float

    @property
    def wall_slope(self) -> float:
        """Slope of the layer profile at the wall, amp^2*offset/diffusivity."""
        return self.amp ** 2 * self.wall_offset / self.diffusivity

    def shift(self, eta):
        """Inward edge shift (and layer width) wall_offset * eta^{1/3}."""
        return self.wall_offset * eta ** (1.0 / 3.0)


@dataclass(frozen=True)
class LayerProfile:
    """Sampled universal layer profile of the balance exponent ``power``.

    ``f`` is the rescaled slope of the value correction; the physical
    speed inside the strip is -f/(2*eta^{1/3}) at power 2 (Airy).
    ``f_slope`` holds the analytic derivative at the same samples, so
    residual checks never re-differentiate numerically.
    """

    power: float
    y: np.ndarray
    f: np.ndarray
    f_slope: np.ndarray
    slope_at_zero: float
    amp: float
    diffusivity: float
    wall_offset: float
    wall_residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        object.__setattr__(self, "f_slope", np.asarray(self.f_slope, dtype=float))


def layer_constants(band: Band, x: float) -> LayerConstants:
    """Evaluate the layer coefficients at ``x`` on the upper boundary.

    The forcing is the band's own V_theta3 times the diffusivity, so the
    shift wall_slope / V_theta3 is ``wall_offset`` itself.  Raises what
    ``third_derivative_at_band`` raises: RegimeError where the boundary
    is flat (the flat band included) or V_theta3 is not positive (no
    square-root outer regime to match), and DomainError when x lies
    outside the band's solved domain.
    """
    v3 = third_derivative_at_band(band, x)
    theta_b, slope0 = band.plus_edge_at(x)
    diffusivity = 2.0 * band.params.sigma ** 2 * slope0 ** 2
    amp = math.sqrt(v3 * diffusivity)
    arg_scale = (amp / diffusivity) ** (2.0 / 3.0)
    return LayerConstants(
        x=float(x), boundary=float(theta_b),
        boundary_slope=float(slope0), amp=amp, diffusivity=diffusivity,
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
        power=2.0, y=y, f=f, f_slope=f_y,
        slope_at_zero=c.wall_slope, amp=c.amp, diffusivity=c.diffusivity,
        wall_offset=c.wall_offset)


def layer_ode_residual(profile: LayerProfile) -> float:
    """Scaled residual of the defining layer balance over the samples.

    |sign(f)|f|^q - D f_y - A^2 (y - y0)| / (A^2 (1+y)),  q = profile.power

    Small on authentic profiles; order 1e-2 already for a 1% corruption
    of f, which is what makes it a useful detector of wrong constants or
    sampling.  It does not check the orbit: for a profile of
    :func:`abel_layer_solve` f_slope is computed from f through this same
    balance, so any solution of it (not only the one on the asymptote)
    passes.
    """
    f, D = profile.f, profile.diffusivity
    lhs = f * np.abs(f) ** (profile.power - 1.0) - D * profile.f_slope
    rhs = profile.amp ** 2 * (profile.y - profile.wall_offset)
    scale = profile.amp ** 2 * (1.0 + profile.y)
    return float(np.max(np.abs(lhs - rhs) / scale))


def shifted_boundary(c: LayerConstants, eta: float) -> float:
    """Upper boundary level at ``c.x`` once a quadratic speed cost eta is
    present.

    The band edge moves inward by ``c.shift(eta)``: the layer's wall
    slope over V_theta3, which its forcing makes exact.
    """
    if eta < 0.0:
        raise DomainError(f"eta must be >= 0, got {eta}")
    return float(c.boundary - c.shift(eta))


def outer_velocity(params: ModelParams, c: LayerConstants, theta,
                   eta: float):
    """Trading speed far outside the layer at ``c.x``, on the selling
    sector, at a float theta or at every entry of an array theta.

    Square root of the radicand d*(lam*d + amp^2/4), d = theta - boundary,
    over sqrt(eta), with the layer's own amp; negative (selling).  Raises
    RegimeError when the radicand is negative, i.e. when theta is not
    beyond the upper boundary.
    """
    if not (eta > 0.0):
        raise DomainError(f"eta must be > 0, got {eta}")
    theta = np.asarray(theta, dtype=float)
    d = theta - c.boundary
    rad = d * (params.lam * d + 0.25 * c.amp ** 2)
    if np.any(rad < 0.0):
        bad = theta[rad < 0.0].flat[0]
        raise RegimeError(
            f"outer radicand negative at theta={bad:g}, x={c.x:g}: "
            "point lies inside the band where the outer branch is undefined.")
    v = -np.sqrt(rad / eta)
    return v if v.ndim else float(v)


def sqrt_linear_crossover(params: ModelParams, c: LayerConstants) -> float:
    """Distance beyond the boundary where the outer speed turns linear.

    The radicand factors as (theta - boundary) * (lam*(theta - boundary)
    + amp^2/4); the two terms balance at amp^2/(4*lam).
    """
    return c.amp ** 2 / (4.0 * params.lam)


# distance from the shifted edge, in units of eta^{1/3}, beyond which the
# composite speed blends the layer into the outer branch
_SEAM = 30.0


def composite_velocity(band: Band, x: float, eta: float,
                       theta_grid) -> np.ndarray:
    """Uniform trading speed at fixed x, one value per theta sample.

    Inside the shifted band the speed is exactly zero.  Within
    _SEAM*eta^{1/3} of the shifted edge the layer profile alone is used;
    beyond, the standard additive composite (layer + outer - shared
    square-root part) blends into the outer branch.  The samples are not
    labelled here: the zones are ``experiments.regime_map``'s.

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

    c = layer_constants(band, x)
    theta_eta = shifted_boundary(c, eta)
    scale = eta ** (1.0 / 3.0)

    v = np.zeros(theta.shape, dtype=float)
    trade = theta > theta_eta
    y = (theta - theta_eta) / scale
    blend = trade & (y >= _SEAM)
    if np.any(trade):
        f_tr, _ = _layer_values(c, y[trade])
        v[trade] = -f_tr / (2.0 * scale)
    if np.any(blend):
        outer = theta[blend]
        common = -0.5 * c.amp * np.sqrt(outer - theta_eta) / math.sqrt(eta)
        v[blend] += outer_velocity(band.params, c, outer, eta) - common
    return v


# Newton on the Abel wall zero: step budget, and the step (in units of
# the layer width s) below which the zero counts as pinned
_ABEL_NEWTON_ITERS, _ABEL_NEWTON_TOL = 20, 1e-12
# LSODA step cap per output interval; the seed interval of a 130 s
# window takes about 640 steps
_ABEL_MAX_STEPS = 50000


def layer_width(aprime: float, bprime: float, q: float) -> float:
    """Width scale (bprime^q / aprime^(2q-2))^(1/(2q-1)) of the balance of
    :func:`abel_layer_solve`."""
    return (bprime ** q / aprime ** (2.0 * q - 2.0)) ** (1.0 / (2.0 * q - 1.0))


def abel_layer_solve(aprime: float, bprime: float, y_max: float,
                     n: int = 4001, q: float = 3.0) -> LayerProfile:
    """Layer profile of the cost coeff |v|^alpha: the balance

        sign(g)|g|^q - bprime * g_y = aprime^2 * (y - offset),  g(0) = 0,

    of exponent q = alpha/(alpha-1) > 1 (3 at alpha 3/2; its closed form
    at q = 2 is :func:`layer_profile_airy`), on the orbit that follows the
    asymptote g ~ (aprime^2 y)^{1/q}.

    In w = y - offset the balance does not involve the offset, so the
    asymptotic orbit is one curve G(w), and the wall condition fixes
    offset = -w0 at its zero G(w0) = 0.  Every integration starts on that
    orbit, seeded on the asymptote at w = max(y_max, 10 s), s =
    :func:`layer_width`, and runs towards decreasing w, where departures
    from the orbit decay (forward they blow up or dive); 10 s leaves the
    seed error room to die out however short the window.  The decay rate
    q |g|^(q-1)/bprime grows with w, so the pass is stiff: LSODA
    (``odeint``, compiled steps) with the analytic Jacobian.  A first
    pass onto a fixed grid brackets the first sign change of G; Newton
    steps, each a short integration from the last positive sample using
    the slope g_w the balance gives, pin w0; a second pass from the seed
    writes the samples at w = y - offset.  ``wall_residual`` is that
    pass's value at the located zero (how well the two passes agree on
    the wall); the returned f[0] is exactly 0.

    aprime and bprime carry the model- and units-dependent prefactors;
    scaling both at fixed s maps solutions onto one canonical curve.
    """
    if not (aprime > 0.0 and bprime > 0.0 and q > 1.0):
        raise ConfigError("aprime and bprime must be > 0, and q > 1")
    if not (y_max > 0.0):
        raise DomainError(f"y_max must be > 0, got {y_max}")
    if n < 9:
        raise ConfigError(f"need at least 9 samples, got {n}")

    s = layer_width(aprime, bprime, q)
    a2, p = aprime * aprime, q - 1.0    # sign(g)|g|^q is g |g|^p
    g_ref = (a2 * s) ** (1.0 / q)
    # one offset beyond the window's far end, and never closer than 10 s
    w_seed = max(float(y_max), 10.0 * s)
    g_far = (a2 * w_seed) ** (1.0 / q)
    g_seed = g_far + bprime / (q * q * w_seed * g_far ** (p - 1.0))

    def rate(w, g):
        return (g * abs(g) ** p - a2 * w) / bprime

    def backward(g0, w):
        """G at the decreasing points w, starting from G(w[0]) = g0."""
        # LSODA calls back with a 1-array; Python floats cost a fraction
        g, info = odeint(lambda w, g: rate(w, g.item()), [g0], w,
                         Dfun=lambda w, g: q * abs(g.item()) ** p / bprime,
                         rtol=1e-12, atol=1e-14 * g_ref,
                         mxstep=_ABEL_MAX_STEPS, full_output=True, tfirst=True)
        if info["message"] != "Integration successful.":
            raise ConvergenceError(
                f"backward pass failed on span {(w[0], w[-1])}: "
                f"{info['message']}", history=info["tcur"])
        return g[:, 0]

    # the zero of G sits near w = -s; bracket it on a grid of step s/8
    w_grid = np.concatenate([[w_seed], np.linspace(4.0 * s, -4.0 * s, 65)])
    g_grid = backward(g_seed, w_grid)
    crossed = np.flatnonzero(g_grid <= 0.0)
    if crossed.size == 0:
        raise ConvergenceError("backward pass found no wall zero down to "
                               f"w = {w_grid[-1]:.6g}", history=g_grid)
    w_pos, g_pos = w_grid[crossed[0] - 1], g_grid[crossed[0] - 1]
    w0, steps = w_pos - g_pos / rate(w_pos, g_pos), []
    for _ in range(_ABEL_NEWTON_ITERS):
        g0 = backward(g_pos, [w_pos, w0])[-1]
        steps.append(g0 / rate(w0, g0))
        w0 -= steps[-1]
        if abs(steps[-1]) <= _ABEL_NEWTON_TOL * s:
            break
    else:
        raise ConvergenceError(
            f"Newton on the wall zero did not settle in {_ABEL_NEWTON_ITERS} "
            f"steps (last step {steps[-1]:.3e})", history=steps)
    offset = -float(w0)
    y = np.linspace(0.0, float(y_max), int(n))
    g = backward(g_seed, np.concatenate([[w_seed], (y - offset)[::-1]]))
    g = g[1:][::-1]
    wall_residual = float(g[0])
    g[0] = 0.0  # boundary condition; leftover reported separately
    g_y = rate(y - offset, g)
    return LayerProfile(
        power=float(q), y=y, f=g, f_slope=g_y,
        slope_at_zero=float(a2 * offset / bprime), amp=aprime,
        diffusivity=bprime, wall_offset=float(offset),
        wall_residual=wall_residual)
