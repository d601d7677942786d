"""Exact no-trade band for pure linear costs.

Inside the band the value function solves the linear equation
``(generator - rho) V = -mu(x) theta + lam theta^2``; outside it the
value continues with slope -+gamma_lin in theta.  The construction:

1. Two homogeneous solutions of ``(sigma^2/2) psi'' + mu(x) psi' - rho psi = 0``,
   integrated inward from recessive (decaying) asymptotic data at the
   padded domain edges.  Inward integration damps contamination by the
   dominant solution, so this direction is stable on both sides.
2. A particular solution via the resolvent (Green's function) built
   from the pair, evaluated by cumulative Simpson quadrature on a dense
   grid.  Its theta-derivative is affine: ``I(x, theta) = drift_part(x)
   + theta * risk_part(x)``.
3. Per position level theta, the two free coefficients multiplying the
   homogeneous pair are pinned by the slope conditions dV/dtheta = -+gamma
   at the two x-endpoints (h_plus, h_minus) of the level's no-trade
   interval; the endpoints themselves are pinned by boundary optimality,
   which is equivalent to d(dV/dtheta)/dx = 0 at both endpoints.
4. A Newton sweep over levels maps out the band; a per-grid-node polish
   (holding the node abscissa fixed) places the boundary exactly on the
   requested x nodes together with its exact slope from implicit
   differentiation.

All evaluation points, including the level endpoints that step slightly
past the nominal x range near the domain ends, stay inside the padded
domain of step 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .errors import ConfigError, ConvergenceError, DomainError, RegimeError
from .model import ModelParams, default_x_domain, small_cost_half_width
from .special import fd_weights, integrate_ode

__all__ = [
    "HomogeneousPair",
    "GreensDecomposition",
    "Band",
    "solve_homogeneous",
    "greens_particular",
    "find_band_zero",
    "second_derivative_at_band",
    "third_derivative_at_band",
    "third_derivative_stencil",
    "value_nt_zero",
    "value_rb_zero",
    "check_displacement_identity",
    "flat_band_level",
]


# ---------------------------------------------------------------------------
# homogeneous pair


@dataclass(frozen=True)
class HomogeneousPair:
    """Two independent solutions of the discounted homogeneous equation.

    ``psi1`` decays toward the left edge, ``psi2`` toward the right edge.
    Both are rescaled so the Wronskian psi1*psi2' - psi2*psi1' equals -1
    at the domain center (it is negative throughout with this
    orientation).  Splines are built on the dense quadrature grid
    ``x_quad`` covering the padded domain [x_lo, x_hi].
    """

    params: ModelParams
    x_lo: float
    x_hi: float
    x_quad: np.ndarray
    psi1_s: np.ndarray
    psi2_s: np.ndarray
    psi1_d_s: np.ndarray
    psi2_d_s: np.ndarray
    psi1: CubicSpline = field(repr=False)
    psi2: CubicSpline = field(repr=False)
    psi1_d: CubicSpline = field(repr=False)
    psi2_d: CubicSpline = field(repr=False)

    def wronskian(self, x):
        return self.psi1(x) * self.psi2_d(x) - self.psi2(x) * self.psi1_d(x)

    @property
    def wronskian_samples(self):
        return self.psi1_s * self.psi2_d_s - self.psi2_s * self.psi1_d_s

    def psi_dd(self, which: int, x):
        """Second derivative from the defining equation (exact given psi, psi')."""
        p = self.params
        psi = self.psi1 if which == 1 else self.psi2
        psi_d = self.psi1_d if which == 1 else self.psi2_d
        return (2.0 / p.sigma ** 2) * (p.omega * np.asarray(x) * psi_d(x)
                                       + p.rho * psi(x))

    def contains(self, x) -> bool:
        return bool(np.all(np.asarray(x) >= self.x_lo)
                    and np.all(np.asarray(x) <= self.x_hi))


def _recessive_slope(params: ModelParams, x: float, inward: float) -> float:
    """Log-slope of the decaying solution at a domain edge.

    Root of the quadratic symbol (sigma^2/2) s^2 - omega x s - rho = 0
    choosing the branch that decays away from the domain, refined by one
    Riccati iteration (accounts for the s' term).
    """
    sg, om, rho = params.sigma, params.omega, params.rho
    disc = math.sqrt(om * om * x * x + 2.0 * rho * sg * sg)
    # inward > 0 at the left edge: decaying toward -inf means slope > 0 there
    s = (om * x + disc) / sg ** 2 if inward > 0 else (om * x - disc) / sg ** 2
    # one correction step: s1 = s - (sigma^2/2) s' / (sigma^2 s - omega x)
    ds = (om - om * om * x / disc) if inward < 0 else (om + om * om * x / disc)
    ds /= sg ** 2
    denom = sg ** 2 * s - om * x
    if denom != 0.0:
        s = s - 0.5 * sg ** 2 * ds / denom
    return s


def solve_homogeneous(params: ModelParams, x_domain=None, pad_frac: float = 0.15,
                      nq: int = 24001, ode_tol: float = 1e-11) -> HomogeneousPair:
    """Integrate the homogeneous pair inward from both padded edges."""
    if x_domain is None:
        x_domain = default_x_domain(params)
    x_min, x_max = map(float, x_domain)
    if not (x_max > x_min):
        raise ConfigError("x_domain must satisfy min < max")
    pad = pad_frac * (x_max - x_min)
    x_lo, x_hi = x_min - pad, x_max + pad
    xq = np.linspace(x_lo, x_hi, int(nq))

    p = params

    def rhs(t, y):
        psi, dpsi = y
        return [dpsi, (2.0 / p.sigma ** 2) * (p.omega * t * dpsi + p.rho * psi)]

    s1 = _recessive_slope(p, x_lo, inward=+1.0)
    traj1 = integrate_ode(rhs, [1.0, s1], (x_lo, x_hi), tol=ode_tol, t_eval=xq)
    psi1_s, psi1_d_s = traj1.ys

    s2 = _recessive_slope(p, x_hi, inward=-1.0)
    traj2 = integrate_ode(rhs, [1.0, s2], (x_hi, x_lo), tol=ode_tol, t_eval=xq[::-1])
    psi2_s = traj2.ys[0][::-1].copy()
    psi2_d_s = traj2.ys[1][::-1].copy()

    # rescale so |W| = 1 at the domain center; keeps the linear systems O(1)
    xc = 0.5 * (x_min + x_max)
    ic = int(np.argmin(np.abs(xq - xc)))
    w0 = psi1_s[ic] * psi2_d_s[ic] - psi2_s[ic] * psi1_d_s[ic]
    if w0 == 0.0 or not math.isfinite(w0):
        raise ConvergenceError("degenerate homogeneous pair (zero Wronskian)")
    scale = 1.0 / math.sqrt(abs(w0))
    psi1_s = psi1_s * scale
    psi1_d_s = psi1_d_s * scale
    psi2_s = psi2_s * scale
    psi2_d_s = psi2_d_s * scale

    return HomogeneousPair(
        params=p, x_lo=x_lo, x_hi=x_hi, x_quad=xq,
        psi1_s=psi1_s, psi2_s=psi2_s, psi1_d_s=psi1_d_s, psi2_d_s=psi2_d_s,
        psi1=CubicSpline(xq, psi1_s), psi2=CubicSpline(xq, psi2_s),
        psi1_d=CubicSpline(xq, psi1_d_s), psi2_d=CubicSpline(xq, psi2_d_s))


# ---------------------------------------------------------------------------
# resolvent / particular solution


@dataclass(frozen=True)
class GreensDecomposition:
    """Particular solution data: I(x, theta) = drift_part + theta * risk_part.

    ``drift_part`` is the resolvent applied to the signal drift,
    ``risk_part`` the resolvent applied to the constant -2*lam.  Their
    first derivatives come from the quadrature representation (the
    integrand cross-terms cancel), second derivatives from the defining
    equations.  ``greens_kernel`` exposes the kernel itself.
    """

    params: ModelParams
    pair: HomogeneousPair
    drift_part: CubicSpline = field(repr=False)
    drift_part_d: CubicSpline = field(repr=False)
    risk_part: CubicSpline = field(repr=False)
    risk_part_d: CubicSpline = field(repr=False)

    # -- particular-solution derivative, affine in theta ------------------
    def i_value(self, x, theta):
        return self.drift_part(x) + theta * self.risk_part(x)

    def i_x(self, x, theta):
        return self.drift_part_d(x) + theta * self.risk_part_d(x)

    def i_xx(self, x, theta):
        """From the defining equations of the two parts (exact)."""
        p = self.params
        mu = -p.omega * np.asarray(x)
        ddp = (2.0 / p.sigma ** 2) * (-mu * self.drift_part_d(x)
                                      + p.rho * self.drift_part(x) - mu)
        ddq = (2.0 / p.sigma ** 2) * (-mu * self.risk_part_d(x)
                                      + p.rho * self.risk_part(x) + 2.0 * p.lam)
        return ddp + theta * ddq

    def particular_value(self, x, theta):
        """V-particular = theta*drift_part + theta^2/2 * risk_part."""
        return theta * self.drift_part(x) + 0.5 * theta ** 2 * self.risk_part(x)

    def greens_kernel(self, x, xi):
        """Resolvent kernel G(x, xi) of (generator - rho); symmetric role split."""
        pr = self.pair
        lo, hi = (xi, x) if xi <= x else (x, xi)
        w = pr.wronskian(xi)
        return -2.0 / self.params.sigma ** 2 * pr.psi1(lo) * pr.psi2(hi) / w

    # -- level system ------------------------------------------------------
    def detD(self, h_plus, h_minus):
        pr = self.pair
        return (pr.psi1(h_plus) * pr.psi2(h_minus)
                - pr.psi1(h_minus) * pr.psi2(h_plus))

    def alpha_coefficients(self, h_plus, h_minus, gamma_lin, theta):
        """Homogeneous coefficients (per level) from the slope conditions.

        Solves the 2x2 system pinning dV/dtheta = -gamma at h_plus and
        +gamma at h_minus.
        """
        if not (h_plus > h_minus):
            raise ConfigError(f"need h_plus > h_minus, got ({h_plus}, {h_minus})")
        st = _level_state(self, gamma_lin, theta, h_plus, h_minus)
        return st["a1"], st["a2"]


def greens_particular(params: ModelParams, pair: HomogeneousPair) -> GreensDecomposition:
    """Build the particular-solution parts by cumulative Simpson quadrature."""
    xq = pair.x_quad
    w = pair.wronskian_samples
    if np.any(w == 0.0):
        raise ConvergenceError("Wronskian vanishes on the quadrature grid")
    pref = -2.0 / params.sigma ** 2

    def resolvent(source):
        f1 = pair.psi1_s * source / w
        f2 = pair.psi2_s * source / w
        c1 = cumulative_simpson(f1, x=xq, initial=0.0)
        # accumulate the tail integral from the right edge so it stays a
        # short sum where psi1 is large (a total-minus-cumulative form
        # would multiply full-sum roundoff by the dominant solution)
        tail2 = cumulative_simpson(f2[::-1], x=(-xq)[::-1], initial=0.0)[::-1]
        val = pref * (pair.psi2_s * c1 + pair.psi1_s * tail2)
        der = pref * (pair.psi2_d_s * c1 + pair.psi1_d_s * tail2)
        return val, der

    mu = -params.omega * xq
    p_s, p_d = resolvent(mu)
    q_s, q_d = resolvent(np.full_like(xq, -2.0 * params.lam))

    return GreensDecomposition(
        params=params, pair=pair,
        drift_part=CubicSpline(xq, p_s), drift_part_d=CubicSpline(xq, p_d),
        risk_part=CubicSpline(xq, q_s), risk_part_d=CubicSpline(xq, q_d))


# ---------------------------------------------------------------------------
# level system internals

_DET_FLOOR = 1e-13


def _level_state(comp: GreensDecomposition, gamma_lin, theta, hp, hm):
    """Everything the Newton steps need at one (theta, h+, h-) point."""
    pr = comp.pair
    p1p, p2p = float(pr.psi1(hp)), float(pr.psi2(hp))
    p1m, p2m = float(pr.psi1(hm)), float(pr.psi2(hm))
    d1p, d2p = float(pr.psi1_d(hp)), float(pr.psi2_d(hp))
    d1m, d2m = float(pr.psi1_d(hm)), float(pr.psi2_d(hm))
    det = p1p * p2m - p1m * p2p
    scale = max(abs(p1p * p2m), abs(p1m * p2p), 1e-300)
    if abs(det) < _DET_FLOOR * scale:
        raise RegimeError(
            f"degenerate boundary pair: determinant {det:.3e} at "
            f"(h+={hp:.6g}, h-={hm:.6g})")
    b1 = -gamma_lin - comp.i_value(hp, theta)
    b2 = gamma_lin - comp.i_value(hm, theta)
    a1 = (b1 * p2m - b2 * p2p) / det
    a2 = (b2 * p1p - b1 * p1m) / det
    rp = comp.i_x(hp, theta) + a1 * d1p + a2 * d2p
    rm = comp.i_x(hm, theta) + a1 * d1m + a2 * d2m
    return {
        "p1p": p1p, "p2p": p2p, "p1m": p1m, "p2m": p2m,
        "d1p": d1p, "d2p": d2p, "d1m": d1m, "d2m": d2m,
        "det": det, "a1": a1, "a2": a2, "rp": rp, "rm": rm,
        "theta": float(theta), "hp": float(hp), "hm": float(hm),
    }


def _minv_cols(st):
    """Columns of the inverse boundary matrix."""
    det = st["det"]
    col1 = (st["p2m"] / det, -st["p1m"] / det)   # M^-1 e1
    col2 = (-st["p2p"] / det, st["p1p"] / det)   # M^-1 e2
    return col1, col2


def _base_curvatures(comp, st):
    """S+- = I_xx + a . psi'' at each endpoint (curvature of dV/dtheta in x)."""
    pdd1p = float(comp.pair.psi_dd(1, st["hp"]))
    pdd2p = float(comp.pair.psi_dd(2, st["hp"]))
    pdd1m = float(comp.pair.psi_dd(1, st["hm"]))
    pdd2m = float(comp.pair.psi_dd(2, st["hm"]))
    sp = comp.i_xx(st["hp"], st["theta"]) + st["a1"] * pdd1p + st["a2"] * pdd2p
    sm = comp.i_xx(st["hm"], st["theta"]) + st["a1"] * pdd1m + st["a2"] * pdd2m
    return float(sp), float(sm)


def _jacobian_h(comp, st):
    """Exact Jacobian of (R+, R-) with respect to (h+, h-)."""
    sp, sm = _base_curvatures(comp, st)
    col1, col2 = _minv_cols(st)
    # d a / d h+ = -R+ * M^-1 e1 ; d a / d h- = -R- * M^-1 e2
    j11 = sp - st["rp"] * (col1[0] * st["d1p"] + col1[1] * st["d2p"])
    j12 = -st["rm"] * (col2[0] * st["d1p"] + col2[1] * st["d2p"])
    j21 = -st["rp"] * (col1[0] * st["d1m"] + col1[1] * st["d2m"])
    j22 = sm - st["rm"] * (col2[0] * st["d1m"] + col2[1] * st["d2m"])
    return np.array([[j11, j12], [j21, j22]]), sp, sm


def _theta_partials(comp, st):
    """d(R+-)/dtheta at fixed endpoints, via the envelope of the 2x2 solve."""
    qp = float(comp.risk_part(st["hp"]))
    qm = float(comp.risk_part(st["hm"]))
    col1, col2 = _minv_cols(st)
    w1 = -(qp * col1[0] + qm * col2[0])
    w2 = -(qp * col1[1] + qm * col2[1])
    qdp = float(comp.risk_part_d(st["hp"]))
    qdm = float(comp.risk_part_d(st["hm"]))
    drp = qdp + w1 * st["d1p"] + w2 * st["d2p"]
    drm = qdm + w1 * st["d1m"] + w2 * st["d2m"]
    return drp, drm, (w1, w2)


def _resid_scale(comp, st):
    pieces = (abs(comp.i_x(st["hp"], st["theta"])),
              abs(st["a1"] * st["d1p"]), abs(st["a2"] * st["d2p"]),
              abs(comp.i_x(st["hm"], st["theta"])),
              abs(st["a1"] * st["d1m"]), abs(st["a2"] * st["d2m"]))
    return max(max(pieces), 1e-300)


def _newton_level(comp, gamma_lin, theta, hp0, hm0, tol=1e-12, max_iter=60):
    """Solve R+(h)=R-(h)=0 at a fixed level; damped Newton, exact Jacobian.

    Converged when either the residual is tiny relative to its cancelling
    pieces or the Newton step itself has shrunk below placement accuracy
    (the residual pieces cancel to the double-precision floor near the
    solution, so the step is the sharper measure).
    """
    hp, hm = float(hp0), float(hm0)
    pr = comp.pair
    span = pr.x_hi - pr.x_lo
    st = _level_state(comp, gamma_lin, theta, hp, hm)
    for _ in range(max_iter):
        scale = _resid_scale(comp, st)
        rn = math.hypot(st["rp"], st["rm"])
        if rn <= tol * scale:
            return st
        jac, _, _ = _jacobian_h(comp, st)
        try:
            step = np.linalg.solve(jac, [-st["rp"], -st["rm"]])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular boundary Jacobian at level {theta:.6g}") from exc
        if max(abs(step[0]), abs(step[1])) <= 1e-12 * span:
            return st
        lam_step = 1.0
        for _ in range(12):
            hp_n = hp + lam_step * step[0]
            hm_n = hm + lam_step * step[1]
            if (hp_n > hm_n and pr.contains(hp_n) and pr.contains(hm_n)):
                st_n = _level_state(comp, gamma_lin, theta, hp_n, hm_n)
                if math.hypot(st_n["rp"], st_n["rm"]) < rn:
                    hp, hm, st = hp_n, hm_n, st_n
                    break
            lam_step *= 0.5
        else:
            if rn <= 1e-8 * scale:
                # line search cannot reduce a residual already at the
                # cancellation floor; the point is converged
                return st
            raise ConvergenceError(
                f"level Newton stalled at theta={theta:.6g} "
                f"(h+={hp:.6g}, h-={hm:.6g}, |R|={rn:.3e})")
    raise ConvergenceError(f"level Newton did not converge at theta={theta:.6g}")


def _third_derivative_from_state(comp, st, side="+"):
    """V_theta3 at a solved boundary point: (dR/dtheta)^2 / S on that side.

    Follows from implicit differentiation of the optimality conditions;
    S is the x-curvature of dV/dtheta at the endpoint.
    """
    drp, drm, _ = _theta_partials(comp, st)
    sp, sm = _base_curvatures(comp, st)
    if side == "+":
        if sp == 0.0:
            raise RegimeError("flat x-curvature at upper boundary")
        return drp * drp / sp
    if sm == 0.0:
        raise RegimeError("flat x-curvature at lower boundary")
    return drm * drm / sm


def _boundary_slopes(comp, st):
    """(h+'(theta), h-'(theta)) by implicit differentiation at a solved point."""
    drp, drm, _ = _theta_partials(comp, st)
    sp, sm = _base_curvatures(comp, st)
    if sp == 0.0 or sm == 0.0:
        raise RegimeError("degenerate boundary curvature; cannot differentiate")
    return -drp / sp, -drm / sm


# ---------------------------------------------------------------------------
# band construction


@dataclass(frozen=True)
class Band:
    """No-trade boundaries sampled on an x grid.

    ``theta_plus``/``theta_minus`` are the upper/lower half-band values
    (the no-trade interval at x is [-theta_minus(x), theta_plus(x)]).
    Level tables from the sweep are retained for derivative diagnostics.
    """

    x_nodes: np.ndarray
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    theta_plus_deriv: np.ndarray
    theta_minus_deriv: np.ndarray
    gamma_lin: float
    # x-abscissa of the opposite endpoint paired with each node's level
    pair_minus_of_plus: np.ndarray
    pair_plus_of_minus: np.ndarray
    # level sweep tables (sorted by theta)
    levels: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    alpha1_prime: np.ndarray
    alpha2_prime: np.ndarray
    flat: bool = False
    _tp_spline: CubicSpline | None = field(default=None, repr=False, compare=False)
    _tm_spline: CubicSpline | None = field(default=None, repr=False, compare=False)
    _tpd_spline: CubicSpline | None = field(default=None, repr=False, compare=False)
    _tmd_spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def theta_plus_at(self, x):
        if self.flat:
            return np.full_like(np.asarray(x, dtype=float), self.theta_plus[0]) \
                if np.ndim(x) else float(self.theta_plus[0])
        return self._tp_spline(x)

    def theta_minus_at(self, x):
        if self.flat:
            return np.full_like(np.asarray(x, dtype=float), self.theta_minus[0]) \
                if np.ndim(x) else float(self.theta_minus[0])
        return self._tm_spline(x)

    def theta_plus_deriv_at(self, x):
        if self.flat:
            return 0.0 * np.asarray(x, dtype=float) if np.ndim(x) else 0.0
        return self._tpd_spline(x)

    def theta_minus_deriv_at(self, x):
        if self.flat:
            return 0.0 * np.asarray(x, dtype=float) if np.ndim(x) else 0.0
        return self._tmd_spline(x)

    def width(self, x):
        return self.theta_plus_at(x) + self.theta_minus_at(x)

    def contains(self, x, theta, slack=0.0) -> bool:
        return bool(-self.theta_minus_at(x) - slack <= theta
                    <= self.theta_plus_at(x) + slack)


def flat_band_level(params: ModelParams, gamma_lin: float) -> float:
    """Half-width of the degenerate band when the signal has no dynamics.

    With no drift the no-trade value is -lam*theta^2/rho exactly, so the
    band edge sits where its theta-slope reaches the linear cost.
    """
    return params.rho * gamma_lin / (2.0 * params.lam)


def _seed_level_zero(comp, gamma_lin):
    """Solve the theta=0 level from the small-cost symmetric seed."""
    p = comp.params
    w = small_cost_half_width(p, gamma_lin)
    x0 = 2.0 * p.lam * w / p.omega
    try:
        return _newton_level(comp, gamma_lin, 0.0, x0, -x0)
    except ConvergenceError:
        pass
    # fallback: 1d scan in the symmetric direction for a sign change of R+
    for fac in np.linspace(0.3, 3.0, 28):
        try:
            st = _newton_level(comp, gamma_lin, 0.0, fac * x0, -fac * x0)
            return st
        except (ConvergenceError, RegimeError):
            continue
    raise RegimeError(
        "could not locate the zero level of the band; the band may not "
        "exist on this domain for these parameters")


def find_band_zero(params: ModelParams, gamma_lin: float, x_nodes=None,
                   comp: GreensDecomposition | None = None,
                   level_step_frac: float = 0.1,
                   pad_frac: float = 0.15, nq: int = 24001) -> Band:
    """Construct the linear-cost no-trade band on an x grid.

    Returns a :class:`Band`; raises :class:`RegimeError` when no band
    exists on the domain.  For ``omega == 0`` the flat closed form is
    returned directly (the level construction needs a sloped boundary).
    """
    if not (gamma_lin > 0):
        raise ConfigError(f"gamma_lin must be > 0, got {gamma_lin}")
    if x_nodes is None:
        lo, hi = default_x_domain(params)
        x_nodes = np.linspace(lo, hi, 181)
    x_nodes = np.asarray(x_nodes, dtype=float)
    if x_nodes.ndim != 1 or x_nodes.size < 3 or not np.all(np.diff(x_nodes) > 0):
        raise ConfigError("x_nodes must be >= 3 strictly increasing values")

    if params.omega == 0.0:
        level = flat_band_level(params, gamma_lin)
        n = x_nodes.size
        z = np.zeros(n)
        return Band(x_nodes=x_nodes,
                    theta_plus=np.full(n, level), theta_minus=np.full(n, level),
                    theta_plus_deriv=z.copy(), theta_minus_deriv=z.copy(),
                    gamma_lin=gamma_lin,
                    pair_minus_of_plus=z.copy(), pair_plus_of_minus=z.copy(),
                    levels=np.array([]), h_plus=np.array([]),
                    h_minus=np.array([]), alpha1_prime=np.array([]),
                    alpha2_prime=np.array([]), flat=True)

    if comp is None:
        pair = solve_homogeneous(params, (x_nodes[0], x_nodes[-1]),
                                 pad_frac=pad_frac, nq=nq)
        comp = greens_particular(params, pair)
    x_min, x_max = float(x_nodes[0]), float(x_nodes[-1])
    guard = 0.02 * (comp.pair.x_hi - comp.pair.x_lo)
    lo_lim, hi_lim = comp.pair.x_lo + guard, comp.pair.x_hi - guard

    w = small_cost_half_width(params, gamma_lin)
    dtheta = level_step_frac * w
    st0 = _seed_level_zero(comp, gamma_lin)

    records = [st0]

    def sweep(direction):
        prev2, prev = None, st0
        k = 0
        out = []
        while True:
            k += 1
            if k > 40000:
                raise ConvergenceError("level sweep exceeded iteration budget")
            theta = direction * k * dtheta
            if prev2 is not None:
                hp_seed = 2 * prev["hp"] - prev2["hp"]
                hm_seed = 2 * prev["hm"] - prev2["hm"]
            else:
                hp_seed, hm_seed = prev["hp"], prev["hm"]
            hp_seed = min(max(hp_seed, lo_lim), hi_lim)
            hm_seed = min(max(hm_seed, lo_lim), hi_lim)
            if hp_seed <= hm_seed:
                break
            try:
                st = _newton_level(comp, gamma_lin, theta, hp_seed, hm_seed)
            except (ConvergenceError, RegimeError):
                break
            out.append(st)
            prev2, prev = prev, st
            # sweeping up, the interval slides left: done once the upper
            # endpoint clears the left grid edge (or domain runs out)
            if direction > 0 and (st["hp"] <= x_min or st["hm"] <= lo_lim + guard):
                break
            if direction < 0 and (st["hm"] >= x_max or st["hp"] >= hi_lim - guard):
                break
        return out

    ups = sweep(+1.0)
    downs = sweep(-1.0)
    records = downs[::-1] + records + ups

    levels = np.array([r["theta"] for r in records])
    hps = np.array([r["hp"] for r in records])
    hms = np.array([r["hm"] for r in records])
    a1s = np.array([r["a1"] for r in records])
    a2s = np.array([r["a2"] for r in records])

    if levels.size < 7:
        raise RegimeError(
            "level sweep found too few band levels; domain too small or "
            "band does not exist for these parameters")

    # coverage check before per-node polishing
    if hps.max() < x_max or hps.min() > x_min:
        raise RegimeError(
            f"upper boundary only covers x in [{hps.min():.4g}, {hps.max():.4g}] "
            f"but the grid requests [{x_min:.4g}, {x_max:.4g}]; enlarge the pad "
            f"or shrink the grid")
    if hms.max() < x_max or hms.min() > x_min:
        raise RegimeError("lower boundary does not cover the requested grid")

    n = x_nodes.size
    tp = np.empty(n)
    tm = np.empty(n)
    tpd = np.empty(n)
    tmd = np.empty(n)
    pair_m = np.empty(n)
    pair_p = np.empty(n)

    # seeds by nearest swept level (h+ and h- are monotone in theta)
    order_p = np.argsort(hps)
    order_m = np.argsort(hms)

    for i, x in enumerate(x_nodes):
        j = np.searchsorted(hps[order_p], x)
        j = min(max(j, 0), levels.size - 1)
        rec = records[order_p[j]]
        st = _polish_node(comp, gamma_lin, x, rec, fixed="plus")
        tp[i] = st["theta"]
        pair_m[i] = st["hm"]
        hp_slope, _ = _boundary_slopes(comp, st)
        tpd[i] = 1.0 / hp_slope

        j = np.searchsorted(hms[order_m], x)
        j = min(max(j, 0), levels.size - 1)
        rec = records[order_m[j]]
        st = _polish_node(comp, gamma_lin, x, rec, fixed="minus")
        tm[i] = -st["theta"]
        pair_p[i] = st["hp"]
        _, hm_slope = _boundary_slopes(comp, st)
        tmd[i] = -1.0 / hm_slope

    band = Band(x_nodes=x_nodes, theta_plus=tp, theta_minus=tm,
                theta_plus_deriv=tpd, theta_minus_deriv=tmd,
                gamma_lin=gamma_lin,
                pair_minus_of_plus=pair_m, pair_plus_of_minus=pair_p,
                levels=levels, h_plus=hps, h_minus=hms,
                alpha1_prime=a1s, alpha2_prime=a2s,
                _tp_spline=CubicSpline(x_nodes, tp),
                _tm_spline=CubicSpline(x_nodes, tm),
                _tpd_spline=CubicSpline(x_nodes, tpd),
                _tmd_spline=CubicSpline(x_nodes, tmd))
    if np.any(band.theta_plus + band.theta_minus <= 0):
        raise RegimeError("band has nonpositive width somewhere on the grid")
    return band


def _polish_node(comp, gamma_lin, x, rec, fixed="plus", tol=1e-12, max_iter=60):
    """Newton in (theta, other endpoint) with one endpoint pinned to a node."""
    pr = comp.pair
    if fixed == "plus":
        theta, other = rec["theta"], rec["hm"]
    else:
        theta, other = rec["theta"], rec["hp"]
    span = pr.x_hi - pr.x_lo
    theta_scale = abs(rec["theta"]) + 1e-3 * span
    for _ in range(max_iter):
        hp, hm = (x, other) if fixed == "plus" else (other, x)
        st = _level_state(comp, gamma_lin, theta, hp, hm)
        scale = _resid_scale(comp, st)
        rn = math.hypot(st["rp"], st["rm"])
        if rn <= tol * scale:
            return st
        drp, drm, _ = _theta_partials(comp, st)
        jac, sp, sm = _jacobian_h(comp, st)
        if fixed == "plus":
            # unknowns (theta, hm): columns are d/dtheta and d/dhm
            jj = np.array([[drp, jac[0, 1]], [drm, jac[1, 1]]])
        else:
            jj = np.array([[drp, jac[0, 0]], [drm, jac[1, 0]]])
        try:
            step = np.linalg.solve(jj, [-st["rp"], -st["rm"]])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular polish Jacobian at x={x:.6g}") from exc
        if abs(step[0]) <= 1e-12 * theta_scale and abs(step[1]) <= 1e-12 * span:
            return st
        lam_step = 1.0
        ok = False
        for _ in range(12):
            theta_n = theta + lam_step * step[0]
            other_n = other + lam_step * step[1]
            hp_n, hm_n = (x, other_n) if fixed == "plus" else (other_n, x)
            if hp_n > hm_n and pr.contains(other_n):
                st_n = _level_state(comp, gamma_lin, theta_n, hp_n, hm_n)
                if math.hypot(st_n["rp"], st_n["rm"]) < rn:
                    theta, other = theta_n, other_n
                    ok = True
                    break
            lam_step *= 0.5
        if not ok:
            if rn <= 1e-8 * scale:
                return st
            raise ConvergenceError(
                f"node polish stalled at x={x:.6g} (fixed={fixed})")
    raise ConvergenceError(f"node polish did not converge at x={x:.6g}")


def _state_at_upper(comp, band: Band, x):
    """Re-solve the boundary state with the upper endpoint at x."""
    if band.flat:
        raise RegimeError("flat band: boundary state is degenerate")
    i = int(np.argmin(np.abs(band.x_nodes - x)))
    rec = {"theta": float(band.theta_plus_at(x)),
           "hm": float(band.pair_minus_of_plus[i]),
           "hp": float(x)}
    return _polish_node(comp, band.gamma_lin, float(x), rec, fixed="plus")


# ---------------------------------------------------------------------------
# band diagnostics


def _nearest_stencil(levels, theta, width):
    """Indices of `width` level samples closest to theta."""
    j = int(np.searchsorted(levels, theta))
    lo = max(0, min(j - width // 2, levels.size - width))
    return np.arange(lo, lo + width)


def second_derivative_at_band(comp: GreensDecomposition, band: Band, x,
                              stencil: int = 7) -> float:
    """Total second theta-derivative of the value at the upper boundary.

    Uses finite differences of the swept coefficient tables, so it
    measures whether the computed boundary family actually satisfies the
    optimality (envelope) property; at an exact optimum it vanishes.
    """
    if band.flat:
        raise RegimeError("flat band: second-derivative condition does not apply")
    theta = float(band.theta_plus_at(x))
    idx = _nearest_stencil(band.levels, theta, stencil)
    wts = fd_weights(theta, band.levels[idx], 1)
    da1 = float(wts @ band.alpha1_prime[idx])
    da2 = float(wts @ band.alpha2_prime[idx])
    pr = comp.pair
    return float(comp.risk_part(x) + da1 * pr.psi1(x) + da2 * pr.psi2(x))


def third_derivative_at_band(comp: GreensDecomposition, band: Band, x) -> float:
    """Third theta-derivative of the no-trade value at the upper boundary.

    Exact at the solved boundary point (implicit differentiation of the
    optimality system); must be positive, a nonpositive value raises
    :class:`RegimeError` rather than passing silently.
    """
    st = _state_at_upper(comp, band, x)
    v3 = _third_derivative_from_state(comp, st, side="+")
    if not (v3 > 0):
        raise RegimeError(
            f"third derivative at the band is {v3:.3e} <= 0 at x={x:.6g}; "
            f"boundary-layer theory does not apply")
    return float(v3)


def third_derivative_stencil(comp: GreensDecomposition, band: Band, x,
                             stencil: int = 7) -> float:
    """Independent route: second difference of the coefficient tables.

    The particular part is affine in theta, so the third derivative is
    carried entirely by the homogeneous coefficients.
    """
    if band.flat:
        raise RegimeError("flat band: no third derivative")
    theta = float(band.theta_plus_at(x))
    idx = _nearest_stencil(band.levels, theta, stencil)
    wts = fd_weights(theta, band.levels[idx], 2)
    dda1 = float(wts @ band.alpha1_prime[idx])
    dda2 = float(wts @ band.alpha2_prime[idx])
    pr = comp.pair
    return float(dda1 * pr.psi1(x) + dda2 * pr.psi2(x))


# ---------------------------------------------------------------------------
# values


def _alpha_integrals(band: Band):
    """Cumulative integrals of the coefficient tables, anchored at level 0.

    The sweep always contains the exact level theta = 0 (its seed), so
    anchoring is a plain subtraction.
    """
    a1 = cumulative_trapezoid(band.alpha1_prime, band.levels, initial=0.0)
    a2 = cumulative_trapezoid(band.alpha2_prime, band.levels, initial=0.0)
    j0 = int(np.argmin(np.abs(band.levels)))
    return a1 - a1[j0], a2 - a2[j0]


def value_nt_zero(comp: GreensDecomposition, band: Band, x, theta) -> float:
    """No-trade value at (x, theta), gauge: both coefficients vanish at level 0.

    Raises :class:`DomainError` outside the band.
    """
    x = float(x)
    theta = float(theta)
    if band.flat:
        return -comp.params.lam * theta ** 2 / comp.params.rho
    slack = 1e-9 * (1.0 + abs(band.width(x)))
    if not band.contains(x, theta, slack=slack):
        raise DomainError(
            f"({x:.6g}, {theta:.6g}) is outside the no-trade region")
    a1c, a2c = _alpha_integrals(band)
    sp1 = CubicSpline(band.levels, a1c)
    sp2 = CubicSpline(band.levels, a2c)
    pr = comp.pair
    return float(comp.particular_value(x, theta)
                 + sp1(theta) * pr.psi1(x) + sp2(theta) * pr.psi2(x))


def value_rb_zero(comp: GreensDecomposition, band: Band, x, theta) -> float:
    """Rebalancing-region value: band value less the linear cost of the gap."""
    x = float(x)
    theta = float(theta)
    tp = float(band.theta_plus_at(x))
    tm = float(-band.theta_minus_at(x))
    if theta >= tp:
        return value_nt_zero(comp, band, x, tp) - band.gamma_lin * (theta - tp)
    if theta <= tm:
        return value_nt_zero(comp, band, x, tm) - band.gamma_lin * (tm - theta)
    raise DomainError(f"({x:.6g}, {theta:.6g}) lies inside the no-trade region")


# ---------------------------------------------------------------------------
# boundary-displacement identity


def _displaced_alpha(comp, band, theta, delta):
    """Coefficients with the upper boundary displaced by delta in theta.

    The displaced family keeps the slope conditions but NOT optimality:
    the upper endpoint of level theta is taken from the unperturbed
    family at level theta - delta.
    """
    st_shift = _level_at(comp, band, theta - delta)
    st_base = _level_at(comp, band, theta)
    hp = st_shift["hp"]
    hm = st_base["hm"]
    st = _level_state(comp, band.gamma_lin, theta, hp, hm)
    return st["a1"], st["a2"]


def _level_at(comp, band, theta):
    """Solve the unperturbed level problem at an arbitrary theta."""
    j = int(np.clip(np.searchsorted(band.levels, theta), 1, band.levels.size - 1))
    return _newton_level(comp, band.gamma_lin, theta,
                         band.h_plus[j], band.h_minus[j])


def check_displacement_identity(comp: GreensDecomposition, band: Band, x,
                                delta: float | None = None):
    """Test data for the boundary-displacement consistency identity.

    Displacing the upper boundary by +-delta and re-solving the slope
    conditions changes the value by a second-order amount (first order
    vanishes by boundary optimality).  The theta-derivative of that
    curvature, evaluated at the boundary, must equal minus the third
    theta-derivative of the unperturbed value.

    Returns ``(lhs, rhs)`` where lhs is the displacement-curvature
    derivative g'(boundary) and rhs is -V_theta3(boundary).  A Richardson
    step at delta/2 guards the quadratic regime; disagreement beyond
    O(delta) raises :class:`ConvergenceError`.
    """
    if band.flat:
        raise RegimeError("flat band: displacement identity does not apply")
    x = float(x)
    theta_b = float(band.theta_plus_at(x))
    if delta is None:
        delta = 0.02 * (band.theta_plus_at(x) + band.theta_minus_at(x))

    pr = comp.pair
    p1x, p2x = float(pr.psi1(x)), float(pr.psi2(x))

    def gprime(d):
        st0 = _level_at(comp, band, theta_b)
        a1p, a2p = _displaced_alpha(comp, band, theta_b, +d)
        a1m, a2m = _displaced_alpha(comp, band, theta_b, -d)
        num = ((a1p + a1m - 2 * st0["a1"]) * p1x
               + (a2p + a2m - 2 * st0["a2"]) * p2x)
        return num / d ** 2

    g1 = gprime(delta)
    g2 = gprime(delta / 2)
    # quadratic-regime guard: the two estimates differ at O(delta^2)
    v3 = third_derivative_at_band(comp, band, x)
    if abs(g1 - g2) > 0.25 * abs(g2) + 1e-9 * v3:
        raise ConvergenceError(
            f"displacement step {delta:.3e} is outside the quadratic regime "
            f"at x={x:.6g}: estimates {g1:.6e} vs {g2:.6e}")
    return float(g2), float(-v3)


def displacement_value_shift(comp: GreensDecomposition, band: Band, x, theta,
                             delta: float):
    """|value change| of the (suboptimal) displaced-boundary family at
    a fixed interior point; used for the quadratic-in-delta scaling test."""
    if band.flat:
        raise RegimeError("flat band: displacement does not apply")
    x = float(x)
    # integrate the coefficient difference from level 0 up to theta
    thetas = np.linspace(0.0, float(theta), 41)
    d1 = np.empty_like(thetas)
    d2 = np.empty_like(thetas)
    for k, th in enumerate(thetas):
        st0 = _level_at(comp, band, th)
        a1d, a2d = _displaced_alpha(comp, band, th, delta)
        d1[k] = a1d - st0["a1"]
        d2[k] = a2d - st0["a2"]
    from scipy.integrate import simpson
    pr = comp.pair
    return abs(simpson(d1, x=thetas) * float(pr.psi1(x))
               + simpson(d2, x=thetas) * float(pr.psi2(x)))
