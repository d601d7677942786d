"""Exact no-trade band for pure linear costs.

Inside the band the value function solves the linear equation
``(generator - rho) V = -mu(x) theta + lam theta^2``; outside it the
value continues with slope -+gamma_lin in theta.  The construction:

1. Two homogeneous solutions of ``(sigma^2/2) psi'' + mu(x) psi' - rho psi = 0``.
   With mu = -omega x the equation is even in x, so the solution
   decaying to the right is the mirror image of the one decaying to the
   left: psi2(x) = psi1(-x).  One LSODA pass (``odeint``) integrates
   psi1 across the padded domain, widened to be symmetric about 0, from
   recessive (decaying) asymptotic data at its left edge, on a grid
   symmetric about 0 bit for bit; psi2 is the same pass reversed.  LSODA
   writes all of the dense output nodes inside its compiled loop, where
   a ``solve_ivp`` pass steps in Python.
   Integrating away from the recessive edge damps contamination by the
   dominant solution.  The pair's table is a cubic Hermite interpolant
   of (psi, psi') with psi'' from the equation, its coefficients written
   in closed form, so building it solves no spline system.
2. A particular solution via the resolvent (Green's function) built
   from the pair, evaluated by cumulative Simpson quadrature on the same
   uniform grid.  Its theta-derivative is affine: ``I(x, theta) =
   drift_part(x) + theta * risk_part(x)``.  Its table is a Hermite
   interpolant too: I' comes from the quadrature, I'' from the defining
   equation.
3. Per position level theta, the two free coefficients multiplying the
   homogeneous pair are pinned by the slope conditions dV/dtheta = -+gamma
   at the two x-endpoints (h_plus, h_minus) of the level's no-trade
   interval; the endpoints themselves are pinned by boundary optimality,
   which is equivalent to d(dV/dtheta)/dx = 0 at both endpoints.  One
   state evaluation per array of points z = (theta, h+, h-) reads the
   stacked pair and Green's splines at h+ and h- and returns the
   coefficients, the optimality residuals R+- and their exact 2x3
   Jacobian in z, one entry per point.
4. One damped Newton solves R+- = 0 in two of the three coordinates of
   z with the third pinned, at every point of a batch at once; a single
   point is a batch of one.  With theta pinned, one batch maps out the
   band: the levels k*dtheta of both directions, each seeded from the
   small-cost band, out to the first level past the grid (or the domain)
   each way.  With a grid node pinned as h+ or h-, one batch per side
   polishes the boundary exactly onto every requested x node; each
   node's exact slope then follows from implicit differentiation.  The
   displacement identity solves its levels the same way, in one batch;
   the third theta-derivative at the band is a closed form in the
   boundary's level and slope, and solves nothing.

All evaluation points, including the level endpoints that step slightly
past the nominal x range near the domain ends, stay inside the padded
domain of step 1.

The returned :class:`Band` carries its model and Green's data, so the
diagnostics and values below take the band alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid, odeint
from scipy.interpolate import CubicSpline, PPoly

from .errors import ConfigError, ConvergenceError, DomainError, RegimeError
from .model import (ModelParams, default_x_domain, drift,
                    markowitz_position, small_cost_half_width)
from .special import fd_weights

__all__ = [
    "HomogeneousPair",
    "GreensDecomposition",
    "Band",
    "SweepEnd",
    "solve_homogeneous",
    "greens_particular",
    "find_band_zero",
    "second_derivative_at_band",
    "third_derivative_at_band",
    "value_nt_zero",
    "check_displacement_identity",
    "flat_band_level",
]


# ---------------------------------------------------------------------------
# homogeneous pair


@dataclass(frozen=True)
class HomogeneousPair:
    """Two independent solutions of the discounted homogeneous equation.

    ``psi1`` decays toward the left edge, ``psi2`` toward the right edge;
    ``psi2`` is the mirror image of ``psi1``, the same LSODA pass read
    backwards.  Both are rescaled so the Wronskian psi1*psi2' - psi2*psi1'
    equals -1 at the domain center (it is negative throughout with this
    orientation).  ``spline`` is one cubic Hermite interpolant
    (``_hermite_table``) on the dense quadrature grid ``x_quad`` covering
    the padded domain [x_lo, x_hi]; its columns are (psi1, psi2, psi1',
    psi2') and their derivatives at the knots are (psi1', psi2', psi1'',
    psi2''), psi'' from the defining equation, so no spline system is
    solved; where a second derivative is read off the knots it comes from
    that equation too, not from the spline.  ``x_quad`` is uniform.
    """

    x_lo: float
    x_hi: float
    x_quad: np.ndarray
    psi1_s: np.ndarray
    psi2_s: np.ndarray
    psi1_d_s: np.ndarray
    psi2_d_s: np.ndarray
    spline: PPoly = field(repr=False)

    @property
    def wronskian_samples(self):
        return self.psi1_s * self.psi2_d_s - self.psi2_s * self.psi1_d_s


def _recessive_slope(params: ModelParams, x: float) -> float:
    """Log-slope of the solution decaying toward -inf at a left edge x.

    Root of the quadratic symbol (sigma^2/2) s^2 - omega x s - rho = 0 on
    the branch that decays leftward (s > 0), refined by one Riccati
    iteration (accounts for the s' term).
    """
    sg, om, rho = params.sigma, params.omega, params.rho
    disc = math.sqrt(om * om * x * x + 2.0 * rho * sg * sg)
    s = (om * x + disc) / sg ** 2
    # one correction step: s1 = s - (sigma^2/2) s' / (sigma^2 s - omega x)
    ds = (om + om * om * x / disc) / sg ** 2
    denom = sg ** 2 * s - om * x
    if denom != 0.0:
        s = s - 0.5 * sg ** 2 * ds / denom
    return s


def _inverse_diffusion(params: ModelParams) -> float:
    """2/sigma^2: the Green's kernel's scale and every curvature's."""
    return 2.0 / params.sigma ** 2


def _curvature(params: ModelParams, x, f, fx, source=0.0):
    """f'' by the generator rule (sigma^2/2) f'' + mu(x) f' - rho f =
    -source, at a float x or elementwise over arrays."""
    return _inverse_diffusion(params) * (params.rho * f - drift(params, x) * fx
                                         - source)


# nodes of the dense quadrature grid, and the relative tolerance of the
# LSODA pass onto it: at 1e-13 it is within 1e-11 of a tight reference
# (1e-11 would leave it 1.3e-9 off) in a seventh of the time of the
# DOP853 pass it replaced, which stepped in Python.  The node count is
# sized by its error.  The desk band (181 nodes, gamma_lin 2e-4 x {0.9,
# 1, 1.1}) against a 96001-node solve, largest difference over the
# three as a fraction of max|theta_plus|:
#
#   nodes       8001     12001    16001    24001    64001
#   difference  8.4e-11  1.6e-11  5.6e-12  6.3e-12  7.1e-12
#
# so the h^4 interpolation and Simpson error stays below the pass's
# noise floor (about 6e-12) down to 16001 nodes, and not below.
_QUAD_NODES = 16001
_ODE_TOL = 1e-13


def _hermite_table(x, values, slopes):
    """Cubic Hermite interpolant of the columns ``values`` with knot
    derivatives ``slopes`` (equal-length sequences of arrays on x).

    The coefficients are the closed-form ones of ``CubicHermiteSpline``,
    in its order of operations, so ``.c`` equals its ``.c`` bit for bit;
    the table is written in place and skips that class's input checks.
    """
    dx = np.diff(x)
    c = np.empty((4, x.size - 1, len(values)))
    for j, (y, d) in enumerate(zip(values, slopes)):
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        c[0, :, j] = t / dx
        c[1, :, j] = (slope - d[:-1]) / dx - t
        c[2, :, j] = d[:-1]
        c[3, :, j] = y[:-1]
    return PPoly.construct_fast(c, x)


def solve_homogeneous(params: ModelParams, x_domain=None,
                      pad_frac: float = 0.15) -> HomogeneousPair:
    """Integrate psi1 once across the padded domain and mirror it into psi2.

    The pass runs over [-R, R], R = max(-x_lo, x_hi), from the recessive
    data at -R, on the grid h*k, k = -K..K, symmetric about 0 bit for
    bit, h set so that the padded domain holds about ``_QUAD_NODES``
    nodes (exactly that many when it is centred).  Read backwards it
    gives psi2(x) = psi1(-x) and psi2'(x) = -psi1'(-x); the quadrature
    grid is the run of its nodes that covers the padded domain.  It is
    one ``odeint`` (LSODA) call, which fills all the nodes in compiled
    code.  Raises ConvergenceError naming the span when LSODA reports
    failure or the dominant growth of psi1 overflows on a wide domain.
    """
    if x_domain is None:
        x_domain = default_x_domain(params)
    x_min, x_max = map(float, x_domain)
    if not (x_max > x_min):
        raise ConfigError("x_domain must satisfy min < max")
    pad = pad_frac * (x_max - x_min)
    x_lo, x_hi = x_min - pad, x_max + pad
    r = max(-x_lo, x_hi)
    # R / (x_hi - x_lo) is exactly 1/2 on a centred domain
    k = math.ceil((_QUAD_NODES - 1) * (r / (x_hi - x_lo)))
    h = r / k
    while h * k < r:                        # the grid must reach +-R
        h = math.nextafter(h, math.inf)
    xg = h * np.arange(-k, k + 1)
    # the last node at or below x_lo and the first at or above x_hi
    i0 = int(np.searchsorted(xg, x_lo, side="right")) - 1
    i1 = int(np.searchsorted(xg, x_hi, side="left"))

    def rhs(t, y):
        # Python floats: the same arithmetic as numpy scalars, in less time
        psi, dpsi = y.tolist()
        return [dpsi, _curvature(params, t, psi, dpsi)]

    with np.errstate(over="ignore", invalid="ignore"):
        y, info = odeint(rhs, [1.0, _recessive_slope(params, -r)], xg,
                         rtol=_ODE_TOL, atol=_ODE_TOL * 1e-3, full_output=True,
                         tfirst=True)
    if info["message"] != "Integration successful.":
        raise ConvergenceError(
            f"homogeneous ODE integration failed on span {(-r, r)}: "
            f"{info['message']}", history=info["tcur"])
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        raise ConvergenceError(
            f"homogeneous ODE solution overflows on span {(-r, r)} past "
            f"x={xg[np.argmin(finite)]:.6g}; narrow the x domain or "
            f"its pad", history=info["tcur"])
    run = slice(i0, i1 + 1)
    xq = xg[run]
    psi1_s, psi1_d_s = y[run].T
    psi2_s, psi2_d_s = y[::-1][run].T
    psi2_d_s = -psi2_d_s

    # rescale so |W| = 1 at the domain center; keeps the linear systems O(1)
    ic = int(np.argmin(np.abs(xq - 0.5 * (x_min + x_max))))
    w0 = psi1_s[ic] * psi2_d_s[ic] - psi2_s[ic] * psi1_d_s[ic]
    if w0 == 0.0 or not math.isfinite(w0):
        raise ConvergenceError("degenerate homogeneous pair (zero Wronskian)")
    scale = 1.0 / math.sqrt(abs(w0))
    cols = scale * np.array([psi1_s, psi2_s, psi1_d_s, psi2_d_s])
    psi_dd = _curvature(params, xq, cols[:2], cols[2:])

    return HomogeneousPair(
        x_lo=x_lo, x_hi=x_hi, x_quad=xq, psi1_s=cols[0], psi2_s=cols[1],
        psi1_d_s=cols[2], psi2_d_s=cols[3],
        spline=_hermite_table(xq, cols, (*cols[2:], *psi_dd)))


# ---------------------------------------------------------------------------
# resolvent / particular solution


@dataclass(frozen=True)
class GreensDecomposition:
    """Particular solution data: I(x, theta) = drift_part + theta * risk_part.

    ``drift_part`` is the resolvent applied to the signal drift,
    ``risk_part`` the resolvent applied to the constant -2*lam.  ``spline``
    is one cubic Hermite interpolant (``_hermite_table``) on the pair's
    quadrature grid with columns (drift_part, risk_part, drift_part',
    risk_part') and knot derivatives (drift_part', risk_part',
    drift_part'', risk_part''); the first derivatives come from the
    quadrature representation (the integrand cross-terms cancel), the
    second from the generator rule (``_curvature``) with the sources of
    ``_greens_sources``.
    """

    params: ModelParams
    pair: HomogeneousPair
    spline: PPoly = field(repr=False)

    def particular_value(self, x, theta):
        """V-particular = theta*drift_part + theta^2/2 * risk_part."""
        drift_part, risk_part, _, _ = np.moveaxis(self.spline(x), -1, 0)
        return theta * drift_part + 0.5 * theta ** 2 * risk_part


def _greens_sources(params: ModelParams, x):
    """Rows mu(x) and -2*lam: the sources of drift_part and risk_part."""
    return np.array([drift(params, x), np.full_like(x, -2.0 * params.lam)])


def greens_particular(params: ModelParams, pair: HomogeneousPair) -> GreensDecomposition:
    """Build the particular-solution parts by cumulative Simpson quadrature
    on the pair's uniform grid, and their Hermite table."""
    xq = pair.x_quad
    w = pair.wronskian_samples
    if np.any(w == 0.0):
        raise ConvergenceError("Wronskian vanishes on the quadrature grid")
    c = _inverse_diffusion(params)
    h = float(xq[1] - xq[0])

    def resolvent(source):
        # the value I, its slope I' and, from the defining equation, I''
        f1 = pair.psi1_s * source / w
        f2 = pair.psi2_s * source / w
        c1 = cumulative_simpson(f1, dx=h, initial=0.0)
        # accumulate the tail integral from the right edge so it stays a
        # short sum where psi1 is large (a total-minus-cumulative form
        # would multiply full-sum roundoff by the dominant solution)
        tail2 = cumulative_simpson(f2[::-1], dx=h, initial=0.0)[::-1]
        val = -c * (pair.psi2_s * c1 + pair.psi1_s * tail2)
        der = -c * (pair.psi2_d_s * c1 + pair.psi1_d_s * tail2)
        return val, der, _curvature(params, xq, val, der, source)

    (p_s, p_d, p_dd), (q_s, q_d, q_dd) = map(resolvent,
                                             _greens_sources(params, xq))

    return GreensDecomposition(
        params=params, pair=pair,
        spline=_hermite_table(xq, (p_s, q_s, p_d, q_d),
                              (p_d, q_d, p_dd, q_dd)))


# ---------------------------------------------------------------------------
# level system internals

_DET_FLOOR = 1e-13
# rules of the batched Newton: relative residual and step floor, step
# budget, halvings per step, stalled-residual acceptance
_NEWTON_TOL, _NEWTON_ITERS, _HALVINGS, _STALL_TOL = 1e-12, 60, 12, 1e-8


def _level_state(comp: GreensDecomposition, gamma_lin, theta, hp, hm):
    """Everything the Newton step needs at (theta, h+, h-) points.

    The coordinates are equal-length arrays, one point per entry, and
    every value below is an array of the same length.  Reads both
    stacked splines at h+ and h-; psi'' and I_xx there come from the
    generator rule (``_curvature``).
    ``a1``/``a2`` solve the slope conditions, ``rp``/``rm`` are the
    optimality residuals R+-, ``scale`` the size of their cancelling
    pieces, ``sp``/``sm`` the x-curvatures S+- = I_xx + a . psi'' of
    dV/dtheta at the endpoints and ``jac`` the exact Jacobian
    [dR/dtheta, dR/dh+, dR/dh-] of (R+, R-), as two row tuples.  A
    degenerate endpoint pair (the slope conditions' determinant at the
    cancellation floor) is flagged in ``degenerate``; its other values
    are meaningless.
    """
    p = comp.params
    # one row per endpoint, one array per column
    psi = [comp.pair.spline(x).T for x in (hp, hm)]
    grn = [comp.spline(x).T for x in (hp, hm)]
    (p1p, p2p, d1p, d2p), (p1m, p2m, d1m, d2m) = psi
    (fp, qp, fdp, qdp), (fm, qm, fdm, qdm) = grn
    det = p1p * p2m - p1m * p2p
    scale = reduce(np.maximum, (abs(p1p * p2m), abs(p1m * p2p), 1e-300))
    bad = abs(det) < _DET_FLOOR * scale
    det = np.where(bad, 1.0, det)           # flagged, not divided by
    b1 = -gamma_lin - (fp + theta * qp)
    b2 = gamma_lin - (fm + theta * qm)
    a1 = (b1 * p2m - b2 * p2p) / det
    a2 = (b2 * p1p - b1 * p1m) / det
    ixp = fdp + theta * qdp                 # I_x at each endpoint
    ixm = fdm + theta * qdm
    rp = ixp + a1 * d1p + a2 * d2p
    rm = ixm + a1 * d1m + a2 * d2m

    curv = []
    for x, tab, g in zip((hp, hm), psi, grn):
        i_dd = _curvature(p, x, g[:2], g[2:], _greens_sources(p, x))
        psi_dd = _curvature(p, x, tab[:2], tab[2:])
        curv.append(i_dd[0] + theta * i_dd[1]
                    + a1 * psi_dd[0] + a2 * psi_dd[1])
    sp, sm = curv

    # columns of M^-1, M the boundary matrix of the slope conditions:
    # da/dh+ = -R+ M^-1 e1, da/dh- = -R- M^-1 e2, da/dtheta = (w1, w2)
    m11, m21 = p2m / det, -p1m / det
    m12, m22 = -p2p / det, p1p / det
    w1 = -(qp * m11 + qm * m12)
    w2 = -(qp * m21 + qm * m22)
    jac = (
        (qdp + w1 * d1p + w2 * d2p, sp - rp * (m11 * d1p + m21 * d2p),
         -rm * (m12 * d1p + m22 * d2p)),
        (qdm + w1 * d1m + w2 * d2m, -rp * (m11 * d1m + m21 * d2m),
         sm - rm * (m12 * d1m + m22 * d2m)))
    return {
        "theta": theta, "hp": hp, "hm": hm,
        "a1": a1, "a2": a2, "rp": rp, "rm": rm, "sp": sp, "sm": sm,
        "jac": jac, "degenerate": bad,
        "scale": reduce(np.maximum, (abs(ixp), abs(a1 * d1p), abs(a2 * d2p),
                                     abs(ixm), abs(a1 * d1m), abs(a2 * d2m),
                                     1e-300)),
    }


def _degenerate(hp, hm):
    """The RegimeError of an endpoint pair whose slope conditions are
    singular (determinant at the cancellation floor)."""
    return RegimeError(f"degenerate boundary pair at (h+={hp:.6g}, "
                       f"h-={hm:.6g})")


def _newton_level(comp, gamma_lin, theta, hp0, hm0, drop=None):
    """Solve R+(h) = R-(h) = 0 for (h+, h-) at every pinned level of a
    batch; returns what :func:`_newton_batch` returns."""
    return _newton_batch(comp, gamma_lin, (theta, hp0, hm0), (1, 2),
                         "level Newton", drop)


def _leaves(st):
    """The arrays of a batched level state, the Jacobian's entries included."""
    return ([v for k, v in st.items() if k != "jac"]
            + [entry for row in st["jac"] for entry in row])


def _newton_batch(comp, gamma_lin, z, free, what, drop=None):
    """Damped Newton on R+ = R- = 0 in two coordinates of z = (theta, h+,
    h-), at every point of a batch at once.

    ``z`` holds the coordinates as equal-length arrays and ``free`` the
    indices of the two unknowns; the third coordinate stays pinned.  Each
    point iterates on its own: it has converged when its residual is
    tiny relative to its cancelling pieces or its Newton step has shrunk
    below placement accuracy (the residual pieces cancel to the
    double-precision floor near the solution, so the step is the sharper
    measure).  Its step is halved, at most 12 times, until |R| drops at a
    point with h+ > h- and the free endpoints inside the pair's domain;
    when no halving does, a residual already at the cancellation floor
    (``_STALL_TOL``) is accepted.  A point that fails stops alone,
    holding its error.  No point reads another's state, so a point
    solved alone, as a batch of one, ends bit for bit as it does inside
    a batch.  ``drop(st, done, failed)``, when given, is asked once per
    step for the points whose answer is no longer needed; they stop
    where they are.

    Returns ``(st, done, errors)``: the batched state at each point's last
    accepted iterate, the mask of converged points, and per point None or
    the exception that stopped it.
    """
    pr = comp.pair
    span = pr.x_hi - pr.x_lo
    names = ("theta", "hp", "hm")
    z = [np.array(v, dtype=float) for v in z]
    n = z[0].size
    floor = [_NEWTON_TOL * (np.abs(z[0]) + 1e-3 * span) if k == 0
             else np.full(n, _NEWTON_TOL * span) for k in free]
    ends = [k for k in free if k]           # free endpoints: domain test
    st = _level_state(comp, gamma_lin, *z)
    done = np.zeros(n, dtype=bool)
    errors = [None] * n
    for k in np.flatnonzero(st["degenerate"]).tolist():
        errors[k] = _degenerate(z[1][k], z[2][k])

    def fail(idx, message):
        for k in idx.tolist():
            errors[k] = ConvergenceError(message(k))

    def at(k):
        theta, hp, hm = (st[nm][k] for nm in names)
        return f"theta={theta:.6g}, h+={hp:.6g}, h-={hm:.6g}"

    live = np.flatnonzero(~st["degenerate"])    # points still iterating
    for _ in range(_NEWTON_ITERS):
        rn = np.hypot(st["rp"][live], st["rm"][live])
        ok = rn <= _NEWTON_TOL * st["scale"][live]
        done[live[ok]] = True
        live, rn = live[~ok], rn[~ok]
        rp, rm = st["rp"][live], st["rm"][live]
        (j11, j12), (j21, j22) = ((row[free[0]][live], row[free[1]][live])
                                  for row in st["jac"])
        det = j11 * j22 - j12 * j21
        sing = (det == 0.0) | ~np.isfinite(det)
        fail(live[sing], lambda k: f"singular {what} Jacobian at {at(k)}")
        det[sing] = 1.0                     # failed, not divided by
        step = ((j12 * rm - j22 * rp) / det, (j21 * rp - j11 * rm) / det)
        small = ((np.abs(step[0]) <= floor[0][live])
                 & (np.abs(step[1]) <= floor[1][live]))
        done[live[small]] = True
        keep = ~sing & ~small
        if drop is not None:
            failed = np.array([e is not None for e in errors])
            keep &= ~drop(st, done, failed)[live]
        live, rn, step = live[keep], rn[keep], (step[0][keep], step[1][keep])
        if not live.size:
            break
        z = [st[nm][live] for nm in names]
        moved = np.zeros(live.size, dtype=bool)
        dead = np.zeros(live.size, dtype=bool)  # hit a degenerate trial
        lam_step = 1.0
        for _ in range(_HALVINGS):
            zn = list(z)
            for k, s in zip(free, step):
                zn[k] = z[k] + lam_step * s
            trial = ~moved & ~dead & (zn[1] > zn[2])
            for k in ends:
                trial &= (pr.x_lo <= zn[k]) & (zn[k] <= pr.x_hi)
            if trial.any():
                st_n = _level_state(comp, gamma_lin, *(v[trial] for v in zn))
                idx = np.flatnonzero(trial)
                degen = st_n["degenerate"]
                for j in idx[degen].tolist():
                    errors[live[j]] = _degenerate(zn[1][j], zn[2][j])
                dead[idx[degen]] = True
                better = ~degen & (np.hypot(st_n["rp"], st_n["rm"])
                                   < rn[trial])
                k = idx[better]
                for dst, src in zip(_leaves(st), _leaves(st_n)):
                    dst[live[k]] = src[better]
                moved[k] = True
                if (moved | dead).all():
                    break
            lam_step *= 0.5
        # line search cannot reduce a residual already at the cancellation
        # floor; such a point is converged
        floor_ok = ~moved & ~dead & (rn <= _STALL_TOL * st["scale"][live])
        done[live[floor_ok]] = True
        stuck = ~moved & ~dead & ~floor_ok
        fail(live[stuck], lambda k: f"{what} stalled at {at(k)} (|R|="
             f"{math.hypot(st['rp'][k], st['rm'][k]):.3e})")
        live = live[moved]
    fail(live, lambda k: f"{what} did not converge at {at(k)}")
    return st, done, errors


def _polish_node(comp, gamma_lin, x, theta, other, fixed="plus"):
    """Pin h+ (or h- when ``fixed="minus"``) at each node x and solve for
    (theta, the other endpoint) from the seeds (theta, other).

    One batched Newton (:func:`_newton_batch`) polishes every node at
    once and returns the batched level state.  A node that fails raises
    with its point, the pinned x included, in the message.
    """
    e = 2 if fixed == "plus" else 1         # z index of the free endpoint
    z = [theta, x, x]
    z[e] = other
    st, _, errors = _newton_batch(comp, gamma_lin, z, (0, e),
                                  f"node polish ({fixed} pinned)")
    for exc in errors:
        if exc is not None:
            raise exc
    return st


def _boundary_slopes(st):
    """(h+'(theta), h-'(theta)) by implicit differentiation at solved points."""
    if np.any(st["sp"] == 0.0) or np.any(st["sm"] == 0.0):
        raise RegimeError("degenerate boundary curvature; cannot differentiate")
    return -st["jac"][0][0] / st["sp"], -st["jac"][1][0] / st["sm"]


# ---------------------------------------------------------------------------
# band construction


@dataclass(frozen=True)
class Band:
    """No-trade boundaries sampled on an x grid.

    ``theta_plus``/``theta_minus`` are the upper/lower half-band values
    (the no-trade interval at x is [-theta_minus(x), theta_plus(x)]).
    ``spline`` interpolates (theta_plus, theta_minus, theta_plus_deriv)
    over ``x_nodes`` as the columns of one cubic spline; on the flat band
    the columns are constant, and so is the spline, extrapolation
    included.  Level tables from the sweep are retained for derivative
    diagnostics, with ``alpha_integrals``, the cumulative integrals of
    (alpha1_prime, alpha2_prime) over the levels anchored at level 0, as
    one 2-column spline (None on the flat band), and ``sweep_ends``, the
    (up, down) :class:`SweepEnd` saying why each direction of the sweep
    ended (empty on the flat band).
    ``params`` is the model solved for and ``comp`` the Green's
    decomposition it was solved from, None exactly when ``flat``.
    """

    x_nodes: np.ndarray
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    theta_plus_deriv: np.ndarray
    theta_minus_deriv: np.ndarray
    gamma_lin: float
    # level sweep tables (sorted by theta)
    levels: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    alpha1_prime: np.ndarray
    alpha2_prime: np.ndarray
    spline: CubicSpline = field(repr=False, compare=False)
    params: ModelParams = field(repr=False, compare=False)
    alpha_integrals: CubicSpline | None = field(default=None, repr=False,
                                                compare=False)
    comp: GreensDecomposition | None = field(default=None, repr=False,
                                             compare=False)
    sweep_ends: tuple = ()

    @property
    def flat(self) -> bool:
        return self.comp is None

    def theta_plus_at(self, x):
        return self.spline(x)[..., 0]

    def theta_minus_at(self, x):
        return self.spline(x)[..., 1]

    def plus_edge_at(self, x):
        """(theta_plus, theta_plus_deriv) at x, from one spline read."""
        cols = self.spline(x)
        return cols[..., 0], cols[..., 2]

    def width(self, x):
        return self.theta_plus_at(x) + self.theta_minus_at(x)

    def contains(self, x, theta, slack=0.0) -> bool:
        return bool(-self.theta_minus_at(x) - slack <= theta
                    <= self.theta_plus_at(x) + slack)

    def require_solved(self, x):
        """Raise DomainError, naming the first x outside it, unless x (a
        float or an array) lies in the padded domain the pair was solved
        on (the flat band is defined everywhere)."""
        if self.flat:
            return
        pr = self.comp.pair
        for xi in np.ravel(x).tolist():
            if not (pr.x_lo <= xi <= pr.x_hi):
                raise DomainError(
                    f"x={xi:.6g} is outside the band's solved domain "
                    f"[{pr.x_lo:.6g}, {pr.x_hi:.6g}]")


def flat_band_level(params: ModelParams, gamma_lin: float) -> float:
    """Half-width of the degenerate band when the signal has no dynamics.

    With no drift the no-trade value is -lam*theta^2/rho exactly, so the
    band edge sits where its theta-slope reaches the linear cost.
    """
    return params.rho * gamma_lin / (2.0 * params.lam)


@dataclass(frozen=True)
class SweepEnd:
    """Why one direction of the level sweep ended.

    Either its last level ``theta`` met the end rule (``error`` is None),
    or the Newton of level ``theta`` failed with ``error`` and the
    direction ends on the level before it.
    """

    theta: float
    error: str | None = None


# level spacing of the sweep, as a fraction of the small-cost half-width,
# and how far past the small-cost estimate of each end its first batch
# of candidate levels reaches, as a fraction of that estimate
_LEVEL_STEP_FRAC = 0.1
_END_MARGIN = 0.1


def _sweep_levels(comp, gamma_lin, x_min, x_max):
    """The level sweep of :func:`find_band_zero`, as one batched Newton.

    Each level's seed h+- = (theta -+ w)/m is clamped into the guarded
    domain.  Candidates past a known end stop iterating.  The batch holds
    both directions and reaches 10% past the seeds' own estimate of each
    end; if a direction has not ended there, the batch is solved again
    with that direction's reach doubled.

    Returns the swept levels' (theta, hp, hm, a1, a2) arrays, sorted by
    theta, and the (up, down) :class:`SweepEnd`.  Raises RegimeError,
    chained to the Newton's error, when the zero level fails: the band's
    zero level is not on this domain.  (Restarting it from 0.3 to 3 times
    its seed rescued none of 270 band solves over sigma, omega, gamma and
    pad whose first Newton failed.)
    """
    p, pr = comp.params, comp.pair
    guard = 0.02 * (pr.x_hi - pr.x_lo)
    lo_lim, hi_lim = pr.x_lo + guard, pr.x_hi - guard
    w = small_cost_half_width(p, gamma_lin)
    dtheta = _LEVEL_STEP_FRAC * w
    m = markowitz_position(p, 1.0)   # slope of theta*(x)

    def first_stops(k, hp, hm, done, failed):
        """Each direction's first known end, as (k up, k down); +-inf
        where none is known yet."""
        end_up = (hp <= x_min) | (hm <= lo_lim + guard)
        end_dn = (hm >= x_max) | (hp >= hi_lim - guard)
        up = k[((k >= 0) & failed) | ((k > 0) & done & end_up)]
        dn = k[((k <= 0) & failed) | ((k < 0) & done & end_dn)]
        return (up.min() if up.size else math.inf,
                dn.max() if dn.size else -math.inf)

    def drop(st, done, failed):
        hi, lo = first_stops(k, st["hp"], st["hm"], done, failed)
        return (k > hi) | (k < lo)

    reach = (1.0 + _END_MARGIN) / dtheta
    k_up = max(1, math.ceil(reach * min(w + m * x_min,
                                        m * (lo_lim + guard) - w)))
    k_dn = max(1, math.ceil(reach * min(w - m * x_max,
                                        -m * (hi_lim - guard) - w)))
    while True:
        k = np.arange(-k_dn, k_up + 1)
        theta = k * dtheta
        st, done, errors = _newton_level(
            comp, gamma_lin, theta,
            np.clip((theta - w) / m, lo_lim, hi_lim),
            np.clip((theta + w) / m, lo_lim, hi_lim), drop)
        failed = np.array([e is not None for e in errors])
        hi, lo = first_stops(k, st["hp"], st["hm"], done, failed)
        if hi < math.inf and lo > -math.inf:
            break
        # a direction whose candidates all converged short of the end rule
        # is solved again out to twice as far
        k_up *= 2 if hi == math.inf else 1
        k_dn *= 2 if lo == -math.inf else 1

    if failed[k_dn]:                        # k = 0: the zero level
        raise RegimeError(
            "could not locate the zero level of the band; the band may not "
            "exist on this domain for these parameters") from errors[k_dn]
    ends = tuple(SweepEnd(float(theta[j]),
                          None if errors[j] is None else str(errors[j]))
                 for j in (int(hi) + k_dn, int(lo) + k_dn))
    keep = (k >= lo) & (k <= hi) & ~failed
    return tuple(st[key][keep] for key in ("theta", "hp", "hm", "a1",
                                            "a2")), ends


def find_band_zero(params: ModelParams, gamma_lin: float, x_nodes=None,
                   pad_frac: float = 0.15) -> Band:
    """Construct the linear-cost no-trade band on an x grid.

    The levels theta = k*dtheta, k = 0, +-1, ..., dtheta a tenth of the
    small-cost half-width w, are solved in one batched Newton for their
    endpoints h+-, each seeded from the small-cost band: h+- = (theta -+
    w)/m, m the Markowitz slope.  Sweeping up, the level interval slides
    left, and the direction ends at its first converged level whose upper
    endpoint clears the grid's left edge or whose lower endpoint nears
    the domain's edge; sweeping down, the mirror rule applies.  A level
    whose Newton fails ends its direction on the level before it.  Each
    node is then polished onto its boundaries from the nearest level.

    Returns a :class:`Band` holding ``params``, the Green's data solved
    on the grid's span padded by ``pad_frac`` and why each sweep direction
    ended; raises :class:`RegimeError` when no band exists on the domain
    (the level theta = 0 is not found from its small-cost seed, the sweep
    finds too few levels, or the boundaries do not cover the grid; the
    last two name any level whose Newton failed) and
    :class:`ConvergenceError` when the homogeneous pair cannot be
    integrated across the padded domain.  For ``omega == 0`` the flat
    closed form is returned directly (the level construction needs a
    sloped boundary).
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
                    levels=np.array([]), h_plus=np.array([]),
                    h_minus=np.array([]), alpha1_prime=np.array([]),
                    alpha2_prime=np.array([]),
                    spline=CubicSpline(x_nodes, np.column_stack(
                        [np.full(n, level), np.full(n, level), z])),
                    params=params)

    x_min, x_max = float(x_nodes[0]), float(x_nodes[-1])
    pair = solve_homogeneous(params, (x_min, x_max), pad_frac=pad_frac)
    comp = greens_particular(params, pair)
    (levels, hps, hms, a1s, a2s), sweep_ends = _sweep_levels(
        comp, gamma_lin, x_min, x_max)

    # a direction cut short by a failed Newton names it in these errors
    failures = "".join(
        f"; sweeping {way} stopped before theta={end.theta:.6g}: {end.error}"
        for way, end in zip(("up", "down"), sweep_ends) if end.error)
    if levels.size < 7:
        raise RegimeError(
            "level sweep found too few band levels; domain too small or "
            "band does not exist for these parameters" + failures)

    # coverage check before per-node polishing
    if hps.max() < x_max or hps.min() > x_min:
        raise RegimeError(
            f"upper boundary only covers x in [{hps.min():.4g}, {hps.max():.4g}] "
            f"but the grid requests [{x_min:.4g}, {x_max:.4g}]; enlarge the pad "
            f"or shrink the grid" + failures)
    if hms.max() < x_max or hms.min() > x_min:
        raise RegimeError("lower boundary does not cover the requested grid"
                          + failures)

    # seed each node from the swept level nearest it (h+ and h- are
    # monotone in theta), then polish each side in one batch
    sides = []
    for fixed, ends, other in (("plus", hps, hms), ("minus", hms, hps)):
        order = np.argsort(ends)
        j = order[np.minimum(np.searchsorted(ends[order], x_nodes),
                             levels.size - 1)]
        sides.append(_polish_node(comp, gamma_lin, x_nodes, levels[j],
                                  other[j], fixed))
    stp, stm = sides
    tp = stp["theta"]
    tpd = 1.0 / _boundary_slopes(stp)[0]
    tm = -stm["theta"]
    tmd = -1.0 / _boundary_slopes(stm)[1]

    # the sweep always contains the exact level theta = 0 (k = 0), so
    # anchoring the coefficient integrals there is a plain subtraction
    a_int = cumulative_trapezoid(np.column_stack([a1s, a2s]), levels,
                                 axis=0, initial=0.0)
    a_int -= a_int[int(np.argmin(np.abs(levels)))]
    band = Band(x_nodes=x_nodes, theta_plus=tp, theta_minus=tm,
                theta_plus_deriv=tpd, theta_minus_deriv=tmd,
                gamma_lin=gamma_lin,
                levels=levels, h_plus=hps, h_minus=hms,
                alpha1_prime=a1s, alpha2_prime=a2s,
                spline=CubicSpline(x_nodes, np.column_stack([tp, tm, tpd])),
                params=params, alpha_integrals=CubicSpline(levels, a_int),
                comp=comp, sweep_ends=sweep_ends)
    if np.any(band.theta_plus + band.theta_minus <= 0):
        raise RegimeError("band has nonpositive width somewhere on the grid")
    return band


# ---------------------------------------------------------------------------
# band diagnostics


# level samples in the finite-difference stencils of the band diagnostics
_STENCIL = 7


def second_derivative_at_band(band: Band, x) -> float:
    """Total second theta-derivative of the value at the upper boundary.

    Uses finite differences of the swept coefficient tables, so it
    measures whether the computed boundary family actually satisfies the
    optimality (envelope) property; at an exact optimum it vanishes.
    """
    if band.flat:
        raise RegimeError("flat band: second-derivative condition does not apply")
    theta = float(band.theta_plus_at(x))
    # the _STENCIL level samples closest to theta
    j = int(np.searchsorted(band.levels, theta))
    lo = max(0, min(j - _STENCIL // 2, band.levels.size - _STENCIL))
    idx = np.arange(lo, lo + _STENCIL)
    wts = fd_weights(theta, band.levels[idx], 1)
    da1 = float(wts @ band.alpha1_prime[idx])
    da2 = float(wts @ band.alpha2_prime[idx])
    p1, p2, _, _ = band.comp.pair.spline(x)
    return float(band.comp.spline(x)[1] + da1 * p1 + da2 * p2)


def third_derivative_at_band(band: Band, x):
    """Third theta-derivative of the no-trade value at the upper boundary,
    at a float x, or at every entry of an array x as an array.

    On the boundary theta_b(x), V_theta = -gamma and V_thetatheta = 0
    hold all along the curve.  The theta-derivative of the no-trade
    equation there, with V_theta = -gamma differentiated twice along the
    curve, gives the closed form

        V_thetathetatheta = 2 (2 lam theta_b - mu - rho gamma)
                            / (sigma^2 theta_b'^2),

    theta_b and theta_b' read from the band's spline in one call
    (``plus_edge_at``).  This is the one place the risk-adjusted
    edge 2 lam theta_b - mu - rho gamma is written: the boundary layer
    reads its forcing from it, amp^2 = V_thetathetatheta * 2 sigma^2
    theta_b'^2 (:func:`~bandlayer.asymptotics.layer_constants`).  At the
    desk model it agrees with implicit differentiation of a node polished
    onto x within 1.03e-9 relative over gamma 2e-6 to 2e-4 and x from
    -0.1 to 0.2, and to 1.4e-14 at a node.  Past the node grid it reads
    the spline's extrapolation, as ``layer_constants`` does; there it
    differs from such a polish by 4.3e-6 at x = -0.3 and 8.4e-6 at
    x = 0.33.  Raises :class:`DomainError` outside the band's solved
    domain and :class:`RegimeError`, naming x, where the boundary slope
    vanishes (the flat band everywhere) or the value is not positive.
    """
    xs = np.array(x, dtype=float, ndmin=1)
    band.require_solved(xs)
    p = band.params
    theta_b, slope = band.plus_edge_at(xs)
    for xi, s in zip(xs.tolist(), slope.tolist()):
        if s == 0.0:
            raise RegimeError(f"boundary slope vanishes at x={xi:.6g}")
    v3 = (2.0 * (2.0 * p.lam * theta_b - drift(p, xs) - p.rho * band.gamma_lin)
          / (p.sigma ** 2 * slope ** 2))
    for xi, v in zip(xs.tolist(), v3.tolist()):
        if not (v > 0):
            raise RegimeError(
                f"third derivative at the band is {v:.3e} <= 0 at "
                f"x={xi:.6g}; boundary-layer theory does not apply")
    return v3 if np.ndim(x) else float(v3[0])


# ---------------------------------------------------------------------------
# values


def value_nt_zero(band: Band, x, theta) -> float:
    """No-trade value at (x, theta), gauge: both coefficients vanish at level 0.

    Raises :class:`DomainError` outside the band, the flat band included.
    """
    x = float(x)
    theta = float(theta)
    slack = 1e-9 * (1.0 + abs(band.width(x)))
    if not band.contains(x, theta, slack=slack):
        raise DomainError(
            f"({x:.6g}, {theta:.6g}) is outside the no-trade region")
    if band.flat:
        return -band.params.lam * theta ** 2 / band.params.rho
    a1, a2 = band.alpha_integrals(theta)
    p1, p2, _, _ = band.comp.pair.spline(x)
    return float(band.comp.particular_value(x, theta) + a1 * p1 + a2 * p2)


# ---------------------------------------------------------------------------
# boundary-displacement identity


def check_displacement_identity(band: Band, x):
    """Test data for the boundary-displacement consistency identity.

    Displacing the upper boundary by +-delta and re-solving the slope
    conditions changes the value by a second-order amount (first order
    vanishes by boundary optimality).  The theta-derivative of that
    curvature, evaluated at the boundary, must equal minus the third
    theta-derivative of the unperturbed value.

    Returns ``(lhs, rhs)``: lhs is the displacement-curvature derivative
    g'(boundary), from the re-solved displaced boundaries, and rhs is
    -V_theta3(boundary), the closed form of :func:`third_derivative_at_band`
    in the band's level and slope, which solves nothing; floats at a
    float x, arrays at an array x.  The step delta is 2% of the band
    width at x; a Richardson step at delta/2 guards the quadratic regime,
    and disagreement beyond O(delta) raises :class:`ConvergenceError`.
    The five levels of every x are solved in one batched Newton, and the
    four displaced states of every x in one state evaluation.
    """
    if band.flat:
        raise RegimeError("flat band: displacement identity does not apply")
    xs = np.array(x, dtype=float, ndmin=1)
    n = xs.size
    theta_b = band.theta_plus_at(xs)
    delta = 0.02 * band.width(xs)
    # displacements, one row each: +-delta, then +-delta/2
    d = np.array([delta, -delta, delta / 2, -delta / 2])
    # the levels theta_b, then theta_b - d, each seeded from a swept level
    theta = np.concatenate([theta_b, (theta_b - d).ravel()])
    j = np.clip(np.searchsorted(band.levels, theta), 1, band.levels.size - 1)
    st, _, errors = _newton_level(band.comp, band.gamma_lin, theta,
                                  band.h_plus[j], band.h_minus[j])
    for exc in errors:
        if exc is not None:
            raise exc
    # coefficients with the upper boundary displaced by d: the slope
    # conditions hold but NOT optimality, the upper endpoint of level
    # theta_b is the unperturbed family's at level theta_b - d
    disp = _level_state(band.comp, band.gamma_lin, np.tile(theta_b, 4),
                        st["hp"][n:], np.tile(st["hm"][:n], 4))
    a1, a2 = disp["a1"].reshape(4, n), disp["a2"].reshape(4, n)
    p1x, p2x, _, _ = band.comp.pair.spline(xs).T
    # g' at the steps delta (row 0) and delta/2 (row 1)
    g1, g2 = (((a1[0::2] + a1[1::2] - 2 * st["a1"][:n]) * p1x
               + (a2[0::2] + a2[1::2] - 2 * st["a2"][:n]) * p2x)
              / d[0::2] ** 2)
    # quadratic-regime guard: the two estimates differ at O(delta^2)
    v3 = third_derivative_at_band(band, xs)
    bad = np.flatnonzero(abs(g1 - g2) > 0.25 * abs(g2) + 1e-9 * v3)
    if bad.size:
        k = bad[0]
        raise ConvergenceError(
            f"displacement step {delta[k]:.3e} is outside the quadratic "
            f"regime at x={xs[k]:.6g}: estimates {g1[k]:.6e} vs {g2[k]:.6e}")
    return (g2, -v3) if np.ndim(x) else (float(g2[0]), float(-v3[0]))
