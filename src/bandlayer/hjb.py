"""Finite-difference solver for the full stationary control problem.

This module is the brute-force oracle: it never calls the Green's-function
band construction or the layer asymptotics.  The discounted optimality
equation

    rho V = mu(x) theta - lam theta^2 + H(V_theta) + L_x V

with H the maximized trading Hamiltonian (linear cost gamma_lin plus a
quadratic eta v^2 or power zeta |v|^{3/2} term) is discretized with a
monotone upwind scheme (monotonicity is what makes it converge; Barles &
Souganidis, 1991) and solved by policy iteration, one sparse LU per
policy.  The x-part of the operator does not depend on the policy; it is
built once per grid by ``_x_stencil`` and ``_assemble`` adds the
theta-advection of each policy to it.

A cold solve is seeded coarse to fine: the same problem on half the
theta nodes, interpolated in theta, recursively down to the closed-form
all-no-trade value, so the boundary travels mostly on cheap grids.  A
seeding level stops at its first settled policy: policy iteration
converges from any seed (Bokanowski, Maroso & Zidani, SIAM J. Numer.
Anal. 47, 2009), so the digits a tighter stop would add are re-done on
the finer level anyway.

Grid layout note: fields are (nx, ntheta) arrays; the sparse system is
ordered x-fastest so the matrix bandwidth is nx, which keeps the LU
factor banded and cheap even for very fine theta grids.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, ConvergenceError, DomainError
from .model import (CostKind, CostParams, Grid2D, ModelParams, ScalarField,
                    drift, markowitz_position, nt_rhs,
                    small_cost_half_width)

__all__ = [
    "SolverConfig",
    "ValueGrid",
    "ExtractedBand",
    "VelocitySlice",
    "solve_hjb",
    "extract_band",
    "velocity_slice",
]


# smallest quadratic cost eta accepted: below it the discrete control is
# too stiff to trust (the shift sweep also uses it as its baseline eta)
ETA_FLOOR = 1e-8
# velocity cap, as a multiple of the speed scale the grid can call for
VELOCITY_CAP_FACTOR = 10.0
# |v| level, relative to max|v|, at which the band boundaries are placed
BAND_THRESHOLD = 1e-4
# a cold solve on more theta nodes than this is seeded from the same
# problem on (ntheta + 1) // 2 nodes; on this many or fewer, where a
# factor is cheapest, from the closed-form no-trade value
_COARSEST_NTHETA = 13
# a settled policy stops when its update is within this many times the
# rounding floor eps * max_row(|A||V| + |b|) of its solve.  Past
# convergence the updates wander at 0.01-0.15 of the floor on 21x401 and
# at 0.08-3.5 of it on 121x1501 (desk point, eta 1e-4); a tolerance whose
# bound lies above twice the floor stops as it would without this test
_FLOOR_FACTOR = 2.0


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for :func:`solve_hjb`.

    ``convergence_tol`` is relative to the value scale: policy iteration
    stops once max|Delta V| <= convergence_tol * max|V| *and* the
    policy's sign pattern (buy, hold, sell per node) is the same as in
    the previous iteration.  The update bound alone does not settle the
    policy, because the control reads V through one-sided differences and
    an update delta moves a slope by delta / htheta.  A settled policy
    whose update misses that bound but lies within ``_FLOOR_FACTOR``
    times the solve's rounding floor, eps * max_row(|A||V| + |b|), stops
    too: a tolerance below what the LU resolves would otherwise spin to
    ``max_iters``.  ``ValueGrid.stopped_by`` says which test stopped.

    A cold solve runs policy iteration on every coarse seeding level as
    well.  ``convergence_tol`` applies on the target grid only: a seeding
    level stops at the first iteration whose sign pattern repeats the
    previous one.  ``max_iters`` caps every level, while
    ``ValueGrid.iterations`` and ``history`` count the target grid only.

    The eta floor, the velocity cap and the band-extraction threshold are
    not settable; they are the module constants ``ETA_FLOOR``,
    ``VELOCITY_CAP_FACTOR`` and ``BAND_THRESHOLD``.
    """

    max_iters: int = 400
    convergence_tol: float = 1e-9

    def __post_init__(self):
        if (not isinstance(self.max_iters, numbers.Integral)
                or isinstance(self.max_iters, bool) or self.max_iters < 1):
            raise ConfigError(
                f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (self.convergence_tol > 0):
            raise ConfigError("convergence_tol must be > 0")


@dataclass(frozen=True)
class ValueGrid:
    """Solved value function and optimal velocity on a Grid2D."""

    V: ScalarField
    v: ScalarField
    band_plus: np.ndarray
    band_minus: np.ndarray
    plus_mask: np.ndarray
    minus_mask: np.ndarray
    residual: float
    iterations: int
    # per-iteration max value update, for convergence post-mortems
    history: tuple = ()
    # the stop test the target grid met: "tolerance" or "floor"
    stopped_by: str = "tolerance"

    @property
    def grid(self) -> Grid2D:
        return self.V.grid


@dataclass(frozen=True)
class ExtractedBand:
    """Per-x no-trade boundaries located from the velocity field.

    ``theta_plus`` is the upper boundary, ``theta_minus`` the magnitude of
    the lower one (the no-trade interval is [-theta_minus, theta_plus]).
    Nodes where a crossing was not found carry mask False and NaN.
    """

    x_nodes: np.ndarray
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    plus_mask: np.ndarray
    minus_mask: np.ndarray
    threshold_abs: float
    vmax: float


@dataclass(frozen=True)
class VelocitySlice:
    """theta-profile of the optimal velocity at one x node."""

    x: float
    theta: np.ndarray
    v: np.ndarray
    band_plus: float
    band_minus: float


# ------------------------------------------------------------------ control

def _hamiltonian(costs: CostParams, d_plus, d_minus, cap):
    """Argmax velocity of the monotone numerical Hamiltonian.

    Buying (v > 0) is priced against the forward difference, selling
    against the backward one, so the resulting advection is upwind by
    construction.  ``d_plus[:, -1]`` and ``d_minus[:, 0]`` must be
    pre-filled with values that disable the missing candidate.
    """
    g = costs.gamma_lin
    s_buy = np.maximum(d_plus - g, 0.0)
    s_sell = np.maximum(-d_minus - g, 0.0)
    if costs.kind is CostKind.QUADRATIC:
        v_buy = np.minimum(s_buy / (2.0 * costs.eta), cap)
        v_sell = np.minimum(s_sell / (2.0 * costs.eta), cap)
    else:
        v_buy = np.minimum((2.0 * s_buy / (3.0 * costs.zeta)) ** 2, cap)
        v_sell = np.minimum((2.0 * s_sell / (3.0 * costs.zeta)) ** 2, cap)
    h_buy = v_buy * s_buy - _nl_cost(costs, v_buy)
    h_sell = v_sell * s_sell - _nl_cost(costs, v_sell)
    return np.where(h_sell > h_buy, -v_sell, v_buy)


def _nl_cost(costs: CostParams, speed):
    """Nonlinear cost rate at trading speed |v| = speed >= 0."""
    if costs.kind is CostKind.QUADRATIC:
        return costs.eta * speed ** 2
    return costs.zeta * speed ** 1.5


def _velocity_cap(params: ModelParams, costs: CostParams,
                  grid: Grid2D) -> float:
    span = float(grid.theta_nodes[-1] - grid.theta_nodes[0])
    mu_max = params.omega * max(abs(float(grid.x_nodes[0])),
                                abs(float(grid.x_nodes[-1])))
    slope = params.lam * span ** 2 + mu_max * span + costs.gamma_lin
    if costs.kind is CostKind.QUADRATIC:
        base = slope / (2.0 * costs.eta) + math.sqrt(params.lam / costs.eta) * span
    else:
        base = (2.0 * slope / (3.0 * costs.zeta)) ** 2
    return VELOCITY_CAP_FACTOR * max(base, 1.0)


# ----------------------------------------------------------- edge conditions

def _edge_slopes(params: ModelParams, costs: CostParams, grid: Grid2D):
    """Analytic far-field slope of V at the two theta edges, per x node.

    The rebalancing asymptote gives V_theta = -+gamma_lin -+ c(rad) with
    rad = lam (theta - theta*)^2 - lam w_est^2, theta* the cost-free
    position and w_est the small-cost half-width estimate.  Where rad <= 0
    the band may reach the edge and the asymptote is meaningless; those
    nodes fall back to a one-sided optimality row (mask False).
    """
    x = grid.x_nodes
    star = markowitz_position(params, x)
    w_est = small_cost_half_width(params, costs.gamma_lin)
    out = []
    for sign, theta_e in ((1.0, float(grid.theta_nodes[0])),
                          (-1.0, float(grid.theta_nodes[-1]))):
        rad = params.lam * (theta_e - star) ** 2 - params.lam * w_est ** 2
        usable = rad > 0.0
        rad = np.where(usable, rad, 0.0)
        if costs.kind is CostKind.QUADRATIC:
            extra = 2.0 * np.sqrt(costs.eta * rad)
        else:
            extra = (27.0 / 4.0) ** (1.0 / 3.0) * costs.zeta ** (2.0 / 3.0) \
                * rad ** (1.0 / 3.0)
        out.append((usable, sign * (costs.gamma_lin + extra)))
    return tuple(out)


# ------------------------------------------------------------- policy scheme

def _x_stencil(params: ModelParams, grid: Grid2D):
    """The x-operator L_x as (lower, diag, upper) coefficients per x node.

    (L_x V)_i = lower_i V_{i-1} + diag_i V_i + upper_i V_{i+1}, with
    lower, upper >= 0 and diag = -(lower + upper), so the scheme is
    monotone.  Diffusion acts at interior x only (zero curvature at the x
    edges).  Advection is centered where the diffusion dominates
    (|mu| hx <= sigma^2 keeps the weights >= 0, and is second order) and
    upwind by drift sign otherwise.  Mean reversion points inward on
    domains straddling 0, so the upwind neighbour normally exists at the
    edges; outward drift at an edge (off-center domain) is dropped, which
    leaves lower_0 = upper_{nx-1} = 0.
    """
    hx = grid.hx
    mu = drift(params, grid.x_nodes)
    mu[0] = max(mu[0], 0.0)
    mu[-1] = min(mu[-1], 0.0)
    w = np.full(grid.nx, 0.5 * params.sigma ** 2 / hx ** 2)
    w[[0, -1]] = 0.0
    centered = (np.abs(mu) * hx <= params.sigma ** 2) & (w > 0)
    half = np.where(centered, 0.5 * mu / hx, 0.0)
    a_fwd = np.where(centered, 0.0, np.maximum(mu, 0.0) / hx)
    a_bwd = np.where(centered, 0.0, np.maximum(-mu, 0.0) / hx)
    return w - half + a_bwd, -(2.0 * w + (a_fwd + a_bwd)), w + half + a_fwd


def _assemble(params: ModelParams, grid: Grid2D, xop, v, bc_bot, bc_top):
    """Sparse operator rho I - v d/dtheta - L_x with upwind advection.

    ``xop`` is the :func:`_x_stencil` of the grid.  Unknowns are ordered
    x-fastest (k = i + j*nx), so the matrix has five diagonals, at
    offsets 0, +-1 (x) and +-nx (theta).  Rows at theta edges where the
    bc mask is set enforce the one-sided slope instead of the optimality
    equation; the returned callback maps the reward field to the rhs.
    """
    nx, nt = grid.nx, grid.ntheta
    ht = grid.htheta
    lower, x_diag, upper = (c[:, None] for c in xop)
    bot_mask, _ = bc_bot
    top_mask, _ = bc_top
    is_bc = np.zeros((nx, nt), dtype=bool)
    is_bc[:, 0] = bot_mask
    is_bc[:, -1] = top_mask

    # theta-advection, upwind by velocity sign
    t_fwd = np.maximum(v, 0.0) / ht
    t_bwd = np.maximum(-v, 0.0) / ht
    t_fwd[:, -1] = 0.0   # no forward neighbour; control never buys here
    t_bwd[:, 0] = 0.0

    # coefficients of V at (i, j) and at its four neighbours, per row;
    # slope rows (V_edge - V_inner)/ht = g are written with +1 diagonal
    free = ~is_bc
    diag = np.where(free, (params.rho - x_diag) + (t_fwd + t_bwd), 1.0 / ht)
    west = np.where(free, -lower, 0.0)
    east = np.where(free, -upper, 0.0)
    south = np.where(free, -t_bwd, 0.0)
    north = np.where(free, -t_fwd, 0.0)
    north[bot_mask, 0] = -1.0 / ht
    south[top_mask, -1] = -1.0 / ht

    def flat(c):
        return np.ravel(c, order="F")

    A = sp.diags([flat(south)[nx:], flat(west)[1:], flat(diag),
                  flat(east)[:-1], flat(north)[:-nx]],
                 [-nx, -1, 0, 1, nx], format="csc")

    def rhs(r):
        # bottom row reads (V[0]-V[1])/ht = -g_bot, top (V[J]-V[J-1])/ht = g_top
        b = r.copy()
        b[bot_mask, 0] = -bc_bot[1][bot_mask]
        b[top_mask, -1] = bc_top[1][top_mask]
        return flat(b)

    return A, rhs, is_bc


def _one_sided_diffs(V, ht):
    """Forward and backward theta-differences with candidate-disabling fill."""
    d = np.diff(V, axis=1) / ht
    inf = np.full((V.shape[0], 1), np.inf)
    # no buy candidate at the top edge, no sell candidate at the bottom
    return np.hstack([d, -inf]), np.hstack([inf, d])


def _nt_initial(params: ModelParams, grid: Grid2D):
    """Closed-form all-no-trade value, the seed on the coarsest level.

    With v = 0 the equation is linear with quadratic source and is solved
    exactly by -(lam/rho) theta^2 - omega/(rho+omega) x theta.
    """
    th = grid.theta_nodes[None, :]
    x = grid.x_nodes[:, None]
    return (-(params.lam / params.rho) * th ** 2
            - params.omega / (params.rho + params.omega) * x * th)


def _bellman_residual(params, costs, grid, V):
    """Max |rho V - r - H - L_x V| over optimality rows, from the final V."""
    bc_bot, bc_top = _edge_slopes(params, costs, grid)
    d_plus, d_minus = _one_sided_diffs(V, grid.htheta)
    v = _hamiltonian(costs, d_plus, d_minus,
                     _velocity_cap(params, costs, grid))
    A, rhs, is_bc = _assemble(params, grid, _x_stencil(params, grid), v,
                              bc_bot, bc_top)
    res = A @ np.ravel(V, order="F") - rhs(_reward(params, costs, grid, v))
    res = np.reshape(res, V.shape, order="F")
    return float(np.max(np.abs(res[~is_bc]))), v


def _reward(params: ModelParams, costs: CostParams, grid: Grid2D, v):
    th = grid.theta_nodes[None, :]
    x = grid.x_nodes[:, None]
    speed = np.abs(v)
    return -nt_rhs(params, x, th) - (costs.gamma_lin * speed
                                     + _nl_cost(costs, speed))


def _rounding_floor(A, b, V):
    """eps * max_row(|A||V| + |b|): how far rounding alone moves the
    solve of A V = b, in the units of its rows."""
    return float(np.finfo(float).eps * np.max(
        abs(A) @ np.abs(np.ravel(V, order="F")) + np.abs(b)))


def _solve_policy(params, costs, grid, cfg, V=None, seed=False):
    """Policy iteration from V, or from the coarse-to-fine seed without
    it; returns (V, iterations, history, the stop test met).  A ``seed``
    level only seeds a finer one, which re-converges, so it stops once its
    policy settles."""
    if V is None and grid.ntheta <= _COARSEST_NTHETA:
        V = _nt_initial(params, grid)
    elif V is None:
        th = grid.theta_nodes
        coarse = Grid2D(grid.x_nodes,
                        np.linspace(th[0], th[-1], (grid.ntheta + 1) // 2))
        V = np.array([np.interp(th, coarse.theta_nodes, row) for row in
                      _solve_policy(params, costs, coarse, cfg,
                                    seed=True)[0]])
    cap = _velocity_cap(params, costs, grid)
    bc_bot, bc_top = _edge_slopes(params, costs, grid)
    xop = _x_stencil(params, grid)
    history = []
    # the policy before the first iteration counts as "trade nowhere"
    # (the no-trade seed's), so a solve that trades runs at least twice
    sign_prev = np.zeros(V.shape, dtype=np.int8)
    for it in range(1, cfg.max_iters + 1):
        d_plus, d_minus = _one_sided_diffs(V, grid.htheta)
        v = _hamiltonian(costs, d_plus, d_minus, cap)
        sign = np.sign(v).astype(np.int8)
        settled = np.array_equal(sign, sign_prev)
        sign_prev = sign
        A, rhs, _ = _assemble(params, grid, xop, v, bc_bot, bc_top)
        # keep the x-fastest order so the factor stays in the band of
        # width nx; a fill-reducing column order (COLAMD) factors slower.
        # No refinement step: it moved V by < 1e-12 relative at ETA_FLOOR
        lu = splu(A, permc_spec="NATURAL")
        b = rhs(_reward(params, costs, grid, v))
        V_old, V = V, np.reshape(lu.solve(b), V.shape, order="F")
        history.append(float(np.max(np.abs(V - V_old))))
        # a small update alone can still flip isolated nodes between
        # trading and quiet (see SolverConfig), so the policy must settle
        if not settled:
            continue
        if seed:
            return V, it, tuple(history), "settled"
        if history[-1] <= cfg.convergence_tol * np.max(np.abs(V)):
            return V, it, tuple(history), "tolerance"
        if history[-1] <= _FLOOR_FACTOR * _rounding_floor(A, b, V):
            return V, it, tuple(history), "floor"
    raise ConvergenceError(
        f"policy iteration on {grid.ntheta} theta nodes did not converge "
        f"in {cfg.max_iters} iterations (last update {history[-1]:.3e})",
        history=history)


def solve_hjb(params: ModelParams, costs: CostParams, grid: Grid2D,
              cfg: SolverConfig | None = None,
              initial: np.ndarray | None = None) -> ValueGrid:
    """Solve the stationary optimality equation on the given grid.

    ``initial`` warm-starts the iteration (shape (nx, ntheta)); the
    default seed is built coarse to fine (see the module docstring).
    Raises ConvergenceError naming the theta node count of the level
    whose budget ran out, and ConfigError for ill-posed setups
    (non-uniform grid, eta below ``ETA_FLOOR``).
    """
    cfg = cfg or SolverConfig()
    if not (grid.x_uniform and grid.theta_uniform):
        raise ConfigError("solver requires uniform grid spacings")
    if costs.kind is CostKind.QUADRATIC:
        if costs.eta < ETA_FLOOR:
            raise ConfigError(
                f"eta={costs.eta:g} below ETA_FLOOR={ETA_FLOOR:g}; "
                "the discrete control is not trustworthy there")
    elif costs.zeta <= 0.0:
        raise ConfigError("three-halves cost needs zeta > 0")

    V = None if initial is None else np.array(initial, dtype=float)
    if V is not None and V.shape != (grid.nx, grid.ntheta):
        raise ConfigError("initial guess shape does not match grid")

    V, iters, hist, stop = _solve_policy(params, costs, grid, cfg, V)
    residual, v = _bellman_residual(params, costs, grid, V)

    empty = np.array([])
    vg = ValueGrid(V=ScalarField(V, grid), v=ScalarField(v, grid),
                   band_plus=empty, band_minus=empty, plus_mask=empty,
                   minus_mask=empty, residual=residual, iterations=iters,
                   history=hist, stopped_by=stop)
    eb = extract_band(vg)
    return replace(vg, band_plus=eb.theta_plus, band_minus=eb.theta_minus,
                   plus_mask=eb.plus_mask, minus_mask=eb.minus_mask)


# --------------------------------------------------------------- extraction

def _longest_quiet_run(below: np.ndarray):
    """Start and end (inclusive) of the longest True run, or None."""
    if not np.any(below):
        return None
    padded = np.concatenate([[False], below, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(int)))
    starts, ends = edges[::2], edges[1::2] - 1
    k = int(np.argmax(ends - starts))
    return int(starts[k]), int(ends[k])


def extract_band(vg: ValueGrid,
                 threshold: float = BAND_THRESHOLD) -> ExtractedBand:
    """Locate the no-trade boundaries from the |v| field.

    The cut level is ``threshold * max|v|`` over the whole grid.  Per x
    node the longest below-level run is taken as the no-trade interval
    and each boundary is placed by linear interpolation between the two
    straddling nodes.  Runs touching a theta edge yield mask False on
    that side.
    """
    if not (0.0 < threshold < 1.0):
        raise ConfigError("threshold must be in (0, 1)")
    grid = vg.grid
    speed = np.abs(vg.v.values)
    vmax = float(np.max(speed))
    if vmax == 0.0:
        # no trading anywhere: the whole domain is quiet, no boundary
        nan = np.full(grid.nx, np.nan)
        false = np.zeros(grid.nx, dtype=bool)
        return ExtractedBand(grid.x_nodes, nan, nan.copy(), false,
                             false.copy(), 0.0, 0.0)
    t_abs = threshold * vmax
    th = grid.theta_nodes
    nx, nt = grid.nx, grid.ntheta
    tp = np.full(nx, np.nan)
    tm = np.full(nx, np.nan)
    pm = np.zeros(nx, dtype=bool)
    mm = np.zeros(nx, dtype=bool)
    for i in range(nx):
        a = speed[i]
        run = _longest_quiet_run(a < t_abs)
        if run is None:
            continue
        j0, j1 = run
        if j1 < nt - 1:
            frac = (t_abs - a[j1]) / (a[j1 + 1] - a[j1])
            tp[i] = th[j1] + frac * (th[j1 + 1] - th[j1])
            pm[i] = True
        if j0 > 0:
            frac = (t_abs - a[j0]) / (a[j0 - 1] - a[j0])
            tm[i] = -(th[j0] - frac * (th[j0] - th[j0 - 1]))
            mm[i] = True
    return ExtractedBand(grid.x_nodes, tp, tm, pm, mm, t_abs, vmax)


def velocity_slice(vg: ValueGrid, x: float) -> VelocitySlice:
    """theta-profile of v at the grid node nearest to x."""
    grid = vg.grid
    if not (grid.x_nodes[0] <= x <= grid.x_nodes[-1]):
        raise DomainError(f"x={x:g} outside the grid")
    i = int(np.argmin(np.abs(grid.x_nodes - x)))
    bp = float(vg.band_plus[i]) if vg.plus_mask.size and vg.plus_mask[i] \
        else math.nan
    bm = float(vg.band_minus[i]) if vg.minus_mask.size and vg.minus_mask[i] \
        else math.nan
    return VelocitySlice(x=float(grid.x_nodes[i]),
                         theta=grid.theta_nodes.copy(),
                         v=vg.v.values[i].copy(),
                         band_plus=bp, band_minus=bm)
