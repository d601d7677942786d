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
built once per solve by ``_x_stencil`` and ``_assemble`` adds the
theta-advection of each policy to it.

Grid layout note: fields are (nx, ntheta) arrays; the sparse system is
ordered x-fastest so the matrix bandwidth is nx, which keeps the LU
factor banded and cheap even for very fine theta grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, ConvergenceError, DomainError
from .model import (CostKind, CostParams, Grid2D, ModelParams, ScalarField,
                    drift, markowitz_position, nt_rhs,
                    small_cost_half_width)
from .special import fd_weights

__all__ = [
    "SolverConfig",
    "ValueGrid",
    "ExtractedBand",
    "VelocitySlice",
    "ContinuityReport",
    "solve_hjb",
    "extract_band",
    "velocity_slice",
    "c2_continuity_check",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for :func:`solve_hjb`.

    ``eta_floor`` is the smallest quadratic coefficient the solver
    accepts; below it the discrete control is too stiff to trust.

    ``convergence_tol`` is relative to the value scale, with no floor:
    policy iteration stops once max|Delta V| <= convergence_tol * max|V|
    *and* the policy's sign pattern (buy, hold, sell per node) is the
    same as in the previous iteration.  The update bound alone does not
    settle the policy, because the control reads V through one-sided
    differences and an update delta moves a slope by delta / htheta.
    """

    max_iters: int = 400
    convergence_tol: float = 1e-9
    eta_floor: float = 1e-8
    velocity_cap_factor: float = 10.0
    band_threshold: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not (self.convergence_tol > 0):
            raise ConfigError("convergence_tol must be > 0")
        if not (self.eta_floor > 0):
            raise ConfigError("eta_floor must be > 0")
        if not (self.velocity_cap_factor > 0):
            raise ConfigError("velocity_cap_factor must be > 0")
        if not (0.0 < self.band_threshold < 1.0):
            raise ConfigError("band_threshold must be in (0, 1)")


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
    eta: float
    # per-iteration max value update, for convergence post-mortems
    history: tuple = ()

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

    def width(self):
        return self.theta_plus + self.theta_minus


@dataclass(frozen=True)
class VelocitySlice:
    """theta-profile of the optimal velocity at one x node."""

    x: float
    theta: np.ndarray
    v: np.ndarray
    band_plus: float
    band_minus: float


@dataclass(frozen=True)
class ContinuityReport:
    """Two-grid refinement study of derivative jumps across the boundary."""

    x_nodes: np.ndarray
    jump1_coarse: np.ndarray
    jump1_fine: np.ndarray
    jump2_coarse: np.ndarray
    jump2_fine: np.ndarray
    first_order: float
    second_order: float
    collinear_flags: np.ndarray
    passed: bool


# ------------------------------------------------------------------ control

def _hamiltonian(costs: CostParams, d_plus, d_minus, cap):
    """Monotone numerical Hamiltonian and its argmax velocity.

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
    h_buy = _run_gain(costs, v_buy, s_buy)
    h_sell = _run_gain(costs, v_sell, s_sell)
    take_sell = h_sell > h_buy
    v = np.where(take_sell, -v_sell, v_buy)
    h = np.where(take_sell, h_sell, h_buy)
    return h, v


def _run_gain(costs: CostParams, speed, slack):
    """speed * slack minus the nonlinear cost, for speed >= 0."""
    if costs.kind is CostKind.QUADRATIC:
        return speed * slack - costs.eta * speed ** 2
    return speed * slack - costs.zeta * speed ** 1.5


def _velocity_cap(params: ModelParams, costs: CostParams, grid: Grid2D,
                  factor: float) -> float:
    span = float(grid.theta_nodes[-1] - grid.theta_nodes[0])
    mu_max = params.omega * max(abs(float(grid.x_nodes[0])),
                                abs(float(grid.x_nodes[-1])))
    slope = params.lam * span ** 2 + mu_max * span + costs.gamma_lin
    if costs.kind is CostKind.QUADRATIC:
        base = slope / (2.0 * costs.eta) + math.sqrt(params.lam / costs.eta) * span
    else:
        base = (2.0 * slope / (3.0 * costs.zeta)) ** 2
    return factor * max(base, 1.0)


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
    out = {}
    for side, theta_e in (("bot", float(grid.theta_nodes[0])),
                          ("top", float(grid.theta_nodes[-1]))):
        rad = params.lam * (theta_e - star) ** 2 - params.lam * w_est ** 2
        usable = rad > 0.0
        rad = np.where(usable, rad, 0.0)
        if costs.kind is CostKind.QUADRATIC:
            extra = 2.0 * np.sqrt(costs.eta * rad)
        else:
            extra = (27.0 / 4.0) ** (1.0 / 3.0) * costs.zeta ** (2.0 / 3.0) \
                * rad ** (1.0 / 3.0)
        sign = -1.0 if side == "top" else 1.0
        out[side] = (usable, sign * (costs.gamma_lin + extra))
    return out["bot"], out["top"]


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
    d_plus = np.empty_like(V)
    d_minus = np.empty_like(V)
    d_plus[:, :-1] = (V[:, 1:] - V[:, :-1]) / ht
    d_plus[:, -1] = -np.inf   # no buy candidate at the top edge
    d_minus[:, 1:] = (V[:, 1:] - V[:, :-1]) / ht
    d_minus[:, 0] = np.inf    # no sell candidate at the bottom edge
    return d_plus, d_minus


def _nt_initial(params: ModelParams, grid: Grid2D):
    """Closed-form all-no-trade value, the policy-iteration seed.

    With v = 0 the equation is linear with quadratic source and is solved
    exactly by -(lam/rho) theta^2 - omega/(rho+omega) x theta.
    """
    th = grid.theta_nodes[None, :]
    x = grid.x_nodes[:, None]
    return (-(params.lam / params.rho) * th ** 2
            - params.omega / (params.rho + params.omega) * x * th)


def _bellman_residual(params, costs, grid, xop, V, cap, bc_bot, bc_top):
    """Max |rho V - r - H - L_x V| over optimality rows, from the final V."""
    d_plus, d_minus = _one_sided_diffs(V, grid.htheta)
    _, v = _hamiltonian(costs, d_plus, d_minus, cap)
    A, rhs, is_bc = _assemble(params, grid, xop, v, bc_bot, bc_top)
    res = A @ np.ravel(V, order="F") - rhs(_reward(params, costs, grid, v))
    res = np.reshape(res, V.shape, order="F")
    return float(np.max(np.abs(res[~is_bc]))), v


def _reward(params: ModelParams, costs: CostParams, grid: Grid2D, v):
    th = grid.theta_nodes[None, :]
    x = grid.x_nodes[:, None]
    run = -nt_rhs(params, x, th)
    if costs.kind is CostKind.QUADRATIC:
        cost = costs.gamma_lin * np.abs(v) + costs.eta * v ** 2
    else:
        cost = costs.gamma_lin * np.abs(v) + costs.zeta * np.abs(v) ** 1.5
    return run - cost


def _solve_policy(params, costs, grid, cfg, V):
    cap = _velocity_cap(params, costs, grid, cfg.velocity_cap_factor)
    bc_bot, bc_top = _edge_slopes(params, costs, grid)
    xop = _x_stencil(params, grid)
    history = []
    # the cold seed is the all-no-trade value, so the policy before the
    # first iteration is "trade nowhere"
    sign_prev = np.zeros(V.shape, dtype=np.int8)
    for it in range(1, cfg.max_iters + 1):
        d_plus, d_minus = _one_sided_diffs(V, grid.htheta)
        _, v = _hamiltonian(costs, d_plus, d_minus, cap)
        sign = np.sign(v).astype(np.int8)
        settled = np.array_equal(sign, sign_prev)
        sign_prev = sign
        A, rhs, _ = _assemble(params, grid, xop, v, bc_bot, bc_top)
        b = rhs(_reward(params, costs, grid, v))
        # keep the x-fastest order so the factor stays in the band of
        # width nx; a fill-reducing column order (COLAMD) factors slower
        lu = splu(A, permc_spec="NATURAL")
        flat = lu.solve(b)
        # one step of iterative refinement; the advection rows are stiff at
        # small eta and plain LU roundoff is enough to rattle the boundary
        flat += lu.solve(b - A @ flat)
        V_new = np.reshape(flat, V.shape, order="F")
        delta = float(np.max(np.abs(V_new - V)))
        history.append(delta)
        V = V_new
        # a small update alone can still flip isolated nodes between
        # trading and quiet (see SolverConfig), so the policy must settle
        if settled and delta <= cfg.convergence_tol * float(np.max(np.abs(V))):
            residual, v = _bellman_residual(params, costs, grid, xop, V, cap,
                                            bc_bot, bc_top)
            return V, v, residual, it, tuple(history)
    raise ConvergenceError(
        f"policy iteration did not converge in {cfg.max_iters} iterations "
        f"(last update {history[-1]:.3e})", history=history)


def solve_hjb(params: ModelParams, costs: CostParams, grid: Grid2D,
              cfg: SolverConfig | None = None,
              initial: np.ndarray | None = None) -> ValueGrid:
    """Solve the stationary optimality equation on the given grid.

    ``initial`` warm-starts the iteration (shape (nx, ntheta)); the
    default seed is the closed-form all-no-trade value.  Raises
    ConvergenceError when the iteration budget runs out and ConfigError
    for ill-posed setups (non-uniform grid, eta below the floor).
    """
    cfg = cfg or SolverConfig()
    if not (grid.x_uniform and grid.theta_uniform):
        raise ConfigError("solver requires uniform grid spacings")
    if costs.kind is CostKind.QUADRATIC:
        if costs.eta < cfg.eta_floor:
            raise ConfigError(
                f"eta={costs.eta:g} below eta_floor={cfg.eta_floor:g}; "
                "the discrete control is not trustworthy there")
    elif costs.zeta <= 0.0:
        raise ConfigError("three-halves cost needs zeta > 0")

    if initial is not None:
        V = np.array(initial, dtype=float)
        if V.shape != (grid.nx, grid.ntheta):
            raise ConfigError("initial guess shape does not match grid")
    else:
        V = _nt_initial(params, grid)

    V, v, residual, iters, hist = _solve_policy(params, costs, grid, cfg, V)

    vg = ValueGrid(V=ScalarField(V, grid), v=ScalarField(v, grid),
                   band_plus=np.array([]), band_minus=np.array([]),
                   plus_mask=np.array([], dtype=bool),
                   minus_mask=np.array([], dtype=bool),
                   residual=residual, iterations=iters,
                   eta=costs.eta if costs.kind is CostKind.QUADRATIC else 0.0)
    eb = extract_band(vg, cfg.band_threshold)
    return ValueGrid(V=vg.V, v=vg.v,
                     band_plus=eb.theta_plus, band_minus=eb.theta_minus,
                     plus_mask=eb.plus_mask, minus_mask=eb.minus_mask,
                     residual=residual, iterations=iters, eta=vg.eta,
                     history=hist)


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


def extract_band(vg: ValueGrid, threshold: float = 1e-4) -> ExtractedBand:
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


# ---------------------------------------------------------------- continuity

def _boundary_jumps(vg: ValueGrid, stencil: int = 4):
    """One-sided extrapolated V_theta and V_thetatheta jumps at the upper
    boundary, per x node (NaN where the boundary is missing or too close
    to a theta edge for the stencils)."""
    grid = vg.grid
    V = vg.V.values
    th = grid.theta_nodes
    nx = grid.nx
    j1 = np.full(nx, np.nan)
    j2 = np.full(nx, np.nan)
    for i in range(nx):
        if not vg.plus_mask[i]:
            continue
        tb = vg.band_plus[i]
        jb = int(np.searchsorted(th, tb))
        if jb - stencil < 0 or jb + 1 + stencil > th.size:
            continue
        inside = slice(jb - stencil, jb)
        outside = slice(jb + 1, jb + 1 + stencil)
        d1_in = float(fd_weights(tb, th[inside], 1) @ V[i, inside])
        d1_out = float(fd_weights(tb, th[outside], 1) @ V[i, outside])
        d2_in = float(fd_weights(tb, th[inside], 2) @ V[i, inside])
        d2_out = float(fd_weights(tb, th[outside], 2) @ V[i, outside])
        j1[i] = abs(d1_out - d1_in)
        j2[i] = abs(d2_out - d2_in)
    return j1, j2


def c2_continuity_check(coarse: ValueGrid, fine: ValueGrid) -> ContinuityReport:
    """Grid-refinement study of smoothness across the no-trade boundary.

    ``fine`` must be the same problem re-solved with the theta spacing
    halved, on either the same x nodes or x nodes that halve the coarse
    ones (nx -> 2 nx - 1); jumps are compared at the shared x nodes.
    Extrapolates first and second theta derivatives to the extracted
    boundary from both sides on each grid; the decay rate of the jumps
    under refinement is the smoothness order.  Passes when the
    second-derivative jump decays at order >= 1 and the first-derivative
    jump at order >= 2 (or no boundary exists at all).

    Refine x as well to see the jumps vanish.  The x-stencil reads
    V(x +- hx, theta), and there the oblique boundary has moved by
    |m| hx (m the Markowitz slope), which can exceed the boundary region.
    Under theta-only refinement the jumps therefore converge to this
    hx-limited jump, not to zero, and the measured orders tend to 0.
    """
    gc, gf = coarse.grid, fine.grid
    if gf.nx == gc.nx:
        stride = 1
    elif gf.nx == 2 * gc.nx - 1:
        stride = 2
    else:
        raise ConfigError("fine grid must keep or halve the x spacing")
    if not np.allclose(gc.x_nodes, gf.x_nodes[::stride]):
        raise ConfigError("fine x nodes must contain the coarse ones")
    if not math.isclose(gf.htheta, 0.5 * gc.htheta, rel_tol=0.02):
        raise ConfigError("fine grid must halve the theta spacing")

    j1c, j2c = _boundary_jumps(coarse)
    j1f, j2f = (j[::stride] for j in _boundary_jumps(fine))
    valid = np.isfinite(j1c) & np.isfinite(j1f) & (j1f > 0) & (j2f > 0)

    if not np.any(valid):
        # degenerate all-quiet case: nothing to jump across
        zeros = np.zeros(gc.nx)
        return ContinuityReport(gc.x_nodes, zeros, zeros.copy(),
                                zeros.copy(), zeros.copy(),
                                math.nan, math.nan,
                                np.zeros(gc.nx, dtype=bool), True)

    # boundary slope in x, to flag nodes where it is nearly flat
    # (the smoothness argument degrades where the boundary runs along x)
    slope = np.gradient(coarse.band_plus, gc.x_nodes)
    ref = np.nanmedian(np.abs(slope[valid])) if np.any(valid) else 0.0
    collinear = np.abs(slope) < 0.1 * ref
    use = valid & ~collinear
    if not np.any(use):
        use = valid

    p1 = float(np.nanmedian(np.log2(j1c[use] / j1f[use])))
    p2 = float(np.nanmedian(np.log2(j2c[use] / j2f[use])))
    return ContinuityReport(gc.x_nodes, j1c, j1f, j2c, j2f, p1, p2,
                            collinear, bool(p2 >= 1.0 and p1 >= 2.0))
