"""Finite-difference solver for the full stationary control problem.

This module is the brute-force oracle: it never calls the Green's-function
band construction or the layer asymptotics.  The discounted optimality
equation

    rho V = mu(x) theta - lam theta^2 + H(V_theta) + L_x V

with H the maximized trading Hamiltonian (linear cost gamma_lin plus a
power-law term coeff |v|^power, any power > 1) is discretized with a
monotone upwind scheme (monotonicity is what makes it converge; Barles &
Souganidis, 1991) and solved by policy iteration, one sparse LU per
policy.  The x-part of the operator does not depend on the policy; it is
built once per grid by ``_x_stencil`` and ``_assemble`` adds the
theta-advection of each policy to it.

Every node carries the optimality equation, the theta edges included:
there the control cannot trade outward (``_slacks`` gives that side a
-inf slack) and the outward theta-advection is dropped, so an edge row is
the one-sided state-constraint row of the monotone scheme, and no
far-field condition from the small-cost theory is imposed.

A cold solve is seeded coarse to fine: the same problem on half the
theta nodes, interpolated in theta, recursively down to the closed-form
all-no-trade value, so the boundary travels mostly on cheap grids.  A
seeding level stops at its first settled policy: policy iteration
converges from any seed (Bokanowski, Maroso & Zidani, SIAM J. Numer.
Anal. 47, 2009), so the digits a tighter stop would add are re-done on
the finer level anyway.

Grid layout note: fields are (nx, ntheta) arrays; the sparse system is
ordered x-fastest (k = i + j*nx) so the matrix bandwidth is nx.  The
problem is point-symmetric about (0, 0): the drift -omega x is odd and
the cost depends on |v| alone, so V(-x, -theta) = V(x, theta).  On a
grid that is itself point-symmetric about (0, 0) (each axis its own
negated reverse, to a few ulps) the mirror of node k is N-1-k, and each
policy system is folded onto its first ceil(N/2) rows; see
:func:`_assemble`.  Any other grid keeps all N rows.  Every policy system
is factored at one site, in :func:`_solve_policy`, in this order: the LU
stays in the band, cheap even for very fine theta grids.  Its fill grows
as nx^2 per theta line, so on wide x grids (nx >= 121) a fill-reducing
order would factor faster.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigError, ConvergenceError
from .model import CostParams, Grid2D, ModelParams, drift, nt_rhs

__all__ = [
    "SolverConfig",
    "ValueGrid",
    "solve_hjb",
    "extract_band",
]


# smallest cost coefficient accepted at any power: below it the discrete
# control is too stiff to trust.  A cold solve at the floor itself fails
# at the desk point (31x751: Bellman residual 3.3e-5 against a rounding
# floor of 1.5e-11); warm-started from eta 1e-7 it converges
ETA_FLOOR = 1e-8
# velocity cap, as a multiple of the speed scale the grid can call for
VELOCITY_CAP_FACTOR = 10.0
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
# a floor stop is refused when the final Bellman residual exceeds this
# many times its own rounding floor: floor stops of converged solves end
# at 0.78-1.0 of it at nx 31 and at up to 9.3 at nx 241, while a warm
# start that oscillates into a floor stop was measured at 6.8e4
_FLOOR_RESIDUAL_FACTOR = 100.0
# an axis is mirror-symmetric when it equals its negated reverse within
# this many ulps of its largest |node|; np.linspace(-a, a, n) misses by
# up to 2 ulps of a
_MIRROR_ULPS = 4
# columns per SuperLU panel of every policy factor.  SuperLU's default
# of 10 is sized for wide supernodes; on these bands (about 21 fill
# entries per row at nx 31) the panel bookkeeping costs more than the
# arithmetic: the 55 factors of a cold 31x1501 solve take 447 ms at 10,
# and 355, 344 and 360 ms at 1, 2 and 4 (one thread of a 2-vCPU Xeon)
_PANEL_SIZE = 2


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
    ``max_iters``.  A small update does not by itself bound the Bellman
    residual, so a floor stop whose final residual exceeds
    ``_FLOOR_RESIDUAL_FACTOR`` times its own rounding floor raises
    instead (see :func:`solve_hjb`).  ``ValueGrid.stopped_by`` says
    which test stopped.

    A cold solve runs policy iteration on every coarse seeding level as
    well.  ``convergence_tol`` applies on the target grid only: a seeding
    level stops at the first iteration whose sign pattern repeats the
    previous one.  ``max_iters`` caps every level, while
    ``ValueGrid.iterations`` and ``history`` count the target grid only.

    The coefficient floor and the velocity cap are not settable; they are
    the module constants ``ETA_FLOOR`` and ``VELOCITY_CAP_FACTOR``.  Neither
    is the sparse factor's panel width, ``_PANEL_SIZE``, which was set by
    timing.  The band is read at the trading onset (:func:`extract_band`),
    which has no parameter.
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
    """Solved value function ``V`` and optimal velocity ``v`` on ``grid``,
    each an (nx, ntheta) array indexed [x node, theta node], with the
    no-trade interval [-band_minus, band_plus] per x node that
    :func:`extract_band` reads from V (NaN on a side it does not find)."""

    V: np.ndarray
    v: np.ndarray
    grid: Grid2D
    band_plus: np.ndarray
    band_minus: np.ndarray
    residual: float
    iterations: int
    # per-iteration max value update, for convergence post-mortems
    history: tuple = ()
    # the stop test the target grid met: "tolerance" or "floor"
    stopped_by: str = "tolerance"


# ------------------------------------------------------------------ control

def _hamiltonian(costs: CostParams, buy, sell, cap):
    """Argmax velocity of the monotone numerical Hamiltonian at the node
    slacks of :func:`_slacks`.

    Buying (v > 0) is priced against the forward difference, selling
    against the backward one, so the resulting advection is upwind by
    construction; a slack <= 0 (the edge fills included) trades nothing.
    """
    s_buy = np.maximum(buy, 0.0)
    s_sell = np.maximum(sell, 0.0)
    v_buy = np.minimum(_speed(costs, s_buy), cap)
    v_sell = np.minimum(_speed(costs, s_sell), cap)
    h_buy = v_buy * s_buy - _nl_cost(costs, v_buy)
    h_sell = v_sell * s_sell - _nl_cost(costs, v_sell)
    return np.where(h_sell > h_buy, -v_sell, v_buy)


def _speed(costs: CostParams, slack):
    """Speed v >= 0 maximizing v * slack - coeff * v^power, slack >= 0."""
    a = costs.power
    return (slack / (a * costs.coeff)) ** (1.0 / (a - 1.0))


def _nl_cost(costs: CostParams, speed):
    """Nonlinear cost rate coeff * speed^power at a speed >= 0."""
    return costs.coeff * speed ** costs.power


def _velocity_cap(params: ModelParams, costs: CostParams,
                  grid: Grid2D) -> float:
    """``VELOCITY_CAP_FACTOR`` times the speed at the reward's largest
    theta-slope, at least 1, plus sqrt(lam / coeff) * span at power 2 only:
    the cap binds on coarse seeding levels, so it sets their seeds."""
    span = float(grid.theta_nodes[-1] - grid.theta_nodes[0])
    mu_max = params.omega * max(abs(float(grid.x_nodes[0])),
                                abs(float(grid.x_nodes[-1])))
    slope = params.lam * span ** 2 + mu_max * span + costs.gamma_lin
    far = math.sqrt(params.lam / costs.coeff) * span \
        if costs.power == 2.0 else 0.0
    return VELOCITY_CAP_FACTOR * max(_speed(costs, slope) + far, 1.0)


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


def _fold_rows(grid: Grid2D) -> int:
    """Rows of the policy system: ceil(N/2) on a grid point-symmetric
    about (0, 0), all N = nx * ntheta on any other."""
    size = grid.nx * grid.ntheta
    for nodes in (grid.x_nodes, grid.theta_nodes):
        tol = _MIRROR_ULPS * np.finfo(float).eps * np.max(np.abs(nodes))
        if np.max(np.abs(nodes + nodes[::-1])) > tol:
            return size
    return (size + 1) // 2


def _assemble(params: ModelParams, grid: Grid2D, xop, v, rows=None):
    """Sparse operator rho I - v d/dtheta - L_x with upwind advection.

    ``xop`` is the :func:`_x_stencil` of the grid, and ``v`` the velocity
    on the grid's first theta columns, at least those of the kept rows.
    Unknowns are ordered x-fastest (k = i + j*nx), so the matrix has five
    diagonals, at offsets 0, +-1 (x) and +-nx (theta).  Every row is the
    optimality equation (theta edges: see the module docstring).

    ``rows`` = n keeps rows 0..n-1 (all N by default) and reads each
    column l >= n as column N-1-l, the mirror of node l (:func:`_fold_rows`
    says when that holds).  Those "wrap" entries are the east neighbour
    of row n-1 and the north neighbours of the last nx rows.  The folded
    matrix keeps the band of width nx and every row sum, so it stays an
    M-matrix.  With N even, one node next to the centre has its own
    mirror as a neighbour: the north one of (0, -htheta/2) when ntheta
    is even, the east one of (-hx/2, 0) when nx is; that entry adds onto
    its diagonal.
    """
    nx, nt = grid.nx, grid.ntheta
    size = nx * nt
    n = size if rows is None else rows
    ht = grid.htheta
    # per-row arrays of the kept rows; row k sits at x node k % nx
    lower, x_diag, upper = (np.tile(c, nt)[:n] for c in xop)

    # theta-advection, upwind by velocity sign
    vk = np.ravel(v, order="F")[:n]
    t_fwd = np.maximum(vk, 0.0) / ht
    t_bwd = np.maximum(-vk, 0.0) / ht
    t_fwd[size - nx:] = 0.0   # no forward neighbour; control never buys here
    t_bwd[:nx] = 0.0

    # coefficients of V at (i, j) and at its four neighbours, per row
    diag = (params.rho - x_diag) + (t_fwd + t_bwd)
    return _folded_csc(size, nx, -t_bwd, -lower, diag, -upper, -t_fwd)


def _folded_csc(size, nx, south, west, diag, east, north):
    """CSC matrix of the n = diag.size kept rows of the size-N system.

    Row k has coefficients at columns k-nx, k-1, k, k+1 and k+nx; a
    column l >= n is read as its mirror N-1-l.  The CSR arrays of the
    transpose, which ``sp.diags`` builds directly, are the CSC arrays of
    the matrix.  The mirrored ("wrap") entries all lie in the last nx+1
    columns, at the tail of those arrays; that tail is rebuilt from a
    dense block with them added, so no sparse sum is formed.
    """
    n = diag.size
    T = sp.diags([north[:n - nx], east[:-1], diag, west[1:], south[nx:]],
                 [-nx, -1, 0, 1, nx], shape=(n, n), format="csr")
    data, indices, indptr = T.data, T.indices, T.indptr
    c0 = max(n - nx - 1, 0)
    r0 = max(c0 - nx, 0)
    head = indptr[c0]
    block = np.zeros((n - c0, n - r0))   # [column - c0, row - r0]
    block[np.repeat(np.arange(n - c0), np.diff(indptr[c0:])),
          indices[head:] - r0] = data[head:]
    # the wrap entries described in _assemble; none exist when n = N
    row = np.append(np.arange(n - nx, n), n - 1)
    col = np.append(row[:-1] + nx, n)
    wrap = col < size
    np.add.at(block, (size - 1 - col[wrap] - c0, row[wrap] - r0),
              np.append(north[n - nx:], east[-1])[wrap])
    cols, rows = np.nonzero(block)
    counts = np.cumsum(np.bincount(cols, minlength=n - c0))
    return sp.csc_matrix(
        (np.concatenate([data[:head], block[cols, rows]]),
         np.concatenate([indices[:head], (rows + r0).astype(indices.dtype)]),
         np.concatenate([indptr[:c0 + 1],
                         (head + counts).astype(indptr.dtype)])),
        shape=(n, n))


def _unfold(u, shape):
    """The (nx, ntheta) field whose first u.size nodes are u and whose
    node l beyond them is node N-1-l (all of u on an unfolded system)."""
    size = shape[0] * shape[1]
    return np.reshape(np.concatenate([u, u[:size - u.size][::-1]]), shape,
                      order="F")


def _slacks(V, ht, gamma_lin):
    """Buy and sell slack of every node of V: d - gamma_lin over the cell
    above it and -d - gamma_lin over the cell below, d = (V_{j+1} - V_j) /
    ht; -inf where the theta edge leaves no such cell."""
    d = np.diff(V, axis=1) / ht
    edge = np.full((V.shape[0], 1), -np.inf)
    return np.hstack([d - gamma_lin, edge]), np.hstack([edge, -d - gamma_lin])


def _policy(costs: CostParams, V, cols, ht, cap):
    """Velocity on the first ``cols`` theta columns of the field V; the
    column after them supplies the forward differences."""
    buy, sell = _slacks(V[:, :cols + 1], ht, costs.gamma_lin)
    return _hamiltonian(costs, buy[:, :cols], sell[:, :cols], cap)


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
    """Max |rho V - r - H - L_x V| over every node, from the final V, its
    rounding floor eps * max_row(|A||V| + |b|) and the policy."""
    v = _policy(costs, V, grid.ntheta, grid.htheta,
                _velocity_cap(params, costs, grid))
    A = _assemble(params, grid, _x_stencil(params, grid), v)
    u = np.ravel(V, order="F")
    b = np.ravel(_reward(params, costs, grid, v), order="F")
    return float(np.max(np.abs(A @ u - b))), _rounding_floor(A, b, u), v


def _reward(params: ModelParams, costs: CostParams, grid: Grid2D, v):
    """Reward at the nodes of v, the grid's first v.shape[1] theta columns."""
    th = grid.theta_nodes[None, :v.shape[1]]
    x = grid.x_nodes[:, None]
    speed = np.abs(v)
    return -nt_rhs(params, x, th) - (costs.gamma_lin * speed
                                     + _nl_cost(costs, speed))


def _rounding_floor(A, b, u):
    """eps * max_row(|A||u| + |b|): how far rounding alone moves the
    solve u of A u = b, in the units of its rows."""
    return float(np.finfo(float).eps * np.max(abs(A) @ np.abs(u)
                                              + np.abs(b)))


def _solve_policy(params, costs, grid, cfg, V=None, seed=False):
    """Policy iteration from V, or from the coarse-to-fine seed without
    it; returns (V, iterations, history, the stop test met).  A ``seed``
    level only seeds a finer one, which re-converges, so it stops once its
    policy settles.

    On a grid point-symmetric about (0, 0) each iteration solves for the
    first ceil(N/2) nodes only and writes node N-1-k as node k: the
    problem's symmetry (drift -omega x, costs in |v|) gives V(x, theta) =
    V(-x, -theta), and the folded system has half the rows at the same
    bandwidth.  The policy, its sign pattern and the reward are computed
    on those kept nodes as well, from the full V, which supplies their
    theta neighbours; the update test reads the full V.  So a warm start
    from an ``initial`` that is not point-symmetric is judged on its kept
    nodes only, and may settle, and stop, one iteration earlier than a
    comparison over the whole grid would let it."""
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
    xop = _x_stencil(params, grid)
    rows = _fold_rows(grid)
    # the theta columns holding the kept nodes: the policy and the reward
    # are computed on them, and the system reads their first `rows` nodes
    cols = -(-rows // grid.nx)
    history = []
    # the policy before the first iteration counts as "trade nowhere"
    # (the no-trade seed's), so a solve that trades runs at least twice
    sign_prev = np.zeros(rows, dtype=np.int8)
    for it in range(1, cfg.max_iters + 1):
        v = _policy(costs, V, cols, grid.htheta, cap)
        sign = np.sign(np.ravel(v, order="F")[:rows]).astype(np.int8)
        settled = np.array_equal(sign, sign_prev)
        sign_prev = sign
        A = _assemble(params, grid, xop, v, rows)
        b = np.ravel(_reward(params, costs, grid, v), order="F")[:rows]
        # keep the x-fastest order so the factor stays in the band of
        # width nx; at nx 31 a fill-reducing order factors slower.  No
        # refinement step: it moved V by < 1e-12 relative at ETA_FLOOR.
        # The factor serves one solve and is bound to no name, so it is
        # freed before the next iteration's splu and a solve holds one
        # factor at a time; a factor kept across the next splu fragments
        # the heap, and resident memory then grows by about 4 MB per
        # iteration at nx 31
        u = splu(A, permc_spec="NATURAL", panel_size=_PANEL_SIZE).solve(b)
        V_old, V = V, _unfold(u, V.shape)
        history.append(float(np.max(np.abs(V - V_old))))
        # a small update alone can still flip isolated nodes between
        # trading and quiet (see SolverConfig), so the policy must settle
        if not settled:
            continue
        if seed:
            return V, it, tuple(history), "settled"
        if history[-1] <= cfg.convergence_tol * np.max(np.abs(V)):
            return V, it, tuple(history), "tolerance"
        if history[-1] <= _FLOOR_FACTOR * _rounding_floor(A, b, u):
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
    whose budget ran out, or of a floor stop whose final Bellman residual
    exceeds ``_FLOOR_RESIDUAL_FACTOR`` times its rounding floor (the
    updates shrank without settling the solve), and ConfigError for
    ill-posed setups (a cost coefficient below ``ETA_FLOOR`` at any power,
    an ``initial`` of the wrong shape or with non-finite entries).
    """
    cfg = cfg or SolverConfig()
    if not costs.coeff >= ETA_FLOOR:
        raise ConfigError(
            f"cost coefficient {costs.coeff:g} below ETA_FLOOR="
            f"{ETA_FLOOR:g}; the discrete control is not trustworthy there")

    V = None if initial is None else np.array(initial, dtype=float)
    if V is not None:
        if V.shape != (grid.nx, grid.ntheta):
            raise ConfigError("initial guess shape does not match grid")
        bad = V.size - np.count_nonzero(np.isfinite(V))
        if bad:
            raise ConfigError(f"initial guess has {bad} non-finite entries")

    V, iters, hist, stop = _solve_policy(params, costs, grid, cfg, V)
    residual, floor, v = _bellman_residual(params, costs, grid, V)
    if stop == "floor" and residual > _FLOOR_RESIDUAL_FACTOR * floor:
        raise ConvergenceError(
            f"policy iteration on {grid.ntheta} theta nodes stopped on the "
            f"rounding floor {floor:.3e} with Bellman residual "
            f"{residual:.3e}, more than {_FLOOR_RESIDUAL_FACTOR:g} times it",
            history=hist)

    bp, bm = extract_band(V, grid, costs.gamma_lin)
    return ValueGrid(V=V, v=v, grid=grid, band_plus=bp, band_minus=bm,
                     residual=residual, iterations=iters, history=hist,
                     stopped_by=stop)


# --------------------------------------------------------------- extraction

def _longest_quiet_run(quiet: np.ndarray):
    """Start and end (inclusive) of the longest True run, or None."""
    if not np.any(quiet):
        return None
    padded = np.concatenate([[False], quiet, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(int)))
    starts, ends = edges[::2], edges[1::2] - 1
    k = int(np.argmax(ends - starts))
    return int(starts[k]), int(ends[k])


def extract_band(V: np.ndarray, grid: Grid2D, gamma_lin: float):
    """No-trade boundaries at the trading onset of the value field V, an
    (nx, ntheta) array on ``grid``.

    The node slacks are :func:`_slacks`', the ones the policy reads: a
    node whose buy and sell slacks are both <= 0 is quiet, which is where
    the Hamiltonian's speed v is 0.  Per x node the longest quiet run is
    the no-trade interval.  Its upper boundary is where the sell slack
    crosses zero, interpolated linearly between the run's last quiet
    node and the first trading one, each slack placed at the midpoint of
    the cell it differences; the lower boundary likewise from the buy
    slack.  A run touching a theta edge, or a side whose slack does not
    change sign there, gives NaN on that side.

    Returns (band_plus, band_minus), per x node: the no-trade interval is
    [-band_minus, band_plus].
    """
    ht = grid.htheta
    buy, sell = _slacks(V, ht, gamma_lin)
    quiet = (buy <= 0.0) & (sell <= 0.0)
    mid = 0.5 * (grid.theta_nodes[:-1] + grid.theta_nodes[1:])
    nx, nt = grid.nx, grid.ntheta
    tp = np.full(nx, np.nan)
    tm = np.full(nx, np.nan)
    for i in range(nx):
        run = _longest_quiet_run(quiet[i])
        if run is None:
            continue
        j0, j1 = run
        if 0 < j1 < nt - 1:
            tp[i] = _onset(mid[j1 - 1], sell[i, j1], sell[i, j1 + 1], ht)
        if 0 < j0 < nt - 1:
            tm[i] = -_onset(mid[j0], buy[i, j0], buy[i, j0 - 1], -ht)
    return tp, tm


def _onset(m, quiet, trading, step):
    """Zero of the slack that is quiet (<= 0) at the midpoint m and
    trading one cell ``step`` further on; NaN unless trading > 0."""
    if not trading > 0.0:
        return math.nan
    return m + step * quiet / (quiet - trading)

