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

The target grid stops on one test, Howard's own: the residual of the
current policy (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47,
2009).  Each iteration assembles the system (A, b) of the policy of the
current V, and V's componentwise backward error against it,
max_k |A u - b|_k / (eps (|A||u| + |b|)_k), is set against the same
error of the previous LU solve's u against the system it factored.  The
level stops once the first is at most ``_FLOOR_RATIO`` times the
second: V then solves its own policy's system as well as the last LU
solve solved its own, so the floor is read from the solve itself and
no absolute tolerance is needed.

A cold solve is seeded coarse to fine: the same problem on half the
theta nodes, interpolated in theta, recursively down to the closed-form
all-no-trade value, so the boundary travels mostly on cheap grids.  A
seeding level stops once it has solved its first settled policy (one
whose buy/hold/sell pattern repeats the previous one): policy iteration
converges from any seed, so the digits a tighter stop would add are
re-done on the finer level anyway.

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
# control is too stiff to trust.  A cold solve at the floor itself
# converges at the desk point (31x751: 24 target iterations, 77
# factorizations in all, V within 1.1e-12 relative of the solve
# warm-started down the ladder from eta 1e-4)
ETA_FLOOR = 1e-8
# velocity cap, as a multiple of the speed scale the grid can call for
VELOCITY_CAP_FACTOR = 10.0
# a cold solve on more theta nodes than this is seeded from the same
# problem on (ntheta + 1) // 2 nodes; on this many or fewer, where a
# factor is cheapest, from the closed-form no-trade value
_COARSEST_NTHETA = 13
# the target grid stops once V's backward error against its own policy's
# system is within this ratio of the last LU solve's against its system.
# On converged iterates the ratio is 1 to the bit where the policy is a
# fixed point (31x751, 31x1501, 121x1501) and 0.97-1.18 on 121x899
# (narrow window, eta 1e-3); one iterate before, it is 7.2 or more
_FLOOR_RATIO = 2.0
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

    ``max_iters`` caps the policy solves (LU factorizations) of every
    level.  The target grid stops on one test, the first check at which
    V's componentwise backward error against its own policy's system is
    at most ``_FLOOR_RATIO`` times that of the previous LU solve against
    the system it factored (see the module docstring).  A seeding level of
    a cold solve stops once it has solved its first settled policy.
    ``ValueGrid.iterations`` and ``history`` count the target grid only.

    ``convergence_tol`` is inert: no solve reads it.  It stays, with its
    ``> 0`` check and its ``solver`` config key, only because the
    benchmark harness writes it; it goes with the benchmark change that
    ROADMAP item 7 lists as waiting.

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
    # max |A u - b| of V against its own policy's system (its kept rows
    # on a folded grid)
    residual: float
    # policy solves on the target grid
    iterations: int
    # V's backward error at each check, the seed's first, for
    # convergence post-mortems
    history: tuple = ()


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


def _reward(params: ModelParams, costs: CostParams, grid: Grid2D, v):
    """Reward at the nodes of v, the grid's first v.shape[1] theta columns."""
    th = grid.theta_nodes[None, :v.shape[1]]
    x = grid.x_nodes[:, None]
    speed = np.abs(v)
    return -nt_rhs(params, x, th) - (costs.gamma_lin * speed
                                     + _nl_cost(costs, speed))


def _backward_error(A, b, u):
    """Componentwise backward error of u as a solve of A u = b,
    max_k |A u - b|_k / (eps (|A||u| + |b|)_k), and max |A u - b|; a row
    whose terms are all zero has error 0."""
    r = np.abs(A @ u - b)
    scale = np.finfo(float).eps * (abs(A) @ np.abs(u) + np.abs(b))
    ratio = np.divide(r, scale, out=np.zeros_like(r), where=scale > 0)
    return float(np.max(ratio)), float(np.max(r))


def _solve_policy(params, costs, grid, cfg, V=None, seed=False):
    """Policy iteration from V, or from the coarse-to-fine seed without
    it; returns (V, iterations, history, residual).  A ``seed`` level only
    seeds a finer one, which re-converges and reads its V alone, so it
    stops once it has solved its first settled policy and takes no
    backward error; any other level stops on the backward-error test of
    the module docstring.

    On a grid point-symmetric about (0, 0) each iteration solves for the
    first ceil(N/2) nodes only and writes node N-1-k as node k: the
    problem's symmetry (drift -omega x, costs in |v|) gives V(x, theta) =
    V(-x, -theta), and the folded system has half the rows at the same
    bandwidth.  The policy, its sign pattern, the reward and the backward
    errors are computed on those kept nodes as well, from the full V,
    which supplies their theta neighbours.  So a warm start from an
    ``initial`` that is not point-symmetric is judged on its kept nodes
    only."""
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
    # the last LU solve's backward error; none yet, so the first check
    # cannot stop
    err_lu = math.nan
    # the policy before the first iteration counts as "trade nowhere"
    # (the no-trade seed's), so a seeding level that trades solves at
    # least twice
    sign_prev = np.zeros(rows, dtype=np.int8)
    for it in range(cfg.max_iters + 1):
        v = _policy(costs, V, cols, grid.htheta, cap)
        A = _assemble(params, grid, xop, v, rows)
        b = np.ravel(_reward(params, costs, grid, v), order="F")[:rows]
        if not seed:
            err, residual = _backward_error(A, b,
                                            np.ravel(V, order="F")[:rows])
            history.append(err)
            if err <= _FLOOR_RATIO * err_lu:
                return V, it, tuple(history), residual
        if it == cfg.max_iters:
            break
        # keep the x-fastest order so the factor stays in the band of
        # width nx; at nx 31 a fill-reducing order factors slower.  No
        # refinement step: it moved V by < 1e-12 relative at ETA_FLOOR.
        # The factor serves one solve and is bound to no name, so it is
        # freed before the next iteration's splu and a solve holds one
        # factor at a time; a factor kept across the next splu fragments
        # the heap, and resident memory then grows by about 4 MB per
        # iteration at nx 31
        u = splu(A, permc_spec="NATURAL", panel_size=_PANEL_SIZE).solve(b)
        V = _unfold(u, V.shape)
        if not seed:
            err_lu = _backward_error(A, b, u)[0]
            continue
        # a seeding level stops once the policy it solved repeats the sign
        # pattern (buy, hold, sell per node) of the one before
        sign = np.sign(np.ravel(v, order="F")[:rows]).astype(np.int8)
        if np.array_equal(sign, sign_prev):
            return V, it + 1, (), math.nan
        sign_prev = sign
    detail = "" if seed else (f" (backward error {err:.3g}, last solve's "
                               f"{err_lu:.3g})")
    raise ConvergenceError(
        f"policy iteration on {grid.ntheta} theta nodes did not converge "
        f"in {cfg.max_iters} iterations{detail}", history=history)


def solve_hjb(params: ModelParams, costs: CostParams, grid: Grid2D,
              cfg: SolverConfig | None = None,
              initial: np.ndarray | None = None) -> ValueGrid:
    """Solve the stationary optimality equation on the given grid.

    ``initial`` warm-starts the iteration (shape (nx, ntheta)); the
    default seed is built coarse to fine (see the module docstring).
    Raises ConvergenceError naming the theta node count of the level
    whose budget ran out, and ConfigError for ill-posed setups (a cost
    coefficient below ``ETA_FLOOR`` at any power, an ``initial`` of the
    wrong shape or with non-finite entries).
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

    V, iters, hist, residual = _solve_policy(params, costs, grid, cfg, V)
    v = _policy(costs, V, grid.ntheta, grid.htheta,
                _velocity_cap(params, costs, grid))
    bp, bm = extract_band(V, grid, costs.gamma_lin)
    return ValueGrid(V=V, v=v, grid=grid, band_plus=bp, band_minus=bm,
                     residual=residual, iterations=iters, history=hist)


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

