"""Numerical substrate: Airy log-derivative, ODE integration, stencil weights.

The boundary-layer profile needs only the Airy logarithmic derivative
Ai'/Ai and the first maximum of Ai; both come from ``scipy.special``.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ai_zeros, airy, airye

from .errors import ConfigError, ConvergenceError

__all__ = [
    "airy_first_max",
    "airy_log_derivative",
    "integrate_ode",
    "fd_weights",
]


# airye returns NaN beyond u ~ 1e6; there the asymptote -sqrt(u) - 1/(4u)
# is exact in double precision (the next term, 5/(32 u^{5/2}), is below
# 2e-19 of it)
_AIRYE_MAX = 1e6


def airy_log_derivative(u):
    """Ai'(u)/Ai(u); scalar or array argument.

    For u > 0 the ratio is taken from the exponentially scaled pair of
    ``airye``, which does not underflow where Ai itself does (u > ~105),
    and from the two-term asymptote beyond u = 1e6; for u <= 0 from the
    plain pair of ``airy``.  Raises ConfigError on a non-finite
    argument or where Ai vanishes.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        bad = u[~np.isfinite(u)][0]
        raise ConfigError(f"airy argument must be finite, got {bad}")
    ai, aip, _, _ = np.where(u > 0.0, airye(np.clip(u, 0.0, _AIRYE_MAX)),
                             airy(np.minimum(u, 0.0)))
    if np.any(ai == 0.0):
        raise ConfigError("Ai vanishes at the argument; log-derivative undefined")
    far = np.maximum(u, _AIRYE_MAX)
    r = np.where(u > _AIRYE_MAX, -np.sqrt(far) - 0.25 / far, aip / ai)
    return float(r) if r.ndim == 0 else r


def airy_first_max() -> float:
    """Location of the first maximum of Ai on the negative axis.

    Largest root of Ai'(u) = 0, approximately -1.0187929716.
    """
    return float(ai_zeros(1)[1][0])


class _Trajectory:
    """Dense ODE solution: sampled values plus an interpolant."""

    def __init__(self, sol):
        self._sol = sol
        self.ts = sol.t
        self.ys = sol.y

    def __call__(self, t):
        return self._sol.sol(t)

    @property
    def end_state(self):
        return self.ys[:, -1]


def integrate_ode(rhs, y0, span, tol=1e-10, t_eval=None, max_step=np.inf,
                  method="DOP853") -> _Trajectory:
    """Adaptive Runge-Kutta integration with dense output.

    Parameters
    ----------
    rhs : callable(t, y) -> dy/dt
    y0 : array_like initial state
    span : (t0, t1); t1 < t0 integrates backward
    tol : local relative error target per step

    Raises
    ------
    ConvergenceError
        on step-size underflow / solver failure, with diagnostics.
    """
    if not (tol > 0):
        raise ConfigError("ode tol must be > 0")
    sol = solve_ivp(rhs, span, np.atleast_1d(np.asarray(y0, dtype=float)),
                    method=method, rtol=tol, atol=tol * 1e-3,
                    dense_output=True, t_eval=t_eval, max_step=max_step)
    if not sol.success:
        raise ConvergenceError(
            f"ODE integration failed on span {span}: {sol.message} "
            f"(stiffness or step-size underflow; try a smaller domain or "
            f"a larger regularization)", history=sol.t)
    return _Trajectory(sol)


def fd_weights(z: float, xs, m: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's algorithm).

    Returns w such that sum(w * f(xs)) approximates the m-th derivative
    of f at z, exact for polynomials of degree len(xs)-1.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if m >= n:
        raise ConfigError(f"need more than {m} nodes for derivative order {m}")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - z
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]
