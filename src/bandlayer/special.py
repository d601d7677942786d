"""Numerical substrate: Airy log-derivative and stencil weights.

The boundary-layer profile needs the Airy logarithmic derivative
Ai'/Ai, taken from ``scipy.special``'s Airy pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import airy, airye

from .errors import ConfigError

__all__ = [
    "airy_log_derivative",
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
