"""Quantitative studies built on the two independent solvers.

The module answers four questions about the model:

* how the no-trade boundary moves as the quadratic speed cost grows
  (``eta_shift_sweep``),
* how the band width scales with the linear cost (``gamma_width_sweep``),
* how the trading-speed curve splits into no-trade / layer / square-root /
  linear zones (``regime_map``), and
* whether a desk's cost numbers sit inside the domain where the expansion
  is trustworthy at all (``validity_report``, judged by the one validity
  gauge, ``validity_gauge``, which also bounds the shift sweep).

Measurement conventions
-----------------------
Both dynamic-programming studies default to one grid rule,
``_study_grid``, and read the solve at the x node nearest x (an x off the
grid is a DomainError).  Every boundary is read at the trading onset,
where a one-sided slack of the value function crosses zero
(``hjb.extract_band``).  The shift sweep fits its onsets by ordinary
least squares to theta0 - c*eta^(1/3) - d*eta^(2/3) and measures every
shift from the fitted theta0, the solver's own zero-cost limit on the
same grid, so discretization bias common to all solves cancels.  The
width sweep instead uses the exact zero-eta band solver, which has no
grid to bias it.  Each scaling study reports measured / predicted per
point: the shift sweep against the layer's full asymptotic shift
wall_offset*eta^(1/3), the width sweep against the small-cost width
2*small_cost_half_width(gamma).  Both scaling fits are ordinary least
squares in log-log space and always carry a standard error; a slope
with stderr above 0.05 is flagged LOW-CONFIDENCE rather than hidden.
The shift sweep's slope is read from the fitted theta0, so no baseline
biases it.  A point left out of a fit is recorded once, with its
reason, in ``excluded``.
A solve's ``V`` and ``v`` are (nx, ntheta) arrays on its ``Grid2D``.
The speed zones are labelled only by ``regime_map`` (the composite is a
bare speed), and the validity gauge is computed only by
``validity_gauge``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError, RegimeError
from .model import (
    CostParams,
    Grid2D,
    ModelParams,
    ValidityParams,
    markowitz_position,
    small_cost_half_width,
    stationary_std,
)
from . import band_zero
from . import asymptotics
from . import hjb


# ---------------------------------------------------------------- fitting


@dataclass(frozen=True)
class LogLogFit:
    """Least-squares power-law fit y = prefactor * x**slope."""

    slope: float
    intercept: float
    stderr: float

    @property
    def prefactor(self) -> float:
        return math.exp(self.intercept)


def loglog_fit(x, y) -> LogLogFit:
    """Fit log(y) = slope*log(x) + intercept by ordinary least squares.

    ``stderr`` is the standard error of the slope under the usual
    homoskedastic assumption; with fewer than 3 points it is infinite
    (no degrees of freedom left).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("loglog_fit needs two equal-length 1-d arrays")
    if x.size < 2:
        raise ConfigError("loglog_fit needs at least 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("loglog_fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    A = np.column_stack([lx, np.ones_like(lx)])
    beta, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ beta
    dof = x.size - 2
    if dof > 0:
        s2 = float(resid @ resid) / dof
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    else:
        stderr = math.inf
    return LogLogFit(slope=float(beta[0]), intercept=float(beta[1]),
                     stderr=stderr)


# ------------------------------------------------------------ sweep result


LOW_CONFIDENCE_STDERR = 0.05


@dataclass(frozen=True)
class SweepResult:
    """One scaling study: measured points, their prediction, and the fit.

    ``values``/``measured``/``predicted`` hold the points that entered the
    fit, ``predicted`` being the study's asymptotic law at each value;
    ``excluded`` records (value, reason) pairs that were dropped.
    """

    parameter: str
    values: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    excluded: tuple
    fit: LogLogFit
    reference_slope: float
    notes: tuple

    @property
    def ratios(self) -> np.ndarray:
        """Measured / predicted at each point."""
        return self.measured / self.predicted

    @property
    def low_confidence(self) -> bool:
        return self.fit.stderr > LOW_CONFIDENCE_STDERR


def _fitted(parameter, points, excluded, notes) -> SweepResult:
    """Fit (value, measured, predicted) points of a cube-root study.

    Notes on the fit's health (fewer than 4 points, a LOW-CONFIDENCE
    slope) lead the study's own notes.
    """
    values, measured, predicted = (np.array(col) for col in zip(*points))
    fit = loglog_fit(values, measured)
    health = []
    if values.size < 4:
        health.append("fit uses fewer than 4 points after exclusions")
    if fit.stderr > LOW_CONFIDENCE_STDERR:
        health.append(f"LOW-CONFIDENCE: slope stderr {fit.stderr:.3f} > "
                      f"{LOW_CONFIDENCE_STDERR}")
    return SweepResult(parameter=parameter, values=values, measured=measured,
                       predicted=predicted, excluded=tuple(excluded),
                       fit=fit, reference_slope=1.0 / 3.0,
                       notes=(*health, *notes))


def _as_positive_array(values, name):
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{name} must be a non-empty 1-d sequence")
    if np.any(arr <= 0):
        raise DomainError(f"{name} must be strictly positive")
    if np.unique(arr).size != arr.size:
        raise ConfigError(f"{name} contains duplicates")
    return np.sort(arr)


def _require_span(arr, decades, name):
    span = math.log10(arr[-1] / arr[0])
    if arr.size < 4:
        raise ConfigError(f"{name}: need at least 4 points, got {arr.size}")
    if span < decades:
        raise ConfigError(
            f"{name}: points span {span:.2f} decades, need >= {decades}")


# ------------------------------------------------------------- study grid


def _study_grid(band: band_zero.Band, x: float, eta: float) -> Grid2D:
    """Default grid of both DP studies, point-symmetric so the solver folds.

    x covers max(0.75 stationary deviations, 1.5|x|) on 31 nodes (at a
    fixed step the onset at x = 0 is the same to 7 digits on 3).  theta
    reaches 8 crossovers beyond the boundary at x, and 2 small-cost
    half-widths beyond every node's Markowitz position, so each x row's
    no-trade run stays off the theta edges and ``extract_band`` finds
    both onsets.  htheta is at most the layer width / 8.
    """
    params = band.params
    c = asymptotics.layer_constants(band, x)
    x_half = max(0.75 * stationary_std(params), 1.5 * abs(x))
    theta_half = max(
        float(band.theta_plus_at(x))
        + 8.0 * asymptotics.sqrt_linear_crossover(params, c),
        abs(markowitz_position(params, x_half))
        + 2.0 * small_cost_half_width(params, band.gamma_lin))
    htheta = c.shift(eta) / 8.0
    ntheta = 2 * math.ceil(theta_half / htheta) + 1
    if ntheta > 60001:
        raise ConfigError(
            f"study grid needs {ntheta} theta nodes (cap 60001) to resolve "
            f"the layer at eta={eta:g}; pass an explicit grid or a larger eta")
    return Grid2D.regular(-x_half, x_half, 31, -theta_half, theta_half,
                          ntheta)


def _nearest_node(grid: Grid2D, x: float) -> int:
    """Index of the x node nearest ``x``; DomainError outside the grid."""
    if not (grid.x_nodes[0] <= x <= grid.x_nodes[-1]):
        raise DomainError(
            f"x={x:g} outside the grid's x range "
            f"[{grid.x_nodes[0]:g}, {grid.x_nodes[-1]:g}]")
    return int(np.argmin(np.abs(grid.x_nodes - x)))


# -------------------------------------------------------- eta shift sweep


# largest gauge at which the eta^{1/3} expansion is trusted
GAUGE_MAX = 0.2


def validity_gauge(band: band_zero.Band, x: float, eta: float):
    """The expansion's validity gauge at x: (gauge, why it fails or None).

    The gauge is the predicted inward shift over the band width,
    wall_offset*eta^(1/3)/width(x), and the eta^{1/3} expansion is
    trusted while it is at most ``GAUGE_MAX``.  This is the package's one
    statement of the paper's validity condition: at small gamma_lin the
    gauge depends on eta and gamma_lin through eta/gamma_lin^{4/3} alone.
    """
    gauge = float(asymptotics.layer_constants(band, x).shift(eta)
                  / band.width(x))
    if gauge > GAUGE_MAX:
        return gauge, (f"outside validity gauge "
                       f"(shift/width = {gauge:.2f} > {GAUGE_MAX:g})")
    return gauge, None


def eta_shift_sweep(params: ModelParams, gamma_lin: float, eta_list,
                    *, x: float = 0.0, grid: Grid2D | None = None,
                    cfg: hjb.SolverConfig | None = None) -> SweepResult:
    """Measure the inward boundary displacement as a function of eta.

    For each eta the full dynamic-programming problem is solved on one
    shared grid (the largest eta cold, each smaller one warm-started
    from its neighbor), and the upper boundary is its ``band_plus`` at
    the x node nearest ``x``: the trading onset, where the sell slack of
    V crosses zero (``hjb.extract_band``).  The onsets are fitted by
    least squares to theta0 - c*eta^(1/3) - d*eta^(2/3), and each shift
    is the fitted theta0, the solver's own zero-cost limit on this grid,
    minus the onset.  The notes give theta0, c and d next to
    ``find_band_zero``'s theta0 and the layer's wall_offset.  The
    default grid resolves the layer at the smallest eta kept.

    Each point's prediction is the layer's full asymptotic shift at x,
    wall_offset*eta^(1/3), so a solve that follows the first-order law
    reads ratio 1, and the log-log slope of the shifts carries no
    baseline's bias.  Points outside ``validity_gauge`` (that shift more
    than ``GAUGE_MAX`` of the band width) are excluded before any solve;
    a point without an onset is left out of the onset fit, and one whose
    shift comes back non-positive out of the log-log fit.
    """
    etas = _as_positive_array(eta_list, "eta_list")
    _require_span(etas, 2.0, "eta_list")
    if etas[0] <= hjb.ETA_FLOOR:
        raise ConfigError(
            f"smallest eta {etas[0]:g} must exceed ETA_FLOOR "
            f"{hjb.ETA_FLOOR:g}, the solver's floor on the cost coefficient")

    # asymptotic prediction (independent route, used for the gauge and
    # the reported comparison, never for the measurement)
    band = band_zero.find_band_zero(params, gamma_lin)
    theta0 = float(band.theta_plus_at(x))
    layer = asymptotics.layer_constants(band, x)

    excluded = []
    keep = []
    for eta in map(float, etas):
        _, outside = validity_gauge(band, x, eta)
        if outside:
            excluded.append((eta, outside))
        else:
            keep.append(eta)
    if len(keep) < 4:
        raise ConfigError(
            "fewer than 4 eta values survive the validity gauge; the onset "
            "fit has 3 unknowns, so 4 leave it one degree of freedom")

    grid = grid if grid is not None else _study_grid(band, x, min(keep))
    i = _nearest_node(grid, x)
    # solve ladder: largest eta cold, then walk down so each solve
    # warm-starts from its neighbor (the fields differ only near the
    # boundary)
    onsets = {}
    V = None
    for eta in reversed(keep):
        vg = hjb.solve_hjb(params, CostParams(gamma_lin, eta),
                           grid, cfg, initial=V)
        V = vg.V
        onsets[eta] = float(vg.band_plus[i])

    found = [eta for eta in keep if np.isfinite(onsets[eta])]
    excluded.extend((eta, "no trading onset found") for eta in keep
                    if eta not in found)
    if len(found) < 4:
        raise ConvergenceError(
            "eta_shift_sweep: fewer than 4 onsets to fit",
            history=[onsets[eta] for eta in found])
    # onset = theta0 - c*eta^(1/3) - d*eta^(2/3) is a quadratic in
    # eta^(1/3), and theta0 is the solver's own zero-cost onset
    zero, c, d = np.polynomial.polynomial.polyfit(
        np.array(found) ** (1.0 / 3.0), [onsets[eta] for eta in found],
        2) * (1.0, -1.0, -1.0)

    points = []
    for eta in found:
        shift = zero - onsets[eta]
        if shift <= 0:
            excluded.append((eta, f"unusable measured shift {shift:g}"))
            continue
        points.append((eta, shift, layer.shift(eta)))
    if len(points) < 2:
        raise ConvergenceError(
            "eta_shift_sweep: fewer than 2 usable shift measurements",
            history=[shift for _, shift, _ in points])
    return _fitted("eta", points, excluded, [
        f"fitted zero-cost onset theta0 {zero:.12g}, c {c:.12g}, "
        f"d {d:.12g} (find_band_zero theta0 {theta0:.12g}, "
        f"wall_offset {layer.wall_offset:.12g})"])


# ------------------------------------------------------- gamma width sweep


def gamma_width_sweep(params: ModelParams, gamma_list,
                      *, x: float = 0.0) -> SweepResult:
    """Band width versus linear cost, using the exact zero-eta solver.

    The width at ``x`` should grow like gamma^(1/3); each point's
    prediction is the small-cost width 2*small_cost_half_width(gamma), so
    a ratio drifting away from 1 shows the sweep leaving the small-cost
    regime.
    """
    gammas = _as_positive_array(gamma_list, "gamma_list")
    _require_span(gammas, 2.0, "gamma_list")

    # only width(x) is consumed, so a window around x suffices.  The first
    # pad is 4 small-cost half-widths over the Markowitz slope (0.15 at
    # least); a gamma retried on larger pads is noted with what each raised
    half = max(2.0 * abs(x), stationary_std(params))
    nodes = np.linspace(x - half, x + half, 41)
    slope_span = abs(markowitz_position(params, 2.0 * half))

    points, excluded, notes = [], [], []
    for g in map(float, gammas):
        band = None
        failed = []
        predicted = 2.0 * small_cost_half_width(params, g)
        first = max(0.15, 2.0 * predicted / slope_span)
        # the rungs are each at least twice the one below, so a retry is
        # always at least twice the pad that last failed
        for pad in (first,) + tuple(p for p in (0.5, 1.5, 4.0)
                                    if p >= 2.0 * first):
            try:
                band = band_zero.find_band_zero(
                    params, g, x_nodes=nodes, pad_frac=pad)
                break
            except (RegimeError, ConvergenceError) as exc:
                failed.append((pad, exc))
        if band is None:
            excluded.append((g, f"band not found: {failed[-1][1]}"))
            continue
        if failed:
            notes.append(f"gamma={g:g} needed pad {pad:g}: " + "; ".join(
                f"pad {bad:g} raised {type(exc).__name__}: {exc}"
                for bad, exc in failed))
        points.append((g, float(band.width(x)), predicted))
    if len(points) < 4:
        raise ConvergenceError(
            "gamma_width_sweep: fewer than 4 usable widths",
            history=[w for _, w, _ in points])

    departure, worst = max((abs(w / p - 1.0), g) for g, w, p in points)
    if departure > 0.15:
        notes.append(
            f"a width ratio departs from 1 by {100 * departure:.1f}% (at "
            f"gamma={worst:g}); the largest costs are leaving the small-cost "
            "regime")
    return _fitted("gamma_lin", points, excluded, notes)


# ------------------------------------------------------------- regime map


@dataclass(frozen=True)
class RegimeReport:
    """Classification of one trading-speed profile into its four zones.

    ``labels`` entries are "NT", "BUY", "LAYER", "SQRT", "LINEAR" or "?"
    per theta sample: "NT" where the speed is 0, the walk's zone on the
    selling sector beyond the boundary, and "BUY" at every other trading
    sample.  ``x`` is the grid node the profile is read at, and every
    quantity of the report is read there.  Slopes are medians of local
    log-log slopes over the samples assigned to each zone, NaN (and a
    note with the count of a non-empty zone) below ``_MIN_ZONE_SAMPLES``
    samples.
    ``v_composite`` is ``asymptotics.composite_velocity`` at the trading
    samples beyond the DP boundary and NaN elsewhere.
    """

    x: float
    eta: float
    theta: np.ndarray
    v: np.ndarray
    labels: tuple
    layer_slope: float
    sqrt_slope: float
    linear_slope: float
    layer_width: float
    layer_width_predicted: float
    crossover: float
    crossover_predicted: float
    boundary: float
    v_composite: np.ndarray
    notes: tuple


# fewest samples whose median local slope a zone reports; one or two
# samples are a transition, not a zone
_MIN_ZONE_SAMPLES = 3


def _local_slopes(dist, mag):
    """Centered log-log slope at interior samples, NaN at the ends."""
    out = np.full(dist.size, np.nan)
    ld, lm = np.log(dist), np.log(mag)
    out[1:-1] = (lm[2:] - lm[:-2]) / (ld[2:] - ld[:-2])
    return out


def regime_map(params: ModelParams, costs: CostParams, x: float,
               *, grid: Grid2D | None = None,
               cfg: hjb.SolverConfig | None = None) -> RegimeReport:
    """Classify the solved speed profile at ``x`` into its four zones.

    The speed, the onset and every asymptotic prediction are read at
    the x node nearest ``x``.  Walking outward from the onset the local
    slope of log|v| against log(distance d from the boundary) starts near
    1 (layer), relaxes to 1/2 (square-root zone) and climbs back towards
    1 in the far field, where the speed is linear in the distance from
    the Markowitz position (the far-field slope is taken against that
    distance).  The zone assignment is a three-state walk in that order,
    which switches zone each time the slope crosses 3/4: the outer
    speed's slope, 1/2 + lam d / (2 (lam d + amp^2/4)), is 3/4 exactly at
    ``sqrt_linear_crossover``.  Boundaries between zones are recorded
    where the walk switches.  Every trading sample outside the selling
    sector is labelled "BUY".
    """
    if costs.power != 2.0:
        raise ConfigError("regime_map models the quadratic speed cost")
    eta = costs.coeff
    if not (eta > 0):
        raise ConfigError("regime_map needs eta > 0")

    band = band_zero.find_band_zero(params, gamma_lin=costs.gamma_lin)
    grid = grid if grid is not None else _study_grid(band, x, eta)
    i = _nearest_node(grid, x)
    node = float(grid.x_nodes[i])
    c = asymptotics.layer_constants(band, node)
    vg = hjb.solve_hjb(params, costs, grid, cfg)
    b = float(vg.band_plus[i])
    if not np.isfinite(b):
        raise RegimeError("no upper boundary found in the solved field; "
                          "cannot anchor regime distances")
    v_row = vg.v[i]
    mask = (grid.theta_nodes > b) & (np.abs(v_row) > 0)
    theta = grid.theta_nodes[mask]
    mag = np.abs(v_row[mask])
    if theta.size < 8:
        raise RegimeError("too few trading samples beyond the boundary to "
                          "classify regimes")
    d = theta - b
    slope_d = _local_slopes(d, mag)
    slope_t = _local_slopes(theta - markowitz_position(params, node), mag)

    labels = []
    phase = "LAYER"
    for s, st in zip(slope_d, slope_t):
        if not np.isfinite(s):
            labels.append("?")
            continue
        if phase == "LAYER" and s < 0.75:
            phase = "SQRT"
        elif phase == "SQRT" and s >= 0.75:
            phase = "LINEAR"
        labels.append("?" if phase == "LINEAR" and not np.isfinite(st)
                      else phase)

    labels = np.array(labels)
    notes = []

    def _median(zone, arr):
        sel = labels == zone
        count = int(sel.sum())
        if 0 < count < _MIN_ZONE_SAMPLES:
            notes.append(f"{zone} zone holds {count} sample(s), fewer than "
                         f"{_MIN_ZONE_SAMPLES}: its median slope is NaN")
        return (float(np.median(arr[sel])) if count >= _MIN_ZONE_SAMPLES
                else math.nan)

    slopes = [_median("LAYER", slope_d), _median("SQRT", slope_d),
              _median("LINEAR", slope_t)]

    lay = labels == "LAYER"
    lin = labels == "LINEAR"
    layer_width = float(d[lay][-1]) if lay.any() else math.nan
    crossover = float(d[lin][0]) if lin.any() else math.nan
    if not lay.any():
        notes.append("layer zone unresolved at this grid spacing")
    if not lin.any():
        notes.append("far-field zone not reached by the theta domain")

    # composite prediction on the same samples (selling sector)
    v_comp = np.full(grid.ntheta, np.nan)
    v_comp[mask] = asymptotics.composite_velocity(band, node, eta, theta)

    full_labels = np.where(v_row == 0, "NT", "BUY").astype(object)
    full_labels[mask] = labels
    return RegimeReport(
        x=node, eta=float(eta),
        theta=grid.theta_nodes, v=v_row, labels=tuple(full_labels),
        layer_slope=slopes[0], sqrt_slope=slopes[1], linear_slope=slopes[2],
        layer_width=layer_width,
        layer_width_predicted=float(c.shift(eta)),
        crossover=crossover,
        crossover_predicted=float(
            asymptotics.sqrt_linear_crossover(params, c)),
        boundary=b,
        v_composite=v_comp,
        notes=tuple(notes),
    )


# --------------------------------------------------------------- validity


@dataclass(frozen=True)
class ValidityReport:
    """Whether a desk's quadratic cost is small enough for the expansion.

    ``eta_implied`` is per unit horizon (one day), and ``ok`` is the
    validity gauge at it.
    """

    eta_implied: float
    gauge: float
    ok: bool


def validity_report(band: band_zero.Band,
                    vp: ValidityParams) -> ValidityReport:
    """Judge the desk's implied eta by the validity gauge at x = 0.

    eta = gamma_coeff*sigma/daily_volume (inputs quoted per day), and the
    gauge is ``validity_gauge`` at that eta: the same test that drops
    points from ``eta_shift_sweep``.
    """
    eta = vp.gamma_coeff * band.params.sigma / vp.daily_volume
    gauge, outside = validity_gauge(band, 0.0, eta)
    return ValidityReport(eta_implied=float(eta), gauge=gauge,
                          ok=outside is None)
