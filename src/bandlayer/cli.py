"""Command-line front door.

Subcommands map one-to-one onto the library's main entry points: band
(linear-cost no-trade boundaries), layer (universal boundary-layer
profile), hjb (full grid solve), sweep (scaling studies), check
(consistency-property table) and validate (expansion-domain report).
Every command reads a JSON config and writes CSV plus plain-text
summaries under --out; gnuplot scripts are emitted next to the CSVs
they plot.

Each command imports the package modules it runs when it is dispatched,
in one ``from . import`` that opens its function: a DP process (hjb)
then never loads the exact band, its layers or the studies, nor the
scipy integrate/interpolate/special/optimize stack beneath them.

Exit codes: 0 success, 1 check-suite failure, 2 configuration problem
(an --out that cannot be a directory included), 3 mathematical-regime
problem ("regime error") or a point outside the solved domain ("domain
error"), 4 numerical non-convergence, an overflowing integration
included.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import BandSpec, LayerSpec, RunConfig, load_config
from .errors import (BandLayerError, ConfigError, ConvergenceError,
                     DomainError, RegimeError)
from .model import default_x_domain
from .output import (atomic_write_text, gnuplot_loglog_script,
                     gnuplot_velocity_script, write_csv, write_text_report)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NO_CONVERGENCE = 4

# published value of the layer wall-slope coefficient; comparing our Airy
# construction against the independent literal keeps the check honest
_PUBLISHED_WALL_COEFF = 1.0187929716


def _say(quiet: bool, *parts):
    if not quiet:
        print(*parts)


def _band_inputs(cfg: RunConfig):
    params = cfg.need("model")
    costs = cfg.need("costs")
    spec = cfg.band or BandSpec()
    x_nodes = spec.x_nodes
    if spec.count is not None:
        x_nodes = np.linspace(*default_x_domain(params), spec.count)
    return params, costs, x_nodes


def cmd_band(cfg: RunConfig, out: str, quiet: bool) -> int:
    """Linear-cost no-trade boundaries."""
    from . import band_zero
    params, costs, x_nodes = _band_inputs(cfg)
    band = band_zero.find_band_zero(params, costs.gamma_lin, x_nodes=x_nodes)
    path = os.path.join(out, cfg.output_prefix + "band.csv")
    write_csv(path,
              ["x", "theta_plus", "theta_minus", "theta_plus_slope",
               "theta_minus_slope", "width"],
              [band.x_nodes, band.theta_plus, band.theta_minus,
               band.theta_plus_deriv, band.theta_minus_deriv,
               band.theta_plus + band.theta_minus])
    _say(quiet, f"wrote {path} ({band.x_nodes.size} rows"
         + (", flat band)" if band.flat else ")"))
    return EXIT_OK


def cmd_layer(cfg: RunConfig, out: str, quiet: bool) -> int:
    """Universal boundary-layer profile."""
    from . import asymptotics, band_zero
    params = cfg.need("model")
    costs = cfg.need("costs")
    spec = cfg.layer or LayerSpec()
    y_max = spec.y_max
    band = band_zero.find_band_zero(params, costs.gamma_lin)
    c = asymptotics.layer_constants(band, spec.x)

    if costs.power == 2.0:
        if y_max is None:
            y_max = 50.0 * c.wall_offset
        prof = asymptotics.layer_profile_airy(c, y_max, n=spec.samples)
        stem = "layer_airy"
    else:
        q = costs.power / (costs.power - 1.0)
        if y_max is None:
            y_max = 150.0 * asymptotics.layer_width(c.amp, c.diffusivity, q)
        prof = asymptotics.abel_layer_solve(c.amp, c.diffusivity, y_max,
                                            n=spec.samples, q=q)
        stem = "layer_abel"

    path = os.path.join(out, cfg.output_prefix + stem + ".csv")
    write_csv(path, ["y", "profile", "profile_slope"],
              [prof.y, prof.f, prof.f_slope])
    residual = asymptotics.layer_ode_residual(prof)
    summary = os.path.join(out, cfg.output_prefix + stem + "_summary.txt")
    write_text_report(summary, [
        f"power           {prof.power:.17g}",
        f"x               {spec.x:.17g}",
        f"amp             {prof.amp:.17g}",
        f"diffusivity     {prof.diffusivity:.17g}",
        f"wall_offset     {prof.wall_offset:.17g}",
        f"slope_at_zero   {prof.slope_at_zero:.17g}",
        f"ode_residual    {residual:.3e}",
        f"samples         {prof.y.size}",
    ])
    _say(quiet, f"wrote {path} and {summary} (residual {residual:.2e})")
    return EXIT_OK


def cmd_hjb(cfg: RunConfig, out: str, quiet: bool) -> int:
    """Full grid solve."""
    from . import hjb
    params = cfg.need("model")
    costs = cfg.need("costs")
    grid = cfg.need("grid")
    vg = hjb.solve_hjb(params, costs, grid, cfg.solver)

    # each axis node is formatted once, with write_csv's real pattern, and
    # repeated as object arrays, which share the strings
    xs, ts = (np.array(["%.17g" % v for v in nodes.tolist()], dtype=object)
              for nodes in (grid.x_nodes, grid.theta_nodes))
    field_path = os.path.join(out, cfg.output_prefix + "field.csv")
    write_csv(field_path, ["x", "theta", "value", "speed"],
              [np.repeat(xs, grid.ntheta), np.tile(ts, grid.nx),
               vg.V.ravel(), vg.v.ravel()])

    band_path = os.path.join(out, cfg.output_prefix + "hjb_band.csv")
    write_csv(band_path,
              ["x", "band_plus", "plus_found", "band_minus", "minus_found"],
              [grid.x_nodes, vg.band_plus,
               np.isfinite(vg.band_plus).astype(float), vg.band_minus,
               np.isfinite(vg.band_minus).astype(float)])

    res_path = os.path.join(out, cfg.output_prefix + "residuals.csv")
    hist = np.asarray(vg.history, dtype=float)
    write_csv(res_path, ["iteration", "max_update"],
              [np.arange(1, hist.size + 1, dtype=float), hist])

    _say(quiet, f"solved in {vg.iterations} iterations, "
         f"residual {vg.residual:.3e}; wrote {field_path}, {band_path}, "
         f"{res_path}")
    return EXIT_OK


# sweep kind -> (parameter column, measured column, x label, y label, title)
_SWEEP_FITS = {
    "eta_shift": ("eta", "shift", "eta", "boundary shift",
                  "band shift vs quadratic cost"),
    "gamma_width": ("gamma", "width", "linear cost", "band width",
                    "band width vs linear cost"),
}


def _sweep_fit(cfg, spec, out):
    """Run a scaling study; write its points, log-log plot and summary."""
    from . import experiments
    params = cfg.need("model")
    if spec.kind == "eta_shift":
        result = experiments.eta_shift_sweep(
            params, cfg.need("costs").gamma_lin, spec.values, x=spec.x,
            grid=cfg.grid, cfg=cfg.solver)
    else:
        result = experiments.gamma_width_sweep(params, spec.values, x=spec.x)
    column, measured, xlabel, ylabel, title = _SWEEP_FITS[spec.kind]
    stem = os.path.join(out, cfg.output_prefix + spec.kind)
    write_csv(stem + ".csv",
              [column, measured, "predicted_" + measured, "ratio"],
              [result.values, result.measured, result.predicted,
               result.ratios])
    gp = gnuplot_loglog_script(
        os.path.basename(stem) + ".csv", 1, 2, xlabel, ylabel,
        slope=result.fit.slope, prefactor=result.fit.prefactor, title=title)
    atomic_write_text(stem + ".gp", gp)

    lines = [f"sweep       {result.parameter}",
             f"points      {result.values.size}",
             f"slope       {result.fit.slope:.17g}",
             f"stderr      {result.fit.stderr:.3g}",
             f"reference   {result.reference_slope:.17g}",
             f"low_confidence {result.low_confidence}"]
    for value, reason in result.excluded:
        lines.append(f"warning: excluded {value:g}: {reason}")
    lines.extend(f"note: {n}" for n in result.notes)
    write_text_report(stem + "_summary.txt", lines)
    return result, stem + "_summary.txt"


def _sweep_regime(cfg, spec, out, quiet):
    from . import experiments
    params = cfg.need("model")
    costs = cfg.need("costs")
    report = experiments.regime_map(params, costs, spec.x, grid=cfg.grid,
                                    cfg=cfg.solver)
    stem = cfg.output_prefix + "regime"
    csv_path = os.path.join(out, stem + ".csv")
    write_csv(csv_path, ["theta", "speed", "composite", "zone"],
              [report.theta, report.v, report.v_composite,
               list(report.labels)])
    gp = gnuplot_velocity_script(os.path.basename(csv_path), 1, 2,
                                 composite_col=3, boundary=report.boundary,
                                 title="trading-speed regimes")
    atomic_write_text(os.path.join(out, stem + ".gp"), gp)
    lines = [f"x                     {report.x:.17g}",
             f"eta                   {report.eta:.17g}",
             f"boundary              {report.boundary:.17g}",
             f"layer_slope           {report.layer_slope:.17g}",
             f"sqrt_slope            {report.sqrt_slope:.17g}",
             f"linear_slope          {report.linear_slope:.17g}",
             f"layer_width           {report.layer_width:.17g}",
             f"layer_width_predicted {report.layer_width_predicted:.17g}",
             f"crossover             {report.crossover:.17g}",
             f"crossover_predicted   {report.crossover_predicted:.17g}"]
    lines.extend(f"note: {n}" for n in report.notes)
    summary = os.path.join(out, stem + "_summary.txt")
    write_text_report(summary, lines)
    _say(quiet, f"wrote {csv_path} and {summary}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: str, quiet: bool) -> int:
    """Scaling studies."""
    spec = cfg.need("sweep")
    if spec.kind == "regime":
        return _sweep_regime(cfg, spec, out, quiet)
    result, summary = _sweep_fit(cfg, spec, out)
    _say(quiet, f"slope {result.fit.slope:.4f} +/- {result.fit.stderr:.4f} "
         f"(reference {result.reference_slope:g}); wrote {summary}")
    for value, reason in result.excluded:
        _say(quiet, f"warning: excluded {value:g}: {reason}")
    return EXIT_OK


def _check_rows(cfg: RunConfig):
    """Evaluate the consistency-property table. Returns (rows, all_ok)."""
    from . import asymptotics, band_zero
    params = cfg.need("model")
    costs = cfg.need("costs")
    rows = []

    def add(name, ok, detail):
        rows.append((name, bool(ok), detail))

    band = band_zero.find_band_zero(params, costs.gamma_lin)
    x_lo, x_hi = band.x_nodes[0], band.x_nodes[-1]
    xs = np.linspace(0.6 * x_lo, 0.6 * x_hi, 5)

    c = asymptotics.layer_constants(band, 0.0)
    residual = asymptotics.layer_ode_residual(
        asymptotics.layer_profile_airy(c, 50.0 * c.wall_offset))
    add("layer ODE residual <= 1e-8", residual <= 1e-8,
        f"residual {residual:.3e}")

    closed = _PUBLISHED_WALL_COEFF * c.amp ** (4.0 / 3.0) \
        * c.diffusivity ** (-1.0 / 3.0)
    rel = abs(c.wall_slope / closed - 1.0)
    add("layer wall slope closed form (1e-6 rel)", rel <= 1e-6,
        f"wall slope {c.wall_slope:.10g} vs {closed:.10g}, rel {rel:.2e}")

    # interior curvature magnitude sets the scale for "vanishes at the band"
    h = 0.1 * float(band.width(0.0))
    scale = abs(band_zero.value_nt_zero(band, 0.0, h)
                - 2.0 * band_zero.value_nt_zero(band, 0.0, 0.0)
                + band_zero.value_nt_zero(band, 0.0, -h)) / h ** 2
    worst = max(abs(band_zero.second_derivative_at_band(band, float(x)))
                for x in xs)
    add("value curvature vanishes at the boundary (1e-6 scaled)",
        worst <= 1e-6 * scale,
        f"max |V_tt| at band {worst:.3e}, interior scale {scale:.3e}")

    # the identity at every x: g'(boundary) and -V_ttt(boundary)
    lhs, rhs = band_zero.check_displacement_identity(band, xs)
    v3_min = float((-rhs).min())
    add("third derivative positive at the boundary", v3_min > 0,
        f"min V_ttt {v3_min:.6g} over {len(xs)} x values")

    worst_rel = float((abs(lhs - rhs) / abs(rhs)).max())
    add("displacement identity (1e-2 rel)", worst_rel <= 1e-2,
        f"worst relative gap {worst_rel:.3e} over {len(xs)} x values")

    return rows, all(ok for _, ok, _ in rows)


def cmd_check(cfg: RunConfig, out: str, quiet: bool) -> int:
    """Consistency-property table."""
    rows, all_ok = _check_rows(cfg)
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    lines.append(f"{'all checks passed' if all_ok else 'CHECK FAILURES'}")
    path = os.path.join(out, cfg.output_prefix + "check_report.txt")
    write_text_report(path, lines)
    for line in lines:
        _say(quiet, line)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_validate(cfg: RunConfig, out: str, quiet: bool) -> int:
    """Expansion-domain report."""
    from . import band_zero, experiments
    band = band_zero.find_band_zero(cfg.need("model"),
                                    cfg.need("costs").gamma_lin)
    report = experiments.validity_report(band, cfg.need("validity"))
    lines = [
        f"eta_implied      {report.eta_implied:.17g}",
        f"gauge            {report.gauge:.17g}",
        f"inside_domain    {report.ok}",
    ]
    path = os.path.join(out, cfg.output_prefix + "validity.txt")
    write_text_report(path, lines)
    for line in lines:
        _say(quiet, line)
    return EXIT_OK


_COMMANDS = {
    "band": cmd_band,
    "layer": cmd_layer,
    "hjb": cmd_hjb,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandlayer",
        description="No-trade band and trading-speed analysis under "
                    "linear plus small nonlinear costs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True,
                       help="path to the JSON run configuration")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress chatter")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from None
        return _COMMANDS[args.command](cfg, args.out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except BandLayerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
