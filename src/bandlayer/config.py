"""Strict JSON run-configuration loading for the command-line tool.

Every section is optional at parse time (each subcommand states what it
needs), but any key the schema does not know is an error: a silently
ignored typo in a numerics config is worse than a crash.  All value
validation beyond types is delegated to the dataclasses being built
(ModelParams, CostParams, SolverConfig, ...), so the rules live in one
place.

Sections and their keys (* marks a required key):

* ``model``: sigma*, omega*, lam*, rho*
* ``costs``: gamma_lin*, eta, zeta, kind ("quadratic" or "three_halves")
* ``grid``: x_min*, x_max*, nx*, theta_min*, theta_max*, ntheta*
* ``solver``: max_iters, convergence_tol
* ``band``: x_nodes or count
* ``layer``: x, y_max, samples
* ``sweep``: kind* ("eta_shift", "gamma_width" or "regime"), values
  (required unless kind is "regime"), x
* ``validity``: gamma_coeff*, phi*, daily_volume*, risk_target*
* ``check``: layer_table
* ``output``: prefix
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .model import CostKind, CostParams, Grid2D, ModelParams
from .experiments import ValidityParams
from .hjb import SolverConfig


def _require_table(raw, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"config {where}: expected a JSON object")
    return raw


def _check_keys(raw: dict, allowed, where: str):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(
            f"config {where}: unknown key(s) {', '.join(map(repr, unknown))}"
            f"; allowed: {', '.join(sorted(allowed))}")


def _num(raw, key, where, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"config {where}: missing required key {key!r}")
        return default
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config {where}.{key}: expected a number, "
                          f"got {type(v).__name__}")
    return float(v)


def _int(raw, key, where, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"config {where}: missing required key {key!r}")
        return default
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config {where}.{key}: expected an integer, "
                          f"got {type(v).__name__}")
    return int(v)


def _str(raw, key, where, default=None):
    if key not in raw:
        return default
    v = raw[key]
    if not isinstance(v, str):
        raise ConfigError(f"config {where}.{key}: expected a string")
    return v


def _num_list(raw, key, where):
    if key not in raw:
        return None
    v = raw[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"config {where}.{key}: expected a non-empty list")
    out = []
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(
                f"config {where}.{key}[{i}]: expected a number")
        out.append(float(item))
    return tuple(out)


# ---------------------------------------------------------------- sections


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    nx: int
    theta_min: float
    theta_max: float
    ntheta: int

    def to_grid(self) -> Grid2D:
        return Grid2D.regular(self.x_min, self.x_max, self.nx,
                              self.theta_min, self.theta_max, self.ntheta)


@dataclass(frozen=True)
class BandSpec:
    x_nodes: tuple | None = None
    count: int | None = None


@dataclass(frozen=True)
class LayerSpec:
    x: float = 0.0
    y_max: float | None = None
    samples: int = 2001

    def __post_init__(self):
        if self.y_max is not None and not (math.isfinite(self.y_max)
                                           and self.y_max > 0.0):
            raise ConfigError(
                f"layer.y_max must be finite and > 0, got {self.y_max!r}")


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    values: tuple | None = None
    x: float = 0.0

    def __post_init__(self):
        if self.kind not in ("eta_shift", "gamma_width", "regime"):
            raise ConfigError(
                f"sweep.kind must be eta_shift, gamma_width or regime; "
                f"got {self.kind!r}")
        if self.kind != "regime" and self.values is None:
            raise ConfigError(f"sweep.kind={self.kind!r} needs sweep.values")


@dataclass(frozen=True)
class CheckSpec:
    layer_table: str | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams | None = None
    costs: CostParams | None = None
    grid: GridSpec | None = None
    solver: SolverConfig | None = None
    band: BandSpec | None = None
    layer: LayerSpec | None = None
    sweep: SweepSpec | None = None
    validity: ValidityParams | None = None
    check: CheckSpec | None = None
    output_prefix: str = ""

    def need(self, name: str):
        """Fetch a section, raising the uniform error when absent."""
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"this command needs the {name!r} config "
                              "section")
        return value


_TOP_KEYS = ("model", "costs", "grid", "solver", "band", "layer", "sweep",
             "validity", "check", "output")


def parse_config(raw: dict) -> RunConfig:
    _require_table(raw, "top level")
    _check_keys(raw, _TOP_KEYS, "top level")

    model = costs = grid = solver = band = layer = sweep = None
    validity = check = None
    prefix = ""

    if "model" in raw:
        sec = _require_table(raw["model"], "model")
        _check_keys(sec, ("sigma", "omega", "lam", "rho"), "model")
        model = ModelParams(
            sigma=_num(sec, "sigma", "model", required=True),
            omega=_num(sec, "omega", "model", required=True),
            lam=_num(sec, "lam", "model", required=True),
            rho=_num(sec, "rho", "model", required=True),
        )
    if "costs" in raw:
        sec = _require_table(raw["costs"], "costs")
        _check_keys(sec, ("gamma_lin", "eta", "zeta", "kind"), "costs")
        kind_name = _str(sec, "kind", "costs", default="quadratic")
        try:
            kind = CostKind(kind_name)
        except ValueError:
            raise ConfigError(
                f"config costs.kind: unknown kind {kind_name!r}; expected "
                "'quadratic' or 'three_halves'") from None
        costs = CostParams(
            gamma_lin=_num(sec, "gamma_lin", "costs", required=True),
            eta=_num(sec, "eta", "costs", default=0.0),
            zeta=_num(sec, "zeta", "costs", default=0.0),
            kind=kind,
        )
    if "grid" in raw:
        sec = _require_table(raw["grid"], "grid")
        _check_keys(sec, ("x_min", "x_max", "nx",
                          "theta_min", "theta_max", "ntheta"), "grid")
        grid = GridSpec(
            x_min=_num(sec, "x_min", "grid", required=True),
            x_max=_num(sec, "x_max", "grid", required=True),
            nx=_int(sec, "nx", "grid", required=True),
            theta_min=_num(sec, "theta_min", "grid", required=True),
            theta_max=_num(sec, "theta_max", "grid", required=True),
            ntheta=_int(sec, "ntheta", "grid", required=True),
        )
        grid.to_grid()  # validate node counts/ordering now, not at use time
    if "solver" in raw:
        sec = _require_table(raw["solver"], "solver")
        _check_keys(sec, ("max_iters", "convergence_tol"), "solver")
        solver = SolverConfig(
            max_iters=_int(sec, "max_iters", "solver",
                           default=SolverConfig.max_iters),
            convergence_tol=_num(sec, "convergence_tol", "solver",
                                 default=SolverConfig.convergence_tol),
        )
    if "band" in raw:
        sec = _require_table(raw["band"], "band")
        _check_keys(sec, ("x_nodes", "count"), "band")
        band = BandSpec(
            x_nodes=_num_list(sec, "x_nodes", "band"),
            count=_int(sec, "count", "band"),
        )
        if band.x_nodes is not None and band.count is not None:
            raise ConfigError("config band: give x_nodes or count, not both")
    if "layer" in raw:
        sec = _require_table(raw["layer"], "layer")
        _check_keys(sec, ("x", "y_max", "samples"), "layer")
        layer = LayerSpec(
            x=_num(sec, "x", "layer", default=0.0),
            y_max=_num(sec, "y_max", "layer"),
            samples=_int(sec, "samples", "layer", default=2001),
        )
    if "sweep" in raw:
        sec = _require_table(raw["sweep"], "sweep")
        _check_keys(sec, ("kind", "values", "x"), "sweep")
        sweep = SweepSpec(
            kind=_str(sec, "kind", "sweep", default=""),
            values=_num_list(sec, "values", "sweep"),
            x=_num(sec, "x", "sweep", default=0.0),
        )
    if "validity" in raw:
        sec = _require_table(raw["validity"], "validity")
        _check_keys(sec, ("gamma_coeff", "phi", "daily_volume",
                          "risk_target"), "validity")
        validity = ValidityParams(
            gamma_coeff=_num(sec, "gamma_coeff", "validity", required=True),
            phi=_num(sec, "phi", "validity", required=True),
            daily_volume=_num(sec, "daily_volume", "validity", required=True),
            risk_target=_num(sec, "risk_target", "validity", required=True),
        )
    if "check" in raw:
        sec = _require_table(raw["check"], "check")
        _check_keys(sec, ("layer_table",), "check")
        check = CheckSpec(layer_table=_str(sec, "layer_table", "check"))
    if "output" in raw:
        sec = _require_table(raw["output"], "output")
        _check_keys(sec, ("prefix",), "output")
        prefix = _str(sec, "prefix", "output", default="") or ""

    return RunConfig(model=model, costs=costs, grid=grid, solver=solver,
                     band=band, layer=layer, sweep=sweep, validity=validity,
                     check=check, output_prefix=prefix)


def load_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from None
    return parse_config(raw)
