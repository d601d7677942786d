"""Strict JSON run-configuration loading for the command-line tool.

Every section is optional at parse time (each subcommand states what it
needs), but any key the schema does not know is an error: a silently
ignored typo in a numerics config is worse than a crash.  Each section
builds one object (ModelParams, CostParams, Grid2D, SolverConfig, ...)
from the keys it gives, so a key left out takes that object's own
default, and all value validation beyond types is the object's: the
rules and the defaults live in one place.  The input dataclasses,
ValidityParams among them, live in ``model`` and SolverConfig in
``hjb``, so loading a config imports neither the exact band nor the
studies.  Numbers must be finite; JSON ``NaN`` and ``Infinity`` are
rejected with the key that holds them.

Sections and their keys (* marks a required key):

* ``model``: sigma*, omega*, lam*, rho*
* ``costs``: gamma_lin*, eta, zeta, kind: "quadratic" spells power 2 with
  coefficient eta, "three_halves" power 1.5 with coefficient zeta
* ``grid``: x_min*, x_max*, nx*, theta_min*, theta_max*, ntheta*
* ``solver``: max_iters, convergence_tol
* ``band``: x_nodes or count (at least 3)
* ``layer``: x, y_max, samples
* ``sweep``: kind* ("eta_shift", "gamma_width" or "regime"), values
  (required unless kind is "regime", refused when it is), x
* ``validity``: gamma_coeff*, daily_volume*
* ``output``: prefix
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import ConfigError
from .model import CostParams, Grid2D, ModelParams, ValidityParams
from .hjb import SolverConfig


@dataclass(frozen=True)
class BandSpec:
    x_nodes: tuple | None = None
    count: int | None = None

    def __post_init__(self):
        if self.x_nodes is not None and self.count is not None:
            raise ConfigError("config band: give x_nodes or count, not both")
        if self.count is not None and self.count < 3:
            raise ConfigError(f"band.count must be >= 3, got {self.count}")


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
        if self.kind == "regime" and self.values is not None:
            raise ConfigError("sweep.kind='regime' takes no sweep.values")
        if self.kind != "regime" and self.values is None:
            raise ConfigError(f"sweep.kind={self.kind!r} needs sweep.values")


def _output(prefix: str = "") -> str:
    return prefix


def _costs(gamma_lin: float, eta: float = 0.0, zeta: float = 0.0,
           kind: str = "quadratic") -> CostParams:
    """CostParams of eta |v|^2 (quadratic) or zeta |v|^{3/2} (three_halves)."""
    if kind == "quadratic":
        if zeta != 0.0:
            raise ConfigError("zeta must be 0 when kind is quadratic")
        return CostParams(gamma_lin, eta, 2.0)
    if kind == "three_halves":
        if eta != 0.0:
            raise ConfigError("eta must be 0 when kind is three_halves")
        return CostParams(gamma_lin, zeta, 1.5)
    raise ConfigError(
        f"costs.kind must be quadratic or three_halves; got {kind!r}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams | None = None
    costs: CostParams | None = None
    grid: Grid2D | None = None
    solver: SolverConfig | None = None
    band: BandSpec | None = None
    layer: LayerSpec | None = None
    sweep: SweepSpec | None = None
    validity: ValidityParams | None = None
    output_prefix: str = ""

    def need(self, name: str):
        """Fetch a section, raising the uniform error when absent."""
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"this command needs the {name!r} config "
                              "section")
        return value


# section -> (the builder it is passed to, its keys' JSON types, its
# required keys); a type is float (number), int, str or tuple (non-empty
# list of numbers)
_SECTIONS = {
    "model": (ModelParams, dict.fromkeys(("sigma", "omega", "lam", "rho"),
                                         float),
              ("sigma", "omega", "lam", "rho")),
    "costs": (_costs, {"gamma_lin": float, "eta": float, "zeta": float,
                       "kind": str}, ("gamma_lin",)),
    "grid": (Grid2D.regular, {"x_min": float, "x_max": float, "nx": int,
                              "theta_min": float, "theta_max": float,
                              "ntheta": int},
             ("x_min", "x_max", "nx", "theta_min", "theta_max", "ntheta")),
    "solver": (SolverConfig, {"max_iters": int, "convergence_tol": float},
               ()),
    "band": (BandSpec, {"x_nodes": tuple, "count": int}, ()),
    "layer": (LayerSpec, {"x": float, "y_max": float, "samples": int}, ()),
    "sweep": (SweepSpec, {"kind": str, "values": tuple, "x": float},
              ("kind",)),
    "validity": (ValidityParams, dict.fromkeys(
        ("gamma_coeff", "daily_volume"), float),
        ("gamma_coeff", "daily_volume")),
    "output": (_output, {"prefix": str}, ()),
}

# the JSON type each kind reads and its name; str reads a string
_JSON = {float: ((int, float), "a number"), int: (int, "an integer")}


def _table(raw, allowed, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"config {where}: expected a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(
            f"config {where}: unknown key(s) {', '.join(map(repr, unknown))}"
            f"; allowed: {', '.join(sorted(allowed))}")
    return raw


def _read(value, kind, where: str):
    """``value`` checked against and converted to ``kind``."""
    if kind is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config {where}: expected a non-empty list")
        return tuple(_read(v, float, f"{where}[{i}]")
                     for i, v in enumerate(value))
    json_type, expected = _JSON.get(kind, (str, "a string"))
    if isinstance(value, bool) or not isinstance(value, json_type):
        raise ConfigError(f"config {where}: expected {expected}, "
                          f"got {type(value).__name__}")
    # also rejects an integer literal too large for a float
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config {where}: expected a finite number, "
                          f"got {value!r}")
    return kind(value)


def parse_config(raw: dict) -> RunConfig:
    built = {}
    for name, sec in _table(raw, _SECTIONS, "top level").items():
        build, types, required = _SECTIONS[name]
        _table(sec, types, name)
        for key in required:
            if key not in sec:
                raise ConfigError(
                    f"config {name}: missing required key {key!r}")
        built[name] = build(**{key: _read(value, types[key], f"{name}.{key}")
                               for key, value in sec.items()})
    return RunConfig(output_prefix=built.pop("output", ""), **built)


def load_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:   # bad JSON or UTF-8, or an over-long int
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from None
    return parse_config(raw)
