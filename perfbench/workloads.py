"""Benchmark workloads: the CLI commands each one runs, and their witnesses.

A workload is a list of ``Command``s, each a ``bandlayer`` subcommand
with a JSON config.  Seed 0 is the desk point (sigma 0.02, omega 0.1,
lam 1, rho 1e-3, gamma_lin 2e-4).  On exact-desk any other seed scales
gamma_lin and the nonlinear cost (eta, zeta) by factors drawn from
{0.90, 0.91, ..., 1.10}; the gamma factor is discrete so that every seed
has a stored exact band value to check against (reference.json).

The DP workloads stay at the desk point for every seed.  Within the same
+-10% box the cold solve stops, by its update rule, with a Bellman
residual anywhere from 1e-11 to 2e-6 (above the 1e-7 witness at about a
third of the seeds tried), so seeded DP inputs would fail the witness on
a program defect rather than measure it.

A witness reads what a command wrote and returns (ok, detail, values).
``values`` are recorded for the reader and never gated, except where a
check below compares them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

DESK_MODEL = {"sigma": 0.02, "omega": 0.1, "lam": 1.0, "rho": 1e-3}
DESK_GAMMA = 2e-4
DESK_ETA = 1e-4
BOX = {"x_min": -0.134, "x_max": 0.134, "nx": 31,
       "theta_min": -7.5e-3, "theta_max": 7.5e-3}
SOLVER = {"max_iters": 200, "convergence_tol": 1e-9}
ETA_LADDER = (1e-7, 1e-6, 1e-5, 1e-4)

BAND_REL_TOL = 1e-9
LAYER_RESIDUAL_MAX = 1e-8
BELLMAN_RESIDUAL_MAX = 1e-7

WORKLOADS = ("exact-desk", "dp-cold", "dp-ladder")
# every command label of every workload; "<label>_s" is its time metric
LABELS = ("band", "layer_airy", "layer_abel", "check", "hjb", "eta_shift")


@dataclass(frozen=True)
class Command:
    label: str                      # metric stem, e.g. "band" -> band_s
    subcommand: str
    config: dict
    witness: Callable = field(repr=False)


def seed_factors(workload: str, seed: int):
    """(gamma factor, cost factor) of a workload at a seed; 1.0 at seed 0
    and on the DP workloads."""
    if seed == 0 or workload != "exact-desk":
        return 1.0, 1.0
    rng = random.Random(seed)
    return 1.0 + rng.randint(-10, 10) / 100, 1.0 + rng.randint(-10, 10) / 100


def band_reference(gamma_factor: float) -> float:
    """Stored theta_plus(0) of the exact band at gamma_lin = 2e-4 * factor."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        table = json.load(fh)["theta_plus_x0"]
    return float(table[f"{gamma_factor:.2f}"])


def _read(out, name):
    return np.genfromtxt(os.path.join(out, name), delimiter=",", names=True,
                         ndmin=1)


def _summary(out, name):
    """Key/value pairs of a plain-text summary written by the CLI."""
    pairs = {}
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition(" ")
            pairs[key] = value.strip()
    return pairs


def _band_witness(expected):
    def check(out, stdout):
        t = _read(out, "band.csv")
        row = np.flatnonzero(t["x"] == 0.0)
        if row.size != 1:
            return False, "band.csv has no row at x = 0", {}
        tp = float(t["theta_plus"][row[0]])
        rel = abs(tp / expected - 1.0)
        return (rel <= BAND_REL_TOL,
                f"theta_plus(0) {tp:.10e} vs {expected:.10e}, rel {rel:.1e}",
                {"theta_plus_x0": tp})
    return check


def _layer_witness(stem):
    def check(out, stdout):
        res = float(_summary(out, stem + "_summary.txt")["ode_residual"])
        return (res <= LAYER_RESIDUAL_MAX, f"ode_residual {res:.2e}",
                {"ode_residual": res})
    return check


def _check_witness(out, stdout):
    ok = "all checks passed" in stdout
    return ok, "all checks passed" if ok else "check table failed", {}


def _hjb_witness(out, stdout):
    # "solved in N iterations, residual R; wrote ..."
    head = stdout.split("solved in", 1)[-1].split(";", 1)[0]
    iters = int(head.split()[0])
    residual = float(head.rsplit(" ", 1)[-1])
    t = _read(out, "hjb_band.csv")
    i = int(np.argmin(np.abs(t["x"])))
    found = float(t["plus_found"][i]) == 1.0
    band_plus = float(t["band_plus"][i])
    ok = residual <= BELLMAN_RESIDUAL_MAX and found
    return ok, (f"{iters} iterations, residual {residual:.2e}, "
                f"plus_found(0) {int(found)}, band_plus(0) {band_plus:.6e}"), {
        "iterations": iters, "residual": residual, "band_plus_x0": band_plus}


def _eta_shift_witness(out, stdout):
    s = _summary(out, "eta_shift_summary.txt")
    slope, points = float(s["slope"]), int(s["points"])
    ok = math.isfinite(slope) and points >= 2
    return ok, f"slope {slope:.4f} from {points} points", {
        "slope": slope, "points": points}


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The command list of a workload at a seed.

    ``tiny`` shrinks every grid and sample count so the whole harness runs
    in seconds; the warm-up pass and the smoke test use it, and it is never
    timed.
    """
    base = {"model": DESK_MODEL}
    if workload == "exact-desk":
        fg, fc = seed_factors(workload, seed)
        gamma, eta = DESK_GAMMA * fg, DESK_ETA * fc
        samples = 201 if tiny else 2001
        return [
            Command("band", "band", dict(
                base, costs={"gamma_lin": gamma},
                band={"count": 21 if tiny else 181}),
                _band_witness(band_reference(fg))),
            Command("layer_airy", "layer", dict(
                base, costs={"gamma_lin": gamma, "eta": eta},
                layer={"samples": samples}),
                _layer_witness("layer_airy")),
            Command("layer_abel", "layer", dict(
                base, costs={"gamma_lin": gamma, "zeta": eta,
                             "kind": "three_halves"},
                layer={"samples": samples}),
                _layer_witness("layer_abel")),
            Command("check", "check", dict(base, costs={"gamma_lin": gamma}),
                    _check_witness),
        ]
    if workload == "dp-cold":
        grid = dict(BOX, ntheta=151 if tiny else 1501)
        if tiny:
            grid["nx"] = 11
        return [Command("hjb", "hjb", dict(
            base, costs={"gamma_lin": DESK_GAMMA, "eta": DESK_ETA},
            grid=grid, solver=SOLVER), _hjb_witness)]
    if workload == "dp-ladder":
        grid = dict(BOX, ntheta=301 if tiny else 751)
        if tiny:
            grid["nx"] = 11
        return [Command("eta_shift", "sweep", dict(
            base, costs={"gamma_lin": DESK_GAMMA}, grid=grid, solver=SOLVER,
            sweep={"kind": "eta_shift", "values": list(ETA_LADDER)}),
            _eta_shift_witness)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
