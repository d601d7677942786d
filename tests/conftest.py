"""Shared fixtures: one desk-scale model solved once per session, and a
stub DP solve that follows a given shift law exactly."""

import numpy as np
import pytest

from bandlayer import asymptotics, hjb
from bandlayer.model import Grid2D, ModelParams
from bandlayer.band_zero import find_band_zero

DESK_GAMMA = 2e-4


@pytest.fixture(scope="session")
def desk_model():
    # daily units: 2% vol, 10-day signal decay, unit risk penalty
    return ModelParams(sigma=0.02, omega=0.1, lam=1.0, rho=1e-3)


@pytest.fixture(scope="session")
def desk_band(desk_model):
    return find_band_zero(desk_model, DESK_GAMMA)


@pytest.fixture(scope="session")
def desk_pair(desk_band):
    # the homogeneous pair the desk band was solved from
    return desk_band.comp.pair


def shift_law(theta0, c, d=0.0):
    """A stub ``hjb.solve_hjb`` whose upper boundary is
    theta0 - c*eta^(1/3) - d*eta^(2/3) at every x."""

    def law(params, costs, grid, cfg, initial=None):
        t = costs.coeff ** (1 / 3)
        edge = np.full(grid.nx, theta0 - c * t - d * t * t)
        zeros = np.zeros((grid.nx, grid.ntheta))
        return hjb.ValueGrid(V=zeros, v=zeros, grid=grid,
                             band_plus=edge, band_minus=edge,
                             residual=0.0, iterations=0)

    return law


@pytest.fixture
def exact_shift_law(desk_band, monkeypatch):
    """``hjb.solve_hjb`` replaced by ``shift_law`` at the desk band's
    theta0 and wall_offset, the first-order law at every eta, so a shift
    study runs no DP.  Returns the explicit grid such a study is given."""
    theta0 = float(desk_band.theta_plus_at(0.0))
    offset = asymptotics.layer_constants(desk_band, 0.0).wall_offset
    monkeypatch.setattr(hjb, "solve_hjb", shift_law(theta0, offset))
    return Grid2D.regular(-0.134, 0.134, 11, -7.5e-3, 7.5e-3, 301)


_ACCEPTANCE_RESULTS = {}


def record_acceptance(num, label, passed, detail=""):
    _ACCEPTANCE_RESULTS[num] = (label, bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_RESULTS):
        label, passed, detail = _ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE CRITERION {num} [{label}]: {verdict}"
        if detail:
            line += f"  ({detail})"
        tw.write_line(line)
