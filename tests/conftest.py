"""Shared fixtures: one desk-scale model solved once per session."""

import pytest

from bandlayer.model import ModelParams
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
