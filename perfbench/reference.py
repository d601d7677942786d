"""Regenerate reference.json: the exact band at x = 0 for every gamma factor.

Each entry is theta_plus(0) from ``bandlayer band`` (count 181) at the
desk point with gamma_lin = 2e-4 * factor, for the 21 factors a seed can
draw.  The exact linear-cost band is not meant to change, so these are
the band witness of the exact-desk workload.

Run from the repository root:  python3 perfbench/reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from bandlayer.cli import main  # noqa: E402
from workloads import DESK_GAMMA, DESK_MODEL  # noqa: E402


def theta_plus_x0(gamma: float) -> float:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cfg = os.path.join(tmp, "band.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"model": DESK_MODEL, "costs": {"gamma_lin": gamma},
                       "band": {"count": 181}}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["band", "--config", cfg, "--out", tmp]) != 0:
                raise SystemExit(f"band failed at gamma_lin {gamma:g}")
        t = np.genfromtxt(os.path.join(tmp, "band.csv"), delimiter=",",
                          names=True)
        return float(t["theta_plus"][t["x"] == 0.0][0])


if __name__ == "__main__":
    table = {}
    for k in range(-10, 11):
        factor = 1.0 + k / 100
        key = f"{factor:.2f}"
        table[key] = theta_plus_x0(DESK_GAMMA * factor)
        print(key, repr(table[key]), flush=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"theta_plus_x0": table}, fh, indent=1)
        fh.write("\n")
