"""The paper's headline scalings, asserted at tolerances fixed in advance.

Each test reports its verdict through ``conftest.record_acceptance``, so
the run ends with one line per criterion.

1. The exact linear-cost band widens like gamma^{1/3} (exact path only).
   The log-log slope of ``gamma_width_sweep`` over gamma 2e-6 to 2e-3
   must lie within 0.015 of 1/3, and within 0.003 over the three
   smallest gammas, where the small-cost expansion is sharpest.  No gamma
   may be excluded.
"""

import numpy as np

from bandlayer.experiments import gamma_width_sweep, loglog_fit
# the conftest module pytest itself loaded (as "conftest", not as
# "tests.conftest"), whose terminal summary prints the recorded verdicts
from conftest import record_acceptance

WIDTH_SLOPE_TOL = 0.015
WIDTH_SLOPE_TOL_SMALL = 0.003


def test_band_width_grows_like_cube_root_of_gamma(desk_model):
    res = gamma_width_sweep(desk_model, np.geomspace(2e-6, 2e-3, 7))
    small = loglog_fit(res.values[:3], res.measured[:3])
    gaps = (abs(res.slope - 1 / 3), abs(small.slope - 1 / 3))
    passed = (not res.excluded and gaps[0] <= WIDTH_SLOPE_TOL
              and gaps[1] <= WIDTH_SLOPE_TOL_SMALL)
    record_acceptance(
        1, "band width ~ gamma^(1/3)", passed,
        f"slope {res.slope:.5f} +- {res.stderr:.4f} over {res.values.size} "
        f"gammas, {small.slope:.5f} over the 3 smallest; "
        f"excluded {len(res.excluded)}")
    assert not res.excluded, res.excluded
    assert gaps[0] <= WIDTH_SLOPE_TOL, res.slope
    assert gaps[1] <= WIDTH_SLOPE_TOL_SMALL, small.slope
