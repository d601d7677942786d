"""The paper's headline scalings, asserted at tolerances fixed in advance.

Each test reports its verdict through ``conftest.record_acceptance``, so
the run ends with one line per criterion.

1. The exact linear-cost band widens like gamma^{1/3} (exact path only).
   The log-log slope of ``gamma_width_sweep`` over gamma 2e-6 to 2e-3
   must lie within 0.015 of 1/3, and within 0.003 over the three
   smallest gammas, where the small-cost expansion is sharpest.  No gamma
   may be excluded.  The prefactor is held too: the width over the
   small-cost width 2*small_cost_half_width must lie within 2e-3 of 1 at
   gamma 2e-6, and must not increase with gamma, as the expansion's
   error grows with the cost.
"""

import numpy as np

from bandlayer.experiments import gamma_width_sweep, loglog_fit
from bandlayer.model import small_cost_half_width
# the conftest module pytest itself loaded (as "conftest", not as
# "tests.conftest"), whose terminal summary prints the recorded verdicts
from conftest import record_acceptance

WIDTH_SLOPE_TOL = 0.015
WIDTH_SLOPE_TOL_SMALL = 0.003
WIDTH_RATIO_TOL_SMALL = 2e-3


def test_band_width_grows_like_cube_root_of_gamma(desk_model):
    res = gamma_width_sweep(desk_model, np.geomspace(2e-6, 2e-3, 7))
    small = loglog_fit(res.values[:3], res.measured[:3])
    gaps = (abs(res.fit.slope - 1 / 3), abs(small.slope - 1 / 3))
    ratios = res.measured / np.array(
        [2.0 * small_cost_half_width(desk_model, g) for g in res.values])
    passed = (not res.excluded and gaps[0] <= WIDTH_SLOPE_TOL
              and gaps[1] <= WIDTH_SLOPE_TOL_SMALL
              and abs(ratios[0] - 1.0) <= WIDTH_RATIO_TOL_SMALL
              and np.all(np.diff(ratios) <= 0))
    record_acceptance(
        1, "band width ~ gamma^(1/3)", passed,
        f"slope {res.fit.slope:.5f} +- {res.fit.stderr:.4f} over "
        f"{res.values.size} gammas, {small.slope:.5f} over the 3 smallest; "
        f"width / small-cost width {ratios[0]:.5f} -> {ratios[-1]:.5f}; "
        f"excluded {len(res.excluded)}")
    assert not res.excluded, res.excluded
    assert gaps[0] <= WIDTH_SLOPE_TOL, res.fit.slope
    assert gaps[1] <= WIDTH_SLOPE_TOL_SMALL, small.slope
    assert abs(ratios[0] - 1.0) <= WIDTH_RATIO_TOL_SMALL, ratios
    assert np.all(np.diff(ratios) <= 0), ratios
