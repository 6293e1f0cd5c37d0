"""The stadium at r = 1 down an epsilon ladder.

The paper's smoothing works for arbitrarily small epsilon, so the
ladder runs the stadium at epsilon = 5e-3, 5e-4, 5e-5 and 5e-6 and pins
each property per rung: every ``main`` and patch row passes, each
patch's witness (the deviation read at its proven radius) stays within
rho, and each patch's displacement table, read at 7 points inside
every knot cell, keeps its slope within rho and its value within rho R.  The pairs that
fail today are strict xfails with their reasons, so a fix shows up as
an unexpected pass.

A rung's run is built once, reduced to its rows and table maxima and
dropped before its tests run: the 5e-6 run peaks near 480 MB.
"""

import numpy as np
import pytest

from reachsmooth.checks import _patch_rows, check_main_theorem
from reachsmooth.smoothing import smooth_manifold

LADDER = (5e-3, 5e-4, 5e-5, 5e-6)
ROWS = ("c1_distance", "center_shift", "far_point_distance",
        "junction_pair_ratio", "junction_probe_control", "patch_hausdorff",
        "reach_drop", "reach_drop_strict", "smooth_probe",
        "smooth_probe_junction", "tangent_angle", "tangent_distance")
TABLE = ("table_slope", "table_value")
RECORDS = ("witness",)
# interior read points of a knot cell, as fractions of its width
_CELL_READS = np.arange(1, 8) / 8.0
# knot cells read at once
_CELL_BLOCK = 65536

_PROBE = ("smooth_core_probe's absolute _PROBE_NOISE floor: from "
          "epsilon = 5e-4 (sigma = 1.9e-6) the raw kink reads as flat and "
          "all four control probes pass (ROADMAP items 4 and 12)")
_PAIR = ("the junction micro scans read absolute coordinates, so the four "
         "pair ratios read {} against R - epsilon (ROADMAP item 16)")
_KNOWN = {
    (5e-4, "junction_probe_control"): _PROBE,
    (5e-4, "junction_pair_ratio"): _PAIR.format("0.19-0.20"),
    (5e-5, "junction_probe_control"): _PROBE,
    (5e-5, "junction_pair_ratio"): _PAIR.format("1.7e-3"),
    (5e-6, "junction_probe_control"): _PROBE,
    (5e-6, "junction_pair_ratio"): _PAIR.format("9.8e-3 to 1.0e-2"),
}


def _cases():
    for eps in LADDER:
        for prop in ROWS + TABLE + RECORDS:
            reason = _KNOWN.get((eps, prop))
            marks = () if reason is None else pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=reason)
            yield pytest.param(eps, prop, marks=marks, id=f"{eps:.0e}-{prop}")


def _table_maxima(patch):
    """Largest |slope|/rho and |value|/(rho R) of the patch's table."""
    table, rho = patch.displacement, patch.rho_target
    slope = value = 0.0
    for a in range(0, table.x.size - 1, _CELL_BLOCK):
        x = table.x[a:a + _CELL_BLOCK + 1]
        t = (x[:-1, None] + _CELL_READS * np.diff(x)[:, None]).ravel()
        v, s = table.value_and_slope(t)
        slope = max(slope, float(np.abs(s).max()) / rho)
        value = max(value, float(np.abs(v).max()) / (rho * patch.reach))
    return slope, value


@pytest.fixture(scope="module")
def rung(request):
    """``{property: [(passed, detail), ...]}`` of the stadium at
    epsilon = ``request.param``; the run itself is not kept."""
    result = smooth_manifold({"kind": "stadium", "r": 1.0, "l": 2.0},
                             request.param)
    found = {}
    for r in _patch_rows(result, 0) + check_main_theorem(result):
        found.setdefault(r.name, []).append(
            (r.passed, (r.instance, r.measured, r.bound)))
    for p in result.curve.patches:
        slope, value = _table_maxima(p)
        found.setdefault("table_slope", []).append((slope <= 1.0, (p.index, slope)))
        found.setdefault("table_value", []).append((value <= 1.0, (p.index, value)))
    rho = result.report.rho
    found["witness"] = [(r.deviation <= rho, (r.index, r.deviation / rho))
                        for r in result.records]
    return found


@pytest.mark.parametrize("rung, prop", _cases(), indirect=["rung"],
                         scope="module")
def test_ladder_rung_keeps_the_property(rung, prop):
    checks = rung.get(prop)
    assert checks, f"no {prop} check on this run"
    assert [detail for passed, detail in checks if not passed] == []
