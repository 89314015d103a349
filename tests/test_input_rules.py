"""Bad points, tolerances and fit windows are refused with ValueError by every entry point.

Each rule has one checker: scalars._check_disk for points (finite with
|z| < 1), scalars._check_tolerance for tolerances (finite and positive)
and operators._fit_window for decay-fit windows (two integers with
1 <= lo < hi <= 3n/4). The cases are drawn by hypothesis; the module
imports numpy, hypothesis and subbergman only, so it runs on an install
without scipy.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subbergman.cnp import PickMatrix, build_pick, cnp_scan, psd_test
from subbergman.kernels import KernelSpec, conj_sub_quadrature, eval_kernel, rescaling_check
from subbergman.operators import (
    berezin,
    berezin_values,
    defect_matrix,
    normalized_kernel_coeffs,
    spectrum,
)
from subbergman.symbols import (
    BlaschkeSpec,
    MobiusSpec,
    PowerSeriesSymbol,
    admissibility_check,
    eval_exact,
    to_series,
)

MOBIUS = MobiusSpec(a=0.5)
SERIES = to_series(MOBIUS, 16)
SHIFT = PowerSeriesSymbol(np.array([0.0, 1.0]))
PHI_DEFECT = defect_matrix(SERIES, 0.0, 16, "phi")


def _all_refuse(entries: dict, value) -> None:
    """Each call raises ValueError; any other exception propagates."""
    for name, call in entries.items():
        try:
            call()
        except ValueError:
            continue
        raise AssertionError(f"{name} accepted {value!r}")


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_PART = st.floats(-0.5, 0.5)
# one part of modulus >= 1 puts the point on or outside the circle: |z| >= |Re z|
# holds in floating point too, as the rounded modulus never falls below a part
_BIG = st.floats(1.0, 1e6) | st.floats(-1e6, -1.0)
_BAD_POINT = st.one_of(
    st.builds(complex, _NON_FINITE, _PART | _NON_FINITE),
    st.builds(complex, _PART, _NON_FINITE),
    st.builds(complex, _BIG, st.floats(-1e6, 1e6)),
    st.builds(complex, st.floats(-1e6, 1e6), _BIG),
)
_GOOD_POINT = st.builds(complex, _PART, _PART)


@st.composite
def _bad_points(draw):
    """A bad point alone, or placed among good ones in a 1-d array."""
    bad = draw(_BAD_POINT)
    if draw(st.booleans()):
        return bad
    good = draw(st.lists(_GOOD_POINT, min_size=1, max_size=5))
    good.insert(draw(st.integers(0, len(good))), bad)
    return np.array(good)


def _point_entries(p) -> dict:
    """Every public entry point that takes disk points, called at p."""
    row = np.append(0.1, p)  # a 1-d point list holding p, for the routines that need one
    entries = {
        "PowerSeriesSymbol.eval": lambda: SERIES.eval(p),
        "eval_exact": lambda: eval_exact(MOBIUS, p),
        "conj_sub_quadrature": lambda: conj_sub_quadrature(SERIES, 0.0, p, 0.2),
        "rescaling_check": lambda: rescaling_check(SERIES, 0.0, row),
        "berezin_values": lambda: berezin_values(SERIES, 0.0, 16, p),
        "berezin": lambda: berezin(PHI_DEFECT, p),
        "normalized_kernel_coeffs": lambda: normalized_kernel_coeffs(0.0, p, 8),
        "build_pick": lambda: build_pick(SERIES, 0.0, row),
        "BlaschkeSpec": lambda: BlaschkeSpec(zeros=tuple(np.atleast_1d(p))),
    }
    for kind in ("bergman", "sub", "conj_sub"):
        spec = KernelSpec(kind, 0.0, SERIES)
        entries[f"eval_kernel {kind} z"] = lambda spec=spec: eval_kernel(spec, p, 0.2)
        entries[f"eval_kernel {kind} w"] = lambda spec=spec: eval_kernel(spec, 0.2, p)
    if np.ndim(p) == 0:
        entries["MobiusSpec"] = lambda: MobiusSpec(a=p)
    return entries


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(points=_bad_points())
def test_points_off_the_open_disk_are_refused(points):
    _all_refuse(_point_entries(points), points)


_BAD_TOLERANCE = st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(tolerance=_BAD_TOLERANCE)
def test_tolerances_outside_zero_to_infinity_are_refused(tolerance):
    pick = PickMatrix(points=np.array([0.1, 0.2j]), entries=np.eye(2, dtype=complex))
    entries = {
        "psd_test": lambda: psd_test(pick, tolerance),
        "cnp_scan": lambda: cnp_scan(SERIES, 0.0, n_points=5, n_trials=1, tolerance=tolerance),
        "admissibility_check": lambda: admissibility_check(SERIES, 0.0, tolerance=tolerance),
    }
    _all_refuse(entries, tolerance)


# of the wrong shape, not integers, empty, from rank 0, and ("past") one rank past 3n/4
_BAD_WINDOWS = [(1,), 5, (1.5, 20), (5, 4), (0, 10), "past"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(27, 80), window=st.sampled_from(_BAD_WINDOWS))
def test_fit_windows_that_are_not_two_ranks_in_range_are_refused(n, window):
    if window == "past":
        window = (1, 3 * n // 4 + 1)
    op = defect_matrix(SHIFT, 0.0, n, "conj")
    _all_refuse({"spectrum": lambda: spectrum(op, window)}, window)
