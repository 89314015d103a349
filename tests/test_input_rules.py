"""Bad points, tolerances, fit windows, sizes, counts, symbol parameters and values of
the wrong type are refused with ValueError by every entry point.

Each rule has one checker: scalars._check_disk for points (numeric,
finite with |z| < 1), scalars._check_tolerance for tolerances and the
other real parameters (finite and above a bound), scalars._check_complex
for the other complex parameters (one Python or numpy number),
operators._fit_window for decay-fit windows (two integers with
1 <= lo < hi <= 3n/4), scalars._check_count for sizes and counts (a
Python or numpy integer within bounds), symbols._check_symbols for
symbols (a spec or a PowerSeriesSymbol) and symbols._check_series where
a series is expected (a spec is refused). The cases are drawn by
hypothesis; the module imports numpy, pytest, hypothesis and subbergman
only, so it runs on an install without scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subbergman.cli import main
from subbergman.cnp import PickMatrix, build_pick, cnp_scan, psd_test, sample_points
from subbergman.harness import Scenario, boundary_ratio_check, run_scenario
from subbergman.kernels import KernelSpec, conj_sub_quadrature, eval_kernel, rescaling_check
from subbergman.operators import (
    DENSE_SIZE_MAX,
    berezin,
    berezin_values,
    defect_matrix,
    inclusion_eigenvalues,
    normalized_kernel_coeffs,
    spectrum,
    toeplitz_matrix,
)
from subbergman.scalars import WeightParameter, as_weight, basis_weights, binomial_coeffs
from subbergman.symbols import (
    MONOMIAL_DEGREE_MAX,
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    admissibility_check,
    bind_symbol,
    default_series_length,
    eval_exact,
    monomial_cnp_scale,
    normalize,
    parse_symbol,
    resolve_monomial,
    symbol_text,
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


# of the wrong shape, ragged, not integers, empty, from rank 0, and ("past") one rank past 3n/4
_BAD_WINDOWS = [(1,), 5, ((1, 2), 3), (1.5, 20), (5, 4), (0, 10), "past"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(27, 80), window=st.sampled_from(_BAD_WINDOWS))
def test_fit_windows_that_are_not_two_ranks_in_range_are_refused(n, window):
    if window == "past":
        window = (1, 3 * n // 4 + 1)
    op = defect_matrix(SHIFT, 0.0, n, "conj")
    with pytest.raises(ValueError, match="fit window .* must be two integers"):
        spectrum(op, window)


# ---------------------------------------------------------------------------
# sizes and counts: scalars._check_count


def _same(x, y) -> bool:
    """Equal values of equal types, through dataclasses (report times aside), dicts, sequences."""
    if type(x) is not type(y):
        return False
    if is_dataclass(x):
        names = [f.name for f in fields(x) if f.name not in ("started", "finished")]
        return all(_same(getattr(x, k), getattr(y, k)) for k in names)
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, list | tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
    return x == y or (x != x and y != y)


# cells whose reports depend on the section size: a truncation skip and a range section
_SIZED = Scenario("sized", (0.0,), (SHIFT,), ("berezin_identity", "blaschke_decay"))

# every public size or count parameter: a call taking it alone, its least value and its cap
_COUNTS = {
    "toeplitz_matrix n": (lambda n: toeplitz_matrix(SERIES, 0.0, n), 1, DENSE_SIZE_MAX),
    "defect_matrix n": (lambda n: defect_matrix(SERIES, 0.0, n, "conj"), 1, DENSE_SIZE_MAX),
    "berezin_values n": (lambda n: berezin_values(SERIES, 0.0, n, 0.3), 1, None),
    "normalized_kernel_coeffs n": (lambda n: normalized_kernel_coeffs(0.0, 0.3, n), 1, None),
    "inclusion_eigenvalues n": (lambda n: inclusion_eigenvalues(0.0, -1.0, n), 0, None),
    "basis_weights n_max": (lambda n: basis_weights(0.5, n), 0, None),
    "binomial_coeffs n_max": (lambda n: binomial_coeffs(1.5, n), 0, None),
    "to_series length": (lambda n: to_series(MOBIUS, n), 1, None),
    "bind_symbol size": (lambda n: bind_symbol(SingularInnerSpec(c=1.0), 0.0, n), 0, None),
    "MonomialSpec n": (lambda n: MonomialSpec(n=n, c=0.5), 1, MONOMIAL_DEGREE_MAX),
    "monomial_cnp_scale n": (lambda n: monomial_cnp_scale(n, -1.5), 1, MONOMIAL_DEGREE_MAX),
    "admissibility_check grid": (lambda n: admissibility_check(SERIES, 0.0, grid=n), 16, None),
    "sample_points n": (lambda n: sample_points(n, np.random.default_rng(3)), 0, None),
    "cnp_scan n_points": (lambda n: cnp_scan(SERIES, 0.0, n_points=n, n_trials=1), 3, None),
    "cnp_scan n_trials": (lambda n: cnp_scan(SERIES, 0.0, n_points=3, n_trials=n), 1, None),
    "cnp_scan seed": (lambda n: cnp_scan(SERIES, 0.0, n_points=3, n_trials=1, seed=n), 0, None),
    "boundary_ratio_check directions": (lambda n: boundary_ratio_check(SERIES, (0.5, 0.9), n), 1, None),
    "run_scenario matrix_size": (lambda n: run_scenario(_SIZED, n), 3, DENSE_SIZE_MAX),
}


def _bad_counts(lo: int, hi: int | None) -> list:
    """One strategy per kind of value a count in [lo, hi] must refuse."""
    outside = st.integers(-(2**63), lo - 1)
    if hi is not None:
        outside |= st.integers(hi + 1, 2**63 - 1)
    return [
        st.booleans() | st.builds(np.bool_, st.booleans()),
        st.integers(lo, lo + 64).map(float),  # integral floats, in range
        st.floats() | st.floats(lo, lo + 64).map(np.float64),  # nan and +-inf too
        st.sampled_from([None, "5", 5 + 0j, [5]]),
        outside,
        outside.map(np.int64),
    ]


@pytest.mark.parametrize("name", sorted(_COUNTS))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sizes_and_counts_that_are_not_integers_in_range_are_refused(name, data):
    call, lo, hi = _COUNTS[name]
    for bad in _bad_counts(lo, hi):
        n = data.draw(bad)
        _all_refuse({name: lambda: call(n)}, n)


_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64)


@pytest.mark.parametrize("name", sorted(_COUNTS))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(offset=st.integers(0, 3), kind=st.sampled_from(_NUMPY_INTS))
@example(offset=1, kind=np.uint64)  # uint64 minus int64 is a float64, which no slice takes
def test_a_numpy_integer_count_gives_the_python_int_result(name, offset, kind):
    call, lo, _ = _COUNTS[name]
    assert _same(call(kind(lo + offset)), call(lo + offset))


# ---------------------------------------------------------------------------
# symbol and weight parameters: refused when the spec or weight is built

_NAN = st.sampled_from([math.nan, complex(math.nan, 0.0), complex(1.0, math.nan)])
_NOT_A_NUMBER = st.sampled_from([True, False, np.bool_(True), None, "1", "x", 1j])
_NOT_UNIMODULAR = st.floats(0.0, 0.999) | st.floats(1.001, 1e6) | st.sampled_from([math.inf, -math.inf])
_BAD_ALPHA = _NOT_A_NUMBER | st.floats(max_value=-2.0) | st.sampled_from([math.nan, math.inf])
_PARAMETERS = {
    # weight alpha: a finite real number > -2
    "as_weight": (lambda v: as_weight(v), _BAD_ALPHA),
    "WeightParameter": (lambda v: WeightParameter(v), _BAD_ALPHA),
    # zeta: unimodular within 1e-12
    "MobiusSpec zeta": (lambda v: MobiusSpec(a=0.5, zeta=v), _NAN | _NOT_UNIMODULAR),
    "BlaschkeSpec zeta": (lambda v: BlaschkeSpec(zeros=(0.5, -0.5), zeta=v), _NAN | _NOT_UNIMODULAR),
    # monomial scale: |c| <= 1 within 1e-12
    "MonomialSpec c": (lambda v: MonomialSpec(n=2, c=v), _NAN | st.floats(1.001, 1e6) | st.just(math.inf)),
    # singular inner mass: a finite real number > 0
    "SingularInnerSpec c": (
        lambda v: SingularInnerSpec(c=v),
        _NOT_A_NUMBER | st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]),
    ),
}


@pytest.mark.parametrize("name", sorted(_PARAMETERS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_symbol_and_weight_parameters_are_refused_when_built(name, data):
    build, bad = _PARAMETERS[name]
    value = data.draw(bad)
    _all_refuse({name: lambda: build(value)}, value)


@pytest.mark.parametrize(
    "symbol, named",
    [("mobius a=0.5 zeta=nan", "zeta"), ("singular c=inf", "singular inner mass"), ("singular c=nan", "mass")],
)
def test_cli_refuses_a_bad_symbol_parameter_by_name_without_warnings(symbol, named, capsys):
    argv = ["kernel", "eval", "--kind", "sub", "--alpha", "0", "--symbol", symbol, "--z", "0.1", "--w", "0.2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise instead of exiting 2
        assert main(argv) == 2
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# values of the wrong type: numbers by scalars._numeric, symbols by symbols._check_symbols

_NOT_NUMBERS = st.sampled_from([None, "0.5", "1", True, False, np.bool_(True), [0.5], (1.0,), object()])
_NOT_SEQUENCES = _NOT_NUMBERS.filter(lambda v: not isinstance(v, list | tuple))
_NOT_SYMBOLS = st.sampled_from([None, 3, 0.5, 1j, "mobius a=0.5", object(), SERIES.coeffs, (MOBIUS,)])
_SPECS = st.sampled_from([MOBIUS, BlaschkeSpec(zeros=(0.5, -0.5)), MonomialSpec(n=2, c=1.0), SingularInnerSpec(c=1.0)])
_NOT_SERIES = _NOT_SYMBOLS | _SPECS
_TYPES = {
    "MobiusSpec a": (lambda v: MobiusSpec(a=v), _NOT_NUMBERS),
    "MobiusSpec zeta": (lambda v: MobiusSpec(a=0.5, zeta=v), _NOT_NUMBERS),
    "BlaschkeSpec zeros": (
        lambda v: BlaschkeSpec(zeros=v),
        _NOT_SEQUENCES | st.sampled_from([0.5, [[0.5, -0.5]], (0.5, None), ("0.5",), (True,)]),
    ),
    "BlaschkeSpec zeta": (lambda v: BlaschkeSpec(zeros=(0.5, -0.5), zeta=v), _NOT_NUMBERS),
    # None defers the scale, so it is the one value of no numeric type that c may take
    "MonomialSpec c": (lambda v: MonomialSpec(n=2, c=v), _NOT_NUMBERS.filter(lambda v: v is not None)),
    "PowerSeriesSymbol coeffs": (
        lambda v: PowerSeriesSymbol(v),
        _NOT_SEQUENCES | st.sampled_from([[True, False], [None], ["1"]]),
    ),
    "PowerSeriesSymbol tail_bound": (
        lambda v: PowerSeriesSymbol([1.0, 2.0], tail_bound=v),
        _NOT_NUMBERS | st.just(1j),
    ),
    "to_series": (lambda v: to_series(v, 5), _NOT_SYMBOLS),
    "default_series_length": (lambda v: default_series_length(v), _NOT_SYMBOLS),
    "bind_symbol": (lambda v: bind_symbol(v, 0.0), _NOT_SYMBOLS),
    "resolve_monomial": (lambda v: resolve_monomial(v, 0.0), _NOT_SYMBOLS),
    "eval_exact": (lambda v: eval_exact(v, 0.1), _NOT_SYMBOLS),
    "symbol_text": (lambda v: symbol_text(v), _NOT_SYMBOLS),
    "Scenario symbols": (lambda v: Scenario("x", (0.0,), (MOBIUS, v), ("boundary_ratio",)), _NOT_SYMBOLS),
    "parse_symbol": (lambda v: parse_symbol(v), _NOT_SYMBOLS.filter(lambda v: not isinstance(v, str))),
    # a spec too where a series is expected: symbols._check_series
    "normalize": (lambda v: normalize(v), _NOT_SERIES),
    "admissibility_check": (lambda v: admissibility_check(v, 0.0), _NOT_SERIES),
    "toeplitz_matrix": (lambda v: toeplitz_matrix(v, 0.0, 4), _NOT_SERIES),
    "defect_matrix": (lambda v: defect_matrix(v, 0.0, 4, "conj"), _NOT_SERIES),
    "berezin_values": (lambda v: berezin_values(v, 0.0, 4, 0.1), _NOT_SERIES),
    "cnp_scan": (lambda v: cnp_scan(v, 0.0, 3, 1), _NOT_SERIES),
    "build_pick": (lambda v: build_pick(v, 0.0, [0.1, 0.2]), _NOT_SERIES),
    "rescaling_check": (lambda v: rescaling_check(v, 0.0, [0.1, 0.2]), _NOT_SERIES),
    "boundary_ratio_check": (lambda v: boundary_ratio_check(v, (0.5,), 4), _NOT_SERIES),
    "KernelSpec symbol": (lambda v: KernelSpec("sub", 0.0, v), _NOT_SERIES),
    "eval_kernel": (lambda v: eval_kernel(KernelSpec("conj_sub", 0.0, v), 0.1, 0.2), _NOT_SERIES),
    "conj_sub_quadrature": (lambda v: conj_sub_quadrature(v, 0.0, 0.1, 0.2), _NOT_SERIES),
}


@pytest.mark.parametrize("name", sorted(_TYPES))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_values_of_the_wrong_type_are_refused(name, data):
    build, bad = _TYPES[name]
    value = data.draw(bad)
    _all_refuse({name: lambda: build(value)}, value)


def test_numpy_numbers_build_the_symbols_python_numbers_build():
    assert MobiusSpec(a=np.float64(0.5), zeta=np.complex64(1j)) == MobiusSpec(a=0.5, zeta=1j)
    assert MobiusSpec(a=np.array(0.5 + 0.25j)) == MobiusSpec(a=0.5 + 0.25j)
    assert BlaschkeSpec(zeros=np.array([0.5, -0.5j]), zeta=-1) == BlaschkeSpec(zeros=[0.5, -0.5j], zeta=-1.0)
    assert MonomialSpec(n=np.int8(2), c=np.float32(0.5)) == MonomialSpec(n=2, c=0.5)
    a, b = PowerSeriesSymbol(np.arange(3), np.float32(0.25)), PowerSeriesSymbol([0.0, 1.0, 2.0], 0.25)
    assert _same(a, b) and type(a.tail_bound) is float
