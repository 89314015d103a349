"""Symbol tests: series conversions against closed forms, normalization, parsing."""

import tracemalloc
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from subbergman import symbols
from subbergman.symbols import (
    MONOMIAL_DEGREE_MAX,
    SERIES_TAIL_TOL,
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    _reciprocal_series,
    admissibility_check,
    bind_symbol,
    default_series_length,
    eval_exact,
    monomial_cnp_scale,
    normalize,
    parse_complex,
    parse_symbol,
    resolve_monomial,
    symbol_text,
    to_series,
)


def _disk_grid(rng, n, r_max=0.8):
    r = r_max * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def _mobius_exact(a, zeta, z):
    return zeta * (a - z) / (1.0 - np.conj(a) * z)


# ---------------------------------------------------------------------------
# series conversion against closed forms


@pytest.mark.parametrize("a", [0.0, 0.5, -0.3 + 0.4j, 0.9j])
def test_mobius_series_matches_closed_form(a):
    spec = MobiusSpec(a=a, zeta=1.0)
    series = to_series(spec, 200)
    z = _disk_grid(np.random.default_rng(1), 50)
    np.testing.assert_allclose(series.eval(z), _mobius_exact(a, 1.0, z), atol=1e-12)


@pytest.mark.parametrize("zeta", [1.0, -1.0, 1j, np.exp(0.7j)])
@pytest.mark.parametrize("a", [0.0, 0.5, -0.3 + 0.4j, 0.5 * np.exp(1j * np.pi / 16), 0.99j])
def test_mobius_is_the_one_zero_blaschke_product(a, zeta):
    mobius, blaschke = MobiusSpec(a=a, zeta=zeta), BlaschkeSpec(zeros=(a,), zeta=zeta)
    assert (mobius.zeros, mobius.degree) == (blaschke.zeros, blaschke.degree) == ((complex(a),), 1)
    for length in (1, 2, 7, 64, 1024):
        m, b = to_series(mobius, length), to_series(blaschke, length)
        assert np.array_equal(m.coeffs, b.coeffs) and m.tail_bound == b.tail_bound
    z = _disk_grid(np.random.default_rng(6), 50, r_max=0.999)
    assert np.array_equal(eval_exact(mobius, z), eval_exact(blaschke, z))
    assert eval_exact(mobius, z[0]) == eval_exact(blaschke, z[0])
    np.testing.assert_allclose(eval_exact(mobius, z), _mobius_exact(a, zeta, z), rtol=1e-13)
    assert default_series_length(mobius) == default_series_length(blaschke)


def test_blaschke_series_matches_factor_product():
    spec = BlaschkeSpec(zeros=(0.5, -0.3 + 0.2j, 0.0), zeta=1j)
    series = to_series(spec, 300)
    z = _disk_grid(np.random.default_rng(2), 50)
    expected = 1j * np.ones_like(z)
    for zero in spec.zeros:
        expected *= _mobius_exact(zero, 1.0, z)
    np.testing.assert_allclose(series.eval(z), expected, atol=1e-12)


def test_eval_exact_agrees_with_series_everywhere():
    rng = np.random.default_rng(3)
    z = _disk_grid(rng, 40, r_max=0.7)
    for spec in (
        MobiusSpec(a=0.4),
        BlaschkeSpec(zeros=(0.5, -0.5)),
        MonomialSpec(n=3, c=0.7),
        SingularInnerSpec(c=1.0),
    ):
        series = to_series(spec, default_series_length(spec))
        np.testing.assert_allclose(series.eval(z), eval_exact(spec, z), atol=1e-10)


def test_singular_series_head_and_modulus():
    # phi = exp(c(z+1)/(z-1)): phi(0) = e^{-c} exactly; |phi| < 1 inside
    spec = SingularInnerSpec(c=1.0)
    series = to_series(spec, 600)
    assert abs(series.coeffs[0] - np.exp(-1.0)) < 1e-16
    z = _disk_grid(np.random.default_rng(4), 30, r_max=0.9)
    assert np.all(np.abs(eval_exact(spec, z)) < 1.0)
    assert series.tail_bound == 1.0


@pytest.mark.parametrize("c", [0.1, 1.0, 5.0, 50.0])
def test_singular_series_matches_exact_laguerre_sums(c):
    # h_n = L_n^(-1)(2c) = sum_{k=1..n} C(n-1, n-k) (-2c)^k / k! for n >= 1, summed in
    # exact rationals at the binary value of c. The recurrence's error, relative to
    # max(1, max_{k<=n} |h_k|), was at most 1.1e-15 over these four masses (2.0e-13
    # at c = 50 for the convolution recurrence it replaced)
    x = -2 * Fraction(c)
    exact = [Fraction(1)] + [
        sum(comb(n - 1, n - k) * x**k / factorial(k) for k in range(1, n + 1)) for n in range(1, 81)
    ]
    want = np.array([float(h) for h in exact])
    got = to_series(SingularInnerSpec(c=c), 81).coeffs / np.exp(-c)
    scale = np.maximum(1.0, np.maximum.accumulate(np.abs(want)))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_rational_tail_bound_is_rigorous():
    # the documented error contract: |eval - exact| <= tail_bound r^{L+1}/(1-r)
    spec = BlaschkeSpec(zeros=(0.7, -0.6))
    for length in (32, 64, 128):
        series = to_series(spec, length)
        r = 0.85
        z = r * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 17)[:-1])
        err = np.max(np.abs(series.eval(z) - eval_exact(spec, z)))
        bound = series.tail_bound * r ** (length) / (1.0 - r)
        assert err <= bound + 1e-14


def test_series_truncation_is_prefix_stable():
    spec = BlaschkeSpec(zeros=(0.5, 0.2j))
    long = to_series(spec, 128)
    short = to_series(spec, 32)
    np.testing.assert_allclose(short.coeffs, long.coeffs[:32], rtol=0, atol=0)
    # re-truncating a series symbol keeps the prefix and grows the bound
    cut = to_series(long, 16)
    assert len(cut) == 16
    assert cut.tail_bound >= long.tail_bound


def test_unit_coefficient_bound_for_inner_symbols():
    # coefficients of a function bounded by 1 are bounded by 1
    for spec in (MobiusSpec(a=0.6), BlaschkeSpec(zeros=(0.5, -0.5, 0.3j)), SingularInnerSpec(c=0.5)):
        series = to_series(spec, 400)
        assert np.max(np.abs(series.coeffs)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# monomial scale


def test_monomial_cnp_scale_oracle():
    # c^2 = -(coefficient of x^n in (1-x)^{alpha+2}), by the product formula
    for n, alpha in ((2, -1.5), (3, -1.25), (2, -1.9)):
        s = alpha + 2.0
        c = 1.0
        for j in range(n):
            c *= (j - s) / (j + 1)
        assert abs(monomial_cnp_scale(n, alpha) - np.sqrt(-c)) < 1e-14


def test_monomial_scale_outside_range_rejected():
    with pytest.raises(ValueError):
        monomial_cnp_scale(2, -0.5)


def test_resolve_monomial_defers_by_alpha():
    spec = MonomialSpec(n=2)
    assert resolve_monomial(spec, -1.5).c == pytest.approx(np.sqrt(0.125))
    assert resolve_monomial(spec, 0.0).c == 1.0
    fixed = MonomialSpec(n=2, c=0.5)
    assert resolve_monomial(fixed, -1.5).c == 0.5


# ---------------------------------------------------------------------------
# normalization


def test_normalize_moebius_gives_identity_map():
    # phi_a o phi_a = id, so normalizing a Moebius map returns z itself
    series = to_series(MobiusSpec(a=0.5), 100)
    norm = normalize(series)
    assert norm.base_point == 0.5
    expected = np.zeros(100, dtype=complex)
    expected[1] = 1.0
    np.testing.assert_allclose(norm.psi.coeffs, expected, atol=1e-14)


def test_normalize_blaschke_pair_is_minus_z_squared():
    # B zeros {1/2,-1/2}: phi_{B(0)} o B = -z^2
    series = to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 120)
    norm = normalize(series)
    assert abs(norm.base_point - (-0.25)) < 1e-15
    expected = np.zeros(120, dtype=complex)
    expected[2] = -1.0
    np.testing.assert_allclose(norm.psi.coeffs, expected, atol=1e-12)


def test_normalize_is_idempotent():
    series = to_series(BlaschkeSpec(zeros=(0.3, 0.4j)), 90)
    once = normalize(series)
    assert abs(once.psi.coeffs[0]) < 1e-14
    twice = normalize(once.psi)
    assert twice.psi is once.psi  # base point 0 short-circuits
    assert twice.base_point == 0


def test_normalize_functional_equation():
    # psi = phi_a o phi pointwise, a = phi(0)
    series = to_series(SingularInnerSpec(c=0.7), 600)
    norm = normalize(series)
    rng = np.random.default_rng(5)
    z = _disk_grid(rng, 25, r_max=0.6)
    a = norm.base_point
    lhs = norm.psi.eval(z)
    rhs = _mobius_exact(a, 1.0, series.eval(z))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_normalize_g_factor():
    series = to_series(MobiusSpec(a=0.3), 80)
    norm = normalize(series)
    z = 0.2 + 0.1j
    a = norm.base_point
    expected = np.sqrt(1 - abs(a) ** 2) / (1 - np.conj(a) * series.eval(z))
    assert abs(norm.g(z) - expected) < 1e-14
    assert normalize(to_series(PowerSeriesSymbol(np.array([0, 0.5])), 8)).g(0.3) == 1.0


def test_normalize_rejects_boundary_constant():
    with pytest.raises(ValueError):
        normalize(PowerSeriesSymbol(np.array([1.0, 0.0])))


def _reciprocal_by_recurrence(d, length):
    # the term-by-term recurrence d_0 g_k = -sum_{j>=1} d_j g_{k-j}, the reference
    inv = np.zeros(length, dtype=complex)
    inv[0] = 1.0 / d[0]
    for k in range(1, length):
        m = min(k, len(d) - 1)
        j = np.arange(1, m + 1)
        inv[k] = -np.dot(d[j], inv[k - j]) / d[0]
    return inv


@pytest.mark.parametrize(
    "text, length",
    [
        ("singular c=1", 600),
        ("singular c=1", 800),
        ("mobius a=0.9", 307),
        ("blaschke zeros=0.5,-0.3+0.2i", 1024),
    ],
)
def test_reciprocal_series_matches_the_recurrence(text, length):
    # the denominator normalize divides by: 1 - conj(a) phi with a = phi(0)
    c = to_series(parse_symbol(text), length).coeffs
    d = -np.conj(c[0]) * c
    d[0] += 1.0
    want = _reciprocal_by_recurrence(d, length)
    got = _reciprocal_series(d, length)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9])
def test_reciprocal_series_of_a_short_denominator(length):
    # 1 / (1 - z/2) = sum 2^-k z^k, from a denominator shorter than the result
    got = _reciprocal_series(np.array([1.0, -0.5], dtype=complex), length)
    np.testing.assert_allclose(got, 0.5 ** np.arange(length), rtol=0, atol=1e-16)


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_accepts_inner_symbols():
    for spec in (MobiusSpec(a=0.5), BlaschkeSpec(zeros=(0.5, -0.5))):
        series = to_series(spec, 200)
        verdict = admissibility_check(series, 0.0)
        assert verdict.admissible
        assert verdict.sup_estimate <= 1.0 + 1e-8


def test_admissibility_rejects_expanding_symbol():
    series = PowerSeriesSymbol(np.array([0.0, 1.2]))
    verdict = admissibility_check(series, 0.0)
    assert not verdict.admissible
    assert verdict.sup_estimate > 1.1


def test_admissibility_below_hardy_uses_pick_sample():
    # for alpha < -1 the sup-norm alone is not sufficient: z^2 is contractive
    # on the grid, yet its sampled Pick matrix at alpha -1.5 is not PSD
    verdict = admissibility_check(to_series(MonomialSpec(n=2, c=1.0), 16), -1.5)
    assert verdict.sup_estimate <= 1.0
    assert not verdict.admissible
    # the monomial scaled for this alpha passes the Pick sample
    series = to_series(resolve_monomial(MonomialSpec(n=2), -1.5), 16)
    assert admissibility_check(series, -1.5).admissible
    # the same verdicts on the 8-term series every command binds
    _, bound = bind_symbol(MonomialSpec(n=2, c=1.0), -1.5)
    assert len(bound) == 8 and not admissibility_check(bound, -1.5).admissible
    _, bound = bind_symbol(MonomialSpec(n=2), -1.5)
    assert len(bound) == 8 and admissibility_check(bound, -1.5).admissible


def _grid_sup_reference(symbol, grid):
    """Reference sample grid and sup estimate of admissibility_check."""
    radii = 1.0 - np.geomspace(1.0, 1e-3, grid)
    angles = np.exp(2j * np.pi * np.arange(grid) / grid)
    pts = np.unique((radii[:, None] * angles[None, :]).ravel())
    vals = symbol.eval(pts)
    return pts, vals, float(np.max(np.abs(vals)))


def _admissibility_reference(symbol, alpha, grid, tolerance=1e-8):
    """Reference admissibility_check: the full outer product and a full eigvalsh."""
    pts, vals, sup = _grid_sup_reference(symbol, grid)
    admissible = sup <= 1.0 + tolerance
    if admissible and alpha < -1:
        zw = pts[:, None] * np.conj(pts)[None, :]
        m = (1.0 - vals[:, None] * np.conj(vals)[None, :]) * (1.0 - zw) ** -(2.0 + alpha)
        m = (m + m.conj().T) / 2.0
        admissible = float(np.linalg.eigvalsh(m)[0]) >= -1e-9 * max(1.0, float(np.trace(m).real))
    return admissible, sup


# (n, scaled): the monomial scaled for alpha is admissible below -1, the unit one is not
_MONOMIALS = [(2, True), (2, False), (3, True), (3, False)]


@pytest.mark.parametrize("alpha", [-1.9, -1.5, -1.2])
@pytest.mark.parametrize("n, scaled", _MONOMIALS)
def test_admissibility_below_hardy_matches_the_eigenvalue_rule(n, scaled, alpha):
    spec = resolve_monomial(MonomialSpec(n=n, c=None if scaled else 1.0), alpha)
    series = to_series(spec, default_series_length(spec))
    # pinned at the default grid, with the sup estimate bitwise unchanged
    verdict = admissibility_check(series, alpha)
    assert verdict.admissible is scaled
    assert verdict.sup_estimate == _grid_sup_reference(series, 32)[2]
    # the full eigensolve agrees on the coarse grid that cnp_scan uses
    coarse = admissibility_check(series, alpha, grid=16, tolerance=1e-6)
    assert (coarse.admissible, coarse.sup_estimate) == _admissibility_reference(series, alpha, 16, 1e-6)


def test_admissibility_below_hardy_memory():
    # the 241-point Pick sample of grid 16 is formed in row blocks straight into the
    # array that is factored, so the peak is that array and its Cholesky factor,
    # 2 x 0.89 MB (2.72 MB when the triangle was gathered, mirrored and copied)
    spec = resolve_monomial(MonomialSpec(n=2), -1.5)
    series = to_series(spec, default_series_length(spec))
    tracemalloc.start()
    try:
        verdict = admissibility_check(series, -1.5, grid=16, tolerance=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 2**20
    assert verdict.admissible
    assert (verdict.admissible, verdict.sup_estimate) == _admissibility_reference(series, -1.5, 16, 1e-6)


def test_admissibility_grid_minimum():
    with pytest.raises(ValueError):
        admissibility_check(PowerSeriesSymbol(np.array([0.0, 1.0])), 0.0, grid=8)


@pytest.mark.parametrize("tolerance", [0.0, -1e-8, np.nan, np.inf])
def test_admissibility_refuses_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        admissibility_check(PowerSeriesSymbol(np.array([0.0, 1.0])), 0.0, tolerance=tolerance)


# ---------------------------------------------------------------------------
# text round-trips


@pytest.mark.parametrize(
    "text",
    [
        "mobius a=0.5",
        "mobius a=0.3+0.2i zeta=-1",
        "blaschke zeros=0.5,-0.5",
        "blaschke zeros=0.5,-0.3+0.2i zeta=1",
        "monomial n=2",
        "monomial n=3 c=0.5",
        "singular c=1",
        "series 0,1",
        "series 0.1,0,-0.25+0.5i",
    ],
)
def test_parse_symbol_round_trip(text):
    spec = parse_symbol(text)
    again = parse_symbol(symbol_text(spec))
    if isinstance(spec, PowerSeriesSymbol):
        np.testing.assert_allclose(again.coeffs, spec.coeffs, atol=0)
    else:
        assert again == spec


def test_parse_complex_accepts_unicode_minus_and_i():
    assert parse_complex("−0.3+0.2i") == -0.3 + 0.2j
    assert parse_complex("1") == 1.0
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("-inf") == complex(-np.inf, 0)
    assert parse_complex("1-infi") == complex(1, -np.inf)


def test_parse_symbol_errors():
    with pytest.raises(ValueError):
        parse_symbol("wavelet a=1")
    with pytest.raises(ValueError):
        parse_symbol("mobius a=1.5")
    with pytest.raises(ValueError):
        parse_symbol("blaschke zeros=")
    with pytest.raises(ValueError, match="monomial degree"):
        parse_symbol("monomial n=1000000")


def test_spec_validation():
    with pytest.raises(ValueError):
        MobiusSpec(a=1.0)
    with pytest.raises(ValueError):
        BlaschkeSpec(zeros=())
    with pytest.raises(ValueError):
        MonomialSpec(n=0)
    assert MonomialSpec(n=MONOMIAL_DEGREE_MAX).n == MONOMIAL_DEGREE_MAX
    with pytest.raises(ValueError, match="monomial degree"):
        MonomialSpec(n=MONOMIAL_DEGREE_MAX + 1)
    with pytest.raises(ValueError):
        SingularInnerSpec(c=0.0)
    with pytest.raises(ValueError):
        MobiusSpec(a=0.5, zeta=2.0)
    with pytest.raises(ValueError):
        PowerSeriesSymbol(np.array([np.inf, 1.0]))


def test_default_series_length_policies():
    assert default_series_length(MonomialSpec(n=5, c=1.0)) == 8
    assert default_series_length(MonomialSpec(n=12, c=1.0)) == 13
    assert default_series_length(SingularInnerSpec(c=1.0)) == 600
    blaschke = default_series_length(BlaschkeSpec(zeros=(0.5,)))
    assert 64 <= blaschke <= 1024


def test_bind_symbol_binds_at_least_the_section_size():
    spec = SingularInnerSpec(c=1.0)
    _, short = bind_symbol(spec, 0.0, 400)
    _, long = bind_symbol(spec, 0.0, 800)
    assert len(short) == 600 and len(long) == 800
    np.testing.assert_array_equal(long.coeffs[:600], short.coeffs)


@pytest.mark.parametrize(
    "text, size, length",
    [
        # within SERIES_TAIL_TOL at the default length: neither extended nor padded
        ("mobius a=0.5", 400, 64),
        ("blaschke zeros=0.5,-0.5", 400, 64),
        ("series 0,1", 400, 2),
        ("monomial n=2 c=1", 16, 8),
        # the default misses the tolerance: extended to the section size
        ("mobius a=0.9", 400, 400),
        ("singular c=1", 800, 800),
    ],
)
def test_bind_symbol_extends_only_past_the_tail_tolerance(text, size, length):
    spec = parse_symbol(text)
    _, series = bind_symbol(spec, 0.0, size)
    assert len(series) == length
    default = to_series(spec, default_series_length(spec))
    assert (default.tail_bound > SERIES_TAIL_TOL) == (length > len(default))
    np.testing.assert_array_equal(series.coeffs[: len(default)], default.coeffs)


def test_series_eval_rejects_boundary_points():
    series = PowerSeriesSymbol(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        series.eval(1.0)


def _disk_points(rng, shape, r_max=0.999):
    r = r_max * np.sqrt(rng.uniform(size=shape))
    return r * np.exp(2j * np.pi * rng.uniform(size=shape))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
@pytest.mark.parametrize("length", [1, 2, 3, 8, 64, 600, 1024])
@pytest.mark.parametrize("shape", [(), (1,), (10,), (241,), (4096,), (10, 1), (1, 10)])
def test_series_eval_is_within_the_horner_bound(length, shape):
    # the baby-step giant-step evaluator against Horner in long double, held to
    # Horner's own a-priori bound 2 L eps sum |c_k| |z|^k; the points reach |z| = 0.999
    rng = np.random.default_rng([length, len(shape), int(np.prod(shape))])
    c = rng.normal(size=length) + 1j * rng.normal(size=length)
    z = _disk_points(rng, shape)
    got = PowerSeriesSymbol(c).eval(z)
    assert np.shape(got) == shape and isinstance(got, complex) == (shape == ())
    _assert_within_horner_bound(c, z, got)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
@pytest.mark.parametrize("text", ["singular c=1", "mobius a=0.99"])
def test_bound_series_eval_near_the_boundary_is_within_the_horner_bound(text):
    # the two longest default series: 600 terms with tail bound 1, and the 1024-term cap
    _, series = bind_symbol(parse_symbol(text), 0.0)
    z = _disk_points(np.random.default_rng(0), 4096)
    z[0] = 0.999
    _assert_within_horner_bound(series.coeffs, z, series.eval(z))


def _assert_within_horner_bound(c, z, got):
    """got against Horner in long double, held to Horner's a-priori bound 2 L eps sum |c_k| |z|^k."""
    ref = np.zeros(np.shape(z), dtype=np.clongdouble)
    zl = np.asarray(z, dtype=np.clongdouble)
    for ck in c[::-1].astype(np.clongdouble):
        ref = ref * zl + ck
    bound = 2 * len(c) * np.finfo(float).eps * np.polyval(np.abs(c)[::-1], np.abs(z))
    err = np.abs(np.asarray(got, dtype=np.clongdouble) - ref)
    assert np.all(err <= bound), float(np.max(err / bound))


def test_series_eval_memory_does_not_grow_with_points_times_length():
    import tracemalloc

    rng = np.random.default_rng(3)
    series = PowerSeriesSymbol(rng.normal(size=1025) + 1j * rng.normal(size=1025))
    z = _disk_points(rng, 10**5)
    tracemalloc.start()
    try:
        series.eval(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1.6 MB result and the 0.8 MB |z| check, plus one block's temporaries
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("size", [0, 400, 600, 800])
def test_bind_symbol_builds_a_singular_series_once(monkeypatch, size):
    spec = SingularInnerSpec(c=1.0)
    want = to_series(spec, max(600, size))
    calls = []

    def counting(*args):
        calls.append(args)
        return to_series(*args)

    monkeypatch.setattr(symbols, "to_series", counting)
    _, series = bind_symbol(spec, 0.0, size)
    assert len(calls) == 1
    assert series.coeffs.tobytes() == want.coeffs.tobytes() and series.tail_bound == want.tail_bound
