"""Kernel tests: closed forms, positivity, dual-route cross-validation.

Every kernel has at least two independent evaluation routes in these tests:
the Bergman kernel against its power series, the conjugate sub-Bergman
kernel against disk quadrature and against an explicit closed form for the
shift, and the rescaling identity against direct evaluation on both sides.
"""

import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subbergman
from subbergman import kernels, operators
from subbergman.kernels import (
    CONJ_SUB_VALUE_TOL,
    KINDS,
    KernelSpec,
    _conj_sub_truncation,
    _gauss_jacobi,
    conj_sub_quadrature,
    eval_kernel,
    rescaling_check,
)
from subbergman.cnp import build_pick
from subbergman.harness import boundary_ratio_check
from subbergman.operators import _band_route, _defect_form, _defect_rows, normalized_kernel_coeffs
from subbergman.scalars import _powers, as_weight, basis_weights
from subbergman.symbols import (
    BlaschkeSpec,
    MobiusSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    bind_symbol,
    eval_exact,
    parse_symbol,
    to_series,
)

SHIFT = PowerSeriesSymbol(np.array([0.0, 1.0]))


def _pairs(rng, n, r_max):
    z = r_max * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    w = r_max * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return z, w


@pytest.mark.parametrize("alpha", [-1.5, -1.0, -0.5, 0.0, 1.0])
def test_bergman_closed_form_matches_series(alpha):
    # K(z,w) = sum w_n (z conj(w))^n, summed far past convergence
    spec = KernelSpec("bergman", alpha)
    z, w = _pairs(np.random.default_rng(1), 25, 0.7)
    weights = basis_weights(alpha, 400)
    x = z * np.conj(w)
    series = np.sum(weights[None, :] * x[:, None] ** np.arange(401)[None, :], axis=1)
    np.testing.assert_allclose(eval_kernel(spec, z, w), series, rtol=1e-10)


def test_kernel_hermitian_symmetry():
    series = to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 200)
    for kind in ("bergman", "sub", "conj_sub"):
        spec = KernelSpec(kind, 0.0, series)
        z, w = _pairs(np.random.default_rng(2), 10, 0.6)
        kzw = eval_kernel(spec, z, w)
        kwz = eval_kernel(spec, w, z)
        np.testing.assert_allclose(kzw, np.conj(kwz), atol=1e-12)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_sub_kernel_gram_matrices_are_psd(alpha):
    # reproducing kernels have PSD Gram matrices regardless of the CNP question
    series = to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 200)
    spec = KernelSpec("sub", alpha, series)
    pts = _pairs(np.random.default_rng(3), 20, 0.9)[0]
    k = eval_kernel(spec, pts[:, None], pts[None, :])
    k = (k + k.conj().T) / 2.0
    lam = np.linalg.eigvalsh(k)
    assert lam[0] >= -1e-10 * max(1.0, float(np.trace(k).real))


def test_sub_kernel_vanishing_normalization():
    # K(z, 0) = 1 exactly once the symbol fixes the origin
    series = to_series(MobiusSpec(a=0.0), 8)  # phi(z) = -z
    spec = KernelSpec("sub", 0.0, series)
    z = np.array([0.1, 0.5j, -0.3 + 0.2j])
    np.testing.assert_allclose(eval_kernel(spec, z, np.zeros(3)), 1.0, atol=1e-14)


def test_conj_sub_shift_closed_form():
    # shift at alpha = 0: I - T*T = diag(1/(k+2)), e_k = sqrt(k+1) z^k, so
    # K(z,w) = sum (k+1)/(k+2) x^k = 1/(1-x) + (x + log(1-x))/x^2, x = z conj(w)
    spec = KernelSpec("conj_sub", 0.0, SHIFT)
    z, w = _pairs(np.random.default_rng(4), 15, 0.7)
    x = z * np.conj(w)
    expected = 1.0 / (1.0 - x) + (x + np.log(1.0 - x)) / x**2
    np.testing.assert_allclose(eval_kernel(spec, z, w), expected, atol=1e-10)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_conj_sub_coefficients_vs_quadrature(alpha):
    series = to_series(BlaschkeSpec(zeros=(0.5,)), 128)
    spec = KernelSpec("conj_sub", alpha, series)
    z, w = _pairs(np.random.default_rng(5), 10, 0.7)
    coeff_route = eval_kernel(spec, z, w)
    quad_route = conj_sub_quadrature(series, alpha, z, w)
    np.testing.assert_allclose(coeff_route, quad_route, atol=1e-6)


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.7])
@pytest.mark.parametrize("text", ["mobius a=0.5", "blaschke zeros=0.5,-0.5"])
def test_conj_sub_quadrature_at_half_integer_and_general_alpha(text, alpha):
    # the half-integer and general kernel powers, which the kernel-eval benchmark
    # (alpha 0 and 1) never runs, match the coefficient route within its stated
    # tolerance at |z|, |w| <= 0.9, one pair at 0.9; a batch over the budget is refused
    _, series = bind_symbol(parse_symbol(text), alpha)
    rng = np.random.default_rng(0)
    r = np.append(0.9 * np.sqrt(rng.uniform(size=(2, 7))), [[0.9], [0.9]], axis=1)
    z, w = r * np.exp(2j * np.pi * rng.uniform(size=r.shape))
    quad = conj_sub_quadrature(series, alpha, z, w)
    coeff_route = eval_kernel(KernelSpec("conj_sub", alpha, series), z, w)
    assert np.max(np.abs(quad - coeff_route)) <= CONJ_SUB_VALUE_TOL
    with pytest.raises(ValueError, match="split the batch"):
        conj_sub_quadrature(series, alpha, np.broadcast_to(0.3 + 0j, (10**5,)), 0.2)


def _quadrature_reference(symbol, alpha, z, w):
    """The quadrature rule in one shot: every grid node of every pair in one array.

    phi comes from a Fourier matrix of the nonzero coefficients, and the two
    factors of the integrand take separate complex powers.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n_radial, n_angular = 128, 256
    x, wts = _gauss_jacobi(n_radial, alpha)
    r = np.sqrt((x + 1.0) / 2.0)
    j = np.arange(n_angular)
    u = r[:, None] * np.exp(2j * np.pi * j / n_angular)[None, :]
    k = np.flatnonzero(symbol.coeffs)
    fourier = np.exp(2j * np.pi * (np.outer(k, j) % n_angular) / n_angular)
    dens = 1.0 - np.abs((symbol.coeffs[k] * r[:, None] ** k) @ fourier) ** 2
    scale = (alpha + 1.0) * 2.0 ** (-(1.0 + alpha)) / n_angular
    s = 2.0 + alpha
    f = dens / ((1.0 - z[..., None, None] * np.conj(u)) ** s * (1.0 - u * np.conj(w[..., None, None])) ** s)
    return scale * np.sum(wts[:, None] * f, axis=(-2, -1))


def test_conj_sub_quadrature_work_budget_and_memory():
    # pairs x 128 x 256 nodes are priced against WORK_BUDGET (1525 pairs)
    # before any compute, so 10^5 broadcast pairs are refused without
    # allocating even one array of their size (1.6 MB)
    z = np.broadcast_to(np.complex128(0.3), (10**5,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="split the batch") as info:
            conj_sub_quadrature(SHIFT, 0.0, z, 0.2)
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        k = conj_sub_quadrature(SHIFT, 0.0, z[:1000], 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "100000 pair(s)" in str(info.value) and "work budget 5e+07" in str(info.value)
    assert refused_peak < 2**20
    # blocks over pairs and nodes; the one-shot rule needs about 3 GB here
    assert peak < 16 * 2**20
    np.testing.assert_allclose(k, conj_sub_quadrature(SHIFT, 0.0, 0.3, 0.2), rtol=1e-13)
    with pytest.raises(ValueError, match="1526 pair"):
        conj_sub_quadrature(SHIFT, 0.0, z[:1526], 0.2)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is no wider than double here"
)
@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 0.5, 1.7])
@pytest.mark.parametrize(
    "text, r_out", [("mobius a=0.5", 0.98), ("blaschke zeros=0.5,-0.5", 0.98), ("singular c=1", 0.95)]
)
def test_fft_band_apply_matches_a_long_double_band_loop(text, r_out, alpha):
    # a batch built as the kernel-eval benchmark builds one: a pair at the
    # outer radius, two inside 0.9, three beyond, and every pair swapped
    _, series = bind_symbol(parse_symbol(text), alpha)
    rng = np.random.default_rng(23)
    r = np.concatenate([[r_out], rng.uniform(0.1, 0.9, 2), rng.uniform(0.9, r_out, 3)])
    z = r * np.exp(2j * np.pi * rng.uniform(size=6))
    w = np.append(r_out, rng.uniform(0.1, r_out, 5)) * np.exp(2j * np.pi * rng.uniform(size=6))
    z, w = np.concatenate([z, w]), np.concatenate([w, z])
    a = as_weight(alpha)
    n, _ = _conj_sub_truncation(series, a, z, w)
    sq = np.sqrt(basis_weights(a, _defect_rows(series, n, "conj") - 1))
    x = sq[:n] * _powers(np.conj(z), n)
    y = sq[:n] * _powers(np.conj(w), n)
    assert _band_route(series, n, "conj")[2]  # the FFT route
    got = _defect_form(series, n, "conj", x, y, sq)
    ld = sq.astype(np.longdouble)

    def band(v):
        u = v.astype(np.clongdouble) * ld[:n]
        out = np.zeros((len(u), len(ld)), dtype=np.clongdouble)
        for j in np.flatnonzero(series.coeffs):
            out[:, j : j + n] += series.coeffs[j] * u
        return out / ld

    xl, yl = x.astype(np.clongdouble), y.astype(np.clongdouble)
    want = np.sum(np.conj(xl) * yl, axis=-1) - np.sum(np.conj(band(x)) * band(y), axis=-1)
    scale = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.7])
def test_conj_sub_long_band_batch_is_hermitian_and_matches_single_pairs(alpha):
    # the 600-term singular c=1 band goes by FFT at half-integer and general alpha;
    # every pair also comes swapped, one sits at the outer radius 0.95, and each
    # single pair settles at its own basis size
    _, series = bind_symbol(SingularInnerSpec(c=1.0), alpha)
    spec = KernelSpec("conj_sub", alpha, series)
    rng = np.random.default_rng(0)
    r = 0.95 * np.sqrt(rng.uniform(size=(2, 6)))
    r[:, 0] = 0.95
    z, w = r * np.exp(2j * np.pi * rng.uniform(size=r.shape))
    z, w = np.concatenate([z, w]), np.concatenate([w, z])
    k = eval_kernel(spec, z, w)
    kzw, kwz = np.split(k, 2)
    assert np.all(np.abs(kzw - np.conj(kwz)) <= 1e-10 * np.maximum(1.0, np.abs(kzw)))
    single = np.array([eval_kernel(spec, a, b) for a, b in zip(z, w)])
    assert np.max(np.abs(k - single)) <= 2 * CONJ_SUB_VALUE_TOL


def test_conj_sub_long_band_batch_memory():
    # 60 pairs of the 600-term singular c=1 series at radius 0.95 settle at
    # n = 582 with 1181 rows of S; the FFT runs over blocks of 27 vectors, so
    # the peak stays below the 150 bytes per pair and basis element that one
    # np.convolve per vector took
    _, series = bind_symbol(SingularInnerSpec(c=1.0), 0.0)
    spec = KernelSpec("conj_sub", 0.0, series)
    z = 0.95 * np.exp(2j * np.pi * np.random.default_rng(4).uniform(size=60))
    w = z[::-1].copy()
    eval_kernel(spec, z[:1], w[:1])  # numpy.fft's first use allocates its caches
    n, _ = _conj_sub_truncation(series, spec.alpha, z, w)
    tracemalloc.start()
    try:
        k = eval_kernel(spec, z, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 582
    assert peak <= 150 * z.size * n
    np.testing.assert_allclose(k, np.conj(k[::-1]), rtol=0, atol=1e-10 * np.max(np.abs(k)))


def test_conj_sub_sparse_long_band_batch_memory():
    # 300 pairs of z/2 + z^2000/2 at |z| = 0.1 settle at n = 9 on the band
    # loop, but S has 2008 rows; the apply and both sums run 16 vectors at a
    # time, so the peak does not grow with the batch (29 MB when they ran
    # over all 300 at once)
    c = np.zeros(2001, dtype=complex)
    c[1] = c[2000] = 0.5
    spec = KernelSpec("conj_sub", 0.0, PowerSeriesSymbol(c))
    z = 0.1 * np.exp(2j * np.pi * np.arange(300) / 300)
    w = z[::-1].copy()
    n, _ = _conj_sub_truncation(spec.symbol, spec.alpha, z, w)
    assert n == 9 and not _band_route(spec.symbol, n, "conj")[2]
    tracemalloc.start()
    try:
        k = eval_kernel(spec, z, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    np.testing.assert_array_equal(k[:16], eval_kernel(spec, z[:16], w[:16]))
    np.testing.assert_allclose(k, np.conj(k[::-1]), rtol=0, atol=1e-12 * np.max(np.abs(k)))


@pytest.mark.parametrize(
    "kind, alpha, symbol", [("bergman", 1e300, None), ("sub", 1e6, PowerSeriesSymbol(np.array([0.0, 1.0])))]
)
def test_overflowing_kernel_value_is_refused(kind, alpha, symbol):
    # (1 - z conj w)^-(2 + alpha) overflows at these alphas; the value is refused,
    # not returned as inf or nan, and numpy's overflow warnings stay silent
    spec = KernelSpec(kind, alpha, symbol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{kind} kernel at alpha {alpha:g} overflows")):
            eval_kernel(spec, 0.1, 0.2)
        with pytest.raises(ValueError, match="overflows"):
            eval_kernel(spec, [0.0, 0.1], [0.0, 0.2])
    assert np.isfinite(eval_kernel(spec, 0.0, 0.2))  # 1^-(2 + alpha) is finite


def _conj_sub_at(symbol, alpha, n, z, w):
    """x* E y at basis size n, E the n x n block of I - T*T, x and y the kernel vectors."""
    sq = np.sqrt(basis_weights(alpha, _defect_rows(symbol, n, "conj") - 1))
    x = sq[:n] * _powers(np.conj(np.asarray(z, dtype=complex)), n)
    y = sq[:n] * _powers(np.conj(np.asarray(w, dtype=complex)), n)
    return _defect_form(symbol, n, "conj", x, y, sq)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize(
    "spec",
    [MobiusSpec(a=0.5), BlaschkeSpec(zeros=(0.5, -0.5)), SingularInnerSpec(c=1.0)],
    ids=["mobius", "blaschke", "singular"],
)
def test_conj_sub_truncation_bound_holds(spec, alpha):
    # the stated bound covers the change from the chosen n to 4n, and for
    # rational symbols the distance to the quadrature route at |z| <= 0.9.
    # The pairs are off the diagonal: at z = w the rounding of the two
    # O(||x||^2) sums alone reaches 1.5e-8 at alpha 1, radius 0.999.
    _, series = bind_symbol(spec, alpha)
    for r in (0.5, 0.9, 0.98, 0.999):
        z, w = r * np.exp(0.3j), r * np.exp(-1.1j)
        n, bound = _conj_sub_truncation(series, as_weight(alpha), z, w)
        assert bound <= CONJ_SUB_VALUE_TOL
        k = eval_kernel(KernelSpec("conj_sub", alpha, series), z, w)
        assert abs(k - _conj_sub_at(series, alpha, 4 * n, z, w)) <= bound
        if r <= 0.9 and not isinstance(spec, SingularInnerSpec):
            assert abs(k - conj_sub_quadrature(series, alpha, z, w)) <= bound


def test_conj_sub_makes_one_defect_form_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _defect_form(*args, **kwargs)

    monkeypatch.setattr(operators, "_defect_form", counted)
    spec = KernelSpec("conj_sub", 0.0, to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 64))
    z, w = _pairs(np.random.default_rng(8), 6, 0.95)
    k = eval_kernel(spec, z, w)
    eval_kernel(spec, 0.98, 0.1j)
    # each call at the basis size the truncation helper picks for it
    n = [_conj_sub_truncation(spec.symbol, spec.alpha, *pair)[0] for pair in ((z, w), (0.98, 0.1j))]
    assert calls == n
    # an empty batch needs no basis at all
    assert eval_kernel(spec, np.zeros(0), np.zeros(0)).shape == (0,)
    assert eval_kernel(spec, np.zeros((0, 3)), 0.5).shape == (0, 3)
    assert len(calls) == 2
    # the oracle, through _defect_form, after the count
    np.testing.assert_array_equal(k, _conj_sub_at(spec.symbol, 0.0, n[0], z, w))


def test_conj_sub_work_budget_refuses_before_compute(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the weights or _defect_form ran for a request over the budget")

    monkeypatch.setattr(operators, "_defect_form", refuse)
    monkeypatch.setattr(operators, "basis_weights", refuse)
    spec = KernelSpec("conj_sub", 0.0, SHIFT)
    # the shift needs n = 33639 at 0.999, so 1000 pairs cost 1000 x n x 33 > 5e7
    with pytest.raises(ValueError, match="work budget") as info:
        eval_kernel(spec, np.full(1000, 0.999), 0.5)
    assert "radius 0.999 " in str(info.value)
    with pytest.raises(ValueError, match="work budget"):
        eval_kernel(spec, 1 - 1e-12, 0.0)
    # the price is exact integer arithmetic: 10^4 pairs x n = 4.8e13 x 33 passes
    # and n past 2^63 at the last float below 1 are refused, not wrapped
    for r in (1 - 1e-12, np.nextafter(1.0, 0.0)):
        with pytest.raises(ValueError, match="work budget"):
            eval_kernel(spec, np.full(10**4, r), 0.5)


def test_conj_sub_band_route_price_edge():
    # the shift has one diagonal, so it runs on the band loop at 1 + 32 passes:
    # at |z| = 0.999, w = 0.5 it needs n = 26912, so 56 pairs cost 4.97e7 and 57 exceed 5e7
    spec = KernelSpec("conj_sub", 0.0, SHIFT)
    z = np.full(57, 0.999 + 0j)
    assert _conj_sub_truncation(SHIFT, spec.alpha, z, 0.5)[0] == 26912
    k = eval_kernel(spec, z[:56], 0.5)
    assert np.all(k == k[0]) and abs(k[0] - eval_kernel(spec, 0.999, 0.5)) <= 1e-12 * abs(k[0])
    with pytest.raises(ValueError, match="work budget") as info:
        eval_kernel(spec, z, 0.5)
    assert "57 pair(s) x n x 33 passes" in str(info.value) and "n = 26912" in str(info.value)


def test_conj_sub_long_band_is_priced_by_its_fft():
    # singular c=1 at radius 0.9 settles at n = 270 on the FFT route (N = 960):
    # ceil(960 / 270) x 10 + 32 = 72 passes, so 2572 pairs fit the budget where
    # the price of one pass per nonzero diagonal (599 + 32) refused every batch past 293
    _, series = bind_symbol(SingularInnerSpec(c=1.0), 0.0)
    spec = KernelSpec("conj_sub", 0.0, series)
    z = 0.9 * np.exp(2j * np.pi * np.random.default_rng(6).uniform(size=2572))
    w = z[::-1].copy()
    assert _conj_sub_truncation(series, spec.alpha, z, w)[0] == 270
    k = eval_kernel(spec, z, w)
    np.testing.assert_allclose(k, np.conj(k[::-1]), rtol=0, atol=1e-10 * np.max(np.abs(k)))
    with pytest.raises(ValueError, match="2573 pair"):
        eval_kernel(spec, np.append(z, 0.9), np.append(w, 0.9))


def test_conj_sub_rejects_nonintegrable_alpha():
    with pytest.raises(ValueError):
        KernelSpec("conj_sub", -1.0, SHIFT)
    with pytest.raises(ValueError):
        conj_sub_quadrature(SHIFT, -1.5, 0.1, 0.2)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.0, 3.0])
def test_gauss_jacobi_rule_matches_scipy(alpha):
    # the one test-only scipy oracle; it skips where scipy is missing or fails to import
    reason = "the roots_jacobi oracle needs scipy"
    special = pytest.importorskip("scipy.special", reason=reason, exc_type=ImportError)
    x, w = _gauss_jacobi(128, alpha)
    x_ref, w_ref = special.roots_jacobi(128, alpha, 0.0)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w, w_ref, rtol=1e-9, atol=0)
    # cached per (n, alpha) and shared, hence read-only
    assert _gauss_jacobi(128, alpha)[0] is x
    assert not x.flags.writeable and not w.flags.writeable


def test_runtime_imports_no_scipy():
    src = str(Path(subbergman.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import subbergman, subbergman.cli\n"
        "from subbergman.kernels import conj_sub_quadrature\n"
        "from subbergman.symbols import PowerSeriesSymbol\n"
        "conj_sub_quadrature(PowerSeriesSymbol([0.0, 1.0]), 0.5, 0.1, 0.2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan), complex(-np.inf, 0.2)], ids=str)
def test_non_finite_points_are_refused(bad):
    # abs(nan) >= 1 is False, so every disk test is written as "not < 1"
    spec = MobiusSpec(a=0.5)
    series = to_series(spec, 64)
    pts = np.array([0.1, bad])
    refusals = {
        "eval": lambda: series.eval(pts),
        "eval_exact": lambda: eval_exact(spec, pts),
        "normalized_kernel_coeffs": lambda: normalized_kernel_coeffs(0.0, pts, 8),
        "build_pick": lambda: build_pick(series, 0.0, pts),
        "conj_sub_quadrature": lambda: conj_sub_quadrature(series, 0.0, pts, 0.2),
        "MobiusSpec": lambda: MobiusSpec(a=bad),
        "BlaschkeSpec": lambda: BlaschkeSpec(zeros=(0.5, bad)),
        "boundary_ratio_check": lambda: boundary_ratio_check(series, [0.5, abs(bad)], 4),
    }
    for name, call in refusals.items():
        with pytest.raises(ValueError, match="finite|inside|strictly"):
            call()
            pytest.fail(f"{name} accepted {bad}")


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("hardy", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("sub", 0.0)  # symbol required
    with pytest.raises(ValueError):
        eval_kernel(KernelSpec("bergman", 0.0), 1.0, 0.5)  # boundary point


def _normalized_kernel_at(alpha, a, n, z):
    # k_a(z) = sum_m c_m e_m(z) with e_m = sqrt(w_m) z^m, truncated to n terms
    c = normalized_kernel_coeffs(alpha, a, n)
    return np.sum(c * np.sqrt(basis_weights(alpha, n - 1)) * z ** np.arange(n))


def test_normalized_kernel_unit_norm_via_gram():
    # the monomial coefficients sqrt(w_m) c_m of k_a have unit norm, and the
    # partial sums match k_a(z) = (1-|a|^2)^((2+alpha)/2) (1 - z conj(a))^-(2+alpha)
    a = 0.5 + 0.3j
    n = 500
    z = 0.4 - 0.1j
    for alpha in (-0.5, 0.0, 1.0):
        w = basis_weights(alpha, n - 1)
        monomial = normalized_kernel_coeffs(alpha, a, n) * np.sqrt(w)
        assert abs(np.sum(np.abs(monomial) ** 2 / w) - 1.0) < 1e-10
        s = 2.0 + alpha
        closed = (1.0 - abs(a) ** 2) ** (s / 2.0) / (1.0 - z * np.conj(a)) ** s
        assert abs(_normalized_kernel_at(alpha, a, n, z) - closed) < 1e-10


def test_normalized_kernel_peaks_at_base_point():
    # k_a(a) = sqrt(K(a,a)) = (1-|a|^2)^{-(2+alpha)/2}
    assert abs(_normalized_kernel_at(0.0, 0.6, 200, 0.6) - (1 - 0.36) ** -1.0) < 1e-12


@pytest.mark.parametrize("alpha", [-1.5, -0.5, 0.0, 1.0])
def test_rescaling_identity_across_symbols(alpha):
    rng = np.random.default_rng(6)
    pts = 0.9 * np.sqrt(rng.uniform(size=10)) * np.exp(2j * np.pi * rng.uniform(size=10))
    for spec in (MobiusSpec(a=0.5), BlaschkeSpec(zeros=(0.5, -0.5)), SingularInnerSpec(c=1.0)):
        series = to_series(spec, 600 if isinstance(spec, SingularInnerSpec) else 200)
        assert rescaling_check(series, alpha, pts) < 1e-8


def test_rescaling_check_needs_two_points():
    with pytest.raises(ValueError):
        rescaling_check(to_series(MobiusSpec(a=0.5), 100), 0.0, [0.1])


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0])
def test_mobius_factorization_in_range(alpha):
    # for a Moebius phi the sub-Bergman kernel factors as
    # (1-|a|^2) / ((1 - conj(a) z)(1 - a conj(w))) (1 - z conj(w))^-(1+alpha)
    rng = np.random.default_rng(7)
    pts = 0.8 * np.sqrt(rng.uniform(size=12)) * np.exp(2j * np.pi * rng.uniform(size=12))
    z, w = pts[:, None], pts[None, :]
    for a, zeta in ((0.5, 1.0), (0.3j, -1.0)):
        _, series = bind_symbol(MobiusSpec(a=a, zeta=zeta), alpha)
        lhs = eval_kernel(KernelSpec("sub", alpha, series), z, w)
        rhs = (
            (1.0 - abs(a) ** 2)
            / ((1.0 - np.conj(a) * z) * (1.0 - a * np.conj(w)))
            * (1.0 - z * np.conj(w)) ** (-(1.0 + alpha))
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_eval_kernel_broadcasts():
    spec = KernelSpec("bergman", 0.0)
    z = np.array([0.1, 0.2, 0.3])[:, None]
    w = np.array([0.0, 0.4j])[None, :]
    out = eval_kernel(spec, z, w)
    assert out.shape == (3, 2)
    assert complex(out[0, 0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# properties over arbitrary points (hypothesis)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
BLASCHKE = to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 64)
ANY_POINT = st.one_of(
    st.complex_numbers(max_magnitude=0.99),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.0, -1j, complex(1.0, 1e-300), 1 - 1e-12, complex("nan+1j"), complex("-infj")]),
)


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    alpha=st.sampled_from([-0.5, 0.0, 1.0]),
    pairs=st.lists(st.tuples(ANY_POINT, ANY_POINT), max_size=3),
)
def test_eval_kernel_raises_value_error_or_is_finite(kind, alpha, pairs):
    spec = KernelSpec(kind, alpha, BLASCHKE)
    z = np.array([p[0] for p in pairs], dtype=complex)
    w = np.array([p[1] for p in pairs], dtype=complex)
    try:
        out = eval_kernel(spec, z, w)
    except ValueError:
        assert not np.all(np.abs(np.concatenate([z, w])) < 1) or kind == "conj_sub"
        return
    assert np.all(np.isfinite(out)) and np.shape(out) == z.shape


@PROPERTY_SETTINGS
@given(
    alpha=st.sampled_from([-0.5, 0.0, 1.0]),
    z=st.complex_numbers(max_magnitude=0.99),
    w=st.complex_numbers(max_magnitude=0.99),
)
def test_conj_sub_is_hermitian(alpha, z, w):
    spec = KernelSpec("conj_sub", alpha, BLASCHKE)
    k = eval_kernel(spec, z, w)
    assert abs(k - np.conj(eval_kernel(spec, w, z))) <= 1e-10 * max(1.0, abs(k))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.one_of(st.sampled_from([0.0, 1.0, 2.0, -0.5, 0.5, 1.5]), st.floats(-0.95, 2.5)),
    length=st.sampled_from([1, 2, 64, 255, 256, 257, 600]),
    shapes=st.sampled_from([((), ()), ((), (5,)), ((5,), (5,)), ((3, 1), (1, 4)), ((0,), ()), ((0, 3), (3,))]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conj_sub_quadrature_matches_the_one_shot_rule(alpha, length, shapes, seed):
    # integer, half-integer and general alpha; series below, at and past the
    # 256 angular nodes, where the coefficients fold onto k mod 256
    rng = np.random.default_rng(seed)
    c = rng.normal(size=length) + 1j * rng.normal(size=length)
    series = PowerSeriesSymbol(c / np.sum(np.abs(c)))
    z, w = (0.9 * np.sqrt(rng.uniform(size=sh)) * np.exp(2j * np.pi * rng.uniform(size=sh)) for sh in shapes)
    k = conj_sub_quadrature(series, alpha, z, w)
    ref = _quadrature_reference(series, alpha, z, w)
    assert isinstance(k, complex) if ref.ndim == 0 else k.shape == ref.shape
    assert np.all(np.abs(k - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
