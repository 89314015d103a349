"""Weight and binomial-coefficient tests against independent Gamma-function oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subbergman import scalars
from subbergman.scalars import (
    WeightParameter,
    _hermitian_gram,
    _neg_power,
    _powers,
    _psd_within,
    as_weight,
    basis_weights,
    binomial_coeffs,
)


def _weights_gammaln(alpha: float, n_max: int) -> np.ndarray:
    """Oracle: w_n = Gamma(n+2+alpha)/(n! Gamma(2+alpha)) via log-Gamma (every Gamma here is positive)."""
    log_w = [math.lgamma(n + 2 + alpha) - math.lgamma(n + 1) - math.lgamma(2 + alpha) for n in range(n_max + 1)]
    return np.exp(log_w)


def _binom_product(s: float, n_max: int) -> np.ndarray:
    """Oracle: Taylor coefficients of (1-x)^s by the plain product formula."""
    c = np.empty(n_max + 1)
    c[0] = 1.0
    for n in range(n_max):
        c[n + 1] = c[n] * (n - s) / (n + 1)
    return c


@pytest.mark.parametrize("alpha", [-1.5, -1.0, -0.5, 0.0, 1.0, 2.7])
def test_basis_weights_match_gammaln(alpha):
    w = basis_weights(alpha, 150)
    np.testing.assert_allclose(w, _weights_gammaln(alpha, 150), rtol=1e-12)


def test_weights_alpha_zero_are_integers():
    # w_n = n+1 exactly at alpha = 0
    w = basis_weights(0.0, 300)
    assert np.array_equal(w, np.arange(1.0, 302.0))


def test_weights_hardy_are_ones():
    w = basis_weights(-1.0, 100)
    assert np.array_equal(w, np.ones(101))


def test_weights_survive_large_n():
    # direct Gamma evaluation overflows near n ~ 170; the recurrence must not
    w = basis_weights(1.0, 5000)
    assert np.all(np.isfinite(w))
    assert w[-1] > 0


def test_weight_ratio_recurrence_exact():
    a = 0.7
    w = basis_weights(a, 50)
    for n in range(50):
        assert w[n + 1] == w[n] * (n + 2 + a) / (n + 1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision long double")
@pytest.mark.parametrize("n", [1, 2, 5, 1600, 40000])
def test_powers_match_the_complex_power(n):
    # numpy's complex power goes through exp and log from exponent 100 on,
    # which in double precision is off by 1.7e-13 at n = 40000; taken in
    # long double it is the oracle, compared in norm over each row
    angles = np.exp(2j * np.pi * np.random.default_rng(11).uniform(size=6))
    base = np.concatenate([0.999 * angles, [0.999, -0.999, 0.999j, 0.5, 0.3 - 0.2j, 0.0]]).reshape(3, 4)
    p = _powers(base, n)
    ref = base.astype(np.clongdouble)[..., None] ** np.arange(n)
    err = np.linalg.norm((p - ref).astype(complex), axis=-1)
    assert p.shape == (3, 4, n) and p.dtype == complex
    assert np.all(err <= 1e-13 * np.linalg.norm(ref.astype(complex), axis=-1))
    assert np.all(p[..., 0] == 1.0)
    # real bases stay real, and n = 0 gives an empty last axis
    assert _powers(np.array([0.5, -0.9]), 4).dtype == np.float64
    assert _powers(0.3j, 0).shape == (0,)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 2.5, 3.0, 8.5, 1.3, 2.7])
def test_neg_power_matches_the_complex_power(s):
    # u = 1 - z conj(w) over |z|, |w| up to 0.999, the diagonal z = w included,
    # where |u| falls to 0.002; integers and half-integers go through products
    # (and sqrt), any other s is the complex power itself
    rng = np.random.default_rng(12)
    r = np.concatenate([[0.999, 0.999, 0.999], rng.uniform(0.0, 0.999, 29)])
    z = r * np.exp(2j * np.pi * rng.uniform(size=r.size))
    for w in (z, z[::-1], 0.999 * np.exp(2j * np.pi * rng.uniform(size=r.size))):
        u = 1.0 - z[:, None] * np.conj(w)[None, :]
        want = u**-s
        got = _neg_power(u, s)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
        if s % 1 not in (0.0, 0.5):
            assert np.array_equal(got, want)
    u = np.complex128(0.5 + 0.1j)
    assert abs(_neg_power(u, s) - u**-s) <= 1e-14 * abs(u**-s)
    # a product of two right-half-plane factors, as conj_sub_quadrature's
    # (1 - z conj(u)) (1 - u conj(w)), has |arg| < pi but may have Re < 0;
    # its principal power is the product of the factors' principal powers
    v = 0.999 * np.exp(2j * np.pi * rng.uniform(size=r.size))
    a = np.append(1.0 - z[:, None] * np.conj(v), 1.0 - 0.999 * np.exp([0.05j, -0.05j, 0.001j]))
    b = np.append(1.0 - v * np.conj(z[::-1, None]), 1.0 - 0.999 * np.exp([0.04j, -0.05j, 0.002j]))
    assert np.sum((a * b).real < 0) > 3 and np.max(np.abs(np.angle(a * b))) > 3.0
    want = a**-s * b**-s
    assert np.max(np.abs(_neg_power(a * b, s) - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("s", [9.0, 9.5, 1e6, 1e300])
def test_neg_power_past_eight_products_is_the_complex_power(s):
    # products stop at floor(s) = 8, so the cost does not grow with s: at 1e300
    # they would never end, and the complex power overflows to inf at once
    u = 1.0 - 0.1 * np.conj(np.array([0.2, 0.5j, -0.9]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(_neg_power(u, s), u**-s, equal_nan=True)


def test_weight_parameter_validation():
    with pytest.raises(ValueError):
        WeightParameter(-2.0)
    with pytest.raises(ValueError):
        WeightParameter(float("nan"))
    assert WeightParameter(-1.5).integrable is False
    assert WeightParameter(-0.5).integrable is True
    assert float(WeightParameter(0.25)) == 0.25
    assert as_weight(as_weight(0.5)) == WeightParameter(0.5)


def test_basis_weights_rejects_negative_length():
    with pytest.raises(ValueError):
        basis_weights(0.0, -1)


@pytest.mark.parametrize("s", [0.5, 2.5, -0.7, 3.0])
def test_binomial_coeffs_match_product_oracle(s):
    c = binomial_coeffs(s, 40)
    np.testing.assert_allclose(c, _binom_product(s, 40), rtol=1e-13)


def test_binomial_integer_exponent_terminates():
    # (1-x)^2 = 1 - 2x + x^2; all later coefficients are exactly zero
    c = binomial_coeffs(2.0, 10)
    assert np.array_equal(c[:3], [1.0, -2.0, 1.0])
    assert np.all(c[3:] == 0.0)


def test_binomial_partial_sums_converge():
    s, x = -1.3, 0.4
    c = binomial_coeffs(s, 200)
    target = (1.0 - x) ** s
    assert abs(np.sum(c * x ** np.arange(len(c))) - target) < 1e-10


def test_weights_and_binomial_coeffs_are_read_only_float64():
    for arr in (basis_weights(0.5, 10), binomial_coeffs(0.5, 10)):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 2.0


def test_binomial_overflow_guard():
    with pytest.raises(OverflowError):
        binomial_coeffs(-1e4, 3000)


def test_weight_asymptote_limit():
    # w_n (n+1)^{-(alpha+1)} -> 1/Gamma(2+alpha), settled over the last quarter
    for alpha in (-0.5, 0.0, 1.3):
        n = np.arange(4097)
        ratios = basis_weights(alpha, 4096) * (n + 1.0) ** (-(alpha + 1.0))
        limit = 1.0 / math.gamma(2.0 + alpha)
        assert abs(ratios[-1] - limit) < 1e-3 * abs(limit)
        tail = ratios[3 * len(ratios) // 4 :]
        assert (tail.max() - tail.min()) / np.mean(tail) < 1e-3


# ---------------------------------------------------------------------------
# Hermitian Gram builder and the PSD predicate


def _psd_by_eigvalsh(entries, tol):
    """Reference rule: lambda_min >= -tol max(1, trace), from eigvalsh."""
    return float(np.linalg.eigvalsh(entries)[0]) >= -tol * max(1.0, float(np.trace(entries).real))


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.7])
@pytest.mark.parametrize("n", [1, 2, 17])
def test_hermitian_gram_mirrors_the_full_outer_product(n, s):
    rng = np.random.default_rng(n)
    z = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    v = 0.9 * z**2
    m = _hermitian_gram(v, z, s)
    full = (1.0 - v[:, None] * np.conj(v)) * (1.0 - z[:, None] * np.conj(z)) ** -s
    assert np.array_equal(m, m.conj().T)
    assert np.all(m.diagonal().imag == 0.0)
    np.testing.assert_allclose(m, full, rtol=1e-14, atol=0)
    # f maps the triangle before the mirror
    np.testing.assert_allclose(_hermitian_gram(v, z, s, lambda t: 1.0 - 1.0 / t), 1.0 - 1.0 / full, rtol=1e-13)


def _hermitian_with_spectrum(eigenvalues, seed):
    rng = np.random.default_rng(seed)
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (q * eigenvalues) @ q.conj().T
    return (m + m.conj().T) / 2.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
    log_scale=st.floats(-3.0, 3.0),
    log_gap=st.floats(-5.9, 0.0),
    below=st.booleans(),
)
def test_psd_within_agrees_with_the_eigenvalue_rule(n, seed, tol, log_scale, log_gap, below):
    # lambda_min is put 10^log_gap * scale above or below the threshold, so the
    # factorization and the eigensolve must agree; the rest of the spectrum is >= 0
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    rest = scale * rng.uniform(0.0, 1.0, size=n - 1) * (rng.uniform(size=n - 1) < 0.7)
    gap = (-1.0 if below else 1.0) * 10.0**log_gap * max(1.0, scale)
    r = float(rest.sum())
    lam = (gap - tol * r) / (1.0 + tol)  # threshold -tol (lam + r) when lam + r >= 1
    if lam + r < 1.0:
        lam = gap - tol
    entries = _hermitian_with_spectrum(np.append(lam, rest), seed)
    ev_min = float(np.linalg.eigvalsh(entries)[0])
    threshold = -tol * max(1.0, float(np.trace(entries).real))
    assume(abs(ev_min - threshold) >= 1e-6 * max(1.0, float(np.trace(entries).real)))
    assert _psd_within(entries, tol) == _psd_by_eigvalsh(entries, tol) == (ev_min >= threshold)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 30),
    rank=st.integers(0, 29),
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_psd_within_admits_rank_deficient_gram_matrices(n, rank, seed, integer, tol):
    # B B* with fewer columns than rows is PSD with a zero eigenvalue; with
    # small integer entries every entry, and so the rank deficiency, is exact
    rng = np.random.default_rng(seed)
    rank = min(rank, n - 1)
    shape = (n, rank)
    if integer:
        b = rng.integers(-3, 4, size=shape) + 1j * rng.integers(-3, 4, size=shape)
    else:
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gram = b @ b.conj().T
    assert _psd_within(gram, tol) and _psd_by_eigvalsh(gram, tol)
    # the same Gram matrix with one direction pushed below the threshold fails both rules
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    worse = gram - (np.linalg.norm(gram, 2) + 1.0) * np.outer(x, x.conj())
    worse = (worse + worse.conj().T) / 2.0
    assert not _psd_within(worse, tol) and not _psd_by_eigvalsh(worse, tol)


def test_psd_within_leaves_its_input_unchanged():
    entries = np.eye(3, dtype=complex)
    entries.setflags(write=False)
    assert _psd_within(entries, 1e-9)
    assert np.array_equal(entries, np.eye(3))
    assert not _psd_within(-entries, 1e-9)


def _plain_weights(alpha: float, n_max: int) -> np.ndarray:
    """Oracle: the ratio recurrence run from w_0 = 1, with no cache."""
    last, out = 1.0, [1.0]
    for n in range(n_max):
        last = last * (n + 2 + alpha) / (n + 1)
        out.append(last)
    return np.array(out)


def test_weight_cache_is_bitwise_the_recurrence_and_bounded(monkeypatch):
    monkeypatch.setattr(scalars, "_weights", {})
    # growing, shrinking, a new alpha, a revisited one, and more alphas than the cache keeps
    requests = [(0.5, 10), (0.5, 300), (0.5, 7), (-0.5, 50), (0.5, 1000), (-0.5, 0), (1.7, 2000)]
    requests += [(a, 64) for a in (-1.5, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0)] + [(0.5, 1500), (1.7, 100)]
    for alpha, n in requests:
        w = basis_weights(alpha, n)
        assert not w.flags.writeable
        assert w.dtype == np.float64 and w.tobytes() == _plain_weights(alpha, n).tobytes(), (alpha, n)
        assert len(scalars._weights) <= scalars._WEIGHT_ALPHAS
        assert all(len(kept) <= scalars._WEIGHT_LENGTH for kept in scalars._weights.values())
    # a request past the length bound extends the kept prefix without storing the extension
    n = scalars._WEIGHT_LENGTH + 100
    w = basis_weights(0.5, n)
    assert w.tobytes() == _plain_weights(0.5, n).tobytes() and not w.flags.writeable
    assert len(scalars._weights[0.5]) == 1501


def test_weight_cache_under_threads(monkeypatch):
    # more threads than cores, switching every microsecond, over more alphas than the
    # cache keeps: every result stays bitwise the recurrence's and the bound holds
    import sys
    import threading

    monkeypatch.setattr(scalars, "_weights", {})
    alphas = [0.25 * k for k in range(12)]
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(600):
                alpha, n = alphas[rng.integers(len(alphas))], int(rng.integers(0, 400))
                if basis_weights(alpha, n).tobytes() != _plain_weights(alpha, n).tobytes():
                    errors.append((alpha, n))
        except Exception as exc:  # a lost update surfaces as KeyError or RuntimeError here
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(scalars._weights) <= scalars._WEIGHT_ALPHAS
