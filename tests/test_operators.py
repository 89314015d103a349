"""Operator tests: Toeplitz sections, defect blocks, spectra, inclusion maps.

The shift symbol phi(z) = z has fully explicit operator algebra in every
weighted space, which makes it the main oracle here: T is a weighted shift
with subdiagonal sqrt(w_k/w_{k+1}), so I - T T* and I - T* T are diagonal
with known entries.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subbergman import operators
from subbergman.cnp import build_pick
from subbergman.operators import (
    DENSE_SIZE_MAX,
    WORK_BUDGET,
    _check_work,
    _defect_form,
    _defect_rows,
    berezin,
    berezin_values,
    defect_matrix,
    inclusion_eigenvalues,
    jacobi_eigenvalues,
    normalized_kernel_coeffs,
    spectrum,
    toeplitz_matrix,
)
from subbergman.scalars import basis_weights
from subbergman.symbols import (
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    bind_symbol,
    default_series_length,
    to_series,
)

SHIFT = PowerSeriesSymbol(np.array([0.0, 1.0]))


def _shift_defect_diag(alpha: float, n: int, which: str) -> np.ndarray:
    # I - T T* : diag(1, 1 - w_0/w_1, 1 - w_1/w_2, ...)
    # I - T* T : diag(1 - w_k/w_{k+1})
    w = basis_weights(alpha, n + 1)
    if which == "phi":
        return np.concatenate([[1.0], 1.0 - w[: n - 1] / w[1:n]])
    return 1.0 - w[:n] / w[1 : n + 1]


# ---------------------------------------------------------------------------
# Toeplitz sections


def test_shift_toeplitz_entries():
    alpha = 0.7
    n = 12
    t = toeplitz_matrix(SHIFT, alpha, n).entries
    w = basis_weights(alpha, n)
    expected = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        expected[k + 1, k] = np.sqrt(w[k] / w[k + 1])
    np.testing.assert_allclose(t, expected, atol=0)


def test_constant_symbol_is_scalar_matrix():
    t = toeplitz_matrix(PowerSeriesSymbol(np.array([0.5 + 0.5j])), 0.0, 6).entries
    np.testing.assert_allclose(t, (0.5 + 0.5j) * np.eye(6), atol=0)


_REAL_SYMBOLS = (
    SHIFT,
    to_series(MobiusSpec(a=0.5), 64),
    to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 64),
    # every imaginary part is -0.0: still a real symbol
    PowerSeriesSymbol(np.conj(np.array([0.25, -0.5, 0.125], dtype=complex))),
    # a negative real zero at its default 307 terms: powers past k = 100 stay real
    to_series(MobiusSpec(a=-0.9), default_series_length(MobiusSpec(a=-0.9))),
)
_COMPLEX_SYMBOLS = (
    to_series(BlaschkeSpec(zeros=(0.5, -0.3 + 0.2j)), 64),
    to_series(MobiusSpec(a=0.3j), 64),
)


@pytest.mark.parametrize(
    "series, dtype",
    [(s, np.float64) for s in _REAL_SYMBOLS] + [(s, np.complex128) for s in _COMPLEX_SYMBOLS],
    ids=[
        "shift",
        "mobius",
        "blaschke",
        "minus-zero-imag",
        "mobius-negative-307",
        "blaschke-complex",
        "mobius-complex",
    ],
)
def test_entry_dtype_follows_the_coefficients(series, dtype):
    # real coefficients give real Toeplitz and defect blocks, equal to the complex build
    t = toeplitz_matrix(series, 0.5, 40).entries
    assert t.dtype == dtype
    c = series.coeffs
    ref = np.zeros((40, 40), dtype=complex)
    sq = np.sqrt(basis_weights(0.5, 39))
    for j in range(min(len(c), 40)):
        k = np.arange(40 - j)
        ref[k + j, k] = c[j] * sq[k] / sq[k + j]
    np.testing.assert_allclose(t, ref, rtol=1e-15, atol=0)
    for which in ("phi", "conj"):
        assert defect_matrix(series, 0.5, 40, which).entries.dtype == dtype


def test_toeplitz_is_lower_triangular_banded():
    series = to_series(BlaschkeSpec(zeros=(0.5, -0.3)), 40)
    t = toeplitz_matrix(series, 0.0, 80).entries
    assert np.all(np.triu(t, 1) == 0)
    assert np.all(t[45:, :5] == 0)  # bandwidth limited by the series length


def test_toeplitz_contraction_norm():
    # an inner symbol multiplies contractively, so every section has norm <= 1
    series = to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 120)
    t = toeplitz_matrix(series, -0.5, 150).entries
    assert np.linalg.norm(t, 2) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# defect blocks


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 1.0])
@pytest.mark.parametrize("which", ["phi", "conj"])
def test_shift_defect_is_known_diagonal(alpha, which):
    n = 50
    e = defect_matrix(SHIFT, alpha, n, which).entries
    np.testing.assert_allclose(e, np.diag(_shift_defect_diag(alpha, n, which)), atol=1e-15)


def test_defect_block_is_padding_invariant():
    # the n x n block must not change when the ambient truncation grows, so the
    # half block of an n section is the n//2 section blaschke_decay compares with
    specs = (
        SHIFT,
        MobiusSpec(a=0.5),
        MobiusSpec(a=0.3j),
        BlaschkeSpec(zeros=(0.5, -0.5)),
        BlaschkeSpec(zeros=(0.5, -0.5, 0.0)),
    )
    n = 100
    for spec in specs:
        for alpha in (-0.5, 0.0, 1.0):
            _, series = bind_symbol(spec, alpha)
            for which in ("phi", "conj"):
                small = defect_matrix(series, alpha, n, which).entries
                big = defect_matrix(series, alpha, 2 * n + 1, which).entries[:n, :n]
                np.testing.assert_allclose(small, big, rtol=0, atol=1e-14)


def test_defect_intertwining():
    # (I - T T*) T v = T (I - T* T) v for v supported away from the boundary
    # of the truncation; banded structure makes both sides exact there
    series = to_series(BlaschkeSpec(zeros=(0.4, -0.2 + 0.3j)), 40)
    n = 160
    alpha = 0.5
    t = toeplitz_matrix(series, alpha, n).entries
    e_phi = defect_matrix(series, alpha, n, "phi").entries
    e_conj = defect_matrix(series, alpha, n, "conj").entries
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = np.zeros(n, dtype=complex)
        v[: n - 40] = rng.standard_normal(n - 40) + 1j * rng.standard_normal(n - 40)
        lhs = e_phi @ (t @ v)
        rhs = t @ (e_conj @ v)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(v)


def test_defect_eigenvalues_interlace_under_refinement():
    # top quarter of the N-truncation spectrum is already settled at 2N
    series = to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 80)
    n = 120
    ev1 = spectrum(defect_matrix(series, 0.0, n, "phi")).eigenvalues
    ev2 = spectrum(defect_matrix(series, 0.0, 2 * n, "phi")).eigenvalues
    top = n // 4
    np.testing.assert_allclose(ev1[:top], ev2[:top], atol=1e-6)


_FORM_SYMBOLS = (
    SHIFT,
    to_series(MonomialSpec(n=2, c=1.0), 5),  # zero coefficients inside the band
    to_series(BlaschkeSpec(zeros=(0.5, -0.3 + 0.2j)), 30),
    to_series(SingularInnerSpec(c=1.0), 40),
)


def _form(series, alpha, n, which, x, y):
    """x* E y by _defect_form, with the weights of the rows E reads."""
    sq = np.sqrt(basis_weights(alpha, _defect_rows(series, n, which) - 1))
    return _defect_form(series, n, which, x, y, sq)


@pytest.mark.parametrize("alpha", [-1.5, -1.0, -0.5, 0.0, 1.0])
@pytest.mark.parametrize("which", ["phi", "conj"])
def test_defect_form_matches_dense_block(alpha, which):
    # the dense block is the oracle for the matrix-free quadratic form
    n = 50
    rng = np.random.default_rng(29)
    for series in _FORM_SYMBOLS:
        e = defect_matrix(series, alpha, n, which).entries
        x = rng.standard_normal((3, 1, n)) + 1j * rng.standard_normal((3, 1, n))
        y = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        got = _form(series, alpha, n, which, x, y)
        want = np.einsum("...m,mk,...k->...", x.conj(), e, y)
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        scalar = _form(series, alpha, n, which, x[0, 0], y[0])
        assert np.ndim(scalar) == 0
        assert abs(scalar - x[0, 0].conj() @ e @ y[0]) < 1e-13


# (x shape, y shape) before the length-n axis. A symbol with more than log2 N
# nonzero diagonals, N >= n + L - 1 the FFT length, is applied by FFTs over
# blocks of max(16, 2^15 // (n + L - 1)) vectors, any other by the band loop; the
# examples pin both sides, on a batch of 1200 vectors (two blocks at n = 30) included
_FORM_BATCHES = [((), ()), ((1,), (6,)), ((3, 1), (4,)), ((2, 3), (1, 3)), ((1200,), ()), ((0,), (0,))]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    which=st.sampled_from(["phi", "conj"]),
    alpha=st.sampled_from([-1.5, -0.5, 0.0, 1.0, 3.0]),
    n=st.integers(1, 40),
    length=st.integers(1, 16),
    density=st.sampled_from([0.2, 0.6, 1.0]),
    complex_symbol=st.booleans(),
    shapes=st.sampled_from(_FORM_BATCHES),
    seed=st.integers(0, 2**32 - 1),
)
@example(which="conj", alpha=0.0, n=30, length=16, density=1.0, complex_symbol=True, shapes=((1200,), ()), seed=1)
@example(which="phi", alpha=1.0, n=30, length=16, density=1.0, complex_symbol=False, shapes=((3, 1), (4,)), seed=2)
@example(which="conj", alpha=-0.5, n=30, length=3, density=1.0, complex_symbol=True, shapes=((1,), (6,)), seed=3)
@example(which="phi", alpha=3.0, n=30, length=3, density=1.0, complex_symbol=False, shapes=((1200,), ()), seed=4)
def test_defect_form_matches_the_dense_block_on_any_batch(
    which, alpha, n, length, density, complex_symbol, shapes, seed
):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, length) * (rng.uniform(size=length) < density)
    if complex_symbol:
        c = c + 1j * rng.uniform(-1, 1, length)
    series = PowerSeriesSymbol(c / max(1.0, float(np.sum(np.abs(c)))))
    x = rng.standard_normal(shapes[0] + (n,)) + 1j * rng.standard_normal(shapes[0] + (n,))
    y = rng.standard_normal(shapes[1] + (n,)) + 1j * rng.standard_normal(shapes[1] + (n,))
    e = defect_matrix(series, alpha, n, which).entries
    got = _form(series, alpha, n, which, x, y)
    want = np.einsum("...m,mk,...k->...", x.conj(), e, y)
    assert np.shape(got) == np.broadcast_shapes(shapes[0], shapes[1])
    # |x* E y| <= ||E|| ||x|| ||y||, the scale of the rounding in both routes
    scale = max(1.0, np.linalg.norm(e, 2)) * np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("which", ["phi", "conj"])
@pytest.mark.parametrize(
    "coeffs, fft",
    [
        # z + z^30: two diagonals on a 31-term band, at most log2 N, stay on the loop
        (np.eye(31)[1] + np.eye(31)[30], False),
        # 16 nonzero diagonals, more than log2 N (N = 60), go to the FFT
        (np.linspace(0.1, -0.05, 16) + 0.02j, True),
    ],
    ids=["z+z^30", "dense-16"],
)
def test_defect_form_chooses_the_fft_by_the_number_of_diagonals(monkeypatch, which, coeffs, fft):
    transforms = []
    fft_of = np.fft.fft

    def counted(*args, **kwargs):
        transforms.append(args[0].shape)
        return fft_of(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    series = PowerSeriesSymbol(coeffs / np.sum(np.abs(coeffs)))
    n = 40
    rng = np.random.default_rng(31)
    x = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
    got = _form(series, 0.5, n, which, x, x[::-1])
    # the band's transform, then one per block for each side; the 20 vectors
    # of at most 55 rows of T x make one block of _defect_form
    assert len(transforms) == (3 if fft else 0)
    e = defect_matrix(series, 0.5, n, which).entries
    want = np.einsum("...m,mk,...k->...", x.conj(), e, x[::-1])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_berezin_values_apply_the_band_once(monkeypatch):
    # the kernel vectors are both sides of the form, so T* is applied once,
    # and the values are bit for bit those of two applies to equal vectors;
    # the 20 vectors of 400 entries fit in one block of _defect_form
    inverses = []
    ifft_of = np.fft.ifft

    def counted(*args, **kwargs):
        inverses.append(args[0].shape[0])
        return ifft_of(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    series = to_series(MobiusSpec(a=0.5), 64)
    pts = 0.9 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 20, endpoint=False))
    n = 400
    vals = berezin_values(series, 0.0, n, pts)
    assert inverses == [20]
    c = normalized_kernel_coeffs(0.0, pts, n)
    twice = _form(series, 0.0, n, "phi", c, c.copy())
    assert inverses == [20] * 3
    np.testing.assert_array_equal(vals, np.real(twice))


def test_berezin_values_hand_one_array_to_both_sides(monkeypatch):
    # the form is read at the same kernel vectors on both sides, for a list of points too
    sides = []
    form = operators._defect_form

    def spy(symbol, n, which, x, y, sq):
        sides.append(x is y)
        return form(symbol, n, which, x, y, sq)

    monkeypatch.setattr(operators, "_defect_form", spy)
    series = to_series(MobiusSpec(a=0.5), 64)
    berezin_values(series, 0.0, 50, [0.3, 0.5j])
    berezin_values(series, 0.0, 50, np.array([[0.3, 0.5j], [-0.2, 0.7]]))
    assert sides == [True, True]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    which=st.sampled_from(["phi", "conj"]),
    n=st.integers(1, 64) | st.integers(1, 3000),
    length=st.integers(1, 1200),
    nonzero=st.integers(1, 1200),
    seed=st.integers(0, 2**32 - 1),
)
def test_route_price_never_exceeds_the_band_price(which, n, length, nonzero, seed):
    # every batch that nonzero diagonals + 32 passes admit is admitted by the
    # price of the route that runs, on the band loop and on the FFT alike
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(length, dtype=complex)
    coeffs[rng.choice(length, min(nonzero, length), replace=False)] = rng.uniform(0.1, 1.0)
    series = PowerSeriesSymbol(coeffs / np.sum(np.abs(coeffs)))
    nnz = np.count_nonzero(series.coeffs[: _defect_rows(series, n, which)])
    z = np.broadcast_to(0.5 + 0j, (int(WORK_BUDGET // (n * (nnz + 32))),))
    _check_work(series, 0.0, n, which, z, z)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    which=st.sampled_from(["phi", "conj"]),
    alpha=st.sampled_from([-0.5, 0.0, 1.0]),
    n=st.integers(1, 40),
    length=st.integers(2, 16),
    complex_symbol=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_defect_and_pick_blocks_are_exactly_hermitian(which, alpha, n, length, complex_symbol, seed):
    # the solvers downstream read one triangle, so both blocks must equal
    # their conjugate transpose bit for bit, not just within HERMITIAN_TOL
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, length)
    if complex_symbol:
        c = c + 1j * rng.uniform(-1, 1, length)
    c[1] = c[1] or 0.5  # a constant symbol has no Pick matrix
    series = PowerSeriesSymbol(0.9 * c / float(np.sum(np.abs(c))))
    e = defect_matrix(series, alpha, n, which).entries
    assert np.array_equal(e, e.conj().T)
    pts = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    m = build_pick(series, alpha, pts).entries
    assert np.array_equal(m, m.conj().T)


@pytest.mark.parametrize("which", ["phi", "conj"])
def test_defect_block_matches_padded_product(which):
    # reference: the n x n corner of I - T_m T_m* (or I - T_m* T_m) at m = n + L
    n = 60
    for series in _FORM_SYMBOLS:
        for alpha in (-1.5, -0.5, 0.0, 1.0):
            m = n + len(series)
            t = toeplitz_matrix(series, alpha, m).entries
            prod = t @ t.conj().T if which == "phi" else t.conj().T @ t
            ref = (np.eye(m) - prod)[:n, :n]
            got = defect_matrix(series, alpha, n, which).entries
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_defect_form_rejects_bad_arguments():
    # the route in front of _defect_form checks `which` as defect_matrix does
    # (test_defect_requires_valid_kind), before any weight is computed
    with pytest.raises(ValueError, match="which"):
        operators._kernel_form(SHIFT, 0.0, 8, "both", 0.5, 0.5, True)


def test_defect_requires_valid_kind():
    with pytest.raises(ValueError):
        defect_matrix(SHIFT, 0.0, 8, "both")


def test_dense_blocks_refuse_sizes_over_the_cap_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("the block must not be built")

    monkeypatch.setattr(operators, "basis_weights", build)
    for make in (
        lambda n: toeplitz_matrix(SHIFT, 0.0, n),
        lambda n: defect_matrix(SHIFT, 0.0, n, "phi"),
        lambda n: defect_matrix(SHIFT, 0.0, n, "conj"),
    ):
        with pytest.raises(ValueError, match="DENSE_SIZE_MAX"):
            make(DENSE_SIZE_MAX + 1)
        with pytest.raises(AssertionError):
            make(DENSE_SIZE_MAX)


# ---------------------------------------------------------------------------
# Berezin transform


def test_berezin_shift_closed_form():
    # berezin(E_phi, a) = 1 - |phi(a)|^2 = 1 - |a|^2 for the shift
    e = defect_matrix(SHIFT, 0.0, 200, "phi")
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert abs(berezin(e, a) - (1.0 - abs(a) ** 2)) < 1e-10


def test_berezin_requires_phi_defect():
    e = defect_matrix(SHIFT, 0.0, 20, "conj")
    with pytest.raises(ValueError):
        berezin(e, 0.3)


def test_normalized_kernel_has_unit_norm():
    # the monomial coefficients of k_a are (1-|a|^2)^((2+alpha)/2) w_m conj(a)^m,
    # and <k_a, k_a> = sum |d_m|^2 / w_m = 1
    a = 0.6 - 0.2j
    n = 400
    for alpha in (-0.5, 0.0, 1.0):
        w = basis_weights(alpha, n - 1)
        d = (1.0 - abs(a) ** 2) ** ((2.0 + alpha) / 2.0) * w * np.conj(a) ** np.arange(n)
        assert abs(np.sum(np.abs(d) ** 2 / w) - 1.0) < 1e-10
        # the orthonormal-coordinate vector used by berezin is d / sqrt(w)
        c = normalized_kernel_coeffs(alpha, a, n)
        np.testing.assert_allclose(d / np.sqrt(w), c, atol=1e-12)


def test_normalized_kernel_coeffs_batches_points():
    pts = np.array([[0.0, 0.5, -0.3 + 0.4j], [0.95j, 0.2 - 0.1j, -0.7]])
    for alpha in (-1.5, 0.0, 1.0):
        batch = normalized_kernel_coeffs(alpha, pts, 150)
        assert batch.shape == (2, 3, 150)
        stacked = np.array([[normalized_kernel_coeffs(alpha, a, 150) for a in row] for row in pts])
        np.testing.assert_allclose(batch, stacked, rtol=0, atol=1e-15)
    assert normalized_kernel_coeffs(0.0, 0.3, 7).shape == (7,)
    with pytest.raises(ValueError):
        normalized_kernel_coeffs(0.0, [0.1, 1.0], 7)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_berezin_values_match_the_dense_oracle(alpha):
    series = to_series(BlaschkeSpec(zeros=(0.5, -0.3 + 0.2j)), 40)
    pts = np.array([0.0, 0.5, -0.6 + 0.3j, 0.9j])
    e = defect_matrix(series, alpha, 120, "phi")
    vals = berezin_values(series, alpha, 120, pts)
    np.testing.assert_allclose(vals, [berezin(e, a) for a in pts], rtol=0, atol=1e-13)


def test_gram_orthonormal_basis():
    w = basis_weights(0.5, 9)
    for m in range(10):
        e_m = np.zeros(10)
        e_m[m] = np.sqrt(w[m])
        assert abs(np.sum(e_m * np.conj(e_m) / w) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# spectra and fits


def test_shift_conj_spectrum_exact():
    rep = spectrum(defect_matrix(SHIFT, 0.0, 400, "conj"), fit_window=(10, 200))
    expected = 1.0 / (np.arange(400) + 2.0)
    assert np.max(np.abs(rep.eigenvalues - expected)) < 1e-12
    assert abs(rep.decay_exponent + 1.0) <= 0.02


@pytest.mark.parametrize(
    "op",
    [
        defect_matrix(to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 64), 0.0, 200, "phi"),
        defect_matrix(to_series(MobiusSpec(a=0.5), 64), 1.0, 200, "conj"),
    ],
    ids=["defect-phi", "defect-conj"],
)
def test_spectrum_of_real_block_matches_complex_cast(op):
    from subbergman.operators import OperatorMatrix

    assert op.entries.dtype == np.float64
    cast = OperatorMatrix(entries=op.entries.astype(complex), alpha=op.alpha, kind=op.kind)
    real, cplx = spectrum(op, (5, 150)), spectrum(cast, (5, 150))
    np.testing.assert_allclose(real.eigenvalues, cplx.eigenvalues, rtol=0, atol=1e-13)
    assert abs(real.decay_exponent - cplx.decay_exponent) < 1e-13
    for p in real.schatten_estimates:
        assert abs(real.schatten_estimates[p].value - cplx.schatten_estimates[p].value) < 1e-13


def test_spectrum_rejects_non_hermitian():
    from subbergman.operators import OperatorMatrix
    from subbergman.scalars import as_weight

    bad = OperatorMatrix(
        entries=np.array([[0.0, 1.0], [0.0, 0.0]]),
        alpha=as_weight(0.0),
        kind="defect_phi",
    )
    with pytest.raises(ValueError):
        spectrum(bad)


@pytest.mark.parametrize("n", [2, 120, 300, 1000])
def test_hermitian_check_reports_the_full_asymmetry_by_row_blocks(n):
    # one block up to _BLOCK_ENTRIES // n >= n rows, several past that; the largest
    # asymmetry sits in the last block and must be the one reported
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    herm = (a + a.conj().T) / 2.0
    operators._check_hermitian(herm)
    herm[:, 0] += rng.uniform(0.0, 1e-3, n)
    herm[-1, 0] += 2e-3
    want = float(np.max(np.abs(herm - herm.conj().T)))
    with pytest.raises(ValueError, match=f"max asymmetry {want:.3e}"):
        operators._check_hermitian(herm)


def test_hermitian_check_holds_a_fraction_of_the_block():
    # a complex 2048 x 2048 block takes 64 MB; comparing it with its adjoint in full took two
    import tracemalloc

    entries = np.eye(2048, dtype=complex)
    entries[0, 1], entries[1, 0] = 0.5j, -0.5j
    tracemalloc.start()
    try:
        operators._check_hermitian(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < entries.nbytes / 4


def test_spectrum_window_validation():
    e = defect_matrix(SHIFT, 0.0, 40, "conj")
    with pytest.raises(ValueError):
        spectrum(e, fit_window=(1, 39))  # reaches into the polluted last quarter


@pytest.mark.parametrize("n", [1, 2])
def test_spectrum_rejects_sizes_without_a_fit_window(n):
    # 3n/4 < 2 leaves no two usable eigenvalues to fit
    with pytest.raises(ValueError, match="too small"):
        spectrum(defect_matrix(SHIFT, 0.0, n, "phi"))


def test_schatten_partial_sums_against_series():
    # diag(1/(k+2)): the p-estimate is (sum 1/(k+2)^p)^(1/p) over the first 3n/4
    n = 400
    rep = spectrum(defect_matrix(SHIFT, 0.0, n, "conj"))
    usable = 3 * n // 4
    lam = 1.0 / (np.arange(usable) + 2.0)
    for p in (1.0, 1.5, 2.0, 3.0):
        expected = float(np.sum(lam**p)) ** (1.0 / p)
        est = rep.schatten_estimates[p]
        assert abs(est.value - expected) < 1e-12
        assert est.tail_converged


def test_spectrum_follows_the_entries_of_a_user_built_matrix():
    from subbergman.operators import OperatorMatrix
    from subbergman.scalars import as_weight

    op = OperatorMatrix(entries=np.diag([1.0, 0.5, 0.25]), alpha=as_weight(0.0), kind="defect_phi")
    assert op.basis_size == 3
    rep = spectrum(op)
    np.testing.assert_array_equal(rep.eigenvalues, [1.0, 0.5, 0.25])
    assert rep.fit_window == (1, 2)


def test_schatten_flags_slow_tail():
    # a flat spectrum keeps every term at 1/usable of the sum; with a short
    # truncation that exceeds the 1% threshold and must be flagged
    from subbergman.operators import OperatorMatrix
    from subbergman.scalars import as_weight

    n = 64
    flat = OperatorMatrix(entries=np.eye(n), alpha=as_weight(0.0), kind="defect_phi")
    rep = spectrum(flat)
    assert not rep.schatten_estimates[1.0].tail_converged


# ---------------------------------------------------------------------------
# inclusion maps


def test_inclusion_eigenvalues_hardy_pair_exact():
    vals = inclusion_eigenvalues(0.0, -1.0, 8)
    assert np.array_equal(vals, 1.0 / np.arange(1.0, 10.0))


def test_inclusion_eigenvalues_reject_bad_order():
    with pytest.raises(ValueError):
        inclusion_eigenvalues(-1.0, 0.0, 4)
    with pytest.raises(ValueError):
        inclusion_eigenvalues(0.0, -2.0, 4)


def test_inclusion_two_step_asymptote():
    # alpha = gamma + 2: entries * (n+1)^2 settles into [1/4, 4]
    vals = inclusion_eigenvalues(0.5, -1.5, 64)
    n = np.arange(65)
    scaled = vals * (n + 1.0) ** 2
    tail = scaled[16:]
    assert np.all(tail >= 0.25) and np.all(tail <= 4.0)


# ---------------------------------------------------------------------------
# reference eigensolver


def test_jacobi_matches_eigvalsh_random_hermitian():
    rng = np.random.default_rng(17)
    for n in (3, 8, 20, 40):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.conj().T) / 2.0
        got = jacobi_eigenvalues(h)
        want = np.sort(np.linalg.eigvalsh(h))[::-1]
        scale = max(1.0, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, atol=1e-10 * scale)


def test_jacobi_on_known_matrix():
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(jacobi_eigenvalues(h), [1.0, -1.0], atol=1e-14)


def test_jacobi_residual_contract():
    # eigenvalues must reproduce the matrix trace and Frobenius norm
    rng = np.random.default_rng(23)
    x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    h = (x + x.conj().T) / 2.0
    lam = jacobi_eigenvalues(h)
    assert abs(np.sum(lam) - np.trace(h).real) < 1e-9
    assert abs(np.sum(lam**2) - np.linalg.norm(h, "fro") ** 2) < 1e-8
