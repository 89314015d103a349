"""Truncated Toeplitz operators, defect matrices, and their spectra.

In the orthonormal monomial basis e_k = sqrt(w_k) z^k, multiplication by an
analytic symbol phi = sum c_j z^j is lower-triangular banded:
entry(m, k) = c_{m-k} sqrt(w_k / w_m). The defect matrices
E_phi = I - T T* and E_conj = I - T* T quantify how far T is from a
(co)isometry; their eigenvalue decay encodes the compactness statements the
harness checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import WeightParameter, _check_count, _check_disk, _powers, as_weight, basis_weights
from .scalars import _BLOCK_ENTRIES
from .symbols import PowerSeriesSymbol, _check_series

SCHATTEN_EXPONENTS = (1.0, 1.5, 2.0, 3.0)
HERMITIAN_TOL = 1e-10
# largest n of a dense n x n block; a complex one at this size takes 0.27 GB
DENSE_SIZE_MAX = 4096
# most work of one matrix-free request, in passes over its vectors x basis size
WORK_BUDGET = 5e7
# _defect_form takes max(_FFT_BLOCK, _BLOCK_ENTRIES // rows) vectors at a time: 16 x N
# entries per transform at least, and short vectors by 2^15 entries (0.5 MB per temporary),
# so the per-block overhead stays small
_FFT_BLOCK = 16


@dataclass(frozen=True)
class OperatorMatrix:
    """A truncated operator in the monomial orthonormal basis."""

    entries: np.ndarray
    alpha: WeightParameter
    kind: str  # toeplitz | defect_phi | defect_conj

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @property
    def basis_size(self) -> int:
        return self.entries.shape[0]


def _check_dense_size(n: int) -> int:
    return _check_count(n, "matrix size (DENSE_SIZE_MAX)", 1, DENSE_SIZE_MAX)


def _toeplitz_entries(symbol: PowerSeriesSymbol, alpha, rows: int, cols: int) -> np.ndarray:
    """The rows x cols corner of the multiplication operator.

    The entries are float64 when no coefficient has a nonzero imaginary part
    (a -0.0 counts as zero) and complex otherwise, so real symbols reach the
    real BLAS and LAPACK routines downstream. A column count outside
    [1, DENSE_SIZE_MAX] is refused before any work.
    """
    c = _check_series(symbol).coeffs
    cols = _check_dense_size(cols)
    sq = np.sqrt(basis_weights(alpha, rows - 1))
    if not np.any(c.imag):
        c = c.real
    t = np.zeros((rows, cols), dtype=c.dtype)
    flat = t.reshape(-1)
    for j in np.flatnonzero(c[:rows]):
        # diagonal j starts at flat index j * cols and steps by cols + 1
        m = min(cols, rows - j)
        flat[j * cols :: cols + 1][:m] = c[j] * sq[:m] / sq[j : j + m]
    return t


def toeplitz_matrix(
    symbol: PowerSeriesSymbol, alpha: WeightParameter | float, n: int
) -> OperatorMatrix:
    """n x n section of the multiplication operator by the symbol."""
    a = as_weight(alpha)
    n = _check_dense_size(n)  # a numpy uint64 n would make the slice bounds floats
    t = _toeplitz_entries(symbol, a, n, n)
    return OperatorMatrix(entries=t, alpha=a, kind="toeplitz")


def _defect_rows(symbol: PowerSeriesSymbol, n: int, which: str) -> int:
    """Rows of T that the n x n defect block reads: n for "phi", n + L - 1 for "conj"."""
    return n if which == "phi" else n + len(symbol) - 1


def _check_defect_args(symbol, alpha, n: int, which: str) -> tuple[WeightParameter, int]:
    _check_series(symbol)
    if which not in ("phi", "conj"):
        raise ValueError(f'which must be "phi" or "conj", got {which!r}')
    return as_weight(alpha), _check_count(n, "matrix size", 1)


def defect_matrix(
    symbol: PowerSeriesSymbol, alpha: WeightParameter | float, n: int, which: str
) -> OperatorMatrix:
    """Top-left n x n block of I - T T* (which="phi") or I - T* T (which="conj").

    T is lower-triangular with bandwidth L, the series length. Row i of T
    vanishes past column i, so the phi block is exactly I - T_n T_n* with
    T_n the n x n section. Column k of T vanishes past row k + L - 1, so
    the conj block is I - S* S with S the first n + L - 1 rows of the
    first n columns. Both blocks are exact for the truncated symbol.

    The block is float64 when the symbol's coefficients are all real (see
    _toeplitz_entries) and complex otherwise; for a real T, t.conj() is t
    itself, so the product is a symmetric rank-k update.
    """
    a, n = _check_defect_args(symbol, alpha, n, which)
    t = _toeplitz_entries(symbol, a, _defect_rows(symbol, n, which), n)
    e = np.eye(n) - (t @ t.conj().T if which == "phi" else t.conj().T @ t)
    e = (e + e.conj().T) / 2.0  # exact Hermitian symmetry for downstream solvers
    return OperatorMatrix(entries=e, alpha=a, kind=f"defect_{which}")


def _defect_classes(symbol: PowerSeriesSymbol, alpha, n: int, which: str, scale: np.ndarray) -> list:
    """diag(scale) E diag(scale) for E = defect_matrix(symbol, alpha, n, which), by rotation class.

    The coefficients E reads lie in r + m Z, m the gcd of their support's
    gaps (n with fewer than two nonzero), so E_ik = 0 unless i = k mod m.
    One (idx, blocks) pair per class size: idx[i] is a class, blocks[i] its
    entries. E is never formed: at m = n the diagonal comes from the
    weights; else block rho is diag(s^2) - U U*, U the rows rho of T
    ("phi", columns rho - r) or of T* ("conj", columns rho + r) times s.
    """
    a, n = _check_defect_args(symbol, alpha, n, which)
    rows = _defect_rows(symbol, n, which)
    c = symbol.coeffs[:rows]
    support = np.flatnonzero(c)
    m = min(int(np.gcd.reduce(np.diff(support))), n) if len(support) > 1 else n
    if m == n:
        # (T T*)_ii = sum_j |c_j|^2 w_(i-j) / w_i, (T* T)_kk = sum_j |c_j|^2 w_k / w_(k+j)
        w = basis_weights(a, rows - 1)
        d = np.ones(n)
        for j in support:
            num, den = (w[: n - j], w[j:n]) if which == "phi" else (w[:n], w[j : j + n])
            d[n - len(num) :] -= abs(c[j]) ** 2 * num / den
        return [(np.arange(n)[:, None], (scale**2 * d)[:, None, None])]
    t = _toeplitz_entries(symbol, a, rows, n)
    t, r = (t, support[0]) if which == "phi" else (t.conj().T, -support[0])
    if m == 1:
        # one class reads all of T: scale the fresh T in place instead of copying it
        np.multiply(scale[:, None], t, out=t)
    q, extra = divmod(n, m)
    out = []
    for size, first, last in ((q + 1, 0, extra), (q, extra, m)):
        if first < last:
            idx = np.arange(first, last)[:, None] + m * np.arange(size)
            blocks = np.empty((last - first, size, size), dtype=t.dtype)
            for b, rho in zip(blocks, range(first, last)):
                u = t if m == 1 else scale[rho::m, None] * t[rho::m, (rho - r) % m :: m]
                np.matmul(u, u.conj().T, out=b)
            np.negative(blocks, out=blocks)
            blocks[:, np.arange(size), np.arange(size)] += scale[idx] ** 2
            out.append((idx, blocks))
    return out


def _block_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (g, q, q) stack of Hermitian blocks: read off at q = 1, else one eigvalsh call."""
    if blocks.shape[1] == 1:
        return blocks[:, 0, 0].real
    return np.linalg.eigvalsh(blocks[0] if len(blocks) == 1 else blocks).ravel()


def _class_eigenvalues(classes: list) -> np.ndarray:
    """Eigenvalues of the whole section from its _defect_classes, sorted descending."""
    return np.sort(np.concatenate([_block_eigenvalues(b) for _, b in classes]))[::-1]


def _band_route(symbol: PowerSeriesSymbol, n: int, which: str) -> tuple[np.ndarray, int, bool]:
    """The band c the n x n block reads, an FFT length N (the least k 2^e >= n + len(c) - 1 with
    k in 1, 3, 5, 9, 15, so within 25%), and whether T is applied by FFT: when more than
    log2 N diagonals are nonzero, an integer count at least N's bit length."""
    c = symbol.coeffs[: _defect_rows(symbol, n, which)]
    m = n + len(c) - 1
    size = min(k << (-(-m // k) - 1).bit_length() for k in (1, 3, 5, 9, 15))
    return c, size, np.count_nonzero(c) >= size.bit_length()


def _check_work(symbol: PowerSeriesSymbol, alpha, n: int, which: str, z, w) -> tuple[WeightParameter, int]:
    """Check the arguments of x* E y at the kernel vectors of z and w; refuse it over WORK_BUDGET.

    Work is pairs x n x passes, priced by the route _defect_form takes: one
    pass per nonzero diagonal on the band loop, ceil(N/n) log2 N on the FFT
    route but never more than the loop, plus 32 for the vectors and the two
    sums (their cost as complex powers, kept so that the budget refuses the
    same band requests). Nothing is built before the refusal.
    """
    a, n = _check_defect_args(symbol, alpha, n, which)
    c, size, fft = _band_route(symbol, n, which)
    nnz = int(np.count_nonzero(c))  # a Python int: n may pass int64's range near the boundary
    passes = (min(nnz, -(-size // n) * size.bit_length()) if fft else nnz) + 32
    pairs = np.broadcast(z, w).size
    if pairs * n * passes > WORK_BUDGET:
        radius = max(float(np.max(np.abs(z))), float(np.max(np.abs(w))))
        name, hint = ("berezin", "lower the size") if which == "phi" else ("conj_sub", "move the points inward")
        raise ValueError(
            f"{name} at radius {radius:.10g} with n = {n}: {pairs} pair(s) x n x {passes} passes "
            f"exceed the work budget {WORK_BUDGET:g}; {hint} or split the batch"
        )
    return a, n


def _defect_form(symbol: PowerSeriesSymbol, n: int, which: str, x, y, sq: np.ndarray):
    """x* E y for E = defect_matrix(symbol, alpha, n, which), never formed, on checked arguments.

    x* E y = x*y - (Sx)*(Sy) for "conj", S as in defect_matrix, and x*y -
    (T_n* x)*(T_n* y) for "phi", T applied once when y is x; x and y have
    length n in their last axis and broadcast over the leading axes. sq =
    sqrt(basis_weights(alpha, _defect_rows(symbol, n, which) - 1)): the
    caller holds these weights for its own vectors, so each request runs
    the weight recurrence once. T is applied by the route _band_route
    picks, over blocks of max(_FFT_BLOCK, _BLOCK_ENTRIES // rows) vectors,
    so no temporary grows with the batch.
    """
    x = np.asarray(x, dtype=complex)
    same = y is x
    x, y = np.broadcast_arrays(x, np.asarray(y, dtype=complex))
    shape = x.shape[:-1]
    x, y = x.reshape(-1, n), y.reshape(-1, n)
    rows = len(sq)
    c, size, fft = _band_route(symbol, n, which)
    # conj: S u is the full convolution of u and c, of length rows; phi: T_n* u
    # correlates u with c, entries len(c)-1 .. len(c)+n-2 of u convolved with conj(c) reversed
    kernel, start = (c, 0) if which == "conj" else (np.conj(c)[::-1], len(c) - 1)
    spectrum = np.fft.fft(kernel, size) if fft else None

    def apply(v):
        # conj: (Sv)_m = sum_j c_j sqrt(w_{m-j}) v_{m-j} / sqrt(w_m), m < rows
        # phi: (T_n* v)_k = sqrt(w_k) sum_j conj(c_j) v_{k+j} / sqrt(w_{k+j}), k < n
        u = v * sq[:n] if which == "conj" else v / sq
        if spectrum is not None:
            f = np.fft.fft(u, size)
            f *= spectrum
            out = np.fft.ifft(f)[:, start : start + rows]
        else:
            out = np.zeros((len(u), rows), dtype=complex)
            for i in np.flatnonzero(kernel):  # kernel[i] u[:, k] lands in column k + i - start
                lo = i - start
                out[:, max(lo, 0) : lo + n] += kernel[i] * u[:, max(-lo, 0) :]
        return np.divide(out, sq, out=out) if which == "conj" else np.multiply(out, sq, out=out)

    form = np.empty(len(x), dtype=complex)
    block = max(_FFT_BLOCK, _BLOCK_ENTRIES // rows)
    for i in range(0, len(x), block):
        xb, yb = x[i : i + block], y[i : i + block]
        tx = apply(xb)
        ty = tx if same else apply(yb)
        form[i : i + block] = np.sum(np.conj(xb) * yb, axis=-1) - np.sum(np.conj(tx) * ty, axis=-1)
    return form.reshape(shape)[()]


def _kernel_form(symbol: PowerSeriesSymbol, alpha, n: int, which: str, z, w, unit: bool):
    """x* E y for E = defect_matrix(symbol, alpha, n, which) at the (unit) kernel vectors of z and w.

    Checked and priced by _check_work before the weight recurrence runs
    once, over the rows E reads; T is applied once when w is z.
    """
    same = w is z
    z = _check_disk(z)
    w = z if same else _check_disk(w)
    a, n = _check_work(symbol, alpha, n, which, z, w)
    sq = np.sqrt(basis_weights(a, _defect_rows(symbol, n, which) - 1))
    x = _kernel_vectors(a.alpha, z, sq[:n], unit)
    y = x if same else _kernel_vectors(a.alpha, w, sq[:n], unit)
    return _defect_form(symbol, n, which, x, y, sq)


def berezin_values(symbol: PowerSeriesSymbol, alpha: WeightParameter | float, n: int, points):
    """Berezin transforms <E k_a, k_a> of E = defect_matrix(symbol, alpha, n, "phi") at every a.

    One _kernel_form call, so E is never formed; berezin on the dense block
    is the independent oracle.
    """
    return np.real(_kernel_form(symbol, alpha, n, "phi", points, points, True))


def _kernel_vectors(alpha: float, a: np.ndarray, sq: np.ndarray, unit: bool) -> np.ndarray:
    """sqrt(w_m) conj(a)^m, m < len(sq) with sq = sqrt(w), along a new last axis at checked
    points; times (1 - |a|^2)^((2 + alpha)/2), the normalized kernel, when unit."""
    p = _powers(np.conj(a), len(sq))
    if unit:
        sq = ((1.0 - np.abs(a) ** 2) ** ((2.0 + alpha) / 2.0))[..., None] * sq
    return sq * p


def normalized_kernel_coeffs(alpha: WeightParameter | float, a, n: int) -> np.ndarray:
    """Basis coefficients, truncated to n, of the normalized kernel at a (along a new last axis)."""
    al = as_weight(alpha).alpha
    n = _check_count(n, "basis size", 1)
    a = _check_disk(a, "base point")
    return _kernel_vectors(al, a, np.sqrt(basis_weights(al, n - 1)), True)


def berezin(defect: OperatorMatrix, a: complex) -> float:
    """Berezin transform <E k_a, k_a> of a defect matrix at the point a.

    For the untruncated operator this equals 1 - |phi(a)|^2; the truncation
    error is bounded by the discarded coefficient mass of k_a.
    """
    if defect.kind != "defect_phi":
        raise ValueError(f"berezin expects a defect_phi matrix, got kind {defect.kind!r}")
    c = normalized_kernel_coeffs(defect.alpha, a, defect.basis_size)
    return float(np.real(c.conj() @ defect.entries @ c))


@dataclass(frozen=True)
class SchattenEstimate:
    value: float
    tail_converged: bool


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted descending with a log-log decay fit over a window."""

    eigenvalues: np.ndarray
    decay_exponent: float
    fit_window: tuple[int, int]
    schatten_estimates: dict[float, SchattenEstimate]


def _check_hermitian(entries: np.ndarray) -> None:
    """Refuse an empty, non-square, non-finite, or (past HERMITIAN_TOL) non-Hermitian matrix.

    LAPACK's Hermitian solvers read one triangle only: an asymmetric matrix
    would get the eigenvalues of its lower triangle's Hermitian completion.
    """
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
        raise ValueError(f"matrix must be square and nonempty, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")
    step = max(1, _BLOCK_ENTRIES // len(entries))  # rows per block: temporaries near 0.5 MB at any size
    blocks = (entries[i : i + step] - entries[:, i : i + step].conj().T for i in range(0, len(entries), step))
    asym = max(float(np.max(np.abs(b))) for b in blocks)
    if asym > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")


def _decay_slope(eigenvalues: np.ndarray, lo: int, hi: int) -> float:
    """Least-squares slope of log lambda_n against log(n+1) over lo <= n <= hi.

    n is the 1-based index into the descending eigenvalues; nonpositive
    eigenvalues are left out, and fewer than two positive ones give nan.
    """
    idx = np.arange(lo, hi + 1)
    lam = eigenvalues[idx - 1]
    mask = lam > 0
    if mask.sum() < 2:
        return float("nan")
    x = np.log(idx[mask] + 1.0)
    design = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(design, np.log(lam[mask]), rcond=None)
    return float(sol[0])


def _fit_window(n: int, window=None) -> tuple[int, int]:
    """The decay-fit window (lo, hi) of an n x n section, 1-based eigenvalue ranks.

    The last quarter of the spectrum is truncation-polluted, so a window is
    two integers with 1 <= lo < hi <= 3n/4, and n must be >= 3; the default
    is (max(1, n // 40), 3n // 4). Anything else raises ValueError.
    """
    usable = 3 * n // 4
    if usable < 2:
        raise ValueError(
            f"matrix size {n} is too small for a decay fit: the first 3n/4 eigenvalues "
            "must hold at least 2, so the size must be >= 3"
        )
    if window is None:
        return max(1, n // 40), usable
    try:
        lo, hi = window if np.shape(window) == (2,) else (None, None)
    except ValueError:  # np.shape of a ragged sequence
        lo = hi = None
    if not (all(isinstance(k, int | np.integer) for k in (lo, hi)) and 1 <= lo < hi <= usable):
        raise ValueError(f"fit window {window!r} must be two integers lo < hi within [1, {usable}]")
    return int(lo), int(hi)


def _spectrum_report(ev: np.ndarray, window: tuple[int, int]) -> SpectrumReport:
    """Decay fit and Schatten partial sums of descending eigenvalues over a checked window."""
    slope = _decay_slope(ev, *window)
    clipped = np.clip(ev[: 3 * len(ev) // 4], 0.0, None)
    schatten: dict[float, SchattenEstimate] = {}
    for p in SCHATTEN_EXPONENTS:
        powers = clipped**p
        total = float(powers.sum())
        last = float(powers[-1]) if len(powers) else 0.0
        schatten[p] = SchattenEstimate(
            value=total ** (1.0 / p) if total > 0 else 0.0,
            tail_converged=bool(total > 0 and last <= 0.01 * total),
        )
    return SpectrumReport(eigenvalues=ev, decay_exponent=slope, fit_window=window, schatten_estimates=schatten)


def spectrum(op: OperatorMatrix, fit_window: tuple[int, int] | None = None) -> SpectrumReport:
    """Eigendecomposition with decay-exponent fit and Schatten partial sums.

    decay_exponent is the least-squares slope of log lambda_n against
    log(n+1), n the 1-based index into the descending eigenvalues, over the
    window _fit_window checks. The last quarter of the spectrum is
    truncation-polluted and never enters the fit or the Schatten sums.
    """
    _check_hermitian(op.entries)
    window = _fit_window(op.basis_size, fit_window)
    return _spectrum_report(np.linalg.eigvalsh(op.entries)[::-1].copy(), window)


def inclusion_eigenvalues(
    alpha: WeightParameter | float, gamma: WeightParameter | float, n: int
) -> np.ndarray:
    """Eigenvalues w_k(gamma)/w_k(alpha), k = 0..n, of i*i for the inclusion.

    The inclusion of the alpha space into the larger gamma space has
    diagonal i*i in the monomial basis; the entries decay like
    (k+1)^-(alpha-gamma).
    """
    a = as_weight(alpha)
    g = as_weight(gamma)
    if g.alpha >= a.alpha:
        raise ValueError(f"inclusion needs gamma < alpha, got gamma={g.alpha}, alpha={a.alpha}")
    # the two weight sequences are computed separately so exactly
    # representable cases (integer weights) divide without extra rounding
    return basis_weights(g, n) / basis_weights(a, n)


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    The reference dense solver: independent of the LAPACK path, used to
    re-verify witnesses. Returns eigenvalues sorted descending. Each
    rotation dephases the pivot entry and applies the classic symmetric
    Jacobi angle; sweeps stop when the off-diagonal Frobenius mass falls
    below 1e-12 times the matrix scale, or after 60 sweeps. The sweeps run
    on the matrix scaled by the power of two that brings its largest entry
    into [1/2, 1), exact for every entry above 1e-308 times the largest, so
    squared entries neither overflow (past about 1e154) nor underflow; the
    eigenvalues are scaled back.
    """
    a = np.array(matrix, dtype=complex)
    _check_hermitian(a)
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    exponent = int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a.view(float), -exponent).view(complex)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    for _ in range(60):
        off = np.sqrt(max(float(np.sum(np.abs(a) ** 2) - np.sum(np.abs(np.diag(a)) ** 2)), 0.0))
        if off <= 1e-12 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = 1.0 if tau == 0 else np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))  # tau^2 can overflow
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # unitary U: columns (p,q) -> (c x_p - conj(phase) s x_q,
                #                              s x_p + conj(phase) c x_q)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - np.conj(phase) * s * col_q
                a[:, q] = s * col_p + np.conj(phase) * c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - phase * s * row_q
                a[q, :] = s * row_p + phase * c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    return np.ldexp(np.sort(np.diag(a).real)[::-1], exponent)
