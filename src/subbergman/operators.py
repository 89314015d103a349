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

from .scalars import WeightParameter, as_weight, basis_weights
from .symbols import PowerSeriesSymbol

SCHATTEN_EXPONENTS = (1.0, 1.5, 2.0, 3.0)
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class OperatorMatrix:
    """A truncated operator in the monomial orthonormal basis."""

    entries: np.ndarray
    alpha: WeightParameter
    basis_size: int
    kind: str  # toeplitz | defect_phi | defect_conj | inclusion_diag

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def _toeplitz_entries(symbol: PowerSeriesSymbol, sq: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols corner of the multiplication operator, sq = sqrt(w_k) for k < rows.

    The entries are float64 when no coefficient has a nonzero imaginary part
    (a -0.0 counts as zero) and complex otherwise, so real symbols reach the
    real BLAS and LAPACK routines downstream.
    """
    c = symbol.coeffs
    if not np.any(c.imag):
        c = c.real
    t = np.zeros((rows, cols), dtype=c.dtype)
    for j in range(min(len(symbol), rows)):
        k = np.arange(min(cols, rows - j))
        t[k + j, k] = c[j] * sq[k] / sq[k + j]
    return t


def toeplitz_matrix(
    symbol: PowerSeriesSymbol, alpha: WeightParameter | float, n: int
) -> OperatorMatrix:
    """n x n section of the multiplication operator by the symbol."""
    a = as_weight(alpha)
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    sq = np.sqrt(basis_weights(a, n - 1).values)
    t = _toeplitz_entries(symbol, sq, n, n)
    return OperatorMatrix(entries=t, alpha=a, basis_size=n, kind="toeplitz")


def _check_defect_args(alpha, n: int, which: str) -> WeightParameter:
    if which not in ("phi", "conj"):
        raise ValueError(f'which must be "phi" or "conj", got {which!r}')
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return as_weight(alpha)


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
    a = _check_defect_args(alpha, n, which)
    rows = n if which == "phi" else n + len(symbol) - 1
    sq = np.sqrt(basis_weights(a, rows - 1).values)
    t = _toeplitz_entries(symbol, sq, rows, n)
    e = np.eye(n) - (t @ t.conj().T if which == "phi" else t.conj().T @ t)
    e = (e + e.conj().T) / 2.0  # exact Hermitian symmetry for downstream solvers
    return OperatorMatrix(entries=e, alpha=a, basis_size=n, kind=f"defect_{which}")


def defect_form(
    symbol: PowerSeriesSymbol,
    alpha: WeightParameter | float,
    n: int,
    which: str,
    x: np.ndarray,
    y: np.ndarray,
):
    """The quadratic form x* E y of the block E = defect_matrix(symbol, alpha, n, which).

    E is never formed. With S as in defect_matrix, x* E y = x*y - (Sx)*(Sy)
    for "conj" and x*y - (T_n* x)*(T_n* y) for "phi"; T is applied one
    nonzero band diagonal at a time, in O(nL) time per vector. x and y have
    length n in their last axis and broadcast over the leading axes.
    """
    a = _check_defect_args(alpha, n, which)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-1] != n or y.shape[-1] != n:
        raise ValueError(f"vectors must have length {n} in their last axis")
    rows = n if which == "phi" else n + len(symbol) - 1
    sq = np.sqrt(basis_weights(a, rows - 1).values)
    diagonals = np.flatnonzero(symbol.coeffs[:rows])

    def apply(v):
        # conj: (Sv)_m = sum_j c_j sqrt(w_{m-j}) v_{m-j} / sqrt(w_m), m < rows
        # phi: (T_n* v)_k = sqrt(w_k) sum_j conj(c_j) v_{k+j} / sqrt(w_{k+j}), k < n
        out = np.zeros(v.shape[:-1] + (rows,), dtype=complex)
        if which == "conj":
            u = v * sq[:n]
            for j in diagonals:
                out[..., j : j + n] += symbol.coeffs[j] * u
            return out / sq
        u = v / sq
        for j in diagonals:
            out[..., : n - j] += np.conj(symbol.coeffs[j]) * u[..., j:]
        return out * sq

    return np.sum(np.conj(x) * y, axis=-1) - np.sum(np.conj(apply(x)) * apply(y), axis=-1)


def berezin_values(symbol: PowerSeriesSymbol, alpha: WeightParameter | float, n: int, points):
    """Berezin transforms <E k_a, k_a> of E = defect_matrix(symbol, alpha, n, "phi") at every a.

    One defect_form call on the stacked kernel vectors, so E is never
    formed; berezin on the dense block is the independent oracle.
    """
    _check_defect_args(alpha, n, "phi")
    c = normalized_kernel_coeffs(alpha, points, n)
    return np.real(defect_form(symbol, alpha, n, "phi", c, c))


def normalized_kernel_coeffs(alpha: WeightParameter | float, a, n: int) -> np.ndarray:
    """Basis coefficients, truncated to n, of the normalized kernel at a (along a new last axis)."""
    al = as_weight(alpha).alpha
    a = np.asarray(a)
    if np.any(np.abs(a) >= 1):
        raise ValueError("base point must satisfy |a| < 1")
    w = basis_weights(al, n - 1).values
    scale = (1.0 - np.abs(a) ** 2) ** ((2.0 + al) / 2.0)
    return scale[..., None] * np.sqrt(w) * np.conj(a)[..., None] ** np.arange(n)


def berezin(defect: OperatorMatrix, a: complex) -> float:
    """Berezin transform <E k_a, k_a> of a defect matrix at the point a.

    For the untruncated operator this equals 1 - |phi(a)|^2; the truncation
    error is bounded by the discarded coefficient mass of k_a.
    """
    if defect.kind != "defect_phi":
        raise ValueError(f"berezin expects a defect_phi matrix, got kind {defect.kind!r}")
    c = normalized_kernel_coeffs(defect.alpha, a, defect.basis_size)
    return float(np.real(c.conj() @ defect.entries @ c))


def gram(f_coeffs: np.ndarray, g_coeffs: np.ndarray, alpha: WeightParameter | float) -> complex:
    """Coefficient-space inner product sum f_m conj(g_m) / w_m of monomial coefficients."""
    f = np.asarray(f_coeffs, dtype=complex)
    g = np.asarray(g_coeffs, dtype=complex)
    if f.shape != g.shape:
        raise ValueError("coefficient vectors must have equal length")
    w = basis_weights(alpha, len(f) - 1).values
    return complex(np.sum(f * np.conj(g) / w))


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
    asym = float(np.max(np.abs(entries - entries.conj().T)))
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


def spectrum(op: OperatorMatrix, fit_window: tuple[int, int] | None = None) -> SpectrumReport:
    """Eigendecomposition with decay-exponent fit and Schatten partial sums.

    decay_exponent is the least-squares slope of log lambda_n against
    log(n+1), n the 1-based index into the descending eigenvalues. The last
    quarter of the spectrum is truncation-polluted and never enters the fit
    or the Schatten sums.
    """
    _check_hermitian(op.entries)
    n = op.basis_size
    usable = 3 * n // 4
    if usable < 2:
        raise ValueError(
            f"matrix size {n} is too small for a decay fit: the first 3n/4 eigenvalues "
            "must hold at least 2, so the size must be >= 3"
        )
    if fit_window is None:
        fit_window = (max(1, n // 40), usable)
    lo, hi = int(fit_window[0]), int(fit_window[1])
    if not (1 <= lo < hi <= usable):
        raise ValueError(f"fit window {fit_window} must lie within [1, {usable}]")
    ev = np.linalg.eigvalsh(op.entries)[::-1].copy()
    slope = _decay_slope(ev, lo, hi)
    clipped = np.clip(ev[:usable], 0.0, None)
    schatten: dict[float, SchattenEstimate] = {}
    for p in SCHATTEN_EXPONENTS:
        powers = clipped**p
        total = float(powers.sum())
        last = float(powers[-1]) if len(powers) else 0.0
        schatten[p] = SchattenEstimate(
            value=total ** (1.0 / p) if total > 0 else 0.0,
            tail_converged=bool(total > 0 and last <= 0.01 * total),
        )
    return SpectrumReport(
        eigenvalues=ev, decay_exponent=slope, fit_window=(lo, hi), schatten_estimates=schatten
    )


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
    return basis_weights(g, n).values / basis_weights(a, n).values


def inclusion_matrix(
    alpha: WeightParameter | float, gamma: WeightParameter | float, n: int
) -> OperatorMatrix:
    vals = inclusion_eigenvalues(alpha, gamma, n)
    return OperatorMatrix(
        entries=np.diag(vals),
        alpha=as_weight(alpha),
        basis_size=n + 1,
        kind="inclusion_diag",
    )


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    The reference dense solver: independent of the LAPACK path, used to
    re-verify witnesses. Returns eigenvalues sorted descending. Each
    rotation dephases the pivot entry and applies the classic symmetric
    Jacobi angle; sweeps stop when the off-diagonal Frobenius mass falls
    below tol times the matrix scale.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi solver needs a square matrix")
    _check_hermitian(a)
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    scale = max(float(np.linalg.norm(a)), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(max(float(np.sum(np.abs(a) ** 2) - np.sum(np.abs(np.diag(a)) ** 2)), 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = 1.0 if tau == 0 else np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
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
    return np.sort(np.diag(a).real)[::-1]
