"""Weight-parameter arithmetic, basis weights, and binomial series coefficients.

The weighted Bergman space with exponent alpha > -2 has orthonormal basis
e_n(z) = sqrt(w_n) z^n with w_n = Gamma(n+2+alpha) / (n! Gamma(2+alpha)).
Everything downstream (Toeplitz matrices, kernels, inclusion spectra) is
built from these weights and from the Taylor coefficients of (1-x)^s.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

# blocked loops take about this many entries per temporary (0.5 MB complex):
# PowerSeriesSymbol.eval, operators._defect_form and operators._check_hermitian
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class WeightParameter:
    """Weight exponent alpha of the coefficient inner product, alpha > -2."""

    alpha: float

    def __post_init__(self) -> None:
        _check_tolerance(self.alpha, "weight parameter alpha", -2.0)
        object.__setattr__(self, "alpha", float(self.alpha))

    def __float__(self) -> float:
        return float(self.alpha)

    @property
    def integrable(self) -> bool:
        """True when the area measure (1-|z|^2)^alpha dA is finite (alpha > -1)."""
        return self.alpha > -1


def as_weight(alpha: WeightParameter | float) -> WeightParameter:
    if isinstance(alpha, WeightParameter):
        return alpha
    return WeightParameter(alpha)


def _numeric(x, what: str) -> np.ndarray:
    """x as an array, unconverted, when its dtype is a numpy integer, float or complex; else
    ValueError naming what, for bool, str, None and any other object."""
    a = np.asarray(x)
    if a.dtype.kind not in "iufc":  # the np.number kinds, 5x faster than np.issubdtype
        raise ValueError(f"{what} must be a number, got {x!r}")
    return a


def _check_complex(x, what: str) -> complex:
    """complex(x) for one Python or numpy number (a 0-d array too), not a bool; else ValueError."""
    a = _numeric(x, what)
    if a.ndim:
        raise ValueError(f"{what} must be one number, got {x!r}")
    return complex(a)


def _check_disk(z, what: str = "point") -> np.ndarray:
    """z as an array, unconverted, when it is numeric and every entry is finite with |z| < 1;
    else ValueError.

    The test is written "not < 1", so nan fails it as well as +-inf.
    """
    z = _numeric(z, what)
    inside = np.abs(z) < 1
    if not np.all(inside):
        raise ValueError(f"{what} must be finite with |z| < 1, got {z[~inside].flat[0]}")
    return z


def _check_tolerance(x, what: str = "tolerance", lo: float = 0.0, closed: bool = False) -> None:
    """Refuse with ValueError naming what anything but a real number, not a bool, in (lo, inf),
    or in [lo, inf) when closed; nan too."""
    real = type(x) is not bool and isinstance(x, int | float | np.integer | np.floating)
    if not real or not (lo <= x if closed else lo < x) or not x < math.inf:
        raise ValueError(f"{what} must be a finite number {'>=' if closed else '>'} {lo:g}, got {x!r}")


def _check_count(n, what: str, lo: int, hi: int | None = None) -> int:
    """int(n) for a Python or numpy integer in [lo, hi] (no cap when hi is None); else ValueError
    naming what, for a bool and any float (400.0 too) as for an integer out of bounds."""
    if isinstance(n, bool) or not isinstance(n, int | np.integer) or n < lo or (hi is not None and n > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{what} must be an integer {bounds}, got {n!r}")
    return int(n)


# basis_weights keeps the longest prefix built for each of its last _WEIGHT_ALPHAS
# alphas, at most _WEIGHT_LENGTH weights each, so the cache holds at most 4 MB
_WEIGHT_ALPHAS = 8
_WEIGHT_LENGTH = 1 << 16
_weights: dict[float, np.ndarray] = {}
_weights_lock = threading.Lock()


def basis_weights(alpha: WeightParameter | float, n_max: int) -> np.ndarray:
    """Weights w_n = Gamma(n+2+alpha)/(n! Gamma(2+alpha)) for n = 0..n_max, read-only.

    Computed by the ratio recurrence w_{n+1} = w_n (n+2+alpha)/(n+1); direct
    Gamma evaluation overflows past n ~ 170 in double precision. The longest
    prefix built for an alpha is kept (up to _WEIGHT_LENGTH weights, for the
    last _WEIGHT_ALPHAS alphas) and a longer request continues the same
    recurrence from its last weight, so every result is bitwise the one a
    fresh run gives; shorter requests get a view of the kept prefix.
    """
    al = as_weight(alpha).alpha
    n_max = _check_count(n_max, "n_max", 0)
    with _weights_lock:  # the pop, the fill and the put-back act on one shared dict
        kept = _weights.pop(al, None)  # put back below: the dict stays in order of last use
        if kept is not None and len(kept) > n_max:
            full = kept
        else:
            head = np.ones(1) if kept is None else kept
            last, out = float(head[-1]), []
            # the recurrence in order on Python floats: each step rounds once, as
            # float64 does; np.cumprod would regroup the products and their rounding
            for n in range(len(head) - 1, n_max):
                last = last * (n + 2 + al) / (n + 1)
                out.append(last)
            full = np.concatenate([head, out])
            full.setflags(write=False)
            if len(full) <= _WEIGHT_LENGTH:
                kept = full
        if kept is not None:
            _weights[al] = kept
            if len(_weights) > _WEIGHT_ALPHAS:
                del _weights[next(iter(_weights))]
    return full[: n_max + 1]


def _powers(base, n: int) -> np.ndarray:
    """base^0..base^(n-1) along a new last axis, by repeated doubling.

    Each step extends the filled prefix p_0..p_{k-1} by p_j base^k =
    p_j (p_{k-1} base), so n powers take about log2(n) array products. The
    error of a power grows with the number of products on its chain; in
    norm over the row it stays near 2e-14 at |base| = 0.999 and n = 40000,
    where numpy's complex power, which goes through exp and log from
    exponent 100 on, is off by 1.7e-13.
    """
    base = np.asarray(base)
    p = np.empty(base.shape + (n,), dtype=np.result_type(base, 1.0))
    p[..., :1] = 1.0
    b = base[..., None]
    k = 1
    while k < n:
        m = min(k, n - k)
        p[..., k : k + m] = p[..., :m] * (p[..., k - 1 : k] * b)
        k += m
    return p


def _power(u, s: float):
    """u^s on the principal branch, for |arg u| < pi and real s != 0.

    That domain holds u = 1 - z conj(w) on the disk (Re u > 0), and also a
    product u = a b of two such factors, as in conj_sub_quadrature: their
    arguments lie in (-pi/2, pi/2), so arg u = arg a + arg b does not wrap
    and u^s = a^s b^s on the principal branch.
    For integer |s| this is u^|s| and for half-integer |s| u^m sqrt(u),
    m = floor(|s|) <= 8, u^m by repeated products, inverted when s < 0;
    numpy's complex power takes 3-4x as long at m = 2, for integer s too,
    and catches up at m = 10-11 on 65536 entries. sqrt(u) is principal, with
    argument arg(u) / 2, so this is the complex power to 1e-15 relative at
    |z|, |w| <= 0.999. Any other s is the complex power itself, so the cost
    is bounded at any s.
    """
    m = math.floor(abs(s))
    if m > 8 or abs(s) - m not in (0.0, 0.5):
        return u**s
    p, products = (np.sqrt(u), m) if abs(s) > m else (u, m - 1)
    for _ in range(products):
        p = p * u
    return p if s > 0 else 1.0 / p


def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, i n + j, j n + i) over the upper triangle i <= j of n x n, in np.triu_indices order.

    The index pairs and their flat positions in both triangles, as
    _hermitian_gram reads them; cnp_scan builds them once for all its trials.
    """
    i, j = np.triu_indices(n)
    return i, j, i * n + j, j * n + i


def _hermitian_gram(v: np.ndarray, z: np.ndarray, entry, tri=None) -> np.ndarray:
    """Hermitian matrix of entry(1 - v_i conj(v_j), 1 - z_i conj(z_j)) for 1-d v, z in the disk.

    The entries are computed on the upper triangle i <= j only, at the
    indices tri = _triangle(len(z)) (built here when None), and mirrored by
    conjugation, so the result is exactly Hermitian with a real diagonal.
    entry must commute with conjugation, as a kernel a b^-s and a Pick entry
    1 - b^s / a do; it sees each triangle as one array in np.triu_indices
    order.
    """
    n = len(z)
    i, j, upper, lower = _triangle(n) if tri is None else tri
    t = entry(1.0 - v[i] * np.conj(v[j]), 1.0 - z[i] * np.conj(z[j]))
    out = np.empty((n, n), dtype=complex)
    flat = out.reshape(-1)
    flat[lower] = np.conj(t)
    flat[upper] = t
    out.flat[:: n + 1] = out.diagonal().real
    return out


def _trace_scale(entries: np.ndarray) -> float:
    """max(1, Re trace(entries)): a PSD test passes when lambda_min >= -tolerance times this."""
    return max(1.0, float(np.trace(entries).real))


def _psd_within(entries: np.ndarray, tol: float) -> bool:
    """True when lambda_min(entries) >= -tol _trace_scale(entries), by one Cholesky factorization."""
    return _min_eig_above(entries, -tol * _trace_scale(entries))


def _min_eig_above(entries: np.ndarray, lam: float) -> bool:
    """True when lambda_min(entries) > lam, by one Cholesky factorization of entries - lam I.

    Cholesky succeeds exactly on positive definite input, so the answer is
    exact except when lambda_min lies within rounding of lam. Cholesky
    reads one triangle, so entries must be Hermitian. No eigenvalue is
    computed: a caller that reports one still needs eigvalsh. entries is
    copied, not changed (_factors_shifted works in place).
    """
    return _factors_shifted(np.array(entries, dtype=complex), lam)


def _factors_shifted(m: np.ndarray, lam: float) -> bool:
    """_min_eig_above on a complex matrix m that it overwrites: the diagonal becomes Re(m_ii) - lam.

    np.linalg.cholesky reads only the lower triangle and the diagonal, so
    a caller that builds m for this test alone need not fill the upper
    triangle. A non-finite factor fails too: LAPACK can end in one without
    an error once entries pass about 1e154 (Pick matrices from alpha about
    510 on).
    """
    m.flat[:: len(m) + 1] = m.diagonal().real - lam
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def binomial_coeffs(s: float, n_max: int) -> np.ndarray:
    """Taylor coefficients c_0..c_N of (1-x)^s, read-only.

    Computed by c_0 = 1, c_{n+1} = c_n (n-s)/(n+1). Once the coefficients
    have settled to one sign (n > s), partial sums at x in [0,1) approach
    (1-x)^s monotonically and the first omitted term bounds the error.
    """
    n_max = _check_count(n_max, "n_max", 0)
    c = np.empty(n_max + 1)
    c[0] = 1.0
    with np.errstate(over="ignore"):
        for n in range(n_max):
            c[n + 1] = c[n] * (n - s) / (n + 1)
    if not np.all(np.isfinite(c)):
        raise OverflowError(f"binomial coefficients overflow for s={s}, n_max={n_max}")
    c.setflags(write=False)
    return c
