"""Reproducing kernels of the weighted Bergman and sub-Bergman spaces.

Three kinds: the Bergman kernel (1 - z conj(w))^-(2+alpha), the sub-Bergman
kernel (1 - phi(z) conj(phi(w))) (1 - z conj(w))^-(2+alpha), and the
conjugate sub-Bergman kernel, which has no closed form and is evaluated in
coefficient space as a quadratic form of the defect operator I - T* T,
cross-validated by quadrature over the disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import WORK_BUDGET, _kernel_form
from .scalars import WeightParameter, _check_disk, _power, as_weight
from .symbols import PowerSeriesSymbol, _check_series, normalize

KINDS = ("bergman", "sub", "conj_sub")
CONJ_SUB_VALUE_TOL = 1e-8
# radial rows, and pairs, in one block of conj_sub_quadrature: 16 x 16 x 256 nodes (1 MB)
_QUAD_BLOCK = 16


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate: kind, weight parameter, and symbol if needed."""

    kind: str
    alpha: WeightParameter
    symbol: PowerSeriesSymbol | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kernel kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "alpha", as_weight(self.alpha))
        if self.kind in ("sub", "conj_sub") and self.symbol is None:
            raise ValueError(f"kernel kind {self.kind!r} requires a symbol")
        if self.symbol is not None:
            _check_series(self.symbol)
        if self.kind == "conj_sub" and not self.alpha.integrable:
            # the defining integral uses the normalized measure dA_alpha,
            # which is infinite for alpha <= -1
            raise ValueError("conj_sub kernels require alpha > -1")


def _bergman(alpha: float, z, w):
    return _power(1.0 - z * np.conj(w), -2.0 - alpha)


def eval_kernel(spec: KernelSpec, z, w):
    """Kernel value K(z, w); accepts scalars or broadcastable arrays.

    The principal branch of the complex power is unambiguous here because
    Re(1 - z conj(w)) > 0 on the disk. Points that are not finite or not
    strictly inside the disk raise ValueError. conj_sub is truncated within
    CONJ_SUB_VALUE_TOL and refused over WORK_BUDGET before any compute. A
    value that overflows (the Bergman factor at large alpha) raises
    ValueError instead of returning inf or nan.
    """
    z = _check_disk(z, "kernel argument").astype(complex, copy=False)
    w = _check_disk(w, "kernel argument").astype(complex, copy=False)
    with np.errstate(all="ignore"):
        if spec.kind == "bergman":
            out = _bergman(spec.alpha.alpha, z, w)
        elif spec.kind == "sub":
            pz = spec.symbol.eval(z)
            pw = spec.symbol.eval(w)
            out = (1.0 - pz * np.conj(pw)) * _bergman(spec.alpha.alpha, z, w)
        else:
            out = _conj_sub(spec.symbol, spec.alpha, z, w)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{spec.kind} kernel at alpha {spec.alpha.alpha:g} overflows at these points")
    return complex(out) if out.ndim == 0 else out


def _log_tail(alpha: float, t: float, n: int) -> float:
    """log of w_n t^n / (1 - rho_n), a bound on sum_{m >= n} w_m t^m (-inf at t = 0).

    rho_n = t (n+2+alpha)/(n+1) is the ratio of consecutive terms at m = n;
    for alpha > -1 it decreases in m, so the tail is below the geometric
    series it starts. The bound is inf while rho_n >= 1.
    """
    if t == 0.0:
        return -math.inf
    rho = t * (n + 2.0 + alpha) / (n + 1.0)
    if rho >= 1.0:
        return math.inf
    log_w = math.lgamma(n + 2.0 + alpha) - math.lgamma(n + 1.0) - math.lgamma(2.0 + alpha)
    return log_w + n * math.log(t) - math.log1p(-rho)


def _conj_sub_truncation(symbol: PowerSeriesSymbol, alpha: WeightParameter, z, w) -> tuple[int, float]:
    """Smallest basis size n whose truncation bound is <= CONJ_SUB_VALUE_TOL, and that bound.

    With x = (sqrt(w_m) conj(z)^m) and y likewise, K = x* E y, and the n
    section gives K_n = x_n* E y_n, so |K - K_n| <= ||E|| (||x_t|| ||y|| +
    ||x|| ||y_t||) with x_t = x - x_n. Here ||x||^2 = (1-|z|^2)^-(2+alpha),
    ||x_t||^2 is bounded by _log_tail, and ||E|| = ||I - T*T|| <=
    max(1, s^2 - 1) with s = sum |c_j| >= ||T||, because ||M_{z^j}|| <= 1
    for alpha > -1. A batch is bounded at its largest |z| and |w|. n is
    found by doubling and bisection on this closed form; its price is
    _kernel_form's. The bound is on truncation only: the two sums of
    _defect_form round at about eps ||x|| ||y||.
    """
    a = alpha.alpha
    tz = float(np.max(np.abs(z))) ** 2
    tw = float(np.max(np.abs(w))) ** 2
    s = float(np.sum(np.abs(symbol.coeffs)))
    log_e = math.log(max(1.0, s * s - 1.0))
    log_x = -(2.0 + a) / 2.0 * math.log1p(-tz)
    log_y = -(2.0 + a) / 2.0 * math.log1p(-tw)
    log_tol = math.log(CONJ_SUB_VALUE_TOL)

    def log_bound(n: int) -> float:
        tails = (0.5 * _log_tail(a, tz, n) + log_y, log_x + 0.5 * _log_tail(a, tw, n))
        return log_e + float(np.logaddexp(*tails))

    hi = 1
    while log_bound(hi) > log_tol:
        hi *= 2
    lo = hi // 2  # 0, or a size whose bound is too large: the bound falls with n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_bound(mid) > log_tol:
            lo = mid
        else:
            hi = mid
    return hi, math.exp(log_bound(hi))


def _conj_sub(symbol: PowerSeriesSymbol, alpha: WeightParameter, z, w):
    """sum_{m,k} sqrt(w_m w_k) z^m E_mk conj(w)^k, E the n x n block of I - T* T with n from
    _conj_sub_truncation: the form of E at the kernel vectors, one call for the batch."""
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    if z.size == 0:
        return np.zeros(z.shape, dtype=complex)
    n, _ = _conj_sub_truncation(symbol, alpha, z, w)
    return _kernel_form(symbol, alpha, n, "conj", z, w, False)


@lru_cache(maxsize=32)
def _gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1-x)^alpha on [-1, 1], by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    monic Jacobi polynomials P^(alpha, 0); the weights are mu_0 times the
    squared first eigenvector components, with mu_0 = 2^(alpha+1)/(alpha+1)
    the integral of the weight (Golub & Welsch, Math. Comp. 23, 1969).
    Cached, so the arrays are read-only.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + alpha
    diag = np.empty(n)
    diag[0] = -alpha / (alpha + 2.0)  # the general entry is 0/0 here at alpha = 0
    diag[1:] = -(alpha * alpha) / (s * (s + 2.0))
    off = 2.0 * k * (k + alpha) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (alpha + 1.0) / (alpha + 1.0) * v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def conj_sub_quadrature(
    symbol: PowerSeriesSymbol,
    alpha: WeightParameter | float,
    z,
    w,
):
    """Independent quadrature route for the conjugate sub-Bergman kernel.

    Integrates (1-|phi(u)|^2) / ((1-z conj(u))^(2+alpha) (1-u conj(w))^(2+alpha))
    against dA_alpha = (alpha+1)(1-|u|^2)^alpha dA. In the radial variable
    t = |u|^2 the weight (1-t)^alpha is folded into a Gauss-Jacobi rule
    (plain Gauss-Legendre at alpha = 0, where the weight is constant),
    computed with numpy by the Golub-Welsch method and cached per alpha;
    the angular direction uses the trapezoid rule, spectrally accurate for
    periodic integrands. The grid has 128 radial by 256 angular nodes.

    The grid is visited in blocks of _QUAD_BLOCK radial rows by _QUAD_BLOCK
    pairs, so no temporary grows with the batch: a call holds a few MB at
    any batch size. On a block's rows phi comes from one inverse FFT per
    radius, and the integrand takes one principal power of the product of
    its two factors, which is exact because each factor has Re > 0, so their
    arguments add without wrapping (see _power). A request of more than
    WORK_BUDGET pairs x grid nodes (1525 pairs) raises ValueError before any
    compute.
    """
    a = KernelSpec("conj_sub", alpha, symbol).alpha  # the spec's rules: a series, alpha > -1
    z = _check_disk(z, "kernel argument").astype(complex, copy=False)
    w = _check_disk(w, "kernel argument").astype(complex, copy=False)
    n_radial, n_angular = 128, 256
    pairs = np.broadcast(z, w).size
    if pairs * n_radial * n_angular > WORK_BUDGET:
        raise ValueError(
            f"conj_sub_quadrature: {pairs} pair(s) x {n_radial * n_angular} grid nodes exceed "
            f"the work budget {WORK_BUDGET:g}; split the batch"
        )
    z, w = np.broadcast_arrays(z, w)
    if z.size == 0:
        return np.zeros(z.shape, dtype=complex)
    x, wts = _gauss_jacobi(n_radial, a.alpha)
    r = np.sqrt((x + 1.0) / 2.0)
    wts = wts * ((a.alpha + 1.0) * 2.0 ** (-(1.0 + a.alpha)) / n_angular)
    angles = np.exp(2j * np.pi * np.arange(n_angular) / n_angular)
    # phi(r e^(2 pi i j / N)) = sum_m g_m e^(2 pi i m j / N), N = n_angular, with
    # g_m = sum_l c_(lN+m) r^(lN+m): the coefficients fold onto k mod N (row l of
    # folded), and the inverse FFT pads the columns m >= len(symbol) with zeros
    k = np.arange(min(len(symbol), n_angular))
    folded = np.pad(symbol.coeffs, (0, -len(symbol) % n_angular)).reshape(-1, n_angular)[:, : len(k)]
    zc = z.reshape(-1, 1)
    wc = np.conj(w).reshape(-1, 1)
    s = 2.0 + a.alpha
    out = np.zeros(z.size, dtype=complex)
    for i in range(0, n_radial, _QUAD_BLOCK):
        rb = r[i : i + _QUAD_BLOCK, None]
        g = sum(rb ** (l * n_angular + k) * row for l, row in enumerate(folded))
        phi = np.fft.ifft(g, n_angular, norm="forward")
        dens = wts[i : i + _QUAD_BLOCK, None] * (1.0 - (phi.real**2 + phi.imag**2))
        dens = dens.astype(complex).ravel()
        u = (rb * angles).ravel()
        ub = np.conj(u)
        for j in range(0, z.size, _QUAD_BLOCK):
            q = (1.0 - zc[j : j + _QUAD_BLOCK] * ub) * (1.0 - u * wc[j : j + _QUAD_BLOCK])
            out[j : j + _QUAD_BLOCK] += _power(q, -s) @ dens
    out = out.reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def rescaling_check(
    symbol: PowerSeriesSymbol, alpha: WeightParameter | float, points
) -> float:
    """Max residual of the base-point rescaling identity over the point set.

    With psi and g from normalize, the sub-Bergman kernels satisfy
    K_psi(z, w) = g(z) conj(g(w)) K_phi(z, w); both sides are evaluated
    independently for every ordered pair.
    """
    a = as_weight(alpha)
    pts = _check_disk(points).astype(complex, copy=False)
    if pts.ndim != 1 or len(pts) < 2:
        raise ValueError("rescaling check needs at least two points")
    norm = normalize(symbol)
    z = pts[:, None]
    w = pts[None, :]
    k_phi = eval_kernel(KernelSpec("sub", a, symbol), z, w)
    k_psi = eval_kernel(KernelSpec("sub", a, norm.psi), z, w)
    gv = norm.g(pts)
    return float(np.max(np.abs(k_psi - gv[:, None] * np.conj(gv)[None, :] * k_phi)))
