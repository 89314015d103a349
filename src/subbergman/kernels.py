"""Reproducing kernels of the weighted Bergman and sub-Bergman spaces.

Three kinds: the Bergman kernel (1 - z conj(w))^-(2+alpha), the sub-Bergman
kernel (1 - phi(z) conj(phi(w))) (1 - z conj(w))^-(2+alpha), and the
conjugate sub-Bergman kernel, which has no closed form and is evaluated in
coefficient space as a quadratic form of the defect operator I - T* T,
cross-validated by quadrature over the disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import defect_form
from .scalars import WeightParameter, as_weight, basis_weights
from .symbols import MobiusSpec, PowerSeriesSymbol, bind_symbol, normalize

KINDS = ("bergman", "sub", "conj_sub")
CONJ_SUB_START_SIZE = 200
CONJ_SUB_MAX_SIZE = 3200
CONJ_SUB_VALUE_TOL = 1e-8


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
        if self.kind == "conj_sub" and not self.alpha.integrable:
            # the defining integral uses the normalized measure dA_alpha,
            # which is infinite for alpha <= -1
            raise ValueError("conj_sub kernels require alpha > -1")


def _check_disk(*points) -> None:
    for p in points:
        if np.any(np.abs(np.asarray(p)) >= 1):
            raise ValueError("kernel arguments must satisfy |z| < 1")


def _bergman(alpha: float, z, w):
    return (1.0 - z * np.conj(w)) ** (-(2.0 + alpha))


def eval_kernel(spec: KernelSpec, z, w):
    """Kernel value K(z, w); accepts scalars or broadcastable arrays.

    The principal branch of the complex power is unambiguous here because
    Re(1 - z conj(w)) > 0 on the disk. conj_sub evaluation truncates at an
    automatically doubled basis size until the values settle below 1e-8
    (raising ValueError if the cap is hit, which only happens near the boundary).
    """
    _check_disk(z, w)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if spec.kind == "bergman":
        out = _bergman(spec.alpha.alpha, z, w)
    elif spec.kind == "sub":
        pz = spec.symbol.eval(z)
        pw = spec.symbol.eval(w)
        out = (1.0 - pz * np.conj(pw)) * _bergman(spec.alpha.alpha, z, w)
    else:
        out = _conj_sub_auto(spec.symbol, spec.alpha, z, w)
    return complex(out) if out.ndim == 0 else out


def _conj_sub_auto(symbol: PowerSeriesSymbol, alpha: WeightParameter, z, w):
    """sum_{m,k} sqrt(w_m w_k) z^m E_mk conj(w)^k with E the n x n block of I - T* T.

    The value is read off the quadratic form of E at the conjugated kernel
    vectors, so E is never formed; n doubles until two sizes agree.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    prev = None
    n = CONJ_SUB_START_SIZE
    while n <= CONJ_SUB_MAX_SIZE:
        sq = np.sqrt(basis_weights(alpha, n - 1).values)
        m = np.arange(n)
        x = sq * np.conj(z[..., None]) ** m
        y = sq * np.conj(w[..., None]) ** m
        cur = defect_form(symbol, alpha, n, "conj", x, y)
        if prev is not None and np.max(np.abs(cur - prev)) < CONJ_SUB_VALUE_TOL:
            return cur
        prev = cur
        n *= 2
    radius = float(max(np.max(np.abs(z)), np.max(np.abs(w))))
    raise ValueError(
        f"conj_sub evaluation did not settle below {CONJ_SUB_VALUE_TOL} within the basis-size "
        f"cap {CONJ_SUB_MAX_SIZE} at radius {radius:.6g}; move the points away from the boundary"
    )


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
    n_radial: int = 128,
    n_angular: int = 256,
):
    """Independent quadrature route for the conjugate sub-Bergman kernel.

    Integrates (1-|phi(u)|^2) / ((1-z conj(u))^(2+alpha) (1-u conj(w))^(2+alpha))
    against dA_alpha = (alpha+1)(1-|u|^2)^alpha dA. In the radial variable
    t = |u|^2 the weight (1-t)^alpha is folded into a Gauss-Jacobi rule
    (plain Gauss-Legendre at alpha = 0, where the weight is constant),
    computed with numpy by the Golub-Welsch method and cached per
    (n_radial, alpha); the angular direction uses the trapezoid rule,
    spectrally accurate for periodic integrands.
    """
    a = as_weight(alpha)
    if not a.integrable:
        raise ValueError("conj_sub kernels require alpha > -1")
    if n_radial < 1 or n_angular < 1:
        raise ValueError("n_radial and n_angular must be >= 1")
    _check_disk(z, w)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    x, wts = _gauss_jacobi(n_radial, a.alpha)
    r = np.sqrt((x + 1.0) / 2.0)
    u = r[:, None] * np.exp(2j * np.pi * np.arange(n_angular) / n_angular)[None, :]
    dens = 1.0 - np.abs(symbol.eval(u)) ** 2
    scale = (a.alpha + 1.0) * 2.0 ** (-(1.0 + a.alpha)) / n_angular
    s = 2.0 + a.alpha
    f = dens / (
        (1.0 - z[..., None, None] * np.conj(u)) ** s * (1.0 - u * np.conj(w[..., None, None])) ** s
    )
    out = scale * np.sum(wts[:, None] * f, axis=(-2, -1))
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NormalizedKernelPoint:
    """The unit-norm reproducing kernel k_a(z) = (1-|a|^2)^((2+alpha)/2) K(z,a)."""

    a: complex
    alpha: WeightParameter

    def __post_init__(self) -> None:
        if abs(self.a) >= 1:
            raise ValueError("base point must satisfy |a| < 1")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "alpha", as_weight(self.alpha))


def eval_normalized(point: NormalizedKernelPoint, z):
    _check_disk(z)
    z = np.asarray(z, dtype=complex)
    s = 2.0 + point.alpha.alpha
    out = (1.0 - abs(point.a) ** 2) ** (s / 2.0) / (1.0 - z * np.conj(point.a)) ** s
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
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or len(pts) < 2:
        raise ValueError("rescaling check needs at least two points")
    norm = normalize(symbol)
    z = pts[:, None]
    w = pts[None, :]
    k_phi = eval_kernel(KernelSpec("sub", a, symbol), z, w)
    k_psi = eval_kernel(KernelSpec("sub", a, norm.psi), z, w)
    gv = norm.g(pts)
    return float(np.max(np.abs(k_psi - gv[:, None] * np.conj(gv)[None, :] * k_phi)))


def mobius_factorization_check(
    a: complex, zeta: complex, alpha: WeightParameter | float, points
) -> float:
    """Residual of the Moebius sub-Bergman factorization on a point set.

    For phi a Moebius map the sub-Bergman kernel factors as
    (1-|a|^2) / ((1 - conj(a) z)(1 - a conj(w))) times (1 - z conj(w))^-(1+alpha);
    the left side is evaluated through the series symbol, the right side
    from the closed form.
    """
    al = as_weight(alpha)
    if not -1 < al.alpha <= 0:
        raise ValueError(f"factorization check needs alpha in (-1, 0], got {al.alpha}")
    spec = MobiusSpec(a=a, zeta=zeta)
    pts = np.asarray(points, dtype=complex)
    _check_disk(pts)
    z = pts[:, None]
    w = pts[None, :]
    _, series = bind_symbol(spec, al)
    lhs = eval_kernel(KernelSpec("sub", al, series), z, w)
    rhs = (
        (1.0 - abs(spec.a) ** 2)
        / ((1.0 - np.conj(spec.a) * z) * (1.0 - spec.a * np.conj(w)))
        * (1.0 - z * np.conj(w)) ** (-(1.0 + al.alpha))
    )
    return float(np.max(np.abs(lhs - rhs)))
