"""Analytic symbols of the unit ball of H-infinity and their power series.

Supported closed forms: Moebius maps zeta (a-z)/(1-conj(a) z), finite
Blaschke products, scaled monomials c z^n, and the atomic singular inner
function exp(c (z+1)/(z-1)). Every symbol converts to a truncated Taylor
series (PowerSeriesSymbol), which is the representation the operator and
kernel modules consume.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .scalars import WeightParameter, _factors_shifted, _power, _trace_scale, as_weight, binomial_coeffs
from .scalars import _BLOCK_ENTRIES, _check_complex, _check_count, _check_disk, _check_tolerance, _numeric

# the tail bound a default-length series aims for; bind_symbol extends one that misses it
SERIES_TAIL_TOL = 1e-14
# largest monomial degree: at 10^4 a kernel eval takes 0.25 s and a CNP test 0.85 s
MONOMIAL_DEGREE_MAX = 10_000


def _unimodular(zeta: complex) -> complex:
    m = abs(zeta)
    if not abs(m - 1.0) <= 1e-12:  # nan fails it too
        raise ValueError(f"zeta must be unimodular, got |zeta| = {m}")
    # renormalize exactly so inner-function invariants stay exact
    return zeta / m


@dataclass(frozen=True)
class MobiusSpec:
    """Disk automorphism zeta (a-z)/(1-conj(a) z) swapping 0 and a.

    It is the Blaschke product of degree 1 with zero a; its `zeros` and
    `degree` let every routine treat it as one.
    """

    a: complex
    zeta: complex = 1.0

    def __post_init__(self) -> None:
        a = _check_complex(self.a, "Moebius base point")
        _check_disk(a, "Moebius base point")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "zeta", _unimodular(_check_complex(self.zeta, "zeta")))

    @property
    def zeros(self) -> tuple[complex]:
        return (self.a,)

    @property
    def degree(self) -> int:
        return 1


@dataclass(frozen=True)
class BlaschkeSpec:
    """Finite Blaschke product: zeta times Moebius factors at the given zeros."""

    zeros: tuple[complex, ...]
    zeta: complex = 1.0

    def __post_init__(self) -> None:
        zeros = _check_disk(self.zeros, "Blaschke zero")
        if zeros.ndim != 1:
            raise ValueError(f"Blaschke zeros must be a sequence of points, got {self.zeros!r}")
        _check_count(len(zeros), "Blaschke degree (number of zeros)", 1)
        object.__setattr__(self, "zeros", tuple(complex(z) for z in zeros))
        object.__setattr__(self, "zeta", _unimodular(_check_complex(self.zeta, "zeta")))

    @property
    def degree(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True)
class MonomialSpec:
    """Scaled monomial c z^n. c = None defers the scale choice to the caller.

    The deferred scale resolves, per weight parameter, to the largest value
    keeping the sub-Bergman kernel positive for -2 < alpha < -1 (see
    monomial_cnp_scale) and to 1 otherwise.
    """

    n: int
    c: complex | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_count(self.n, "monomial degree", 1, MONOMIAL_DEGREE_MAX))
        if self.c is not None:
            c = _check_complex(self.c, "monomial scale")
            if not abs(c) <= 1 + 1e-12:  # nan fails it too
                raise ValueError(f"monomial scale must satisfy |c| <= 1, got {c}")
            object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class SingularInnerSpec:
    """Atomic singular inner function exp(c (z+1)/(z-1)) with mass c > 0."""

    c: float

    def __post_init__(self) -> None:
        _check_tolerance(self.c, "singular inner mass c")


@dataclass(frozen=True)
class PowerSeriesSymbol:
    """Truncated Taylor coefficients c_0..c_L of an analytic symbol.

    tail_bound bounds the magnitude of every discarded coefficient, so
    evaluation at |z| <= r < 1 deviates from the represented function by at
    most tail_bound * r^(L+1) / (1-r). For rational symbols tail_bound is
    the full discarded l1 mass (geometrically exact); for singular inner
    symbols, whose coefficient tails are not absolutely summable, it is the
    unit-ball coefficient bound 1.
    """

    coeffs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        c = np.asarray(_numeric(self.coeffs, "coefficients"), dtype=complex)
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        _check_tolerance(self.tail_bound, "tail bound", 0.0, closed=True)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "tail_bound", float(self.tail_bound))

    def __len__(self) -> int:
        return len(self.coeffs)

    def eval(self, z):
        """Values at one or many points strictly inside the disk, by baby-step giant-step.

        With b = isqrt(L), the coefficients split into ceil(L/b) inner
        polynomials of b terms each. One matrix product evaluates all of them
        from z^0..z^(b-1), and Horner in z^b combines them, so a call takes
        O(sqrt(L)) numpy operations where plain Horner takes 2L. The points go
        in blocks of about scalars._BLOCK_ENTRIES / (b + L/b), so no temporary
        grows with the number of points times sqrt(L).
        """
        z = _check_disk(z, "evaluation point").astype(complex, copy=False)
        length = len(self.coeffs)
        b = math.isqrt(length)
        g = -(-length // b)
        inner = np.zeros((g, b), dtype=complex)
        inner.flat[:length] = self.coeffs  # row k holds c_(kb)..c_(kb+b-1)
        flat = z.reshape(-1)
        out = np.empty_like(flat)
        step = max(1, _BLOCK_ENTRIES // (b + g))
        for i in range(0, len(flat), step):
            zi = flat[i : i + step]
            # row j is z^j, by the doubling of scalars._powers and bitwise its values;
            # _powers puts the power axis last, where each product of a few powers of
            # many points loops over short strided rows (6x as long at 2048 points)
            p = np.empty((b + 1, len(zi)), dtype=complex)
            p[0] = 1.0
            k = 1
            while k <= b:
                m = min(k, b + 1 - k)
                np.multiply(p[:m], p[k - 1] * zi, out=p[k : k + m])
                k += m
            v = inner @ p[:b]
            acc = out[i : i + step]
            acc[...] = v[-1]
            for k in range(g - 2, -1, -1):
                acc *= p[b]
                acc += v[k]
        out = out.reshape(z.shape)
        return complex(out) if out.ndim == 0 else out


SymbolSpec = MobiusSpec | BlaschkeSpec | MonomialSpec | SingularInnerSpec


def _check_symbols(*specs) -> None:
    """Refuse with ValueError every value that is not a symbol spec or a PowerSeriesSymbol."""
    bad = [s for s in specs if not isinstance(s, SymbolSpec | PowerSeriesSymbol)]
    if bad:
        raise ValueError(f"not symbols: {bad!r}; use a spec or a PowerSeriesSymbol")


def _check_series(symbol) -> PowerSeriesSymbol:
    """The symbol when it is a PowerSeriesSymbol; else ValueError, for a spec as for any other value."""
    if not isinstance(symbol, PowerSeriesSymbol):
        raise ValueError(f"expected a PowerSeriesSymbol, got {symbol!r}; bind a spec with bind_symbol")
    return symbol


def _mobius_factor_coeffs(a: complex, length: int) -> np.ndarray:
    # (a-z)/(1-conj(a) z) = a + sum_{k>=1} conj(a)^(k-1) (|a|^2-1) z^k
    c = np.zeros(length, dtype=complex)
    c[0] = a
    if length > 1:
        k = np.arange(1, length)
        # a real zero gets float64 powers: complex ones leave imaginary residue from k = 101 on
        base = a.real if a.imag == 0 else np.conj(a)
        c[1:] = base ** (k - 1) * (abs(a) ** 2 - 1.0)
    return c

def _mobius_factor_tail(a: complex, length: int) -> float:
    # sum_{k>=L} |a|^(k-1) (1-|a|^2) = (1+|a|) |a|^(L-1), with 0^0 = 1
    r = abs(a)
    if length >= 2 and r == 0.0:
        return 0.0
    return (1.0 + r) * r ** (length - 1)


def to_series(spec: SymbolSpec | PowerSeriesSymbol, length: int) -> PowerSeriesSymbol:
    """First `length` Taylor coefficients of the symbol, with a tail bound.

    Products of Moebius factors are formed by exact polynomial convolution
    truncated to `length`; the discarded convolution mass and the factors'
    geometric tails are accumulated into tail_bound.
    """
    _check_symbols(spec)
    length = _check_count(length, "series length", 1)
    if isinstance(spec, PowerSeriesSymbol):
        if length >= len(spec):
            c = np.zeros(length, dtype=complex)
            c[: len(spec)] = spec.coeffs
            return PowerSeriesSymbol(c, spec.tail_bound)
        dropped = float(np.abs(spec.coeffs[length:]).sum())
        return PowerSeriesSymbol(spec.coeffs[:length], spec.tail_bound + dropped)
    if isinstance(spec, MobiusSpec | BlaschkeSpec):
        # the first factor is the product so far, so a Moebius map convolves nothing
        prod = _mobius_factor_coeffs(spec.zeros[0], length)
        tail = _mobius_factor_tail(spec.zeros[0], length)
        for a in spec.zeros[1:]:
            f = _mobius_factor_coeffs(a, length)
            tf = _mobius_factor_tail(a, length)
            absprod = np.convolve(np.abs(prod), np.abs(f))
            cross = float(np.abs(prod).sum()) * tf + tail * (float(np.abs(f).sum()) + tf)
            tail = float(absprod[length:].sum()) + cross
            prod = np.convolve(prod, f)[:length]
        return PowerSeriesSymbol(spec.zeta * prod, tail)
    if isinstance(spec, MonomialSpec):
        if spec.c is None:
            raise ValueError("monomial scale is unresolved; call resolve_monomial first")
        c = np.zeros(length, dtype=complex)
        if spec.n < length:
            c[spec.n] = spec.c
            return PowerSeriesSymbol(c, 0.0)
        return PowerSeriesSymbol(c, abs(spec.c))
    # a SingularInnerSpec: exp(c (z+1)/(z-1)) = e^{-c} sum_n L_n^(-1)(2c) z^n by the
    # Laguerre recurrence, DLMF 18.9.1
    x = 2.0 * spec.c
    h = [1.0, -x]
    for n in range(1, length - 1):
        h.append(((2 * n - x) * h[n] - (n - 1) * h[n - 1]) / (n + 1))
    return PowerSeriesSymbol(np.exp(-spec.c) * np.array(h[:length], dtype=complex), 1.0)


def default_series_length(spec: SymbolSpec | PowerSeriesSymbol) -> int:
    """Truncation length aiming for a tail bound of SERIES_TAIL_TOL.

    Rational symbols decay geometrically at rate max |a_i|, within [64, 1024]
    terms; singular inner coefficients decay slowly, so those symbols get a
    long fixed length and tail bound 1. bind_symbol extends what misses the aim.
    """
    _check_symbols(spec)
    if isinstance(spec, PowerSeriesSymbol):
        return len(spec)
    if isinstance(spec, MonomialSpec):
        return max(spec.n + 1, 8)
    if isinstance(spec, SingularInnerSpec):
        return 600
    rho = max(abs(z) for z in spec.zeros)
    if rho < 1e-12:
        return max(spec.degree + 1, 8)
    need = int(np.ceil(np.log(SERIES_TAIL_TOL) / np.log(rho))) + spec.degree
    return int(min(max(need, 64), 1024))


def eval_exact(spec: SymbolSpec | PowerSeriesSymbol, z):
    """Closed-form evaluation, the oracle the series representation is tested against."""
    _check_symbols(spec)
    z = _check_disk(z, "evaluation point").astype(complex, copy=False)
    if isinstance(spec, PowerSeriesSymbol):
        return spec.eval(z)
    if isinstance(spec, MobiusSpec | BlaschkeSpec):
        out = spec.zeta
        for a in spec.zeros:
            out = out * (a - z) / (1.0 - np.conj(a) * z)
    elif isinstance(spec, MonomialSpec):
        if spec.c is None:
            raise ValueError("monomial scale is unresolved; call resolve_monomial first")
        out = spec.c * z**spec.n
    else:  # a SingularInnerSpec
        out = np.exp(spec.c * (z + 1.0) / (z - 1.0))
    return complex(out) if out.ndim == 0 else out


def monomial_cnp_scale(n: int, alpha: WeightParameter | float) -> float:
    """Largest scale c for which c z^n has a positive sub-Bergman kernel, -2 < alpha < -1.

    c^2 equals minus the n-th Taylor coefficient of (1-x)^(alpha+2): the
    scaled monomial then cancels that term exactly, leaving a series with
    nonnegative coefficients.
    """
    a = as_weight(alpha).alpha
    if not -2 < a < -1:
        raise ValueError(f"the scaled-monomial construction needs -2 < alpha < -1, got {a}")
    n = MonomialSpec(n).n  # the degree rule is the spec's
    return float(np.sqrt(-binomial_coeffs(a + 2.0, n)[n]))


def resolve_monomial(spec: SymbolSpec | PowerSeriesSymbol, alpha: WeightParameter | float):
    """Fill in a deferred monomial scale for the given weight parameter.

    Any other symbol, and a monomial with its scale set, is returned as it is.
    """
    _check_symbols(spec)
    if not isinstance(spec, MonomialSpec) or spec.c is not None:
        return spec
    a = as_weight(alpha).alpha
    c = monomial_cnp_scale(spec.n, a) if -2 < a < -1 else 1.0
    return MonomialSpec(n=spec.n, c=c)


def bind_symbol(spec: SymbolSpec | PowerSeriesSymbol, alpha: WeightParameter | float, size: int = 0):
    """The spec with its deferred monomial scale resolved, and its working series.

    The one truncation rule of `verify` and every CLI subcommand: the
    series has default_series_length terms, extended to `size` only when its
    tail_bound exceeds SERIES_TAIL_TOL, so a size-n section then reads the
    symbol's n true leading coefficients; a series within tolerance is
    never padded. A singular inner series has tail bound 1 at every length,
    so it is built once, at the longer of the two lengths. A size that is
    not an integer >= 0 raises ValueError.
    """
    size = _check_count(size, "size to bind the series at", 0)
    spec = resolve_monomial(spec, alpha)
    length = default_series_length(spec)
    if isinstance(spec, SingularInnerSpec):
        length = max(length, size)
    series = to_series(spec, length)
    if len(series) < size and series.tail_bound > SERIES_TAIL_TOL:
        series = to_series(spec, size)
    return spec, series


@dataclass(frozen=True)
class Normalization:
    """Outcome of moving the base point to 0: psi = phi_a o phi with a = phi(0).

    The scalar factor g(z) = sqrt(1-|a|^2)/(1-conj(a) phi(z)) rescales the
    sub-Bergman kernel of phi into that of psi.
    """

    psi: PowerSeriesSymbol
    base_point: complex
    source: PowerSeriesSymbol

    def g(self, z):
        if self.base_point == 0:
            z = np.asarray(z, dtype=complex)
            out = np.ones_like(z)
            return complex(out) if out.ndim == 0 else out
        a = self.base_point
        return np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * self.source.eval(z))


def _reciprocal_series(d: np.ndarray, length: int) -> np.ndarray:
    # coefficients of 1/d(z) up to degree length-1; d_0 must be nonzero. Newton's
    # step g <- g (2 - d g) mod z^k doubles the number of correct terms, k = 2, 4, ...
    d = np.pad(np.asarray(d, dtype=complex), (0, max(0, length - len(d))))
    g = np.array([1.0 / d[0]])
    while len(g) < length:
        k = min(2 * len(g), length)
        e = -np.convolve(d[:k], g)[:k]
        e[0] += 2.0
        g = np.convolve(g, e)[:k]
    return g


def normalize(symbol: PowerSeriesSymbol) -> Normalization:
    """Compose with the Moebius map at a = phi(0) so the result vanishes at 0.

    The composition (a - phi)/(1 - conj(a) phi) is computed by series
    division at the input length; coefficients below the truncation are
    exact, and the tail keeps the unit-ball bound 1. When a = 0 the symbol
    is returned unchanged (the Moebius factor is then -z, and every kernel
    built from the symbol is invariant under the sign flip), which makes
    normalization idempotent.
    """
    a = _check_series(symbol).coeffs[0]
    if abs(a) >= 1:
        raise ValueError(f"cannot normalize a symbol with |phi(0)| >= 1, got phi(0) = {a}")
    if abs(a) < 1e-15:
        return Normalization(psi=symbol, base_point=0.0 + 0.0j, source=symbol)
    length = len(symbol)
    num = -symbol.coeffs.copy()
    num[0] += a  # exactly zero constant term
    den = -np.conj(a) * symbol.coeffs
    den[0] += 1.0
    psi = np.convolve(num, _reciprocal_series(den, length))[:length]
    # constant input gives psi identically zero; otherwise psi is a genuine
    # infinite series and keeps the unit-ball coefficient bound
    tail = 0.0 if float(np.abs(psi).sum()) == 0.0 else 1.0
    return Normalization(psi=PowerSeriesSymbol(psi, tail), base_point=complex(a), source=symbol)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Sampled evidence that a symbol lies in the closed multiplier unit ball."""

    admissible: bool
    sup_estimate: float


def admissibility_check(
    symbol: PowerSeriesSymbol,
    alpha: WeightParameter | float,
    grid: int = 32,
    tolerance: float = 1e-8,
) -> AdmissibilityVerdict:
    """Estimate sup |phi| on a radial-angular grid; verdict iff sup <= 1 + tolerance.

    For alpha >= -1 the multiplier ball is the H-infinity ball, so the sup
    estimate decides. For alpha < -1 contractivity is strictly stronger;
    the check additionally requires (1 - phi(z_i) conj(phi(z_j))) K(z_i,z_j)
    to be PSD on the sample, least eigenvalue >= -1e-9 scalars._trace_scale.
    The PSD verdict is one Cholesky factorization of that matrix shifted by
    the threshold, as no eigenvalue is reported. Cholesky reads the lower
    triangle only, so only it is formed, as the conjugates of the entries
    (j, i), j <= i, a row block at a time, straight into the array that is
    factored in place (scalars._factors_shifted): the peak is that array
    and its factor. A passing verdict is grid evidence, not a proof. A
    tolerance outside (0, inf) raises ValueError before any evaluation.
    """
    _check_series(symbol)
    a = as_weight(alpha)
    _check_tolerance(tolerance)
    grid = _check_count(grid, "admissibility grid (points per axis)", 16)
    # the first radius is exactly 0, so its ring is the one point 0, sampled once
    radii = 1.0 - np.geomspace(1.0, 1e-3, grid)[1:]
    angles = np.exp(2j * np.pi * np.arange(grid) / grid)
    pts = np.concatenate([[0j], (radii[:, None] * angles[None, :]).ravel()])
    vals = symbol.eval(pts)
    sup = float(np.max(np.abs(vals)))
    admissible = sup <= 1.0 + tolerance
    if admissible and a.alpha < -1:
        s = 2.0 + a.alpha
        n = len(pts)
        gram = np.zeros((n, n), dtype=complex)
        rows = max(1, (_BLOCK_ENTRIES >> 3) // n)  # 64 kB temporaries: the matrix and its factor set the peak
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            dv = 1.0 - vals[:r1] * np.conj(vals[r0:r1, None])
            gram[r0:r1, :r1] = np.conj(dv * _power(1.0 - pts[:r1] * np.conj(pts[r0:r1, None]), -s))
        admissible = _factors_shifted(gram, -1e-9 * _trace_scale(gram))
    return AdmissibilityVerdict(admissible=admissible, sup_estimate=sup)


def parse_complex(text: str) -> complex:
    t = text.strip().replace("−", "-").replace(" ", "")
    t = re.sub("[iI](?![nN][fF])", "j", t)  # the imaginary unit, not the i of inf
    return complex(t)


def parse_symbol(text: str) -> SymbolSpec | PowerSeriesSymbol:
    """Parse the CLI text form of a symbol.

    Forms: `mobius a=0.5+0i zeta=1`, `blaschke zeros=0.5,-0.3+0.2i zeta=1`,
    `monomial n=2` (optional c=...), `singular c=1`, and `series 0,1` with
    comma-separated coefficients in re+imi format.
    """
    if not isinstance(text, str):
        raise ValueError(f"symbol text must be a str, got {type(text).__name__}")
    parts = text.replace("−", "-").split()
    if not parts:
        raise ValueError("empty symbol text")
    kind, args = parts[0].lower(), parts[1:]
    kv: dict[str, str] = {}
    positional: list[str] = []
    for tok in args:
        if "=" in tok:
            key, val = tok.split("=", 1)
            kv[key.strip().lower()] = val
        else:
            positional.append(tok)
    if kind == "mobius":
        if "a" not in kv:
            raise ValueError("mobius symbol needs a=<point>")
        return MobiusSpec(a=parse_complex(kv["a"]), zeta=parse_complex(kv.get("zeta", "1")))
    if kind == "blaschke":
        raw = kv.get("zeros", ",".join(positional))
        if not raw:
            raise ValueError("blaschke symbol needs zeros=<z1,z2,...>")
        zeros = tuple(parse_complex(t) for t in raw.split(","))
        return BlaschkeSpec(zeros=zeros, zeta=parse_complex(kv.get("zeta", "1")))
    if kind == "monomial":
        if "n" not in kv:
            raise ValueError("monomial symbol needs n=<degree>")
        c = parse_complex(kv["c"]) if "c" in kv else None
        return MonomialSpec(n=int(kv["n"]), c=c)
    if kind == "singular":
        if "c" not in kv:
            raise ValueError("singular symbol needs c=<mass>")
        return SingularInnerSpec(c=float(kv["c"]))
    if kind == "series":
        raw = kv.get("coeffs", ",".join(positional))
        if not raw:
            raise ValueError("series symbol needs comma-separated coefficients")
        coeffs = np.array([parse_complex(t) for t in raw.split(",")], dtype=complex)
        return PowerSeriesSymbol(coeffs, 0.0)
    raise ValueError(f"unknown symbol kind {kind!r}")


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


def symbol_text(spec: SymbolSpec | PowerSeriesSymbol) -> str:
    """Canonical text form, the inverse of parse_symbol (used in reports)."""
    _check_symbols(spec)
    if isinstance(spec, MobiusSpec):
        return f"mobius a={_fmt_complex(spec.a)} zeta={_fmt_complex(spec.zeta)}"
    if isinstance(spec, BlaschkeSpec):
        zeros = ",".join(_fmt_complex(z) for z in spec.zeros)
        return f"blaschke zeros={zeros} zeta={_fmt_complex(spec.zeta)}"
    if isinstance(spec, MonomialSpec):
        return f"monomial n={spec.n}" + ("" if spec.c is None else f" c={_fmt_complex(spec.c)}")
    if isinstance(spec, SingularInnerSpec):
        return f"singular c={spec.c:g}"
    return "series " + ",".join(_fmt_complex(c) for c in spec.coeffs)
