"""Scenario runner: theorem-level checks and reports.

Each check identifier names one executable routine; a scenario crosses a
check list with weight parameters and symbols, and every cell either runs
to a pass/fail with metrics, is skipped with a machine-readable reason
naming the violated precondition, or records the exception it raised as an
error. A verdict depends on the symbol, alpha and the section size n alone
(MATRIX_SIZE unless run_scenario is given another). Equivalence theorems
are decomposed into one-directional numeric checks; the runner never claims
to certify an iff.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .cnp import PickMatrix, PickReport, _coefficient_section, psd_test
from .kernels import _log_tail, rescaling_check
from .operators import (
    DENSE_SIZE_MAX,
    _block_eigenvalues,
    _class_eigenvalues,
    _decay_slope,
    _defect_classes,
    _fit_window,
    berezin_values,
    inclusion_eigenvalues,
    jacobi_eigenvalues,
)
from .scalars import _check_count, _trace_scale, as_weight
from .symbols import (
    SERIES_TAIL_TOL,
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    _check_series,
    _check_symbols,
    bind_symbol,
    eval_exact,
    monomial_cnp_scale,
    normalize,
    symbol_text,
    to_series,
)

SCHEMA_VERSION = 1

# the section size n of every operator check, unless run_scenario is given another
MATRIX_SIZE = 400

# berezin_identity and rescaling_identity sample golden-angle spirals (_spiral_points)
BEREZIN_POINTS = 20
BEREZIN_RADIUS = 0.8
BEREZIN_TOL = 1e-6
RESCALING_POINTS = 10
RESCALING_TOL = 1e-8
# boundary_ratio's polar grid, and the sup that singular c=1 must reach on it
RATIO_DIRECTIONS = 16
RATIO_RADII = (0.5, 0.9, 0.99)
RATIO_THRESHOLD = 50.0
DECAY_BAND = (-1.15, -0.85)
# growth below which a range has settled: finite Blaschke products with zeros in
# |z| <= 0.6 grow by at most 0.14 at n = 128, singular c=1 by about 1 at every n
RANGE_GROWTH_MAX = 0.5
WITNESS_TOL = 1e-6
# order of the coefficient section of 1 - 1/K that the CNP cells read
CNP_SECTION = 16
EXACT_TOL = 1e-12
RANK_FLOOR = 1e-10
INCLUSION_BAND = (0.25, 4.0)


@dataclass(frozen=True)
class Scenario:
    """A named cross of weight parameters, symbols, and check identifiers."""

    name: str
    alpha_list: tuple[float, ...]
    symbols: tuple
    checks: tuple[str, ...]

    def __post_init__(self) -> None:
        unknown = [c for c in self.checks if c not in CHECK_IDS]
        if unknown:
            raise ValueError(f"unknown check identifiers {unknown}; known: {list(CHECK_IDS)}")
        for a in self.alpha_list:
            as_weight(a)
        _check_symbols(*self.symbols)


@dataclass
class CheckResult:
    check: str
    alpha: float
    symbol: str
    status: str  # pass | fail | skipped | error
    reason: str = ""
    metrics: dict = field(default_factory=dict)


@dataclass
class RunReport:
    scenario: str
    checks: list[CheckResult] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    started: str = ""
    finished: str = ""
    schema: int = SCHEMA_VERSION

    @property
    def failed(self) -> bool:
        # a cell that raised is no evidence that the claim holds, so it counts too
        return any(r.status in ("fail", "error") for r in self.checks)

    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Read a report dict; absent fields take their defaults and unknown keys are ignored."""
        checks = [_from_fields(CheckResult, c) for c in data.get("checks", [])]
        return _from_fields(cls, {**data, "checks": checks})


def _from_fields(cls, data: dict):
    """The dataclass cls built from the keys of data that name its fields.

    A field without a default that data lacks raises ValueError naming every such key.
    """
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{cls.__name__} record lacks required key(s) {missing}")
    return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def _plain(value):
    """Recursively convert dataclasses, numpy scalars and arrays into JSON-friendly values.

    A dataclass becomes the dict of its fields, as dataclasses.asdict gives,
    in the same walk, so no deep copy is made first.
    """
    if type(value) in (str, float, int, bool, type(None)):  # most leaves: nothing to convert
        return value
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def emit_report(report: RunReport, path, format: str = "json") -> None:
    """Write a report; JSON is canonical, CSV flattens one row per cell."""
    path = Path(path)
    try:
        if format == "json":
            path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        elif format == "csv":
            cells = report.to_dict()["checks"]
            columns = [f.name for f in fields(CheckResult) if f.name != "metrics"]
            keys = sorted({k for c in cells for k in c["metrics"]})
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([*columns, *keys])
                for c in cells:
                    row = [c[name] for name in columns]
                    for k in keys:
                        v = c["metrics"].get(k, "")
                        row.append(json.dumps(v) if isinstance(v, list) else v)
                    writer.writerow(row)
        else:
            raise ValueError(f"unknown report format {format!r}")
    except OSError as exc:
        raise OSError(f"failed to write report to {path} ({format}): {exc}") from exc


def load_report(path) -> RunReport:
    return RunReport.from_dict(json.loads(Path(path).read_text()))


def boundary_ratio_check(symbol: PowerSeriesSymbol, radii, directions: int) -> tuple[float, float]:
    """Extrema of (1-|phi(z)|^2)/(1-|z|^2) over a polar grid.

    For finite Blaschke products the ratio is pinched between finite
    positive bounds; symbols with a singular inner factor drive the sup to
    infinity along some radius, which shows up as divergence past any
    threshold as the grid radius approaches 1.
    """
    directions = _check_count(directions, "directions", 1)
    _check_series(symbol)
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("boundary ratio needs at least one radius")
    if not np.all((radii > 0) & (radii < 1)):
        raise ValueError("radii must lie strictly between 0 and 1")
    angles = np.exp(2j * np.pi * np.arange(directions) / directions)
    z = (radii[:, None] * angles[None, :]).ravel()
    ratio = (1.0 - np.abs(symbol.eval(z)) ** 2) / (1.0 - np.abs(z) ** 2)
    return float(ratio.max()), float(ratio.min())


# ---------------------------------------------------------------------------
# symbol classification helpers


def _blaschke_degree(spec, series: PowerSeriesSymbol):
    """Degree of the finite Blaschke product the symbol represents, else None.

    A raw series counts as degree k when its normalization at phi(0) is a
    unimodular monomial zeta z^k up to 1e-9, so a truncated Moebius series
    with phi(0) != 0 has degree 1.
    """
    if isinstance(spec, MobiusSpec | BlaschkeSpec):
        return spec.degree
    if isinstance(spec, MonomialSpec):
        return spec.n if abs(abs(spec.c) - 1.0) < 1e-12 else None
    if isinstance(spec, PowerSeriesSymbol) and abs(series.coeffs[0]) < 1:
        psi = np.abs(normalize(series).psi.coeffs)
        k = int(np.argmax(psi))
        rest = np.delete(psi, k)
        if k >= 1 and abs(psi[k] - 1.0) <= 1e-9 and (len(rest) == 0 or rest.max() <= 1e-9):
            return k
    return None


# ---------------------------------------------------------------------------
# check routines: each takes (alpha, spec, series, n), n = matrix_size, and
# returns (status, reason, metrics)


def _spiral_points(n: int, r_max: float) -> np.ndarray:
    """n points of a golden-angle spiral, area-uniform in |z| < r_max: point k at radius
    r_max sqrt((k + 1/2) / n) and angle k pi (3 - sqrt 5). Deterministic, with no generator."""
    k = np.arange(n)
    return r_max * np.sqrt((k + 0.5) / n) * np.exp(1j * math.pi * (3.0 - math.sqrt(5.0)) * k)


def _check_berezin_identity(alpha, spec, series, n):
    if alpha <= -1:
        return "skipped", "precondition alpha > -1 (finite weighted area measure)", {}
    pts = _spiral_points(BEREZIN_POINTS, BEREZIN_RADIUS)
    # the unit kernel vector k_a loses mass tau past its first n coefficients, and
    # ||E|| <= 1, so |<E k_a, k_a> - <E k_n, k_n>| <= 2 sqrt(tau) + tau; tau grows with |a|
    t = float(np.max(np.abs(pts))) ** 2
    tau = (1.0 - t) ** (2.0 + alpha) * math.exp(_log_tail(alpha, t, n))
    bound = 2.0 * math.sqrt(tau) + tau
    metrics = {"truncation_bound": bound, "tolerance": BEREZIN_TOL, "points": len(pts), "size": n}
    if not bound <= BEREZIN_TOL:
        reason = (
            f"truncation: the kernel vectors cut at section size n={n} bound the error by "
            f"{bound:.3g} > {BEREZIN_TOL:g}; raise --size"
        )
        return "skipped", reason, metrics
    vals = berezin_values(series, alpha, n, pts)
    worst = float(np.max(np.abs(vals - (1.0 - np.abs(eval_exact(spec, pts)) ** 2))))
    status = "pass" if worst < BEREZIN_TOL else "fail"
    return status, "", {"max_error": worst, **metrics}


def _range_section(series: PowerSeriesSymbol, alpha: float, n: int, which: str) -> tuple[float, float, float]:
    """range_min, range_max and growth of R_n = L^(-1/2) E_n L^(-1/2).

    E_n is the n defect section of the series, which the caller binds at
    size n (bind_symbol) so that it is true to the tail tolerance; L is
    inclusion_eigenvalues(alpha, alpha - 1). By Douglas's lemma the defect has
    range A^2_(alpha-1) exactly when R is bounded above and below. range_min
    and range_max are the extreme eigenvalues of R_n, and growth is
    log2(lambda_max(R_n) / lambda_max(R_n//2)); the n//2 section is the
    top-left block of R_n, so it needs no build of its own.

    R_n is built and solved one rotation class at a time (_defect_classes).
    If phi(w z) = w^r phi(z) for w = exp(2 pi i / m), the rotation C_w is
    unitary on every A^2_alpha with the monomials as eigenvectors, and
    T_phi C_w = w^r C_w T_phi, so T T* and T* T commute with C_w and their
    entry (i, k) vanishes unless i = k mod m. Each class size takes one
    eigvalsh call; the shift's R_n is diagonal and takes none.
    """
    scale = 1.0 / np.sqrt(inclusion_eigenvalues(alpha, alpha - 1.0, n - 1))
    classes = _defect_classes(series, alpha, n, which, scale)
    ev = _class_eigenvalues(classes)
    half_max = -np.inf
    for idx, blocks in classes:
        members = np.sum(idx < n // 2, axis=1)  # len(range(rho, n // 2, m)), unequal within a size
        for k in set(members.tolist()) - {0}:  # at most two sizes; np.unique would load numpy.ma
            half_max = max(half_max, _block_eigenvalues(blocks[:, :k, :k][members == k]).max())
    return float(ev.min()), float(ev.max()), float(np.log2(ev.max() / half_max))


def _check_blaschke_decay(alpha, spec, series, n):
    degree = _blaschke_degree(spec, series)
    if degree is None:
        return "skipped", "precondition: symbol must be a finite Blaschke product", {}
    if alpha <= -1:
        return "skipped", "precondition alpha > -1 (defect spectra collapse at the Hardy end)", {}
    metrics = {"degree": degree, "size": n}
    for which in ("phi", "conj"):
        lo, hi, growth = _range_section(series, alpha, n, which)
        metrics.update({f"range_min_{which}": lo, f"range_max_{which}": hi, f"growth_{which}": growth})
    growth = max(metrics["growth_phi"], metrics["growth_conj"])
    if growth >= RANGE_GROWTH_MAX:
        reason = f"precondition: the range has not settled at section size n={n} (growth {growth:.3f})"
        return "skipped", reason + "; raise --size", metrics
    # compressing R can only raise its least eigenvalue, so range_min <= 0 certifies a failure
    ok = metrics["range_min_phi"] > 0 and metrics["range_min_conj"] > 0
    if degree == 1 and series.coeffs[0] == 0 and alpha == 0:
        # shift at alpha = 0: the conj defect is exactly diag(1/(k+2))
        conj = _defect_classes(series, alpha, n, "conj", np.ones(n))
        dev = max(float(np.max(np.abs(b - np.eye(b.shape[1]) / (idx[..., None] + 2.0)))) for idx, b in conj)
        metrics["shift_exact_max_dev"] = dev
        ok = ok and dev < EXACT_TOL
    return ("pass" if ok else "fail"), "", metrics


def _check_singular_noncompact(alpha, spec, series, n):
    if not isinstance(spec, SingularInnerSpec):
        return "skipped", "precondition: check targets singular inner symbols", {}
    if alpha <= -1:
        return "skipped", "precondition alpha > -1 (finite weighted area measure)", {}
    # one side growing already shows the ranges differ; the conj side would add nothing
    lo, hi, growth = _range_section(series, alpha, n, "phi")
    metrics = {"range_min_phi": lo, "range_max_phi": hi, "growth_phi": growth, "size": n}
    return ("pass" if growth > RANGE_GROWTH_MAX else "fail"), "", metrics


_BASE_POINT_REASON = "precondition: |phi(0)| < 1 required to move the base point"


def _check_rescaling_identity(alpha, spec, series, n):
    if not np.any(np.abs(series.coeffs[1:]) > 0):
        return "skipped", "precondition: symbol must be non-constant", {}
    if abs(series.coeffs[0]) >= 1:
        return "skipped", _BASE_POINT_REASON, {}
    pts = _spiral_points(RESCALING_POINTS, 0.9)
    residual = rescaling_check(series, alpha, pts)
    status = "pass" if residual < RESCALING_TOL else "fail"
    return status, "", {
        "max_residual": residual,
        "tolerance": RESCALING_TOL,
        "points": len(pts),
    }


def _cnp_section(series: PowerSeriesSymbol, alpha: float) -> tuple[PickReport, dict]:
    """psd_test of the CNP_SECTION coefficient section B of 1 - 1/K, and its metrics.

    B is built from the normalized series, with no sampled admissibility
    check: it is exact for the series' first CNP_SECTION coefficients, and a
    shorter series is exact too and is zero-padded to that length. Its rows are
    labelled by monomial index, so a failing report certifies that the
    kernel is not CNP and its witness names the indices of a failing
    principal minor; a passing B is evidence on this section only.
    """
    a = as_weight(alpha)
    if len(series) < CNP_SECTION:
        series = to_series(series, CNP_SECTION)
    b = _coefficient_section(normalize(series).psi, a, CNP_SECTION)
    report = psd_test(PickMatrix(points=np.arange(CNP_SECTION), entries=b))
    return report, {
        "min_eigenvalue": report.min_eigenvalue,
        "section": CNP_SECTION,
        "certificate": report.certificate,
    }


def _check_cnp_moebius_pass(alpha, spec, series, n):
    moebius = _blaschke_degree(spec, series) == 1
    monomial_scaled = (
        isinstance(spec, MonomialSpec)
        and -2 < alpha < -1
        and abs(spec.c - monomial_cnp_scale(spec.n, alpha)) < 1e-10
    )
    if not (moebius and -1 < alpha <= 0) and not monomial_scaled:
        if moebius:
            reason = f"precondition alpha in (-1, 0] for the Moebius positive direction, got {alpha}"
        elif isinstance(spec, MonomialSpec):
            reason = "precondition: scaled monomials certify positivity only for -2 < alpha < -1"
        else:
            reason = "precondition: symbol is not a Moebius map"
        return "skipped", reason, {}
    report, metrics = _cnp_section(series, alpha)
    return ("fail" if report.certificate else "pass"), "", metrics


def _check_cnp_nonmoebius_fail(alpha, spec, series, n):
    moebius = _blaschke_degree(spec, series) == 1
    if alpha <= -1:
        return "skipped", f"precondition alpha > -1 for the failure direction, got {alpha}", {}
    if moebius and alpha <= 0:
        return "skipped", "precondition: Moebius symbols give positive kernels for alpha in (-1, 0]", {}
    if not moebius and alpha > 0:
        return (
            "skipped",
            "open question: no failure certificate is known for non-Moebius symbols at alpha > 0",
            {},
        )
    if abs(series.coeffs[0]) >= 1:
        return "skipped", _BASE_POINT_REASON, {}
    report, metrics = _cnp_section(series, alpha)
    if not report.certificate:
        return "fail", "", metrics
    witness = report.witness.matrix
    lam = float(jacobi_eigenvalues(witness)[-1])
    metrics["witness_indices"] = report.witness.points.tolist()
    metrics["witness_min_jacobi"] = lam
    # the trace-scaled quantity that psd_test's threshold compares with its tolerance
    metrics["witness_margin"] = -lam / _trace_scale(witness)
    return ("pass" if lam < -WITNESS_TOL else "fail"), "", metrics


def _check_hardy_degenerate(alpha, spec, series, n):
    if abs(alpha + 1.0) > 1e-12:
        return "skipped", f"precondition alpha = -1 (Hardy space), got {alpha}", {}
    degree = _blaschke_degree(spec, series)
    if degree is None:
        return "skipped", "precondition: finite-rank degeneracy needs a finite Blaschke symbol", {}
    # at alpha -1, E_phi projects onto the model space K_B, so the nonzero eigenvalues of
    # its n section are 1 minus those of the Gram matrix of the tails (I - P_n) e_i of an
    # orthonormal basis of K_B; that Gram matrix has trace sum_(j>n) (j - n) |c_j|^2. A
    # series that stops short of SERIES_TAIL_TOL dropped at most the rest of the Dirichlet
    # sum sum_j j |c_j|^2 = degree (B covers the disk degree times) past its last term
    weight = np.abs(series.coeffs) ** 2
    j = np.arange(len(series))
    tau = float(np.sum((j[n + 1 :] - n) * weight[n + 1 :]))
    if series.tail_bound > SERIES_TAIL_TOL:
        tau += max(0.0, degree - float(np.dot(j, weight)))
    if not tau < EXACT_TOL:
        reason = (
            f"truncation: the section at size n={n} moves the top eigenvalues by up to "
            f"{tau:.3g} >= {EXACT_TOL:g}; raise --size"
        )
        return "skipped", reason, {"truncation_bound": tau, "size": n}
    conj, phi = (_defect_classes(series, alpha, n, which, np.ones(n)) for which in ("conj", "phi"))
    econj_max = max(float(np.max(np.abs(b))) for _, b in conj)  # every other entry is an exact zero
    ev = _class_eigenvalues(phi)
    count = int(np.sum(ev > RANK_FLOOR))
    top_dev = float(np.max(np.abs(ev[:degree] - 1.0))) if degree <= len(ev) else float("inf")
    ok = econj_max < EXACT_TOL and count == degree and top_dev < EXACT_TOL
    return ("pass" if ok else "fail"), "", {
        "econj_max_entry": econj_max,
        "rank_count": count,
        "expected_rank": degree,
        "top_eigenvalue_dev": top_dev,
        "size": n,
    }


def _check_boundary_ratio(alpha, spec, series, n):
    if not np.any(np.abs(series.coeffs[1:]) > 0):
        return "skipped", "precondition: symbol must be non-constant", {}
    sup, inf = boundary_ratio_check(series, RATIO_RADII, RATIO_DIRECTIONS)
    metrics = {"sup": sup, "inf": inf, "radii": list(RATIO_RADII), "directions": RATIO_DIRECTIONS}
    if isinstance(spec, SingularInnerSpec):
        metrics["divergence_threshold"] = RATIO_THRESHOLD
        metrics["diverging"] = bool(sup >= RATIO_THRESHOLD)
        ok = sup >= RATIO_THRESHOLD
    elif _blaschke_degree(spec, series) == 1:
        # Schwarz-Pick: the ratio is (1-|a|^2)/|1-conj(a) z|^2 with |a| = |phi(0)|, strictly
        # inside [lo, hi] on the disk, so the grid is held to the bounds up to rounding only
        a = abs(series.coeffs[0])
        hi = (1.0 + a) / (1.0 - a)
        lo = 1.0 / hi
        metrics["expected_sup"] = hi
        metrics["expected_inf"] = lo
        ok = inf >= lo * (1.0 - 1e-9) and sup <= hi * (1.0 + 1e-9)
    elif inf > 0.0:
        # bounded on the grid, but by no known closed form: a pass would test nothing
        return "skipped", "open question: no closed-form bound on the ratio is known for this symbol", metrics
    else:
        ok = False  # inf <= 0: |phi| >= 1 at a grid point
    return ("pass" if ok else "fail"), "", metrics


def _check_inclusion_asymptote(alpha, spec, series, n):
    gamma = alpha - 1.0
    if gamma <= -2:
        return "skipped", f"precondition: companion exponent gamma = alpha - 1 > -2, got {gamma}", {}
    n = 256  # a fixed section of the closed-form ratio, whatever matrix_size is
    vals = inclusion_eigenvalues(alpha, gamma, n)
    k = np.arange(n + 1)
    product = vals * (k + 1.0)
    tail = product[32:]
    # vals strictly decrease for gamma < alpha, so they are their own
    # descending spectrum; the fit window is spectrum's default at n + 1
    slope = _decay_slope(vals, *_fit_window(n + 1))
    metrics = {
        "gamma": gamma,
        "product_min": float(tail.min()),
        "product_max": float(tail.max()),
        "decay_exponent": slope,
        "size": n,
    }
    lo, hi = INCLUSION_BAND
    ok = (
        lo <= tail.min()
        and tail.max() <= hi
        and DECAY_BAND[0] <= slope <= DECAY_BAND[1]
    )
    if alpha == 0:
        # Hardy companion: both weight sequences are exact, so the ratio is
        # bitwise equal to 1/(k+1)
        exact_dev = float(np.max(np.abs(vals - 1.0 / (k + 1.0))))
        metrics["exact_max_dev"] = exact_dev
        ok = ok and exact_dev == 0.0
    return ("pass" if ok else "fail"), "", metrics


_CHECK_ROUTINES = {
    "cnp_moebius_pass": _check_cnp_moebius_pass,
    "cnp_nonmoebius_fail": _check_cnp_nonmoebius_fail,
    "berezin_identity": _check_berezin_identity,
    "blaschke_decay": _check_blaschke_decay,
    "singular_noncompact": _check_singular_noncompact,
    "rescaling_identity": _check_rescaling_identity,
    "hardy_degenerate": _check_hardy_degenerate,
    "boundary_ratio": _check_boundary_ratio,
    "inclusion_asymptote": _check_inclusion_asymptote,
}
CHECK_IDS = tuple(_CHECK_ROUTINES)


def run_scenario(scenario: Scenario, matrix_size: int = MATRIX_SIZE) -> RunReport:
    """Execute every (check, alpha, symbol) cell at section size matrix_size and assemble a report.

    Precondition violations become skipped cells; an exception inside a
    cell is recorded as an error row with its message, never raised. A size
    outside [3, DENSE_SIZE_MAX] raises ValueError before any cell runs.
    """
    n = _check_count(matrix_size, "the section size (--size)", 3, DENSE_SIZE_MAX)
    started = datetime.now(timezone.utc).isoformat()
    results: list[CheckResult] = []
    for alpha in scenario.alpha_list:
        for raw_spec in scenario.symbols:
            # one series per (alpha, symbol), true to the tail tolerance at matrix_size
            spec, series = bind_symbol(raw_spec, alpha, n)
            for check in scenario.checks:
                try:
                    status, reason, metrics = _CHECK_ROUTINES[check](float(alpha), spec, series, n)
                except Exception as exc:
                    status, reason, metrics = "error", f"{type(exc).__name__}: {exc}", {}
                results.append(
                    CheckResult(
                        check=check,
                        alpha=float(alpha),
                        symbol=symbol_text(spec),
                        status=status,
                        reason=reason,
                        metrics=_plain(metrics),
                    )
                )
    results.sort(key=lambda r: (r.check, r.alpha, r.symbol))
    return RunReport(
        scenario=scenario.name,
        config={"matrix_size": n},
        checks=results,
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
    )


def builtin_scenarios() -> dict[str, Scenario]:
    """Bundled scenarios, one per check and named after it; together they cover every identifier."""
    shift = PowerSeriesSymbol(np.array([0.0, 1.0], dtype=complex))
    mob_half = MobiusSpec(a=0.5)
    bl2 = BlaschkeSpec(zeros=(0.5, -0.5))
    bl3 = BlaschkeSpec(zeros=(0.5, -0.5, 0.0))
    cnp_pass = (MobiusSpec(a=0.0), MobiusSpec(a=0.4), MobiusSpec(a=0.3j), MonomialSpec(n=2))
    cells = {  # check: (alpha_list, symbols)
        "berezin_identity": ((-0.5, 0.0, 1.0), (shift, mob_half, bl2)),
        "blaschke_decay": ((-0.5, 0.0, 1.0), (shift, mob_half, bl2, bl3)),
        "singular_noncompact": ((0.0,), (SingularInnerSpec(c=1.0),)),
        "rescaling_identity": ((-0.5, 0.0, 1.0), (mob_half, bl2, SingularInnerSpec(c=1.0))),
        "cnp_moebius_pass": ((-0.5, 0.0, -1.5), cnp_pass),
        "cnp_nonmoebius_fail": ((-0.5, 0.0, 1.0), (MonomialSpec(n=2, c=1.0), bl2, shift)),
        "hardy_degenerate": ((-1.0,), (shift, bl2)),
        "boundary_ratio": ((0.0,), (mob_half, SingularInnerSpec(c=1.0), shift)),
        "inclusion_asymptote": ((0.0, 0.5), (shift,)),
    }
    return {name: Scenario(name, alphas, symbols, (name,)) for name, (alphas, symbols) in cells.items()}
