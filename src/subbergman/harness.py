"""Scenario runner: theorem-level checks, configuration, and reports.

Each check identifier names one executable routine; a scenario crosses a
check list with weight parameters and symbols, and every cell either runs
to a pass/fail with metrics or is skipped with a machine-readable reason
naming the violated precondition. Equivalence theorems are decomposed into
one-directional numeric checks; the runner never claims to certify an iff.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .cnp import cnp_scan
from .kernels import rescaling_check
from .operators import (
    _decay_slope,
    berezin_values,
    defect_matrix,
    inclusion_eigenvalues,
    inclusion_matrix,
    jacobi_eigenvalues,
    spectrum,
)
from .scalars import as_weight
from .symbols import (
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    SymbolSpec,
    bind_symbol,
    eval_exact,
    monomial_cnp_scale,
    normalize,
    symbol_text,
)

SCHEMA_VERSION = 1

CHECK_IDS = (
    "cnp_moebius_pass",
    "cnp_nonmoebius_fail",
    "berezin_identity",
    "blaschke_decay",
    "singular_noncompact",
    "rescaling_identity",
    "hardy_degenerate",
    "boundary_ratio",
    "inclusion_asymptote",
)

DEFAULT_CONFIG: dict[str, object] = {
    "matrix_size": 400,
    "boundary_size": 600,
    "boundary_radius": 0.995,
    "directions": 16,
    "cnp_points": 30,
    "cnp_trials": 20,
    "seed": 7,
    "psd_tol": 1e-9,
    "berezin_points": 20,
    "berezin_radius": 0.8,
    "rescaling_points": 10,
    "fit_lo": 20,
    "fit_hi": 200,
    "ratio_radii": "0.5,0.9,0.99",
    "ratio_threshold": 50.0,
}

BEREZIN_TOL = 1e-6
RESCALING_TOL = 1e-8
DECAY_BAND = (-1.15, -0.85)
BOUNDARY_COMPACT_MAX = 0.1
BOUNDARY_NONCOMPACT_MIN = 0.9
WITNESS_TOL = 1e-6
EXACT_TOL = 1e-12
RANK_FLOOR = 1e-10
RATIO_REL_TOL = 0.02
INCLUSION_BAND = (0.25, 4.0)


def load_config(path) -> dict[str, object]:
    """Read a flat `key = value` file with `#` comments."""
    out: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def merge_config(*overrides: dict[str, object] | None) -> dict[str, object]:
    """Defaults overlaid by config files and flags (later sources win).

    Unknown keys and badly typed values are configuration errors and abort
    before any computation.
    """
    cfg = dict(DEFAULT_CONFIG)
    for ov in overrides:
        if not ov:
            continue
        for key, value in ov.items():
            if key not in cfg:
                raise ValueError(f"unknown configuration key {key!r}")
            target = type(DEFAULT_CONFIG[key])
            try:
                cfg[key] = target(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {key!r}: {value!r}") from exc
    _validate_config(cfg)
    return cfg


# smallest admissible value of each size and count key; a decay fit over the
# first 3n/4 eigenvalues needs matrix_size >= 3
_CONFIG_MINIMA = {
    "matrix_size": 3,
    "boundary_size": 1,
    "directions": 1,
    "cnp_points": 3,
    "cnp_trials": 1,
    "berezin_points": 1,
    "rescaling_points": 2,
}


def _validate_config(cfg: dict[str, object]) -> None:
    """Reject values no check can run with, so they never show up as failed cells."""
    for key, least in _CONFIG_MINIMA.items():
        if cfg[key] < least:
            raise ValueError(f"{key} must be >= {least}, got {cfg[key]}")
    if not cfg["psd_tol"] > 0:
        raise ValueError(f"psd_tol must be positive, got {cfg['psd_tol']}")
    try:
        radii = [float(t) for t in str(cfg["ratio_radii"]).split(",")]
    except ValueError as exc:
        raise ValueError(f"bad value for 'ratio_radii': {cfg['ratio_radii']!r}") from exc
    for key, values in (
        ("boundary_radius", [cfg["boundary_radius"]]),
        ("berezin_radius", [cfg["berezin_radius"]]),
        ("ratio_radii", radii),
    ):
        if not all(0.0 < r < 1.0 for r in values):
            raise ValueError(f"{key} must lie strictly between 0 and 1, got {cfg[key]}")


def check_fit_window(cfg: dict[str, object], checks) -> None:
    """Reject a decay-fit window outside the usable spectrum when blaschke_decay will run.

    The window only matters to that check, so it is validated against the
    checks about to run rather than in merge_config.
    """
    if "blaschke_decay" not in checks:
        return
    usable = 3 * cfg["matrix_size"] // 4
    if not 1 <= cfg["fit_lo"] < cfg["fit_hi"] <= usable:
        raise ValueError(
            f"fit window needs 1 <= fit_lo < fit_hi <= 3*matrix_size//4 = {usable}, "
            f"got fit_lo={cfg['fit_lo']}, fit_hi={cfg['fit_hi']}"
        )


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
        bad = [s for s in self.symbols if not isinstance(s, SymbolSpec | PowerSeriesSymbol)]
        if bad:
            raise ValueError(f"not symbols: {bad!r}; use a spec or a PowerSeriesSymbol")


@dataclass
class CheckResult:
    check: str
    alpha: float
    symbol: str
    status: str  # pass | fail | skipped
    reason: str = ""
    metrics: dict = field(default_factory=dict)


@dataclass
class RunReport:
    scenario: str
    config: dict
    checks: list[CheckResult]
    started: str
    finished: str
    schema: int = SCHEMA_VERSION

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.checks)

    def to_dict(self) -> dict:
        return _plain(
            {
                "schema": self.schema,
                "scenario": self.scenario,
                "config": self.config,
                "started": self.started,
                "finished": self.finished,
                "checks": [
                    {
                        "check": r.check,
                        "alpha": r.alpha,
                        "symbol": r.symbol,
                        "status": r.status,
                        "reason": r.reason,
                        "metrics": r.metrics,
                    }
                    for r in self.checks
                ],
            }
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        checks = [
            CheckResult(
                check=c["check"],
                alpha=c["alpha"],
                symbol=c["symbol"],
                status=c["status"],
                reason=c.get("reason", ""),
                metrics=c.get("metrics", {}),
            )
            for c in data.get("checks", [])
        ]
        return cls(
            scenario=data["scenario"],
            config=data.get("config", {}),
            checks=checks,
            started=data.get("started", ""),
            finished=data.get("finished", ""),
            schema=data.get("schema", SCHEMA_VERSION),
        )


def _plain(value):
    """Recursively convert numpy scalars and arrays into JSON-friendly values."""
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
            keys = sorted({k for r in report.checks for k in r.metrics})
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["check", "alpha", "symbol", "status", "reason", *keys])
                for r in report.checks:
                    row = [r.check, r.alpha, r.symbol, r.status, r.reason]
                    for k in keys:
                        v = _plain(r.metrics.get(k, ""))
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
    radii = np.asarray(radii, dtype=float)
    if np.any((radii <= 0) | (radii >= 1)):
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
    if isinstance(spec, MobiusSpec):
        return 1
    if isinstance(spec, BlaschkeSpec):
        return spec.degree
    if isinstance(spec, MonomialSpec):
        if spec.c is not None and abs(abs(spec.c) - 1.0) < 1e-12:
            return spec.n
        return None
    if isinstance(spec, PowerSeriesSymbol) and abs(series.coeffs[0]) < 1:
        psi = np.abs(normalize(series).psi.coeffs)
        k = int(np.argmax(psi))
        rest = np.delete(psi, k)
        if k >= 1 and abs(psi[k] - 1.0) <= 1e-9 and (len(rest) == 0 or rest.max() <= 1e-9):
            return k
    return None


# ---------------------------------------------------------------------------
# check routines: each returns (status, reason, metrics)


def _seeded_disk_points(seed: int, tag: int, n: int, r_max: float) -> np.ndarray:
    rng = np.random.default_rng([seed, tag])
    r = r_max * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def _check_berezin_identity(alpha, spec, series, cfg):
    if alpha <= -1:
        return "skipped", "precondition alpha > -1 (finite weighted area measure)", {}
    pts = _seeded_disk_points(int(cfg["seed"]), 11, int(cfg["berezin_points"]), float(cfg["berezin_radius"]))
    vals = berezin_values(series, alpha, int(cfg["matrix_size"]), pts)
    worst = float(np.max(np.abs(vals - (1.0 - np.abs(eval_exact(spec, pts)) ** 2))))
    status = "pass" if worst < BEREZIN_TOL else "fail"
    return status, "", {
        "max_error": worst,
        "tolerance": BEREZIN_TOL,
        "points": len(pts),
        "size": int(cfg["matrix_size"]),
    }


def _boundary_berezin_max(series, alpha, cfg) -> tuple[float, float]:
    r = float(cfg["boundary_radius"])
    d = int(cfg["directions"])
    pts = r * np.exp(2j * np.pi * np.arange(d) / d)
    vals = berezin_values(series, alpha, int(cfg["boundary_size"]), pts)
    return float(vals.max()), float(vals.min())


def _check_blaschke_decay(alpha, spec, series, cfg):
    degree = _blaschke_degree(spec, series)
    if degree is None:
        return "skipped", "precondition: symbol must be a finite Blaschke product", {}
    if alpha <= -1:
        return "skipped", "precondition alpha > -1 (defect spectra collapse at the Hardy end)", {}
    n = int(cfg["matrix_size"])
    window = (int(cfg["fit_lo"]), int(cfg["fit_hi"]))
    rep_phi = spectrum(defect_matrix(series, alpha, n, "phi"), window)
    rep_conj = spectrum(defect_matrix(series, alpha, n, "conj"), window)
    bmax, bmin = _boundary_berezin_max(series, alpha, cfg)
    metrics = {
        "degree": degree,
        "slope_phi": rep_phi.decay_exponent,
        "slope_conj": rep_conj.decay_exponent,
        "fit_window": list(window),
        "boundary_berezin_max": bmax,
        "boundary_berezin_min": bmin,
        "size": n,
    }
    lo, hi = DECAY_BAND
    ok = (
        lo <= rep_phi.decay_exponent <= hi
        and lo <= rep_conj.decay_exponent <= hi
        and bmax < BOUNDARY_COMPACT_MAX
    )
    if degree == 1 and series.coeffs[0] == 0 and alpha == 0:
        # shift at alpha = 0: the conj defect is exactly diag(1/(k+2))
        ev = rep_conj.eigenvalues
        expected = 1.0 / (np.arange(n) + 2.0)
        dev = float(np.max(np.abs(ev - expected)))
        # the (10, 200) window, clamped to the usable 3n/4 eigenvalues of smaller sections
        usable = 3 * n // 4
        slope_exact = _decay_slope(ev, min(10, usable - 1), min(200, usable))
        metrics["shift_exact_max_dev"] = dev
        metrics["shift_slope_10_200"] = slope_exact
        ok = ok and dev < EXACT_TOL and abs(slope_exact + 1.0) <= 0.02
    return ("pass" if ok else "fail"), "", metrics


def _check_singular_noncompact(alpha, spec, series, cfg):
    if not isinstance(spec, SingularInnerSpec):
        return "skipped", "precondition: check targets singular inner symbols", {}
    if alpha <= -1:
        return "skipped", "precondition alpha > -1 (finite weighted area measure)", {}
    bmax, bmin = _boundary_berezin_max(series, alpha, cfg)
    status = "pass" if bmax >= BOUNDARY_NONCOMPACT_MIN else "fail"
    return status, "", {
        "boundary_berezin_max": bmax,
        "boundary_berezin_min": bmin,
        "radius": float(cfg["boundary_radius"]),
        "size": int(cfg["boundary_size"]),
        "threshold": BOUNDARY_NONCOMPACT_MIN,
    }


def _check_rescaling_identity(alpha, spec, series, cfg):
    if not np.any(np.abs(series.coeffs[1:]) > 0):
        return "skipped", "precondition: symbol must be non-constant", {}
    if abs(series.coeffs[0]) >= 1:
        return "skipped", "precondition: |phi(0)| < 1 required to move the base point", {}
    pts = _seeded_disk_points(int(cfg["seed"]), 13, int(cfg["rescaling_points"]), 0.9)
    residual = rescaling_check(series, alpha, pts)
    status = "pass" if residual < RESCALING_TOL else "fail"
    return status, "", {
        "max_residual": residual,
        "tolerance": RESCALING_TOL,
        "points": len(pts),
    }


def _scan(series, alpha, cfg):
    return cnp_scan(
        series,
        alpha,
        n_points=int(cfg["cnp_points"]),
        n_trials=int(cfg["cnp_trials"]),
        seed=int(cfg["seed"]),
        tolerance=float(cfg["psd_tol"]),
    )


def _cnp_metrics(report) -> dict:
    return {
        "min_eigenvalue": report.min_eigenvalue,
        "failed_trials": report.failed_trials,
        "trials": report.trials,
        "hazards": len(report.hazards),
        "certificate": report.certificate,
    }


def _check_cnp_moebius_pass(alpha, spec, series, cfg):
    moebius = _blaschke_degree(spec, series) == 1
    monomial_scaled = (
        isinstance(spec, MonomialSpec)
        and -2 < alpha < -1
        and spec.c is not None
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
    report = _scan(series, alpha, cfg)
    status = "pass" if report.failed_trials == 0 else "fail"
    return status, "", _cnp_metrics(report)


def _check_cnp_nonmoebius_fail(alpha, spec, series, cfg):
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
    report = _scan(series, alpha, cfg)
    metrics = _cnp_metrics(report)
    ok = report.failed_trials >= 1 and report.min_eigenvalue < -WITNESS_TOL
    if ok and report.witness is not None:
        jac = jacobi_eigenvalues(report.witness.matrix)
        metrics["witness_size"] = len(report.witness.points)
        metrics["witness_min_jacobi"] = float(jac[-1])
        ok = jac[-1] < -WITNESS_TOL
    else:
        ok = False
    return ("pass" if ok else "fail"), "", metrics


def _check_hardy_degenerate(alpha, spec, series, cfg):
    if abs(alpha + 1.0) > 1e-12:
        return "skipped", f"precondition alpha = -1 (Hardy space), got {alpha}", {}
    degree = _blaschke_degree(spec, series)
    if degree is None:
        return "skipped", "precondition: finite-rank degeneracy needs a finite Blaschke symbol", {}
    n = int(cfg["matrix_size"])
    e_conj = defect_matrix(series, alpha, n, "conj")
    econj_max = float(np.max(np.abs(e_conj.entries)))
    ev = spectrum(defect_matrix(series, alpha, n, "phi")).eigenvalues
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


def _check_boundary_ratio(alpha, spec, series, cfg):
    if not np.any(np.abs(series.coeffs[1:]) > 0):
        return "skipped", "precondition: symbol must be non-constant", {}
    radii = [float(t) for t in str(cfg["ratio_radii"]).split(",")]
    directions = int(cfg["directions"])
    sup, inf = boundary_ratio_check(series, radii, directions)
    degree = _blaschke_degree(spec, series)
    metrics = {"sup": sup, "inf": inf, "radii": radii, "directions": directions}
    if isinstance(spec, SingularInnerSpec):
        threshold = float(cfg["ratio_threshold"])
        metrics["divergence_threshold"] = threshold
        metrics["diverging"] = bool(sup >= threshold)
        ok = sup >= threshold
    elif isinstance(spec, (MobiusSpec, BlaschkeSpec)) and degree == 1:
        a = abs(spec.a) if isinstance(spec, MobiusSpec) else abs(spec.zeros[0])
        hi = (1.0 + a) / (1.0 - a)
        lo = 1.0 / hi
        metrics["expected_sup"] = hi
        metrics["expected_inf"] = lo
        ok = abs(sup - hi) <= RATIO_REL_TOL * hi and abs(inf - lo) <= RATIO_REL_TOL * lo
    elif degree == 1 and series.coeffs[0] == 0:
        metrics["expected_sup"] = 1.0
        metrics["expected_inf"] = 1.0
        ok = abs(sup - 1.0) <= 1e-9 and abs(inf - 1.0) <= 1e-9
    else:
        # no closed form: assert the two-sided bound exists on the grid
        ok = inf > 0.0 and np.isfinite(sup)
    return ("pass" if ok else "fail"), "", metrics


def _check_inclusion_asymptote(alpha, spec, series, cfg):
    gamma = alpha - 1.0
    if gamma <= -2:
        return "skipped", f"precondition: companion exponent gamma = alpha - 1 > -2, got {gamma}", {}
    n = 256
    vals = inclusion_eigenvalues(alpha, gamma, n)
    k = np.arange(n + 1)
    product = vals * (k + 1.0)
    tail = product[32:]
    rep = spectrum(inclusion_matrix(alpha, gamma, n))
    metrics = {
        "gamma": gamma,
        "product_min": float(tail.min()),
        "product_max": float(tail.max()),
        "decay_exponent": rep.decay_exponent,
        "size": n,
    }
    lo, hi = INCLUSION_BAND
    ok = (
        lo <= tail.min()
        and tail.max() <= hi
        and DECAY_BAND[0] <= rep.decay_exponent <= DECAY_BAND[1]
    )
    if alpha == 0:
        # Hardy companion: both weight sequences are exact, so the ratio is
        # bitwise equal to 1/(k+1)
        exact_dev = float(np.max(np.abs(vals - 1.0 / (k + 1.0))))
        metrics["exact_max_dev"] = exact_dev
        ok = ok and exact_dev == 0.0
    return ("pass" if ok else "fail"), "", metrics


_CHECK_ROUTINES = {
    "berezin_identity": _check_berezin_identity,
    "blaschke_decay": _check_blaschke_decay,
    "singular_noncompact": _check_singular_noncompact,
    "rescaling_identity": _check_rescaling_identity,
    "cnp_moebius_pass": _check_cnp_moebius_pass,
    "cnp_nonmoebius_fail": _check_cnp_nonmoebius_fail,
    "hardy_degenerate": _check_hardy_degenerate,
    "boundary_ratio": _check_boundary_ratio,
    "inclusion_asymptote": _check_inclusion_asymptote,
}


def run_scenario(scenario: Scenario, config: dict | None = None) -> RunReport:
    """Execute every (check, alpha, symbol) cell and assemble a report.

    Precondition violations become skipped cells; numerical failures inside
    a cell are recorded as fail rows, never raised. Configuration problems
    abort before any cell runs.
    """
    cfg = merge_config(config)
    check_fit_window(cfg, scenario.checks)
    started = datetime.now(timezone.utc).isoformat()
    results: list[CheckResult] = []
    for check in scenario.checks:
        routine = _CHECK_ROUTINES[check]
        for alpha in scenario.alpha_list:
            for raw_spec in scenario.symbols:
                spec, series = bind_symbol(raw_spec, alpha)
                try:
                    status, reason, metrics = routine(float(alpha), spec, series, cfg)
                except Exception as exc:
                    status, reason, metrics = "fail", f"{type(exc).__name__}: {exc}", {}
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
        config=_plain(cfg),
        checks=results,
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
    )


def builtin_scenarios() -> dict[str, Scenario]:
    """Bundled scenarios, one per check; together they cover every identifier."""
    shift = PowerSeriesSymbol(np.array([0.0, 1.0], dtype=complex))
    mob_half = MobiusSpec(a=0.5)
    bl2 = BlaschkeSpec(zeros=(0.5, -0.5))
    bl3 = BlaschkeSpec(zeros=(0.5, -0.5, 0.0))
    return {
        "berezin_identity": Scenario(
            "berezin_identity",
            alpha_list=(-0.5, 0.0, 1.0),
            symbols=(shift, mob_half, bl2),
            checks=("berezin_identity",),
        ),
        "blaschke_decay": Scenario(
            "blaschke_decay",
            alpha_list=(-0.5, 0.0, 1.0),
            symbols=(shift, mob_half, bl2, bl3),
            checks=("blaschke_decay",),
        ),
        "singular_noncompact": Scenario(
            "singular_noncompact",
            alpha_list=(0.0,),
            symbols=(SingularInnerSpec(c=1.0),),
            checks=("singular_noncompact",),
        ),
        "rescaling_identity": Scenario(
            "rescaling_identity",
            alpha_list=(-0.5, 0.0, 1.0),
            symbols=(mob_half, bl2, SingularInnerSpec(c=1.0)),
            checks=("rescaling_identity",),
        ),
        "cnp_moebius_pass": Scenario(
            "cnp_moebius_pass",
            alpha_list=(-0.5, 0.0, -1.5),
            symbols=(MobiusSpec(a=0.0), MobiusSpec(a=0.4), MobiusSpec(a=0.3j), MonomialSpec(n=2)),
            checks=("cnp_moebius_pass",),
        ),
        "cnp_nonmoebius_fail": Scenario(
            "cnp_nonmoebius_fail",
            alpha_list=(-0.5, 0.0, 1.0),
            symbols=(MonomialSpec(n=2, c=1.0), bl2, shift),
            checks=("cnp_nonmoebius_fail",),
        ),
        "hardy_degenerate": Scenario(
            "hardy_degenerate",
            alpha_list=(-1.0,),
            symbols=(shift, bl2),
            checks=("hardy_degenerate",),
        ),
        "boundary_ratio": Scenario(
            "boundary_ratio",
            alpha_list=(0.0,),
            symbols=(mob_half, SingularInnerSpec(c=1.0), shift),
            checks=("boundary_ratio",),
        ),
        "inclusion_asymptote": Scenario(
            "inclusion_asymptote",
            alpha_list=(0.0, 0.5),
            symbols=(shift,),
            checks=("inclusion_asymptote",),
        ),
    }
