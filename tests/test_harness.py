"""Harness tests: configuration, scenario execution, report round-trips."""

import csv
import json

import numpy as np
import pytest

from subbergman.harness import (
    CHECK_IDS,
    CNP_SECTION,
    DEFAULT_CONFIG,
    RANGE_GROWTH_MAX,
    RunReport,
    Scenario,
    boundary_ratio_check,
    builtin_scenarios,
    emit_report,
    load_config,
    load_report,
    merge_config,
    run_scenario,
    _blaschke_degree,
    _range_section,
)
from subbergman import harness
from subbergman.cnp import DEFAULT_PSD_TOL, _coefficient_section, _worst_pair
from subbergman.operators import DENSE_SIZE_MAX, jacobi_eigenvalues
from subbergman.symbols import (
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    bind_symbol,
    normalize,
    parse_symbol,
    to_series,
)

SHIFT = PowerSeriesSymbol(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# configuration


def test_merge_defaults_and_overrides():
    cfg = merge_config()
    assert cfg == DEFAULT_CONFIG
    cfg = merge_config({"matrix_size": "120"}, {"seed": 3})
    assert cfg["matrix_size"] == 120 and isinstance(cfg["matrix_size"], int)
    assert cfg["seed"] == 3
    assert cfg["berezin_points"] == DEFAULT_CONFIG["berezin_points"]


def test_merge_rejects_unknown_and_badly_typed_keys():
    with pytest.raises(ValueError):
        merge_config({"matrix_sise": 100})
    with pytest.raises(ValueError):
        merge_config({"matrix_size": "many"})


@pytest.mark.parametrize("key, value", [("series_length", 200), ("singular_series_length", 600)])
def test_series_lengths_are_not_config_keys(key, value):
    # every symbol is truncated by default_series_length, in verify and the CLI alike
    with pytest.raises(ValueError, match=key):
        merge_config({key: value})


@pytest.mark.parametrize(
    "key",
    ["fit_lo", "fit_hi", "boundary_size", "boundary_radius", "cnp_points", "cnp_trials", "psd_tol"],
)
def test_fit_window_is_not_a_config_key(key):
    # blaschke_decay and singular_noncompact read the range of the defect, with no window
    # and no boundary Berezin sample; the CNP cells read a coefficient section, with no
    # sampled points and a fixed tolerance
    with pytest.raises(ValueError, match=key):
        merge_config({key: 150})


def test_later_sources_win():
    cfg = merge_config({"seed": 5}, {"seed": 9})
    assert cfg["seed"] == 9


@pytest.mark.parametrize(
    "override",
    [
        {"matrix_size": 0},
        {"directions": 0},
        {"rescaling_points": 1},
        {"berezin_radius": 1.0},
        {"berezin_radius": 0.0},
        {"ratio_radii": "0.5,1.2"},
        {"ratio_radii": "0.5,x"},
        {"matrix_size": DENSE_SIZE_MAX + 1},
        {"seed": -1},
        {"ratio_threshold": "nan"},
        {"ratio_threshold": "inf"},
        {"ratio_threshold": -5.0},
        {"ratio_threshold": 0.0},
    ],
)
def test_merge_rejects_values_no_check_can_run_with(override):
    with pytest.raises(ValueError):
        merge_config(override)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sizes\n"
        "matrix_size = 128\n"
        "\n"
        "berezin_radius = 0.9  # pushed outward\n"
        "ratio_radii = 0.5,0.9\n"
    )
    raw = load_config(path)
    assert raw == {"matrix_size": "128", "berezin_radius": "0.9", "ratio_radii": "0.5,0.9"}
    cfg = merge_config(raw)
    assert cfg["matrix_size"] == 128
    assert cfg["berezin_radius"] == 0.9
    assert cfg["ratio_radii"] == "0.5,0.9"


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ValueError):
        load_config(path)


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_rejects_unknown_check():
    with pytest.raises(ValueError):
        Scenario("x", alpha_list=(0.0,), symbols=(SHIFT,), checks=("spectral_gap",))


def test_scenario_rejects_non_symbols():
    # a symbol given as text would otherwise fail later, outside any cell
    with pytest.raises(ValueError, match="not symbols"):
        Scenario("x", alpha_list=(0.0,), symbols=("mobius a=0.5",), checks=("boundary_ratio",))


def test_builtin_scenarios_cover_every_check():
    scenarios = builtin_scenarios()
    covered = {c for s in scenarios.values() for c in s.checks}
    assert covered == set(CHECK_IDS)
    for name, scenario in scenarios.items():
        assert scenario.name == name


_FAST = {
    "matrix_size": 120,
    "berezin_points": 5,
    "rescaling_points": 4,
}


def test_run_scenario_pass_and_skip_rows():
    scenario = Scenario(
        "gates",
        alpha_list=(0.5,),
        symbols=(to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 80), SHIFT),
        checks=("cnp_moebius_pass", "rescaling_identity"),
    )
    report = run_scenario(scenario, _FAST)
    by = {(r.check, r.symbol): r for r in report.checks}
    assert len(report.checks) == 4
    # the Moebius positivity claim has no content at alpha = 0.5
    skipped = [r for r in report.checks if r.check == "cnp_moebius_pass"]
    assert all(r.status == "skipped" and "precondition" in r.reason for r in skipped)
    rescaled = [r for r in report.checks if r.check == "rescaling_identity"]
    assert all(r.status == "pass" for r in rescaled)
    assert not report.failed


def test_run_scenario_records_numerical_failures():
    # an inadmissible symbol cannot be scanned; the cell must fail, not raise
    scenario = Scenario(
        "bad",
        alpha_list=(0.0,),
        symbols=(PowerSeriesSymbol(np.array([0.0, 1.3])),),
        checks=("cnp_nonmoebius_fail",),
    )
    report = run_scenario(scenario, _FAST)
    assert report.checks[0].status == "fail"
    assert "admissible" in report.checks[0].reason


def test_blaschke_decay_shift_range_is_closed_form():
    # at alpha = 0 the shift's conj defect is diag(1/(k+2)) and L = diag(1/(k+1)),
    # so R = diag((k+1)/(k+2)); its phi defect equals L, so R = I
    n = 200
    scenario = Scenario("x", alpha_list=(0.0,), symbols=(SHIFT,), checks=("blaschke_decay",))
    cell = run_scenario(scenario, {"matrix_size": n}).checks[0]
    assert (cell.status, cell.reason) == ("pass", "")
    m = cell.metrics
    assert m["shift_exact_max_dev"] < 1e-15
    assert abs(m["range_min_conj"] - 0.5) < 1e-13
    assert abs(m["range_max_conj"] - n / (n + 1)) < 1e-13
    half = n // 2
    assert abs(m["growth_conj"] - np.log2((n / (n + 1)) / (half / (half + 1)))) < 1e-12
    assert abs(m["range_min_phi"] - 1.0) < 1e-13 and abs(m["range_max_phi"] - 1.0) < 1e-13


@pytest.mark.parametrize("size", [8, 16, 100, 140, 200, 300, 400])
def test_blaschke_decay_skips_unsettled_sections_and_never_fails(size):
    report = run_scenario(builtin_scenarios()["blaschke_decay"], {"matrix_size": size})
    assert len(report.checks) == 12
    for cell in report.checks:
        m = cell.metrics
        growth = max(m["growth_phi"], m["growth_conj"])
        if cell.status == "skipped":
            assert size < 16 and growth >= RANGE_GROWTH_MAX
            assert "range has not settled" in cell.reason and f"matrix_size={size}" in cell.reason
        else:
            assert cell.status == "pass", (cell.symbol, cell.alpha, m)
            assert growth < RANGE_GROWTH_MAX
            assert m["range_min_phi"] > 0 and m["range_min_conj"] > 0


@pytest.mark.parametrize("bad_side", ["phi", "conj"])
@pytest.mark.parametrize(
    "section, status",
    [((0.0, 2.0, 0.1), "fail"), ((-1e-3, 2.0, 0.6), "skipped"), ((1e-3, 2.0, 0.49), "pass")],
)
def test_blaschke_decay_verdict_rules(monkeypatch, bad_side, section, status):
    # a nonpositive range_min on either side fails the cell, unless some growth
    # says the range has not settled
    settled = (0.5, 2.0, 0.1)
    monkeypatch.setattr(
        harness, "_range_section", lambda *args: section if args[-1] == bad_side else settled
    )
    scenario = Scenario("x", alpha_list=(0.5,), symbols=(MobiusSpec(a=0.5),), checks=("blaschke_decay",))
    assert run_scenario(scenario, {"matrix_size": 16}).checks[0].status == status


@pytest.mark.parametrize("growth, status", [(0.51, "pass"), (0.5, "fail"), (0.1, "fail")])
def test_singular_noncompact_passes_on_growth_above_one_half(monkeypatch, growth, status):
    monkeypatch.setattr(harness, "_range_section", lambda *args: (0.5, 2.0, growth))
    scenario = builtin_scenarios()["singular_noncompact"]
    assert run_scenario(scenario, {"matrix_size": 16}).checks[0].status == status


def test_range_section_binds_the_section_size():
    # the 600-term default series makes the n = 800 phi section indefinite
    # (range_min -0.44); bound at 800 terms it reads +0.48
    scenario = Scenario("x", (-0.5,), (SingularInnerSpec(c=1.0),), ("singular_noncompact",))
    cell = run_scenario(scenario, {"matrix_size": 800}).checks[0]
    assert cell.metrics["range_min_phi"] > 0


def test_run_scenario_binds_each_symbol_once_per_alpha(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return bind_symbol(*args)

    monkeypatch.setattr(harness, "bind_symbol", counting)
    checks = ("blaschke_decay", "boundary_ratio", "cnp_nonmoebius_fail")
    scenario = Scenario("x", (0.0, 1.0), (MobiusSpec(a=0.5), SHIFT), checks)
    report = run_scenario(scenario, _FAST)
    assert len(report.checks) == 12
    assert len(calls) == 4
    assert {args[2] for args in calls} == {_FAST["matrix_size"]}


def _random_blaschke(rng) -> BlaschkeSpec:
    degree = int(rng.integers(1, 4))
    zeros = 0.6 * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
    return BlaschkeSpec(zeros=tuple(zeros), zeta=np.exp(2j * np.pi * rng.uniform()))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_finite_blaschke_ranges_are_bounded_above_and_below(alpha):
    # Theorem 2: R is bounded above and below for every finite Blaschke product
    rng = np.random.default_rng([5, int(2 * alpha) + 1])
    for _ in range(8):
        spec = _random_blaschke(rng)
        _, series = bind_symbol(spec, alpha, 128)
        for which in ("phi", "conj"):
            lo, hi, growth = _range_section(series, alpha, 128, which)
            assert lo > 0 and growth < RANGE_GROWTH_MAX, (spec, which, lo, hi, growth)


@pytest.mark.parametrize("n", [3, 4, 8, 64, 400])
def test_singular_inner_range_grows(n):
    _, series = bind_symbol(SingularInnerSpec(c=1.0), 0.0, n)
    _, _, growth = _range_section(series, 0.0, n, "phi")
    assert growth > RANGE_GROWTH_MAX


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize(
    "spec",
    [SHIFT, MobiusSpec(a=0.5), BlaschkeSpec(zeros=(0.5, -0.5, 0.0)), SingularInnerSpec(c=1.0)],
)
def test_range_sections_interlace(spec, alpha):
    # both sections read one series, so the n // 2 section is the top-left
    # block of the n section
    n = 64
    _, series = bind_symbol(spec, alpha, n)
    for which in ("phi", "conj"):
        lo, hi, growth = _range_section(series, alpha, n, which)
        lo_half, hi_half, _ = _range_section(series, alpha, n // 2, which)
        tol = 1e-12 * max(1.0, hi)
        assert hi_half <= hi + tol and lo_half >= lo - tol
        assert abs(growth - np.log2(hi / hi_half)) < 1e-12


def test_witness_margin_is_the_thresholded_quantity():
    # the witness is the worst 2x2 principal minor of the coefficient section B
    spec, series = bind_symbol(MonomialSpec(n=2, c=1.0), 0.0, CNP_SECTION)
    series = to_series(series, CNP_SECTION)  # the 8-term exact series, padded as the cell pads it
    scenario = Scenario("x", (0.0,), (spec,), ("cnp_nonmoebius_fail",))
    cell = run_scenario(scenario, _FAST).checks[0]
    assert cell.status == "pass"
    assert cell.metrics["section"] == CNP_SECTION and cell.metrics["certificate"]
    b = _coefficient_section(normalize(series).psi, 0.0, CNP_SECTION)
    i, j = cell.metrics["witness_indices"]
    assert (i, j) == _worst_pair(b)[:2]
    w = b[np.ix_((i, j), (i, j))]
    want = -jacobi_eigenvalues(w)[-1] / max(1.0, np.trace(w).real)
    assert cell.metrics["witness_margin"] == pytest.approx(want, rel=1e-12)
    assert want > DEFAULT_PSD_TOL
    assert cell.metrics["min_eigenvalue"] <= -want + 1e-12


def test_run_scenario_fails_fast_on_config_errors():
    scenario = Scenario("x", alpha_list=(0.0,), symbols=(SHIFT,), checks=("boundary_ratio",))
    with pytest.raises(ValueError):
        run_scenario(scenario, {"unknown_knob": 1})


def test_reports_are_deterministic():
    scenario = Scenario(
        "det",
        alpha_list=(0.0,),
        symbols=(to_series(MobiusSpec(a=0.4), 80),),
        checks=("cnp_moebius_pass", "boundary_ratio"),
    )
    r1 = run_scenario(scenario, _FAST).to_dict()
    r2 = run_scenario(scenario, _FAST).to_dict()
    for r in (r1, r2):
        r.pop("started")
        r.pop("finished")
    assert r1 == r2


@pytest.mark.parametrize(
    "spec, degree",
    [
        (MobiusSpec(a=0.5), 1),
        (MobiusSpec(a=0.0), 1),
        (BlaschkeSpec(zeros=(0.5, -0.5)), 2),
        (BlaschkeSpec(zeros=(0.5, -0.5, 0.0)), 3),
        (MonomialSpec(n=2, c=1.0), 2),
        (MonomialSpec(n=1, c=1j), 1),
        (MonomialSpec(n=2, c=0.5), None),
        (SingularInnerSpec(c=1.0), None),
        (SHIFT, 1),
        (PowerSeriesSymbol(np.array([0.0, 0.0, -1j])), 2),
        (PowerSeriesSymbol(np.array([0.0, 0.5])), None),
        (PowerSeriesSymbol(np.array([0.0, 1.3])), None),
        # a truncated Moebius series with phi(0) = 0.5 normalizes to a rotation
        (to_series(MobiusSpec(a=0.5), 200), 1),
        # phi = b(z^2) with b a Moebius map, so the normalized series is z^2
        (to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 200), 2),
        # a degree-2 product that is not a monomial after normalization
        (to_series(BlaschkeSpec(zeros=(0.5, 0.3)), 200), None),
    ],
)
def test_blaschke_degree_classifies_every_spec_type(spec, degree):
    series = spec if isinstance(spec, PowerSeriesSymbol) else to_series(spec, 200)
    assert _blaschke_degree(spec, series) == degree


# ---------------------------------------------------------------------------
# reports


def test_report_json_round_trip(tmp_path):
    scenario = Scenario("rt", alpha_list=(0.0,), symbols=(SHIFT,), checks=("boundary_ratio",))
    report = run_scenario(scenario, _FAST)
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    loaded = load_report(path)
    assert loaded.to_dict() == report.to_dict()
    assert loaded.schema == 1


def test_load_report_reads_a_minimal_schema_1_file(tmp_path):
    path = tmp_path / "minimal.json"
    check = {"check": "boundary_ratio", "alpha": 0.0, "symbol": "series 0,1", "status": "fail"}
    path.write_text(json.dumps({"scenario": "old", "checks": [check]}))
    report = load_report(path)
    assert report.schema == 1
    assert (report.config, report.started, report.finished) == ({}, "", "")
    assert report.checks[0].reason == "" and report.checks[0].metrics == {}
    assert report.failed


def test_load_report_ignores_unknown_keys(tmp_path):
    path = tmp_path / "extra.json"
    check = {"check": "x", "alpha": 1.0, "symbol": "s", "status": "pass", "wall_s": 0.1}
    path.write_text(json.dumps({"scenario": "new", "checks": [check], "versions": {"numpy": "2"}}))
    report = load_report(path)
    assert report.checks[0].status == "pass"
    data = report.to_dict()
    assert "versions" not in data
    assert "wall_s" not in data["checks"][0]


def test_load_report_names_missing_required_keys(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"scenario": "x", "checks": [{"check": "a", "alpha": 0}]}))
    with pytest.raises(ValueError, match=r"CheckResult .*\['symbol', 'status'\]"):
        load_report(path)
    with pytest.raises(ValueError, match=r"RunReport .*\['scenario'\]"):
        RunReport.from_dict({"checks": []})


def test_empty_report_is_valid_json(tmp_path):
    report = RunReport(scenario="empty", config={}, checks=[], started="", finished="")
    path = tmp_path / "empty.json"
    emit_report(report, path, "json")
    data = json.loads(path.read_text())
    assert data["checks"] == []
    assert data["schema"] == 1
    assert not load_report(path).failed


def test_csv_row_count_matches_cells(tmp_path):
    scenario = Scenario(
        "rows",
        alpha_list=(0.0, 1.0),
        symbols=(SHIFT, to_series(MobiusSpec(a=0.5), 80)),
        checks=("boundary_ratio", "rescaling_identity"),
    )
    report = run_scenario(scenario, _FAST)
    path = tmp_path / "report.csv"
    emit_report(report, path, "csv")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == len(report.checks) == 8
    assert rows[0][:5] == ["check", "alpha", "symbol", "status", "reason"]


def test_emit_report_bad_format_and_path(tmp_path):
    report = RunReport(scenario="x", config={}, checks=[], started="", finished="")
    with pytest.raises(ValueError):
        emit_report(report, tmp_path / "x.bin", "parquet")
    with pytest.raises(OSError):
        emit_report(report, tmp_path / "missing" / "x.json", "json")


# ---------------------------------------------------------------------------
# boundary ratio helper


def test_boundary_ratio_shift_is_one():
    sup, inf = boundary_ratio_check(SHIFT, [0.5, 0.9, 0.99], 16)
    assert sup == pytest.approx(1.0)
    assert inf == pytest.approx(1.0)


def test_boundary_ratio_moebius_extrema():
    series = to_series(MobiusSpec(a=0.5), 300)
    sup, inf = boundary_ratio_check(series, [0.5, 0.9, 0.99], 16)
    assert abs(sup - 3.0) <= 0.06
    assert abs(inf - 1.0 / 3.0) <= 0.02 / 3.0
    assert inf > 0


def _boundary_ratio_cell(symbol):
    return run_scenario(Scenario("x", (0.0,), (symbol,), ("boundary_ratio",))).checks[0]


@pytest.mark.parametrize(
    "symbol, expected_sup",
    [
        (parse_symbol("mobius a=0.9"), 19.0),
        # a zero off the 16 grid rays, so no grid point nears the extremal direction
        (MobiusSpec(a=0.5 * np.exp(1j * np.pi / 16)), 3.0),
        (BlaschkeSpec(zeros=(-0.3 + 0.4j,), zeta=1j), 3.0),
        (BlaschkeSpec(zeros=(0.95j,), zeta=np.exp(2.0j)), 39.0),
        # a raw series with phi(0) = 0.5 gets the same closed-form bounds
        (to_series(MobiusSpec(a=0.5), 80), 3.0),
    ],
    ids=["mobius-0.9", "mobius-off-ray", "blaschke-one-zero", "blaschke-one-zero-0.95", "raw-series"],
)
def test_boundary_ratio_degree_one_symbols_stay_within_schwarz_pick_bounds(symbol, expected_sup):
    cell = _boundary_ratio_cell(symbol)
    assert cell.status == "pass"
    assert cell.metrics["expected_sup"] == pytest.approx(expected_sup, rel=1e-12)
    assert cell.metrics["expected_inf"] == pytest.approx(1.0 / expected_sup, rel=1e-12)


@pytest.mark.parametrize("side", ["sup", "inf"])
def test_boundary_ratio_degree_one_rule_can_fail(monkeypatch, side):
    hi = 3.0
    sup, inf = (hi * (1.0 + 2e-9), 1.0 / hi) if side == "sup" else (hi, (1.0 - 2e-9) / hi)
    monkeypatch.setattr(harness, "boundary_ratio_check", lambda *args: (sup, inf))
    assert _boundary_ratio_cell(MobiusSpec(a=0.5)).status == "fail"


@pytest.mark.parametrize(
    "text, status, sup",
    [
        # inside the disk on the grid, but no closed-form bound to hold the ratio to
        ("series 0,0.5", "skipped", 37.94),
        ("blaschke zeros=0.5,-0.5", "skipped", 3.26),
        # |phi| > 1 near the circle makes the ratio negative
        ("series 0,1.3", "fail", None),
    ],
)
def test_boundary_ratio_generic_symbols_cannot_pass(text, status, sup):
    cell = _boundary_ratio_cell(parse_symbol(text))
    assert cell.status == status
    assert {"sup", "inf"} <= set(cell.metrics) and "expected_sup" not in cell.metrics
    if status == "skipped":
        assert "no closed-form bound" in cell.reason
        assert cell.metrics["sup"] == pytest.approx(sup, abs=0.01) and cell.metrics["inf"] > 0
    else:
        assert cell.metrics["inf"] == pytest.approx(-33.0, abs=0.1)


def test_boundary_ratio_rejects_outside_radii():
    with pytest.raises(ValueError):
        boundary_ratio_check(SHIFT, [0.5, 1.0], 8)
