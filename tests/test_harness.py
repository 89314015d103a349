"""Harness tests: configuration, scenario execution, report round-trips."""

import csv
import json

import numpy as np
import pytest

from subbergman.harness import (
    CHECK_IDS,
    DEFAULT_CONFIG,
    RunReport,
    Scenario,
    boundary_ratio_check,
    builtin_scenarios,
    check_fit_window,
    emit_report,
    load_config,
    load_report,
    merge_config,
    run_scenario,
    _blaschke_degree,
)
from subbergman.operators import defect_matrix, spectrum
from subbergman.symbols import (
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
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
    assert cfg["boundary_size"] == DEFAULT_CONFIG["boundary_size"]


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


def test_later_sources_win():
    cfg = merge_config({"cnp_trials": 5}, {"cnp_trials": 9})
    assert cfg["cnp_trials"] == 9


@pytest.mark.parametrize(
    "override",
    [
        {"matrix_size": 0},
        {"boundary_size": 0},
        {"cnp_points": 2},
        {"rescaling_points": 1},
        {"cnp_trials": 0},
        {"boundary_radius": 1.0},
        {"berezin_radius": 0.0},
        {"ratio_radii": "0.5,1.2"},
        {"ratio_radii": "0.5,x"},
        {"psd_tol": 0.0},
    ],
)
def test_merge_rejects_values_no_check_can_run_with(override):
    with pytest.raises(ValueError):
        merge_config(override)


def test_fit_window_is_checked_when_blaschke_decay_runs():
    cfg = merge_config({"fit_hi": 350})
    check_fit_window(cfg, ("berezin_identity",))  # the window plays no part
    with pytest.raises(ValueError, match="fit window"):
        check_fit_window(cfg, ("blaschke_decay",))
    with pytest.raises(ValueError, match="fit window"):
        check_fit_window(merge_config({"fit_lo": 30, "fit_hi": 30}), CHECK_IDS)
    scenario = builtin_scenarios()["blaschke_decay"]
    with pytest.raises(ValueError, match="fit window"):
        run_scenario(scenario, {"fit_hi": 350})
    check_fit_window(merge_config(_FAST), CHECK_IDS)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sizes\n"
        "matrix_size = 128\n"
        "\n"
        "boundary_radius = 0.99  # pushed inward\n"
        "ratio_radii = 0.5,0.9\n"
    )
    raw = load_config(path)
    assert raw == {"matrix_size": "128", "boundary_radius": "0.99", "ratio_radii": "0.5,0.9"}
    cfg = merge_config(raw)
    assert cfg["matrix_size"] == 128
    assert cfg["boundary_radius"] == 0.99
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
    "boundary_size": 160,
    "cnp_points": 10,
    "cnp_trials": 3,
    "fit_lo": 5,
    "fit_hi": 60,
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


def test_blaschke_decay_shift_window_follows_matrix_size():
    # the shift-exact slope window is clamped to the usable 3n/4 eigenvalues
    scenario = Scenario("x", alpha_list=(0.0,), symbols=(SHIFT,), checks=("blaschke_decay",))
    report = run_scenario(scenario, {"matrix_size": 200, "fit_hi": 150})
    cell = report.checks[0]
    assert (cell.status, cell.reason) == ("pass", "")
    # the slope is refitted on the (10, 150) window of the block already solved
    want = spectrum(defect_matrix(SHIFT, 0.0, 200, "conj"), (10, 150)).decay_exponent
    assert abs(cell.metrics["shift_slope_10_200"] - want) < 1e-13


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


def test_boundary_ratio_rejects_outside_radii():
    with pytest.raises(ValueError):
        boundary_ratio_check(SHIFT, [0.5, 1.0], 8)
