"""Harness tests: section size, scenario execution, report round-trips."""

import csv
import inspect
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subbergman.harness import (
    BEREZIN_TOL,
    CHECK_IDS,
    CNP_SECTION,
    MATRIX_SIZE,
    RANGE_GROWTH_MAX,
    WITNESS_TOL,
    RunReport,
    Scenario,
    boundary_ratio_check,
    builtin_scenarios,
    emit_report,
    load_report,
    run_scenario,
    _blaschke_degree,
    _range_section,
)
from subbergman import cnp, harness, operators, symbols
from subbergman.cli import main
from subbergman.cnp import DEFAULT_PSD_TOL, _coefficient_section, _worst_pair
from subbergman.operators import (
    DENSE_SIZE_MAX,
    _defect_classes,
    defect_matrix,
    inclusion_eigenvalues,
    jacobi_eigenvalues,
)
from subbergman.symbols import (
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    SingularInnerSpec,
    admissibility_check,
    bind_symbol,
    normalize,
    parse_symbol,
    to_series,
)

SHIFT = PowerSeriesSymbol(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# section size: the one value a run can set. Each key of the configuration file
# verify once read is now a harness constant, and its flag a usage error.


def _not_a_parameter(key, value):
    # the size is the only parameter of run_scenario and the only setting of verify
    assert list(inspect.signature(run_scenario).parameters) == ["scenario", "matrix_size"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", f"--{key.replace('_', '-')}", str(value)])
    assert exc.value.code == 2


def test_run_scenario_records_its_section_size():
    # a run is at MATRIX_SIZE unless given another size, and its report records the size
    scenario = builtin_scenarios()["inclusion_asymptote"]
    assert MATRIX_SIZE == 400
    assert run_scenario(scenario).config == {"matrix_size": MATRIX_SIZE}
    assert run_scenario(scenario, 120).config == {"matrix_size": 120}
    config = run_scenario(scenario, matrix_size=np.int64(120)).config
    assert config == {"matrix_size": 120} and type(config["matrix_size"]) is int


def test_run_scenario_refuses_a_size_that_is_not_an_integer():
    _not_a_parameter("matrix_sise", 100)
    scenario = builtin_scenarios()["inclusion_asymptote"]
    for size in ("many", "120", 120.0, None, True):
        with pytest.raises(ValueError, match="--size"):
            run_scenario(scenario, size)


@pytest.mark.parametrize(
    "key",
    [
        "fit_lo",
        "fit_hi",
        "boundary_size",
        "boundary_radius",
        "cnp_points",
        "cnp_trials",
        "psd_tol",
        "seed",
        "berezin_points",
        "berezin_radius",
        "rescaling_points",
        "directions",
        "ratio_radii",
        "ratio_threshold",
    ],
)
def test_fit_window_is_not_a_config_key(key):
    # blaschke_decay and singular_noncompact read the range of the defect, with no window
    # and no boundary Berezin sample; the CNP cells read a coefficient section, with no
    # sampled points and a fixed tolerance; the sample points, the ratio grid and its
    # threshold are constants beside their checks, so no setting can make a cell fail
    _not_a_parameter(key, 150)


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
        {"matrix_size": 2},
    ],
)
def test_merge_rejects_values_no_check_can_run_with(monkeypatch, override):
    # matrix_size must lie in [3, DENSE_SIZE_MAX], checked before any cell runs; no other
    # value is a parameter
    monkeypatch.setattr(harness, "bind_symbol", lambda *args: pytest.fail("a cell ran"))
    (key, value), = override.items()
    if key != "matrix_size":
        _not_a_parameter(key, value)
        return
    with pytest.raises(ValueError, match="--size"):
        run_scenario(builtin_scenarios()["blaschke_decay"], value)


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


_FAST = 120


def test_run_scenario_pass_and_skip_rows():
    scenario = Scenario(
        "gates",
        alpha_list=(0.5,),
        symbols=(to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 80), SHIFT),
        checks=("cnp_moebius_pass", "rescaling_identity"),
    )
    report = run_scenario(scenario, matrix_size=_FAST)
    by = {(r.check, r.symbol): r for r in report.checks}
    assert len(report.checks) == 4
    # the Moebius positivity claim has no content at alpha = 0.5
    skipped = [r for r in report.checks if r.check == "cnp_moebius_pass"]
    assert all(r.status == "skipped" and "precondition" in r.reason for r in skipped)
    rescaled = [r for r in report.checks if r.check == "rescaling_identity"]
    assert all(r.status == "pass" for r in rescaled)
    assert not report.failed


def test_run_scenario_records_numerical_failures(monkeypatch):
    # an exception inside a cell makes that cell an error, not a raise
    def overflow(*args):
        raise FloatingPointError("overflow in the coefficient section")

    monkeypatch.setattr(harness, "_coefficient_section", overflow)
    scenario = Scenario("bad", (0.0,), (MonomialSpec(n=2, c=1.0),), ("cnp_nonmoebius_fail",))
    report = run_scenario(scenario, matrix_size=_FAST)
    assert report.checks[0].status == "error"
    assert report.checks[0].reason == "FloatingPointError: overflow in the coefficient section"
    assert report.failed


def test_blaschke_decay_shift_range_is_closed_form():
    # at alpha = 0 the shift's conj defect is diag(1/(k+2)) and L = diag(1/(k+1)),
    # so R = diag((k+1)/(k+2)); its phi defect equals L, so R = I
    n = 200
    scenario = Scenario("x", alpha_list=(0.0,), symbols=(SHIFT,), checks=("blaschke_decay",))
    cell = run_scenario(scenario, matrix_size=n).checks[0]
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
    report = run_scenario(builtin_scenarios()["blaschke_decay"], matrix_size=size)
    assert len(report.checks) == 12
    for cell in report.checks:
        m = cell.metrics
        growth = max(m["growth_phi"], m["growth_conj"])
        if cell.status == "skipped":
            assert size < 16 and growth >= RANGE_GROWTH_MAX
            assert "range has not settled" in cell.reason and f"n={size}" in cell.reason
            assert cell.reason.endswith("raise --size")
        else:
            assert cell.status == "pass", (cell.symbol, cell.alpha, m)
            assert growth < RANGE_GROWTH_MAX
            assert m["range_min_phi"] > 0 and m["range_min_conj"] > 0


@pytest.mark.parametrize(
    "count, r_max, reach",
    [(harness.BEREZIN_POINTS, harness.BEREZIN_RADIUS, 0.784), (harness.RESCALING_POINTS, 0.9, 0.747)],
)
def test_spiral_points_cover_the_disk_the_seeded_sets_did(count, r_max, reach):
    # reach: the largest |a| of the seeded sets these spirals replaced
    pts = harness._spiral_points(count, r_max)
    assert pts.shape == (count,)
    assert np.all(np.abs(pts) < r_max)
    gaps = np.abs(pts[:, None] - pts[None, :]) + np.eye(count)
    assert gaps.min() > 0.05
    assert np.abs(pts).max() >= reach
    np.testing.assert_array_equal(pts, harness._spiral_points(count, r_max))


@pytest.mark.parametrize("size", [3, 20, 33, 34, 72, 80, 400])
def test_berezin_identity_skips_truncated_kernel_vectors_and_never_fails(size):
    # up to size 33 the cells used to fail: the kernel vectors were cut too early
    report = run_scenario(builtin_scenarios()["berezin_identity"], matrix_size=size)
    assert len(report.checks) == 9
    for cell in report.checks:
        bound = cell.metrics["truncation_bound"]
        if cell.status == "skipped":
            assert size < 80 and bound > BEREZIN_TOL
            assert cell.reason.startswith("truncation:") and f"n={size}" in cell.reason
            assert cell.reason.endswith("raise --size") and "max_error" not in cell.metrics
        else:
            assert cell.status == "pass", (cell.symbol, cell.alpha, cell.metrics)
            assert bound <= BEREZIN_TOL and cell.metrics["max_error"] < BEREZIN_TOL
    statuses = {cell.status for cell in report.checks}
    assert statuses == ({"skipped"} if size <= 34 else {"pass"} if size >= 80 else {"pass", "skipped"})


def test_berezin_identity_fails_an_error_above_its_tolerance(monkeypatch):
    real = harness.berezin_values
    monkeypatch.setattr(harness, "berezin_values", lambda *args: real(*args) + 2 * BEREZIN_TOL)
    report = run_scenario(builtin_scenarios()["berezin_identity"])
    assert {cell.status for cell in report.checks} == {"fail"}


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
    assert run_scenario(scenario, matrix_size=16).checks[0].status == status


@pytest.mark.parametrize("growth, status", [(0.51, "pass"), (0.5, "fail"), (0.1, "fail")])
def test_singular_noncompact_passes_on_growth_above_one_half(monkeypatch, growth, status):
    monkeypatch.setattr(harness, "_range_section", lambda *args: (0.5, 2.0, growth))
    scenario = builtin_scenarios()["singular_noncompact"]
    assert run_scenario(scenario, matrix_size=16).checks[0].status == status


def test_range_section_binds_the_section_size():
    # the 600-term default series makes the n = 800 phi section indefinite
    # (range_min -0.44); bound at 800 terms it reads +0.48
    scenario = Scenario("x", (-0.5,), (SingularInnerSpec(c=1.0),), ("singular_noncompact",))
    cell = run_scenario(scenario, matrix_size=800).checks[0]
    assert cell.metrics["range_min_phi"] > 0


def test_singular_noncompact_reads_the_section_the_size_asks_for():
    # past the 600-term default the singular series is extended to --size terms:
    # the cell reads the 800-term section (range_min_phi 0.50000192; 0.176 from 600 terms)
    (cell,) = run_scenario(builtin_scenarios()["singular_noncompact"], matrix_size=800).checks
    want = _range_section(to_series(SingularInnerSpec(c=1.0), 800), 0.0, 800, "phi")[0]
    assert cell.status == "pass" and cell.metrics["range_min_phi"] == want


def test_run_scenario_binds_each_symbol_once_per_alpha(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return bind_symbol(*args)

    monkeypatch.setattr(harness, "bind_symbol", counting)
    checks = ("blaschke_decay", "boundary_ratio", "cnp_nonmoebius_fail")
    scenario = Scenario("x", (0.0, 1.0), (MobiusSpec(a=0.5), SHIFT), checks)
    report = run_scenario(scenario, matrix_size=_FAST)
    assert len(report.checks) == 12
    assert len(calls) == 4
    assert {args[2] for args in calls} == {_FAST}


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


@pytest.mark.parametrize("which", ["phi", "conj"])
def test_range_section_scales_in_place_and_slices_before_masking(which):
    # mobius a=0.5 has one rotation class, so the whole scaled T feeds one Gram
    # product; the reference scales a copy of T and masks the class stack before
    # slicing, as the builder once did, and must agree bitwise
    import tracemalloc

    n, alpha = 400, 0.0
    _, series = bind_symbol(MobiusSpec(a=0.5), alpha, n)
    scale = 1.0 / np.sqrt(inclusion_eigenvalues(alpha, alpha - 1.0, n - 1))
    t = operators._toeplitz_entries(series, alpha, operators._defect_rows(series, n, which), n)
    u = scale[:, None] * (t if which == "phi" else t.conj().T)
    r = -(u @ u.conj().T)
    r[np.arange(n), np.arange(n)] += scale**2
    ev = np.linalg.eigvalsh(r)
    half = np.linalg.eigvalsh(r[: n // 2, : n // 2].copy())
    want = (float(ev.min()), float(ev.max()), float(np.log2(ev.max() / half.max())))
    assert _range_section(series, alpha, n, which) == want
    tracemalloc.start()
    try:
        _range_section(series, alpha, n, which)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.73 MB (phi) and 4.12 MB (conj) with a scaled copy of T and a masked copy of the stack
    assert peak <= 2.8 * 2**20, peak


def _class_series(m, r, length, complex_symbol, seed):
    """A series supported on r + m Z (m = None: one term at r), scaled to l1 norm 0.9."""
    rng = np.random.default_rng(seed)
    c = np.zeros(max(length, r + 1), dtype=complex)
    idx = [r] if m is None else range(r, len(c), m)
    for k in idx:
        c[k] = rng.normal() + (1j * rng.normal() if complex_symbol else 0.0)
    return PowerSeriesSymbol(0.9 * c / np.abs(c).sum())


def _dense_r(series, alpha, n, which):
    scale = 1.0 / np.sqrt(inclusion_eigenvalues(alpha, alpha - 1.0, n - 1))
    return scale[:, None] * defect_matrix(series, alpha, n, which).entries * scale


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    m=st.sampled_from([1, 2, 3, 5, None]),
    offset=st.integers(0, 4),
    n=st.integers(3, 41),
    length=st.integers(1, 60),
    complex_symbol=st.booleans(),
    alpha=st.floats(-0.95, 2.95),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=2, offset=0, n=40, length=40, complex_symbol=False, alpha=0.0, seed=1)
@example(m=3, offset=1, n=41, length=60, complex_symbol=True, alpha=-0.5, seed=2)
@example(m=5, offset=4, n=40, length=9, complex_symbol=True, alpha=2.5, seed=3)
@example(m=None, offset=1, n=41, length=2, complex_symbol=False, alpha=1.0, seed=4)
def test_class_split_matches_the_dense_solve(m, offset, n, length, complex_symbol, alpha, seed):
    # a support in r + m Z makes R_n and E_n block-diagonal up to a permutation;
    # the class solve must give the dense eigenvalues of the whole section
    series = _class_series(m, offset if m is None else offset % m, length, complex_symbol, seed)
    for which in ("phi", "conj"):
        r = _dense_r(series, alpha, n, which)
        ev = np.linalg.eigvalsh(r)
        half_max = np.linalg.eigvalsh(r[: n // 2, : n // 2])[-1]
        lo, hi, growth = _range_section(series, alpha, n, which)
        tol = 1e-12 * np.max(np.abs(ev))
        assert abs(lo - ev[0]) <= tol and abs(hi - ev[-1]) <= tol
        assert abs(growth - np.log2(ev[-1] / half_max)) <= 1e-12
    # the hardy cell's spectrum: the phi defect itself, at alpha -1 and at alpha
    for a in (-1.0, alpha):
        want = np.linalg.eigvalsh(defect_matrix(series, a, n, "phi").entries)
        classes = _defect_classes(series, a, n, "phi", np.ones(n))
        got = np.sort(np.concatenate([harness._block_eigenvalues(b) for _, b in classes]))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(want))))


def test_blaschke_decay_at_an_odd_size_matches_dense_sections():
    # at n = 401 the rotation classes are uneven (201 and 200 for z^2 and z f(z^2),
    # 401 singletons for the shift): every range end and growth is that of a dense
    # eigvalsh of the whole R
    n = 401
    for cell in run_scenario(builtin_scenarios()["blaschke_decay"], matrix_size=n).checks:
        _, series = bind_symbol(parse_symbol(cell.symbol), cell.alpha, n)
        for which in ("phi", "conj"):
            r = _dense_r(series, cell.alpha, n, which)
            ev = np.linalg.eigvalsh(r)
            for key, want in ((f"range_min_{which}", ev[0]), (f"range_max_{which}", ev[-1])):
                assert abs(cell.metrics[key] - want) <= 1e-12 * abs(want), (cell.symbol, cell.alpha, key)
            growth = np.log2(ev[-1] / np.linalg.eigvalsh(r[: n // 2, : n // 2])[-1])
            assert abs(cell.metrics[f"growth_{which}"] - growth) <= 1e-12, (cell.symbol, cell.alpha, which)


def test_hardy_degenerate_at_an_odd_size_matches_dense_defects():
    # the hardy cells read class blocks (the shift's in closed form): the rank, the
    # top eigenvalues and the conj defect are those of dense defect_matrix builds
    n = 401
    for cell in run_scenario(builtin_scenarios()["hardy_degenerate"], matrix_size=n).checks:
        m = cell.metrics
        _, series = bind_symbol(parse_symbol(cell.symbol), cell.alpha, n)
        ev = np.linalg.eigvalsh(defect_matrix(series, cell.alpha, n, "phi").entries)[::-1]
        econj = np.max(np.abs(defect_matrix(series, cell.alpha, n, "conj").entries))
        assert cell.status == "pass"
        assert m["rank_count"] == np.sum(ev > 1e-10)
        assert abs(m["top_eigenvalue_dev"] - np.max(np.abs(ev[: m["expected_rank"]] - 1.0))) <= 1e-12
        assert abs(m["econj_max_entry"] - econj) <= 1e-12


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 1.0])
@pytest.mark.parametrize(
    "coeffs",
    [[0.7], [0.0, 1.0], [0.0, 0.0, 0.0, 0.6 + 0.5j], [0.0] * 12 + [0.9], [0.0, 0.0]],
    ids=["r0", "r1", "r3-complex", "r-past-n", "zero"],
)
def test_one_coefficient_sections_are_their_closed_form_diagonal(alpha, coeffs):
    # one nonzero coefficient c_r (or none) gives m = n: the builder returns the
    # diagonal of diag(s) E diag(s) from the weights, with unit scale at the Hardy end
    n = 12
    series = PowerSeriesSymbol(np.array(coeffs, dtype=complex))
    s = np.ones(n) if alpha == -1.0 else 1.0 / np.sqrt(inclusion_eigenvalues(alpha, alpha - 1.0, n - 1))
    for which in ("phi", "conj"):
        want = s[:, None] * defect_matrix(series, alpha, n, which).entries * s
        ((idx, blocks),) = _defect_classes(series, alpha, n, which, s)
        assert idx.tolist() == [[k] for k in range(n)] and blocks.shape == (n, 1, 1)
        np.testing.assert_allclose(np.diag(blocks[:, 0, 0]), want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_shift_range_and_hardy_cells_build_no_dense_section(monkeypatch):
    # the shift's sections are diagonal: its cells read them in closed form
    calls = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return record

    monkeypatch.setattr(operators, "defect_matrix", spy("defect_matrix"))
    monkeypatch.setattr(harness, "defect_matrix", spy("defect_matrix"), raising=False)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh"))
    cells = [("blaschke_decay", a) for a in (-0.5, 0.0, 1.0)] + [("hardy_degenerate", -1.0)]
    for check, alpha in cells:
        cell = run_scenario(Scenario("x", (alpha,), (SHIFT,), (check,))).checks[0]
        assert (cell.status, cell.reason) == ("pass", ""), (check, alpha)
    assert calls == []


def _hardy_cell(spec, size):
    return run_scenario(Scenario("x", (-1.0,), (spec,), ("hardy_degenerate",)), size).checks[0]


@pytest.mark.parametrize("zeros", [(0.5, -0.5), (0.9,), (0.3j, 0.6, -0.2)])
@pytest.mark.parametrize("size", [3, 10, 19, 20, 21, 40, 120])
def test_hardy_truncation_bound_covers_the_top_eigenvalues(zeros, size):
    # E_phi projects onto K_B at alpha -1, so the top deg B eigenvalues of its n section
    # are 1 minus those of the tails' Gram matrix, whose trace is the truncation bound;
    # the cell skips on that bound instead of failing (zeros 0.5, -0.5 failed up to 19)
    spec = BlaschkeSpec(zeros=zeros)
    _, series = bind_symbol(spec, -1.0, size)
    j = np.arange(len(series))
    tau = float(np.sum(np.clip(j - size, 0, None) * np.abs(series.coeffs) ** 2))
    ev = np.sort(np.linalg.eigvalsh(defect_matrix(series, -1.0, size, "phi").entries))[::-1]
    top = ev[: spec.degree]
    assert np.all(1.0 - top <= tau + 1e-14) and np.all(top <= 1.0 + 1e-14)
    cell = _hardy_cell(spec, size)
    if tau >= harness.EXACT_TOL:
        assert cell.status == "skipped" and cell.metrics["truncation_bound"] == pytest.approx(tau, rel=1e-12)
        assert cell.reason.startswith("truncation:") and f"n={size}" in cell.reason
    else:
        assert (cell.status, cell.reason) == ("pass", ""), cell.metrics


def test_hardy_degenerate_skips_a_slow_zero_and_fails_a_wrong_section(monkeypatch):
    # a zero at 0.9 needs more than 120 terms; a section 1e-3 off at size 400 fails
    assert _hardy_cell(BlaschkeSpec(zeros=(0.9,)), 120).status == "skipped"
    spec = BlaschkeSpec(zeros=(0.5, -0.5))
    assert _hardy_cell(spec, 400).status == "pass"
    real = harness._defect_classes
    scaled = lambda *args: [(idx, b * (1.0 + 1e-3)) for idx, b in real(*args)]
    monkeypatch.setattr(harness, "_defect_classes", scaled)
    assert _hardy_cell(spec, 400).status == "fail"


@pytest.mark.parametrize("size", [1023, 1024, 2000])
def test_hardy_truncation_bound_counts_the_coefficients_the_series_dropped(monkeypatch, size):
    # a zero at 0.999 needs about 32000 terms, past the 1024 a series gets by default, so
    # the series stops at or before n + 1 and its own terms past n sum to 0; the section's
    # top eigenvalue is 1 - 0.999^(2n), and the bound must cover that gap
    monkeypatch.setattr(harness, "_defect_classes", lambda *args: pytest.fail("a section was built"))
    _, series = bind_symbol(BlaschkeSpec(zeros=(0.999,)), -1.0, size)
    assert len(series) <= size + 1
    cell = _hardy_cell(BlaschkeSpec(zeros=(0.999,)), size)
    assert cell.status == "skipped" and cell.reason.startswith("truncation:")
    assert cell.metrics["truncation_bound"] >= 0.999 ** (2 * size)


def test_conj_classes_read_the_coefficients_past_the_section():
    # coefficients 0 and 2 inside the 6-section and 7 past it: the phi section
    # reads the first two only (two classes), the conj section all three (one class)
    c = np.zeros(8)
    c[[0, 2, 7]] = (0.3, 0.3, 0.3)
    series = PowerSeriesSymbol(c)
    for which in ("phi", "conj"):
        r = _dense_r(series, 0.0, 6, which)
        lo, hi, _ = _range_section(series, 0.0, 6, which)
        ev = np.linalg.eigvalsh(r)
        assert abs(lo - ev[0]) <= 1e-12 * ev[-1] and abs(hi - ev[-1]) <= 1e-12 * ev[-1]
    assert np.any(_dense_r(series, 0.0, 6, "conj")[1::2, ::2])


@pytest.mark.parametrize("offset", [0, 1])
def test_a_stray_coefficient_off_the_class_makes_one_dense_solve(monkeypatch, offset):
    # the split reads exact zeros: a series in offset + 2Z (as z^2 and z f(z^2) are)
    # solves two classes, and 1e-300 at an index of the other parity gives m = 1
    c = np.zeros(64, dtype=complex)
    c[offset::2] = 0.9 * 0.5 ** np.arange(32)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    n = 40
    _range_section(PowerSeriesSymbol(c.copy()), 0.0, n, "phi")
    assert shapes == [(2, n // 2, n // 2), (2, n // 4, n // 4)]
    shapes.clear()
    c[offset + 5] = 1e-300
    _range_section(PowerSeriesSymbol(c.copy()), 0.0, n, "phi")
    assert shapes == [(n, n), (n // 2, n // 2)]


def test_witness_margin_is_the_thresholded_quantity():
    # the witness is the worst 2x2 principal minor of the coefficient section B
    spec, series = bind_symbol(MonomialSpec(n=2, c=1.0), 0.0, CNP_SECTION)
    series = to_series(series, CNP_SECTION)  # the 8-term exact series, padded as the cell pads it
    scenario = Scenario("x", (0.0,), (spec,), ("cnp_nonmoebius_fail",))
    cell = run_scenario(scenario, matrix_size=_FAST).checks[0]
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


@pytest.mark.parametrize("text, alpha", [("series 0,0.98,0.02", -0.25), ("series 0,0.95,0.02", -0.5)])
def test_section_without_a_failing_pair_certifies_by_a_deeper_witness(text, alpha):
    # no 2x2 principal minor of B fails here, so the witness is psd_test's
    # grow-then-shrink subset, not the passing pair (0, 1)
    scenario = Scenario("x", (alpha,), (parse_symbol(text),), ("cnp_nonmoebius_fail",))
    cell = run_scenario(scenario, matrix_size=_FAST).checks[0]
    assert cell.status == "pass"
    assert cell.metrics["witness_indices"] == [13, 14, 15]
    assert cell.metrics["witness_min_jacobi"] < -WITNESS_TOL


@pytest.mark.parametrize(
    "symbol, alpha, status, witness",
    [
        # the 600-term series has a grid sup of 1.000351, which a sampled
        # admissibility check would refuse; its coefficient section certifies
        (SingularInnerSpec(c=1.0), -0.5, "pass", [3, 4]),
        (SingularInnerSpec(c=1.0), 0.0, "pass", [2, 3]),
        # a constant normalizes to psi = 0, leaving the kernel (1 - z conj(w))^-(2+alpha)
        (parse_symbol("series 0.3"), 0.0, "pass", [0, 2]),
        # no Moebius map moves phi(0) to 0
        (parse_symbol("series 1,0.1"), 0.0, "skipped", None),
    ],
    ids=["singular-(-0.5)", "singular-0", "constant", "phi0-on-circle"],
)
def test_cnp_cells_read_the_normalized_series(symbol, alpha, status, witness):
    scenario = Scenario("x", (alpha,), (symbol,), ("cnp_nonmoebius_fail",))
    cell = run_scenario(scenario, matrix_size=_FAST).checks[0]
    assert cell.status == status
    if witness is None:
        assert cell.reason == "precondition: |phi(0)| < 1 required to move the base point"
    else:
        assert cell.metrics["witness_indices"] == witness
        assert cell.metrics["witness_min_jacobi"] < -WITNESS_TOL


@pytest.mark.parametrize(
    "scenario, passing",
    [
        (builtin_scenarios()["cnp_nonmoebius_fail"], 5),
        (Scenario("singular", (-0.5, 0.0), (SingularInnerSpec(c=1.0),), ("cnp_nonmoebius_fail",)), 2),
    ],
    ids=["bundled", "singular"],
)
def test_passing_cnp_witnesses_are_failing_principal_minors(scenario, passing):
    # a witness names distinct monomial indices below the section order, Jacobi
    # re-verifies it, and by interlacing its least eigenvalue is no lower than B's
    cells = [cell for cell in run_scenario(scenario).checks if cell.status == "pass"]
    assert len(cells) == passing
    for cell in cells:
        m = cell.metrics
        idx = m["witness_indices"]
        assert len(idx) >= 2 and idx == sorted(set(idx)) and 0 <= idx[0] and idx[-1] < m["section"]
        assert m["witness_min_jacobi"] < -WITNESS_TOL
        assert m["min_eigenvalue"] <= m["witness_min_jacobi"] + 1e-12


def test_bundled_cnp_cells_run_no_admissibility_check(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return admissibility_check(*args, **kwargs)

    for owner in (symbols, cnp, harness):
        monkeypatch.setattr(owner, "admissibility_check", spy, raising=False)
    for name in ("cnp_moebius_pass", "cnp_nonmoebius_fail"):
        assert not run_scenario(builtin_scenarios()[name]).failed
    assert calls == []


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    r1=st.floats(0.8, 0.9999),
    t1=st.floats(0.0, 1.0),
    s2=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
    k=st.integers(2, 15),
    alpha=st.floats(-1.0, 0.0, exclude_min=True),
)
@example(r1=0.98, t1=0.0, s2=1.0, t2=0.0, k=2, alpha=-0.25)
@example(r1=0.95, t1=0.0, s2=0.4, t2=0.0, k=2, alpha=-0.5)
def test_a_certified_section_has_a_failing_witness(r1, t1, s2, t2, k, alpha):
    # psi = c1 z + c2 z^k with |c1| + |c2| <= 1, so the symbol is admitted; a
    # witness is a principal minor of B, so by interlacing its least eigenvalue
    # lies between B's and 0
    c = np.zeros(k + 1, dtype=complex)
    c[1] = r1 * np.exp(2j * np.pi * t1)
    c[k] = s2 * (1.0 - r1) * np.exp(2j * np.pi * t2)
    scenario = Scenario("x", (alpha,), (PowerSeriesSymbol(c),), ("cnp_nonmoebius_fail",))
    metrics = run_scenario(scenario, matrix_size=_FAST).checks[0].metrics
    if metrics["certificate"]:
        assert metrics["witness_min_jacobi"] < 0.0
        assert metrics["witness_min_jacobi"] >= metrics["min_eigenvalue"] - 1e-12


def test_run_scenario_fails_fast_on_config_errors():
    scenario = Scenario("x", alpha_list=(0.0,), symbols=(SHIFT,), checks=("boundary_ratio",))
    with pytest.raises(ValueError):
        run_scenario(scenario, matrix_size=DENSE_SIZE_MAX + 1)


def test_reports_are_deterministic():
    scenario = Scenario(
        "det",
        alpha_list=(0.0,),
        symbols=(to_series(MobiusSpec(a=0.4), 80),),
        checks=("cnp_moebius_pass", "boundary_ratio"),
    )
    r1 = run_scenario(scenario, matrix_size=_FAST).to_dict()
    r2 = run_scenario(scenario, matrix_size=_FAST).to_dict()
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
    report = run_scenario(scenario, matrix_size=_FAST)
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
    report = run_scenario(scenario, matrix_size=_FAST)
    path = tmp_path / "report.csv"
    emit_report(report, path, "csv")
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == len(report.checks) == 8
    assert rows[0][:5] == ["check", "alpha", "symbol", "status", "reason"]


def _two_walk_bytes(report: RunReport) -> tuple[str, str]:
    """Reference writer: dataclasses.asdict, then _plain over the copy and over every CSV cell."""
    from dataclasses import asdict, fields

    text = json.dumps(harness._plain(asdict(report)), indent=2, sort_keys=True) + "\n"
    columns = [f.name for f in fields(harness.CheckResult) if f.name != "metrics"]
    keys = sorted({k for r in report.checks for k in r.metrics})
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([*columns, *keys])
    for r in report.checks:
        row = [getattr(r, c) for c in columns]
        for k in keys:
            v = harness._plain(r.metrics.get(k, ""))
            row.append(json.dumps(v) if isinstance(v, list) else v)
        writer.writerow(row)
    return text, buf.getvalue()


def test_reports_are_written_as_the_two_walk_writer_wrote_them(tmp_path):
    # every cell kind of verify all (lists, bools, ints, floats, absent keys), plus
    # metrics that are not yet plain: numpy scalars, an array and a tuple
    scenarios = builtin_scenarios()
    names = ("boundary_ratio", "cnp_nonmoebius_fail", "hardy_degenerate", "inclusion_asymptote")
    checks = [c for name in names for c in run_scenario(scenarios[name], _FAST).checks]
    raw = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True), "a": np.arange(3), "t": (1, 2.5)}
    checks.append(harness.CheckResult("raw", 0.0, "series 0,1", "pass", "", raw))
    report = RunReport(scenario="mixed", config={"matrix_size": _FAST}, checks=checks, started="s", finished="f")
    emit_report(report, tmp_path / "r.json", "json")
    emit_report(report, tmp_path / "r.csv", "csv")
    text, table = _two_walk_bytes(report)
    assert (tmp_path / "r.json").read_bytes() == text.encode()
    assert (tmp_path / "r.csv").read_bytes() == table.encode()


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
