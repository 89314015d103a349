"""Pick matrix tests: algebraic oracles, witnesses, sampler determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subbergman import cnp
from subbergman.cnp import (
    DivisionHazard,
    PickMatrix,
    build_pick,
    cnp_scan,
    psd_test,
    sample_points,
)
from subbergman.kernels import KernelSpec, eval_kernel
from subbergman.operators import jacobi_eigenvalues
from subbergman.scalars import as_weight, binomial_coeffs
from subbergman.symbols import (
    BlaschkeSpec,
    MobiusSpec,
    MonomialSpec,
    PowerSeriesSymbol,
    bind_symbol,
    default_series_length,
    normalize,
    parse_symbol,
    to_series,
)

SHIFT = PowerSeriesSymbol(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# sampler


def test_sampler_is_deterministic():
    a = sample_points(25, np.random.default_rng([7, 0]))
    b = sample_points(25, np.random.default_rng([7, 0]))
    assert np.array_equal(a, b)
    c = sample_points(25, np.random.default_rng([7, 1]))
    assert not np.array_equal(a, c)


def test_sampler_respects_geometry():
    pts = sample_points(60, np.random.default_rng(5), alpha=1.0)
    assert len(pts) == 60
    assert np.max(np.abs(pts)) < 1
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    assert diff.min() >= cnp.MIN_SEPARATION == 1e-3


def _scalar_sample(n, rng, alpha, min_sep):
    # reference: one candidate per pair of scalar draws, rejected in order
    expo = 1.0 / (2.0 + max(alpha, 0.0))
    pts = []
    while len(pts) < n:
        r = np.sqrt(rng.uniform()) ** expo
        z = r * np.exp(2j * np.pi * rng.uniform())
        if pts and float(np.min(np.abs(np.array(pts) - z))) < min_sep:
            continue
        pts.append(z)
    return np.array(pts)


@pytest.mark.parametrize(
    "n, alpha, min_sep",
    [(3, 0.0, 1e-3), (30, -0.5, 1e-3), (120, 1.0, 1e-3), (400, 0.0, 1e-3)]
    + [(12, 0.5, 0.2), (25, 0.0, 0.2)],  # separations that force rejections
)
def test_block_sampler_is_bit_identical_to_scalar_draws(monkeypatch, n, alpha, min_sep):
    # the sampler reads MIN_SEPARATION when called
    monkeypatch.setattr(cnp, "MIN_SEPARATION", min_sep)
    for seed in range(10):
        rng, ref_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        pts = sample_points(n, rng, alpha)
        assert np.array_equal(pts, _scalar_sample(n, ref_rng, alpha, min_sep))
        # the generator is left where the scalar draws leave it
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sampler_that_cannot_keep_its_separation_raises_value_error(monkeypatch):
    # no two points of the disk are 2.5 apart
    monkeypatch.setattr(cnp, "MIN_SEPARATION", 2.5)
    with pytest.raises(ValueError, match="failed to keep 3 points 2.5 apart"):
        sample_points(3, np.random.default_rng(0))


def test_sampler_pushes_mass_outward_for_large_alpha():
    # the push exponent shrinks with alpha, enriching the boundary
    rng = np.random.default_rng(9)
    r_flat = np.abs(sample_points(400, np.random.default_rng(9), alpha=0.0))
    r_push = np.abs(sample_points(400, np.random.default_rng(9), alpha=4.0))
    assert np.median(r_push) > np.median(r_flat)


# ---------------------------------------------------------------------------
# Pick matrices and PSD verdicts


def test_shift_pick_matrix_is_rank_one():
    # K = 1/(1-z conj(w)) at alpha = 0, so M_ij = z_i conj(z_j)
    pts = 0.9 * sample_points(12, np.random.default_rng(1))
    pick = build_pick(SHIFT, 0.0, pts)
    expected = pts[:, None] * np.conj(pts)[None, :]
    np.testing.assert_allclose(pick.entries, expected, atol=1e-12)
    report = psd_test(pick, 1e-9)
    assert report.verdict == "psd_pass"
    assert report.min_eigenvalue >= -1e-12
    assert not report.certificate


def test_zero_row_at_base_point():
    pts = np.array([0.0, 0.3, -0.2 + 0.4j, 0.5j])
    pick = build_pick(to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 200), 0.0, pts)
    assert np.max(np.abs(pick.entries[0, :])) < 1e-12
    assert np.max(np.abs(pick.entries[:, 0])) < 1e-12


def test_shift_alpha_one_closed_form():
    # K = (1-z conj(w))^-2, so M = 1 - (1-z conj(w))^2
    pts = sample_points(10, np.random.default_rng(2), alpha=1.0)
    pick = build_pick(SHIFT, 1.0, pts)
    x = pts[:, None] * np.conj(pts)[None, :]
    np.testing.assert_allclose(pick.entries, 1.0 - (1.0 - x) ** 2, atol=1e-12)


def test_psd_test_known_indefinite_matrix():
    m = PickMatrix(
        points=np.array([0.1, 0.2]),
        entries=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    )
    report = psd_test(m, 1e-9)
    assert report.verdict == "fail"
    assert abs(report.min_eigenvalue + 1.0) < 1e-14
    assert report.certificate
    assert len(report.witness.points) == 2


def test_witness_is_minimal_and_reverifies():
    report = cnp_scan(
        to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 200), 0.0, n_points=30, n_trials=5, seed=7
    )
    assert report.verdict == "fail"
    w = report.witness
    assert 2 <= len(w.points) <= 30
    # independent eigensolver on the exported witness matrix
    lam = jacobi_eigenvalues(w.matrix)
    assert lam[-1] < -1e-6
    # no single removal keeps the failure (minimality of the greedy prune)
    if len(w.points) > 2:
        for drop in range(len(w.points)):
            keep = [i for i in range(len(w.points)) if i != drop]
            sub = w.matrix[np.ix_(keep, keep)]
            trace = max(1.0, float(np.trace(sub).real))
            assert np.linalg.eigvalsh(sub)[0] >= -1e-9 * trace


def test_witness_is_the_most_negative_pair():
    # a cnp_scan trial (seed 1228061536, trial 2) where the first failing pair
    # of a grow-then-shrink search is barely indefinite (Jacobi minimum -8.0e-7)
    spec = MonomialSpec(n=2, c=1.0)
    series = to_series(spec, default_series_length(spec))
    pts = sample_points(120, np.random.default_rng([1228061536, 2]), 0.0)
    pick = build_pick(series, 0.0, pts)
    report = psd_test(pick)
    assert report.verdict == "fail"
    assert len(report.witness.points) == 2
    assert jacobi_eigenvalues(report.witness.matrix)[-1] <= -1.0
    # no 2x2 principal minor is more negative than the witness
    best = min(
        np.linalg.eigvalsh(pick.entries[np.ix_([i, j], [i, j])])[0]
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    assert abs(report.witness.min_eigenvalue - best) <= 1e-12 * abs(best)


def test_subset_monotonicity_of_passing_matrices():
    pts = sample_points(20, np.random.default_rng(3), alpha=-0.5)
    pick = build_pick(to_series(MobiusSpec(a=0.4), 200), -0.5, pts)
    assert psd_test(pick, 1e-9).verdict == "psd_pass"
    rng = np.random.default_rng(4)
    for _ in range(10):
        size = rng.integers(2, 15)
        idx = rng.choice(20, size=size, replace=False)
        sub = pick.entries[np.ix_(idx, idx)]
        trace = max(1.0, float(np.trace(sub).real))
        assert np.linalg.eigvalsh(sub)[0] >= -1e-9 * trace


def test_verdicts_invariant_under_normalization():
    # the Pick matrices of phi and its normalization are congruent, so
    # verdicts agree seed by seed
    phi = to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 200)
    psi = normalize(phi).psi
    for seed in (7, 8, 9):
        rep_phi = cnp_scan(phi, 0.0, n_points=15, n_trials=1, seed=seed)
        rep_psi = cnp_scan(psi, 0.0, n_points=15, n_trials=1, seed=seed)
        assert rep_phi.verdict == rep_psi.verdict
        assert (rep_phi.min_eigenvalue < 0) == (rep_psi.min_eigenvalue < 0)


def test_scan_is_deterministic():
    phi = to_series(MobiusSpec(a=0.3j), 200)
    r1 = cnp_scan(phi, -0.5, n_points=12, n_trials=4, seed=11)
    r2 = cnp_scan(phi, -0.5, n_points=12, n_trials=4, seed=11)
    assert r1.verdict == r2.verdict
    assert r1.min_eigenvalue == r2.min_eigenvalue
    assert r1.failed_trials == r2.failed_trials


def test_scan_reports_trial_bookkeeping():
    rep = cnp_scan(SHIFT, 1.0, n_points=20, n_trials=8, seed=7)
    assert rep.verdict == "fail"
    assert rep.trials == 8
    assert rep.failed_trials >= 1
    assert rep.sampler_seed == 7
    assert rep.certificate
    assert rep.hazards == ()


def test_failing_trial_outranks_a_lower_passing_one(monkeypatch):
    # A passes at tol 1e-9 (threshold 1e-9 * trace ~ 9e-8) with the lower lambda;
    # B fails (trace 0.6, threshold 1e-9). The scan must report B and its witness.
    a = np.diag([-2e-9] + [10.0] * 9).astype(complex)
    b = np.diag([-1.5e-9, 0.3, 0.3]).astype(complex)
    trials = iter([a, b])

    def pick_on(psi, alpha, pts):
        entries = next(trials)
        return PickMatrix(points=np.linspace(0.1, 0.5, len(entries)).astype(complex), entries=entries)

    monkeypatch.setattr(cnp, "_pick_on", pick_on)
    rep = cnp_scan(SHIFT, 0.0, n_points=3, n_trials=2, seed=1, tolerance=1e-9)
    assert rep.verdict == "fail"
    assert rep.failed_trials == 1
    assert rep.min_eigenvalue == -1.5e-9
    assert rep.certificate
    assert rep.note.startswith("fail is a certificate")
    assert rep.witness is not None
    assert rep.witness.min_eigenvalue == -1.5e-9
    assert len(rep.witness.points) == 2


def test_certificate_and_note_follow_the_verdict():
    rep = psd_test(build_pick(SHIFT, 0.0, [0.1, 0.2j, -0.3]))
    assert rep.verdict == "psd_pass"
    assert not rep.certificate
    assert "evidence" in rep.note
    with pytest.raises(AttributeError):
        rep.certificate = True
    with pytest.raises(AttributeError):
        rep.note = "certified"
    with pytest.raises(TypeError):
        cnp.PickReport("fail", -1.0, None, 1, None, certificate=False)


# ---------------------------------------------------------------------------
# coefficient sections of 1 - 1/K

SECTION_SYMBOLS = [
    "mobius a=0.4",
    "blaschke zeros=0.5,-0.5",
    "blaschke zeros=0.5,-0.5,0.2i",
    "monomial n=2 c=1",
    "series 0.2,0.5,0.1",
]


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize("text", SECTION_SYMBOLS)
def test_coefficient_section_sums_to_the_pick_matrix(text, alpha):
    # sum_ij B_ij z^i conj(w)^j is 1 - 1/K; at |z| <= 0.3 the terms past n = 48 are below 1e-24
    n = 48
    # an exact series is bound at its own length; pad it to the section
    _, series = bind_symbol(parse_symbol(text), alpha, n)
    series = to_series(series, max(len(series), n))
    rng = np.random.default_rng(3)
    pts = 0.3 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
    b = cnp._coefficient_section(normalize(series).psi, alpha, n)
    powers = pts[:, None] ** np.arange(n)
    summed = powers @ b @ powers.conj().T
    assert np.max(np.abs(summed - build_pick(series, alpha, pts).entries)) < 1e-12


@pytest.mark.parametrize("alpha", [-1.5, -0.5, 0.0, 1.0, 2.5])
def test_coefficient_section_of_a_rotation_is_diagonal(alpha):
    # psi = zeta z: 1/K = (1 - t)^(1+alpha) with t = z conj(w), so B = diag of 1 - (1 - t)^(1+alpha)
    n = 16
    psi = PowerSeriesSymbol(np.r_[0.0, np.exp(0.7j), np.zeros(n - 2)])
    want = -binomial_coeffs(1.0 + alpha, n - 1)
    want[0] += 1.0
    assert np.max(np.abs(cnp._coefficient_section(psi, alpha, n) - np.diag(want))) < 1e-14


@pytest.mark.parametrize("alpha", [-0.5, 1.0])
@pytest.mark.parametrize("text", SECTION_SYMBOLS)
def test_half_section_is_the_top_left_block(text, alpha):
    n = 32
    _, series = bind_symbol(parse_symbol(text), alpha, n)
    series = to_series(series, max(len(series), n))
    psi = normalize(series).psi
    b = cnp._coefficient_section(psi, alpha, n)
    half = cnp._coefficient_section(psi, alpha, n // 2)
    np.testing.assert_allclose(half, b[: n // 2, : n // 2], rtol=0, atol=1e-14)


def test_coefficient_section_refuses_short_or_unnormalized_series():
    with pytest.raises(ValueError, match="at least 16 terms"):
        cnp._coefficient_section(to_series(SHIFT, 15), 0.0, 16)
    with pytest.raises(ValueError, match="psi\\(0\\) = 0"):
        cnp._coefficient_section(to_series(PowerSeriesSymbol(np.array([0.5, 0.5])), 16), 0.0, 16)


_unit_coeff = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    tail=st.lists(_unit_coeff, min_size=1, max_size=24),
    alpha=st.floats(-2.0, 3.0, exclude_min=True),
    cut=st.integers(1, 24),
)
def test_coefficient_section_is_hermitian_with_a_zero_first_row(tail, alpha, cut):
    # K(z, 0) = 1 makes row and column 0 of 1 - 1/K vanish; both facts hold bit for bit
    psi = PowerSeriesSymbol(np.array([0.0, *tail]))
    n = min(cut, len(psi))
    b = cnp._coefficient_section(psi, alpha, n)
    assert np.array_equal(b, b.conj().T)
    assert not np.any(b[0]) and not np.any(b[:, 0])


# ---------------------------------------------------------------------------
# Pick builds on the upper triangle

# the admitted (symbol, alpha, scan verdict) pairs of the cnp-scan benchmark workload
SCAN_PAIRS = [
    ("mobius a=0.4", -0.5, "psd_pass"),
    ("mobius a=0.3i", 0.0, "psd_pass"),
    ("monomial n=2", -1.5, "psd_pass"),
    ("monomial n=2 c=1", 0.0, "fail"),
    ("blaschke zeros=0.5,-0.5", -0.5, "fail"),
    ("series 0,1", 1.0, "fail"),
]


def _pick_reference(psi, alpha, pts):
    """Reference Pick entries: K on the full outer product, 1 - 1/K, averaged with its conjugate transpose."""
    k = eval_kernel(KernelSpec("sub", alpha, psi), pts[:, None], pts[None, :])
    m = 1.0 - 1.0 / k
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("n_points", [60, 120])
@pytest.mark.parametrize("text, alpha, verdict", SCAN_PAIRS)
def test_pick_build_is_hermitian_and_matches_the_outer_product(text, alpha, verdict, n_points):
    _, series = bind_symbol(parse_symbol(text), alpha)
    a = as_weight(alpha)
    psi = cnp._admitted_psi(series, a)
    for trial in range(2):
        pts = sample_points(n_points, np.random.default_rng([5, trial]), a)
        m = cnp._pick_on(psi, a, pts).entries
        assert np.array_equal(m, m.conj().T)
        assert np.all(m.diagonal().imag == 0.0)
        ref = _pick_reference(psi, a, pts)
        assert np.all(np.abs(m - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(build_pick(series, a, pts).entries, m)
    rep = cnp_scan(series, a, n_points=n_points, n_trials=2, seed=11)
    assert rep.verdict == verdict
    assert (rep.witness is not None) == (verdict == "fail")


# ---------------------------------------------------------------------------
# validation


def test_build_pick_rejects_bad_inputs():
    phi = to_series(MobiusSpec(a=0.4), 100)
    with pytest.raises(ValueError):
        build_pick(phi, 0.0, [])
    with pytest.raises(ValueError):
        build_pick(phi, 0.0, [0.5, 1.0])  # boundary point
    with pytest.raises(ValueError):
        build_pick(phi, 0.0, [0.5, 0.5])  # duplicates
    with pytest.raises(ValueError):
        build_pick(PowerSeriesSymbol(np.array([0.5])), 0.0, [0.1, 0.2])  # constant
    with pytest.raises(ValueError):
        build_pick(PowerSeriesSymbol(np.array([0.0, 1.4])), 0.0, [0.1, 0.2])  # inadmissible


def test_scan_propagates_structural_errors():
    with pytest.raises(ValueError):
        cnp_scan(PowerSeriesSymbol(np.array([0.5])), 0.0, n_points=5, n_trials=2, seed=1)
    with pytest.raises(ValueError):
        cnp_scan(SHIFT, 0.0, n_points=2, n_trials=2, seed=1)
    with pytest.raises(ValueError):
        cnp_scan(SHIFT, 0.0, n_points=5, n_trials=0, seed=1)


def test_psd_test_requires_positive_tolerance():
    pts = np.array([0.1, 0.2])
    pick = build_pick(SHIFT, 0.0, pts)
    for tolerance in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            psd_test(pick, tolerance)


def _asymmetric():
    entries = np.eye(2, dtype=complex)
    entries[0, 1] = 2.0  # LAPACK reads the lower triangle only, where the matrix is I
    return entries


@pytest.mark.parametrize(
    "entries, message",
    [
        (np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex), "finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex), "finite"),
        (_asymmetric(), "not Hermitian"),
        (np.ones((2, 3), dtype=complex), "square"),
        (np.eye(3, dtype=complex), "2 points for a Pick matrix of order 3"),
    ],
    ids=["nan", "inf", "asymmetric", "non-square", "points"],
)
def test_psd_test_refuses_bad_entries_before_any_solve(monkeypatch, entries, message):
    values = _counting(monkeypatch, np.linalg, "eigvalsh")
    vectors = _counting(monkeypatch, np.linalg, "eigh")
    with pytest.raises(ValueError, match=message):
        psd_test(PickMatrix(points=np.array([0.1, 0.2]), entries=entries))
    assert values == vectors == []


def test_build_pick_raises_typed_division_hazard(monkeypatch):
    # every |K| is below an absurdly large hazard threshold
    monkeypatch.setattr(cnp, "DIVISION_HAZARD_TOL", 1e6)
    with pytest.raises(DivisionHazard, match="division hazard") as info:
        build_pick(SHIFT, 0.0, [0.1, 0.2])
    assert isinstance(info.value, ValueError)


def test_scan_records_hazards_and_propagates_other_errors(monkeypatch):
    # scans build each trial's matrix with the per-point-set step, not build_pick
    real_pick_on = cnp._pick_on
    calls = []

    def hazard_on_first_trial(psi, alpha, points):
        calls.append(len(points))
        if len(calls) == 1:
            raise DivisionHazard("division hazard: forced")
        return real_pick_on(psi, alpha, points)

    monkeypatch.setattr(cnp, "_pick_on", hazard_on_first_trial)
    rep = cnp_scan(SHIFT, 1.0, n_points=8, n_trials=3, seed=7)
    assert rep.hazards == ("trial 0: division hazard: forced",)
    assert rep.trials == 3 and len(calls) == 3

    def other_error(psi, alpha, points):
        # a message naming a hazard must not turn a plain ValueError into one
        raise ValueError("not a division hazard")

    monkeypatch.setattr(cnp, "_pick_on", other_error)
    with pytest.raises(ValueError, match="not a division hazard"):
        cnp_scan(SHIFT, 1.0, n_points=8, n_trials=3, seed=7)


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_scan_checks_and_normalizes_the_symbol_once(monkeypatch):
    checks = _counting(monkeypatch, cnp, "admissibility_check")
    norms = _counting(monkeypatch, cnp, "normalize")
    rep = cnp_scan(to_series(BlaschkeSpec(zeros=(0.5, -0.5)), 200), 0.0, n_points=10, n_trials=5)
    assert rep.trials == 5
    assert len(checks) == 1
    assert len(norms) == 1


def test_scan_refuses_bad_tolerance_before_any_compute(monkeypatch):
    checks = _counting(monkeypatch, cnp, "admissibility_check")
    for tolerance in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            cnp_scan(SHIFT, 0.0, n_points=5, n_trials=2, seed=1, tolerance=tolerance)
    assert checks == []


def test_three_point_witness_is_found_exactly():
    # every 2x2 minor is PSD (1 - 0.36 > 0); the {1, 3, 4} block has eigenvalue -0.2
    entries = np.eye(6, dtype=complex)
    for i in (1, 3, 4):
        for j in (1, 3, 4):
            if i != j:
                entries[i, j] = -0.6
    pts = np.linspace(0.1, 0.6, 6).astype(complex)
    m = PickMatrix(points=pts, entries=entries)
    report = psd_test(m, 1e-9)
    assert report.verdict == "fail"
    assert np.array_equal(report.witness.points, pts[[1, 3, 4]])
    assert abs(report.witness.min_eigenvalue + 0.2) < 1e-12


def test_witness_search_eigensolve_budget(monkeypatch):
    pick = build_pick(SHIFT, 1.0, sample_points(120, np.random.default_rng([7, 0]), 1.0))
    calls = _counting(monkeypatch, np.linalg, "eigh")
    report = psd_test(pick)
    assert report.verdict == "fail"
    assert len(report.witness.points) == 2
    assert len(calls) <= 4


def test_psd_test_solves_for_eigenvectors_only_to_order_a_prefix(monkeypatch):
    passing = build_pick(
        to_series(MobiusSpec(a=0.4), 200), -0.5, sample_points(60, np.random.default_rng(3), -0.5)
    )
    pair_failing = build_pick(SHIFT, 1.0, sample_points(120, np.random.default_rng([7, 0]), 1.0))
    spread = np.eye(6, dtype=complex)  # every pair passes; {1, 3, 4} fails
    spread[np.ix_([1, 3, 4], [1, 3, 4])] -= 0.6 * (1.0 - np.eye(3))
    spread_failing = PickMatrix(points=np.linspace(0.1, 0.6, 6).astype(complex), entries=spread)
    for pick, verdict, eigh_calls in (
        (passing, "psd_pass", 0),
        (pair_failing, "fail", 0),
        (spread_failing, "fail", 1),
    ):
        calls = _counting(monkeypatch, np.linalg, "eigh")
        report = psd_test(pick)
        assert report.verdict == verdict
        assert len(calls) == eigh_calls
        monkeypatch.undo()


def _psd_test_by_eigh(entries, tolerance):
    """psd_test by full eigendecompositions: verdict, min eigenvalue, witness mask, its min eigenvalue."""

    def min_eig(m):
        return float(np.linalg.eigh(m)[0][0])

    def fails(m):
        return min_eig(m) < -tolerance * max(1.0, float(np.trace(m).real))

    lam, vec = np.linalg.eigh(entries)
    if not fails(entries):
        return "psd_pass", float(lam[0]), None, None
    d = entries.diagonal().real
    pair_min = (d[:, None] + d) / 2.0 - np.hypot((d[:, None] - d) / 2.0, np.abs(entries))
    np.fill_diagonal(pair_min, np.inf)
    i, j = np.unravel_index(np.argmin(pair_min), pair_min.shape)
    keep = np.isin(np.arange(len(d)), (i, j))
    if not pair_min[i, j] < -tolerance * max(1.0, d[i] + d[j]):
        order = np.argsort(-np.abs(vec[:, 0]), kind="stable")
        m = 2
        while m < len(order) and not fails(entries[np.ix_(order[:m], order[:m])]):
            m += 1
        keep = np.isin(np.arange(len(d)), order[:m])
        for k in order[:m]:
            keep[k] = False
            if keep.sum() < 2 or not fails(entries[np.ix_(keep, keep)]):
                keep[k] = True
    return "fail", float(lam[0]), keep, min_eig(entries[np.ix_(keep, keep)])


def _test_matrix(kind, n, seed):
    """A Hermitian matrix that passes, fails by a 2x2 minor, or fails only on a larger block."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = b[:, : rng.integers(1, n + 1)]
    m = gram @ gram.conj().T / n  # PSD, often singular
    if kind == "pair":
        i, j = rng.choice(n, 2, replace=False)
        phase = np.exp(2j * np.pi * rng.uniform())
        m[i, j] = rng.uniform(1.2, 3.0) * np.sqrt(m[i, i].real * m[j, j].real) * phase
        m[j, i] = np.conj(m[i, j])
    elif kind == "spread":
        # (1 + rho) I - rho x x* on k points: pairs have eigenvalues 1 +- rho > 0,
        # the block has 1 + rho - k rho < 0; block-diagonal with the PSD rest
        k = int(rng.integers(3, n + 1))
        rho = rng.uniform(1.2 / (k - 1), 0.9)
        x = np.exp(2j * np.pi * rng.uniform(size=k))
        m = np.zeros((n, n), dtype=complex)
        m[:k, :k] = (1.0 + rho) * np.eye(k) - rho * np.outer(x, x.conj())
        m[k:, k:] = (gram @ gram.conj().T / n)[k:, k:]
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
    return (m + m.conj().T) / 2.0


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["pass", "pair", "spread"]),
    n=st.integers(3, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_psd_test_matches_the_eigh_reference(kind, n, seed):
    entries = _test_matrix(kind, n, seed)
    pts = np.linspace(0.05, 0.9, n).astype(complex)
    report = psd_test(PickMatrix(points=pts, entries=entries))
    verdict, lam_min, keep, witness_min = _psd_test_by_eigh(entries, cnp.DEFAULT_PSD_TOL)
    scale = 1e-12 * max(1.0, float(np.trace(entries).real))
    assert report.verdict == verdict == ("psd_pass" if kind == "pass" else "fail")
    assert abs(report.min_eigenvalue - lam_min) <= scale
    if kind == "pass":
        assert report.witness is None
        return
    assert np.array_equal(report.witness.points, pts[keep])
    assert abs(report.witness.min_eigenvalue - witness_min) <= scale
    assert (len(report.witness.points) == 2) == (kind == "pair")
