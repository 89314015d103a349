"""Complete Nevanlinna-Pick testing of sub-Bergman kernels.

After moving the base point to 0 (normalize), the kernel satisfies
K(z, 0) = 1 and the CNP property is equivalent to positive semidefiniteness
of M = 1 - 1/K on every finite point set, or of the Taylor coefficient
matrix of 1 - 1/K. A failing finite section is a certificate of non-CNP;
passing sections are evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import _check_hermitian
from .scalars import WeightParameter, _hermitian_gram, _psd_within, as_weight, binomial_coeffs
from .scalars import _check_count, _check_disk, _check_tolerance
from .symbols import PowerSeriesSymbol, admissibility_check, normalize

DIVISION_HAZARD_TOL = 1e-12
DEFAULT_PSD_TOL = 1e-9
MIN_SEPARATION = 1e-3
# most work of one scan, in trials x points^3: each trial solves a dense
# points x points eigenproblem
SCAN_WORK_MAX = 2e9


class DivisionHazard(ValueError):
    """|K| fell below DIVISION_HAZARD_TOL at some point pair, so 1 - 1/K is unreliable."""


def sample_points(n: int, rng: np.random.Generator, alpha: WeightParameter | float = 0.0) -> np.ndarray:
    """Pseudo-random disk points spread toward the boundary.

    Radii are drawn area-uniform (r = sqrt(u)) and pushed outward by
    r -> r^(1/(2+alpha_+)), alpha_+ = max(alpha, 0); CNP failures of
    non-Moebius symbols concentrate near the boundary, and larger alpha
    flattens the kernel there. A minimum pairwise separation of
    MIN_SEPARATION, read at call time, is enforced by resampling, so the
    stream of draws (and thus the sample) is a deterministic function of
    the generator state.

    Each round draws the uniforms of the candidates still missing in one
    block, radius then angle per candidate, and accepts them in order; so
    the points and the generator state afterwards are those of drawing one
    candidate at a time. A sample that cannot keep its separation within
    10000 n draws raises ValueError.
    """
    n = _check_count(n, "sample size", 0)
    expo = 1.0 / (2.0 + max(as_weight(alpha).alpha, 0.0))
    pts = np.empty(n, dtype=complex)
    have = 0
    attempts = 0
    while have < n:
        if attempts > 10000 * n:
            raise ValueError(
                f"point sampler failed to keep {n} points {MIN_SEPARATION:g} apart; use fewer points"
            )
        k = n - have
        attempts += k
        u = rng.uniform(size=2 * k)
        # scalar powers: numpy's array ** can differ from them by an ulp
        r = np.array([x**expo for x in np.sqrt(u[0::2]).tolist()])
        cand = r * np.exp(2j * np.pi * u[1::2])
        crowded = np.triu(np.abs(cand[:, None] - cand[None, :]) < MIN_SEPARATION, 1).any()
        if not crowded and not np.any(np.abs(cand[:, None] - pts[:have]) < MIN_SEPARATION):
            pts[have:] = cand
            break
        for z in cand:
            if have and float(np.min(np.abs(pts[:have] - z))) < MIN_SEPARATION:
                continue
            pts[have] = z
            have += 1
    return pts


@dataclass(frozen=True)
class PickMatrix:
    """Hermitian matrix M_ij = 1 - 1/K(z_i, z_j) for the normalized kernel.

    points label the rows: disk points z_i for a sampled Pick matrix, or
    monomial indices for a Taylor coefficient section of 1 - 1/K.
    """

    points: np.ndarray
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.points.setflags(write=False)
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class Witness:
    """A minimal failing subset of rows: their labels, submatrix and minimal eigenvalue."""

    points: np.ndarray
    matrix: np.ndarray
    min_eigenvalue: float


_NOTES = {
    "psd_pass": "pass is sampled evidence, not a proof of the CNP property",
    "fail": "fail is a certificate; the witness submatrix re-verifies independently",
}


@dataclass(frozen=True)
class PickReport:
    """Outcome of PSD testing; fail verdicts certify, pass verdicts are evidence."""

    verdict: str  # psd_pass | fail
    min_eigenvalue: float
    witness: Witness | None
    trials: int
    sampler_seed: int | None
    failed_trials: int = 0
    hazards: tuple[str, ...] = ()

    @property
    def certificate(self) -> bool:
        return self.verdict == "fail"

    @property
    def note(self) -> str:
        return _NOTES[self.verdict]


def _admitted_psi(symbol: PowerSeriesSymbol, a: WeightParameter) -> PowerSeriesSymbol:
    """Per-symbol step: refuse constant or inadmissible symbols, then normalize."""
    if not np.any(np.abs(symbol.coeffs[1:]) > 0):
        raise ValueError("constant symbols have no nondegenerate Pick matrix")
    verdict = admissibility_check(symbol, a, grid=16, tolerance=1e-6)
    if not verdict.admissible:
        raise ValueError(
            f"symbol is not an admissible multiplier (sup estimate {verdict.sup_estimate:.6f})"
        )
    return normalize(symbol).psi


def _pick_on(psi: PowerSeriesSymbol, a: WeightParameter, pts: np.ndarray) -> PickMatrix:
    """Per-point-set step: Pick matrix of the normalized kernel on checked points.

    psi is evaluated once per point. K(z_i, z_j) = (1 - psi(z_i)
    conj(psi(z_j))) (1 - z_i conj(z_j))^-(2+alpha) and then 1 - 1/K are
    formed on the upper triangle i <= j only and mirrored by conjugation
    (scalars._hermitian_gram), so the entries are exactly Hermitian with a
    real diagonal and need no symmetrization. |K(z_j, z_i)| = |K(z_i, z_j)|,
    so testing the triangle tests every pair for a division hazard.
    """

    def one_minus_reciprocal(k: np.ndarray) -> np.ndarray:
        small = np.abs(k) < DIVISION_HAZARD_TOL
        if np.any(small):
            ii, jj = (idx[small] for idx in np.triu_indices(len(pts)))
            pairs = ", ".join(f"({i},{j})" for i, j in zip(ii[:5], jj[:5]))
            raise DivisionHazard(f"division hazard: |K| < {DIVISION_HAZARD_TOL} at point pairs {pairs}")
        return 1.0 - 1.0 / k

    entries = _hermitian_gram(psi.eval(pts), pts, 2.0 + a.alpha, one_minus_reciprocal)
    return PickMatrix(points=pts, entries=entries)


def build_pick(symbol: PowerSeriesSymbol, alpha: WeightParameter | float, points) -> PickMatrix:
    """Pick matrix of the sub-Bergman kernel after base-point normalization.

    The symbol must be a non-constant admissible multiplier; points must be
    distinct and inside the disk. Any point pair where |K| falls below
    1e-12 is a division hazard and raises DivisionHazard.
    """
    a = as_weight(alpha)
    pts = _check_disk(points, "Pick point").astype(complex, copy=False)
    if pts.ndim != 1 or len(pts) < 1:
        raise ValueError("need a nonempty 1-d point list")
    if len(pts) > 1:
        diff = np.abs(pts[:, None] - pts[None, :])
        if float(np.min(diff[~np.eye(len(pts), dtype=bool)])) == 0.0:
            raise ValueError("points must be pairwise distinct")
    return _pick_on(_admitted_psi(symbol, a), a, pts)


def _coefficient_section(psi: PowerSeriesSymbol, alpha: WeightParameter | float, n: int) -> np.ndarray:
    """Taylor coefficients B_ij, i, j < n, of 1 - 1/K(z, w) for the normalized kernel.

    With psi(0) = 0, 1/K = (1 - z conj(w))^(2+alpha) sum_k psi(z)^k conj(psi(w))^k,
    and psi^k starts at z^k, so the section reads only the first n
    coefficients of psi: it is exact for the truncated series and needs no
    sample points. The kernel is CNP exactly when every such section is
    positive semidefinite. A psi shorter than n, or with psi(0) != 0 (above
    normalize's 1e-15 cutoff), raises ValueError.
    """
    c = psi.coeffs
    if len(c) < n or abs(c[0]) >= 1e-15:
        raise ValueError(f"need a series of at least {n} terms with psi(0) = 0")
    powers = np.zeros((n, n), dtype=complex)  # row k: the first n coefficients of psi^k
    powers[0, 0] = 1.0
    for k in range(1, n):
        powers[k] = np.convolve(powers[k - 1], c[:n])[:n]
    gram = powers.T @ powers.conj()
    b = binomial_coeffs(2.0 + as_weight(alpha).alpha, n - 1)
    entries = np.zeros_like(gram)
    entries[0, 0] = 1.0
    for k in range(n):
        # (z conj(w))^k shifts the coefficients k places down the diagonal
        entries[k:, k:] -= b[k] * gram[: n - k, : n - k]
    return (entries + entries.conj().T) / 2.0


def _min_eig(entries: np.ndarray) -> float:
    # eigenvalues only: LAPACK skips the eigenvectors, which no verdict reads
    return float(np.linalg.eigvalsh(entries)[0])


def _worst_pair(entries: np.ndarray) -> tuple[int, int, float]:
    """(i, j, lam) for the 2x2 principal minor with the most negative eigenvalue lam.

    Closed form over all pairs at once; a 1x1 matrix gives (0, 0, inf).
    """
    d = entries.diagonal().real
    pair_min = (d[:, None] + d) / 2.0 - np.hypot((d[:, None] - d) / 2.0, np.abs(entries))
    np.fill_diagonal(pair_min, np.inf)
    i, j = np.unravel_index(np.argmin(pair_min), pair_min.shape)
    return int(i), int(j), float(pair_min[i, j])


def _grow_then_shrink(entries: np.ndarray, vec: np.ndarray, tolerance: float) -> np.ndarray:
    """Mask of the smallest failing prefix by |vec| (>= 2 points), pruned by one deletion pass.

    Each step asks only whether a principal submatrix fails, so it is
    decided by one Cholesky factorization (scalars._psd_within).
    """
    order = np.argsort(-np.abs(vec), kind="stable")  # most involved points first
    m = 2  # the full set can read as passing at rounding level, so stop at n
    while m < len(order) and _psd_within(entries[np.ix_(order[:m], order[:m])], tolerance):
        m += 1
    keep = np.isin(np.arange(len(order)), order[:m])
    for i in order[:m]:
        keep[i] = False
        if keep.sum() < 2 or _psd_within(entries[np.ix_(keep, keep)], tolerance):
            keep[i] = True
    return keep


def psd_test(matrix: PickMatrix, tolerance: float = DEFAULT_PSD_TOL) -> PickReport:
    """PSD verdict with witness extraction.

    Pass iff the minimal eigenvalue is >= -tolerance * max(1, trace). On
    failure the witness is the pair whose 2x2 principal minor has the most
    negative eigenvalue (closed form, all pairs at once), provided that
    minor fails the same trace-scaled threshold. Otherwise the smallest
    failing prefix (>= 2 points, by weight in the minimal eigenvector) is
    pruned by one deletion pass, so the witness has 2 points or, by
    interlacing, no single removal keeps the failure. The witness carries
    the labels of its rows from matrix.points, of which psd_test reads only
    the shape, so a coefficient section is tested like a sampled matrix.

    The verdict and every reported eigenvalue (min_eigenvalue and the
    witness's) come from eigenvalue-only solves; eigenvectors are computed
    once, and only when no pair fails and the prefix search needs their
    order. Each step of that search needs only a fail-or-pass answer, so it
    is one Cholesky factorization of the submatrix shifted by the
    threshold (scalars._psd_within), not an eigensolve. A tolerance outside
    (0, inf), or a matrix that is empty or not square, has a non-finite
    entry, is not Hermitian within operators.HERMITIAN_TOL, or has a
    different number of points raises ValueError before any solve.
    """
    _check_tolerance(tolerance)
    _check_hermitian(matrix.entries)
    if matrix.points.shape != matrix.entries.shape[:1]:
        n = len(matrix.entries)
        raise ValueError(f"{matrix.points.size} points for a Pick matrix of order {n}")
    lam_min = _min_eig(matrix.entries)
    if lam_min >= -tolerance * max(1.0, float(np.trace(matrix.entries).real)):
        return PickReport(
            verdict="psd_pass", min_eigenvalue=lam_min, witness=None, trials=1, sampler_seed=None
        )
    i, j, pair_min = _worst_pair(matrix.entries)
    d = matrix.entries.diagonal().real
    if pair_min < -tolerance * max(1.0, d[i] + d[j]):
        keep = np.isin(np.arange(len(d)), (i, j))
    else:
        vec = np.linalg.eigh(matrix.entries)[1][:, 0]
        keep = _grow_then_shrink(matrix.entries, vec, tolerance)
    sub = matrix.entries[np.ix_(keep, keep)]
    witness = Witness(points=matrix.points[keep], matrix=sub, min_eigenvalue=_min_eig(sub))
    return PickReport(
        verdict="fail",
        min_eigenvalue=lam_min,
        witness=witness,
        trials=1,
        sampler_seed=None,
        failed_trials=1,
    )


def cnp_scan(
    symbol: PowerSeriesSymbol,
    alpha: WeightParameter | float,
    n_points: int = 30,
    n_trials: int = 20,
    seed: int = 7,
    tolerance: float = DEFAULT_PSD_TOL,
) -> PickReport:
    """Repeated Pick tests over seeded pseudo-random point sets.

    The symbol is checked and normalized once per scan. Each trial draws
    its points from a stream seeded by (seed, trial index), so samples and
    verdicts are reproducible. Returns the report of the worst trial,
    annotated with the trial count and any per-trial division hazards. A
    failing trial outranks every passing one (the threshold scales with
    each trial's trace), then the lowest minimal eigenvalue is worst, so a
    failing scan always carries a failing trial's witness. A tolerance
    outside (0, inf), or a scan whose trials x points^3 exceeds
    SCAN_WORK_MAX, is refused before any sampling. A scan in which every
    trial hits a division hazard raises DivisionHazard, a ValueError.
    """
    a = as_weight(alpha)
    n_points = _check_count(n_points, "points per trial", 3)
    n_trials = _check_count(n_trials, "trial count", 1)
    seed = _check_count(seed, "seed", 0)
    _check_tolerance(tolerance)
    if n_trials * float(n_points) ** 3 > SCAN_WORK_MAX:
        raise ValueError(
            f"{n_trials} trial(s) x {n_points}^3 points exceed the scan budget "
            f"SCAN_WORK_MAX = {SCAN_WORK_MAX:g}; use fewer points or trials"
        )
    psi = _admitted_psi(symbol, a)
    worst, worst_rank = None, None
    hazards: list[str] = []
    failed = 0
    for trial in range(n_trials):
        pts = sample_points(n_points, np.random.default_rng([seed, trial]), a)
        try:
            pick = _pick_on(psi, a, pts)
        except DivisionHazard as exc:
            hazards.append(f"trial {trial}: {exc}")
            continue
        report = psd_test(pick, tolerance)
        failed += report.failed_trials
        rank = (report.failed_trials, -report.min_eigenvalue)
        if worst is None or rank > worst_rank:
            worst, worst_rank = report, rank
    if worst is None:
        raise DivisionHazard(f"all {n_trials} trial(s) hit a division hazard; no Pick matrix was testable")
    return PickReport(
        verdict=worst.verdict,
        min_eigenvalue=worst.min_eigenvalue,
        witness=worst.witness,
        trials=n_trials,
        sampler_seed=seed,
        failed_trials=failed,
        hazards=tuple(hazards),
    )
