"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload builds its inputs in the constructor (part of ``setup_s``),
runs every operation once per ``run_pass`` call, and judges the outputs of
a pass in ``check``. An operation is one cell (``verify-all``), one scan
(``cnp-scan``) or one public call (``kernel-eval``). ``check`` returns the
number of operations attempted, a list of failure descriptions (an
operation fails if it raised or its output is wrong), and the number of
known failures, which are reported but not counted as failed operations.

The program only ever receives the generated symbols, points and scan
seeds; the benchmark seed itself never reaches it. Timed calls look their
function up on the package at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

import subbergman as sb
from subbergman import KernelSpec, MonomialSpec, cli, jacobi_eigenvalues

HERE = Path(__file__).resolve().parent

WITNESS_TOL = 1e-6  # a failing scan's witness must have a Jacobi eigenvalue below -this
QUADRATURE_TOL = 1e-8  # conj_sub against conj_sub_quadrature, rational symbols, |z|,|w| <= 0.9
QUADRATURE_RADIUS = 0.9
SYMMETRY_TOL = 1e-10  # K(z,w) = conj K(w,z), relative to max(1, |K|)


def _series(text: str, alpha: float):
    """The truncated series the CLI would build for a symbol argument."""
    spec = sb.parse_symbol(text)
    if isinstance(spec, MonomialSpec):
        spec = sb.resolve_monomial(spec, alpha)
    return sb.to_series(spec, sb.default_series_length(spec))


def _run(call):
    try:
        return call()
    except Exception as exc:  # a raising operation is a failed operation, not a crash
        return exc


class VerifyAll:
    """``subbergman verify all`` with the default configuration.

    The product itself: 9 scenarios, 59 cells. The default configuration is
    the workload, so the seed does not change its inputs.
    """

    name = "verify-all"

    def __init__(self, seed: int, workdir: Path):
        del seed
        self.outdir = workdir / "verify-all"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.report = self.outdir / "verify-all.json"
        self.argv = ["verify", "all", "--out", str(self.outdir)]
        cells = json.loads((HERE / "verify_all_cells.json").read_text())
        self.expected = {(c, float(a), s): status for c, a, s, status in cells}

    def run_pass(self):
        with contextlib.suppress(FileNotFoundError):
            self.report.unlink()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return _run(lambda: cli.main(self.argv))

    def check(self, rc):
        if rc != 0:
            failures = [f"verify all returned {rc!r}"]
        else:
            failures = []
        if isinstance(rc, Exception) or not self.report.exists():
            return len(self.expected), failures + ["no report"] * len(self.expected), 0
        seen = {
            (c["check"], float(c["alpha"]), c["symbol"]): c["status"]
            for c in json.loads(self.report.read_text())["checks"]
        }
        for key, status in self.expected.items():
            if seen.get(key) != status:
                failures.append(f"cell {key}: expected {status}, got {seen.get(key)}")
        failures += [f"unexpected cell {key}" for key in seen.keys() - self.expected.keys()]
        attempted = len(self.expected) + len(seen.keys() - self.expected.keys())
        return attempted, failures, 0


class CnpScan:
    """``cnp_scan`` at 60 and 120 points on fixed (symbol, alpha) pairs.

    Passing pairs return after one eigensolve per trial; failing pairs run
    greedy witness pruning in every trial. ``monomial n=2`` at alpha -1.5 is
    scaled, so its admissibility check runs the alpha < -1 Pick branch.
    ``singular c=1`` is refused by ``build_pick`` (its 600-term series has a
    grid sup of 1.000351 > 1 + 1e-6); it is a known failure, reported and
    traced as ``cnp.cnp_scan.errors``.
    """

    name = "cnp-scan"
    TRIALS = 5
    POINTS = (60, 120)
    PAIRS = (
        ("mobius a=0.4", -0.5, "psd_pass"),
        ("mobius a=0.3i", 0.0, "psd_pass"),
        ("monomial n=2", -1.5, "psd_pass"),
        ("monomial n=2 c=1", 0.0, "fail"),
        ("blaschke zeros=0.5,-0.5", -0.5, "fail"),
        ("series 0,1", 1.0, "fail"),
        ("singular c=1", 0.0, "known_failure"),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for text, alpha, expect in self.PAIRS:
            series = _series(text, alpha)
            for n_points in self.POINTS:
                scan_seed = int(rng.integers(0, 2**31))
                self.ops.append((f"{text} alpha={alpha:g} n={n_points}", series, alpha, n_points, scan_seed, expect))

    def run_pass(self):
        return [
            _run(lambda: sb.cnp_scan(series, alpha, n_points=n, n_trials=self.TRIALS, seed=s))
            for _, series, alpha, n, s, _ in self.ops
        ]

    def check(self, outputs):
        attempted, failures, known = 0, [], 0
        for (label, _, _, _, _, expect), out in zip(self.ops, outputs):
            if expect == "known_failure":
                known += isinstance(out, Exception)
                continue
            attempted += 1
            if isinstance(out, Exception):
                failures.append(f"{label}: raised {out!r}")
            elif out.verdict != expect:
                failures.append(f"{label}: verdict {out.verdict}, expected {expect}")
            elif expect == "fail":
                if out.witness is None:
                    failures.append(f"{label}: failing scan without a witness")
                elif jacobi_eigenvalues(out.witness.matrix)[-1] >= -WITNESS_TOL:
                    failures.append(f"{label}: witness does not re-verify")
        return attempted, failures, known


def _polar(rng, radii):
    radii = np.asarray(radii, dtype=float)
    return radii * np.exp(2j * np.pi * rng.uniform(size=radii.shape))


class KernelEval:
    """``eval_kernel(kind="conj_sub")`` single-pair and batched, with cross-checks.

    Single pairs mirror ``kernel eval --z --w`` and sit at |z|, |w| <= 0.9.
    A batch mirrors ``--points``: its first pair sits at the outer radius,
    so every batch settles at the basis size that radius needs, and it
    carries every pair swapped so Hermitian symmetry is checked without
    extra defect builds. Rational symbols are checked against
    ``conj_sub_quadrature`` where |z|, |w| <= 0.9; everything else by
    symmetry. Radii stop at 0.98 (0.95 for ``singular``) for cost.
    """

    name = "kernel-eval"
    SYMBOLS = (("mobius a=0.5", 0.98, True), ("blaschke zeros=0.5,-0.5", 0.98, True), ("singular c=1", 0.95, False))
    ALPHAS = (0.0, 1.0)
    SINGLES = {True: 2, False: 1}
    INNER, OUTER = 2, 3  # batch pairs inside the quadrature radius, and beyond it

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.cases = []
        for text, r_out, rational in self.SYMBOLS:
            for alpha in self.ALPHAS:
                spec = KernelSpec("conj_sub", alpha, _series(text, alpha))
                single = _polar(rng, rng.uniform(0.2, QUADRATURE_RADIUS, (2, self.SINGLES[rational])))
                inner = _polar(rng, rng.uniform(0.1, QUADRATURE_RADIUS, (2, self.INNER)))
                outer = _polar(rng, [r_out, r_out])
                z = np.concatenate([outer[:1], inner[0], _polar(rng, rng.uniform(QUADRATURE_RADIUS, r_out, self.OUTER))])
                w = np.concatenate([outer[1:], inner[1], _polar(rng, rng.uniform(0.1, r_out, self.OUTER))])
                self.cases.append(
                    {
                        "label": f"{text} alpha={alpha:g}",
                        "spec": spec,
                        "rational": rational,
                        "singles": list(zip(single[0], single[1])),
                        "batch": (np.concatenate([z, w]), np.concatenate([w, z])),
                        "inner": (np.abs(z) <= QUADRATURE_RADIUS) & (np.abs(w) <= QUADRATURE_RADIUS),
                    }
                )

    def run_pass(self):
        outputs = []
        for case in self.cases:
            spec = case["spec"]
            out = {"singles": [], "batch": None, "batch_quad": None}
            for z, w in case["singles"]:
                k = _run(lambda: sb.eval_kernel(spec, z, w))
                if case["rational"]:
                    ref = _run(lambda: sb.conj_sub_quadrature(spec.symbol, spec.alpha, z, w))
                else:
                    ref = _run(lambda: sb.eval_kernel(spec, w, z))
                out["singles"].append((k, ref))
            zb, wb = case["batch"]
            out["batch"] = _run(lambda: sb.eval_kernel(spec, zb, wb))
            if case["rational"]:
                half = len(zb) // 2
                zi, wi = zb[:half][case["inner"]], wb[:half][case["inner"]]
                out["batch_quad"] = _run(lambda: sb.conj_sub_quadrature(spec.symbol, spec.alpha, zi, wi))
            outputs.append(out)
        return outputs

    def check(self, outputs):
        attempted, failures = 0, []
        for case, out in zip(self.cases, outputs):
            label, rational = case["label"], case["rational"]
            for i, (k, ref) in enumerate(out["singles"]):
                attempted += 2
                bad = [x for x in (k, ref) if isinstance(x, Exception)]
                failures += [f"{label} single {i}: raised {x!r}" for x in bad]
                if bad:
                    continue
                err = abs(k - ref) if rational else abs(k - np.conj(ref)) / max(1.0, abs(k))
                if err > (QUADRATURE_TOL if rational else SYMMETRY_TOL):
                    failures.append(f"{label} single {i}: mismatch {err:.3e}")
            attempted += 1
            kb = out["batch"]
            if isinstance(kb, Exception):
                failures.append(f"{label} batch: raised {kb!r}")
            else:
                half = len(kb) // 2
                err = np.abs(kb[:half] - np.conj(kb[half:])) / np.maximum(1.0, np.abs(kb[:half]))
                if float(err.max()) > SYMMETRY_TOL:
                    failures.append(f"{label} batch: symmetry error {float(err.max()):.3e}")
            if rational:
                attempted += 1
                q = out["batch_quad"]
                if isinstance(q, Exception):
                    failures.append(f"{label} batch quadrature: raised {q!r}")
                elif not isinstance(kb, Exception):
                    err = float(np.max(np.abs(kb[: len(kb) // 2][case["inner"]] - q)))
                    if err > QUADRATURE_TOL:
                        failures.append(f"{label} batch: quadrature mismatch {err:.3e}")
        return attempted, failures, 0


WORKLOADS = {cls.name: cls for cls in (VerifyAll, CnpScan, KernelEval)}
