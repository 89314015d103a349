"""CLI tests, driving `main(argv)` directly and checking exit codes and files."""

import csv
import inspect
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from subbergman import cli, cnp, harness, kernels, operators
from subbergman.cli import main
from subbergman.harness import Scenario, run_scenario
from subbergman.kernels import CONJ_SUB_VALUE_TOL, conj_sub_quadrature
from subbergman.symbols import bind_symbol, parse_symbol


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# kernel eval


def test_kernel_eval_single_point(capsys):
    rc = main(
        ["kernel", "eval", "--kind", "bergman", "--alpha", "0", "--z", "0.3", "--w", "0.2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    fields = dict(tok.split("=") for tok in out.split())
    expected = 1.0 / (1.0 - 0.3 * 0.2) ** 2
    assert float(fields["re"]) == pytest.approx(expected, rel=1e-12)
    assert float(fields["im"]) == pytest.approx(0.0, abs=1e-15)


def test_kernel_eval_sub_needs_symbol(capsys):
    rc = main(["kernel", "eval", "--kind", "sub", "--alpha", "0", "--z", "0.3", "--w", "0.2"])
    assert rc == 2
    assert "requires --symbol" in capsys.readouterr().err


def test_kernel_eval_batch(tmp_path, capsys):
    points = tmp_path / "points.csv"
    with points.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_re", "z_im", "w_re", "w_im"])
        writer.writerow([0.3, 0.1, 0.2, -0.1])
        writer.writerow([0.0, 0.0, 0.5, 0.0])
    out = tmp_path / "values.csv"
    rc = main(
        [
            "kernel",
            "eval",
            "--kind",
            "sub",
            "--alpha",
            "0",
            "--symbol",
            "mobius a=0.5",
            "--points",
            str(points),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == ["z_re", "z_im", "w_re", "w_im", "k_re", "k_im"]
    assert len(rows) == 3
    # phi(0) = -1/2, so K(0, w) = 1 - phi(0) conj(phi(w)) with phi(w) real here
    w = 0.5
    phi_w = (0.5 - w) / (1 - 0.5 * w)
    expected = 1.0 + 0.5 * phi_w
    assert float(rows[2][4]) == pytest.approx(expected, rel=1e-12)
    assert "wrote 2 kernel values" in capsys.readouterr().out


def test_kernel_eval_batch_rejects_missing_header(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("x,y\n1,2\n")
    rc = main(
        [
            "kernel",
            "eval",
            "--kind",
            "bergman",
            "--alpha",
            "0",
            "--points",
            str(points),
            "--out",
            str(tmp_path / "o.csv"),
        ]
    )
    assert rc == 2
    assert "z_re" in capsys.readouterr().err


def test_kernel_eval_batch_short_row_exits_2(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("z_re,z_im,w_re,w_im\n0.1,0.2,0.3,0\n0.1,0.2\n")
    rc = main(
        [
            "kernel",
            "eval",
            "--kind",
            "bergman",
            "--alpha",
            "0",
            "--points",
            str(points),
            "--out",
            str(tmp_path / "o.csv"),
        ]
    )
    assert rc == 2
    assert "row 3" in capsys.readouterr().err


def _kernel_fields(out):
    return dict(tok.split("=") for tok in out.split())


def test_kernel_eval_conj_sub_near_the_boundary_settles(capsys):
    # singular c=1 at |z| = |w| = 0.999 needs n = 37721, within the work budget
    args = ["kernel", "eval", "--kind", "conj_sub", "--alpha", "0", "--symbol", "singular c=1"]
    assert main([*args, "--z", "0.999", "--w", "0.999i"]) == 0
    kzw = _kernel_fields(capsys.readouterr().out)
    assert main([*args, "--z", "0.999i", "--w", "0.999"]) == 0
    kwz = _kernel_fields(capsys.readouterr().out)
    assert int(kzw["basis"]) == int(kwz["basis"]) > 3200
    assert 0 < float(kzw["bound"]) <= 1e-8
    k = complex(float(kzw["re"]), float(kzw["im"]))
    assert abs(k - complex(float(kwz["re"]), -float(kwz["im"]))) <= 1e-10 * max(1.0, abs(k))


def test_kernel_eval_conj_sub_single_point_matches_the_quadrature(capsys):
    argv = ["kernel", "eval", "--kind", "conj_sub", "--alpha", "0", "--symbol", "mobius a=0.5"]
    assert main([*argv, "--z", "0.3", "--w", "0.2+0.1i"]) == 0
    fields = _kernel_fields(capsys.readouterr().out)
    _, series = bind_symbol(parse_symbol("mobius a=0.5"), 0.0)
    want = conj_sub_quadrature(series, 0.0, 0.3, 0.2 + 0.1j)
    assert abs(complex(float(fields["re"]), float(fields["im"])) - want) <= CONJ_SUB_VALUE_TOL


def test_kernel_eval_conj_sub_over_the_work_budget_exits_2(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("defect_form ran for a request over the budget")

    monkeypatch.setattr(operators, "_defect_form", refuse)
    rc = main(
        [
            "kernel",
            "eval",
            "--kind",
            "conj_sub",
            "--alpha",
            "0",
            "--symbol",
            "singular c=1",
            "--z",
            "0.999999999",
            "--w",
            "0.999i",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "work budget 5e+07" in err and "radius 0.999999999" in err and "n = " in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.1+nani", "0.1-infi"])
@pytest.mark.parametrize("kind", ["bergman", "sub", "conj_sub"])
@pytest.mark.parametrize("which", ["--z", "--w"])
def test_kernel_eval_non_finite_point_exits_2(kind, value, which, capsys):
    points = {"--z": "0.2", "--w": "0.1i", which: value}
    rc = main(
        ["kernel", "eval", "--kind", kind, "--alpha", "0", "--symbol", "mobius a=0.5"]
        + [f"{flag}={text}" for flag, text in points.items()]
    )
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args", [["--kind", "bergman", "--alpha", "1e300"], ["--kind", "sub", "--alpha", "1e6", "--symbol", "series 0,1"]]
)
def test_kernel_eval_overflowing_value_exits_2(args, capsys):
    rc = main(["kernel", "eval", *args, "--z", "0.1", "--w", "0.2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "overflows" in captured.err and "RuntimeWarning" not in captured.err


def test_kernel_eval_conj_sub_empty_batch(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("defect_form ran for an empty batch")

    monkeypatch.setattr(operators, "_defect_form", refuse)
    points = tmp_path / "points.csv"
    points.write_text("z_re,z_im,w_re,w_im\n")
    out = tmp_path / "values.csv"
    rc = main(
        ["kernel", "eval", "--kind", "conj_sub", "--alpha", "0", "--symbol", "mobius a=0.5"]
        + ["--points", str(points), "--out", str(out)]
    )
    assert rc == 0
    assert _read_csv(out) == [["z_re", "z_im", "w_re", "w_im", "k_re", "k_im"]]
    assert "wrote 0 kernel values" in capsys.readouterr().out


def test_kernel_eval_conj_sub_batch_reports_its_truncation(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("z_re,z_im,w_re,w_im\n0.3,0.1,0.9,0\n0.5,0,0.2,0.2\n")
    symbol = "mobius a=0.5"
    rc = main(
        ["kernel", "eval", "--kind", "conj_sub", "--alpha", "0", "--symbol", symbol]
        + ["--points", str(points), "--out", str(tmp_path / "values.csv")]
    )
    assert rc == 0
    line = capsys.readouterr().out
    assert "wrote 2 kernel values" in line
    # the batch is bounded at its largest |z| and |w|: the single pair at
    # those radii reports the same truncation
    rc = main(
        ["kernel", "eval", "--kind", "conj_sub", "--alpha", "0", "--symbol", symbol]
        + ["--z", "0.5", "--w", "0.9"]
    )
    assert rc == 0
    single = _kernel_fields(capsys.readouterr().out)
    assert f"basis={single['basis']} bound={single['bound']}" in line


# ---------------------------------------------------------------------------
# cnp test


def test_cnp_test_pass_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "cnp",
            "test",
            "--alpha",
            "0",
            "--symbol",
            "mobius a=0.4",
            "--points",
            "12",
            "--trials",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["verdict"] == "psd_pass"
    assert payload["failed_trials"] == 0
    assert payload["witness"] is None
    assert not (tmp_path / "witness.csv").exists()
    assert "verdict=psd_pass" in capsys.readouterr().out


def test_cnp_test_fail_writes_witness(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "cnp",
            "test",
            "--alpha",
            "0",
            "--symbol",
            "monomial n=2 c=1",
            "--points",
            "12",
            "--trials",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail"
    assert payload["min_eigenvalue"] < -1e-6
    assert payload["witness"]["size"] >= 2
    rows = _read_csv(tmp_path / "witness.csv")
    k = payload["witness"]["size"]
    assert rows[0][:2] == ["z_re", "z_im"]
    assert len(rows) == k + 1
    assert len(rows[0]) == 2 + 2 * k
    # the stored witness matrix must itself be indefinite
    m = np.empty((k, k), dtype=complex)
    for i in range(k):
        vals = [float(v) for v in rows[i + 1][2:]]
        m[i] = [complex(vals[2 * j], vals[2 * j + 1]) for j in range(k)]
    assert np.linalg.eigvalsh(m).min() < -1e-6
    assert "witness written" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["50", "100", "500"])
def test_cnp_test_at_a_large_alpha_fails_with_a_witness_that_reverifies(tmp_path, alpha):
    # the normalized Moebius kernel (1 - z conj(w))^-(1+alpha) is CNP only for alpha <= 0;
    # its 1/K-form Pick entries stay finite where K itself under- or overflows
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cnp", "test", "--alpha", alpha, "--symbol", "mobius a=0.5", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail" and payload["hazards"] == []
    rows = _read_csv(tmp_path / "witness.csv")
    k = payload["witness"]["size"]
    m = np.array([[complex(float(r[2 + 2 * j]), float(r[3 + 2 * j])) for j in range(k)] for r in rows[1:]])
    assert np.linalg.eigvalsh(m).min() < -1e-6


@pytest.mark.parametrize("alpha", ["2e3", "1e300"])
def test_cnp_test_at_a_huge_alpha_exits_2_naming_alpha_without_warnings(tmp_path, capsys, alpha):
    # past alpha about 1022 (1 - z conj(w))^(2+alpha) overflows in the Pick build;
    # at 1e300 every sampled radius rounds to 1
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise instead of exiting 2
        assert main(["cnp", "test", "--alpha", alpha, "--symbol", "mobius a=0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"alpha {float(alpha):g}" in err and "evaluation point" not in err
    assert not out.exists()


def test_cnp_test_bad_symbol_exits_2(capsys):
    rc = main(["cnp", "test", "--alpha", "0", "--symbol", "mobius a=1.5", "--out", "x.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cnp_test_monomial_past_the_degree_cap_exits_2_before_building(monkeypatch, capsys):
    # at degree 10^6 the series build and the scan did not finish in 20 s
    def refuse(*args):
        raise AssertionError("no series may be built past MONOMIAL_DEGREE_MAX")

    monkeypatch.setattr(cli, "bind_symbol", refuse)
    rc = main(["cnp", "test", "--alpha", "-1.5", "--symbol", "monomial n=1000000"])
    assert rc == 2
    assert "monomial degree must be an integer in [1, 10000]" in capsys.readouterr().err


def test_cnp_test_over_the_scan_budget_exits_2_before_sampling(monkeypatch, capsys):
    # 5000 points x 20 trials: dense 5000 x 5000 eigenproblems would take minutes
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized scan must be refused before any sampling")

    monkeypatch.setattr(cnp, "_admitted_psi", refuse)
    monkeypatch.setattr(cnp, "sample_points", refuse)
    start = time.perf_counter()
    rc = main(["cnp", "test", "--alpha", "0", "--symbol", "mobius a=0.4", "--points", "5000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "SCAN_WORK_MAX" in capsys.readouterr().err


def test_cnp_test_with_a_refused_pick_build_exits_2(monkeypatch, tmp_path, capsys):
    def refuse(psi, alpha, points, tri):
        raise ValueError("refused by the pick build")

    monkeypatch.setattr(cnp, "_pick_on", refuse)
    out = tmp_path / "r.json"
    argv = ["cnp", "test", "--alpha", "0", "--symbol", "mobius a=0.4", "--trials", "3", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: refused by the pick build")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_cnp_test_bad_tolerance_exits_2_before_sampling(monkeypatch, tmp_path, capsys, tol):
    # a nan tolerance used to fail every trial of a CNP kernel, an inf one to pass anything
    def refuse(*args, **kwargs):
        raise AssertionError("a bad tolerance must be refused before any sampling")

    monkeypatch.setattr(cnp, "_admitted_psi", refuse)
    monkeypatch.setattr(cnp, "sample_points", refuse)
    out = tmp_path / "r.json"
    argv = ["cnp", "test", "--alpha", "0", "--symbol", "mobius a=0.4", "--tol", tol, "--out", str(out)]
    assert main(argv) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "witness.csv").exists()


# ---------------------------------------------------------------------------
# toeplitz build / defect spectrum / berezin


def test_toeplitz_build_csv(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(
        ["toeplitz", "build", "--alpha", "1", "--symbol", "series 0,1", "--size", "5", "--out", str(out)]
    )
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0][:4] == ["c0_re", "c0_im", "c1_re", "c1_im"]
    assert len(rows) == 6
    # subdiagonal entry t[1, 0] = sqrt(w_0 / w_1) at alpha = 1: w = (1, 3, ...)
    assert float(rows[2][0]) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)
    assert float(rows[2][2]) == 0.0


def test_defect_spectrum_json(tmp_path, capsys):
    out = tmp_path / "spec.json"
    rc = main(
        [
            "defect",
            "spectrum",
            "--which",
            "conj",
            "--alpha",
            "0",
            "--symbol",
            "series 0,1",
            "--size",
            "120",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["which"] == "conj"
    assert len(payload["eigenvalues"]) == 120
    assert payload["decay_exponent"] == pytest.approx(-1.0, abs=1e-9)
    assert set(payload["schatten"]) == {"1", "1.5", "2", "3"}
    text = capsys.readouterr().out
    assert "decay_exponent=" in text
    assert "schatten p=1:" in text


_SPECTRUM_SYMBOLS = ["series 0,1", "monomial n=3", "mobius a=0.5", "blaschke zeros=0.5,-0.5", "singular c=1"]


@pytest.mark.parametrize("size", [120, 121])
@pytest.mark.parametrize("which", ["phi", "conj"])
@pytest.mark.parametrize("symbol", _SPECTRUM_SYMBOLS)
def test_defect_spectrum_by_class_matches_the_dense_spectrum(tmp_path, capsys, symbol, which, size):
    # the CLI solves one rotation class at a time; spectrum(defect_matrix(...)) is the oracle
    out = tmp_path / "spec.json"
    argv = ["defect", "spectrum", "--which", which, "--alpha", "0", "--symbol", symbol]
    assert main(argv + ["--size", str(size), "--out", str(out)]) == 0
    _, series = bind_symbol(parse_symbol(symbol), 0.0, size)
    rep = operators.spectrum(operators.defect_matrix(series, 0.0, size, which))
    got = json.loads(out.read_text())
    np.testing.assert_allclose(got["eigenvalues"], rep.eigenvalues, rtol=0, atol=1e-14)
    assert abs(got["decay_exponent"] - rep.decay_exponent) <= 1e-14
    if symbol.startswith(("mobius", "singular")):  # one class: the same eigvalsh call on the same block
        schatten = {format(p, "g"): vars(e) for p, e in rep.schatten_estimates.items()}
        want = {
            **got,
            "eigenvalues": rep.eigenvalues.tolist(),
            "decay_exponent": rep.decay_exponent,
            "window": list(rep.fit_window),
            "schatten": schatten,
        }
        assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_defect_spectrum_at_the_size_cap_builds_no_dense_block(monkeypatch, tmp_path):
    # the shift's conj defect is diag(1/(k+2)) at alpha 0, read off without a dense build or solve
    assert not hasattr(cli, "defect_matrix") and not hasattr(cli, "spectrum")
    monkeypatch.setattr(operators, "defect_matrix", _no_dense_build)
    monkeypatch.setattr(operators, "spectrum", _no_dense_build)
    out = tmp_path / "spec.json"
    argv = ["defect", "spectrum", "--which", "conj", "--alpha", "0", "--symbol", "series 0,1"]
    assert main(argv + ["--size", "4096", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["eigenvalues"]
    np.testing.assert_allclose(got, 1.0 / (np.arange(4096) + 2.0), rtol=0, atol=1e-12)


def test_defect_spectrum_bad_window_exits_2(capsys):
    rc = main(
        [
            "defect",
            "spectrum",
            "--alpha",
            "0",
            "--symbol",
            "series 0,1",
            "--size",
            "40",
            "--window",
            "5:39",
        ]
    )
    assert rc == 2
    assert "window" in capsys.readouterr().err


def test_defect_spectrum_too_small_for_a_fit_exits_2(capsys):
    rc = main(["defect", "spectrum", "--alpha", "0", "--symbol", "series 0,1", "--size", "1"])
    assert rc == 2
    assert "too small" in capsys.readouterr().err


_SINGULAR_CONJ = ["--which", "conj", "--symbol", "singular c=1"]


@pytest.mark.parametrize(
    "size, window, message, symbol",
    [
        ("4096", "5:4", "window", _SINGULAR_CONJ),
        ("4096", "1:4000", "window", _SINGULAR_CONJ),
        ("2", None, "too small", _SINGULAR_CONJ),
        ("4096", "5:4", "window", ["--symbol", "mobius a=0.5"]),
    ],
    ids=["4096-5:4-window", "4096-1:4000-window", "2-None-too small", "mobius-4096-5:4-window"],
)
def test_defect_spectrum_refuses_its_window_before_building(
    monkeypatch, tmp_path, capsys, size, window, message, symbol
):
    # the window is checked against the size before the symbol is bound or any class block built
    monkeypatch.setattr(cli, "_resolve", _no_dense_build)
    monkeypatch.setattr(cli, "_defect_classes", _no_dense_build)
    monkeypatch.setattr(operators, "basis_weights", _no_dense_build)
    out = tmp_path / "spec.json"
    argv = ["defect", "spectrum", "--alpha", "0", *symbol]
    rc = main(argv + ["--size", size, "--out", str(out)] + (["--window", window] if window else []))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_defect_spectrum_builds_the_section_from_size_coefficients(tmp_path):
    # the singular series has 600 terms by default; the 800 section needs 800,
    # and without the last 200 its phi block is indefinite (least eigenvalue -4.85e-4)
    out = tmp_path / "spec.json"
    argv = ["defect", "spectrum", "--which", "phi", "--alpha", "-0.5", "--symbol", "singular c=1"]
    rc = main(argv + ["--size", "800", "--out", str(out)])
    assert rc == 0
    assert min(json.loads(out.read_text())["eigenvalues"]) > 0


def _no_dense_build(*args):
    raise AssertionError("no dense block may be built")


def _bind_at_default_length_only(spec, alpha, size=0):
    if size:
        raise AssertionError("no series may be bound at the requested size")
    return bind_symbol(spec, alpha)


@pytest.mark.parametrize("group, cmd", [("defect", "spectrum"), ("toeplitz", "build")])
def test_dense_size_over_the_cap_exits_2_before_building(monkeypatch, capsys, group, cmd):
    monkeypatch.setattr(operators, "basis_weights", _no_dense_build)
    monkeypatch.setattr(cli, "bind_symbol", _bind_at_default_length_only)
    rc = main([group, cmd, "--alpha", "0", "--symbol", "series 0,1", "--size", "100000"])
    assert rc == 2
    assert "DENSE_SIZE_MAX" in capsys.readouterr().err


def test_berezin_prints_identity_error(capsys):
    rc = main(
        [
            "berezin",
            "--alpha",
            "0",
            "--symbol",
            "mobius a=0.5",
            "--size",
            "200",
            "--point",
            "0.5",
            "--point",
            "0.2+0.1i",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        fields = dict(tok.split("=") for tok in line.split())
        assert float(fields["error"]) < 1e-6
    # phi_a(a) = 0, so the first expected value is exactly 1
    assert float(dict(tok.split("=") for tok in lines[0].split())["expected"]) == 1.0


def test_berezin_builds_no_dense_block(monkeypatch, capsys):
    def dense(*args, **kwargs):
        raise AssertionError("berezin must not build the dense defect block")

    monkeypatch.setattr(operators, "_toeplitz_entries", dense)  # every dense block starts here
    argv = ["berezin", "--alpha", "0", "--symbol", "mobius a=0.5", "--size", "200", "--point", "0.5"]
    rc = main(argv)
    assert rc == 0
    assert capsys.readouterr().out == "a=0.5+0i berezin=1 expected=1 error=0\n"


def test_berezin_over_the_work_budget_exits_2_before_building(monkeypatch, capsys):
    monkeypatch.setattr(operators, "basis_weights", _no_dense_build)
    monkeypatch.setattr(cli, "bind_symbol", _bind_at_default_length_only)
    argv = ["berezin", "--alpha", "0", "--symbol", "mobius a=0.5", "--size", "1000000000"]
    rc = main(argv + ["--point", "0.5"])
    assert rc == 2
    assert "work budget" in capsys.readouterr().err


def test_parser_defaults_are_the_default_config():
    parser = cli._build_parser()
    common = ["--alpha", "0", "--symbol", "series 0,1"]
    ct = parser.parse_args(["cnp", "test", *common])
    scan = inspect.signature(cnp.cnp_scan).parameters
    assert (ct.points, ct.trials, ct.seed, ct.tol) == tuple(
        scan[k].default for k in ("n_points", "n_trials", "seed", "tolerance")
    )
    assert (ct.points, ct.trials, ct.seed, ct.tol) == (30, 20, 7, 1e-9)
    for argv in (["toeplitz", "build"], ["defect", "spectrum"], ["berezin", "--point", "0.5"]):
        args = parser.parse_args([*argv, *common])
        assert args.size == harness.MATRIX_SIZE
    assert parser.parse_args(["verify", "all"]).size == harness.MATRIX_SIZE


@pytest.mark.parametrize("alpha", [-1.5, 0.0, 1.0])
def test_cli_and_verify_truncate_symbols_alike(monkeypatch, alpha):
    # the series a verify cell receives equals the one the CLI computes with at --size matrix_size
    captured = []

    def capture(alpha, spec, series, n):
        captured.append(series)
        return "skipped", "captured", {}

    monkeypatch.setitem(harness._CHECK_ROUTINES, "boundary_ratio", capture)
    for matrix_size in (400, 800):
        for text in ("mobius a=0.5", "blaschke zeros=0.5,-0.5", "singular c=1", "monomial n=2"):
            scenario = Scenario("x", (alpha,), (parse_symbol(text),), ("boundary_ratio",))
            run_scenario(scenario, matrix_size=matrix_size)
            _, series = cli._resolve(text, alpha, matrix_size)
            np.testing.assert_array_equal(captured[-1].coeffs, series.coeffs)
            assert captured[-1].tail_bound == series.tail_bound


# ---------------------------------------------------------------------------
# verify


def test_verify_scenario_writes_reports(tmp_path, capsys):
    rc = main(["verify", "boundary_ratio", "--out", str(tmp_path / "reports")])
    assert rc == 0
    assert (tmp_path / "reports" / "boundary_ratio.json").exists()
    assert (tmp_path / "reports" / "boundary_ratio.csv").exists()
    payload = json.loads((tmp_path / "reports" / "boundary_ratio.json").read_text())
    assert payload["schema"] == 1
    assert all(cell["status"] == "pass" for cell in payload["checks"])
    text = capsys.readouterr().out
    assert "[   PASS] boundary_ratio" in text
    assert "3 passed, 0 failed, 0 skipped" in text


def test_verify_exits_1_when_a_cell_fails(monkeypatch, tmp_path, capsys):
    # a threshold singular c=1 cannot reach fails its boundary_ratio cell, and the run exits 1
    monkeypatch.setattr(harness, "RATIO_THRESHOLD", 1e9)
    rc = main(["verify", "boundary_ratio", "--out", str(tmp_path / "reports")])
    assert rc == 1
    assert "1 failed" in capsys.readouterr().out


_PINNED_CELLS = Path(__file__).resolve().parents[1] / "perfbench" / "verify_all_cells.json"


def _cell_differences(report: Path) -> list[str]:
    """Pinned (check, alpha, symbol, status) rows a verify-all report lacks, then rows it adds."""
    row = lambda check, alpha, symbol, status: (check, float(alpha), symbol, status)
    want = {row(*cell) for cell in json.loads(_PINNED_CELLS.read_text())}
    cells = json.loads(report.read_text())["checks"]
    got = {row(c["check"], c["alpha"], c["symbol"], c["status"]) for c in cells}
    return [f"expected {r}" for r in sorted(want - got)] + [f"got {r}" for r in sorted(got - want)]


def test_verify_all_statuses_match_the_pinned_cells(tmp_path, capsys):
    # exit 0 also holds when a pass turns into a skip, so every row is compared
    assert main(["verify", "all", "--out", str(tmp_path)]) == 0
    differences = _cell_differences(tmp_path / "verify-all.json")
    assert not differences, "\n".join(differences)


def test_pinned_cells_name_a_changed_status(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "RATIO_THRESHOLD", 1e9)
    assert main(["verify", "all", "--out", str(tmp_path)]) == 1
    assert _cell_differences(tmp_path / "verify-all.json") == [
        "expected ('boundary_ratio', 0.0, 'singular c=1', 'pass')",
        "got ('boundary_ratio', 0.0, 'singular c=1', 'fail')",
    ]


def test_verify_unknown_scenario_exits_2(capsys):
    rc = main(["verify", "nonsense", "--out", "reports"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_verify_blaschke_decay_passes_at_matrix_size_200(tmp_path, capsys):
    # the range check settles at 200 for every bundled cell, Moebius ones included
    rc = main(["verify", "blaschke_decay", "--size", "200", "--out", str(tmp_path)])
    assert rc == 0
    assert "12 passed, 0 failed, 0 skipped" in capsys.readouterr().out.splitlines()[-1]
    cells = json.loads((tmp_path / "blaschke_decay.json").read_text())["checks"]
    for cell in cells:
        for key in ("range_min", "range_max", "growth"):
            assert {f"{key}_phi", f"{key}_conj"} <= set(cell["metrics"])


def _exit_code(argv) -> int:
    """main's return code, or the code argparse exits with on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_verify_unknown_config_key_exits_2(tmp_path, capsys):
    # verify has no --set: a key=value setting is a usage error
    rc = _exit_code(
        ["verify", "boundary_ratio", "--set", "bogus=1", "--out", str(tmp_path / "reports")]
    )
    assert rc == 2
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "target, setting, message",
    [
        ("berezin_identity", "matrix_size=0", "matrix_size"),
        ("hardy_degenerate", "matrix_size=100000", "matrix_size"),
        ("cnp_moebius_pass", "cnp_points=5000", "cnp_points"),
        ("blaschke_decay", "fit_hi=150", "fit_hi"),
        ("all", "fit_lo=20", "fit_lo"),
        ("all", "boundary_size=600", "boundary_size"),
        ("all", "cnp_points=30", "cnp_points"),
        ("all", "cnp_trials=5", "cnp_trials"),
        ("all", "psd_tol=1e-9", "psd_tol"),
        ("rescaling_identity", "seed=-1", "seed"),
        ("boundary_ratio", "ratio_threshold=nan", "ratio_threshold"),
        ("berezin_identity", "--size=0", "--size"),
        ("all", "--size=2", "--size"),
        ("hardy_degenerate", "--size=4097", "--size"),
        ("all", "--config=run.cfg", "--config"),
        ("all", "--size=many", "--size"),
    ],
)
def test_verify_config_mistakes_exit_2_without_report(
    monkeypatch, tmp_path, capsys, target, setting, message
):
    # a section size outside [3, DENSE_SIZE_MAX] is a validation error, not a failed
    # cell; --set key=value and --config are usage errors, as verify has no such flags
    monkeypatch.setattr(operators, "basis_weights", _no_dense_build)
    flags = [setting] if setting.startswith("--") else ["--set", setting]
    rc = _exit_code(["verify", target, *flags, "--out", str(tmp_path / "reports")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def test_verify_error_cells_exit_3(monkeypatch, tmp_path, capsys):
    # a cell that raises is an error, kept with its message; an error outranks a fail
    def routine(alpha, spec, series, n):
        if len(series) == 2:
            raise FloatingPointError("overflow")
        return "fail", "", {}

    monkeypatch.setitem(harness._CHECK_ROUTINES, "boundary_ratio", routine)
    rc = main(["verify", "boundary_ratio", "--out", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "[  ERROR] boundary_ratio alpha=0 series 0,1  (FloatingPointError: overflow)" in out
    assert "0 passed, 2 failed, 0 skipped, 1 errors" in out
    cells = json.loads((tmp_path / "boundary_ratio.json").read_text())["checks"]
    assert sorted(c["status"] for c in cells) == ["error", "fail", "fail"]


# ---------------------------------------------------------------------------
# imports


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["verify", "all"], ["numpy.random", "numpy.ma"]),
        (["cnp", "test", "--alpha", "-1.5", "--symbol", "monomial n=2"], ["numpy.ma"]),
    ],
    ids=["verify-all", "cnp-test"],
)
def test_fresh_interpreter_leaves_numpy_submodules_unloaded(argv, absent, tmp_path):
    # verify samples its points on a fixed spiral and finds distinct sizes without
    # np.unique, which imports numpy.ma; only cnp's seeded sampler needs numpy.random
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, json, sys\n"
        "from subbergman import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv + ['--out', str(tmp_path / 'out')]!r})\n"
        f"print(json.dumps([rc, [m for m in {absent!r} if m in sys.modules]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]
