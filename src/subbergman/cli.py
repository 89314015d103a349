"""Command-line interface.

Subcommands: `kernel eval`, `cnp test`, `toeplitz build`, `defect spectrum`,
`berezin`, and `verify <scenario|all>`. Numeric output is printed at 15
significant digits; reports carry a `schema` version field. Exit codes
follow the verdicts: 0 iff no check failed (skips are allowed), 1 for a
failed check, 2 for usage or validation errors, and 3 when a `verify` cell
raised (an `error` cell outranks a failed one).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .cnp import cnp_scan
from .harness import (
    MATRIX_SIZE,
    SCHEMA_VERSION,
    RunReport,
    builtin_scenarios,
    emit_report,
    run_scenario,
)
from .kernels import KINDS, KernelSpec, _conj_sub_truncation, eval_kernel
from .operators import (
    _check_dense_size,
    _check_work,
    _fit_window,
    berezin_values,
    defect_matrix,
    spectrum,
    toeplitz_matrix,
)
from .scalars import as_weight
from .symbols import bind_symbol, eval_exact, parse_complex, parse_symbol, symbol_text


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _resolve(symbol_text_arg: str, alpha: float, size: int = 0):
    """Parse a symbol argument and produce (spec, series truncated for a size-`size` section)."""
    return bind_symbol(parse_symbol(symbol_text_arg), alpha, size)


def _write_complex_csv(rows: np.ndarray, out, name: str = "c", points=None) -> None:
    """Matrix CSV: header row, complex entries as re,im column pairs, after a z pair per row if points."""
    columns = [f"{name}{j}" for j in range(rows.shape[1])]
    if points is not None:
        columns, rows = ["z", *columns], np.column_stack([points, rows])
    writer = csv.writer(out)
    writer.writerow([f"{c}_{part}" for c in columns for part in ("re", "im")])
    writer.writerows([_fmt(p) for v in row for p in (v.real, v.imag)] for row in rows)


def _truncation_fields(spec: KernelSpec, z, w) -> str:
    """The basis size and truncation bound a conj_sub evaluation used, as output fields."""
    if spec.kind != "conj_sub" or np.size(z) == 0:
        return ""
    n, bound = _conj_sub_truncation(spec.symbol, spec.alpha, z, w)
    return f" basis={n} bound={_fmt(bound)}"


def _cmd_kernel_eval(args) -> int:
    alpha = as_weight(args.alpha)
    series = None
    if args.kind != "bergman":
        if not args.symbol:
            raise ValueError(f"kind {args.kind!r} requires --symbol")
        _, series = _resolve(args.symbol, float(alpha))
    spec = KernelSpec(kind=args.kind, alpha=alpha, symbol=series)
    if args.points:
        if not args.out:
            raise ValueError("batch mode needs --out for the augmented CSV")
        with open(args.points, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ValueError(f"{args.points}: empty CSV")
        header, body = rows[0], rows[1:]
        try:
            idx = [header.index(c) for c in ("z_re", "z_im", "w_re", "w_im")]
        except ValueError:
            raise ValueError("batch CSV needs header columns z_re,z_im,w_re,w_im")
        coords = np.zeros((len(body), 4))
        for i, r in enumerate(body):
            try:
                coords[i] = [float(r[j]) for j in idx]
            except (IndexError, ValueError):
                raise ValueError(
                    f"{args.points}: row {i + 2} needs numeric z_re,z_im,w_re,w_im, got {r!r}"
                ) from None
        zs, ws = coords.view(complex).T
        vals = np.atleast_1d(eval_kernel(spec, zs, ws))
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*header, "k_re", "k_im"])
            for row, v in zip(body, vals):
                writer.writerow([*row, _fmt(v.real), _fmt(v.imag)])
        print(f"wrote {len(body)} kernel values to {args.out}{_truncation_fields(spec, zs, ws)}")
        return 0
    if args.z is None or args.w is None:
        raise ValueError("need --z and --w (or --points for batch mode)")
    v = complex(eval_kernel(spec, args.z, args.w))
    print(f"re={_fmt(v.real)} im={_fmt(v.imag)}{_truncation_fields(spec, args.z, args.w)}")
    return 0


def _cmd_cnp_test(args) -> int:
    alpha = as_weight(args.alpha)
    spec, series = _resolve(args.symbol, float(alpha))
    report = cnp_scan(
        series,
        alpha,
        n_points=args.points,
        n_trials=args.trials,
        seed=args.seed,
        tolerance=args.tol,
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "alpha": float(alpha),
        "symbol": symbol_text(spec),
        "points": args.points,
        "trials": report.trials,
        "seed": report.sampler_seed,
        "tolerance": args.tol,
        "verdict": report.verdict,
        "min_eigenvalue": report.min_eigenvalue,
        "failed_trials": report.failed_trials,
        "certificate": report.certificate,
        "hazards": list(report.hazards),
        "note": report.note,
        "witness": None,
    }
    if report.witness is not None:
        payload["witness"] = {
            "size": len(report.witness.points),
            "min_eigenvalue": report.witness.min_eigenvalue,
        }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if report.verdict == "fail" and report.witness is not None:
        wpath = out.with_name("witness.csv")
        with wpath.open("w", newline="") as fh:
            _write_complex_csv(report.witness.matrix, fh, "m", report.witness.points)
        print(f"witness written to {wpath}")
    print(
        f"verdict={report.verdict} min_eigenvalue={_fmt(report.min_eigenvalue)} "
        f"failed_trials={report.failed_trials}/{report.trials} hazards={len(report.hazards)}"
    )
    print(f"report written to {out}")
    return 0 if report.verdict == "psd_pass" else 1


def _cmd_toeplitz_build(args) -> int:
    alpha = as_weight(args.alpha)
    _, series = _resolve(args.symbol, float(alpha), _check_dense_size(args.size))
    t = toeplitz_matrix(series, alpha, args.size)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _write_complex_csv(t.entries, fh)
        print(f"wrote {args.size}x{args.size} Toeplitz matrix to {args.out}")
    else:
        _write_complex_csv(t.entries, sys.stdout)
    return 0


def _cmd_defect_spectrum(args) -> int:
    alpha = as_weight(args.alpha)
    _fit_window(_check_dense_size(args.size), args.window)
    spec, series = _resolve(args.symbol, float(alpha), args.size)
    e = defect_matrix(series, alpha, args.size, args.which)
    rep = spectrum(e, args.window)
    schatten = {
        format(p, "g"): {"value": est.value, "tail_converged": est.tail_converged}
        for p, est in rep.schatten_estimates.items()
    }
    payload = {
        "schema": SCHEMA_VERSION,
        "alpha": float(alpha),
        "symbol": symbol_text(spec),
        "which": args.which,
        "size": args.size,
        "eigenvalues": [float(v) for v in rep.eigenvalues],
        "decay_exponent": rep.decay_exponent,
        "window": list(rep.fit_window),
        "schatten": schatten,
    }
    print(
        f"decay_exponent={_fmt(rep.decay_exponent)} "
        f"window={rep.fit_window[0]}:{rep.fit_window[1]} top={_fmt(rep.eigenvalues[0])}"
    )
    for key, est in schatten.items():
        tag = "converged" if est["tail_converged"] else "tail not converged"
        print(f"schatten p={key}: {_fmt(est['value'])} ({tag})")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    return 0


def _cmd_berezin(args) -> int:
    alpha = as_weight(args.alpha)
    spec, head = _resolve(args.symbol, float(alpha))
    # the size-n series extends its default-length head, and the price grows with the band: refuse on the head first
    _check_work(head, alpha, args.size, "phi", args.point, args.point)
    _, series = bind_symbol(spec, float(alpha), args.size)
    values = berezin_values(series, alpha, args.size, args.point)
    for a, b in zip(args.point, values):
        expected = 1.0 - abs(eval_exact(spec, a)) ** 2
        print(
            f"a={_fmt(a.real)}+{_fmt(a.imag)}i berezin={_fmt(b)} "
            f"expected={_fmt(expected)} error={_fmt(abs(b - expected))}"
        )
    return 0


def _cmd_verify(args) -> int:
    scenarios = builtin_scenarios()
    if args.target == "all":
        parts = [run_scenario(s, args.size) for s in scenarios.values()]
        checks = sorted(
            (c for r in parts for c in r.checks),
            key=lambda r: (r.check, r.alpha, r.symbol),
        )
        report = RunReport(
            scenario="verify-all",
            config=parts[0].config,
            checks=checks,
            started=parts[0].started,
            finished=parts[-1].finished,
        )
    elif args.target in scenarios:
        report = run_scenario(scenarios[args.target], args.size)
    else:
        raise ValueError(
            f"unknown scenario {args.target!r}; available: {', '.join(sorted(scenarios))}, all"
        )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    emit_report(report, outdir / f"{report.scenario}.json", "json")
    emit_report(report, outdir / f"{report.scenario}.csv", "csv")
    counts = {"pass": 0, "fail": 0, "skipped": 0, "error": 0}
    for cell in report.checks:
        counts[cell.status] += 1
        line = f"[{cell.status.upper():>7}] {cell.check} alpha={cell.alpha:g} {cell.symbol}"
        if cell.reason:
            line += f"  ({cell.reason})"
        print(line)
    print(
        f"{report.scenario}: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skipped']} skipped, {counts['error']} errors; reports in {outdir}"
    )
    if any(cell.status == "error" for cell in report.checks):
        return 3
    return 1 if report.failed else 0


def _window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b integer window, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subbergman",
        description="Numerical toolkit for sub-Bergman Hilbert spaces on the unit disk.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    kernel = sub.add_parser("kernel", help="kernel evaluation")
    ksub = kernel.add_subparsers(dest="cmd", required=True)
    kev = ksub.add_parser("eval", help="evaluate a kernel at points")
    kev.add_argument("--kind", choices=KINDS, default="sub")
    kev.add_argument("--alpha", type=float, required=True)
    kev.add_argument("--symbol", help="symbol text, e.g. 'mobius a=0.5'")
    kev.add_argument("--z", type=parse_complex)
    kev.add_argument("--w", type=parse_complex)
    kev.add_argument("--points", help="CSV with z_re,z_im,w_re,w_im columns")
    kev.add_argument("--out", help="output CSV for batch mode")
    kev.set_defaults(func=_cmd_kernel_eval)

    cnp = sub.add_parser("cnp", help="complete Nevanlinna-Pick testing")
    csub = cnp.add_subparsers(dest="cmd", required=True)
    ct = csub.add_parser("test", help="run the Pick matrix scan")
    ct.add_argument("--alpha", type=float, required=True)
    ct.add_argument("--symbol", required=True)
    scan = inspect.signature(cnp_scan).parameters
    ct.add_argument("--points", type=int, default=scan["n_points"].default)
    ct.add_argument("--trials", type=int, default=scan["n_trials"].default)
    ct.add_argument("--seed", type=int, default=scan["seed"].default)
    ct.add_argument("--tol", type=float, default=scan["tolerance"].default)
    ct.add_argument("--out", default="report.json")
    ct.set_defaults(func=_cmd_cnp_test)

    toe = sub.add_parser("toeplitz", help="Toeplitz matrices")
    tsub = toe.add_subparsers(dest="cmd", required=True)
    tb = tsub.add_parser("build", help="export the truncated Toeplitz matrix as CSV")
    tb.add_argument("--alpha", type=float, required=True)
    tb.add_argument("--symbol", required=True)
    tb.add_argument("--size", type=int, default=MATRIX_SIZE)
    tb.add_argument("--out", help="CSV destination (stdout if omitted)")
    tb.set_defaults(func=_cmd_toeplitz_build)

    defect = sub.add_parser("defect", help="defect operators")
    dsub = defect.add_subparsers(dest="cmd", required=True)
    ds = dsub.add_parser("spectrum", help="eigenvalues, decay fit, Schatten sums")
    ds.add_argument("--which", choices=("phi", "conj"), default="phi")
    ds.add_argument("--alpha", type=float, required=True)
    ds.add_argument("--symbol", required=True)
    ds.add_argument("--size", type=int, default=MATRIX_SIZE)
    ds.add_argument("--window", type=_window, help="fit window a:b (eigenvalue ranks)")
    ds.add_argument("--out", help="JSON report destination")
    ds.set_defaults(func=_cmd_defect_spectrum)

    ber = sub.add_parser("berezin", help="Berezin transform of the defect operator")
    ber.add_argument("--alpha", type=float, required=True)
    ber.add_argument("--symbol", required=True)
    ber.add_argument("--size", type=int, default=MATRIX_SIZE)
    ber.add_argument(
        "--point", type=parse_complex, action="append", required=True, help="repeatable"
    )
    ber.set_defaults(func=_cmd_berezin)

    ver = sub.add_parser("verify", help="run a bundled scenario (or all of them)")
    ver.add_argument("target", help="scenario name or 'all'")
    ver.add_argument("--size", type=int, default=MATRIX_SIZE)
    ver.add_argument("--out", default="reports", help="directory for JSON/CSV reports")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
