"""Call spans around subbergman's public functions, kept in memory.

A ``Tracer`` wraps each target function and installs the wrapper at every
binding of the original function object in every loaded ``subbergman``
module, because the modules import names directly (``from .operators
import defect_matrix`` in ``harness`` and ``kernels``, and so on); patching
only the defining module would miss those calls. ``uninstall`` restores
every binding. Nothing on disk is touched.

Each span is ``[name, start, end, parent index, attrs]``. ``layer_metrics``
turns the spans of one pass into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

SCENARIOS = (
    "berezin_identity",
    "blaschke_decay",
    "singular_noncompact",
    "rescaling_identity",
    "cnp_moebius_pass",
    "cnp_nonmoebius_fail",
    "hardy_degenerate",
    "boundary_ratio",
    "inclusion_asymptote",
)

# Spans reported as a call count `.calls` and an inclusive busy time `.s`.
TIMED = (
    "scalars.basis_weights",
    "symbols.to_series",
    "symbols.normalize",
    "symbols.admissibility_check",
    "operators.toeplitz_matrix",
    "operators.defect_matrix",
    "operators.spectrum",
    "operators.berezin",
    "operators.jacobi_eigenvalues",
    "kernels.eval_kernel.sub",
    "kernels.eval_kernel.conj_sub",
    "kernels.conj_sub_quadrature",
    "kernels.rescaling_check",
    "cnp.sample_points",
    "cnp.build_pick",
    "cnp.psd_test",
)


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _kernel_name(fn, args, kwargs):
    return f"kernels.eval_kernel.{_bound(fn, args, kwargs)['spec'].kind}"


def _scenario_name(fn, args, kwargs):
    return f"harness.scenario.{_bound(fn, args, kwargs)['scenario'].name}"


def _defect_attrs(fn, args, kwargs, result):
    arguments = _bound(fn, args, kwargs)
    return {"n": arguments["n"], "m": arguments["n"] + len(arguments["symbol"])}


def _scan_attrs(fn, args, kwargs, result):
    return {"verdict": result.verdict, "trials": result.trials, "hazards": len(result.hazards)}


def _psd_attrs(fn, args, kwargs, result):
    return {"witness": None if result.witness is None else len(result.witness.points)}


def _report_attrs(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


# (module, function, span namer or None, attrs from the result or None)
TARGETS = (
    ("scalars", "basis_weights", None, None),
    ("symbols", "to_series", None, None),
    ("symbols", "normalize", None, None),
    ("symbols", "admissibility_check", None, None),
    ("operators", "toeplitz_matrix", None, None),
    ("operators", "defect_matrix", None, _defect_attrs),
    ("operators", "spectrum", None, None),
    ("operators", "berezin", None, None),
    ("operators", "jacobi_eigenvalues", None, None),
    ("kernels", "eval_kernel", _kernel_name, None),
    ("kernels", "conj_sub_quadrature", None, None),
    ("kernels", "rescaling_check", None, None),
    ("cnp", "cnp_scan", None, _scan_attrs),
    ("cnp", "sample_points", None, None),
    ("cnp", "build_pick", None, None),
    ("cnp", "psd_test", None, _psd_attrs),
    ("harness", "run_scenario", _scenario_name, None),
    ("harness", "emit_report", None, _report_attrs),
    ("cli", "main", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.psd_eigh = 0  # numpy.linalg.eigh calls made inside a psd_test span
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.psd_eigh = 0

    def _wrap(self, fn, name, namer, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [namer(fn, args, kwargs) if namer else name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[4] = {"error": type(exc).__name__}
                raise
            else:
                span[2] = time.perf_counter()
                if attrs:
                    span[4] = attrs(fn, args, kwargs, result)
                return result
            finally:
                self._stack.pop()

        return wrapper

    def _count_eigh(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(self.spans[i][0] == "cnp.psd_test" for i in self._stack):
                self.psd_eigh += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at all of its bindings; fail loudly on a missing name."""
        import numpy.linalg

        for module_name in {t[0] for t in TARGETS}:
            importlib.import_module(f"subbergman.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "subbergman" or n.startswith("subbergman.")]
        for module_name, func_name, namer, attrs in TARGETS:
            original = getattr(sys.modules[f"subbergman.{module_name}"], func_name, None)
            if not callable(original):
                raise RuntimeError(f"subbergman.{module_name}.{func_name} is missing; update perfbench/tracing.py")
            wrapper = self._wrap(original, f"{module_name}.{func_name}", namer, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attr, original))
                        setattr(module, attr, wrapper)
        self._installed.append((numpy.linalg, "eigh", numpy.linalg.eigh))
        numpy.linalg.eigh = self._count_eigh(numpy.linalg.eigh)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Busy time counts a span only when no ancestor has the same name, so a
    nested call is not counted twice. Self time is a span's duration minus
    the durations of its direct children.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    children_s: defaultdict = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        if parent >= 0:
            children_s[parent] += end - start
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += end - start

    def self_s(prefix):
        return sum(s[2] - s[1] - children_s[i] for i, s in enumerate(spans) if s[0].startswith(prefix))

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = busy[name]
    defects = [s for s in spans if s[0] == "operators.defect_matrix" and s[4]]
    out["operators.defect_matrix.flops"] = sum(8 * s[4]["m"] ** 3 for s in defects)
    out["operators.defect_matrix.bytes"] = sum(4 * 16 * s[4]["m"] ** 2 for s in defects)
    builds = [s[4]["n"] for s in defects if s[3] >= 0 and spans[s[3]][0] == "kernels.eval_kernel.conj_sub"]
    conj_calls = calls["kernels.eval_kernel.conj_sub"]
    out["kernels.conj_sub.max_basis"] = max(builds, default=0)
    out["kernels.conj_sub.builds_per_call"] = len(builds) / conj_calls if conj_calls else 0.0

    scans = [s for s in spans if s[0] == "cnp.cnp_scan"]
    done = [s[4] for s in scans if s[4] and "verdict" in s[4]]
    out["cnp.cnp_scan.calls"] = len(scans)
    out["cnp.cnp_scan.errors"] = sum(1 for s in scans if s[4] and "error" in s[4])
    for verdict in ("pass", "fail"):
        key = "psd_pass" if verdict == "pass" else "fail"
        out[f"cnp.cnp_scan.{verdict}.s"] = sum(s[2] - s[1] for s in scans if s[4] and s[4].get("verdict") == key)
    out["cnp.build_pick.admissibility_s"] = sum(
        s[2] - s[1] for s in spans if s[0] == "symbols.admissibility_check" and s[3] >= 0 and spans[s[3]][0] == "cnp.build_pick"
    )
    psd_calls = calls["cnp.psd_test"]
    out["cnp.psd_test.eigh_per_trial"] = tracer.psd_eigh / psd_calls if psd_calls else 0.0
    out["cnp.witness_size.max"] = max(
        (s[4]["witness"] for s in spans if s[0] == "cnp.psd_test" and s[4] and s[4].get("witness")), default=0
    )
    trials = sum(d["trials"] for d in done)
    out["cnp.hazard_ratio"] = sum(d["hazards"] for d in done) / trials if trials else 0.0

    unknown = {s[0] for s in spans if s[0].startswith("harness.scenario.")} - {f"harness.scenario.{n}" for n in SCENARIOS}
    if unknown:
        raise RuntimeError(f"untracked scenarios {sorted(unknown)}; update perfbench/tracing.py")
    for name in SCENARIOS:
        out[f"harness.scenario.{name}.s"] = busy[f"harness.scenario.{name}"]
    out["harness.self_s"] = self_s("harness.scenario.")
    out["harness.emit_report.s"] = busy["harness.emit_report"]
    out["harness.emit_report.bytes"] = sum(s[4]["bytes"] for s in spans if s[0] == "harness.emit_report" and s[4] and "bytes" in s[4])
    out["cli.main.s"] = busy["cli.main"]
    out["cli.self_s"] = self_s("cli.main")
    return out


def dump_spans(tracer: Tracer) -> list[dict]:
    return [
        {"name": n, "start": s, "end": e, "parent": p, **(a or {})} for n, s, e, p, a in tracer.spans
    ]
