"""One workload in one fresh process; prints a JSON result as its last line.

    python3 perfbench/child.py <workload> <seed> <seconds> <trace 0|1> [--setup-only]

Started by run.py with the BLAS thread pins in its environment. Imports
only the standard library before timing set-up, so ``setup_s`` covers the
import of ``subbergman`` (with numpy and scipy) and building the inputs.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    import subbergman

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "subbergman": subbergman.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in PINS},
        "git_sha": _git_sha(),
    }


def _timed_pass(workload) -> tuple[float, float, object]:
    cpu0, t0 = _cpu(), time.perf_counter()
    out = workload.run_pass()
    return time.perf_counter() - t0, _cpu() - cpu0, out


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import subbergman
    import workloads

    workload = workloads.WORKLOADS[name](seed, ROOT / ".perfbench_out")
    setup_s = time.perf_counter() - t0
    if not Path(subbergman.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"subbergman imported from {subbergman.__file__}, not from {ROOT / 'src'}")
    result: dict = {"workload": name, "seed": seed, "setup_s": setup_s}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return 0

    import tracing

    tracer = tracing.Tracer() if trace else None
    passes, layers = [], []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, starting untraced
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, cpu, out = _timed_pass(workload)
        finally:
            if traced:
                tracer.uninstall()
        attempted, failures, known = workload.check(out)
        passes.append(
            {"traced": traced, "wall_s": wall, "cpu_s": cpu, "attempted": attempted, "failed": len(failures), "known_failures": known, "failures": failures[:5]}
        )
        if traced:
            layers.append(tracing.layer_metrics(tracer))
            spans = tracing.dump_spans(tracer)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start + wall > seconds:
            break
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        walls = {t: statistics.median(p["wall_s"] for p in passes if p["traced"] == t) for t in (False, True)}
        result["layers"]["trace.overhead_s"] = walls[True] - walls[False]
        span_file = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.json"
        span_file.write_text(json.dumps(spans))
        result["spans_file"] = str(span_file.relative_to(ROOT))
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
