"""subbergman benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each workload runs in a fresh child process (child.py) with BLAS pinned to
one thread, so ``peak_rss_mb`` is that workload's own high-water mark. With
``--trace 0`` the child repeats untraced passes for ``--seconds`` and the
result holds the end-to-end metrics; ``setup_s`` is the median over several
fresh set-ups. With ``--trace 1`` the child alternates untraced and traced
passes and the result holds the per-layer metrics, with the tracing
overhead as ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment block and the result files. Everything the run
writes goes to ``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-all", "cnp-scan", "kernel-eval")
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 9  # fresh set-ups per run, the measuring child's included
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = {**os.environ, **PINS}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    args = [name, str(seed), str(seconds), "1" if trace else "0"]
    setups = []
    if not trace:
        setups = [_child(args + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = _child(args, deadline)
    passes = result["passes"]
    result["attempted"] = sum(p["attempted"] for p in passes)
    result["failed"] = sum(p["failed"] for p in passes)
    result["known_failures"] = sum(p["known_failures"] for p in passes)
    if trace:
        declared = _declared("per_layer")
        metrics = result["layers"]
    else:
        declared = _declared("end_to_end")
        metrics = {
            "setup_s": statistics.median(setups + [result["setup_s"]]),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        result["setup_samples_s"] = setups + [result["setup_s"]]
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    result["metrics"] = {k: {"value": float(metrics[k]), "unit": declared[k]} for k in declared}
    result["fail_ratio"] = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    return result


def _summary(result: dict) -> str:
    name = result["workload"]
    lines = [f"{name} {k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    lines.append(f"{name} fail_ratio {result['fail_ratio']:.6g} ratio ({result['failed']}/{result['attempted']} operations)")
    lines.append(f"{name} known_failures {result['known_failures']} count")
    for p in result["passes"]:
        lines += [f"{name} FAILED {f}" for f in p["failures"]]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    try:
        for needed in (ROOT / "src" / "subbergman" / "__init__.py", ROOT / "BENCHMARK.json"):
            if not needed.is_file():
                raise BenchError(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    files = []
    for result in results:
        print(_summary(result))
        out = ROOT / ".perfbench_out" / f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
        files.append(str(out.relative_to(ROOT)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"environment": results[0]["environment"], "results": files}))
    print(
        json.dumps(
            {
                "correct": all(r["failed"] == 0 for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
