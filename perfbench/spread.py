"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cnp-scan --seeds 1-10 --out .perfbench_out/spread.json
    python3 perfbench/spread.py --workload all --seeds 1-10 --trace 1 --out .perfbench_out/layers.json

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
beside a third of the metric's bound from BENCHMARK.json, the target a
steady metric should meet. Runs are sequential, one seed at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-all", "cnp-scan", "kernel-eval")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            runs.append({"seed": seed, "result": json.loads(lines[-1]), "detail": json.loads(lines[-2])})
            ok &= runs[-1]["result"]["correct"]
        table = {}
        for metric, first in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            table[metric] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            target = f" target<{bounds[metric] / 3:.3f}" if metric in bounds else ""
            print(f"{name:12s} {metric:45s} median={med:.6g} {first['unit']} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}{target}")
        summary["workloads"][name] = {
            "metrics": table,
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "environment": runs[0]["detail"].get("environment"),
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
