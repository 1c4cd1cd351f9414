"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--workload NAME ...]

Runs ``run.py`` once per seed 1..runs on each workload and prints, per
metric, the median of the runs and the distance between the first and
third quartile as a share of that median, next to the metric's bound in
``BENCHMARK.json``.  A benchmark is steady when every spread is well
inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    default=None, help="default: every workload in BENCHMARK.json")
    ap.add_argument("--out", type=Path, help="also write the values and quartiles as JSON")
    args = ap.parse_args()
    report: dict[str, dict] = {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output", file=sys.stderr)
                steady = False
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = metric == "setup_s" or spread < bounds[metric] / 3
            steady = steady and ok
            report.setdefault(name, {})[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            print(f"{name:16} {metric:13} median {med:12.4f}  spread {spread:6.3f}"
                  f"  bound {bounds[metric]:.2f}  {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in vs), flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
