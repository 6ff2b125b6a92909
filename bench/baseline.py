"""Record a baseline: every workload over ten seeds, plus one traced run each.

    python3 bench/baseline.py

Runs `run.py` once per workload and seed with `--trace 0`, then once per
workload with `--trace 1`, and writes to `bench/baseline.json` each
end-to-end metric's median and quartiles over the seeds, its spread
(quartile distance over median) against the bound in `BENCHMARK.json` (`within_bound` is false where two sets of
runs of the same code could disagree by more than the bound), and
the traced run's per-layer metrics.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), **json.loads(lines[-2])}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        traced = run(workload, 1, spec["run_seconds"], 1)
        metrics = {}
        for name, bound in bounds.items():
            xs = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            metrics[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "within_bound": spread <= bound,
            }
            flag = "" if spread < bound / 3 else "  <-- spread above a third of the bound"
            print(f"{workload:10s} {name:22s} median {med:12.4f}  spread {spread:.3f} / {bound}{flag}")
        summary[workload] = {
            "end_to_end": metrics,
            "tails": {
                m: [r["details"][f"{m}_verdict_ms_tail"] for r in runs] for m in ("tb", "sb")
            },
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "failed": sum(r["result"]["failed"] for r in runs + [traced]),
            "report_digests": sorted({r["details"]["report_digest"] for r in runs}),
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "env": traced["env"],
        }
        print(f"{workload:10s} correct {summary[workload]['correct']}  failed {summary[workload]['failed']}")
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
