#!/usr/bin/env python3
"""The acceptance rule of the benchmark's contract, for the README's table.

Runs every workload of BENCHMARK.json on RUNS seeds (default 10) and prints,
per end-to-end metric, the median and the distance between the first and the
third quartile (statistics.quantiles(values, n=4)) as a share of the median,
beside the metric's bound — and, for the three timed metrics, the same for the
uncorrected value (`raw.*`, per-layer, not gated) measured in the same runs.
Run from the repository root after a build:

    benchmark/run.sh --workload lineage-tasks --seconds 1 >/dev/null   # builds
    python3 benchmark/spread.py [RUNS] [FIRST_SEED]
"""
import json
import os
import statistics
import subprocess
import sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
spec = json.load(open("BENCHMARK.json"))
exe = os.path.join(os.environ.get("CARGO_TARGET_DIR", "target"), "release", "lakebench")
raw_names = {d["name"] for d in spec["per_layer"] if d["name"].startswith("raw.")}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


print(f"| workload | metric | median of {runs} | quartile spread | bound | | as measured: median | spread |")
print("|---|---|---|---|---|---|---|---|")
for workload in spec["workloads"]:
    name = workload["name"]
    results, printed = [], []
    for seed in range(first, first + runs):
        cmd = [exe, "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        results.append(result["metrics"])
        # The `workload metric value unit` lines carry the per-layer values too.
        fields = [line.split() for line in out.splitlines()]
        printed.append({f[1]: float(f[2]) for f in fields if len(f) == 4 and f[0] == name})
    for metric in spec["end_to_end"]:
        median, spread = quartiles([r[metric["name"]]["value"] for r in results])
        bound = metric["bound"]
        verdict = "ok" if spread < bound / 3 else "above a third of the bound" if spread <= bound else "OUTSIDE"
        if verdict == "OUTSIDE" and metric["name"] == "setup_s":
            verdict = "outside, but the contract exempts set-up time from this rule"
        row = f"| `{name}` | `{metric['name']}` | {median:.4f} | {100 * spread:.2f} % | {100 * bound:.0f} % | {verdict} |"
        raw = "raw." + metric["name"]
        if raw in raw_names:
            median, spread = quartiles([p[raw] for p in printed])
            row += f" {median:.4f} | {100 * spread:.2f} % |"
        else:
            row += " | |"
        print(row, flush=True)
