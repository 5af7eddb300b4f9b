#!/usr/bin/env python3
"""Steadiness check for the ledger benchmark.

Runs every workload of BENCHMARK.json repeatedly for the benchmark's own
run_seconds, each run with its own seed, alternating the workload order
from round to round, and prints for each end-to-end metric its median,
quartiles and spread (quartile distance over median) against the metric's
bound. A spread above a third of the bound is marked `wide`; above the
bound, `FAIL`.

    python3 ledger/steady.py --runs 10
    python3 ledger/steady.py --runs 10 --first-seed 301

Run it from the repository root (it runs the benchmark command there).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-4000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed {result['failed']} operations:\n{out.stderr[-4000:]}")
    # The host's speed during the run: the probe's median over windows.
    probe = statistics.median(json.loads(lines[-2])["meta"]["per_window"]["probe_us"])
    return {name: m["value"] for name, m in result["metrics"].items()}, probe


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    opts = ap.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    seed = opts.first_seed
    for r in range(opts.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            metrics, probe = run_once(spec["command"], w, seed, spec["run_seconds"])
            print(f"run {r + 1}/{opts.runs} {w} seed {seed}: probe_us={probe:.1f}, "
                  + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
            for k, v in metrics.items():
                values[w].setdefault(k, []).append(v)
            seed += 1

    worst = "ok"
    print(f"\n{'workload':<14}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for w, per_metric in values.items():
        for k, vs in per_metric.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k, 0.0)
            if spread > bound:
                verdict, worst = "FAIL", "FAIL"
            elif spread > bound / 3:
                verdict = "wide"
                worst = "wide" if worst == "ok" else worst
            else:
                verdict = "ok"
            print(f"{w:<14}{k:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.4f}{bound:>7.2f}  {verdict}")
    print(f"\noverall: {worst}")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
