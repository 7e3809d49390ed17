#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its spread.

    python3 wallbench/campaign.py --workloads paper_outage --seeds 1-10 \
        [--trace-seed 1] [--out wallbench/baseline/NAME.json]

For every workload, runs `run.py --trace 0` once per seed (and, with
--trace-seed, one `--trace 1` run) from the checkout root and reports, per
end-to-end metric, the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median, and
whether the spread stays within a third of the metric's bound in
BENCHMARK.json. With --out the whole summary, raw values included, is
written as JSON so later changes can be compared against it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"host": {"machine": platform.machine(), "processor": platform.processor(),
                        "cpus": len(os.sched_getaffinity(0))},
               "run_seconds": a.seconds, "seeds": a.seeds, "workloads": {}}
    for w in a.workloads.split(","):
        results, start = [], time.perf_counter()
        for s in a.seeds:
            results.append(run(w, s, a.seconds, 0))
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        entry = {
            "elapsed_s": time.perf_counter() - start,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in results], b)
                           for m, b in bounds.items()},
        }
        if a.trace_seed is not None:
            traced = run(w, a.trace_seed, a.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
        summary["workloads"][w] = entry
        for m, s in entry["end_to_end"].items():
            print(f"  {w} {m}: median={s['median']:.6g} spread={s['spread']:.4f} "
                  f"bound={s['bound']} {'ok' if s['steady'] else 'NOT STEADY'}", flush=True)
    if a.out:
        a.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
