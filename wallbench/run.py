#!/usr/bin/env python3
"""Wall-clock benchmark of the RLB simulator, with per-layer attribution.

Run from the root of a checkout:

    python3 wallbench/run.py --workload paper_outage --seed 1 --seconds 20 --trace 0

The script builds the `wallbench` worker (a package of its own, see
Cargo.toml) into $CARGO_TARGET_DIR (default `.bench_build`) and runs the
workload's closed batch of points as one job set per process, one worker
thread per core, with the result cache and progress output off.

--trace 0 runs the batch in fresh processes until --seconds have passed, each
preceded by a process that sets up every point repeatedly (setup_s), and
reports the medians of the end-to-end metrics over every batch but the first,
a warm-up. --trace 1 runs the batch once untraced and once traced, and reports
the per-layer metrics of the traced run (spans, counters, shard probe, layer
probes) plus the tracing overhead.

Every point's output digest must agree across every run of this invocation
(and with the shard probe's sequential and sharded runs); a point that
panics, breaks an invariant or disagrees counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json at the checkout root.

Tests: `python3 -m unittest discover -s wallbench` and
`cargo test --manifest-path wallbench/Cargo.toml`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_outage", "incast_storm")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker from source; return its path."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the simulator")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the benchmark failed")
    return target / "release" / "wallbench", target


def spawn(args):
    """Run one worker process to its end.

    Returns (its JSON output, wall seconds from launch to exit, user+system
    CPU seconds, peak resident set in MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in args], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args[1:]))} exited with {proc.returncode}")
    return json.loads(out), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def failures(runs, probes=()):
    """Count the points attempted and failed over several runs of a batch.

    `runs` holds each run's point list. A point fails in a run when it
    reports not ok, or when its digest differs from the first run's digest
    for the same point. `probes` are (point id, digest) pairs from other
    runs of a point, such as the shard probe; each counts as an attempt
    that fails on any difference."""
    reference = {p["id"]: p.get("digest") for p in runs[0]}
    attempted = failed = 0
    for run in runs:
        for p in run:
            attempted += 1
            if not p.get("ok") or p.get("digest") != reference.get(p["id"]):
                failed += 1
                log(f"FAILED point {p['id']} ({p.get('label')}): "
                    f"{p.get('error') or 'digest ' + str(p.get('digest')) + ' differs'}")
    for pid, digest in probes:
        attempted += 1
        if digest is None or digest != reference.get(pid):
            failed += 1
            log(f"FAILED probe run of point {pid}: digest {digest} differs")
    return attempted, failed


def shard_probes(batch):
    shard = batch.get("shard", {})
    if "error" in shard:
        log(f"shard probe: {shard['error']}")
    return [(shard.get("id", 0), shard.get(k)) for k in ("sequential_digest", "sharded_digest")]


def report_points(points):
    """Simulated results, printed as information beside each digest."""
    for p in points:
        log(f"  {p['id']:>2} {p.get('label', '?'):<18} digest={p.get('digest')} "
            f"p99_fct_ms={p.get('p99_fct_ms')} p99_ood={p.get('p99_ood')} "
            f"pause_rate_per_s={p.get('pause_rate_per_sec')}")


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def emit(values, section, attempted, failed):
    """The result line: every metric BENCHMARK.json lists for `section`."""
    metrics = {}
    for name, unit in declared(section):
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def end_to_end(binary, workload, seed, seconds):
    start = time.perf_counter()
    # The first batch warms the page cache and the CPU; it is checked, not timed.
    warm = spawn([binary, "batch", "--workload", workload, "--seed", seed])
    log(f"{workload} warm-up: {warm[1]:.3f} s")
    setups, batches = [], []
    while not batches or time.perf_counter() - start < seconds:
        # Set-up takes well under a millisecond and differs by half between
        # processes (memory layout) and with the host's load, so a set-up
        # process runs before every batch and setup_s is the median of
        # their medians, taken over the same stretch of time as wall_s.
        setup = spawn([binary, "setup", "--workload", workload, "--seed", seed])
        setups.append(statistics.median(setup[0]["setup_s"]))
        batches.append(spawn([binary, "batch", "--workload", workload, "--seed", seed]))
        log(f"{workload} run {len(batches)}: {batches[-1][1]:.3f} s, "
            f"set-up {setups[-1] * 1e3:.3f} ms")
    report_points(batches[0][0]["points"])
    events = sum(p.get("events", 0) for p in batches[0][0]["points"])
    values = {
        "wall_s": statistics.median(b[1] for b in batches),
        "events_per_wall_s": statistics.median(events / b[1] for b in batches),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(b[2] for b in batches),
        "peak_rss_mb": statistics.median(b[3] for b in batches),
    }
    attempted, failed = failures([b[0]["points"] for b in [warm] + batches])
    return values, attempted, failed


def per_layer(binary, target, workload, seed):
    plain, _, _, _ = spawn([binary, "batch", "--workload", workload, "--seed", seed])
    spans_dir = target / "wallbench-spans"
    traced, _, _, _ = spawn(
        [binary, "batch", "--workload", workload, "--seed", seed, "--trace", spans_dir])
    log(f"{workload}: batch untraced {plain['batch_s']:.3f} s, traced {traced['batch_s']:.3f} s "
        f"(spans in {spans_dir})")
    report_points(traced["points"])
    log("  self time per span, ms: " + ", ".join(
        f"{k}={v:.1f}" for k, v in traced.get("self_ms", {}).items()))
    values = dict(traced.get("layers", {}))
    # The traced process also runs the probes; compare the batches alone.
    values["trace.overhead_s"] = traced["batch_s"] - plain["batch_s"]
    attempted, failed = failures([plain["points"], traced["points"]], shard_probes(traced))
    return values, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    try:
        binary, target = build()
        if a.trace:
            values, attempted, failed = per_layer(binary, target, a.workload, a.seed)
            print(emit(values, "per_layer", attempted, failed))
        else:
            values, attempted, failed = end_to_end(binary, a.workload, a.seed, a.seconds)
            print(emit(values, "end_to_end", attempted, failed))
    except (BenchError, OSError, ValueError) as e:
        log(f"wallbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
