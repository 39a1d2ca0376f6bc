#!/usr/bin/env python3
"""Fleet-profiling benchmark for hsdp.

Run from the repository root:

    python3 fleetbench/run.py --workload fleet-parallel --seed 7 --seconds 40 --trace 0
    python3 fleetbench/run.py --workload fleet-parallel --seed 7 --seconds 40 --trace 1

The script builds `fleetbench/` (a package of its own that calls the hsdp
library crates through their public items) and drives it as a closed loop
with one client: one profiled fleet run at a time, each in its own process,
the next started only when the last has finished.

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
adds a traced run per iteration and reports the per-layer metrics. Both print
a human-readable report, then one JSON object as the last line of stdout.
Every run's outputs are checked against the digests pinned in `pins.json`
for the workload and seed (or, for an unpinned seed, against each other and
against the traced run); a mismatch counts as a failed run and stays in the
sample. `python3 fleetbench/run.py --pin 0-63` rewrites those pins.

See fleetbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
PINS = os.path.join(HERE, "pins.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("analytics-scan", "fleet-parallel")

# Least number of profiled runs in one invocation, whatever --seconds says.
MIN_RUNS = 3
# After each profiled run, one child process times preloads back to back
# until this many seconds have passed (at least one), so setup_s is a median
# of many samples taken over the same stretch of time as the runs.
SETUP_SECONDS_PER_RUN = 0.6


class BenchError(Exception):
    """The benchmark itself could not run (build failure, child crash)."""


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Cargo's own chatter goes to stderr; stdout stays the report.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building fleetbench failed")
    binary = os.path.join(target, "release", "fleetbench")
    if not os.path.isfile(binary):
        raise BenchError(f"no binary at {binary}")
    return binary


def child(binary, *args):
    """Runs one fleetbench invocation to completion; returns its JSON line
    with the child's CPU seconds and peak RSS from the kernel's accounting."""
    proc = subprocess.Popen([binary, *map(str, args)], stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"fleetbench {' '.join(map(str, args))} exited with {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["rss_mib"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    return result


def load_pins():
    if not os.path.isfile(PINS):
        return {"held_out_seed": None, "digests": {}}
    with open(PINS) as f:
        return json.load(f)


def fmt_row(name, unit, values):
    med = statistics.median(values)
    lo, hi = min(values), max(values)
    return f"  {name:<40} {med:>14.6g} {unit:<6} (n={len(values)}, min {lo:.6g}, max {hi:.6g})"


class Checker:
    """Compares each run's outputs with the pinned digests for the workload
    and seed, or, when the seed is not pinned, with the first run seen."""

    def __init__(self, workload, seed):
        self.expected = load_pins()["digests"].get(workload, {}).get(str(seed))
        self.pinned = self.expected is not None
        self.sim = None
        self.failures = []

    def check(self, label, digests, sim):
        ok = True
        if self.expected is None:
            self.expected = digests
        for key, want in self.expected.items():
            if digests.get(key) != want:
                self.failures.append(f"{label}: {key} = {digests.get(key)}, expected {want}")
                ok = False
        if self.sim is None:
            self.sim = sim
        if sim != self.sim:
            self.failures.append(f"{label}: simulated counts differ between runs")
            ok = False
        return ok


def run_setup(binary, workload, seed):
    """Preload times from one process that repeats the preload for
    SETUP_SECONDS_PER_RUN; the first of them is cold."""
    return child(binary, "setup", "--workload", workload, "--seed", seed,
                 "--seconds", SETUP_SECONDS_PER_RUN)["setup_s"]


def e2e_metrics(runs, setup):
    return {
        "wall_s": ([r["wall_s"] for r in runs], "s"),
        "run_cpu_s": ([r["cpu_s"] for r in runs], "s"),
        "sim_queries_per_s": ([r["queries"] / r["wall_s"] for r in runs], "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": ([r["rss_mib"] for r in runs], "MiB"),
    }


def print_e2e(workload, seed, runs, setup):
    first = runs[0]
    print(f"end-to-end: {workload}, seed {seed}, {first['queries']} simulated queries per run, "
          f"parallelism {first['parallelism']}, {len(runs)} closed-loop runs")
    for name, (values, unit) in e2e_metrics(runs, setup).items():
        print(fmt_row(name, unit, values))


def measure_e2e(binary, workload, seed, seconds):
    checker = Checker(workload, seed)
    runs, setup, failed = [], [], 0
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        run = child(binary, "e2e", "--workload", workload, "--seed", seed)
        failed += not checker.check(f"run {len(runs)}", run["digests"], run["sim"])
        runs.append(run)
        setup.extend(run_setup(binary, workload, seed))
    print_e2e(workload, seed, runs, setup)
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in e2e_metrics(runs, setup).items()}
    return checker, len(runs), failed, metrics


def measure_trace(binary, workload, seed, seconds):
    checker = Checker(workload, seed)
    spans_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "fleetbench")
    os.makedirs(spans_dir, exist_ok=True)
    spans_out = os.path.join(spans_dir, f"trace-{workload}-seed{seed}.json")
    untraced, sequential, traced, setup = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        run = child(binary, "e2e", "--workload", workload, "--seed", seed)
        failed += not checker.check(f"untraced run {len(untraced)}", run["digests"], run["sim"])
        untraced.append(run)
        attempted += 1
        setup.extend(run_setup(binary, workload, seed))
        # The traced run calls one layer at a time, so its overhead is
        # measured against an untraced run at parallelism 1.
        if run["parallelism"] != 1:
            run = child(binary, "e2e", "--workload", workload, "--seed", seed, "--parallelism", 1)
            failed += not checker.check(f"sequential run {len(sequential)}", run["digests"], run["sim"])
            attempted += 1
        sequential.append(run)
        result = child(binary, "trace", "--workload", workload, "--seed", seed, "--spans-out", spans_out)
        ok = checker.check(f"traced run {len(traced)}", result["digests"], result["sim"])
        if not result["reconciled"]:
            checker.failures.append(f"traced run {len(traced)}: layers do not reconcile with wall time "
                                    f"within {result['reconcile_bound']}")
            ok = False
        failed += not ok
        traced.append(result)
        attempted += 1
    print_e2e(workload, seed, untraced, setup)

    names = list(traced[0]["metrics"])
    values = {n: [t["metrics"][n][0] for t in traced] for n in names}
    units = {n: traced[0]["metrics"][n][1] for n in names}
    # Cross-process metrics: the pool's wall time comes from the untraced run
    # at the workload's parallelism, the job times from the traced run, and
    # the tracing overhead from the untraced run at parallelism 1.
    fleet_wall = [r["fleet_s"] for r in untraced]
    max_job = values.pop("pool.max_job_s")
    del units["pool.max_job_s"]
    derived = {
        "pool.fleet_wall_s": (fleet_wall, "s"),
        "pool.effective_parallelism": ([j / f for j, f in zip(values["pool.job_sum_s"], fleet_wall)], "ratio"),
        "pool.max_job_share": ([m / f for m, f in zip(max_job, fleet_wall)], "ratio"),
        "trace.overhead_share": ([t / r["wall_s"] - 1.0 for t, r in zip(values["trace.wall_s"], sequential)], "ratio"),
    }
    for name, (vals, unit) in derived.items():
        values[name], units[name] = vals, unit

    print(f"per-layer: {len(traced)} traced runs, spans of the last in {spans_out}")
    for n in values:
        print(fmt_row(n, units[n], values[n]))
    print("self time per span (last traced run):")
    for name, s in sorted(traced[-1]["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {s:>12.6f} s")
    print("tax kernels, measured against platforms::costs (report only, not recalibrated):")
    print(f"  {'kernel':<18} {'measured ns/B':>14} {'modeled ns/B':>13} {'measured/modeled':>17}")
    for k in ("compress", "decompress", "crc32c", "protowire_encode", "sha3"):
        m = statistics.median(values[f"taxes.{k}.ns_per_byte"])
        r = statistics.median(values[f"taxes.{k}.measured_over_modeled"])
        print(f"  {k:<18} {m:>14.4f} {m / r:>13.4f} {r:>17.4f}")
    metrics = {n: {"value": statistics.median(v), "unit": units[n]} for n, v in values.items()}
    return checker, attempted, failed, metrics


def check_names(metrics, key):
    """The metric set printed must be the one BENCHMARK.json declares."""
    if not os.path.isfile(BENCHMARK):
        raise BenchError(f"no {BENCHMARK} to check the metric names against")
    with open(BENCHMARK) as f:
        declared = [m["name"] for m in json.load(f)[key]]
    if sorted(declared) != sorted(metrics):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise BenchError(f"{key} metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}")


def pin(binary, seeds):
    pins = load_pins()
    for workload in WORKLOADS:
        table = pins["digests"].setdefault(workload, {})
        for seed in seeds:
            table[str(seed)] = child(binary, "e2e", "--workload", workload, "--seed", seed)["digests"]
            print(f"pinned {workload} seed {seed}", file=sys.stderr, flush=True)
    # One line per seed keeps the file short and its diffs readable.
    lines = ["{", f' "held_out_seed": {json.dumps(pins["held_out_seed"])},', ' "digests": {']
    for i, (workload, table) in enumerate(pins["digests"].items()):
        lines.append(f"  {json.dumps(workload)}: {{")
        rows = sorted(table.items(), key=lambda kv: int(kv[0]))
        for j, (seed, digests) in enumerate(rows):
            lines.append(f"   {json.dumps(seed)}: {json.dumps(digests)}" + ("," if j + 1 < len(rows) else ""))
        lines.append("  }" + ("," if i + 1 < len(pins["digests"]) else ""))
    lines += [" }", "}"]
    with open(PINS, "w") as f:
        f.write("\n".join(lines) + "\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="SEEDS", help="rewrite pins.json for seeds like 0-63,7340033")
    args = parser.parse_args()
    try:
        binary = build()
        if args.pin:
            pin(binary, parse_seeds(args.pin))
            return 0
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        if args.seed < 0:
            parser.error("--seed must be a non-negative integer")
        measure = measure_trace if args.trace else measure_e2e
        checker, attempted, failed, metrics = measure(binary, args.workload, args.seed, args.seconds)
        check_names(metrics, "per_layer" if args.trace else "end_to_end")
    except BenchError as e:
        print(f"fleetbench: {e}", file=sys.stderr)
        return 1
    if not checker.pinned:
        basis = "seed not pinned; runs checked against each other"
    elif args.seed == load_pins()["held_out_seed"]:
        basis = "pinned digests for the held-out seed"
    else:
        basis = "pinned digests for this seed"
    print(f"output check: {basis}, {failed} of {attempted} runs failed")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
