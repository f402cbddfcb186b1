"""Benchmark of the pia2 engine: time to a table and time to a verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload run is a fresh process (child.py) that sets up, runs the
workload's operations one after another and checks every output against
an independent reference.  Fresh processes keep the engine's lazily
filled caches inside the timed operations, as every CLI invocation pays
for them.  Runs repeat one at a time until S seconds have passed (at
least three); the figures are medians over the runs.  setup_s is the
median over these runs and SETUP_RUNS more processes that stop at the
first operation.  Times are given at a reference host speed (speed.py):
a fixed unit of work sampled before, during and after each operation
cancels the speed swings of a shared host.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced runs (at least one and two), reports the per-layer metrics of
the traced runs, the tracing overhead (traced minus untraced wall_s), and
checks that every count repeats exactly between traced runs.  --smoke
runs every operation and check of every workload at tiny bounds, plus
the traced-count determinism and BENCHMARK.json consistency checks, in a
few seconds; it is the benchmark's own test.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The process exits 1 when any
check fails and 2 on a usage error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics
from workloads import BOUNDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DEADLINE_S = 170          # a run must end within 180 s
MIN_RUNS = 3
SETUP_RUNS = 8
MAX_RUNS = 60


class ChildFailed(Exception):
    pass


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run_child(workload, seed, mode, bounds, timeout):
    """One child process; mode is run, trace or setup."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           mode, bounds]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t_spawn)], capture_output=True, text=True,
                              timeout=max(timeout, 1), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} run exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} run exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.monotonic() - t_spawn
    if mode == "setup":
        return res
    res["traced"] = mode == "trace"
    res["wall_s"] = sum(o["seconds"] for o in res["ops"])
    res["raw_wall_s"] = sum(o["raw_seconds"] for o in res["ops"])
    for kind in ("table", "verify"):
        res[kind + "_s"] = sum(o["seconds"] for o in res["ops"] if o["kind"] == kind)
    return res


def run_workload(workload, seed, seconds, trace, bounds):
    """Closed loop: one run at a time until `seconds` have passed."""
    start = time.monotonic()
    plan = [False, True, True] if trace else [False] * MIN_RUNS
    runs = []
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= len(plan):
            typical = statistics.median(r["elapsed_s"] for r in runs)
            if elapsed + typical > seconds or len(runs) >= MAX_RUNS:
                break
            # under tracing, alternate untraced and traced runs
            plan.append(trace and not plan[-1])
        mode = "trace" if plan[len(runs)] else "run"
        runs.append(run_child(workload, seed, mode, bounds, DEADLINE_S - elapsed))
    return runs


def run_setups(workload, seed, bounds, start):
    """SETUP_RUNS processes that stop at the first operation, so that
    setup_s is a median over more set-ups than there are runs."""
    return [run_child(workload, seed, "setup", bounds,
                      DEADLINE_S - (time.monotonic() - start))
            for _ in range(SETUP_RUNS)]


def failures(runs):
    attempted = sum(o["attempted"] for r in runs for o in r["ops"])
    failed = sum(o["failed"] for r in runs for o in r["ops"])
    failed_ops = sorted({o["name"] for r in runs for o in r["ops"] if o["failed"]})
    return attempted, failed, failed_ops


def end_to_end(runs, setups):
    med = {k: statistics.median(r[k] for r in runs)
           for k in ("wall_s", "table_s", "verify_s", "peak_rss_mb")}
    med["setup_s"] = statistics.median(r["setup_s"] for r in runs + setups)
    med["tuples_per_s"] = runs[0]["work"]["tuples"] / med["wall_s"]
    return med


def per_layer(traced, untraced):
    """Counts from the first traced run (all traced runs must agree),
    times as medians over the traced runs."""
    first = traced[0]["trace"]
    counts, missing, work = first["counts"], set(first["missing"]), traced[0]["work"]

    def med(get):
        return statistics.median(get(r["trace"]) for r in traced)

    calls = counts.get("transfer.transfer_calls", 0)
    values = {
        "symbols.busy_s": med(lambda t: t["self_s"].get("symbols", 0.0)),
        "transfer.self_s": med(lambda t: t["self_s"].get("transfer", 0.0)),
        "transfer.yield": counts.get("transfer.nonzero_results", 0) / calls if calls else None,
        "transfer.off_scan_share":
            counts.get("transfer.off_scan_calls", 0) / calls if calls else None,
        "transfer.slices_memoized": work["slices_memoized"],
        "transfer.slices_nonzero": work["slices_nonzero"],
        "table.entries": work["table_entries"],
        "table.dumps_s": med(lambda t: t["span_s"].get("OperationTable.dumps", 0.0)),
        "ainf.stasheff_tuples": work["stasheff_tuples"],
        "ainf.self_s": med(lambda t: t["self_s"].get("ainf", 0.0)),
        "functors.self_s": med(lambda t: t["self_s"].get("functors", 0.0)),
        "complexes.busy_s": med(lambda t: t["self_s"].get("complexes", 0.0)),
        "linalg.busy_s": med(lambda t: t["self_s"].get("linalg", 0.0)),
        "cli.self_s": med(lambda t: t["self_s"].get("cli", 0.0)),
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced),
        "trace.spans": len(first["spans"]),
    }
    out = {}
    for name, _unit, _better, needs, _moves in metrics.PER_LAYER:
        if any(n in missing for n in needs):
            out[name] = None
        else:
            out[name] = values[name] if name in values else counts.get(name, 0)
    return out


def count_mismatches(runs):
    """Names of work counts (all runs) and layer counts (traced runs)
    that differ between runs of the same workload and seed."""
    bad = {k for r in runs for k in r["work"] if r["work"][k] != runs[0]["work"][k]}
    traced = [r for r in runs if r["traced"]]
    if traced:
        ref = traced[0]["trace"]["counts"]
        bad |= {k for r in traced for k in set(ref) | set(r["trace"]["counts"])
                if r["trace"]["counts"].get(k) != ref.get(k)}
    return sorted(bad)


def write_spans(workload, seed, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump([s for r in traced for s in r["trace"]["spans"]], fh)
    return os.path.relpath(path, ROOT)


def measure(workload, seed, seconds, trace, bounds="full"):
    """Run one workload; returns (result line, report)."""
    start = time.monotonic()
    runs = run_workload(workload, seed, seconds, trace, bounds)
    setups = [] if trace else run_setups(workload, seed, bounds, start)
    attempted, failed, failed_ops = failures(runs)
    mismatched = count_mismatches(runs)
    attempted += 1                      # the determinism check itself
    failed += bool(mismatched)
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    e2e = end_to_end(untraced, setups)
    values = per_layer(traced, untraced) if trace else e2e
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": metrics.UNITS[k]}
                          for k, v in values.items()}}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "bounds": bounds, "machine": machine(), "runs": len(runs),
        "traced_runs": len(traced), "work": runs[0]["work"],
        "error_rate": failed / attempted,
        "failed_operations": failed_ops, "count_mismatches": mismatched,
        "per_run": [{k: r[k] for k in ("wall_s", "table_s", "verify_s", "setup_s",
                                       "raw_wall_s", "raw_setup_s", "peak_rss_mb",
                                       "traced")} for r in runs],
        "setup_runs": [{k: r[k] for k in ("setup_s", "raw_setup_s")} for r in setups],
        "absent": sorted(k for k, v in values.items() if v is None),
        "untraced": e2e,
    }
    if traced:
        report["spans_file"] = write_spans(workload, seed, traced)
    return result, report


def print_result(result, report):
    print(json.dumps(report, sort_keys=True))
    print(f"# {report['workload']} seed={report['seed']} runs={report['runs']} "
          f"error_rate={report['error_rate']} ratio")
    for name, m in result["metrics"].items():
        print(f"# {name:<28} {m['value']} {m['unit']}")
    print(json.dumps(result, sort_keys=True))


def smoke():
    """Every workload at tiny bounds, traced twice and untraced once."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    if declared != [(n, u, b) for n, u, b, _ in metrics.END_TO_END]:
        problems.append("end_to_end metrics differ from metrics.py")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != \
            [(n, u, b) for n, u, b, *_ in metrics.PER_LAYER]:
        problems.append("per_layer metrics differ from metrics.py")
    if [w["name"] for w in bench["workloads"]] != list(BOUNDS):
        problems.append("workloads differ from workloads.py")
    if [m["bound"] for m in bench["end_to_end"]] != [b for *_, b in metrics.END_TO_END]:
        problems.append("bounds differ from metrics.py")
    for workload in BOUNDS:
        for trace in (False, True):
            result, report = measure(workload, 1, 0, trace, "smoke")
            print_result(result, report)
            if not result["correct"]:
                problems.append(f"{workload}: failed {report['failed_operations']} "
                                f"mismatched {report['count_mismatches']}")
            if report["absent"]:
                print(f"smoke: note {workload}: absent metrics {report['absent']}",
                      file=sys.stderr)
            for name, m in result["metrics"].items():
                if not trace and not m["value"] > 0:
                    problems.append(f"{workload}: {name} is {m['value']}")
    for p in problems:
        print("smoke: FAIL " + p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(BOUNDS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(result, report)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
