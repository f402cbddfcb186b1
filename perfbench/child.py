"""One workload run in a fresh process.

Usage (started by run.py): child.py WORKLOAD SEED MODE BOUNDS T_SPAWN

T_SPAWN is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, `import pia2` and the
construction of backends, categories and contractions.  MODE is run,
trace or setup.  Prints one JSON object: per-operation timings and checks,
work counts, peak RSS and, under trace, the layer counters, self times and
spans.  Under setup the process stops at the first operation and prints
only the set-up time.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    workload, seed, mode, bounds, t_spawn = argv
    seed, t_spawn = int(seed), float(t_spawn)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    import pia2
    if not os.path.abspath(pia2.__file__).startswith(src + os.sep):
        raise SystemExit(f"pia2 imported from {pia2.__file__}, not from {src}")
    import layers
    import workloads

    tracer = None
    if mode == "trace":
        tracer = layers.Tracer(f"{workload}/{seed}/{os.getpid()}")
        tracer.install(layers.TARGETS)
    ctx = workloads.Context(time.monotonic, tracer, calibrate=bounds != "smoke",
                            setup_only=mode == "setup")
    try:
        workloads.WORKLOADS[workload](ctx, workloads.BOUNDS[workload][bounds], seed)
    except workloads.SetupDone:
        setup = {"setup_s": (ctx.first_op - t_spawn) * ctx.setup_scale,
                 "raw_setup_s": ctx.first_op - t_spawn}
        sys.stdout.write(json.dumps(setup) + "\n")
        return

    unchecked = [o["name"] for o in ctx.ops if o["failed"] is None]
    if unchecked:
        raise SystemExit(f"operations without a reference check: {unchecked}")
    out = {
        "setup_s": (ctx.first_op - t_spawn) * ctx.setup_scale,
        "raw_setup_s": ctx.first_op - t_spawn,
        "ops": ctx.ops,
        "work": ctx.work,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = {
            "counts": dict(tracer.counts),
            "self_s": dict(tracer.self_s),
            "span_s": dict(tracer.span_s),
            "missing": sorted(tracer.missing),
            "spans": tracer.span_records(),
        }
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
