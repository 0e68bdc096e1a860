"""One benchmark sample in a fresh interpreter.

Imports graphdgla from ``src/`` of the current directory, builds the
workload's inputs from the seed, makes the timed calls, checks the outputs
and prints one JSON line.  ``run.py`` starts one of these per sample, so
every sample begins with cold in-process state, as a CLI user does.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
EXIT_NO_PACKAGE = 4


def peak_rss_mb() -> float:
    """This process's own peak resident set size.

    ``ru_maxrss`` carries over the parent's peak across exec, so the kernel's
    high-water mark of this process's memory map is read where there is one.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path[:0] = [HERE, src]
    try:
        import graphdgla
    except ImportError as exc:
        print("cannot import graphdgla from %s: %s" % (src, exc), file=sys.stderr)
        return EXIT_NO_PACKAGE
    if not os.path.abspath(graphdgla.__file__).startswith(src + os.sep):
        print("graphdgla imported from %s, not %s" % (graphdgla.__file__, src), file=sys.stderr)
        return EXIT_NO_PACKAGE
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    kind = workloads.WORKLOADS[args.workload]
    workload = kind(args.seed)
    report = {"setup_s": time.monotonic() - args.spawned_at, "checks": kind.checks_for(args.seed)}
    if not args.setup_only:
        t0 = time.perf_counter()
        try:
            ops_ms, failed = workload.run()
        except Exception:  # the sample fails as a whole; run.py counts it
            traceback.print_exc()
            ops_ms, failed = [], report["checks"]
        report["wall_s"] = time.perf_counter() - t0
        report["ops_ms"] = ops_ms
        report["failed"] = failed
        report["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            report["layers"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
