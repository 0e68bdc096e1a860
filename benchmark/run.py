"""Benchmark of graphdgla: the command that runs a workload and reports it.

    python3 benchmark/run.py --workload {solve,homology,star} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; graphdgla is imported from its ``src/``.
The load is a closed loop with one client: samples run one at a time, each in
a fresh child process (``sample.py``), and the next starts only when the
previous one has returned.  Samples are taken for ``--seconds`` (at least
one); a sample is not started when the longest one so far shows it would
overrun.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced samples, at least two of each, checks that the
traced counts repeat exactly, and reports the per-layer metrics, including
the tracing overhead (traced minus untraced wall time).

A human-readable summary goes to stdout; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (does not import graphdgla)

SAMPLE = os.path.join(HERE, "sample.py")
EXIT_NO_PACKAGE = 4
SETUP_PROBES = 6  # extra set-up-only children per run, for a steadier setup_s
BUDGET_S = 170.0  # every run ends well within the 180 s a run may take
# per-layer values that are timings; every other per-layer value is a count
# or a ratio of counts and must repeat exactly between traced samples
TIMED_SUFFIXES = (".self_s", ".diagnostics_share")


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def spawn(workload: str, seed: int, trace: int, deadline: float, setup_only=False):
    """Run one child sample; its report, or None if it crashed."""
    cmd = [sys.executable, "-I", SAMPLE, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("sample timed out", file=sys.stderr)
        return None
    if proc.returncode == EXIT_NO_PACKAGE:
        raise Fatal(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("sample exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]), file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    return json.loads(lines[-1])


def run_samples(workload, seed, modes, seconds, deadline, minimum=1) -> tuple[list, int]:
    """Closed loop cycling through trace ``modes``.

    Returns ((mode, report) for each sample that finished, samples that
    crashed).  Stops once ``minimum`` samples are done and the longest sample
    so far would overrun ``seconds``.
    """
    samples, crashed = [], 0
    start = time.monotonic()
    longest = 0.0
    while True:
        for trace in modes:
            t0 = time.monotonic()
            report = spawn(workload, seed, trace, deadline)
            longest = max(longest, time.monotonic() - t0)
            if report is None:
                crashed += 1
            else:
                samples.append((trace, report))
        now = time.monotonic()
        done = len(samples) + crashed
        if (done >= minimum and now - start + longest > seconds) or now + longest > deadline:
            return samples, crashed


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fastest_ops(reports: list) -> list:
    """Each operation's fastest repetition over the samples, in ms.

    Every sample makes the same operations in the same order from a cold
    process, so position i is the same operation in each.  The host's
    slow bursts last a few seconds and only ever add time; the fastest
    repetition keeps them out of the typical latency (p50), while the tail
    (p90) is taken over every repetition, bursts included, as a user sees it.
    A sample that raised as a whole has no operations and is left out.
    """
    repetitions = [r["ops_ms"] for r in reports if r["ops_ms"]]
    return [min(times) for times in zip(*repetitions)]


def end_to_end(workload, seed, seconds, deadline):
    samples, crashed = run_samples(workload, seed, (0,), seconds, deadline)
    reports = [report for _, report in samples]
    probes = [spawn(workload, seed, 0, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    if not reports:
        raise Fatal("no sample of %s finished" % workload)
    ops = [op for r in reports for op in r["ops_ms"]]
    if not ops:
        raise Fatal("no operation of %s finished" % workload)
    fastest = fastest_ops(reports)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports + probes if r),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "op_ms.p50": percentile(fastest, 0.5),
        "op_ms.p90": percentile(ops, 0.9),
    }
    notes = [
        "samples %d (+%d set-up probes), operations %d per sample, %d in all"
        % (len(reports), len(probes), len(fastest), len(ops)),
        "sample wall_s: " + " ".join("%.4f" % r["wall_s"] for r in reports),
    ]
    return metrics, reports, crashed, notes


def per_layer(workload, seed, seconds, deadline):
    # untraced and traced samples alternate, so that the machine's slow
    # stretches fall on both alike
    samples, crashed = run_samples(workload, seed, (0, 1), seconds, deadline, minimum=4)
    plain = [report for trace, report in samples if not trace]
    traced = [report for trace, report in samples if trace]
    if not plain or len(traced) < 2:
        raise Fatal("too few samples of %s finished" % workload)
    layers = [r["layers"] for r in traced]
    metrics, repeat_ok = {}, True
    for name in layers[0]:
        if name.endswith(TIMED_SUFFIXES):
            metrics[name] = statistics.median(layer[name] for layer in layers)
        else:
            metrics[name] = layers[0][name]
            if any(layer[name] != metrics[name] for layer in layers[1:]):
                print("count %s differs between traced samples" % name, file=sys.stderr)
                repeat_ok = False
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    notes = [
        "samples %d untraced, %d traced; median wall %.4f s untraced, %.4f s traced"
        % (len(plain), len(traced), plain_wall, traced_wall),
        "counts repeat across traced samples: %s" % repeat_ok,
    ]
    return metrics, plain + traced, crashed, notes, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    try:
        if not os.path.isfile(os.path.join("src", "graphdgla", "__init__.py")):
            raise Fatal("run from the root of a graphdgla checkout: src/graphdgla not found")
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        repeat_ok = True
        if args.trace:
            measured, reports, crashed, notes, repeat_ok = per_layer(
                args.workload, args.seed, args.seconds, deadline)
            wanted = spec["per_layer"]
        else:
            measured, reports, crashed, notes = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise Fatal("metrics not measured: %s" % ", ".join(missing))
    except (Fatal, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    checks = workloads.WORKLOADS[args.workload].checks_for(args.seed)
    attempted = sum(r["checks"] for r in reports) + crashed * checks
    failed = sum(r["failed"] for r in reports) + crashed * checks
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print("workload %s, seed %d, closed loop, one client, fresh process per sample"
          % (args.workload, args.seed))
    for line in notes:
        print("  " + line)
    for name, m in metrics.items():
        print("  %-40s %s %s" % (name, m["value"], m["unit"]))
    print("  %-40s %s ratio (%d of %d checks failed)" % ("fail_ratio", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
