"""Benchmark worker: one fresh process that sets up a workload and drives it.

run.py starts it with ``src`` on PYTHONPATH and BLAS threads pinned to 1.
It calls ``sumdiff.cli.main(argv)`` in-process, one call after another
(a closed loop with one client), and checks every output outside the timed
region.  Modes:

setup   set up (import, generate inputs, warm up) and stop
timed   set up, then run the workload stream for --seconds
trace   set up, then make passes over the first PASS_SIZE calls of the
        stream, each call untraced and traced, until --seconds have passed
        and at least two passes are done

The result is one JSON object written to --result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up is timed from before numpy and sumdiff load

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import traceback

import numpy as np

import sumdiff.cli as cli
from tracer import Tracer
from workloads import WORKLOADS, edge_probe

# Calls per trace pass, a few seconds each on a 2-CPU host; sweep's 8 calls
# make one full cycle of its main strata (see workloads.Draws).
PASS_SIZE = {"sweep": 8, "extract": 200, "verify": 60}
FAILURES_KEPT = 5
PROBE_SHARE = 0.05  # share of the timed phase spent in reference_loop

_REF = (np.arange(256).reshape(16, 16) % 7 + 1j * (np.arange(256).reshape(16, 16) % 5)) / 16.0


def reference_loop() -> float:
    """Fixed work of the kinds the CLI does: 16-wide complex row rotations
    and an indented JSON encoding.  Returns its wall seconds.  It does not
    touch sumdiff, so its mean over a run measures the host's speed during
    that run, not the program's.  The mean, because the host switches
    between a fast and a slow speed every 10-200 ms, and the mean follows
    the share of time spent in each."""
    start = time.perf_counter()
    a = _REF.copy()
    for p in range(15):
        for q in range(p + 1, 16):
            rp = 0.6 * a[p, :] + 0.8j * a[q, :]
            a[q, :] = 0.8j * a[p, :] + 0.6 * a[q, :]
            a[p, :] = rp
            a[q, p] = np.conj(a[p, q])
    json.dumps([[[z.real, z.imag] for z in row] for row in a.tolist()], indent=2)
    return time.perf_counter() - start


def invoke(argv):
    """Run the CLI once; return (exit code, wall seconds, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed call, exit 1 as from the shell
            traceback.print_exc(file=out)
            rc = 1
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue()


class Runner:
    """Runs and checks invocations of one workload, tallying the outcome."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def run(self, inv):
        """Invoke, then check outside the timed region.

        Returns (wall seconds, bytes written to stdout and --out, check passed).
        """
        rc, elapsed, stdout = invoke(inv.argv)
        out_bytes = len(stdout.encode())
        if inv.out_path is not None and os.path.exists(inv.out_path):
            out_bytes += os.path.getsize(inv.out_path)
        try:
            reason = self.workload.check(inv, rc, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"check raised {exc!r}"
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{' '.join(inv.argv)}: {reason}")
        return elapsed, out_bytes, reason is None


def set_up(args):
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup(lambda argv: invoke(argv)[0])
    warm = Runner(workload)
    for inv in workload.warmup():
        warm.run(inv)
    if warm.failures:
        raise RuntimeError(f"warm-up failed: {warm.failures[0]}")
    return workload, time.perf_counter() - _START


def timed(workload, seconds):
    """Run the stream for ``seconds``; after each call, run reference_loop
    until PROBE_SHARE of the call's time is spent on it."""
    runner = Runner(workload)
    times, items = [], 0
    probes, debt = [], 0.0
    stream = workload.stream()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        inv = next(stream)
        elapsed, _, ok = runner.run(inv)
        times.append(elapsed)
        items += inv.items if ok else 0
        debt += PROBE_SHARE * elapsed
        while debt > 0:
            probes.append(reference_loop())
            debt -= probes[-1]
    return runner, {"times": times, "items": items, "probe_s": statistics.fmean(probes),
                    "probe_p90_s": statistics.quantiles(probes, n=10)[8]}


def trace(workload, seconds, spans_path):
    """Passes over the first PASS_SIZE calls; each call runs untraced and
    traced back to back, in alternating order, so the overhead is measured
    on the same inputs at the same host speed."""
    runner = Runner(workload)
    invocations = list(itertools.islice(workload.stream(), PASS_SIZE[workload.name]))
    untraced = traced = 0.0
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        tracer = Tracer()
        out_bytes = 0
        for i, inv in enumerate(invocations):
            tracer.request = i
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer:
                        elapsed, nbytes, _ = runner.run(inv)
                    traced += elapsed
                    out_bytes += nbytes
                else:
                    untraced += runner.run(inv)[0]
        metrics = tracer.metrics()
        metrics["cli.out_bytes"] = out_bytes
        passes.append(metrics)
        if len(passes) == 1 and spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["request", "name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    counts = {k: v for k, v in passes[0].items() if not k.endswith(".self_s")}
    mismatched = sorted({k for p in passes[1:] for k in counts if p[k] != counts[k]})
    metrics = dict(counts)
    for key in passes[0]:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(p[key] for p in passes)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return runner, {"metrics": metrics, "passes": len(passes), "pass_size": len(invocations),
                    "count_mismatch": mismatched}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="where trace mode writes its spans")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workload, setup_s = set_up(args)
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        if args.mode == "timed":
            runner, run = timed(workload, args.seconds)
        else:
            runner, run = trace(workload, args.seconds, args.spans)
        result.update(run, attempted=runner.attempted, failed=len(runner.failures),
                      failures=runner.failures[:FAILURES_KEPT],
                      edge_probe=edge_probe(args.workdir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
