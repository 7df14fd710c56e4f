"""Run one sumdiff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports the package from ``src``, so
nothing needs installing.  Workloads (see workloads.py): sweep, extract,
verify.  Each run starts fresh worker processes with BLAS threads pinned
to 1:

--trace 0   SETUP_WORKERS processes only set up, for the set-up time; one
            more sets up and runs the workload for --seconds, with a
            reference loop between calls that measures the host's speed.
            Prints the end-to-end metrics of BENCHMARK.json.
--trace 1   one process makes passes over a fixed prefix of the stream,
            running each call untraced and traced, and prints the
            per-layer metrics.  The run fails unless every count repeats
            exactly from pass to pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Results with the environment go
to .perfbench/result-<workload>-seed<seed>-trace<t>.json, the spans of
the first traced pass to .perfbench/spans-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_WORKERS = 12
TAIL_WINDOW = 500
# Mean and 90th percentile of worker.reference_loop's wall time on the host
# the bounds were set on (2 vCPUs, Python 3.11, numpy 2.4).  Timings are
# reported as if the host had run at these speeds.
REF_PROBE_S = 2.5e-3
REF_PROBE_P90_S = 3.2e-3
DEADLINE_S = 170  # a run must end within 180 s, workers included
WORKLOADS = ("sweep", "extract", "verify")  # workloads.py loads numpy; run.py stays stdlib-only
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker(args, mode, workdir, deadline, spans=None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in PINNED})
    env["PYTHONHASHSEED"] = "0"
    result = workdir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir), "--result", str(result)]
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker was still running at the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tail(times_ms):
    """Highest percentile with at least ten samples beyond it.

    Taken in consecutive windows of about TAIL_WINDOW calls and reported as
    the median over windows: over a whole extract run it would be p99.8,
    the top ten of about 5000 calls, and that read 0.14 to 0.22 apart
    (quartile spread over median) between runs.  A run of fewer than
    2 * TAIL_WINDOW calls is one window.  Returns (value, percentile,
    windows).
    """
    n = len(times_ms)
    k = max(1, n // TAIL_WINDOW)
    values, percentiles = [], []
    for i in range(k):
        ordered = sorted(times_ms[i * n // k:(i + 1) * n // k])
        m = len(ordered)
        values.append(ordered[m - 11] if m > 10 else ordered[-1])
        percentiles.append(100.0 * (m - 10) / m if m > 10 else 100.0)
    return statistics.median(values), statistics.median(percentiles), k


def end_to_end(args, work, deadline) -> tuple[dict, dict]:
    """Metrics of one timed worker and the set-up times of SETUP_WORKERS more.

    The timed worker also runs worker.reference_loop between calls, and
    its times are scaled by REF_PROBE_S over the loop's mean, so a run in
    which the host spends more time at its slow speed does not read as a
    slower program.  The tail is scaled by REF_PROBE_P90_S over the loop's
    90th percentile instead: the slowest calls are the ones that ran at
    the slow speed, and that percentile measures it.  The unscaled values
    are kept in the result file under "raw".  Set-up times are not
    scaled: a fresh process's set-up speed does not follow the loop's.
    Half of the set-up workers run before the timed worker and half
    after, so their median spans the run.
    """
    def setups(first, last):
        return [_worker(args, "setup", work / f"setup-{i}", deadline)
                for i in range(first, last)]
    results = setups(0, SETUP_WORKERS // 2)
    res = _worker(args, "timed", work / "timed", deadline)
    results += [res] + setups(SETUP_WORKERS // 2, SETUP_WORKERS)
    scale = REF_PROBE_S / res["probe_s"]
    times_ms = [t * 1e3 for t in res["times"]]
    tail, pct, windows = _tail(times_ms)
    raw = {
        "items_per_s": res["items"] / sum(res["times"]),
        "cmd_p50_ms": statistics.median(times_ms),
        "cmd_tail_ms": tail,
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    values = dict(raw, items_per_s=raw["items_per_s"] / scale,
                  cmd_p50_ms=raw["cmd_p50_ms"] * scale,
                  cmd_tail_ms=tail * REF_PROBE_P90_S / res["probe_p90_s"])
    res.pop("times")
    res.update(raw=raw, setup_samples=[r["setup_s"] for r in results],
               tail_percentile=pct, tail_windows=windows, samples=len(times_ms),
               failed_frac=res["failed"] / res["attempted"])
    return values, res


def per_layer(args, work, deadline) -> tuple[dict, dict]:
    res = _worker(args, "trace", work / "trace", deadline,
                  spans=work.parent / f"spans-{args.workload}-seed{args.seed}.json")
    res["failed_frac"] = res["failed"] / res["attempted"]
    return res.pop("metrics"), res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sumdiff" / "cli.py").is_file():
        print(f"error: no sumdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        values, detail = (per_layer if args.trace else end_to_end)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    detail["env"].update(nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                         cpu_model=_cpu_model())
    correct = detail["failed"] == 0 and not detail.get("count_mismatch")

    print(f"sumdiff benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: {json.dumps(detail['env'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {detail['failed_frac']:>14.6g} fraction "
          f"({detail['failed']} of {detail['attempted']} invocations)")
    if "tail_percentile" in detail:
        print(f"  cmd_tail_ms is p{detail['tail_percentile']:.2f}, median over "
              f"{detail['tail_windows']} window(s) of {detail['samples']} invocations; "
              f"setup_s is the median of {len(detail['setup_samples'])} workers")
        print(f"  times scaled by {REF_PROBE_S * 1e3:g} ms over the reference loop's mean "
              f"{detail['probe_s'] * 1e3:.4g} ms (tail: {REF_PROBE_P90_S * 1e3:g} ms over its "
              f"p90 {detail['probe_p90_s'] * 1e3:.4g} ms); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in detail["raw"].items()
                          if k.endswith(("_ms", "_per_s"))))
    probe = detail["edge_probe"]
    print("  known defect near gamma12 = -gamma: "
          + (f"still present ({probe})" if probe else
             "gone, lower NEG_GAP_MIN_EXP in workloads.py"))
    for reason in detail["failures"]:
        print(f"  FAILED {reason}")
    for key in detail.get("count_mismatch", ()):
        print(f"  COUNT DIFFERS between traced passes: {key}")

    with open(state / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "metrics": metrics, "detail": detail}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
