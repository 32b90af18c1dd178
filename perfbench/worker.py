"""One benchmark process: a cold set-up, then passes over the workload's
jobs in a closed loop while another pass fits in --seconds (at least one).
run.py starts it in a fresh interpreter and reads the JSON it writes to
--result.

Modes:
  setup  set up and stop (one more cold set-up sample)
  run    set up, then run every job once per pass, untraced
  trace  trace the set-up, then run each job untraced and traced in turn
"""

import time

T0 = time.perf_counter()  # set-up is timed from the fresh interpreter on

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import qlip  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _timed(job, state, out):
    start = time.perf_counter()
    try:
        value, failed = job.run(state, out), False
    except Exception:  # a failing job costs its checks, the loop goes on
        traceback.print_exc()
        value, failed = None, True
    return time.perf_counter() - start, value, failed


def _checked(job, state, out, value, failed):
    if not failed:
        try:
            oks = [bool(ok) for ok in job.check(state, out, value)]
        except Exception:
            traceback.print_exc()
        else:
            if len(oks) == job.checks:
                return oks
            print("perfbench: %s made %d checks, expected %d"
                  % (job.metric, len(oks), job.checks), file=sys.stderr)
    return [False] * job.checks


def _artifact_bytes(out):
    # the manifest records wall-clock time, so its length varies run to run
    return sum(p.stat().st_size for p in Path(out).rglob("*")
               if p.is_file() and p.name != "manifest.json")


def _env():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    src = (Path.cwd() / "src" / "qlip").resolve()
    if Path(qlip.__file__).resolve().parent != src:
        sys.exit("perfbench: qlip was imported from %s, not from %s"
                 % (qlip.__file__, src))

    wl = workloads.WORKLOADS[args.workload]
    tracer = tr.Tracer() if args.mode == "trace" else None
    with tracer or contextlib.nullcontext():
        state = wl.setup(args.seed)
    result = {"setup_s": time.perf_counter() - T0, "env": _env()}
    if args.mode != "setup":
        result.update(_loop(wl, state, args, tracer))
    Path(args.result).write_text(json.dumps(result))


def _loop(wl, state, args, tracer):
    work = Path(args.work)
    plain = {job.metric: [] for job in wl.jobs}
    traced = {job.metric: [] for job in wl.jobs}
    checks = []
    artifact_bytes = 0
    snaps = [tracer.snapshot()] if tracer else []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for job in wl.jobs:
            out = work / ("%s-%d" % (job.metric, passes))
            dt, value, failed = _timed(job, state, out)
            plain[job.metric].append(dt)
            checks += _checked(job, state, out, value, failed)
            shutil.rmtree(out, ignore_errors=True)
            if tracer is None:
                continue
            out = work / ("%s-%d-traced" % (job.metric, passes))
            with tracer:
                dt, value, failed = _timed(job, state, out)
            traced[job.metric].append(dt)
            checks += _checked(job, state, out, value, failed)
            if passes == 0 and out.is_dir():  # only CLI jobs write there
                artifact_bytes += _artifact_bytes(out)
            shutil.rmtree(out, ignore_errors=True)
        passes += 1
        if tracer:
            snaps.append(tracer.snapshot())
        # another pass only if one more like this one ends in time
        now = time.perf_counter()
        if 2.0 * now - pass_start - start > args.seconds:
            break

    result = {
        "passes": passes,
        "jobs": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(checks),
        "failed": checks.count(False),
    }
    if tracer:
        layers = tr.layer_metrics(
            snaps[0], [tr.delta(b, a) for a, b in zip(snaps, snaps[1:])])
        run_traced = sum(statistics.median(v) for v in traced.values())
        run_plain = sum(statistics.median(v) for v in plain.values())
        layers["cli.artifact_bytes"] = artifact_bytes
        layers["trace.run_s"] = run_traced
        layers["trace.untraced_run_s"] = run_plain
        layers["trace.overhead"] = run_traced / run_plain - 1.0
        result["layers"] = layers
    return result


if __name__ == "__main__":
    main()
