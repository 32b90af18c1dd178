"""qlip benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {cone,grid,currents} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a qlip checkout; the package is imported from src/.
Every process is a fresh interpreter with one BLAS/OpenMP thread and a fixed
hash seed, and writes only under .perfbench-work/ in the checkout, which is
removed afterwards.

--trace 0 measures the end-to-end metrics: the median of several cold
set-ups, each in its own interpreter, then one process that sets up once more
and runs the workload's jobs one after another (a closed loop) in passes, as
many as fit in S seconds and at least one.  A job's metric is the median of
its wall times; run_s is the sum of those medians.

--trace 1 measures the per-layer metrics instead: one process wraps the qlip
layers listed in perfbench/tracer.py, traces the set-up, then runs every job
untraced and traced in turn, so the tracing overhead is measured against the
same passes.

The per-job and human-readable lines go first; the last line of standard
output is the JSON result.  See perfbench/NOTES.md for the workloads and the
layer table.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Cold set-ups per untraced run.  A cone set-up takes about 30 s (the (2, 2)
# face lattice), so that workload has a single sample per run.
SETUP_SAMPLES = {"cone": 1, "grid": 3, "currents": 3}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

# Every run, child processes included, must end within this many seconds.
TIME_LIMIT = 170.0

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the worker processes of one benchmark run."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.work = root / ".perfbench-work" / ("%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        self.deadline = time.monotonic() + TIME_LIMIT
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(self.work), **CHILD_ENV)
        self.count = 0

    def _call(self, argv):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting %s" % argv[1:3])
        sys.stderr.flush()
        try:
            # the worker's own output goes to stderr: stdout ends in the result
            proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                  stdin=subprocess.DEVNULL, stdout=sys.stderr,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("a worker ran past the %.0f s limit" % TIME_LIMIT)
        if proc.returncode != 0:
            raise BenchError("worker exited with code %d" % proc.returncode)

    def warm_up(self):
        """Import the package once so bytecode compilation is not timed."""
        self._call([sys.executable, "-c", "import qlip.cli"])

    def worker(self, mode):
        self.count += 1
        result = self.work / ("result-%d.json" % self.count)
        self._call([sys.executable, str(HERE / "worker.py"),
                    "--workload", self.args.workload,
                    "--seed", str(self.args.seed),
                    "--seconds", str(self.args.seconds),
                    "--mode", mode, "--result", str(result),
                    "--work", str(self.work)])
        return json.loads(result.read_text())


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _line(name, value, unit, note=""):
    print("%-52s %14.6g %-6s %s" % (name, value, unit, note))


def _header(args, res):
    env = res["env"]
    print("perfbench workload=%s seed=%d seconds=%g trace=%d passes=%d"
          % (args.workload, args.seed, args.seconds, args.trace,
             res["passes"]))
    print("env nproc=%d python=%s numpy=%s scipy=%s"
          % (env["nproc"], env["python"], env["numpy"], env["scipy"]))


def _fail_frac(res):
    _line("fail_frac", res["failed"] / res["attempted"], "ratio",
          "%d of %d checks failed" % (res["failed"], res["attempted"]))


def _end_to_end(runner, args):
    setups = [runner.worker("setup")["setup_s"]
              for _ in range(SETUP_SAMPLES[args.workload] - 1)]
    res = runner.worker("run")
    setups.append(res["setup_s"])
    jobs = {name: statistics.median(times)
            for name, times in res["jobs"].items()}
    values = {"setup_s": statistics.median(setups),
              "run_s": sum(jobs.values()),
              "peak_rss_mb": res["peak_rss_mb"]}
    _header(args, res)
    for name, unit in END_TO_END:
        _line(name, values[name], unit)
    _fail_frac(res)
    for name, value in jobs.items():
        _line(name, value, "s", "median of %d" % len(res["jobs"][name]))
    print("setup samples (s): %s" % " ".join("%.4f" % s for s in setups))
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return res, metrics


def _per_layer(runner, args):
    import tracer

    res = runner.worker("trace")
    layers = res["layers"]
    _header(args, res)
    _fail_frac(res)
    metrics = {}
    for name, unit, moves in tracer.metric_table():
        _line(name, layers[name], unit, moves)
        metrics[name] = _metric(layers[name], unit)
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "qlip" / "__init__.py").is_file():
        print("perfbench: no src/qlip here; run from the root of a qlip "
              "checkout", file=sys.stderr)
        return 2
    # turn a termination request into an exception, so the running worker
    # is killed and waited for and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(root, args)
    runner.work.mkdir(parents=True)
    try:
        runner.warm_up()
        measure = _per_layer if args.trace else _end_to_end
        res, metrics = measure(runner, args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
