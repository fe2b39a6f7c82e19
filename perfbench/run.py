"""foamtor benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {mc,descent,chart} --seed N --seconds S --trace {0,1}

Run from the root of a source tree that holds ``src/foamtor``.  One caller in
one process issues the workload's jobs one after another (a closed loop), in
rounds of the workload's fixed job list, until about S seconds have passed.
Each job's output is checked against an independent route before its time
counts.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it stamps
the environment.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see perfbench/README.md).
"""

from __future__ import annotations

import os

# BLAS runs single-threaded: the job loop is one caller on one core, and the
# figures must not depend on what else the machine runs.  Set before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

# A fresh interpreter pays this before any command runs: import the package
# and its CLI, then load and reduce the workload's foams as `--foam` does.
# The child then times the calibration kernel, on whichever core it ran.
SETUP_CODE = """
import os, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import foamtor, foamtor.cli
for spec in sys.argv[3:]:
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            foam = foamtor.parse_foam(fh.read(), name=os.path.basename(spec))
    else:
        foam = foamtor.builtin(spec)
    foamtor.reduce_foam(foam)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
print(setup, calibrate.REFERENCE_S["scalar"] / calibrate.Speed("scalar").measure())
"""


def measure_setup(foams):
    """(reference, measured) median seconds of SETUP_REPEATS fresh interpreters,
    after one warm-up that leaves the bytecode cache in place."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)] + list(foams)
    raw, ref = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(argv, check=True, cwd=ROOT, capture_output=True, text=True)
        seconds, factor = map(float, out.stdout.split())
        if i:
            raw.append(seconds)
            ref.append(seconds * factor)
    return statistics.median(ref), statistics.median(raw)


class JobRun(NamedTuple):
    key: str
    seconds: float          # measured
    factor: float           # reference seconds per measured second (calibrate.py),
                            # the mean of the calibrations before and after the job
    ok: bool
    units: int
    relerr: float | None    # Monte Carlo relative standard error
    error: str | None


def run_job(job, seed, workdir, factor):
    """One job; only job.run is timed, not its check."""
    t0 = time.perf_counter()
    try:
        value = job.run(seed, workdir)
    except SystemExit as exc:             # argparse and cli abort with SystemExit
        error = "exit %r" % (exc.code,)
    except Exception:                     # job boundary: record, keep the loop going
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    else:
        seconds = time.perf_counter() - t0
        try:
            units, relerr = job.check(value, workdir)
        except (workloads.CheckFailed, OSError, ValueError, LookupError, TypeError) as exc:
            return JobRun(job.key, seconds, factor, False, 0, None,
                          "%s: %s" % (type(exc).__name__, exc))
        return JobRun(job.key, seconds, factor, True, units, relerr, None)
    return JobRun(job.key, time.perf_counter() - t0, factor, False, 0, None, error)


class Loop:
    """The closed loop: the round's jobs one after another, every result kept."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seeds = workloads.job_seeds(seed, workload)
        self.workdir = workdir
        self.speed = calibrate.Speed(workload.kernel)
        self.attempted = 0
        self.failures = []

    def _run(self, job, seed):
        run = run_job(job, seed, self.workdir, self.speed.factor())
        run = run._replace(factor=0.5 * (run.factor + self.speed.factor()))
        self.attempted += 1
        if not run.ok:
            self.failures.append((job.key, seed, run.error))
        return run

    def warm_up(self):
        """First job of each kind once, untimed: lazy imports and first calls
        into LAPACK happen here rather than in the first timed job."""
        kinds = set()
        for job, seed in zip(self.workload.jobs, self.seeds):
            if job.kind not in kinds:
                kinds.add(job.kind)
                self._run(job, seed)

    def rounds(self, seconds=None, count=None):
        """Repeat the round: `count` times, or as often as ends nearest to
        `seconds`.  Returns (job runs, rounds run)."""
        runs = []
        t0 = time.perf_counter()
        r = 0
        while True:
            runs += [self._run(job, seed) for job, seed in zip(self.workload.jobs, self.seeds)]
            r += 1
            wall = time.perf_counter() - t0
            if r == count or (count is None and wall + 0.5 * wall / r >= seconds):
                return runs, r


def job_medians(runs, reference=True):
    """key -> (median seconds, units, relerr) over the repeats whose check passed.

    Every repeat of a job does the same work, so the median sets aside the
    repeats that something else on the machine slowed down.  Seconds are
    reference seconds unless reference is false."""
    by_key = {}
    for run in runs:
        if run.ok:
            by_key.setdefault(run.key, []).append(run)
    return {key: (statistics.median(r.seconds * (r.factor if reference else 1.0) for r in rs),
                  rs[0].units, rs[0].relerr)
            for key, rs in by_key.items()}


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, runs, setup_s, reference=True):
    """Metrics a user sees, from each job's median repeat."""
    jobs = job_medians(runs, reference).values()
    times = [t for t, _, _ in jobs]
    return {
        "setup_s": (setup_s, "s"),
        "throughput": (sum(u for _, u, _ in jobs) / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (percentile(times, workload.tail_pct), "s"),
        # time to bring every number of the round to 1% relative error:
        # Monte Carlo time rescaled by its sampling error, one run otherwise
        "time_to_1pct_s": (sum(t if e is None else t * (e / 0.01) ** 2 for t, _, e in jobs),
                           "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (sum(r.ok for r in runs) / len(runs), "frac"),
    }


def git_commit():
    """HEAD of the source tree, read from .git without running git; None when
    the tree carries no git metadata."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def bench(args, workdir):
    import foamtor
    import foamtor.cli  # noqa: F401  (jobs call foamtor.cli.main)
    if Path(foamtor.__file__).resolve().parent != SRC / "foamtor":
        raise SystemExit("perfbench: imported foamtor from %s, not %s"
                         % (foamtor.__file__, SRC))
    workload = workloads.BUILDERS[args.workload](workdir)   # references computed here
    loop = Loop(workload, args.seed, workdir)
    loop.warm_up()
    summary = {"workload": workload.name, "throughput_unit": workload.unit,
               "tail_percentile": workload.tail_pct}
    if args.trace:
        # untraced half, then as many rounds traced
        plain, n = loop.rounds(seconds=args.seconds / 2.0)
        with tracing.Tracer() as tracer:
            traced, _ = loop.rounds(count=n)
        metrics = tracer.metrics(n)
        # measured seconds, like the spans' self times
        plain_s, traced_s = (sum(t for t, _, _ in job_medians(runs, reference=False).values())
                             for runs in (plain, traced))
        metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
        summary.update(rounds=n, plain_round_s=plain_s, traced_round_s=traced_s)
    else:
        setup_s, setup_raw = measure_setup(workload.foams)
        runs, n = loop.rounds(seconds=args.seconds)
        metrics = end_to_end(workload, runs, setup_s)
        measured = end_to_end(workload, runs, setup_raw, reference=False)
        summary.update(rounds=n, jobs=len(runs),
                       measured={k: v for k, (v, _) in measured.items()},
                       median_s={k: v[0] for k, v in job_medians(runs).items()})
    for key, seed, error in loop.failures:
        print("perfbench: job %r (seed %d) failed: %s" % (key, seed, error), file=sys.stderr)
    summary["failed_jobs"] = sorted({key for key, _, _ in loop.failures})
    print(json.dumps({"env": environment(args), "summary": summary}))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "foamtor" / "__init__.py").is_file():
        print("perfbench: no foamtor sources at %s; run from a source tree" % SRC,
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
