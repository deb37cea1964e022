"""One round of one workload, in a fresh interpreter: set up, run, check, report.

Run by ``run.py``; prints one JSON object on its last stdout line.  Set-up
(interpreter start, ``import bifree``, building the job list) ends when the
first job is ready; the job list then runs back to back, each job timed on
its own, with calibration samples of the machine's speed taken between jobs
(see ``CALIBRATION``); the checks run after the last job, outside every
timed span.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from time import perf_counter


def loop_sample() -> float:
    """Seconds for a fixed pure-Python task of about 1 ms (integers,
    Fractions, tuple keys, a dict): how fast this machine runs the
    interpreter right now.  The collector is off while it runs, so the
    size of the round's heap does not move it."""
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict = {}
        total = Fraction(0)
        for i in range(1, 400):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * i
            total += Fraction(i % 7 + 1, i % 5 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


def array_sample() -> float:
    """Seconds for a fixed dense-array task of about 1 ms shaped like the
    grid kernels of ``bipartite_num``: an elementwise kernel matrix, then a
    matrix product on one BLAS thread.  It follows how fast the machine runs
    those kernels right now, which the interpreter loop does not."""
    import numpy

    t0 = perf_counter()
    points = numpy.linspace(-1.0, 1.0, 224)
    diff = points[:, None] - points[None, :]
    kernel = diff / (diff * diff + 1e-4)
    kernel @ (0.5 * kernel)
    return perf_counter() - t0


def import_sample() -> float:
    """Seconds to start an interpreter that imports bifree's third-party
    dependencies and exits: how fast this machine starts a process and loads
    extension modules right now, which is most of a CLI invocation's cost
    and which the in-process loop does not follow."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.sparse"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=60)
    return perf_counter() - t0


#: each calibration task (``Job.calibration`` names the one a job uses) and
#: the seconds of jobs between two of its samples; no task runs any
#: ``bifree`` code, so no change to the program moves them
CALIBRATION = {"loop": (loop_sample, 0.01), "array": (array_sample, 0.01), "import": (import_sample, 1.6)}


def _versions() -> dict:
    import numpy

    out = {"python": platform.python_version(), "numpy": numpy.__version__}
    try:
        out["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        out["scipy"] = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        out["blas"] = "unknown"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout holding src/bifree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None, help="trace the layers and write spans here")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    # CLI invocations of the round import the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import bifree

    if not os.path.abspath(bifree.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bifree imported from {bifree.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.install(bifree)
    import workloads

    out_dir = os.path.join(root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="round-") as workdir:
        ctx = workloads.Context(args.workload, args.seed, args.round, args.tiny, workdir)
        jobs = workloads.WORKLOADS[args.workload](ctx)
        ready = time.monotonic()

        # calibration samples before the jobs they calibrate, outside their
        # timed spans, each stamped with the seconds of jobs run before it;
        # run.py scales every time by the samples of its kind taken near it
        calibration = {job.calibration: [] for job in jobs}
        next_sample = dict.fromkeys(calibration, 0.0)
        results, job_s = [], 0.0
        for job in jobs:
            sample, every_s = CALIBRATION[job.calibration]
            if job_s >= next_sample[job.calibration]:
                calibration[job.calibration].append([job_s, sample()])
                next_sample[job.calibration] = job_s + every_s
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                out, error = job.run(), None
            except Exception as exc:  # a failing job is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer:
                tracer.active = False
                if job.label.startswith("cli/"):
                    tracer.add_span("cli", job.label[4:], t0, t1, error is not None or out[0] != 0)
            results.append((job, out, error, t1 - t0))
            job_s += t1 - t0
        for kind, samples in calibration.items():
            samples.append([job_s, CALIBRATION[kind][0]()])
        wall = job_s
        peak_kb = ctx.child_peak_kb if args.workload == "cli-session" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        jobs_out, failures = [], []
        for job, out, error, seconds in results:
            if error is None:
                try:
                    if not job.check(out):
                        error = "check failed"
                except Exception as exc:  # the check itself hit a program error
                    error = f"check raised {type(exc).__name__}: {exc}"
            jobs_out.append([job.label, round(seconds * 1e3, 6), error is None])
            if error is not None:
                failures.append(f"{job.label}: {error}")

    report = {
        "ready": ready,
        "wall_s": wall,
        "calibration_s": calibration,
        "job_calibration": [job.calibration for job in jobs],
        "jobs": jobs_out,
        "failures": failures,
        "peak_rss_mb": peak_kb / 1024.0,
        "facts": ctx.facts,
        "versions": _versions(),
    }
    if tracer:
        report["layers"] = tracer.layer_metrics()
        report["missing_names"] = tracer.missing
        report["hook_errors"] = tracer.hook_errors
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle, separators=(",", ":"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
