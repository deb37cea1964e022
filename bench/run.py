"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload lattice-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # table of every workload

A run repeats rounds until the next one would end after ``--seconds``; each
round is a fresh ``worker.py`` process that sets up, runs the workload's
fixed job list once and checks every answer (see ``workloads.py``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics of one
round's job list, each job class at its median latency over the run and
every time scaled by the machine's speed during the run (see
``end_to_end`` and ``CALIBRATION_REFERENCE_S``).  With ``--trace 1``
every round runs twice, untraced and traced, and the last line carries the
per-layer metrics of the traced rounds plus the tracing overhead against
the untraced wall time.  Human-readable tables go to stderr, and a stamped
record of the run goes to ``bench/out/runs/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import bisect
import datetime
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["lattice-cold", "conjugate-verify", "numeric", "cli-session"]
CLI_SUBCOMMANDS = ["lattice", "cumulants", "moments", "dq", "conjugate-check", "gaussian.fisher",
                   "gaussian.entropy", "gaussian.dimension", "gaussian.moments", "bipartite.fisher",
                   "bipartite.conjugate", "bipartite.make-semicircular", "selftest"]
RUN_TIMEOUT_S = 170  # a run that is not done by then exits non-zero, without a result

#: End-to-end times are scaled to a machine on which the calibration task
#: of each job (``Job.calibration``, see ``worker.py``) takes this long: a
#: pure-Python loop, a dense-array kernel, or starting an interpreter that
#: imports numpy and scipy; each is about its usual time on the 2-vCPU VM the
#: bounds were set on.  A job's factor is this over the mean of the round's
#: 2 * CALIBRATION_WINDOW + 1 samples of its task nearest to it, less the
#: highest and lowest tenth; set-up takes the factor of the first job's task
#: at the round's start.  On a shared host the same code runs up to about
#: 1.7x slower, in stretches from milliseconds to minutes; the factor takes
#: most of that out, and no change to bifree can move it.  A mean, not a
#: median: with the machine flipping between a fast and a slow speed, the
#: mean follows the share of time spent slow, where a median jumps from one
#: speed to the other.  Unscaled values go to stderr and to the run record.
CALIBRATION_REFERENCE_S = {"loop": 0.001, "array": 0.001, "import": 0.4}
CALIBRATION_WINDOW = 5

#: ROADMAP "Baseline" rows that each layer's self time accounts for
#: (``baseline.py`` re-measures the rows themselves).
BASELINE_ROWS = {
    "bnclattice": ["mobius(0,1), cold, k=6/7/8", "enumerate_bnc, cold, k=10/12", "bifree lattice (CLI)"],
    "cumulant": ["CumulantMomentFunctional.phi, degree 8/10", "moments_from_cumulants, k=12",
                 "bifree cumulants (CLI)"],
    "derivation": ["conjugate_check, bipartite (1,1), max_degree 6/8/10"],
    "ncalg": ["conjugate_check (polynomial products inside)"],
    "gaussfam": ["gaussian_moment, k=12/14", "build_fock_model, k=4, depth 8"],
    "bipartite_num": ["fisher_numeric, n=512/1024/2048"],
    "cli": ["import bifree", "CLI rows, end to end"],
}


class RoundError(RuntimeError):
    pass


def quantile(values, q):
    """Inclusive-method quantile (q in (0, 1)) of at least one value."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    position = q * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def worker_env() -> tuple[dict, int, int]:
    nproc = len(os.sched_getaffinity(0))
    # one BLAS thread: the single caller keeps one core busy, and on a shared
    # host a second thread would time the scheduler rather than the kernel
    threads = 1
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)
    return env, nproc, threads


def run_round(workload, seed, index, tiny, spans, env, deadline) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--round", str(index)]
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    # its own process group, so a round cut at the deadline takes the CLI
    # invocations and calibration processes it started with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"round {index} of {workload} still running after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not stdout.strip():
        raise RoundError(f"round {index} of {workload} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def _probe_ms(argv, env, repeats=3) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=60, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return times


def _importtime_ms(env) -> tuple[float, float]:
    """Cumulative import time of bifree and of scipy inside it, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bifree"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            rows.append((int(match.group(2)), len(match.group(3)), match.group(4)))
    bifree_us = sum(us for us, _, name in rows if name == "bifree")
    scipy_us = 0
    for i, (us, depth, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        # rows print children first: the enclosing import is the next shallower row
        parent = next((r for r in rows[i + 1:] if r[1] < depth), None)
        if parent is None or parent[2].split(".")[0] != "scipy":
            scipy_us += us
    return bifree_us / 1e3, scipy_us / 1e3


def cli_probes(env) -> dict:
    src_env = dict(env, PYTHONPATH=str(ROOT / "src"))
    imports = [_importtime_ms(src_env) for _ in range(3)]
    return {
        "cli.interpreter_ms": statistics.median(_probe_ms(["-c", "pass"], env)),
        "cli.import_ms": statistics.median(i[0] for i in imports),
        "cli.import_scipy_ms": statistics.median(i[1] for i in imports),
    }


def measure(workload, seed, seconds, trace, tiny):
    env, nproc, threads = worker_env()
    out_dir = BENCH / "out"
    (out_dir / "spans").mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    rounds, traced = [], []
    index = 0
    while True:
        rounds.append(run_round(workload, seed, index, tiny, None, env, deadline))
        if trace:
            spans = out_dir / "spans" / f"{workload}-seed{seed}-round{index}.json"
            traced.append(run_round(workload, seed, index, tiny, spans, env, deadline))
        index += 1
        elapsed = time.monotonic() - start
        if tiny or elapsed + elapsed / index > seconds:
            break
    return rounds, traced, {"nproc": nproc, "blas_threads": threads}


def speed_factors(report) -> tuple[float, list[float]]:
    """Factors of a round's set-up and of each of its jobs: the reference
    over the trimmed mean of the samples of its task nearest to it in job time."""
    width = 2 * CALIBRATION_WINDOW + 1

    def at(kind, position):
        positions = [p for p, _ in report["calibration_s"][kind]]
        samples = [s for _, s in report["calibration_s"][kind]]
        low = max(0, min(bisect.bisect_left(positions, position) - CALIBRATION_WINDOW, len(samples) - width))
        window = sorted(samples[low:low + width])
        cut = len(window) // 10
        return CALIBRATION_REFERENCE_S[kind] / statistics.fmean(window[cut:len(window) - cut])

    factors, start = [], 0.0
    for (_, ms, _), kind in zip(report["jobs"], report["job_calibration"]):
        factors.append(at(kind, start + ms / 2e3))
        start += ms / 1e3
    return at(report["job_calibration"][0], 0.0), factors


def end_to_end(rounds, scaled=True) -> dict:
    """``wall_s`` is one round's job list with each job class at its median
    latency over the run (class median x jobs per round, summed), so a slow
    stretch of the run moves a class only if it holds half of its jobs; the
    percentiles are over every job of the run."""
    setups, by_class, latencies = [], defaultdict(list), []
    for r in rounds:
        setup_factor, factors = speed_factors(r) if scaled else (1.0, [1.0] * len(r["jobs"]))
        setups.append(r["setup_s"] * setup_factor)
        for (label, ms, _), factor in zip(r["jobs"], factors):
            by_class[label].append(ms * factor)
            latencies.append(ms * factor)
    attempted = len(latencies)
    failed = sum(1 for r in rounds for *_, ok in r["jobs"] if not ok)
    wall_ms = sum(statistics.median(times) * len(times) / len(rounds) for times in by_class.values())
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_ms / 1e3, "s"),
        "job_p50_ms": (quantile(latencies, 0.5), "ms"),
        "job_p90_ms": (quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }


def median_factor(rounds) -> float:
    return statistics.median(f for r in rounds for f in speed_factors(r)[1])


LAYER_UNITS = {"calls": "count", "self_s": "s", "errors": "count"}
COUNTER_UNITS = {
    "bnclattice.partitions": "count", "bnclattice.mobius_calls": "count",
    "cumulant.lattice_terms": "count", "cumulant.phi_calls": "count", "cumulant.phi_misses": "count",
    "cumulant.phi_hit_ratio": "ratio", "derivation.words_checked": "count",
    "derivation.tensor_terms": "count", "ncalg.terms_out": "count", "gaussfam.pairings": "count",
    "gaussfam.fock_dim": "count", "gaussfam.fock_build_s": "s", "gaussfam.quad_evals": "count",
    "gaussfam.quad_error_bound_max": "nats", "bipartite_num.grid_points": "count",
    "bipartite_num.kernel_gflop": "gflop", "bipartite_num.gflops": "gflop/s",
    "bipartite_num.masked_fraction": "ratio",
}


def per_layer(rounds, traced, probes) -> dict:
    layers = [r["layers"] for r in traced]
    out = {}
    for key in layers[0]:
        unit = COUNTER_UNITS.get(key) or LAYER_UNITS[key.rsplit(".", 1)[1]]
        out[key] = (statistics.median(layer[key] for layer in layers), unit)
    for sub in CLI_SUBCOMMANDS:
        times = [ms for r in traced for label, ms, _ in r["jobs"] if label == f"cli/{sub}"]
        out[f"cli.{sub}.p50_ms"] = (statistics.median(times) if times else 0.0, "ms")
    for key, value in probes.items():
        out[key] = (value, "ms")
    untraced_wall = sum(r["wall_s"] for r in rounds)
    out["trace.overhead"] = (sum(r["wall_s"] for r in traced) / untraced_wall - 1.0, "ratio")
    out["trace.missing_names"] = (len(traced[0]["missing_names"]), "count")
    return out


def _stamp(workload, seed, seconds, trace, tiny, rounds, machine) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "git_commit": _git_commit(),
        "src_digest": _digest((ROOT / "src").rglob("*.py")),
        "bench_digest": _digest(BENCH.glob("*.py")),
        **rounds[0]["versions"],
        **machine,
        "time_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _table(rows, headers) -> str:
    widths = [max(len(str(x)) for x in col) for col in zip(headers, *rows)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def summarize(stamp, rounds, traced, e2e, unscaled, layers) -> str:
    latencies = [ms for r in rounds for _, ms, _ in r["jobs"]]
    beyond = sum(1 for ms in latencies if ms > unscaled["job_p90_ms"][0])
    lines = [
        f"workload {stamp['workload']}  seed {stamp['seed']}  rounds {len(rounds)}  jobs {len(latencies)} "
        f"({beyond} beyond p90)  commit {stamp['git_commit'] or 'n/a'}  src {stamp['src_digest']}",
        f"python {stamp['python']}  numpy {stamp['numpy']}  scipy {stamp['scipy']}  blas {stamp['blas']} "
        f"x{stamp['blas_threads']} threads  nproc {stamp['nproc']}",
    ]
    facts = rounds[0]["facts"]
    if facts:
        lines.append("facts: " + ", ".join(f"{k} {v:.4g}" for k, v in facts.items()))
    lines.append(_table([(k, f"{v:.6g}", u, f"{unscaled[k][0]:.6g}") for k, (v, u) in e2e.items()],
                        ["metric", "value", "unit", "unscaled"]))
    samples = {kind: sum(len(r["calibration_s"].get(kind, ())) for r in rounds)
               for kind in CALIBRATION_REFERENCE_S}
    lines.append(f"median speed factor {median_factor(rounds):.4f} (calibration samples: "
                 + ", ".join(f"{kind} {n}" for kind, n in samples.items() if n) + ")")
    for failure in sorted({f for r in rounds + traced for f in r["failures"]})[:20]:
        lines.append(f"FAILED {failure}")
    if layers:
        total = sum(layers[f"{layer}.self_s"][0] for layer in BASELINE_ROWS)
        rows = []
        for layer, baseline in BASELINE_ROWS.items():
            self_s = layers[f"{layer}.self_s"][0]
            rows.append((layer, int(layers[f"{layer}.calls"][0]), f"{self_s:.4f}",
                         f"{100 * self_s / total:.1f}%" if total else "-", int(layers[f"{layer}.errors"][0]),
                         "; ".join(baseline)))
        lines.append(_table(rows, ["layer", "calls", "self_s", "share", "errors", "ROADMAP baseline rows"]))
        lines.append(f"tracing overhead {100 * layers['trace.overhead'][0]:+.1f}% of untraced wall_s "
                     f"({sum(r['wall_s'] for r in traced):.3f} s traced vs {sum(r['wall_s'] for r in rounds):.3f} s)")
        missing = traced[0]["missing_names"]
        if missing:
            lines.append("names no longer in bifree (not traced): " + ", ".join(missing))
    return "\n".join(lines)


def run_one(workload, seed, seconds, trace, tiny):
    rounds, traced, machine = measure(workload, seed, seconds, trace, tiny)
    stamp = _stamp(workload, seed, seconds, trace, tiny, rounds, machine)
    e2e, unscaled = end_to_end(rounds), end_to_end(rounds, scaled=False)
    layers = per_layer(rounds, traced, cli_probes(worker_env()[0])) if trace else None
    attempted = sum(len(r["jobs"]) for r in rounds + traced)
    failed = sum(1 for r in rounds + traced for *_, ok in r["jobs"] if not ok)
    record = {
        "stamp": stamp,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()},
        "median_speed_factor": median_factor(rounds),
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in (layers or {}).items()},
        "rounds": [{"setup_s": r["setup_s"], "wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"],
                    "calibration_s": r["calibration_s"], "job_calibration": r["job_calibration"],
                    "facts": r["facts"], "failures": r["failures"]} for r in rounds],
        "jobs": [[label, ms, ok, i] for i, r in enumerate(rounds) for label, ms, ok in r["jobs"]],
    }
    runs = BENCH / "out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{stamp['time_utc'].replace(':', '')}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(record, indent=1))
    print(summarize(stamp, rounds, traced, e2e, unscaled, layers), file=sys.stderr)
    return e2e, layers, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small job lists, one round (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bifree" / "__init__.py").is_file():
        print(f"no bifree sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace), args.tiny) for w in names}
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        metrics = list(results[WORKLOADS[0]][0])
        rows = [[w] + [f"{results[w][0][m][0]:.5g} {results[w][0][m][1]}" for m in metrics] for w in names]
        print(_table(rows, ["workload"] + metrics))
        return 0
    e2e, layers, attempted, failed = results[args.workload]
    metrics = layers if args.trace else {k: v for k, v in e2e.items() if k != "error_rate"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
