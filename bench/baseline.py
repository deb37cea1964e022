"""Re-measure the ROADMAP "Baseline" table from the committed benchmark.

    python3 bench/baseline.py            # prints the table as markdown

Every case runs once in a fresh interpreter, so lattice and moment caches
start cold, as the ROADMAP rows were taken.  CLI rows are timed from spawn
to exit.  The slowest rows take tens of seconds each at this commit.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

GAUSS_SPEC = {"n": 1, "m": 1, "degree_bound": 12, "entries": [
    {"pattern": [["l", 1], ["l", 1]], "value": "1"}, {"pattern": [["r", 1], ["r", 1]], "value": "1"},
    {"pattern": [["l", 1], ["r", 1]], "value": "1/2"}, {"pattern": [["r", 1], ["l", 1]], "value": "1/2"}]}

PRELUDE = """
import time, numpy as np, bifree as B
from fractions import Fraction
def alt(k): return tuple("lr"[i % 2] for i in range(k))
def semicircular(mode):
    c = Fraction(1, 2)
    spec = B.gaussian_cumulant_spec(1, 1, [[1, c], [c, 1]], degree_bound=12)
    xi = B.NCPolynomial.from_letter(B.lvar(1), 1 / (1 - c * c)) - B.NCPolynomial.from_letter(B.rvar(1), c / (1 - c * c))
    return B.CumulantMomentFunctional(mode, spec), xi
"""

#: (row label, setup, timed expression); rows sharing a label print as "a / b / c"
CASES = [
    ("mobius(0,1), cold, k=6 / 7 / 8", "chi = alt({k})", "B.mobius(B.zero_partition(chi), B.one_partition(chi))", (6, 7, 8)),
    ("enumerate_bnc, cold, k=10 / 12", "chi = alt({k})", "B.enumerate_bnc(chi)", (10, 12)),
    ("CumulantMomentFunctional.phi, degree 8 / 10", "phi, _ = semicircular(B.bipartite_mode(1, 1))",
     "phi.phi(tuple(B.lvar(1) if s == 'l' else B.rvar(1) for s in alt({k})))", (8, 10)),
    ("moments_from_cumulants, k=12",
     "spec = B.gaussian_cumulant_spec(1, 1, [[1, Fraction(1, 2)], [Fraction(1, 2), 1]], degree_bound=12); "
     "chi = alt({k}); args = [((B.lvar(1) if s == 'l' else B.rvar(1)),) for s in chi]",
     "B.moments_from_cumulants(spec, chi, args)", (12,)),
    ("conjugate_check, bipartite (1,1), max_degree 6 / 8 / 10", "phi, xi = semicircular(B.bipartite_mode(1, 1))",
     "B.conjugate_check(phi, B.QuotientKind('l', 1), xi, {k})", (6, 8, 10)),
    ("gaussian_moment, k=12 / 14", "cov = B.Covariance(1, 1, np.array([[1.0, 0.5], [0.5, 1.0]]))",
     "B.gaussian_moment(cov, [('l', 1), ('r', 1)] * ({k} // 2))", (12, 14)),
    ("build_fock_model, k=4, depth 8", "cov = B.Covariance(2, 2, np.eye(4) + 0.1)", "B.build_fock_model(cov, {k})", (8,)),
    ("fisher_numeric, n=512 / 1024 / 2048", "g = B.semicircular_density(0.5, B.GridSpec({k}, {k}))",
     "B.fisher_numeric(g)", (512, 1024, 2048)),
]

CLI_CASES = [
    ("`bifree lattice --chi lrlrlrlr` (k=8), CLI end to end", ["lattice", "--chi", "lrlrlrlr"]),
    ("`bifree lattice --chi lrlrlrlrl` (k=9), CLI end to end", ["lattice", "--chi", "lrlrlrlrl"]),
    ("`bifree cumulants`, 8-letter word, CLI end to end",
     ["cumulants", "--spec", "spec.json", "--word", "X1 Y1 X1 Y1 X1 Y1 X1 Y1"]),
]


def time_case(setup: str, expr: str) -> float:
    code = PRELUDE + setup + f"\nt = time.perf_counter(); {expr}; print(time.perf_counter() - t)\n"
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                         timeout=600, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def time_command(argv, cwd) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=cwd, env=ENV, capture_output=True, timeout=600, check=True)
    return time.perf_counter() - start


def fmt(seconds: float) -> str:
    return f"{seconds:.2g} s" if seconds >= 0.1 else f"{seconds * 1e3:.2g} ms"


def main() -> int:
    rows = []
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out", prefix="baseline-") as cwd:
        (Path(cwd) / "spec.json").write_text(json.dumps(GAUSS_SPEC))
        for label, argv in CLI_CASES:
            rows.append((label, fmt(time_command(["-m", "bifree.cli", *argv], cwd))))
        imports = [time_command(["-c", "import bifree"], cwd) for _ in range(3)]
    for label, setup, expr, sizes in CASES:
        rows.append((label, " / ".join(fmt(time_case(setup.format(k=k), expr.format(k=k))) for k in sizes)))
    rows.append(("`import bifree` (interpreter start included)", fmt(statistics.median(imports))))
    print("| case | time |\n|---|---|")
    for label, value in rows:
        print(f"| {label} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
