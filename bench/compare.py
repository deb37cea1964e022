"""Compare two sets of benchmark runs, parent against change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of run records (``bench/out/runs/`` of two
checkouts) or record files.  Untraced records are grouped by workload and
paired by seed.  For each workload and end-to-end metric of BENCHMARK.json
it prints each side's median and quartiles, the share of pairs the change
won, and a verdict:

* improved: the change wins at least 9 of 10 pairs and its median beats the
  parent's by more than the parent's quartile spread;
* unresolved: either side's quartile spread exceeds the metric's bound,
  unless every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than the bound;
* no worse: within the bound.

A gain does not count while the change fails more jobs than the parent, so
the failed/attempted share is compared too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import quantile  # noqa: E402


def load(target: str) -> dict[str, list[dict]]:
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text())
        if not record["stamp"]["trace"]:
            by_workload.setdefault(record["stamp"]["workload"], []).append(record)
    return by_workload


def verdict(parent: list[float], change: list[float], pairs, better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    c_iqr = quantile(change, 0.75) - quantile(change, 0.25)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    won = wins / len(pairs) if pairs else 0.0
    gain = sign * (p_med - c_med)
    if pairs and won >= 0.9 and gain > p_iqr:
        return "improved", won
    if max(p_iqr / abs(p_med) if p_med else 0.0, c_iqr / abs(c_med) if c_med else 0.0) > bound:
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        return ("no worse" if all_better else "unresolved"), won
    if p_med and -gain / abs(p_med) > bound:
        return "worse", won
    return "no worse", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    digests = {r["stamp"]["bench_digest"] for side in (parent, change) for rs in side.values() for r in rs}
    if len(digests) > 1:
        print(f"warning: the runs used {len(digests)} different benchmark versions", file=sys.stderr)

    header = f"{'workload':17s} {'metric':12s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} {'won':>6s}  verdict"
    print(header)
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        c_by_seed = {r["stamp"]["seed"]: r for r in c_runs}
        paired = [(p, c_by_seed[p["stamp"]["seed"]]) for p in p_runs if p["stamp"]["seed"] in c_by_seed]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in paired]
            result, won = verdict(pv, cv, pairs, metric["better"], metric["bound"])

            def show(values):
                return (f"{statistics.median(values):.5g} [{quantile(values, 0.25):.5g}, "
                        f"{quantile(values, 0.75):.5g}] n={len(values)}")

            print(f"{workload:17s} {name:12s} {show(pv):34s} {show(cv):34s} {100 * won:5.0f}%  {result}")
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        note = "worse" if c_fail > p_fail else "no worse"
        print(f"{workload:17s} {'error_rate':12s} {p_fail:<34.4g} {c_fail:<34.4g} {'':>6s}  {note}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print("workloads on one side only: " + ", ".join(missing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
