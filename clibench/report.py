"""Print benchmark results, run alternating pairs, and compare two sides.

    python3 clibench/report.py show RESULT.json ...
    python3 clibench/report.py pairs --a PARENT_CHECKOUT --b CHANGE_CHECKOUT \\
        --workload tune --pairs 10 --out DIR
    python3 clibench/report.py compare A_DIR B_DIR

``show`` prints every metric of each result file by name with its unit.
``pairs`` runs the benchmark in two checkouts for the run length
``BENCHMARK.json`` fixes, alternating which side runs first, with a new
seed for each pair, and saves each side's result files.
``compare`` reads two sets of result files and, per workload and
end-to-end metric, reports each side's median and quartiles, the share of
seed-matched pairs the B side wins, and a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``better``: at least ten pairs ran, B wins at least nine tenths of them
  (ties count for neither) and the medians differ by more than A's
  quartile distance;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: A's or B's spread (quartile distance over median) is
  wider than the bound, unless every B run beats every A run;
* ``within bound``: otherwise;
* ``identical``: every pair reads exactly the same (deterministic metrics).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10          # fewer pairs never support a "better" verdict
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(paths):
    out = []
    for p in paths:
        p = Path(p)
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            doc = json.loads(f.read_text(encoding="utf-8"))
            if "metrics" in doc and "workload" in doc:
                out.append(doc)
    return out


def show(paths):
    for doc in _load(paths):
        env = doc.get("environment", {})
        print(f"{doc['workload']} seed={doc['seed']} trace={doc['trace']} "
              f"correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} python={env.get('python')} "
              f"numpy={env.get('numpy')} "
              f"backend={env.get('kernel_backend')} "
              f"git={(env.get('git') or {}).get('sha')}")
        samples = doc.get("samples", {})
        if "pass_count" in samples:
            print(f"  passes={samples['pass_count']} "
                  f"setup samples={len(samples['setup_s'])}")
        for name, m in doc["metrics"].items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _verdict(a, b, bound, lower_better, pairs):
    """(verdict, pairs B won) for one metric; see the module docstring."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and all(x == y for x, y in pairs):
        return "identical", wins
    qa, qb = _quartiles(a), _quartiles(b)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and \
            abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better", wins
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better (every run)", wins
    spread = max((q[2] - q[0]) / q[1] if q[1] else float("inf")
                 for q in (qa, qb))
    if spread > bound:
        return "unresolved", wins
    if sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
        return "worse", wins
    return "within bound", wins


def compare(a_paths, b_paths, bench_file):
    bench = json.loads(Path(bench_file).read_text(encoding="utf-8"))
    a_runs = [d for d in _load(a_paths) if d["trace"] == 0]
    b_runs = [d for d in _load(b_paths) if d["trace"] == 0]
    print(f"{'workload':9s} {'metric':12s} {'A median [q1,q3] n':>36s} "
          f"{'B median [q1,q3] n':>36s} {'B-A':>8s} {'wins':>6s}  verdict")
    for w in sorted({d["workload"] for d in a_runs + b_runs}):
        a = {d["seed"]: d for d in a_runs if d["workload"] == w}
        b = {d["seed"]: d for d in b_runs if d["workload"] == w}
        if not a or not b:
            print(f"{w:9s} (missing on one side)")
            continue
        for spec in bench["end_to_end"]:
            name = spec["name"]
            av = [d["metrics"][name]["value"] for d in a.values()]
            bv = [d["metrics"][name]["value"] for d in b.values()]
            pairs = [(a[s]["metrics"][name]["value"],
                      b[s]["metrics"][name]["value"]) for s in a if s in b]
            verdict, wins = _verdict(av, bv, spec["bound"],
                                     spec["better"] == "lower", pairs)
            qa, qb = _quartiles(av), _quartiles(bv)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(f"{w:9s} {name:12s} "
                  f"{qa[1]:>10.4g} [{qa[0]:.4g},{qa[2]:.4g}] n={len(av):<3d}"
                  f" {qb[1]:>10.4g} [{qb[0]:.4g},{qb[2]:.4g}] n={len(bv):<3d}"
                  f" {delta:>+8.2%} {wins:>2d}/{len(pairs):<3d} {verdict}"
                  f" (bound {spec['bound']:.0%} {spec['unit']})")
        fails = sum(d["failed"] for d in b.values()) - \
            sum(d["failed"] for d in a.values())
        if fails:
            print(f"{w:9s} B failed {fails:+d} more operations than A")


def pairs(a_root, b_root, workload, n, first_seed, out, bench_file):
    """Run n seed-matched pairs, each side with its own clibench/run.py
    (identical when the change leaves the benchmark alone) and the run
    length BENCHMARK.json fixes."""
    bench = json.loads(Path(bench_file).read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    out.mkdir(parents=True, exist_ok=True)
    sides = [("a", Path(a_root)), ("b", Path(b_root))]
    for i in range(n):
        seed = first_seed + 1000 * i
        order = sides if i % 2 == 0 else sides[::-1]
        for side, root in order:
            dest = out / side / f"{workload}-seed{seed}.json"
            dest.parent.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, "clibench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0", "--out", str(dest.resolve())]
            subprocess.run(cmd, cwd=root, check=True,
                           stdout=subprocess.DEVNULL)
            print(f"pair {i} side {side} seed {seed} -> {dest}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_show = sub.add_parser("show")
    p_show.add_argument("results", nargs="+")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_pairs = sub.add_parser("pairs")
    p_pairs.add_argument("--a", required=True, help="parent checkout root")
    p_pairs.add_argument("--b", required=True, help="change checkout root")
    p_pairs.add_argument("--workload", required=True)
    p_pairs.add_argument("--pairs", type=int, default=10)
    p_pairs.add_argument("--first-seed", type=int, default=101)
    p_pairs.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "show":
        show(args.results)
    elif args.command == "compare":
        compare([args.a], [args.b], BENCH_FILE)
    else:
        pairs(args.a, args.b, args.workload, args.pairs, args.first_seed,
              args.out, BENCH_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
