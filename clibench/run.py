"""Closed-loop benchmark of the atrisk command line.

    python3 clibench/run.py --workload pipeline --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs one ``atrisk`` process at a time, each a fresh
interpreter started the way the ``atrisk`` console script starts, and waits
for it to end before the next.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it times one pass untraced, then
repeats the pass in this process through ``atrisk.cli.main`` with spans
recorded (see ``tracing.py``) and reports the per-layer metrics.

Every child, and the traced run, uses one BLAS/OpenMP thread: model bytes
and solver iteration counts depend on the thread count, and one thread makes
quality numbers and counts repeat exactly.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(environment block, per-pass samples, failures) is written to
``.clibench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Check  # noqa: E402

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
# what the `atrisk` console script runs
ENTRY = "import sys; from atrisk.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import atrisk.cli; "
                "print(time.perf_counter() - t)")
ENV_PROBE = """
import json, platform
import numpy
from atrisk import kernels
deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
keep = ("name", "version", "openblas configuration")
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__,
                  **{lib: {k: v for k, v in (deps.get(lib) or {}).items()
                           if k in keep} for lib in ("blas", "lapack")},
                  "kernel_backend": kernels.active_backend()}))
"""
PREFLIGHTS = 5          # set-up samples for a workload with no input files
MIN_SETUPS = 3
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("f1_false", "ratio"), ("auc", "ratio"))


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    ok: bool


class Runner:
    """Runs CLI invocations and output checks, counting failures.

    Each invocation is a fresh interpreter, or, while ``in_process`` is set
    (the traced run), a call of ``atrisk.cli.main(argv)`` in this process.
    """

    def __init__(self, log_path):
        self.env = {**os.environ, **THREADS,
                    "PYTHONPATH": os.pathsep.join(
                        [str(ROOT / "src"),
                         *filter(None, [os.environ.get("PYTHONPATH")])])}
        self.log_path = log_path
        self.in_process = False
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def python(self, args):
        """Fresh interpreter; returns (Child, stdout text)."""
        with open(self.log_path, "a", encoding="utf-8") as log:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=log, text=True)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                proc.stdout.close()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode == 0)
        return child, out

    def _call(self, argv):
        from atrisk.cli import main

        sink = io.StringIO()
        start, cpu = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                ok = main(list(argv)) == 0
        except Exception:  # the run goes on; the failure is reported
            ok = False
            sink.write(traceback.format_exc())
        if not ok:
            with open(self.log_path, "a", encoding="utf-8") as log:
                log.write(sink.getvalue())
        return Child(perf_counter() - start, process_time() - cpu, 0.0, ok)

    def cli(self, argv):
        self.attempted += 1
        if self.in_process:
            child = self._call(argv)
        else:
            child, _ = self.python(["-c", ENTRY, *argv])
        if not child.ok:
            self._fail(f"atrisk {' '.join(argv)} failed "
                       f"(in_process={self.in_process}; see the log)")
        return child

    def check(self, workload, out, seed, first_pass):
        """Run a workload's output checks; returns its quality or None."""
        try:
            checks, quality = workload.check(out, seed, first_pass)
        except (OSError, KeyError, ValueError) as exc:
            checks, quality = [Check(f"outputs_readable ({exc!r})", False)], \
                None
        self.record(f"{workload.name} seed {seed}", checks)
        return quality

    def record(self, where, checks):
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self._fail(f"{where}: check {c.name}")


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(runner, seed, workload_defs):
    child, out = runner.python(["-c", ENV_PROBE])
    probe = json.loads(out) if child.ok else {"error": "probe failed"}
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def run_git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  check=False).stdout.strip()
        git = {"sha": run_git("rev-parse", "HEAD") or None,
               "dirty": bool(run_git("status", "--porcelain"))}
    return {**probe, "harness_python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "threads": dict(THREADS), "git": git, "seed": seed,
            "workloads": workload_defs}


class Bench:
    def __init__(self, workload, seed, work, runner):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.runner = runner
        self.config = work / "bench.cfg"
        self.config.write_text(workload.config_text(), encoding="utf-8")
        self.seeds = [seed + i for i in range(workload.cohorts)]

    def cohort_dir(self, seed, tag=""):
        return self.work / f"cohort{tag}-{seed}"

    def setup(self):
        """Build every cohort's inputs; returns the set-up time samples.

        A workload without input files is set up by fresh-interpreter
        imports of the CLI (which also fill the file cache)."""
        w, runner = self.workload, self.runner
        if not w.split_inputs:
            samples = []
            for _ in range(PREFLIGHTS):
                child, _ = runner.python(["-c", IMPORT_PROBE])
                runner.record("set-up", [Check("import_atrisk_cli",
                                               child.ok)])
                samples.append(child.wall)
            return samples
        # repeat the first cohort's set-up until there are enough samples;
        # a repeat must reproduce the same files
        repeats = [(s, "") for s in self.seeds] + \
            [(self.seed, f"r{i}")
             for i in range(max(0, MIN_SETUPS - len(self.seeds)))]
        samples = []
        for s, tag in repeats:
            start = perf_counter()
            for argv in w.setup_commands(self.cohort_dir(s, tag), s,
                                         self.config):
                runner.cli(argv)
            samples.append(perf_counter() - start)
            if tag:
                same = all((self.cohort_dir(s, tag) / n).read_bytes()
                           == (self.cohort_dir(s) / n).read_bytes()
                           for n in w.split_inputs)
                runner.record(f"set-up seed {s}",
                              [Check("setup_repeats", same)])
        return samples

    def one_pass(self, first_pass):
        """Time the workload's sequence over every cohort once."""
        w, runner = self.workload, self.runner
        cpu = rss = 0.0
        invocations = 0
        cohort_wall, quality = {}, []
        for s in self.seeds:
            out = self.work / f"out-{s}"
            w.prepare(self.cohort_dir(s), out)
            cohort_wall[s] = 0.0
            for argv in w.commands(out, s, self.config):
                child = runner.cli(argv)
                cohort_wall[s] += child.wall
                cpu += child.cpu
                rss = max(rss, child.rss_mb)
                invocations += 1
            quality.append(runner.check(w, out, s, first_pass))
            shutil.rmtree(out)
        return {"wall_s": sum(cohort_wall.values()), "cpu_s": cpu,
                "peak_rss_mb": rss, "invocations": invocations,
                "cohort_wall_s": cohort_wall, "quality": quality}


def _quality(passes):
    """Mean (f1_false, auc) over the first pass's cohorts (0 if unread)."""
    qs = passes[0]["quality"]
    if None in qs:
        return 0.0, 0.0
    return tuple(sum(col) / len(qs) for col in zip(*qs))


def run_timed(bench, seconds):
    setup = bench.setup()
    passes, first_pass = [], {}
    start = perf_counter()
    while True:
        passes.append(bench.one_pass(first_pass))
        elapsed = perf_counter() - start
        typical = _median([p["wall_s"] for p in passes])
        if len(passes) >= bench.workload.min_passes and \
                elapsed + typical > seconds:
            break
    f1, auc = _quality(passes)
    metrics = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "cpu_s": _median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": _median(setup),
        "f1_false": f1,
        "auc": auc,
    }
    samples = {"setup_s": setup, "passes": passes,
               "pass_count": len(passes)}
    return metrics, samples, dict(END_TO_END)


def run_traced(bench, trace_path):
    """One pass untraced, then the same pass traced in this process.

    The traced pass skips each invocation's interpreter start and import,
    which the untraced pass pays; trace.overhead_ratio adds one measured
    fresh start per invocation back before dividing, so it reads 1.0 when
    tracing costs nothing."""
    import tracing

    runner = bench.runner
    starts, imports = [], []
    for _ in range(MIN_SETUPS):
        child, out = runner.python(["-c", IMPORT_PROBE])
        runner.record("import probe", [Check("import_atrisk_cli", child.ok)])
        if child.ok:
            starts.append(child.wall)
            imports.append(float(out))
    tracer = tracing.Tracer()
    runner.in_process = True
    with tracing.installed(tracer):
        for s in bench.seeds:  # traced set-up, shared by both passes
            for argv in bench.workload.setup_commands(
                    bench.cohort_dir(s), s, bench.config):
                runner.cli(argv)
    runner.in_process = False
    untraced = bench.one_pass({})
    runner.in_process = True
    with tracing.installed(tracer):
        traced = bench.one_pass({})
    runner.in_process = False
    tracer.write(trace_path)

    values = tracing.layer_metrics(tracer)
    values["cli.import_s"] = _median(imports)
    values["trace.overhead_ratio"] = \
        (traced["wall_s"] + traced["invocations"] * _median(starts)) \
        / untraced["wall_s"]
    values["error_rate"] = runner.failed / max(runner.attempted, 1)
    metrics = {name: float(values.get(name, 0.0))
               for name, _ in tracing.PER_LAYER}
    samples = {"untraced_pass": untraced, "traced_pass": traced,
               "fresh_start_s": starts, "import_s": imports,
               "spans": len(tracer.spans),
               "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, samples, dict(tracing.PER_LAYER)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cohorts, one per pass (self-test only)")
    parser.add_argument("--out", type=Path,
                        help="result file (default .clibench/results/...)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "atrisk" / "cli.py").is_file():
        print(f"clibench: no atrisk sources under {ROOT / 'src'}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2
    # before anything in this process imports numpy (the traced run)
    os.environ.update(THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    base = ROOT / ".clibench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = base / f"work-{tag}-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work / "children.log")
        defs = {name: cls(smoke=args.smoke).describe()
                for name, cls in WORKLOADS.items()}
        env = environment(runner, args.seed, defs)
        bench = Bench(workload, args.seed, work, runner)
        if args.trace:
            metrics, samples, units = run_traced(
                bench, results / f"{args.workload}-seed{args.seed}.trace.json")
        else:
            metrics, samples, units = run_timed(bench, args.seconds)
        if runner.failed:
            (results / f"{tag}.children.log").write_bytes(
                runner.log_path.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line = {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "environment": env, "samples": samples,
            "failures": runner.failures, **line}
    out = args.out or results / f"{tag}.json"
    out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
