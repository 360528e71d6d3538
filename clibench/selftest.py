"""Smoke self-test of the benchmark (about a minute).

    python3 clibench/selftest.py

Runs every workload once at a tiny size (80-student cohorts, one cohort
per pass), untraced and traced, and checks that the last output line has
exactly the keys the driver reads, that no invocation or output check
failed, and that every metric declared in BENCHMARK.json appears with its
declared unit.  It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, *args):
    proc = subprocess.run([sys.executable, "clibench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def _problems(line, declared):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:200]!r}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    got = result["metrics"]
    for name, unit in declared.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name]["unit"] != unit:
            problems.append(f"{name}: unit {got[name]['unit']!r}, "
                            f"declared {unit!r}")
        elif not math.isfinite(got[name]["value"]):
            problems.append(f"{name}: value {got[name]['value']!r}")
    problems += [f"undeclared metric {n}" for n in got if n not in declared]
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    scratch = ROOT / ".clibench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            rc, line, err = _run(ROOT, "--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke", "--out",
                                 str(scratch / f"{workload}-{trace}.json"))
            problems = [f"exit code {rc}: {err[-300:]}"] if rc else \
                _problems(line, declared[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {workload} "
                  f"trace={trace} {'; '.join(problems)}")

    bare = scratch / "bare"
    bare.mkdir()
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, line, _ = _run(bare, "--workload", "pipeline", "--seed", "7",
                       "--seconds", "1", "--trace", "0")
    refused = rc != 0 and not line
    failures += not refused
    print(f"{'PASS' if refused else 'FAIL'} refuses to run without sources "
          f"(exit code {rc})")
    shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
