"""Smoke test of the benchmark command.

Usage (from the repository root)::

    python3 e2ebench/smoke.py

Runs ``run.py --quick`` on every workload of ``BENCHMARK.json``, once with
tracing off and once with tracing on, and checks that

* both runs exit 0 and report ``correct: true``;
* the untraced run prints every end-to-end metric, and the traced run every
  per-layer metric, each with the unit ``BENCHMARK.json`` gives it;
* the traced and untraced runs agree exactly on every virtual metric and
  every deterministic layer count;
* the command fails without printing a result in a directory that holds only
  ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


def run(command, cwd, trace, workload):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--quick"]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def check_metrics(printed, declared, label):
    problems = []
    for metric in declared:
        got = printed.get(metric["name"])
        if got is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{label}: metric {metric['name']} has unit "
                            f"{got.get('unit')!r}, expected {metric['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {metric['name']} has no number")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = spec["command"]
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = run(command, ROOT, trace, workload)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            context = json.loads(lines[-2])["context"]
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {context['errors']}")
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            problems.extend(check_metrics(result["metrics"], declared, label))
            results[trace] = context
        if len(results) == 2:
            for key in ("virtual", "counts"):
                if results[0][key] != results[1][key]:
                    problems.append(f"{workload}: traced and untraced {key} differ: "
                                    f"{results[0][key]} vs {results[1][key]}")
        print(f"{workload}: done", flush=True)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(command, bare, 0, spec["workloads"][0]["name"])
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare directory: the command did not fail cleanly")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
