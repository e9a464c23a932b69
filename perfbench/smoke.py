"""Smoke test of the benchmark itself.

Runs a tiny instance (``--seconds 1``) of every workload in
``BENCHMARK.json`` on two seeds, untraced and traced, and checks that
each run exits 0, reports ``correct``, and emits exactly the metrics
``BENCHMARK.json`` names for that mode, each with its unit.  Also checks
that every workload has its "why" recorded, and that the benchmark fails
(non-zero exit, no result line) when the program's source is absent.

Run from the repository root::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in spec["workloads"]:
        if not workload.get("why", "").strip():
            problems.append(f"workload {workload['name']} has no why")
    wanted = {
        "0": {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        "1": {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    for workload in spec["workloads"]:
        for seed in SEEDS:
            for trace in ("0", "1"):
                label = f"{workload['name']} seed={seed} trace={trace}"
                before = len(problems)
                done = _run(ROOT, "--workload", workload["name"], "--seed", str(seed),
                            "--seconds", "1", "--trace", trace)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                    continue
                result = json.loads(lines[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"{label}: result keys {sorted(result)}")
                if result["correct"] is not True or result["attempted"] < 1:
                    problems.append(f"{label}: correct={result['correct']} "
                                    f"attempted={result['attempted']}")
                got = {name: entry["unit"] for name, entry in result["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
                for name, entry in result["metrics"].items():
                    if not isinstance(entry["value"], (int, float)):
                        problems.append(f"{label}: {name} is not a number")
                print(f"{'ok  ' if len(problems) == before else 'BAD '}{label}", flush=True)
    bare = ROOT / ".perfbench-smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _run(bare, "--workload", "crawl", "--seed", "1", "--seconds", "1")
        if done.returncode == 0 or done.stdout.strip():
            problems.append("benchmark without the program did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
