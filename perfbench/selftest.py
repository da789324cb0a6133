#!/usr/bin/env python3
"""Quick self-test of the benchmark at toy problem sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and asserts that each
prints a correct result carrying exactly the metrics BENCHMARK.json names,
with their units.  Also asserts that the benchmark refuses to run, without
printing a result, where the pulsefront sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def last_line(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, lines[-1] if lines else ""


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            code, line = last_line(["--workload", workload, "--seed", "1", "--seconds", "1",
                                    "--trace", str(trace), "--toy"])
            if code != 0:
                problems.append(f"{what}: exit code {code}")
                continue
            result = json.loads(line)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{what}: not correct ({result['failed']}/{result['attempted']} failed)")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(k for k in units if k in expected[trace] and units[k] != expected[trace][k])
                problems.append(f"{what}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            print(f"ok  {what}: {len(units)} metrics, {result['attempted']} operations")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, line = last_line(["--workload", "figure", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or line:
        problems.append(f"without sources: exit code {code}, output {line!r}")
    else:
        print(f"ok  without sources: exit code {code}, no result")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
