"""Self-check of the benchmark harness itself.

    python3 perfbench/selfcheck.py

1. Every workload at tiny size (N = 20, 5 grid steps), untraced and traced:
   the result line carries exactly the metric names and units that
   BENCHMARK.json declares, each a finite number.
2. Every workload at full size for its shortest run with one reference value
   moved by 1e-3: the move must be counted as a failed operation.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when all checks hold. Takes about two minutes.
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
BARE_DIR = ROOT / ".perfbench_out" / "bare"
TIMEOUT_S = 180


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise RuntimeError(f"attempted/failed malformed: {result}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{w} tiny trace={trace}"
            try:
                metrics = result_of(run(ROOT, "--workload", w, "--seed", "1", "--seconds", "1",
                                        "--trace", str(trace), "--size", "tiny"))["metrics"]
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                problems.append(f"{label}: {exc}")
                continue
            before = len(problems)
            emitted = {k: v["unit"] for k, v in metrics.items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                wrong = sorted(k for k in emitted.keys() & declared[trace].keys()
                               if emitted[k] != declared[trace][k])
                problems.append(f"{label}: missing {missing} extra {extra} unit mismatch {wrong}")
            bad = [k for k, v in metrics.items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{label}: non-finite values {bad}")
            if len(problems) == before:
                print(f"ok   {label}: {len(metrics)} metrics", flush=True)

        label = f"{w} full corrupt-reference"
        try:
            result = result_of(run(ROOT, "--workload", w, "--seed", "1", "--seconds", "1",
                                   "--trace", "0", "--corrupt-reference"))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            problems.append(f"{label}: {exc}")
            continue
        if result["failed"] < 1 or result["correct"]:
            problems.append(f"{label}: wrong reference not counted: {result}")
        else:
            print(f"ok   {label}: failed {result['failed']} of {result['attempted']}", flush=True)

    shutil.rmtree(BARE_DIR, ignore_errors=True)
    BARE_DIR.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", BARE_DIR / "BENCHMARK.json")
    shutil.copytree(HERE, BARE_DIR / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(BARE_DIR, "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode}", flush=True)
    shutil.rmtree(BARE_DIR, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
