"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size (one small batch) twice with the same
seed, untraced and traced.  It passes when every metric that BENCHMARK.json
names is printed with its unit, and when the command counts, each command's
outcome and the traced call counts repeat exactly between the two runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SEED = 7


def run(workload: str, trace: int) -> tuple[dict, list]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "perfbench" / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json").read_text())
    outcomes = [(o["cid"], o["status"], o["known"]) for o in record["outcomes"]]
    return result, outcomes


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            (first, outcomes1), (second, outcomes2) = run(workload, trace), run(workload, trace)
            tag = f"{workload} trace={trace}"
            for result in (first, second):
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{tag}: metrics {got} differ from BENCHMARK.json {expected[trace]}")
            for key in ("correct", "attempted", "failed"):
                if first[key] != second[key]:
                    problems.append(f"{tag}: {key} {first[key]} then {second[key]}")
            if outcomes1 != outcomes2:
                problems.append(f"{tag}: per-command outcomes differ")
            if not first["correct"]:
                problems.append(f"{tag}: a command produced a wrong output")
            if trace:
                counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                          for r in (first, second)]
                if counts[0] != counts[1]:
                    problems.append(f"{tag}: traced counts {counts[0]} then {counts[1]}")
            print(f"{tag}: {first['attempted']} commands, {first['failed']} failed, correct={first['correct']}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
