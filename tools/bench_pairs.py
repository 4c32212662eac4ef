"""Alternating pairs of benchmark runs on two checkouts of lambdabv.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --first-seed S \
        --out BENCH.json

Pair i runs `python3 perfbench/run.py --workload W --seed S+i --seconds T
--trace 0` in each checkout, T being BENCHMARK.json's `run_seconds`, the
parent first on even pairs and the change first on odd ones, so neither
side always meets the machine's same phase.  The summary is the
`workloads` entry of a BENCH_<pr>.json: per end-to-end metric of
BENCHMARK.json, each side's q1, median and q3 (numpy linear percentiles),
the change's relative median difference, the pairs the change won and
tied, and the raw runs.  It goes into the --out file's `workloads` object
under W, beside the other workloads already there.  A run that exits
non-zero or reports `correct: false` stops the series with an error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


class BenchError(RuntimeError):
    pass


def read_result(proc: subprocess.CompletedProcess, where: str) -> dict:
    """The JSON object on the last line of a run's output; a failed or
    incorrect run raises."""
    if proc.returncode != 0:
        raise BenchError(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{where}: no result line in the output") from None
    if result.get("correct") is not True:
        raise BenchError(f"{where}: run reported correct: {result.get('correct')}")
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 300)
    return read_result(proc, f"{checkout} seed {seed}")


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(median), 6), "q3": round(float(q3), 6)}


def summarize(seeds: list[int], parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """The workloads entry for runs parent[i] and change[i] on seeds[i];
    ``better`` maps each metric to "lower" or "higher"."""
    metrics = {}
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (x - y) > 0.0 for x, y in zip(a, b))
        pa, pb = _quartiles(a), _quartiles(b)
        rel = (pb["median"] - pa["median"]) / pa["median"] if pa["median"] else 0.0
        metrics[name] = {
            "parent": pa,
            "change": pb,
            "change_minus_parent_rel": round(rel, 4),
            "change_wins": f"{wins}/{len(seeds)}",
            "ties": sum(x == y for x, y in zip(a, b)),
            "parent_runs": [round(x, 6) for x in a],
            "change_runs": [round(y, 6) for y in b],
        }
    attempted = sorted({r["attempted"] for r in parent + change})
    return {
        "seeds": list(seeds),
        "metrics": metrics,
        "failed_per_run": {"parent": [r["failed"] for r in parent], "change": [r["failed"] for r in change]},
        "commands_per_run": attempted[0] if len(attempted) == 1 else attempted,
        "every_run_correct": all(r["correct"] for r in parent + change),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", dest="first_seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to add this workload to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    parent, change = [], []
    try:
        for i, seed in enumerate(seeds):
            sides = [("parent", args.parent, parent), ("change", args.change, change)]
            for label, checkout, runs in sides if i % 2 == 0 else sides[::-1]:
                runs.append(run_once(checkout, args.workload, seed, seconds))
                print(f"{args.workload} seed {seed} {label}: batch_s "
                      f"{runs[-1]['metrics']['batch_s']['value']:.6g}", file=sys.stderr)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    entry = summarize(seeds, parent, change, better)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
