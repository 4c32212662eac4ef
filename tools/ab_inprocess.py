"""CPU-time A/B of two checkouts of lambdabv in one process.

    python3 tools/ab_inprocess.py BASE HEAD --workload W [--workload W2 ...] \
        --batches N [--seed S] [--tiny] --out BENCH.json

Each checkout's src/lambdabv is copied into a temporary directory as the
packages lambdabv_base and lambdabv_head, and both are imported here, so the
two sides share one interpreter, one heap and the machine's same moments.
The commands are perfbench's: HEAD's perfbench/workloads.py draws the warm-up
commands and N batches of workload W from seed S, as `perfbench/run.py
--workload W --seed S` would; a W that HEAD's BENCHMARK.json does not
declare exits 2 before either checkout is loaded.  Both sides run the
warm-up untimed, then each batch in turn, BASE first on even batches and
HEAD first on odd ones.  A
command runs through the side's cli.main(argv) in the same directory on both
sides, and is timed in CPU seconds (time.process_time); its outputs are
not checked against perfbench's oracle.

Every file a command leaves in its directory, its exit code and what it
printed are compared between the sides, and each one that differs is
compared cell by cell by tools/golden_diff.py's diff_file.  The summary goes
into the --out file's `cpu_ab` object under W: each side's slot-median
batch sum (the sum over the batch's command slots of each slot's median CPU
time across batches, as perfbench's batch_s sums charged times), its median
CPU time over every command of every batch (`command_p50_s`, as perfbench's
op_p50_s is the median over commands), its per-batch CPU sums, the batches
HEAD won, the differing artifacts with their largest relative difference
over cells, and `moved_cells`: per file name and column or leaf path (row
numbers and list indices folded), the number of artifacts the cell moved in,
its largest ulps, and how many of its moves rose and fell in value (`rises`,
`falls`; a move with no numeric sign counts in neither).  A shape change,
and a cell that is not a number on both sides, read inf.  The exit status is
1 when any artifact differs, 0 otherwise.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy loads, as perfbench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import golden_diff  # noqa: E402

SIDES = ("base", "head")
CLOCK = time.process_time
# the names this tool imports, dropped again when it returns
OWN_MODULES = ("lambdabv_base", "lambdabv_head", "workloads", "oracle")
# a CSV cell's row number and a JSON leaf's list indices, folded out of its name
INDEX = re.compile(r"^row \d+, |(?<=\[)\d+(?=\])")


def load_cli(checkout: Path, name: str, into: Path):
    """Import ``checkout``'s src/lambdabv as the package ``name`` from
    ``into``, a directory on sys.path; return its cli module."""
    shutil.copytree(checkout / "src" / "lambdabv", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.invalidate_caches()  # the import system may have listed ``into`` before the copy
    return importlib.import_module(f"{name}.cli")


def workload_names(checkout: Path) -> list[str]:
    """The workloads ``checkout``'s BENCHMARK.json declares."""
    return [w["name"] for w in json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]


def load_workloads(checkout: Path):
    """``checkout``'s perfbench/workloads.py, which imports its oracle.py as
    a top-level module."""
    sys.path.insert(0, str(checkout / "perfbench"))
    return importlib.import_module("workloads")


def run_command(cli, cmd, d: Path) -> tuple[float, str]:
    """Write the command's inputs into ``d`` and run it there; return its CPU
    seconds and its exit record: exit code and printed text."""
    d.mkdir(parents=True, exist_ok=True)
    for name, text in cmd.files.items():
        (d / name).write_text(text, encoding="utf-8")
    argv = [a.replace("{dir}", str(d)) for a in cmd.argv] + ["--out", str(d)]
    sink = io.StringIO()
    t0 = CLOCK()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # recorded, and compared like any outcome
        rc = f"raised {type(exc).__name__}: {exc}"
    return CLOCK() - t0, f"exit {rc}\n{sink.getvalue()}"


def run_batch(cli, commands, root: Path) -> tuple[list[float], dict[str, bytes]]:
    """Run the commands in order, each in root/<cid>; return their CPU times
    and every artifact by its path under root."""
    times, artifacts = [], {}
    for cmd in commands:
        cpu, record = run_command(cli, cmd, root / cmd.cid)
        times.append(cpu)
        artifacts[f"{cmd.cid}/(exit)"] = record.encode()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            artifacts[str(path.relative_to(root))] = path.read_bytes()
    return times, artifacts


def slot_median_sum(batches: list[list[float]]) -> float:
    """The sum over slots of each slot's median across batches."""
    return sum(statistics.median(slot) for slot in zip(*batches))


def run_series(clis: dict, plan, workdir: Path, log=None) -> dict:
    """Run the warm-up and the batches of ``plan`` on both sides, alternating
    which goes first; return CPU times per side and batch, the order each
    batch ran in, the artifacts that differ and the cells that moved in them."""
    warm, batches = plan
    run_dir = workdir / "run"
    for side in SIDES:
        run_batch(clis[side], warm, run_dir)
        shutil.rmtree(run_dir)
    cpu = {side: [] for side in SIDES}
    orders, diffs, compared, moved = [], [], 0, {}
    for index, commands in enumerate(batches):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        seen = {}
        for side in order:
            # the same directory on both sides, so printed paths agree
            times, seen[side] = run_batch(clis[side], commands, run_dir)
            shutil.rmtree(run_dir)
            cpu[side].append(times)
        keys = sorted(seen["base"].keys() | seen["head"].keys())
        compared += len(keys)
        for key in (k for k in keys if seen["base"].get(k) != seen["head"].get(k)):
            diffs.append(f"batch {index}: {key}")
            shape, cells = golden_diff.diff_file(key, seen["base"].get(key), seen["head"].get(key))
            # bytes that differ with every cell equal (a CSV's line ends) count as a shape change
            for c in cells + [{"cell": "(shape)", "ulps": None, "rel": None}] * (bool(shape) or not cells):
                where = f"{key.rpartition('/')[2]}: {INDEX.sub('', c['cell'])}"
                ulps, rel = (math.inf if c[field] is None else c[field] for field in ("ulps", "rel"))
                last, count, most_ulps, most_rel, rises, falls = moved.get(where, (None, 0, 0, 0.0, 0, 0))
                sign = c.get("sign")
                moved[where] = (diffs[-1], count + (last != diffs[-1]), max(most_ulps, ulps), max(most_rel, rel),
                                rises + (sign == 1), falls + (sign == -1))
        orders.append(list(order))
        if log is not None:
            print(f"batch {index} ({order[0]} first): base {sum(cpu['base'][-1]):.4f} s, "
                  f"head {sum(cpu['head'][-1]):.4f} s CPU", file=log)
    return {"cpu": cpu, "orders": orders, "differing": diffs, "compared": compared, "moved": moved}


def summarize(seed: int, tiny: bool, series: dict) -> dict:
    cpu = series["cpu"]
    sums = {side: [sum(b) for b in cpu[side]] for side in SIDES}
    slot = {side: slot_median_sum(cpu[side]) for side in SIDES}
    p50 = {side: statistics.median(t for batch in cpu[side] for t in batch) for side in SIDES}
    rel = {name: round((value["head"] - value["base"]) / value["base"], 4) if value["base"] else 0.0
           for name, value in (("batch", slot), ("command", p50))}
    wins = sum(h < b for b, h in zip(sums["base"], sums["head"]))
    return {
        "seed": seed,
        "tiny": tiny,
        "batches": len(sums["base"]),
        "commands_per_batch": len(cpu["base"][0]) if cpu["base"] else 0,
        "order": series["orders"],
        "clock": "time.process_time, CPU seconds of this process",
        **{side: {"slot_median_batch_s": round(slot[side], 6),
                  "command_p50_s": round(p50[side], 6),
                  "batch_sums_s": [round(s, 6) for s in sums[side]]} for side in SIDES},
        "head_minus_base_rel": rel["batch"],
        "command_p50_head_minus_base_rel": rel["command"],
        "head_wins": f"{wins}/{len(sums['base'])}",
        "artifacts_compared": series["compared"],
        "differing_artifacts": len(series["differing"]),
        "largest_relative_difference": max((most for _, _, _, most, _, _ in series["moved"].values()), default=0.0),
        "moved_cells": {where: {"artifacts": count, "ulps": ulps, "rises": rises, "falls": falls}
                        for where, (_, count, ulps, _, rises, falls) in sorted(series["moved"].items())},
        "differences": series["differing"][:50],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append", help="repeat for more workloads")
    parser.add_argument("--batches", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="perfbench's small self-test batches")
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to add cpu_ab entries to")
    args = parser.parse_args(argv)
    if args.batches < 1:
        parser.error("--batches must be at least 1")
    names = workload_names(args.head)
    for workload in args.workload:
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; BENCHMARK.json declares {', '.join(names)}")
    saved_path = sys.path[:]
    try:
        return _run(args)
    finally:
        sys.path[:] = saved_path
        for name in [m for m in sys.modules if m.split(".")[0] in OWN_MODULES]:
            del sys.modules[name]


def _run(args) -> int:
    differ = False
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        clis = {side: load_cli(checkout, f"lambdabv_{side}", tmp)
                for side, checkout in zip(SIDES, (args.base, args.head))}
        workloads = load_workloads(args.head)
        for workload in args.workload:
            plan = workloads.Generator(workload, args.seed, args.tiny).plan(args.batches)
            series = run_series(clis, plan, tmp / "work", log=sys.stderr)
            entry = summarize(args.seed, args.tiny, series)
            differ |= entry["differing_artifacts"] > 0
            print(f"{workload}: head {entry['head_minus_base_rel']:+.1%} CPU ({entry['head_wins']} batches), "
                  f"median command {entry['command_p50_head_minus_base_rel']:+.1%}, "
                  f"{entry['differing_artifacts']} of {entry['artifacts_compared']} artifacts differ "
                  f"(largest relative difference {entry['largest_relative_difference']:.3g})",
                  file=sys.stderr)
            data = json.loads(args.out.read_text()) if args.out.exists() else {}
            data.setdefault("cpu_ab", {})[workload] = entry
            args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
