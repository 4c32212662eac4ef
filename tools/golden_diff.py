"""Cell-by-cell diff of the golden CLI runs of two checkouts of lambdabv.

    python3 tools/golden_diff.py BASE HEAD --out DIFF.json [--write]

The cases are HEAD's, read from its tests/test_cli.py: every GOLDEN_CASES
entry and every WITNESS_PINS entry (the level-12 witnesses pinned by
sha256).  Each case runs once per checkout, as `python -m lambdabv` in a
child interpreter that imports that checkout's src.  The files compared are
the ones the tests hold: a golden case's CSV, its command's JSON summary
where COMMAND_CASES names the case, the witness file of a `sharpness` case,
and the witness file of each pin; a case's exit code and printed text are
compared too.

A CSV is compared cell by cell and a JSON file leaf by leaf.  For each cell
whose text differs the --out file lists both values and, where both are
numbers, their distance in ulps, their relative difference and the sign of
the move (1 where HEAD's value is the larger, -1 the smaller, 0 equal).  A
changed row count, column count, list length or key set is named under
"shape".
The same table goes to stdout as Markdown.  A golden file that both sides
write alike but that differs from HEAD's file on disk is stale (a cell the
tests hold to a tolerance can drift so); the --out file lists it under
"stale", its "base" the file on disk and its "head" the runs, and stdout
shows a second table.  With --write, each of HEAD's tests/golden/ files that
differs between the sides or is stale is rewritten from HEAD's run, and each
pin whose witness file moved prints its new sha256.  The exit status is 1
when any file differs between the sides, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# rows of the stdout table; the --out file lists every cell
TABLE_ROWS = 60
CASES_CODE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import test_cli as t
print(json.dumps({"golden": t.GOLDEN_CASES, "commands": t.COMMAND_CASES, "pins": t.WITNESS_PINS}))
"""


def _env(checkout: Path, *extra: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in (checkout / "src", *extra))}
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def load_cases(checkout: Path) -> dict:
    """``checkout``'s golden cases, command cases and witness pins, read in a
    child interpreter that imports its tests/test_cli.py."""
    tests = checkout / "tests"
    proc = subprocess.run([sys.executable, "-c", CASES_CODE, str(tests), str(checkout / "src")],
                          capture_output=True, text=True, timeout=300, env=_env(checkout, tests))
    if proc.returncode != 0:
        raise RuntimeError(f"reading {tests / 'test_cli.py'} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def run_case(checkout: Path, inputs: dict, args: list, workdir: Path) -> dict[str, bytes]:
    """Run one case with ``checkout``'s src in a fresh ``workdir``; return the
    files it wrote by name, and its exit record under "(exit)"."""
    workdir.mkdir(parents=True)
    for option, text in inputs.items():
        path = workdir / (option.lstrip("-") + ".json")
        path.write_text(text)
        args = [*args, option, str(path)]
    out = workdir / "out"
    proc = subprocess.run([sys.executable, "-m", "lambdabv", *args, "--out", str(out)],
                          capture_output=True, timeout=600, env=_env(checkout))
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    record = b"exit %d\n" % proc.returncode + proc.stdout + proc.stderr
    files["(exit)"] = record.replace(str(workdir).encode(), b"{dir}")
    return files


def held_files(cases: dict) -> list[tuple[str, str, dict, list, str]]:
    """(golden file, case, inputs, arguments, output file) for every file the
    tests hold; a pin's witness file is named "pin <id>" and lives in no
    golden directory."""
    held = []
    for name, (inputs, args) in sorted(cases["golden"].items()):
        command = args[1]
        held.append((f"{name}.csv", name, inputs, args, f"{command}.csv"))
        if cases["commands"].get(command) == name:
            held.append((f"{command}.json", name, inputs, args, f"{command}.json"))
        if command == "sharpness":
            held.append(("sharpness_function.json", name, inputs, args, "sharpness_function.json"))
    for pin, (inputs, args, _) in sorted(cases["pins"].items()):
        held.append((f"pin {pin}", f"pin {pin}", inputs, args, "sharpness_function.json"))
    return held


def ulps(a: float, b: float) -> int | None:
    """The number of doubles from a to b, counting -0.0 and 0.0 as one; None
    where either is NaN."""
    if math.isnan(a) or math.isnan(b):
        return None

    def rank(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(rank(a) - rank(b))


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def cell(where: str, base, head) -> dict:
    """One differing cell: both values, and their ulps, relative difference
    and sign of head - base when both are numbers (all None otherwise, and
    the sign where either is NaN)."""
    a, b = _number(base), _number(head)
    entry = {"cell": where, "base": base, "head": head, "ulps": None, "rel": None, "sign": None}
    if a is not None and b is not None:
        entry["ulps"] = ulps(a, b)
        if entry["ulps"] is not None:
            entry["sign"] = (b > a) - (b < a)
        if a != b and math.isfinite(a) and math.isfinite(b):
            entry["rel"] = abs(a - b) / max(abs(a), abs(b))
        elif a == b:
            entry["rel"] = 0.0
    return entry


def diff_csv(base: bytes, head: bytes) -> tuple[list[str], list[dict]]:
    """Shape changes and differing cells of two CSV files; a cell is named by
    its data row (the header is row 0) and HEAD's column header."""
    a, b = (list(csv.reader(io.StringIO(x.decode()))) for x in (base, head))
    shape = [f"rows: {len(a) - 1} -> {len(b) - 1}"] if len(a) != len(b) else []
    header = b[0] if b else []
    cells = []
    for r, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            shape.append(f"row {r} columns: {len(ra)} -> {len(rb)}")
        for c, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                cells.append(cell(f"row {r}, {header[c] if r and c < len(header) else f'column {c}'}", x, y))
    return shape, cells


def _leaves(obj, path: str, leaves: dict, shapes: dict) -> None:
    if isinstance(obj, dict):
        shapes[path] = sorted(obj)
        for key, value in obj.items():
            _leaves(value, f"{path}.{key}" if path else key, leaves, shapes)
    elif isinstance(obj, list):
        shapes[path] = len(obj)
        for i, value in enumerate(obj):
            _leaves(value, f"{path}[{i}]", leaves, shapes)
    else:
        leaves[path] = obj


def diff_json(base: bytes, head: bytes) -> tuple[list[str], list[dict]]:
    """Shape changes (a list's length, an object's keys) and differing leaves
    of two JSON files, each leaf named by its path."""
    la, sa, lb, sb = {}, {}, {}, {}
    _leaves(json.loads(base), "", la, sa)
    _leaves(json.loads(head), "", lb, sb)
    shape = []
    for path in sorted(sa.keys() & sb.keys()):
        x, y = sa[path], sb[path]
        if x != y:
            name = path or "(top)"
            if isinstance(x, int) and isinstance(y, int):
                shape.append(f"{name} length: {x} -> {y}")
            elif isinstance(x, list) and isinstance(y, list):
                added, removed = sorted(set(y) - set(x)), sorted(set(x) - set(y))
                shape.append(f"{name} keys: added {added}, removed {removed}")
            else:
                shape.append(f"{name}: {'list' if isinstance(x, int) else 'object'} -> "
                             f"{'list' if isinstance(y, int) else 'object'}")
    for path in sorted((la.keys() & sb.keys()) | (sa.keys() & lb.keys())):
        shape.append(f"{path or '(top)'}: a value on one side, a list or object on the other")
    cells = [cell(path, la[path], lb[path]) for path in sorted(la.keys() & lb.keys())
             if (la[path], type(la[path])) != (lb[path], type(lb[path]))]
    return shape, cells


def diff_file(name: str, base: bytes | None, head: bytes | None) -> tuple[list[str], list[dict]]:
    if base is None or head is None:
        return [f"file only in {'head' if base is None else 'base'}"], []
    if base == head:
        return [], []
    if name.endswith(".csv"):
        return diff_csv(base, head)
    if name.endswith(".json"):
        try:
            shape, cells = diff_json(base, head)
        except json.JSONDecodeError as exc:
            return [f"not JSON on one side: {exc}"], []
        # same values in other bytes (spacing, key order): name it, so no change goes unreported
        return shape or ([] if cells else ["bytes differ, values equal"]), cells
    return [], [cell("text", base.decode(errors="replace"), head.decode(errors="replace"))]


def table(files: dict) -> str:
    lines = ["| file | cell | base | head | ulps | relative |", "|---|---|---|---|---|---|"]
    shown = 0
    for name, entry in files.items():
        for change in entry["shape"]:
            lines.append(f"| {name} | {change} | | | | |")
        for c in entry["cells"]:
            if shown < TABLE_ROWS:
                rel = "" if c["rel"] is None else f"{c['rel']:.3g}"
                ulp = "" if c["ulps"] is None else str(c["ulps"])
                lines.append(f"| {name} | {c['cell']} | {c['base']} | {c['head']} | {ulp} | {rel} |")
            shown += 1
    if shown > TABLE_ROWS:
        lines.append(f"| ... | {shown - TABLE_ROWS} more cells in the --out file | | | | |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write the diff to")
    parser.add_argument("--write", action="store_true", help="rewrite HEAD's tests/golden/ from HEAD's runs")
    args = parser.parse_args(argv)
    cases = load_cases(args.head)
    held = held_files(cases)
    runs = {}
    with tempfile.TemporaryDirectory(prefix="golden_diff-") as tmp:
        for _, case, inputs, case_args, _ in held:
            if case not in runs:
                runs[case] = {side: run_case(checkout, inputs, case_args, Path(tmp, side, case.replace(" ", "_")))
                              for side, checkout in (("base", args.base), ("head", args.head))}
    files, stale = {}, {}
    compared = [(f"{case} (exit)", case, "(exit)") for case in runs]
    compared += [(golden, case, output) for golden, case, _, _, output in held]
    for name, case, output in compared:
        shape, cells = diff_file(output, runs[case]["base"].get(output), runs[case]["head"].get(output))
        if shape or cells:
            files[name] = {"case": case, "shape": shape, "cells": cells}
    golden = args.head / "tests" / "golden"
    for name, case, _, _, output in held:
        text = runs[case]["head"].get(output)
        if name not in files and text is not None and (golden / name).is_file():
            shape, cells = diff_file(output, (golden / name).read_bytes(), text)
            if shape or cells:
                stale[name] = {"case": case, "shape": shape, "cells": cells}
    report = {
        "base": str(args.base),
        "head": str(args.head),
        "files_compared": len(compared),
        "files_differing": len(files),
        "cells_differing": sum(len(entry["cells"]) for entry in files.values()),
        "shape_changes": sum(len(entry["shape"]) for entry in files.values()),
        "files": files,
        "stale": stale,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(table(files) if files else "no golden file differs", end="" if files else "\n")
    if stale:
        print("\nstale golden files, written alike by both sides (base: the file on disk)\n\n" + table(stale), end="")
    if args.write:
        for name, case, _, _, output in held:
            text = runs[case]["head"].get(output)
            if (name not in files and name not in stale) or text is None:
                continue
            if name.startswith("pin "):
                print(f"{name}: new sha256 {hashlib.sha256(text).hexdigest()}")
            else:
                (golden / name).write_bytes(text)
    return 1 if files else 0


if __name__ == "__main__":
    sys.exit(main())
