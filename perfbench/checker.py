"""Output checks for perfbench/run.py, in a process of their own.

    python3 perfbench/checker.py

The first line on standard input names the run:
{"workload": ..., "seed": ..., "tiny": ..., "batches": ...}.  The checker
rebuilds the run's commands from the seed, as the runner does.  Each further
line {"cid": ..., "dir": ..., "rc": ..., "message": ...} asks it to check one
command's output in dir; it answers with one line
{"problems": [[text, known], ...]}.  It stops at the end of its input.

The reference values (perfbench/oracle.py) hold arrays as large as the
program's own, so they are computed here, and the peak memory of the
runner's process is the program's alone.
"""

from __future__ import annotations

import json
import sys
import traceback

import workloads


def main() -> int:
    run = json.loads(sys.stdin.readline())
    gen = workloads.Generator(run["workload"], run["seed"], run["tiny"])
    _, batches = gen.plan(run["batches"])
    commands = {cmd.cid: cmd for batch in batches for cmd in batch}
    for line in sys.stdin:
        ask = json.loads(line)
        cmd = commands[ask["cid"]]
        rc = ask["rc"]
        if rc not in (0, 3):
            problems = [(f"exit {rc}: {ask['message'][-300:]}", cmd.exits_known(rc, ask["message"]))]
        else:
            try:
                problems = cmd.check(ask["dir"], rc)
            except Exception:
                problems = [("check could not read the output: " + traceback.format_exc(limit=-1), False)]
        sys.stdout.write(json.dumps({"problems": problems}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
