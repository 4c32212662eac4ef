"""One cold set-up of a run, timed from a fresh interpreter.

    PYTHONPATH=src python3 perfbench/cold.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Times `import lambdabv.cli`, before anything else is loaded, as in a fresh
CLI invocation, and then the run's set-up (run.set_up: generate the run's
inputs, write the first batch's, run the warm-up commands).  Prints the
import time and the whole set-up time, import included, in seconds, on one
line.  run.py starts this between its batches; setup_s is the median of
these samples.
"""

import time

t0 = time.perf_counter()
import lambdabv.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    args = run.parse_args(sys.argv[1:])
    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = run.OUT / f"cold-{os.getpid()}"
    try:
        generate_s, _ = run.set_up(cli, workloads, args, run.planned_batches(args, workloads), workdir,
                                   workloads.LIMITS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(import_s, import_s + generate_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
