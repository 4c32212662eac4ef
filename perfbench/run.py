"""lambdabv benchmark: drives the CLI in-process on one seeded workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ./src.  One
process serves one workload with one thread: batches of distinct commands go
through lambdabv.cli.main(argv) one at a time, as many batches as the
workload's nominal batch time fits into --seconds, and every command's output
is checked against perfbench/oracle.py in a child process (checker.py).
Times are scaled to the reference speed of the machine (see Speed).  With
--trace 0 the end-to-end metrics are reported; with --trace 1 each batch runs
once plain and once with spans around the public functions of cli, periodic,
variation, sequences and constructions, and the per-layer metrics are
reported.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy loads, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
COLD_SAMPLES = 9  # cold set-ups (cold.py) in an untraced run, spread over its commands
DEADLINE_FACTOR = 2.0  # no batch starts after this many times --seconds
QUIET_BATCH_S = 0.5  # longest wait for a quiet machine, per batch
QUIET_COLD_S = 0.2  # and before each cold start
REFERENCE_S = 1.2e-3  # Speed's reference loop, best of three, on the 2-core reference machine in a quiet phase

END_TO_END = {
    "batch_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.main.self_s": "s",
    "periodic.superpose.self_s": "s",
    "periodic.monotone_arcs.self_s": "s",
    "periodic.monotone_arcs.calls": "count",
    "periodic.make_plpf.self_s": "s",
    "variation.p_cont_ratio_norm.self_s": "s",
    "variation.p_cont_ratio_norm.calls": "count",
    "variation.lp_modulus.self_s": "s",
    "variation.lp_modulus.calls": "count",
    "variation.p_variation.self_s": "s",
    "variation.modulus_p_continuity.self_s": "s",
    "variation.lambda_variation.self_s": "s",
    "variation.lambda_variation.calls": "count",
    "variation.lambda_variation.subset_share": "ratio",
    "variation.breakpoints_in": "count",
    "sequences.weighted_block_sum.self_s": "s",
    "sequences.weighted_block_sum.calls": "count",
    "sequences.criterion_partial_sums.self_s": "s",
    "sequences.wang_partial_sums.self_s": "s",
    "sequences.hardy_two_sides.self_s": "s",
    "sequences.hardy_two_sides.calls": "count",
    "sequences.regularize_sequence.self_s": "s",
    "constructions.extremal_function.self_s": "s",
    "constructions.triangle_comb.self_s": "s",
    "constructions.perlman_witness.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class CommandTimeout(BaseException):
    """Raised by SIGALRM when a command exceeds its limit."""


def _on_alarm(signum, frame):
    raise CommandTimeout


@dataclass
class Outcome:
    cid: str
    status: str  # pass, wrong, exit, raise, timeout
    elapsed: float  # wall clock
    scaled: float  # elapsed at the reference speed
    charged: float
    known: bool  # failed only through a documented cap or defect
    detail: str

    @property
    def failed(self) -> bool:
        return self.status != "pass"

    @property
    def incorrect(self) -> bool:
        """A wrong output, a traceback or an unexpected exit code."""
        return self.failed and self.status != "timeout" and not self.known


class Speed:
    """The machine's speed, read from a fixed ~1 ms reference loop.

    Other tenants swing this machine's speed by up to 2x, in phases that last
    from seconds to minutes, longer than a run.  The loop, which does not
    touch the program, slows down with them: alternated with two fixed
    commands for 240 s, its log time correlated 0.8 with theirs, and scaling
    by it cut the spread of their 20-second medians from 0.10-0.13 to
    0.02-0.05.  So every timed interval is bracketed by readings of the loop
    and scaled by REFERENCE_S over their mean: seconds at the reference
    machine's quiet speed.  Before a command the runner also waits, briefly,
    until one run of the loop lands within 15% of the best seen in this
    process.
    """

    def __init__(self) -> None:
        import numpy

        self._x = numpy.random.default_rng(0).random(600)
        self.best = float("inf")

    def _reference(self) -> float:
        x = self._x
        t0 = time.perf_counter()
        for j in range(1, len(x)):
            float((x[:j] - x[j]).max())
        return time.perf_counter() - t0

    def reading(self) -> float:
        """The loop's time now, best of three."""
        return min(self._reference() for _ in range(3))

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` taken between two readings, at the reference speed."""
        return seconds * REFERENCE_S / ((before + after) / 2.0)

    def wait(self, budget: float) -> float:
        """Wait at most ``budget`` seconds; return the time spent."""
        start = time.perf_counter()
        while budget > 0.0:
            r = self._reference()
            self.best = min(self.best, r)
            if r <= 1.15 * self.best or time.perf_counter() - start >= budget:
                break
        return time.perf_counter() - start


def prepare(commands, workdir: Path, tag: str = "") -> list[Path]:
    """Write each command's input files into its own directory."""
    dirs = []
    for cmd in commands:
        d = workdir / f"{cmd.cid}{tag}"
        d.mkdir(parents=True, exist_ok=True)
        for name, text in cmd.files.items():
            (d / name).write_text(text, encoding="utf-8")
        dirs.append(d)
    return dirs


class Checker:
    """perfbench/checker.py in a child process, fed one command at a time."""

    def __init__(self, args, batches: int) -> None:
        self._proc = subprocess.Popen([sys.executable, str(HERE / "checker.py")], cwd=ROOT, text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._send({"workload": args.workload, "seed": args.seed, "tiny": args.tiny, "batches": batches})

    def _send(self, obj) -> None:
        self._proc.stdin.write(json.dumps(obj) + "\n")
        self._proc.stdin.flush()

    def check(self, cid: str, d: Path, rc, message: str) -> list[tuple[str, bool]]:
        self._send({"cid": cid, "dir": str(d), "rc": rc, "message": message})
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the checker exited with code {self._proc.wait()}")
        return [(text, known) for text, known in json.loads(line)["problems"]]

    def __enter__(self) -> "Checker":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()


def execute(cli, cmd, d: Path, limit: float, speed: Speed, checker: Checker | None) -> Outcome:
    """Run one command under the time limit, then have its output checked."""
    argv = [a.replace("{dir}", str(d)) for a in cmd.argv] + ["--out", str(d)]
    sink = io.StringIO()
    rc, status, detail = None, "pass", ""
    before = speed.reading()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = cli.main(argv)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CommandTimeout:
        status, detail = "timeout", f"exceeded {limit} s"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        status, detail = "raise", traceback.format_exc(limit=-3)
    scaled = speed.scale(elapsed, before, speed.reading())
    known = False
    if status == "pass" and checker is not None:
        problems = checker.check(cmd.cid, d, rc, sink.getvalue())
        if problems:
            status = "wrong" if rc in (0, 3) else "exit"
            known = all(k for _, k in problems)
            detail = "; ".join(p for p, _ in problems[:3])
    charged = scaled if status == "pass" else limit + scaled
    return Outcome(cmd.cid, status, elapsed, scaled, charged, known, detail)


def run_batch(cli, commands, dirs, limit: float, speed: Speed, checker: Checker, tracer=None,
              cold: ColdSamples | None = None) -> list[Outcome]:
    """Run a batch in order; the batch may spend QUIET_BATCH_S waiting."""
    outcomes, budget = [], QUIET_BATCH_S
    for cmd, d in zip(commands, dirs):
        budget -= speed.wait(budget)
        if tracer is not None:
            tracer.command = cmd.cid
        outcomes.append(execute(cli, cmd, d, limit, speed, checker))
        if cold is not None:
            cold.after_command()
    return outcomes


def set_up(cli, workloads, args, batches: int, workdir: Path, limit: float):
    """Generate every input of the run, write the first batch's and run the
    warm-up commands (unchecked); return the seconds taken and the plan."""
    t0 = time.perf_counter()
    warm, plan = workloads.Generator(args.workload, args.seed, args.tiny).plan(batches)
    dirs = prepare(plan[0] + warm, workdir)
    speed = Speed()
    for cmd, d in zip(warm, dirs[len(plan[0]):]):
        execute(cli, cmd, d, limit, speed, None)
    return time.perf_counter() - t0, plan


class ColdSamples:
    """Fresh interpreters running cold.py, spread evenly over a run's commands.

    The machine's speed drifts within seconds, so samples taken at many
    moments of the run, not in a few clusters, see its phases in proportion.
    Each sample is one import of lambdabv.cli and one whole set-up, scaled
    by the Speed readings taken right before and after the fresh interpreter.
    """

    def __init__(self, args, speed: Speed, commands: int) -> None:
        self._argv = [sys.executable, str(HERE / "cold.py"), "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        self._env = dict(os.environ,
                         PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self._speed = speed
        self._spacing = commands / (COLD_SAMPLES + 1)
        self._commands = 0
        self.imports: list[float] = []
        self.setup: list[float] = []

    def _sample(self) -> None:
        self._speed.wait(QUIET_COLD_S)
        before = self._speed.reading()
        done = subprocess.run(self._argv, env=self._env, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        after = self._speed.reading()
        import_s, setup_s = map(float, done.stdout.split())
        self.imports.append(import_s)
        self.setup.append(self._speed.scale(setup_s, before, after))

    def after_command(self) -> None:
        self._commands += 1
        while len(self.setup) < COLD_SAMPLES and self._commands >= (len(self.setup) + 1) * self._spacing:
            self._sample()

    def finish(self) -> None:
        """Take the samples a run cut short by its deadline did not reach."""
        while len(self.setup) < COLD_SAMPLES:
            self._sample()


def typical_batch(outcomes: list[Outcome]) -> float:
    """One batch's time to solution, taken slot by slot: the sum over the
    batch's schedule of each slot's median charged time across batches.  A
    failure that strikes a slot now and then (each costs the limit) moves
    it only when it strikes that slot in half the batches."""
    slots: dict[str, list[float]] = {}
    for o in outcomes:
        slots.setdefault(o.cid.split(".")[1], []).append(o.charged)
    return sum(statistics.median(v) for v in slots.values())


def tail(values: list[float]) -> tuple[float, int]:
    """The value with exactly ten samples above it, and its percentile; the
    maximum when there are ten samples or fewer."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100
    return v[n - 11], (100 * (n - 10)) // n


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "measured": "this process and its own child processes only",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one small batch, for the self-test")
    return parser.parse_args(argv)


def planned_batches(args, workloads) -> int:
    """As many batches as the workload's nominal batch time fits into
    --seconds; a traced run does half as many, since each runs twice."""
    if args.tiny:
        return 1
    passes = 1 + args.trace
    return max(1, round(args.seconds / (passes * workloads.NOMINAL_BATCH_S[args.workload])))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lambdabv" / "cli.py").is_file():
        print(f"perfbench: no lambdabv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lambdabv.cli as cli

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    limit = workloads.LIMITS[args.workload]
    batches = planned_batches(args, workloads)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        return _measure(args, cli, spans, workloads, limit, batches, name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cli, spans, workloads, limit, batches, name, workdir) -> int:
    env = environment()
    speed = Speed()
    speed.wait(0.5)

    # set-up is timed in cold starts spread over the batches, not here
    _, plan = set_up(cli, workloads, args, batches, workdir / "setup", limit)
    cold = ColdSamples(args, speed, sum(map(len, plan)))

    tracer = spans.Tracer()
    plain, traced = [], []
    plain_elapsed = traced_elapsed = 0.0
    done = 0
    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
    with Checker(args, batches) as checker:
        for index, commands in enumerate(plan):
            if index and time.perf_counter() > deadline:
                break
            plain_dirs = prepare(commands, workdir / f"b{index}")
            if args.trace == 0:
                outcomes = run_batch(cli, commands, plain_dirs, limit, speed, checker, cold=cold)
                plain += outcomes
            else:
                traced_dirs = prepare(commands, workdir / f"b{index}", "t")
                # alternate which pass goes first, so neither always runs warm
                for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
                    if traced_pass:
                        with tracer.installed():
                            outcomes = run_batch(cli, commands, traced_dirs, limit, speed, checker, tracer)
                        traced += outcomes
                        traced_elapsed += sum(o.scaled for o in outcomes)
                    else:
                        outcomes = run_batch(cli, commands, plain_dirs, limit, speed, checker)
                        plain += outcomes
                        plain_elapsed += sum(o.scaled for o in outcomes)
            shutil.rmtree(workdir / f"b{index}", ignore_errors=True)
            done += 1
    if args.trace == 0:
        cold.finish()

    counted = traced if args.trace else plain
    failed = [o for o in counted if o.failed]
    correct = not any(o.incorrect for o in plain + traced)
    if args.trace == 0:
        ops = [o.charged for o in counted]
        walls = [o.elapsed + (0.0 if o.status == "pass" else limit) for o in counted]
        tail_s, tail_pct = tail(ops)
        values = {
            "batch_s": typical_batch(counted),
            "op_p50_s": statistics.median(ops),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(cold.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (len(counted) - len(failed)) / len(counted),
        }
        units = END_TO_END
        notes = [f"op_tail_s is p{tail_pct} over {len(ops)} commands; batch_s sums slot medians over {done} batches",
                 f"times are at the reference speed; as wall clock a command took {statistics.median(walls):.4f} s "
                 f"(median), scaled by {statistics.median(o.scaled / o.elapsed for o in counted):.3f} (median)",
                 "setup_s is the median of " + ", ".join(f"{s:.4f}" for s in cold.setup) + " s",
                 f"of which import lambdabv.cli: median {statistics.median(cold.imports):.4f} s, "
                 f"{min(cold.imports):.4f}-{max(cold.imports):.4f} s"]
    else:
        self_s, calls = tracer.self_times()
        lam_calls = calls["variation.lambda_variation"]
        derived = {
            "variation.lambda_variation.subset_share":
                tracer.counts["variation.lambda_variation.subset"] / lam_calls if lam_calls else 0.0,
            "variation.breakpoints_in": tracer.counts["variation.breakpoints_in"] / done,
            "trace.overhead_ratio": traced_elapsed / plain_elapsed,
        }
        values = {}
        for key in PER_LAYER:
            span, _, kind = key.rpartition(".")
            per_span = {"self_s": self_s, "calls": calls}.get(kind)
            values[key] = per_span[span] / done if per_span is not None else derived[key]
        units = PER_LAYER
        top = sorted(((k, v) for k, v in self_s.items() if k != spans.COUNT_SPAN), key=lambda kv: -kv[1])[:8]
        notes = [f"per-layer values are per batch, over {done} traced batches",
                 "largest self time: " + ", ".join(f"{k} {v / done:.4f} s" for k, v in top)]
        trace_file = OUT / f"trace-{name}.json"
        trace_file.write_text(json.dumps({"env": env, "counts": tracer.counts, "spans": tracer.spans}))
        notes.append(f"spans written to {trace_file.relative_to(ROOT)}")

    print(f"perfbench {name}: {len(counted)} commands in {done} batches, limit {limit} s per command")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("machine note: timings are wall clock on the machine above; nothing outside this process "
          "and its own child processes was measured")
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(f"  fail_ratio = {len(failed)}/{len(counted)}"
          f" ({sum(o.known for o in failed)} through documented caps or defects)")
    for note in notes:
        print("  " + note)
    for o in failed[:12]:
        print(f"  failed {o.cid}: {o.status}{' (known)' if o.known else ''}: {o.detail[:200]}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}.json").write_text(json.dumps(
        {"env": env, "values": values, "outcomes": [asdict(o) for o in counted]}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
