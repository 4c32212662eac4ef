"""Seeded inputs, command batches and output checks for the four workloads.

Every workload is a closed loop: one client sends the next command only after
the previous one has returned.  A batch is a fixed schedule of command shapes
(sizes, paths, refinements); the seed picks the inputs that fill it, so the
work per batch barely depends on the seed while no two commands of a run are
alike.  The program sees only the generated JSON files and its argv.

A check returns a list of problems.  A problem marked known is one of the
defects recorded for the library (float tests on exact verdict boundaries,
lp_modulus shortfalls that flat-piece rounding accounts for); it fails the
command without marking the run incorrect.  An exit 2 fails likewise only
when the command's message names a documented cap: more than 16 arcs without
a common baseline (which a witness whose rounding breaks its baseline also
hits), or direct power_log sums beyond 2^22 terms.  Any other exit 2 marks
the run incorrect.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("witness-sweep", "modulus-scan", "arcs-search", "series-table")

# Per-command limit in seconds, four to eight times the slowest command the
# library completes in that workload, so that the machine's own speed swings
# never trip it; a failed command is charged the limit plus its own time.
LIMITS = {"witness-sweep": 8.0, "modulus-scan": 8.0, "arcs-search": 5.0, "series-table": 2.0}

# Seconds one batch takes with its checks at this commit on the reference
# machine.  A run of S seconds does round(S / nominal) batches, so every run
# of a given length does the same work and reports percentiles over the same
# number of commands, however fast the program is.
NOMINAL_BATCH_S = {"witness-sweep": 5.5, "modulus-scan": 3.5, "arcs-search": 3.5, "series-table": 2.0}

DELTA_DEPTH = 6  # the CLI default, used by every variation and sharpness command
LP_H_SAMPLES = 64  # shift samples per unit the CLI passes to lp_modulus
REL_TOL = 1e-9


@dataclass
class Command:
    cid: str
    argv: list[str]
    files: dict[str, str]
    check: Callable[[str, int], list[tuple[str, bool]]]
    # the exit of a documented cap that may end this command at this commit:
    # (exit code, test of the message the command printed)
    known_exit: tuple[int, Callable[[str], bool]] | None = None

    def exits_known(self, rc: int, message: str) -> bool:
        return self.known_exit is not None and rc == self.known_exit[0] and self.known_exit[1](message)


ARC_CAP = re.compile(r"error: \w+: function has (\d+) monotone arcs and no common baseline; "
                     r"the exact search is exponential and supported only up to 16 arcs")
POWER_LOG_CAP = "error: sequence: range too long for direct summation of the power_log family"


def arc_cap(arcs: int | None = None) -> tuple[int, Callable[[str], bool]]:
    """Exit 2 from the 16-arc cap, on ``arcs`` arcs (any count above 16 when
    None)."""
    def test(message: str) -> bool:
        m = ARC_CAP.search(message)
        return m is not None and int(m.group(1)) > 16 and (arcs is None or int(m.group(1)) == arcs)

    return 2, test


@dataclass
class Problems:
    items: list[tuple[str, bool]] = field(default_factory=list)

    def close(self, what: str, got: float, want: float):
        if not abs(got - want) <= REL_TOL * max(abs(want), 1e-300):
            self.items.append((f"{what}: got {got!r}, want {want!r}", False))

    def within(self, what: str, got: float, lo: float, hi: float):
        if not (lo * (1.0 - REL_TOL) - 1e-300 <= got <= hi * (1.0 + REL_TOL) + 1e-300):
            self.items.append((f"{what}: {got!r} outside [{lo!r}, {hi!r}]", False))

    def equal(self, what: str, got, want, known: bool = False):
        if got != want:
            self.items.append((f"{what}: got {got!r}, want {want!r}", known))


def _read_csv(out: str, command: str) -> list[dict]:
    with open(os.path.join(out, f"{command}.csv"), encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dec(k: int, places: int = 2) -> str:
    """Decimal literal k / 10^places, as a user would type it."""
    return f"{k / 10**places:.{places}f}".rstrip("0").rstrip(".") or "0"


def _grid(lo: int, hi: int, step: int) -> list[str]:
    return [_dec(k) for k in range(lo, hi + 1, step)]


def _seq_json(family: str, params: dict) -> str:
    return json.dumps({"family": family, "params": {k: float(v) for k, v in params.items()}})


def _floats(params: dict) -> dict:
    return {k: float(v) for k, v in params.items()}


# ------------------------------------------------------------------ inputs


def _positions(rng, n: int) -> np.ndarray:
    """n sorted positions in [0, 1) whose cyclic gaps are all at least 0.2/n."""
    g = 0.2 / n
    gaps = g + (1.0 - n * g) * rng.dirichlet(np.ones(n))
    x0 = rng.uniform(0.0, gaps[-1] * 0.999)
    return x0 + np.concatenate([[0.0], np.cumsum(gaps[:-1])])


def generic_function(rng, n: int) -> list[list[float]]:
    pos = _positions(rng, n)
    return [[x, y] for x, y in zip(pos.tolist(), rng.uniform(-1.0, 1.0, n).tolist())]


def alternating_function(rng, m: int) -> list[list[float]]:
    """m breakpoints, all local extrema, maxima and minima alternating, all
    values distinct, minima and maxima both unequal: exactly m monotone arcs
    and no common baseline."""
    while True:
        pos = _positions(rng, m)
        val = np.where(np.arange(m) % 2 == 0, rng.uniform(0.2, 1.0, m), rng.uniform(-1.0, -0.2, m))
        bp = [[x, y] for x, y in zip(pos.tolist(), val.tolist())]
        f = oracle.PL(bp)
        if len(set(val.tolist())) == m and len(oracle.extrema(f)) == m and not oracle.baseline_separated(f):
            return bp


# ------------------------------------------------------------------ checks


def _check_variation(f: oracle.PL, p: float, refine: int, inv_w):
    def check(out: str, rc: int):
        pr = Problems()
        pr.equal("exit code", rc, 0)
        rows = _read_csv(out, "variation")
        by = {}
        for row in rows:
            by.setdefault(row["functional"], []).append(float(row["value"]))
        deltas = [2.0**-j for j in range(DELTA_DEPTH + 1)]
        vp = oracle.p_variation(f, p)
        pr.equal("p_variation rows", len(by.get("p_variation", [])), 1)
        for got in by.get("p_variation", []):
            pr.close("p_variation", got, vp)
        lp = by.get("lp_modulus", [])
        pr.equal("lp_modulus rows", len(lp), len(deltas))
        for d, got, (lo, floor, hi) in zip(deltas, lp, oracle.lp_modulus_brackets(f, p, deltas, LP_H_SAMPLES)):
            if floor * (1.0 - REL_TOL) <= got < lo * (1.0 - REL_TOL):
                # the library integrates nearly flat pieces (|v - u| just above
                # its 1e-14 cutoff) in a closed form that cancels; a shortfall
                # that rounding accounts for is its known defect
                pr.items.append((f"lp_modulus({d}): {got!r} below the sampled sup {lo!r} "
                                 f"by {1.0 - got / lo:.2e}, within flat-piece rounding", True))
            else:
                pr.within(f"lp_modulus({d})", got, lo, hi)
        mc = by.get("modulus_p_continuity", [])
        pr.equal("modulus_p_continuity rows", len(mc), len(deltas))
        for d, got in zip(deltas, mc):
            pr.within(f"modulus_p_continuity({d})", got, oracle.grid_modulus(f, p, d, refine), vp)
        if inv_w is not None:
            lv = by.get("lambda_variation", [])
            pr.equal("lambda_variation rows", len(lv), 1)
            for got in lv:
                pr.close("lambda_variation", got, oracle.lambda_variation(f, inv_w))
        return pr.items

    return check


def _check_sharpness(family, params, p: float, alpha: float, levels: int, refine: int):
    def check(out: str, rc: int):
        pr = Problems()
        pr.equal("exit code", rc, 0)
        rows = _read_csv(out, "sharpness")
        pr.equal("sharpness rows", [int(r["level"]) for r in rows], list(range(1, levels + 1)))
        p_prime = p / (p - 1.0)
        r_prime = 1.0 / (1.0 + 1.0 / p - alpha)
        total = 0.0
        for n, row in zip(range(1, levels + 1), rows):
            inner = oracle.weighted_sum(family, params, p_prime * (alpha - 1.0 / p), p_prime, 2**n, 2 ** (n + 1))
            total += inner ** (r_prime / p_prime)
            crit = float(row["criterion_partial_pow"])
            vlam, omega = float(row["lambda_variation"]), float(row["omega_ratio"])
            pr.close(f"criterion_partial_pow[{n}]", crit, total ** (1.0 / r_prime))
            pr.close(f"vlam_quotient[{n}]", float(row["vlam_quotient"]), vlam / crit)
            pr.close(f"omega_quotient[{n}]", float(row["omega_quotient"]), vlam / omega)
        g = oracle.PL(_read_json(os.path.join(out, "sharpness_function.json"))["breakpoints"])
        if not oracle.baseline_separated(g):
            pr.items.append(("witness has no common baseline", False))
            return pr.items
        m = len(oracle.extrema(g))
        k = np.arange(1, m + 1, dtype=float)
        last = rows[-1]
        pr.close("lambda_variation[last]", float(last["lambda_variation"]),
                 oracle.lambda_variation(g, 1.0 / oracle.lam_terms(family, params, k)))
        e = alpha - 1.0 / p
        lo = hi = 0.0
        for j in range(DELTA_DEPTH + 1):
            d = 2.0**-j
            grid, exact = oracle.comb_modulus(g, p, d, refine)
            lo, hi = max(lo, grid / d**e), max(hi, exact / d**e)
        pr.within("omega_ratio[last]", float(last["omega_ratio"]), lo, hi)
        return pr.items

    return check


def _check_criterion(family, params, p: str, alpha: str, blocks: int):
    def check(out: str, rc: int):
        pr = Problems()
        pr.equal("exit code", rc, 0)
        rows = _read_csv(out, "criterion")
        pr.equal("criterion rows", len(rows), blocks + 1)
        want = oracle.criterion_rows(family, _floats(params), float(p), float(alpha), blocks)
        for n, (row, (inner, term, total)) in enumerate(zip(rows, want)):
            pr.close(f"inner_sum[{n}]", float(row["inner_sum"]), inner)
            pr.close(f"partial_sum[{n}]", float(row["partial_sum"]), total)
        verdict = _read_json(os.path.join(out, "criterion.json"))["verdict"]
        pr.equal("verdict", verdict, oracle.criterion_verdict(family, params, p, alpha),
                 known=_on_boundary(family, params, p, alpha))
        return pr.items

    return check


def _on_boundary(family, params, p: str, alpha: str) -> bool:
    """True when the condensation exponent E of the criterion is exactly 0."""
    if family == "block_power_log":
        return Fraction(params["alpha"]) == Fraction(alpha)
    return Fraction(params["s"]) == 1 - Fraction(alpha)


def _check_wang(p: str, alpha: str, s: str, blocks: int):
    def check(out: str, rc: int):
        pr = Problems()
        pr.equal("exit code", rc, 0)
        rows = _read_csv(out, "wang-demo")
        pr.equal("wang-demo rows", len(rows), blocks)
        params = {"s": float(s), "alpha": float(alpha)}
        wang = oracle.wang_rows(float(s), float(alpha), float(alpha), blocks)
        crit = oracle.criterion_rows("block_power_log", params, float(p), float(alpha), blocks)
        for m, row in enumerate(rows):
            pr.close(f"wang_partial[{m}]", float(row["wang_partial"]), wang[m])
            pr.close(f"criterion_partial[{m}]", float(row["criterion_partial"]), crit[m][2])
        summary = _read_json(os.path.join(out, "wang-demo.json"))
        pr.equal("wang_verdict", summary["wang_verdict"], oracle.wang_verdict(s, alpha, alpha))
        # the family's alpha equals the query's, so this verdict sits on the
        # condensation boundary by construction
        pr.equal("criterion_verdict", summary["criterion_verdict"],
                 oracle.criterion_verdict("block_power_log", {"s": s, "alpha": alpha}, p, alpha),
                 known=True)
        return pr.items

    return check


PERLMAN_TERMS = 1_000_000
PERLMAN_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)


def _check_perlman(p: str, w: str | None):
    def check(out: str, rc: int):
        pr = Problems()
        pf = float(p)
        rows, growth = oracle.perlman_rows(pf, float(w) if w else 1.0 / pf, PERLMAN_TERMS, PERLMAN_CHECKPOINTS)
        pr.equal("exit code", rc, 0 if growth >= 0.05 else 3)
        got = _read_csv(out, "perlman-demo")
        pr.equal("perlman-demo rows", [int(r["N"]) for r in got], list(PERLMAN_CHECKPOINTS))
        for row, (n, div, conv) in zip(got, rows):
            pr.close(f"sum_d_over_lambda[{n}]", float(row["sum_d_over_lambda"]), div)
            pr.close(f"sum_lambda_minus_pprime[{n}]", float(row["sum_lambda_minus_pprime"]), conv)
        return pr.items

    return check


HARDY = dict(betas=(0.25, 0.5, 1.0), rs=(1.5, 2.0, 3.0), trials=500, draw=64, nu=tuple(2.0**k for k in range(11)))


def _check_hardy(seed: int):
    def check(out: str, rc: int):
        pr = Problems()
        pr.equal("exit code", rc, 0)
        got = _read_csv(out, "hardy-demo")
        want = oracle.hardy_rows(seed, **HARDY)
        pr.equal("hardy-demo rows", len(got), len(want))
        for row, (beta, r, mx, mean) in zip(got, want):
            pr.close(f"max_ratio[{beta},{r}]", float(row["max_ratio"]), mx)
            pr.close(f"mean_ratio[{beta},{r}]", float(row["mean_ratio"]), mean)
        return pr.items

    return check


# ------------------------------------------------------------------ batches

# (levels, p, refine): p = 2 takes the squared path of the chain DP, p = 1.5
# the general one; cost grows ~4x per level, so level 11 appears once.  Two
# slots at levels 9 and 10 with p = 2 put the median command and the tail
# percentile (ten commands above it) inside a group of eight alike commands,
# so that neither rests on a single one.
WITNESS_SCHEDULE = [(8, "1.5", 1), (8, "2", 1), (9, "2", 0), (9, "2", 0), (9, "1.5", 0), (10, "2", 0), (10, "2", 0),
                    (10, "1.5", 0), (11, "2", 0)]
WITNESS_TINY = [(5, "2", 0), (5, "1.5", 1), (6, "2", 0)]
# (breakpoints, p, refine): lp_modulus costs O(n^3).  An odd number of slots
# puts the median command inside a slot, not on the edge between two.
MODULUS_SCHEDULE = [(24, "3", 2), (28, "2", 1), (32, "1.5", 1), (40, "2", 0), (48, "3", 0), (56, "1.5", 0),
                    (64, "2", 0)]
MODULUS_TINY = [(12, "2", 1), (16, "1.5", 0)]
# (arcs, weights): arcs alternate up and down, so their number is even; the
# subset search doubles per arc and stops at 16 arcs
ARCS_SCHEDULE = [(14, "power"), (14, "explicit"), (16, "power"), (16, "explicit"), (18, "power"), (20, "explicit")]
ARCS_TINY = [(8, "power"), (10, "explicit"), (18, "power")]
SERIES_SCHEDULE = [(k,) for k in ("power", "power", "power", "power_log", "power_log", "block_power_log",
                                   "block_power_log", "wang", "wang", "perlman", "perlman", "hardy", "hardy")]
SERIES_TINY = [(k,) for k in ("power", "power_log", "block_power_log", "wang", "perlman", "hardy")]

# workload -> (schedule, tiny schedule, warm-up command shapes).  The warm-up
# takes each code path of the schedule (p = 2 and general p, refinement, each
# weight kind, each demo) once on a small input, so that no timed command
# pays a first call and set-up time barely depends on the seed.
SCHEDULES = {
    "witness-sweep": (WITNESS_SCHEDULE, WITNESS_TINY, [(6, "1.5", 1), (6, "2", 0)]),
    "modulus-scan": (MODULUS_SCHEDULE, MODULUS_TINY, [(12, "3", 2), (12, "1.5", 0)]),
    "arcs-search": (ARCS_SCHEDULE, ARCS_TINY, [(8, "power"), (8, "explicit")]),
    "series-table": (SERIES_SCHEDULE, SERIES_TINY, [(k,) for k in ("power", "block_power_log", "wang", "perlman",
                                                                   "hardy")]),
}

P_GRID = ["1.5", "2", "2.5", "3", "4"]
ALPHA_GRID = ["0.6", "0.7", "0.75", "0.8", "0.9"]


class Generator:
    """Seeded source of distinct commands for one workload."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.seen: set = set()

    def _fresh(self, draw: Callable[[], tuple]):
        """Draw until the command key is new to this run."""
        for _ in range(1000):
            key = draw()
            if key not in self.seen:
                self.seen.add(key)
                return key
        raise RuntimeError("parameter grid exhausted")

    def _maker(self):
        return {"witness-sweep": self._sharpness, "modulus-scan": self._variation,
                "arcs-search": self._arcs, "series-table": self._series}[self.workload]

    def batch(self, index: int) -> list[Command]:
        rng = np.random.default_rng([self.seed, WORKLOADS.index(self.workload), index])
        full, tiny, _ = SCHEDULES[self.workload]
        return [self._maker()(rng, f"{index}.{i}", *shape) for i, shape in enumerate(tiny if self.tiny else full)]

    def warmup(self) -> list[Command]:
        """Small commands of the workload's own kinds, run untimed."""
        rng = np.random.default_rng([self.seed, WORKLOADS.index(self.workload), 1 << 30])
        return [self._maker()(rng, f"w{i}", *shape) for i, shape in enumerate(SCHEDULES[self.workload][2])]

    def plan(self, batches: int) -> tuple[list[Command], list[list[Command]]]:
        """The warm-up commands and ``batches`` batches, always drawn in this
        order, so that any process holding the seed rebuilds the same run."""
        warm = self.warmup()
        return warm, [self.batch(i) for i in range(batches)]

    # witness-sweep: sharpness over weight families, p and alpha
    def _sharpness(self, rng, cid, levels, p, refine):
        def draw():
            family = ("power", "power_log", "block_power_log")[rng.integers(3)]
            alphas = [a for a in _grid(55, 95, 5) if Fraction(a) > 1 / Fraction(p)]
            alpha = alphas[rng.integers(len(alphas))]
            if family == "power":
                params = (("s", _dec(rng.integers(0, 21), 1)),)
            elif family == "power_log":
                params = (("s", _dec(rng.integers(1, 16), 1)), ("t", _dec(rng.integers(1, 7) * 5, 1)))
            else:
                params = (("s", _dec(rng.integers(-5, 21), 1)), ("alpha", _dec(rng.integers(1, 10), 1)))
            return ("sharpness", levels, p, refine, alpha, family, params)

        _, _, _, _, alpha, family, params = self._fresh(draw)
        params = dict(params)
        argv = ["--command", "sharpness", "--sequence", "{dir}/seq.json", "--levels", str(levels),
                "--p", p, "--alpha", alpha] + (["--refine", str(refine)] if refine else [])
        # the witness's valleys are meant to be exactly 0.0, but float rounding
        # at tile boundaries can break the common baseline; lambda_variation
        # then hits the 16-arc cap and the command exits 2
        return Command(cid, argv, {"seq.json": _seq_json(family, params)},
                       _check_sharpness(family, _floats(params), float(p), float(alpha), levels, refine),
                       known_exit=arc_cap())

    # modulus-scan: variation on generic functions
    def _variation(self, rng, cid, n, p, refine):
        bp = self._fresh(lambda: tuple(map(tuple, generic_function(rng, n))))
        argv = ["--command", "variation", "--function", "{dir}/f.json", "--p", p] + (
            ["--refine", str(refine)] if refine else [])
        return Command(cid, argv, {"f.json": json.dumps({"breakpoints": bp})},
                       _check_variation(oracle.PL(bp), float(p), refine, None))

    # arcs-search: variation --sequence on functions without a common baseline
    def _arcs(self, rng, cid, m, weights):
        bp = self._fresh(lambda: tuple(map(tuple, alternating_function(rng, m))))
        p = ("1.5", "2", "3")[rng.integers(3)]
        if weights == "power":
            s = _dec(rng.integers(1, 11), 1)
            seq = _seq_json("power", {"s": s})
            inv_w = 1.0 / oracle.lam_terms("power", {"s": float(s)}, np.arange(1, m + 1, dtype=float))
        else:
            terms = (1.0 + np.cumsum(rng.uniform(0.0, 1.0, m + 4))).tolist()
            seq = json.dumps({"family": "explicit", "terms": terms})
            inv_w = 1.0 / np.asarray(terms)
        argv = ["--command", "variation", "--function", "{dir}/f.json", "--sequence", "{dir}/seq.json", "--p", p]
        return Command(cid, argv, {"f.json": json.dumps({"breakpoints": bp}), "seq.json": seq},
                       _check_variation(oracle.PL(bp), float(p), 0, inv_w),
                       known_exit=arc_cap(m) if m > 16 else None)

    # series-table: criterion and the three demos on a decimal grid
    def _series(self, rng, cid, kind):
        pick = lambda xs: xs[rng.integers(len(xs))]
        if kind in ("power", "power_log", "block_power_log"):
            def draw():
                p = pick(P_GRID)
                alpha = pick([a for a in ALPHA_GRID if Fraction(a) > 1 / Fraction(p)])
                if kind == "power":
                    params = (("s", _dec(rng.integers(1, 13), 1)),)
                elif kind == "power_log":
                    params = (("s", _dec(rng.integers(1, 10), 1)), ("t", pick(["0.5", "1", "2", "3", "5"])))
                else:
                    params = (("s", pick(["-0.5", "0", "0.5", "1", "1.5", "2", "3"])), ("alpha", pick(ALPHA_GRID)))
                return (kind, p, alpha, params)

            _, p, alpha, params = self._fresh(draw)
            params = dict(params)
            argv = ["--command", "criterion", "--sequence", "{dir}/seq.json", "--p", p, "--alpha", alpha]
            return Command(cid, argv, {"seq.json": _seq_json(kind, params)},
                           _check_criterion(kind, params, p, alpha, 30),
                           known_exit=(2, lambda msg: POWER_LOG_CAP in msg) if kind == "power_log" else None)
        if kind == "wang":
            def draw():
                p = pick(["1.5", "2", "3", "4"])
                alpha = pick([a for a in ALPHA_GRID if Fraction(a) > 1 / Fraction(p)])
                upper = (1 + 1 / Fraction(p) - Fraction(alpha)) / (1 - Fraction(alpha))
                ks = [k for k in range(101, 1000) if Fraction(k, 100) < upper]
                return ("wang", p, alpha, _dec(pick(ks)))

            _, p, alpha, s = self._fresh(draw)
            argv = ["--command", "wang-demo", "--p", p, "--alpha", alpha, "--s", s]
            return Command(cid, argv, {}, _check_wang(p, alpha, s, 30))
        if kind == "perlman":
            def draw():
                p = _dec(rng.integers(12, 41), 1)
                if rng.integers(2):
                    return ("perlman", p, None)
                ws = [k for k in range(1, 100) if Fraction(1, 2) <= Fraction(k, 100) * Fraction(p) <= Fraction(95, 100)]
                return ("perlman", p, _dec(pick(ws)))

            _, p, w = self._fresh(draw)
            argv = ["--command", "perlman-demo", "--p", p] + (["--d-power", w] if w else [])
            return Command(cid, argv, {}, _check_perlman(p, w))
        _, seed = self._fresh(lambda: ("hardy", int(rng.integers(0, 2**31))))
        return Command(cid, ["--command", "hardy-demo", "--seed", str(seed)], {}, _check_hardy(seed))
