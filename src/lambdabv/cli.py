"""Reproducible experiment runner: variation functionals on a stored
function, criterion series tables, sharpness curves of the comb witness,
and three demo suites, each emitting a versioned CSV plus a JSON summary.

Exit codes: 0 success, 2 invalid configuration or input (the offending
field is named on stderr), 3 a demo's expected phenomenon failed to
materialize (data files are still written)."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import cache

import numpy as np

from .constructions import (
    MAX_WITNESS_LEVELS,
    WitnessSpec,
    extremal_function,
    perlman_witness,
    wang_gap_family,
)
from .periodic import function_from_json, function_to_json, monotone_arcs
from .sequences import (
    criterion_partial_sums,
    hardy_two_sides,
    sequence_from_json,
    wang_partial_sums,
)
from .variation import (
    H_SAMPLES,
    MAX_DELTA_DEPTH,
    lambda_variation,
    lp_modulus,
    modulus_p_continuity,
    p_variation,
)

__all__ = ["ValidationError", "main", "run"]

SCHEMA_VERSION = 1
COMMANDS = ("variation", "criterion", "sharpness", "wang-demo", "perlman-demo", "hardy-demo")
# the block bound 2^(blocks + 1) must be a finite double
MAX_BLOCKS = 1022
PERLMAN_DECADES = (10**3, 10**4, 10**5, 10**6)
HARDY_TRIALS = 500
HARDY_BETAS = (0.25, 0.5, 1.0)
HARDY_RS = (1.5, 2.0, 3.0)
HARDY_DRAW = 64
HARDY_NU = tuple(float(2**k) for k in range(11))


class ValidationError(Exception):
    """Configuration or input rejection; carries the offending field name."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lambdabv",
        description="Run a variation/criterion/witness experiment and write CSV + JSON artifacts.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--function", dest="function_path", help="function JSON file")
    parser.add_argument("--sequence", dest="sequence_path", help="weight sequence JSON file")
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--alpha", type=float, default=0.75)
    parser.add_argument("--delta-depth", dest="delta_depth", type=int, default=6,
                        help="deepest dyadic scale 2^-depth for modulus grids")
    parser.add_argument("--refine", type=int, default=0,
                        help="uniform grid points added per segment in modulus searches")
    parser.add_argument("--levels", type=int, default=8, help="witness truncation level")
    parser.add_argument("--blocks", type=int, default=30, help="dyadic blocks in series tables")
    parser.add_argument("--out", required=True, help="output directory for CSV/JSON artifacts")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized demo suites")
    parser.add_argument("--s", type=float, default=2.0,
                        help="block family exponent used by wang-demo")
    parser.add_argument("--d-power", dest="d_power", type=float, default=None,
                        help="exponent w in d_n = n^-w for perlman-demo (default 1/p)")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    config = build_parser().parse_args(argv)
    for name in ("p", "alpha", "s", "d_power"):
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ValidationError(name.replace("_", "-"), "must be finite")
    for name in ("delta_depth", "refine", "blocks", "levels", "d_power", "seed"):
        value = getattr(config, name)
        if value is not None and value < 0:
            raise ValidationError(name.replace("_", "-"), "must be nonnegative")
    for name, top in (("delta_depth", MAX_DELTA_DEPTH), ("blocks", MAX_BLOCKS)):
        if getattr(config, name) > top:
            raise ValidationError(name.replace("_", "-"), f"must be at most {top}")
    return config


def _load(path: str | None, field: str, parse):
    """Read and parse the JSON input file named by the given field."""
    if not path:
        raise ValidationError(field, f"a {field} JSON file is required for this command")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(field, str(exc)) from exc
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(field, f"invalid {field} file: {exc}") from exc


@contextmanager
def _field(name: str, error: type[Exception] = ValueError):
    """Report an ``error``, by default a library ValueError, raised in the
    block as a rejection of the named field."""
    try:
        yield
    except error as exc:
        raise ValidationError(name, str(exc)) from exc


def _check_embedding_params(config: argparse.Namespace) -> tuple[Fraction, Fraction]:
    if not config.p > 1.0:
        raise ValidationError("p", "must satisfy p > 1")
    # the criterion's verdict reads p and alpha as the decimals they were
    # written as, where 1/p < alpha can fail for the double just above 1.0/p
    p, alpha = Fraction(repr(config.p)), Fraction(repr(config.alpha))
    if not (1.0 / config.p < config.alpha < 1.0 and 1 / p < alpha):
        raise ValidationError("alpha", "must lie in (1/p, 1)")
    return p, alpha


def _run_variation(config: argparse.Namespace):
    if config.p < 1.0:
        raise ValidationError("p", "must be at least 1")
    f = _load(config.function_path, "function", function_from_json)
    header = ["functional", "p", "alpha", "delta", "value", "refinement"]
    rows = []
    values = {}
    if config.sequence_path:
        lam = _load(config.sequence_path, "sequence", sequence_from_json)
        with _field("sequence"):
            lam.require(len(monotone_arcs(f)))
        with _field("function"):
            vlam = lambda_variation(f, lam)
        rows.append(["lambda_variation", "", "", "", vlam, ""])
        values["lambda_variation"] = vlam
    deltas = [2.0**-j for j in range(config.delta_depth + 1)]
    for delta, value in zip(deltas, lp_modulus(f, config.p, deltas)):
        rows.append(["lp_modulus", config.p, "", delta, value, H_SAMPLES])
    moduli = modulus_p_continuity(f, config.p, deltas, config.refine) if config.p > 1.0 else []
    for delta, value in zip(deltas, moduli):
        rows.append(["modulus_p_continuity", config.p, "", delta, value, config.refine])
    vp = moduli[0] if moduli and config.refine == 0 else p_variation(f, config.p)  # delta = 1 at refine 0 is v_p
    rows.append(["p_variation", config.p, "", "", vp, ""])
    values["p_variation"] = vp
    # |increment|^p overflows at a huge p, so a non-finite value names p. It
    # names the function where the spread of values overflows even at
    # min(p, 2): the L^p modulus integrates a power p + 1 of the spread (at
    # p = 2 none: it scales f first), the p-continuity modulus a power p, and
    # lambda_variation does not depend on p
    huge = not np.isfinite(np.ptp(f.values) ** (min(config.p, 2.0) + 1.0))
    for functional, _, _, _, value, _ in rows:
        if not math.isfinite(value):
            field = "function" if huge or functional == "lambda_variation" else "p"
            raise ValidationError(field, f"{functional} is not finite ({value})")
    summary = {
        "p": config.p,
        "delta_depth": config.delta_depth,
        "refinement": config.refine,
        "h_samples": H_SAMPLES,
        "values": values,
    }
    return header, rows, summary, {}, None


def _check_criterion(report) -> None:
    """The first non-finite value names its cause: an inner sum the sequence, a partial sum p."""
    for (n, inner, _), total in zip(report.block_terms, report.partial_sums):
        for field, name, value in (("sequence", "inner sum", inner), ("p", "partial sum", total)):
            if not math.isfinite(value):
                raise ValidationError(field, f"criterion {name} {n} is not finite ({value})")


def _run_criterion(config: argparse.Namespace):
    _check_embedding_params(config)
    lam = _load(config.sequence_path, "sequence", sequence_from_json)
    with _field("sequence"):
        report = criterion_partial_sums(lam, config.p, config.alpha, config.blocks)
    _check_criterion(report)
    header = ["n", "inner_sum", "block_term", "partial_sum"]
    rows = [[n, inner, term, report.partial_sums[n]] for n, inner, term in report.block_terms]
    summary = {
        "p": config.p,
        "alpha": config.alpha,
        "r": report.r,
        "r_prime": report.r_prime,
        "n_blocks": config.blocks,
        "verdict": report.symbolic_verdict,
        "sequence": lam.describe(),
    }
    return header, rows, summary, {}, None


def _run_sharpness(config: argparse.Namespace):
    _check_embedding_params(config)
    if config.levels > MAX_WITNESS_LEVELS:
        raise ValidationError("levels", f"must be at most {MAX_WITNESS_LEVELS}")
    if config.delta_depth < 1:
        raise ValidationError("delta-depth", "must be at least 1 for ratio norms")
    lam = _load(config.sequence_path, "sequence", sequence_from_json)
    header = ["level", "criterion_partial_pow", "lambda_variation", "omega_ratio",
              "vlam_quotient", "omega_quotient"]
    rows = []
    combs = ()
    if config.levels:
        with _field("sequence"):
            spec = WitnessSpec(lam, config.p, config.alpha, config.levels)
        with _field("p"):
            combs = extremal_function(spec)
        r_prime = spec.exponents[2]
    for comb in combs:
        # the witness has more monotone arcs than the spec requires weights
        with _field("sequence"):
            vlam = comb.lambda_variation(lam)
        omega = comb.ratio_norm(config.delta_depth)
        crit_pow = comb.criterion_partials[-1] ** (1.0 / r_prime)
        for name, value in (("criterion partial sum", crit_pow), ("witness modulus", omega)):
            if not 0.0 < value < math.inf:
                problem = "underflows" if value == 0.0 else "is not finite"
                raise ValidationError("p", f"the {name} {problem} at this p")
        rows.append([len(comb.starts), crit_pow, vlam, omega, vlam / crit_pow, vlam / omega])
    summary = {
        "levels": config.levels,
        "delta_depth": config.delta_depth,
        "refinement": config.refine,
        "sequence": lam.describe(),
    }
    extras = {}
    if rows:
        # the deepest level's witness, measured last in the loop and the only one built
        summary["witness"] = {name: value.tolist() if isinstance(value, np.ndarray) else value
                              for name, value in vars(comb).items() if name not in ("starts", "heights")}
        summary["witness"].update(levels=len(comb.starts), measured_lambda_variation=vlam, omega_ratio_norm=omega)
        summary["function_file"] = "sharpness_function.json"
        with _field("p"):
            extras["sharpness_function.json"] = function_to_json(comb.function()) + "\n"
    return header, rows, summary, extras, None


def _run_wang_demo(config: argparse.Namespace):
    p, alpha = _check_embedding_params(config)
    with _field("s"):
        lam = wang_gap_family(config.p, config.alpha, config.s)
    wang = wang_partial_sums(lam, config.alpha, config.blocks)
    crit = criterion_partial_sums(lam, config.p, config.alpha, config.blocks)
    _check_criterion(crit)
    header = ["block", "wang_partial", "criterion_partial"]
    rows = [[m, wang.partial_sums[m], crit.partial_sums[m]] for m in range(config.blocks)]
    summary = {
        "p": config.p,
        "alpha": config.alpha,
        "s": config.s,
        "gap_window_upper": float((1 + 1 / p - alpha) / (1 - alpha)),  # the edge the window test reads
        "n_blocks": config.blocks,
        "wang_verdict": wang.symbolic_verdict,
        "criterion_verdict": crit.symbolic_verdict,
        "sequence": lam.describe(),
    }
    failure = None
    if not (wang.symbolic_verdict == "converges" and crit.symbolic_verdict == "diverges"):
        failure = (
            "expected the necessary-condition series to converge and the criterion "
            f"to diverge, got {wang.symbolic_verdict}/{crit.symbolic_verdict}"
        )
    return header, rows, summary, {}, failure


def _run_perlman_demo(config: argparse.Namespace):
    if not config.p > 1.0:
        raise ValidationError("p", "must satisfy p > 1")
    w = config.d_power if config.d_power is not None else 1.0 / config.p
    with _field("d-power"):
        sums = perlman_witness(w, config.p, PERLMAN_DECADES)
    rows = [[n, *pair] for n, pair in zip(PERLMAN_DECADES, sums.tolist())]
    inc_div, inc_conv = (sums[-1] - sums[PERLMAN_DECADES.index(10**5)]).tolist()
    header = ["N", "sum_d_over_lambda", "sum_lambda_minus_pprime"]
    summary = {
        "p": config.p,
        "d_power": w,
        "terms": PERLMAN_DECADES[-1],
        "last_decade_increment_divergent": inc_div,
        "last_decade_increment_convergent": inc_conv,
    }
    failure = None
    if inc_div < 0.05:
        failure = (
            "expected the divergent companion sum to grow by at least 0.05 over the "
            f"last decade, got {inc_div:.6g}"
        )
    return header, rows, summary, {}, failure


def _run_hardy_demo(config: argparse.Namespace):
    rng = np.random.default_rng(config.seed)
    header = ["beta", "r", "trials", "max_ratio", "mean_ratio"]
    rows = []
    failure = None
    for beta in HARDY_BETAS:
        for r in HARDY_RS:
            a = rng.exponential(1.0, (HARDY_TRIALS, HARDY_DRAW))
            lhs, rhs = hardy_two_sides(beta, r, a, HARDY_NU)
            failed = (rhs <= 0.0) | (lhs < rhs - 1e-12)
            if failed.any():
                t = int(np.flatnonzero(failed)[-1])
                failure = (
                    f"partial-sum comparison failed at beta={beta}, r={r}, "
                    f"trial {t}: lhs={float(lhs[t])!r}, rhs={float(rhs[t])!r}"
                )
            ratios = np.divide(lhs, rhs, out=np.full(HARDY_TRIALS, np.nan), where=~failed)
            rows.append([beta, r, HARDY_TRIALS, float(np.nanmax(ratios)), float(np.nanmean(ratios))])
    summary = {
        "seed": config.seed,
        "trials": HARDY_TRIALS,
        "draw_length": HARDY_DRAW,
        "nu": list(HARDY_NU),
        "max_ratio_overall": max(row[3] for row in rows),
    }
    return header, rows, summary, {}, failure


_RUNNERS = {
    "variation": _run_variation,
    "criterion": _run_criterion,
    "sharpness": _run_sharpness,
    "wang-demo": _run_wang_demo,
    "perlman-demo": _run_perlman_demo,
    "hardy-demo": _run_hardy_demo,
}


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["schema_version", *header])
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in (SCHEMA_VERSION, *row)])
    return out.getvalue()


def _write_artifacts(out: str, texts: dict[str, str]) -> None:
    """Write each artifact under a temporary name, then move each into place;
    a failed write or move removes every file made, so none is left."""
    made = []
    try:
        for name, text in texts.items():
            made.append(os.path.join(out, f".{name}.partial"))
            with open(made[-1], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for i, name in enumerate(texts):
            os.replace(made[i], os.path.join(out, name))
            made[i] = os.path.join(out, name)
    except OSError:
        for path in made:
            with suppress(OSError):
                os.remove(path)
        raise


def run(config: argparse.Namespace) -> int:
    """Execute one experiment and write its artifacts into config.out: the
    runner's rows under a leading schema_version column, and its summary with
    the command and schema version added."""
    with _field("out", OSError):
        os.makedirs(config.out, exist_ok=True)
    # every command rejects the non-finite values numpy would warn of
    with np.errstate(all="ignore"):
        header, rows, summary, extras, failure = _RUNNERS[config.command](config)
    summary.update(command=config.command, schema_version=SCHEMA_VERSION)
    texts = {
        f"{config.command}.csv": _csv_text(header, rows),
        f"{config.command}.json": json.dumps(summary, sort_keys=True, indent=2) + "\n",
        **extras,
    }
    with _field("out", OSError):
        _write_artifacts(config.out, texts)
    if failure is not None:
        print(f"phenomenon check failed: {failure}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    try:
        return run(_parse_args(argv))
    except ValidationError as exc:
        print(f"error: {exc.field}: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
