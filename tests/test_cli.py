import csv
import hashlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import lambdabv
from lambdabv import cli, constructions, variation
from lambdabv import (
    LambdaSequence,
    WitnessSpec,
    criterion_partial_sums,
    extremal_function,
    function_from_json,
    function_to_json,
    hardy_two_sides,
    lambda_variation,
    make_plpf,
    monotone_arcs,
    sequence_from_json,
)

from lambdabv.constructions import MAX_WITNESS_LEVELS
from lambdabv.variation import MAX_DELTA_DEPTH

from helpers import (
    SRC,
    alternating_plpf,
    assert_matches_lp_reference,
    chunked_subset_scan_max,
    comb_ratio_norm_by_arcs,
    mp_comb_ratio_norm,
    perlman_demo_by_arrays,
    run_cli,
)

TRIANGLE_JSON = '{"breakpoints": [[0.0, 0.0], [0.5, 1.0]]}\n'
HUGE_JSON = '{"breakpoints": [[0.0, 1e308], [0.5, -1e308]]}'
LAM_N_JSON = '{"family": "power", "params": {"s": 1.0}}\n'
GOLDEN = pathlib.Path(__file__).parent / "golden"

# A fixed 12-breakpoint function with no common baseline (12 arcs, so the
# Lambda-variation takes the subset search).
GOLDEN_FUNCTION_JSON = json.dumps({"breakpoints": [
    [0.0, 0.2], [0.07, 1.1], [0.15, -0.4], [0.22, 0.9], [0.31, 0.3], [0.4, 1.4],
    [0.48, -0.8], [0.5, 0.5], [0.66, -0.1], [0.74, 0.7], [0.83, -0.6], [0.91, 0.6],
]})

# name -> (input option -> JSON text, CLI arguments); tests/golden/<name>.csv
# holds the CSV these commands wrote before the weight families moved into
# one table (variation.csv: before lp_modulus moved to one vectorized pass;
# perlman-demo.csv and hardy-demo.csv: before the runners left the
# schema_version column to cli.run), and sharpness_function.json the witness
# file written before breakpoints became arrays
GOLDEN_CASES = {
    "criterion_explicit": (
        {"--sequence": json.dumps(
            {"family": "explicit", "terms": [math.sqrt(k) for k in range(1, 129)]}
        )},
        ("--command", "criterion", "--blocks", "6"),
    ),
    "criterion_power": (
        {"--sequence": '{"family": "power", "params": {"s": 0.5}}'},
        ("--command", "criterion", "--p", "3", "--alpha", "0.7"),
    ),
    "criterion_power_log": (
        {"--sequence": '{"family": "power_log", "params": {"s": 0.3, "t": 5.0}}'},
        ("--command", "criterion", "--alpha", "0.7", "--blocks", "18"),
    ),
    "criterion_block_power_log": (
        {"--sequence": '{"family": "block_power_log", "params": {"s": 2.0, "alpha": 0.8}}'},
        ("--command", "criterion", "--p", "1.5", "--alpha", "0.8"),
    ),
    "wang-demo": ({}, ("--command", "wang-demo", "--s", "2.5")),
    "sharpness": ({"--sequence": LAM_N_JSON}, ("--command", "sharpness", "--levels", "6")),
    "variation": (
        {"--function": GOLDEN_FUNCTION_JSON, "--sequence": LAM_N_JSON},
        ("--command", "variation", "--p", "2", "--refine", "1"),
    ),
    "perlman-demo": ({}, ("--command", "perlman-demo")),
    "hardy-demo": ({}, ("--command", "hardy-demo", "--seed", "3")),
}
# command -> the golden case whose summary tests/golden/<command>.json holds,
# written before the runners left the command and schema_version keys to
# cli.run (criterion.json without the key include_upper, dropped since)
COMMAND_CASES = {
    "criterion": "criterion_power",
    "hardy-demo": "hardy-demo",
    "perlman-demo": "perlman-demo",
    "sharpness": "sharpness",
    "variation": "variation",
    "wang-demo": "wang-demo",
}

# name -> (input option -> JSON text, CLI arguments, sha256 of the level-12
# witness file), the digests taken while the witness was still the superpose
# of one comb per level; block_power_log's retaken when its weights became
# one libm pow per dyadic block, which moved its 1,024 level-10 apexes by 2 ulps;
# both retaken when the duality weights became one power of L_n / max L, which
# moved block_power_log's coordinates by up to 5 ulps and power_log's by up to 3
WITNESS_PINS = {
    "block_power_log": (
        {"--sequence": '{"family": "block_power_log", "params": {"s": -0.4, "alpha": 0.8}}'},
        ("--command", "sharpness", "--levels", "12", "--p", "2", "--alpha", "0.6"),
        "8f4c9f815df7186256e85c3f3418fb8395f6e0ad878dca1aa4a06d871f343910",
    ),
    "power_log": (
        {"--sequence": '{"family": "power_log", "params": {"s": 0.5, "t": 1.0}}'},
        ("--command", "sharpness", "--levels", "12"),
        "90f0ce436d4dceffe5ecf59726cd79d9d71a5df24f26dfbb23c318a10ad73d6d",
    ),
}


def load_spans():
    """perfbench/spans.py, whose TRACED table names the functions a traced
    benchmark run wraps."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_golden_case(tmp_path, name):
    """Run GOLDEN_CASES[name] with its inputs written to files; return the
    output directory."""
    inputs, args = GOLDEN_CASES[name]
    for option, text in inputs.items():
        path = tmp_path / (option.lstrip("-") + ".json")
        path.write_text(text)
        args = args + (option, str(path))
    proc = run_cli(*args, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    return tmp_path / "out"


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(TRIANGLE_JSON)
    return str(path)


@pytest.fixture
def lam_file(tmp_path):
    path = tmp_path / "lam.json"
    path.write_text(LAM_N_JSON)
    return str(path)


class TestVariationCommand:
    def test_triangle_with_sequence(self, tmp_path, tri_file, lam_file):
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "variation", "--function", tri_file,
            "--sequence", lam_file, "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "variation.csv")
        assert rows[0] == [
            "schema_version", "functional", "p", "alpha", "delta", "value", "refinement",
        ]
        by_functional = {}
        for row in rows[1:]:
            assert row[0] == "1"
            by_functional.setdefault(row[1], []).append(row)
        assert float(by_functional["lambda_variation"][0][5]) == 1.5
        pv = [row for row in by_functional["p_variation"] if float(row[2]) == 2.0]
        assert float(pv[0][5]) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        summary = json.loads((out / "variation.json").read_text())
        assert summary["command"] == "variation"

    @pytest.mark.parametrize("p, refine, profiles", [
        ("1.5", 0, 1), ("2", 0, 1), ("3", 0, 1), ("1", 0, 1), ("2", 1, 2), ("3", 2, 2)])
    def test_one_chain_dp_profile_at_refinement_0(self, tmp_path, monkeypatch, p, refine, profiles):
        # at refinement 0 the delta = 1 entry of the modulus grid is p_variation
        # bit for bit, so the command runs one chain-DP profile, not two; at
        # p = 1 there is no modulus row and p_variation runs its own
        (tmp_path / "f.json").write_text(GOLDEN_FUNCTION_JSON)
        calls, profile = [], variation._p_power_profile
        monkeypatch.setattr(variation, "_p_power_profile", lambda *args: calls.append(args) or profile(*args))
        out = tmp_path / "out"
        argv = ["--command", "variation", "--function", str(tmp_path / "f.json"), "--p", p,
                "--refine", str(refine), "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(calls) == profiles
        rows = read_csv(out / "variation.csv")
        f = function_from_json(GOLDEN_FUNCTION_JSON)
        assert [row[5] for row in rows if row[1] == "p_variation"] == [f"{variation.p_variation(f, float(p)):.17g}"]
        moduli = [row[5] for row in rows if row[1] == "modulus_p_continuity"]
        want = variation.modulus_p_continuity(f, float(p), [2.0**-j for j in range(len(moduli))], refine) if moduli else []
        assert moduli == [f"{value:.17g}" for value in want]

    def test_without_sequence_skips_lambda_row(self, tmp_path, tri_file):
        out = tmp_path / "out"
        proc = run_cli("--command", "variation", "--function", tri_file, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        functionals = {row[1] for row in read_csv(out / "variation.csv")[1:]}
        assert "lambda_variation" not in functionals
        assert {"p_variation", "lp_modulus", "modulus_p_continuity"} <= functionals

    def test_float_cells_round_trip(self, tmp_path, tri_file, lam_file):
        out = tmp_path / "out"
        run_cli(
            "--command", "variation", "--function", tri_file,
            "--sequence", lam_file, "--out", str(out),
        )
        lam = LambdaSequence.power(1.0)
        tri = make_plpf([(0.0, 0.0), (0.5, 1.0)])
        for row in read_csv(out / "variation.csv")[1:]:
            if row[1] == "lambda_variation":
                assert float(row[5]) == lambda_variation(tri, lam)

    @pytest.mark.parametrize("with_sequence", [False, True])
    def test_one_call_per_modulus(self, tmp_path, tri_file, lam_file, monkeypatch, with_sequence):
        calls = {"lp_modulus": 0, "modulus_p_continuity": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        argv = ["--command", "variation", "--function", tri_file, "--refine", "1",
                "--out", str(tmp_path / "out")]
        if with_sequence:
            argv += ["--sequence", lam_file]
        assert cli.main(argv) == 0
        assert calls == {"lp_modulus": 1, "modulus_p_continuity": 1}
        rows = read_csv(tmp_path / "out" / "variation.csv")[1:]
        assert [row[1] for row in rows].count("modulus_p_continuity") == 7

    def test_eighteen_arcs_without_baseline(self, tmp_path, lam_file):
        f = alternating_plpf(np.random.default_rng(130), 18)
        arcs = monotone_arcs(f)
        assert len(arcs) == 18 and not arcs.is_baseline_separated()
        f_path = tmp_path / "f.json"
        f_path.write_text(function_to_json(f))
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "variation", "--function", str(f_path),
            "--sequence", lam_file, "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = [r for r in read_csv(out / "variation.csv")[1:] if r[1] == "lambda_variation"]
        assert len(rows) == 1
        want = chunked_subset_scan_max(arcs.start_values, LambdaSequence.power(1.0))
        assert float(rows[0][5]) == pytest.approx(want, rel=1e-12)

    def test_too_many_arcs_named(self, tmp_path, lam_file):
        f = alternating_plpf(np.random.default_rng(131), 42)
        assert not monotone_arcs(f).is_baseline_separated()
        f_path = tmp_path / "f.json"
        f_path.write_text(function_to_json(f))
        proc = run_cli(
            "--command", "variation", "--function", str(f_path),
            "--sequence", lam_file, "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: function:")
        assert "42 monotone arcs" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_short_explicit_sequence_rejected(self, tmp_path, tri_file):
        lam_path = tmp_path / "short.json"
        lam_path.write_text('{"family": "explicit", "terms": [1.0]}\n')
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "variation", "--function", tri_file,
            "--sequence", str(lam_path), "--out", str(out),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: sequence:")

    @pytest.mark.parametrize(
        "function,p,sequence,error",
        [
            # |increment|^p overflows: NaN lp_modulus rows on both functions,
            # and inf p_variation and modulus rows on the 12-breakpoint one
            (TRIANGLE_JSON, "1e100", True, "p: lp_modulus is not finite (nan)"),
            (TRIANGLE_JSON, "1e300", True, "p: lp_modulus is not finite (nan)"),
            (GOLDEN_FUNCTION_JSON, "1e100", True, "p: lp_modulus is not finite (nan)"),
            (GOLDEN_FUNCTION_JSON, "1e300", True, "p: lp_modulus is not finite (nan)"),
            # increments of 2e308 overflow the weighted variation itself, and
            # without it the p-continuity modulus (at p = 2 the L^p modulus
            # scales f by a power of two first, and stays finite)
            (HUGE_JSON, "2", True, "function: lambda_variation is not finite (inf)"),
            (HUGE_JSON, "2", False, "function: modulus_p_continuity is not finite (nan)"),
            # a spread of 2e200 is finite, but the p-continuity modulus raises
            # increments to the power p
            ('{"breakpoints": [[0.0, 1e200], [0.5, -1e200]]}', "2", True,
             "function: modulus_p_continuity is not finite (inf)"),
        ],
        ids=["triangle-1e100", "triangle-1e300", "golden-1e100", "golden-1e300", "huge-values",
             "huge-values-no-sequence", "wide-spread"],
    )
    def test_non_finite_value_named(self, tmp_path, lam_file, function, p, sequence, error):
        f_path = tmp_path / "f.json"
        f_path.write_text(function)
        out = tmp_path / "out"
        args = ("--sequence", lam_file) if sequence else ()
        proc = run_cli("--command", "variation", "--function", str(f_path), *args,
                       "--p", p, "--out", str(out))
        assert proc.returncode == 2
        # numpy's overflow warnings are silenced: the error is the only line
        assert proc.stderr == f"error: {error}\n"
        assert not (out / "variation.csv").exists()

    @pytest.mark.parametrize("height", [1e120, 1e-160])
    def test_l2_modulus_of_a_tent_is_finite(self, tmp_path, height):
        # at p = 2 the modulus scales f by a power of two and only squares
        # values, so a spread of 2e120, whose cube overflows, is measured, and
        # so is one of 2e-160, whose slopes' square (1.6e-319) is subnormal;
        # N(1/2) = 2 height / sqrt(3) is the sup
        f_path = tmp_path / "f.json"
        f_path.write_text(f'{{"breakpoints": [[0.0, {height!r}], [0.5, {-height!r}]]}}')
        out = tmp_path / "out"
        proc = run_cli("--command", "variation", "--function", str(f_path), "--p", "2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = [r for r in read_csv(out / "variation.csv")[1:] if r[1] == "lp_modulus"]
        want = 2.0 / math.sqrt(3.0) * height
        assert float(rows[0][5]) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestValidationFailures:
    def test_missing_function(self, tmp_path):
        proc = run_cli("--command", "variation", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: function:")

    def test_nonexistent_function_file(self, tmp_path):
        proc = run_cli(
            "--command", "variation", "--function", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert "error: function:" in proc.stderr

    def test_malformed_function_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli(
            "--command", "variation", "--function", str(bad),
            "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert "error: function:" in proc.stderr

    def test_alpha_out_of_range(self, tmp_path, tri_file, lam_file):
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file,
            "--alpha", "0.4", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: alpha:")

    @pytest.mark.parametrize("command", ["criterion", "sharpness", "wang-demo"])
    def test_alpha_below_one_over_p_in_decimals(self, tmp_path, lam_file, command):
        # alpha is the double just above 1.0/p, but as written it is below 1/p
        p, alpha = 1.17832403522262, 0.8486629909157973
        assert alpha == math.nextafter(1.0 / p, 1.0)
        proc = run_cli(
            "--command", command, "--sequence", lam_file, "--p", repr(p),
            "--alpha", repr(alpha), "--s", "1.5", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: alpha: must lie in (1/p, 1)\n"

    def test_wang_demo_s_at_edge(self, tmp_path):
        proc = run_cli("--command", "wang-demo", "--s", "3.0", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: s:")
        assert "(1, 3)" in proc.stderr

    def test_wang_demo_s_past_the_decimal_edge(self, tmp_path):
        # below the float edge 11.101010101010106, but above the edge 1099/99
        # of p = 1.1 and alpha = 0.91 as written, where the criterion converges
        proc = run_cli(
            "--command", "wang-demo", "--p", "1.1", "--alpha", "0.91",
            "--s", "11.101010101010104", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: s: s must lie strictly inside the gap window")

    def test_wang_demo_reports_the_decimal_edge(self, tmp_path):
        # p = 1.1 and alpha = 0.94 as written put the edge at 533/33, whose
        # nearest double 16.151515151515152 the summary reports; the float
        # expression reads 16.151515151515138, an s the window accepts
        out = tmp_path / "o"
        wang = ("--command", "wang-demo", "--p", "1.1", "--alpha", "0.94", "--blocks", "6")
        proc = run_cli(*wang, "--s", "16.151515151515138", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        upper = json.loads((out / "wang-demo.json").read_text())["gap_window_upper"]
        assert upper == float(Fraction(533, 33)) == 16.151515151515152
        proc = run_cli(*wang, "--s", "16.151515151515152", "--out", str(tmp_path / "o2"))
        assert proc.returncode == 2
        assert proc.stderr == "error: s: s must lie strictly inside the gap window (1, 16.1515)\n"

    def test_negative_blocks(self, tmp_path, lam_file):
        proc = run_cli(
            "--command", "criterion", "--sequence", lam_file,
            "--blocks", "-1", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: blocks:")

    def test_criterion_short_prefix_named(self, tmp_path):
        # blocks 0..2 fit the ten terms; block 3 ends at 16
        seq = tmp_path / "seq.json"
        seq.write_text('{"family": "explicit", "terms": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}\n')
        proc = run_cli("--command", "criterion", "--sequence", str(seq), "--blocks", "6",
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: sequence: explicit sequence has 10 terms, but 16 are required\n"

    def test_criterion_power_log_cap_named(self, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text('{"family": "power_log", "params": {"s": 0.5, "t": 1.0}}\n')
        proc = run_cli("--command", "criterion", "--sequence", str(seq), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: sequence: range too long for direct summation of the power_log family\n"
        )

    def test_negative_seed(self, tmp_path):
        proc = run_cli("--command", "hardy-demo", "--seed", "-5", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: seed: must be nonnegative\n"

    def test_named_family_missing_parameter(self, tmp_path):
        lam_path = tmp_path / "lam.json"
        lam_path.write_text('{"family": "power", "params": {}}\n')
        proc = run_cli(
            "--command", "criterion", "--sequence", str(lam_path), "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: sequence: invalid sequence file: power family is missing parameter 's'\n"
        )

    def test_named_family_unknown_parameter(self, tmp_path):
        # power(1) used to load and drop the t
        lam_path = tmp_path / "lam.json"
        lam_path.write_text('{"family": "power", "params": {"s": 1, "t": 5}}\n')
        proc = run_cli(
            "--command", "sharpness", "--sequence", str(lam_path), "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: sequence: invalid sequence file: power family has no parameter 't'\n"
        )

    def test_unknown_sequence_key_named(self, tmp_path):
        # this loaded as power(1) and ignored the terms
        lam_path = tmp_path / "lam.json"
        lam_path.write_text('{"family": "power", "params": {"s": 1}, "terms": [5, 6]}\n')
        proc = run_cli("--command", "criterion", "--sequence", str(lam_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: sequence: invalid sequence file: power sequence JSON has no key 'terms'\n"

    def test_unknown_function_key_named(self, tmp_path):
        f_path = tmp_path / "f.json"
        f_path.write_text('{"breakpoints": [[0.0, 0.0], [0.5, 1.0]], "extra": 1}\n')
        proc = run_cli("--command", "variation", "--function", str(f_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: function: invalid function file: function JSON has no key 'extra'\n"

    def test_out_path_is_a_file(self, tmp_path, tri_file):
        target = tmp_path / "occupied"
        target.write_text("x")
        proc = run_cli("--command", "variation", "--function", tri_file, "--out", str(target))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out:")
        # a directory where an artifact goes used to end in an IsADirectoryError
        # traceback, and then in a partial set: criterion.csv with no summary
        # beside it, or sharpness.csv and sharpness.json with no function file
        lam_path = tmp_path / "lam.json"
        lam_path.write_text(LAM_N_JSON)
        for command, artifact in (("criterion", "criterion.csv"), ("criterion", "criterion.json"),
                                  ("sharpness", "sharpness_function.json")):
            out = tmp_path / artifact
            (out / artifact).mkdir(parents=True)
            proc = run_cli("--command", command, "--sequence", str(lam_path), "--levels", "2",
                           "--out", str(out))
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: out:")
            assert "Traceback" not in proc.stderr
            # no artifact and no temporary is left beside the directory
            assert [path.name for path in out.iterdir()] == [artifact]

    @pytest.mark.parametrize(
        "option,text",
        [
            ("--sequence", '{"family": "power", "params": {"s": 1%s}}' % ("0" * 400)),
            ("--sequence", '{"family": "power", "params": {"s": "1.5"}}'),
            ("--sequence", '{"family": "explicit", "terms": [1, 2, 3, 4, 1%s]}' % ("0" * 400)),
            ("--function", '{"breakpoints": [[0.0, 1%s], [0.5, 1.0]]}' % ("0" * 400)),
            ("--function", '{"breakpoints": [["0.0", "1"], ["0.5", true]]}'),
        ],
    )
    def test_non_number_in_input_file_named(self, tmp_path, tri_file, lam_file, option, text):
        # a 401-digit integer ended in an OverflowError traceback, and strings
        # and booleans loaded as numbers
        path = tmp_path / "input.json"
        path.write_text(text)
        files = {"--function": tri_file, "--sequence": lam_file, option: str(path)}
        proc = run_cli("--command", "variation", *[a for kv in files.items() for a in kv],
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {option[2:]}: invalid {option[2:]} file: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args,field",
        [
            (("--command", "variation", "--p", "nan"), "p"),
            (("--command", "variation", "--p", "inf"), "p"),
            (("--command", "perlman-demo", "--p", "inf"), "p"),
            (("--command", "perlman-demo", "--d-power", "nan"), "d-power"),
            (("--command", "criterion", "--p", "inf"), "p"),
            (("--command", "sharpness", "--p", "inf"), "p"),
            (("--command", "criterion", "--alpha", "nan"), "alpha"),
            (("--command", "wang-demo", "--s", "inf"), "s"),
            (("--command", "variation", "--delta-depth", "1075"), "delta-depth"),
            (("--command", "sharpness", "--delta-depth", "1075"), "delta-depth"),
            (("--command", "wang-demo", "--blocks", "1023"), "blocks"),
        ],
    )
    def test_non_finite_option_named(self, tmp_path, tri_file, lam_file, args, field):
        proc = run_cli(
            *args, "--function", tri_file, "--sequence", lam_file, "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert f"error: {field}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_command_rejected_by_parser(self, tmp_path):
        proc = run_cli("--command", "nope", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr


# the numeric options each command reads
COMMAND_OPTIONS = {
    "variation": ("p", "delta-depth", "refine"),
    "criterion": ("p", "alpha", "blocks"),
    "sharpness": ("p", "alpha", "levels", "delta-depth", "refine"),
    "wang-demo": ("p", "alpha", "s", "blocks"),
    "perlman-demo": ("p", "d-power"),
    "hardy-demo": ("seed",),
}
OPTION_CAPS = {"delta-depth": MAX_DELTA_DEPTH, "blocks": cli.MAX_BLOCKS, "levels": MAX_WITNESS_LEVELS}
OPTION_EXTRAS = {"p": ("5000",), "d-power": ("53", "60")}
# s must lie in (1, (1 + 1/p - alpha)/(1 - alpha)), a window that closes as p
# grows, so a large p rejects the default s by that name
ALSO_NAMED = {("wang-demo", "p"): "s"}
# sequences at the edges of the double range: weights past it from block 2
# on, an inner sum past it, and a lambda_1 that underflows to 0
EDGE_SEQUENCES = (
    '{"family": "block_power_log", "params": {"s": 1e300, "alpha": 0.5}}',
    '{"family": "power", "params": {"s": 0}}',
    '{"family": "explicit", "terms": [1e-300, 1e300]}',
    '{"family": "power_log", "params": {"s": 0, "t": 1e300}}',
    LAM_N_JSON,
)
# r' = 1/(1 + 1/p - alpha) is about 1e10 here, so a block term
# (inner sum)^(r'/p') is past the double range
HUGE_R_PRIME = ("--p", "1e10", "--alpha", "0.9999999999999999")


def _finite_or_label(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:  # a label or an empty cell
        return True


class TestExitCodeSweep:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_extreme_values_exit_cleanly(self, tmp_path, tri_file, lam_file, capsys, command):
        # each numeric option at 0, 1, tiny, huge, negative, NaN, its cap and
        # one past it, with every other option at its default; the caps stay
        # small enough here (no huge --refine or --levels is passed)
        for option in COMMAND_OPTIONS[command]:
            values = ("0", "1", "1e-300", "1e300", "-1", "nan") + OPTION_EXTRAS.get(option, ())
            if option in OPTION_CAPS:
                values += (str(OPTION_CAPS[option]), str(OPTION_CAPS[option] + 1))
            for value in values:
                argv = ["--command", command, f"--{option}", value, "--function", tri_file,
                        "--sequence", lam_file, "--out", str(tmp_path / "o")]
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects a non-integer
                    code = exc.code
                err = capsys.readouterr().err
                assert code in (0, 2, 3), (argv, err)
                assert "Traceback" not in err, (argv, err)
                if code == 2:
                    names = {option, ALSO_NAMED.get((command, option), option)}
                    assert any(f"error: {name}:" in err or f"argument --{name}:" in err
                               for name in names), (argv, err)

    @pytest.mark.parametrize("command", ["variation", "criterion", "sharpness", "wang-demo"])
    def test_edge_sequences_exit_cleanly(self, tmp_path, tri_file, capsys, command):
        # each edge sequence at the default p and alpha and at a huge r': exit 0
        # with only finite cells, or exit 2 with one line naming the sequence
        # or p, and no numpy warning
        out = tmp_path / "o"
        for i, text in enumerate(EDGE_SEQUENCES):
            (tmp_path / f"seq{i}.json").write_text(text)
            for extra in ((), HUGE_R_PRIME):
                for blocks in ("0", "30"):
                    argv = ["--command", command, "--function", tri_file, "--sequence",
                            str(tmp_path / f"seq{i}.json"), "--blocks", blocks, *extra, "--out", str(out)]
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code = cli.main(argv)
                    err = capsys.readouterr().err
                    if code == 0:
                        rows = read_csv(out / f"{command}.csv")[1:]
                        assert all(_finite_or_label(cell) for row in rows for cell in row), (argv, rows)
                    else:
                        assert code == 2 and re.fullmatch(r"error: (sequence|p): [^\n]*\n", err), (argv, err)


class TestCriterionCommand:
    def test_partials_match_library(self, tmp_path, lam_file):
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "criterion", "--sequence", lam_file,
            "--blocks", "12", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "criterion.csv")
        assert rows[0] == ["schema_version", "n", "inner_sum", "block_term", "partial_sum"]
        rep = criterion_partial_sums(LambdaSequence.power(1.0), 2.0, 0.75, 12)
        got = [float(row[4]) for row in rows[1:]]
        assert got == list(rep.partial_sums)
        summary = json.loads((out / "criterion.json").read_text())
        assert summary["verdict"] == rep.symbolic_verdict
        assert summary["r_prime"] == rep.r_prime


class TestSharpnessCommand:
    def test_levels_zero_header_only(self, tmp_path, lam_file):
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file,
            "--levels", "0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "sharpness.csv")
        assert len(rows) == 1

    def test_writes_witness_function(self, tmp_path, lam_file):
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file,
            "--levels", "2", "--delta-depth", "3", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        g = function_from_json((out / "sharpness_function.json").read_text())
        rows = read_csv(out / "sharpness.csv")
        last = rows[-1]
        assert last[1] == "2"
        assert float(last[3]) == pytest.approx(
            lambda_variation(g, LambdaSequence.power(1.0)), rel=1e-15
        )
        summary = json.loads((out / "sharpness.json").read_text())
        assert summary["witness"]["levels"] == 2
        assert summary["function_file"] == "sharpness_function.json"

    def test_witness_measures_are_direct_calls(self, tmp_path, lam_file, monkeypatch):
        # the rows come from the level data: no chain DP, no Lambda search,
        # and one function built, for the witness file; --refine is accepted
        # and changes no value
        def refused(*args, **kwargs):
            raise AssertionError("sharpness measured a built function")

        for name in ("_p_power_profile", "p_cont_ratio_norm", "lambda_variation"):
            monkeypatch.setattr(variation, name, refused)
        built = []
        function = constructions.WitnessComb.function
        monkeypatch.setattr(constructions.WitnessComb, "function",
                            lambda comb: built.append(comb) or function(comb))
        outs = [tmp_path / "r1", tmp_path / "r0"]
        for out, refine in zip(outs, ("1", "0")):
            argv = ["--command", "sharpness", "--sequence", lam_file, "--levels", "3",
                    "--delta-depth", "4", "--refine", refine, "--out", str(out)]
            assert cli.main(argv) == 0
        assert len(built) == 2
        assert (outs[0] / "sharpness.csv").read_bytes() == (outs[1] / "sharpness.csv").read_bytes()
        lam = LambdaSequence.power(1.0)
        comb = extremal_function(WitnessSpec(lam, 2.0, 0.75, 3))[-1]
        assert built[0] == comb
        witness = json.loads((outs[0] / "sharpness.json").read_text())["witness"]
        assert witness["measured_lambda_variation"] == comb.lambda_variation(lam)
        assert witness["omega_ratio_norm"] == comb.ratio_norm(4)

    def test_deepest_delta_grid(self, tmp_path, lam_file):
        # at depth 1074, arc / delta overflows to inf; the ratio there tends
        # to 0 and the max is the depth-60 run's
        rows = []
        for depth in ("1074", "60"):
            out = tmp_path / depth
            proc = run_cli("--command", "sharpness", "--sequence", lam_file, "--levels", "12",
                           "--delta-depth", depth, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            rows.append(read_csv(out / "sharpness.csv"))
        assert [r[4::2] for r in rows[0]] == [r[4::2] for r in rows[1]]
        assert rows[0] == rows[1]

    def test_one_build_for_every_level(self, tmp_path, lam_file, monkeypatch):
        # levels 1..11 come from one call, which takes the inner sums of every
        # level in one block-sum call and their S norms in another
        calls = {"extremal_function": 0, "weighted_block_sum": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "extremal_function")
        counted(constructions, "weighted_block_sum")
        out = tmp_path / "out"
        argv = ["--command", "sharpness", "--sequence", lam_file, "--levels", "11", "--out", str(out)]
        assert cli.main(argv) == 0
        assert calls == {"extremal_function": 1, "weighted_block_sum": 2}
        assert [row[1] for row in read_csv(out / "sharpness.csv")[1:]] == [str(n) for n in range(1, 12)]

    def test_witness_heights_overflow_named(self, tmp_path, lam_file):
        # near p = 1 the heights' exponent -1/(p-1) overflows them; the
        # sequence itself is fine
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file, "--levels", "3",
            "--p", "1.001", "--alpha", "0.9995", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: p: heights must be nonnegative and finite\n"

    def test_weights_past_the_double_range_named(self, tmp_path):
        # lambda_k = 2^(n/2) n^(s/2) is inf from block 2 on: no p helps, so
        # the sequence is named before any height is built
        seq = tmp_path / "seq.json"
        seq.write_text('{"family": "block_power_log", "params": {"s": 1e300, "alpha": 0.5}}\n')
        proc = run_cli("--command", "sharpness", "--sequence", str(seq), "--levels", "3",
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: sequence: lambda_15 is past the double range\n"

    def test_short_explicit_sequence_named(self, tmp_path):
        # 8 weights cover the level-2 spec, but its witness has 12 arcs
        seq = tmp_path / "seq.json"
        seq.write_text('{"family": "explicit", "terms": [1, 2, 3, 4, 5, 6, 7, 8]}\n')
        proc = run_cli("--command", "sharpness", "--sequence", str(seq), "--levels", "2",
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: sequence: explicit sequence has 8 terms, but 12 are required\n"

    def test_witness_keeps_its_baseline(self, tmp_path):
        # its level-6 tiles met one ulp apart, which left valleys just above
        # 0.0: 252 arcs with no common baseline, and exit 2
        seq = tmp_path / "seq.json"
        seq.write_text('{"family": "block_power_log", "params": {"s": -0.4, "alpha": 0.8}}\n')
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "sharpness", "--sequence", str(seq), "--levels", "10",
            "--p", "2", "--alpha", "0.6", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        g = function_from_json((out / "sharpness_function.json").read_text())
        assert monotone_arcs(g).is_baseline_separated()
        assert len(read_csv(out / "sharpness.csv")) == 11

    @pytest.mark.parametrize("name", sorted(WITNESS_PINS))
    def test_deepest_witness_pinned(self, tmp_path, name):
        inputs, args, digest = WITNESS_PINS[name]
        seq = tmp_path / "seq.json"
        seq.write_text(inputs["--sequence"] + "\n")
        out = tmp_path / "out"
        proc = run_cli(*args, "--sequence", str(seq), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        text = (out / "sharpness_function.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_witness_modulus_does_not_underflow(self, tmp_path, lam_file):
        # at p = 5000 every height power underflows, and the ratio norm read
        # 0 and exited 2; it is read from beta in logs, so each row matches
        # the 50-digit sum over the built heights
        out = tmp_path / "o"
        proc = run_cli("--command", "sharpness", "--sequence", lam_file, "--alpha", "0.5", "--p", "5000",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        combs = extremal_function(WitnessSpec(LambdaSequence.power(1.0), 5000.0, 0.5, 8))
        for row, comb in zip(read_csv(out / "sharpness.csv")[1:], combs, strict=True):
            assert float(row[4]) == pytest.approx(mp_comb_ratio_norm(comb, 6), rel=1e-14, abs=0.0), row[1]

    def test_level_sum_norm_underflow_named(self, tmp_path, lam_file):
        # the level sums are positive, but each block term L_n^r' of the
        # criterion partial sum underflows at r' ~ 2308; the duality weights
        # take powers of L_n / max L, so they are built, and the command stops
        # at the criterion column (this read "the l^2307.69 norm of the input
        # underflows to 0" while the weights went through dual_extremizer)
        proc = run_cli("--command", "sharpness", "--sequence", lam_file, "--levels", "12",
                       "--p", "3000", "--alpha", "0.9999", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: p: the criterion partial sum underflows at this p\n"

    @pytest.mark.parametrize("p,alpha", [("16.876", "0.05925574780753734"), ("7.3", "0.13698630136986303")])
    def test_r_prime_rounding_to_one_builds(self, tmp_path, lam_file, p, alpha):
        # alpha lies one or two doubles above 1.0/p, and above 1/p as written,
        # so r' = 1/(1+1/p-alpha) rounds to 1.0: the witness is still built
        proc = run_cli("--command", "sharpness", "--sequence", lam_file, "--levels", "3",
                       "--p", p, "--alpha", alpha, "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert len(read_csv(tmp_path / "o" / "sharpness.csv")) == 4

    def test_level_sums_underflow_named(self, tmp_path, lam_file):
        # at p' = 10^7 every level sum L_n underflows to 0; this read
        # "input must not be all zero", the duality weights' own message
        proc = run_cli("--command", "sharpness", "--sequence", lam_file, "--levels", "3",
                       "--p", "1.0000001", "--alpha", "0.99999999", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: p: the first level sum underflows to 0 at this p\n"

    def test_levels_cap(self, tmp_path, lam_file):
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file,
            "--levels", "13", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: levels:")


def _perlman_cases():
    # the benchmark's grid: p = 1.2..4.0 by default and with a d-power w of
    # hundredths inside 0.5 <= w p <= 0.95; then the edges, the exit-3 case
    # and each out-of-range message
    cases = []
    for tenths in range(12, 41):
        p = f"{tenths / 10}"
        ws = [k for k in range(1, 100) if 50 * 10 <= k * tenths <= 95 * 10]
        cases += [("--p", p), ("--p", p, "--d-power", f"{ws[len(ws) // 2] / 100}")]
    return cases + [("--d-power", "0"), ("--d-power", "1.0"), ("--p", "1.5", "--d-power", "1"),
                    ("--d-power", "53"), ("--d-power", "60"), ("--p", "400", "--d-power", "1")]


PERLMAN_CASES = _perlman_cases()


class TestDemos:
    def test_wang_demo_inside_window(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("--command", "wang-demo", "--blocks", "10", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "wang-demo.csv")
        assert rows[0] == ["schema_version", "block", "wang_partial", "criterion_partial"]
        assert len(rows) == 11
        wang = [float(r[2]) for r in rows[1:]]
        incs = np.diff(wang)
        for m in (2, 5, 9):
            assert incs[m - 1] == pytest.approx(float(m) ** -2.0, rel=1e-12)
        summary = json.loads((out / "wang-demo.json").read_text())
        assert summary["wang_verdict"] == "converges"
        assert summary["criterion_verdict"] == "diverges"
        assert summary["gap_window_upper"] == 3.0

    def test_wang_demo_outside_window_exits_three(self, tmp_path, monkeypatch, capsys):
        # a family past the window's top, s = 4 > 3: both series converge
        monkeypatch.setattr(cli, "wang_gap_family",
                            lambda p, alpha, s: LambdaSequence.block_power_log(4.0, alpha))
        out = tmp_path / "out"
        assert cli.main(["--command", "wang-demo", "--blocks", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "phenomenon check failed: expected the necessary-condition series to converge "
            "and the criterion to diverge, got converges/converges\n"
        )
        # artifacts are still written for inspection
        assert len(read_csv(out / "wang-demo.csv")) == 11
        summary = json.loads((out / "wang-demo.json").read_text())
        assert summary["criterion_verdict"] == "converges"

    def test_perlman_demo_default(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("--command", "perlman-demo", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "perlman-demo.csv")
        assert len(rows) == 5
        assert [r[1] for r in rows[1:]] == ["1000", "10000", "100000", "1000000"]
        div = [float(r[2]) for r in rows[1:]]
        assert all(b > a for a, b in zip(div, div[1:]))

    def test_perlman_demo_memory(self, tmp_path):
        # one pass over parts: d and the weights (then the two series) in two
        # rows of one part, beside a few one-part temporaries; an array of
        # 10^6 doubles alone would be 15 parts
        tracemalloc.start()
        try:
            assert cli.main(["--command", "perlman-demo", "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * constructions.PERLMAN_PART

    def test_perlman_demo_is_one_perlman_witness_call(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return constructions.perlman_witness(*args)

        monkeypatch.setattr(cli, "perlman_witness", counted)
        assert cli.main(["--command", "perlman-demo", "--p", "3", "--out", str(tmp_path / "o")]) == 0
        assert calls == [(1.0 / 3.0, 3.0, cli.PERLMAN_DECADES)]

    @pytest.mark.parametrize("args", PERLMAN_CASES, ids=" ".join)
    def test_perlman_demo_matches_whole_arrays(self, tmp_path, monkeypatch, capsys, args):
        # the streamed runner writes the bytes, exit code and message of
        # Perlman's weights over all of d and whole-array cumulative sums
        def demo(out):
            code = cli.main(["--command", "perlman-demo", *args, "--out", str(out)])
            files = [(out / f"perlman-demo.{ext}").read_bytes() for ext in ("csv", "json")
                     if (out / f"perlman-demo.{ext}").exists()]
            return code, capsys.readouterr().err, files

        streamed = demo(tmp_path / "streamed")
        monkeypatch.setitem(cli._RUNNERS, "perlman-demo", perlman_demo_by_arrays)
        assert streamed == demo(tmp_path / "arrays")

    def test_perlman_demo_convergent_d_exits_three(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "perlman-demo", "--d-power", "1.0", "--out", str(out),
        )
        assert proc.returncode == 3
        assert "phenomenon check failed" in proc.stderr
        # artifacts are still written for inspection
        assert (out / "perlman-demo.csv").exists()
        summary = json.loads((out / "perlman-demo.json").read_text())
        assert summary["d_power"] == 1.0
        assert summary["last_decade_increment_divergent"] < 0.05

    @pytest.mark.parametrize(
        "args,message",
        [
            (("--d-power", "53"), "sequence terms must be positive and finite"),
            (("--d-power", "60"), "d entries must be positive and finite"),
            (("--p", "400", "--d-power", "1"), "sequence terms must be positive and finite"),
        ],
    )
    def test_perlman_demo_out_of_range_named(self, tmp_path, args, message):
        # d_n = n^-w or lambda_n leaves the double range
        proc = run_cli("--command", "perlman-demo", *args, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: d-power: {message}\n"

    def test_hardy_demo(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("--command", "hardy-demo", "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "hardy-demo.csv")
        assert len(rows) == 10  # header + 3 betas x 3 exponents
        for row in rows[1:]:
            assert row[3] == "500"
            assert float(row[4]) >= float(row[5]) >= 1.0

    def test_hardy_demo_names_the_last_failing_trial(self, tmp_path, monkeypatch, capsys):
        calls = []

        def failing_at_2_and_7(beta, r, a, nu):
            calls.append((beta, r))
            lhs, rhs = hardy_two_sides(beta, r, a, nu)
            rhs[[2, 7]] = lhs[[2, 7]] + 1.0
            return lhs, rhs

        monkeypatch.setattr(cli, "hardy_two_sides", failing_at_2_and_7)
        out = tmp_path / "out"
        assert cli.main(["--command", "hardy-demo", "--out", str(out)]) == 3
        assert len(calls) == 9
        err = capsys.readouterr().err
        assert err.startswith("phenomenon check failed: partial-sum comparison failed at "
                              "beta=1.0, r=3.0, trial 7: lhs=")
        # the failed trials are left out of the ratios
        for row in read_csv(out / "hardy-demo.csv")[1:]:
            assert float(row[4]) >= float(row[5]) >= 1.0


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("--command", "criterion", "--blocks", "8"),
            ("--command", "sharpness", "--levels", "2", "--delta-depth", "3"),
            ("--command", "hardy-demo", "--seed", "3"),
        ],
    )
    def test_rerun_byte_identical(self, tmp_path, lam_file, args):
        full = args + ("--sequence", lam_file)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = run_cli(*full, "--out", str(out1))
        p2 = run_cli(*full, "--out", str(out2))
        assert p1.returncode == 0 and p2.returncode == 0
        name = args[1]
        for suffix in (".csv", ".json"):
            b1 = (out1 / (name + suffix)).read_bytes()
            b2 = (out2 / (name + suffix)).read_bytes()
            assert b1 == b2


    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_csv_matches_golden(self, tmp_path, name):
        inputs, args = GOLDEN_CASES[name]
        run_golden_case(tmp_path, name)
        got = (tmp_path / "out" / (args[1] + ".csv")).read_bytes().splitlines(keepends=True)
        want = (GOLDEN / (name + ".csv")).read_bytes().splitlines(keepends=True)
        if name == "sharpness":
            summary = json.loads((tmp_path / "out" / "sharpness.json").read_text())
            got, want = _held_omega_cells(got, want, summary, inputs["--sequence"])
            witness = (tmp_path / "out" / "sharpness_function.json").read_bytes()
            assert witness == (GOLDEN / "sharpness_function.json").read_bytes()
        # lp_modulus values may move in their last bits with the summation
        # order, so their value cells are held to the mpmath reference instead
        lp_rows = lambda lines: [
            line.decode().rstrip("\n").split(",") for line in lines if b",lp_modulus," in line
        ]
        other = lambda lines: [line for line in lines if b",lp_modulus," not in line]
        assert other(got) == other(want)
        got_lp, want_lp = lp_rows(got), lp_rows(want)
        assert [r[:5] + r[6:] for r in got_lp] == [r[:5] + r[6:] for r in want_lp]
        if got_lp:
            f = function_from_json(inputs["--function"])
            p, deltas = float(got_lp[0][2]), [float(r[4]) for r in got_lp]
            assert_matches_lp_reference(f, p, deltas, [float(r[5]) for r in got_lp])

    @pytest.mark.parametrize("command", sorted(COMMAND_CASES))
    def test_json_matches_golden(self, tmp_path, command):
        out = run_golden_case(tmp_path, COMMAND_CASES[command])
        got = (out / (command + ".json")).read_bytes().splitlines(keepends=True)
        want = (GOLDEN / (command + ".json")).read_bytes().splitlines(keepends=True)
        assert len(got) == len(want)
        value = lambda line: float(line.split(b":")[1].rstrip(b",\n"))
        for line_got, line_want in zip(got, want):
            # the witness's omega_ratio_norm is the last omega_ratio cell of
            # the sharpness CSV, held at 1e-12 relative for the same reason
            if b'"omega_ratio_norm"' in line_want:
                assert value(line_got) == pytest.approx(value(line_want), rel=1e-12)
            else:
                assert line_got == line_want

    @pytest.mark.parametrize("command", sorted(COMMAND_CASES))
    def test_every_artifact_carries_the_frame(self, tmp_path, command):
        out = run_golden_case(tmp_path, COMMAND_CASES[command])
        rows = read_csv(out / (command + ".csv"))
        assert rows[0][0] == "schema_version"
        assert len(rows) > 1 and all(row[0] == "1" for row in rows[1:])
        summary = json.loads((out / (command + ".json")).read_text())
        assert summary["command"] == command
        assert summary["schema_version"] == 1


def _held_omega_cells(got, want, summary, sequence_json):
    """Check the sharpness CSV's omega_ratio and omega_quotient cells, whose
    last bits move with the order of summation, against the per-arc sum on
    the built witness at 1e-12 relative (the golden's own cells included),
    and return both CSVs with those cells blanked for the byte comparison."""
    lam = sequence_from_json(sequence_json)
    p, alpha = summary["witness"]["p"], summary["witness"]["alpha"]
    deltas = [2.0**-j for j in range(summary["delta_depth"] + 1)]
    blanked = ([], [])
    for line_got, line_want in zip(got, want):
        rows = [line.decode().rstrip("\n").split(",") for line in (line_got, line_want)]
        if rows[0][0] != "schema_version":
            comb = extremal_function(WitnessSpec(lam, p, alpha, int(rows[0][1])))[-1]
            omega = comb_ratio_norm_by_arcs(comb.function(), p, alpha, deltas)
            for row in rows:
                assert float(row[4]) == pytest.approx(omega, rel=1e-12)
                assert float(row[6]) == pytest.approx(float(row[3]) / omega, rel=1e-12)
                row[4] = row[6] = ""
        for out, row in zip(blanked, rows):
            out.append(",".join(row).encode() + b"\n")
    assert len(got) == len(want)
    return blanked


class TestPublicSurface:
    def test_exports_and_traced_names_resolve(self):
        submodules = ("cli", "constructions", "periodic", "sequences", "variation")
        for module in [lambdabv] + [importlib.import_module(f"lambdabv.{m}") for m in submodules]:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
        # a traced benchmark run looks up every name in perfbench's TRACED
        spans = load_spans()
        for module, names in spans.TRACED.items():
            mod = importlib.import_module(f"lambdabv.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"{module}.{name}"

    def test_package_exports_the_module_names(self):
        modules = [importlib.import_module(f"lambdabv.{m}")
                   for m in ("constructions", "periodic", "sequences", "variation")]
        assert len(set(lambdabv.__all__)) == len(lambdabv.__all__)
        assert set(lambdabv.__all__) == set().union(*(m.__all__ for m in modules))

    def test_cli_imports_are_traced(self):
        # every library function the CLI calls gets a span in a traced
        # benchmark run, except the JSON helpers spans.py leaves unwrapped so
        # that their time stays in cli.main
        unwrapped = {"function_from_json", "sequence_from_json", "function_to_json"}
        spans = load_spans()
        source = pathlib.Path(spans.__file__).read_text()
        assert all(name in source for name in unwrapped)
        imported = [
            (value.__module__, name) for name, value in vars(cli).items()
            if inspect.isfunction(value) and value.__module__.startswith("lambdabv.")
            and value.__module__ != "lambdabv.cli"
        ]
        assert ("lambdabv.variation", "p_variation") in imported
        for module, name in imported:
            short = module.removeprefix("lambdabv.")
            assert name in spans.TRACED.get(short, ()) or name in unwrapped, f"{module}.{name}"

    def test_cli_import_leaves_mpmath_unloaded(self, tmp_path):
        # long power sums run on the standard library's decimal, so neither the
        # import nor a command whose block sums take the 40-digit pass loads mpmath
        (tmp_path / "lam.json").write_text(LAM_N_JSON)
        seq = ["--sequence", str(tmp_path / "lam.json")]
        runs = [["--command", "criterion", *seq], ["--command", "wang-demo"],
                ["--command", "sharpness", *seq, "--levels", "12"]]
        runs = [[*argv, "--out", str(tmp_path / argv[1])] for argv in runs]
        code = (
            "import json, sys, lambdabv.cli as cli, lambdabv.sequences as s\n"
            "print('mpmath' in sys.modules)\n"
            "em, calls = s._em_power_sums, []\n"
            "s._em_power_sums = lambda c, blocks: calls.append(len(blocks)) or em(c, blocks)\n"
            "print([cli.main(argv) for argv in json.loads(sys.argv[1])], len(calls) > 0, 'mpmath' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["False", "[0, 0, 0] True False", ""]

    def test_commands_leave_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma on its first call; no command needs it
        (tmp_path / "f.json").write_text(GOLDEN_FUNCTION_JSON)
        (tmp_path / "lam.json").write_text(LAM_N_JSON)
        seq = ["--sequence", str(tmp_path / "lam.json")]
        runs = {
            "variation": ["--function", str(tmp_path / "f.json"), *seq, "--refine", "1"],
            "criterion": [*seq, "--blocks", "6"],
            "sharpness": [*seq, "--levels", "4"],
            "wang-demo": ["--blocks", "6"],
            "perlman-demo": [],
            "hardy-demo": ["--seed", "3"],
        }
        argvs = [["--command", name, "--out", str(tmp_path / name), *args] for name, args in runs.items()]
        code = (f"import sys, lambdabv.cli\nfor argv in {argvs!r}:\n    assert lambdabv.cli.main(argv) == 0, argv\n"
                "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestParser:
    def test_help_lists_commands(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("variation", "criterion", "sharpness", "wang-demo",
                     "perlman-demo", "hardy-demo"):
            assert name in proc.stdout

    def test_one_parser_per_process(self, tmp_path, tri_file):
        assert cli.build_parser() is cli.build_parser()
        assert cli.main(["--command", "variation", "--function", tri_file, "--refine", "3",
                         "--delta-depth", "4", "--out", str(tmp_path / "a")]) == 0
        # the options of one call do not leak into the next one's defaults
        assert cli.main(["--command", "variation", "--function", tri_file, "--out", str(tmp_path / "b")]) == 0
        summary = json.loads((tmp_path / "b" / "variation.json").read_text())
        assert (summary["refinement"], summary["delta_depth"]) == (0, 6)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--command", "variation", "--delta-depth", "four", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
