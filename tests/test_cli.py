import csv
import hashlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lambdabv
from lambdabv import cli
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
    p_cont_ratio_norm,
    sequence_from_json,
)

from lambdabv.constructions import MAX_WITNESS_LEVELS
from lambdabv.variation import MAX_DELTA_DEPTH

from helpers import (
    SRC,
    alternating_plpf,
    chain_dp_profile,
    chunked_subset_scan_max,
    mp_lp_modulus_profile,
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
            # without it the moduli, at any p
            (HUGE_JSON, "2", True, "function: lambda_variation is not finite (inf)"),
            (HUGE_JSON, "2", False, "function: lp_modulus is not finite (nan)"),
            # a spread of 2e200 is finite, but the L^p modulus integrates its
            # cube at p = 2
            ('{"breakpoints": [[0.0, 1e200], [0.5, -1e200]]}', "2", True,
             "function: lp_modulus is not finite (nan)"),
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

    def test_out_path_is_a_file(self, tmp_path, tri_file):
        target = tmp_path / "occupied"
        target.write_text("x")
        proc = run_cli("--command", "variation", "--function", tri_file, "--out", str(target))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out:")

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

    def test_witness_measures_are_direct_calls(self, tmp_path, lam_file):
        out = tmp_path / "out"
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file, "--levels", "3",
            "--delta-depth", "4", "--refine", "1", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lam = LambdaSequence.power(1.0)
        g, _ = extremal_function(WitnessSpec(lam, 2.0, 0.75, 3))
        witness = json.loads((out / "sharpness.json").read_text())["witness"]
        assert witness["measured_lambda_variation"] == lambda_variation(g, lam)
        assert witness["omega_ratio_norm"] == p_cont_ratio_norm(g, 2.0, 0.75, 4, 1).value

    def test_witness_heights_overflow_named(self, tmp_path, lam_file):
        # near p = 1 the heights' exponent -1/(p-1) overflows them; the
        # sequence itself is fine
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file, "--levels", "3",
            "--p", "1.001", "--alpha", "0.9995", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: p: heights must be nonnegative and finite\n"

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

    @pytest.mark.parametrize(
        "family,args,digest",
        [
            ('{"family": "block_power_log", "params": {"s": -0.4, "alpha": 0.8}}',
             ("--p", "2", "--alpha", "0.6"),
             "bc83d00999e54cffeee8efea98c78cb44232226c302b347a6828e8175f22b4c2"),
            ('{"family": "power_log", "params": {"s": 0.5, "t": 1.0}}', (),
             "6493e56511a3804da355228830b8d0ba58679831c31551917e9b79653d69a999"),
        ],
        ids=["block_power_log", "power_log"],
    )
    def test_deepest_witness_pinned(self, tmp_path, family, args, digest):
        # sha256 of the level-12 witness file, taken while the witness was
        # still the superpose of one comb per level
        seq = tmp_path / "seq.json"
        seq.write_text(family + "\n")
        out = tmp_path / "out"
        proc = run_cli("--command", "sharpness", "--sequence", str(seq), "--levels", "12",
                       *args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        text = (out / "sharpness_function.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_witness_modulus_underflow_named(self, tmp_path, lam_file):
        # at p = 5000 the witness's p-power sums underflow and its ratio norm
        # reads 0, which divided the last column
        args = ("--command", "sharpness", "--sequence", lam_file, "--alpha", "0.5")
        proc = run_cli(*args, "--p", "5000", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "error: p: the witness modulus underflows at this p\n"
        proc = run_cli(*args, "--p", "1000", "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr

    def test_levels_cap(self, tmp_path, lam_file):
        proc = run_cli(
            "--command", "sharpness", "--sequence", lam_file,
            "--levels", "13", "--out", str(tmp_path / "o"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: levels:")


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

    def test_perlman_demo_default(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("--command", "perlman-demo", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out / "perlman-demo.csv")
        assert len(rows) == 5
        assert [r[1] for r in rows[1:]] == ["1000", "10000", "100000", "1000000"]
        div = [float(r[2]) for r in rows[1:]]
        assert all(b > a for a, b in zip(div, div[1:]))

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
            values = [float(r[5]) for r in got_lp]
            assert values == pytest.approx(mp_lp_modulus_profile(f, p, deltas), rel=1e-12)

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
    last bits move with the chain DP's summation order, against the whole-chain
    reference at 1e-12 relative (the golden's own cells included), and return
    both CSVs with those cells blanked for the byte comparison."""
    lam = sequence_from_json(sequence_json)
    p, alpha = summary["witness"]["p"], summary["witness"]["alpha"]
    deltas = [2.0**-j for j in range(summary["delta_depth"] + 1)]
    blanked = ([], [])
    for line_got, line_want in zip(got, want):
        rows = [line.decode().rstrip("\n").split(",") for line in (line_got, line_want)]
        if rows[0][0] != "schema_version":
            g, _ = extremal_function(WitnessSpec(lam, p, alpha, int(rows[0][1])))
            moduli = chain_dp_profile(g, p, deltas, summary["refinement"])
            omega = max(m / d ** (alpha - 1.0 / p) for m, d in zip(moduli, deltas))
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
        unwrapped = {"function_from_json", "sequence_from_json", "function_to_json",
                     "sequence_to_json", "witness_report_json"}
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

    def test_cli_import_leaves_mpmath_unloaded(self):
        # only long power sums need mpmath, and they import it themselves
        code = "import sys, lambdabv.cli; print('mpmath' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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
