import hashlib
import importlib.util
import json
import math
import pathlib
import shutil

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "golden_diff.py"
spec = importlib.util.spec_from_file_location("golden_diff", TOOL)
golden_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_diff)

CASES = {
    "golden": {
        "crit": [{"--sequence": "{}"}, ["--command", "criterion", "--blocks", "2"]],
        "sharp": [{}, ["--command", "sharpness"]],
    },
    "commands": {"criterion": "crit"},
    "pins": {"deep": [{}, ["--command", "sharpness", "--levels", "12"], "0" * 64]},
}
OUTPUTS = {
    "criterion.csv": "schema_version,n,value\n1,0,0.1\n1,1,2\n",
    "criterion.json": '{"a": [1.5, 2.5], "b": {"c": 0.1}, "command": "criterion"}\n',
    "sharpness.csv": "schema_version,level,omega_ratio\n1,1,1.5\n",
    "sharpness.json": '{"levels": 1}\n',
    "sharpness_function.json": '{"breakpoints": [[0.0, 0.0], [0.5, 1.0]]}\n',
}


@pytest.fixture
def stubbed(tmp_path, monkeypatch):
    """Checkouts tmp_path/base and tmp_path/head whose runs write OUTPUTS,
    HEAD's as edited in ``outputs["head"]``."""
    outputs = {"base": dict(OUTPUTS), "head": dict(OUTPUTS)}
    exits = {"base": 0, "head": 0}
    runs = []

    def run_case(checkout, inputs, args, workdir):
        side = checkout.name
        runs.append((side, args[1]))
        files = {name: text.encode() for name, text in outputs[side].items() if name.startswith(args[1])}
        files["(exit)"] = b"exit %d\n" % exits[side]
        return files

    monkeypatch.setattr(golden_diff, "load_cases", lambda checkout: CASES)
    monkeypatch.setattr(golden_diff, "run_case", run_case)
    for side in ("base", "head"):
        (tmp_path / side / "tests" / "golden").mkdir(parents=True)
    return outputs, exits, runs


def run(tmp_path, *extra):
    out = tmp_path / "diff.json"
    rc = golden_diff.main([str(tmp_path / "base"), str(tmp_path / "head"), "--out", str(out), *extra])
    return rc, json.loads(out.read_text())


class TestStubbed:
    def test_an_unchanged_checkout_reports_nothing(self, tmp_path, stubbed, capsys):
        _, _, runs = stubbed
        rc, report = run(tmp_path)
        assert rc == 0
        # each case once per side, the two sharpness cases on their own
        assert sorted(runs) == sorted([(side, c) for side in ("base", "head")
                                       for c in ("criterion", "sharpness", "sharpness")])
        # three exit records; crit.csv, criterion.json; sharp.csv,
        # sharpness_function.json; the pin's witness file
        assert report["files_compared"] == 3 + 5
        assert report["files"] == {} and report["cells_differing"] == 0 and report["shape_changes"] == 0
        assert report["stale"] == {}
        assert capsys.readouterr().out == "no golden file differs\n"

    def test_a_stale_golden_file_is_listed_and_refreshed(self, tmp_path, stubbed, capsys):
        # both sides write crit.csv alike and the file on disk is a last bit
        # off: "stale", not a difference (exit 0), and --write refreshes it;
        # a golden file equal to the runs is not listed
        golden = tmp_path / "head" / "tests" / "golden"
        (golden / "crit.csv").write_text("schema_version,n,value\n1,0,0.10000000000000002\n1,1,2\n")
        (golden / "criterion.json").write_text(OUTPUTS["criterion.json"])
        rc, report = run(tmp_path)
        assert rc == 0 and report["files"] == {}
        assert list(report["stale"]) == ["crit.csv"]
        entry = report["stale"]["crit.csv"]
        assert entry["case"] == "crit" and entry["shape"] == []
        [c] = entry["cells"]
        assert (c["cell"], c["base"], c["head"], c["ulps"]) == ("row 1, value", "0.10000000000000002", "0.1", 1)
        out = capsys.readouterr().out
        assert "stale golden files" in out and "| crit.csv | row 1, value | 0.10000000000000002 | 0.1 | 1 |" in out
        assert run(tmp_path, "--write") == (0, report)
        assert (golden / "crit.csv").read_text() == OUTPUTS["criterion.csv"]
        assert run(tmp_path)[1]["stale"] == {}

    def test_a_last_bit_edit_reports_one_ulp(self, tmp_path, stubbed, capsys):
        outputs, _, _ = stubbed
        outputs["head"]["criterion.csv"] = "schema_version,n,value\n1,0,0.10000000000000002\n1,1,2\n"
        rc, report = run(tmp_path)
        assert rc == 1
        assert list(report["files"]) == ["crit.csv"]
        entry = report["files"]["crit.csv"]
        assert entry["case"] == "crit" and entry["shape"] == []
        [c] = entry["cells"]
        after = "0.10000000000000002"
        assert (c["cell"], c["base"], c["head"], c["ulps"], c["sign"]) == ("row 1, value", "0.1", after, 1, 1)
        assert c["rel"] == pytest.approx(math.ulp(0.1) / float(after), rel=1e-12)
        assert f"| crit.csv | row 1, value | 0.1 | {after} | 1 | 1.39e-16 |" in capsys.readouterr().out

    def test_an_extra_row_is_named(self, tmp_path, stubbed, capsys):
        outputs, _, _ = stubbed
        outputs["head"]["sharpness.csv"] += "1,2,1.75\n"
        rc, report = run(tmp_path)
        assert rc == 1
        assert report["files"] == {"sharp.csv": {"case": "sharp", "shape": ["rows: 1 -> 2"], "cells": []}}
        assert "| sharp.csv | rows: 1 -> 2 |" in capsys.readouterr().out

    def test_a_column_count_is_named(self, tmp_path, stubbed):
        outputs, _, _ = stubbed
        outputs["head"]["sharpness.csv"] = "schema_version,level,omega_ratio,extra\n1,1,1.5,0\n"
        _, report = run(tmp_path)
        entry = report["files"]["sharp.csv"]
        assert entry["shape"] == ["row 0 columns: 3 -> 4", "row 1 columns: 3 -> 4"]

    def test_json_leaves_lengths_and_keys(self, tmp_path, stubbed):
        outputs, _, _ = stubbed
        outputs["head"]["criterion.json"] = '{"a": [1.5, 2.5, 3.5], "b": {"c": -0.1, "d": 1}, "command": "x"}'
        _, report = run(tmp_path)
        entry = report["files"]["criterion.json"]
        assert entry["shape"] == ["a length: 2 -> 3", "b keys: added ['d'], removed []"]
        cells = {c["cell"]: c for c in entry["cells"]}
        assert set(cells) == {"b.c", "command"}
        assert cells["b.c"]["rel"] == 2.0 and cells["b.c"]["ulps"] == 2 * golden_diff.ulps(0.0, 0.1)
        assert cells["b.c"]["sign"] == -1
        assert cells["command"]["ulps"] is None and cells["command"]["rel"] is None and cells["command"]["sign"] is None

    def test_a_changed_exit_is_named(self, tmp_path, stubbed):
        _, exits, _ = stubbed
        exits["head"] = 2
        rc, report = run(tmp_path)
        assert rc == 1
        assert sorted(report["files"]) == ["crit (exit)", "pin deep (exit)", "sharp (exit)"]
        assert report["files"]["crit (exit)"]["cells"][0]["cell"] == "text"

    def test_write_rewrites_only_the_moved_golden_files(self, tmp_path, stubbed, capsys):
        outputs, _, _ = stubbed
        witness = '{"breakpoints": [[0.0, 0.0], [0.5, 2.0]]}\n'
        outputs["head"]["sharpness_function.json"] = witness
        outputs["head"]["criterion.csv"] = "schema_version,n,value\n1,0,0.2\n1,1,2\n"
        rc, report = run(tmp_path, "--write")
        assert rc == 1
        assert sorted(report["files"]) == ["crit.csv", "pin deep", "sharpness_function.json"]
        golden = tmp_path / "head" / "tests" / "golden"
        assert sorted(p.name for p in golden.iterdir()) == ["crit.csv", "sharpness_function.json"]
        assert (golden / "crit.csv").read_text() == outputs["head"]["criterion.csv"]
        assert (golden / "sharpness_function.json").read_text() == witness
        assert not any((tmp_path / "base" / "tests" / "golden").iterdir())
        digest = hashlib.sha256(witness.encode()).hexdigest()
        assert f"pin deep: new sha256 {digest}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "a,b,want",
        [("0.1", "0.2", 1), ("2", "-2", -1), ("3.0", "3", 0), ("1e308", "inf", 1), ("nan", "1", None),
         ("x", "1", None)],
    )
    def test_cell_sign(self, a, b, want):
        assert golden_diff.cell("c", a, b)["sign"] == want

    @pytest.mark.parametrize(
        "a,b,want",
        [(0.0, -0.0, 0), (0.1, 0.10000000000000002, 1), (-5e-324, 5e-324, 2), (1.0, -1.0, 2 * 0x3FF0 << 48),
         (math.inf, 1.7976931348623157e308, 1), (math.nan, 1.0, None)],
    )
    def test_ulps(self, a, b, want):
        assert golden_diff.ulps(a, b) == want
        assert golden_diff.ulps(b, a) == want

    def test_ulps_counts_the_doubles_between(self):
        x = 1.0
        for k in range(5):
            assert golden_diff.ulps(1.0, x) == k
            x = float(np.nextafter(x, 2.0))


def _checkout(root):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


class TestRealRun:
    def test_two_copies_of_one_checkout_report_nothing(self, tmp_path):
        base, head = _checkout(tmp_path / "base"), _checkout(tmp_path / "head")
        cases = golden_diff.load_cases(head)
        assert "sharpness" in cases["golden"] and len(cases["pins"]) == 2
        out = tmp_path / "diff.json"
        assert golden_diff.main([str(base), str(head), "--out", str(out), "--write"]) == 0
        report = json.loads(out.read_text())
        held = golden_diff.held_files(cases)
        assert report["files_compared"] == len(held) + len(cases["golden"]) + len(cases["pins"])
        assert report["files"] == {} and report["stale"] == {}
        # nothing moved, so nothing was written
        for path in (head / "tests" / "golden").iterdir():
            assert path.read_bytes() == (ROOT / "tests" / "golden" / path.name).read_bytes()
