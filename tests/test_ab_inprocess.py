import importlib.util
import json
import math
import pathlib
import shutil
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_inprocess.py"
spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)


class FakeCli:
    """cli.main stand-in: logs its side, advances the fake clock by its
    cost and writes one CSV artifact, its text followed by the input (no
    artifact where its text is None)."""

    def __init__(self, side, cost, clock, calls, text="same\n"):
        self.side, self.cost, self.clock, self.calls, self.text = side, cost, clock, calls, text

    def main(self, argv):
        self.calls.append((self.side, argv[argv.index("--cid") + 1]))
        self.clock[0] += self.cost
        out = pathlib.Path(argv[argv.index("--out") + 1])
        if self.text is not None:
            (out / "result.csv").write_text(self.text + (out / "in.txt").read_text())
        print("done")
        return 0


def fake_workloads(batches_seen):
    def command(cid):
        return types.SimpleNamespace(cid=cid, argv=["--cid", cid, "--in", "{dir}/in.txt"],
                                     files={"in.txt": f"input {cid}\n"})

    class Generator:
        def __init__(self, workload, seed, tiny):
            self.workload, self.seed, self.tiny = workload, seed, tiny

        def plan(self, batches):
            batches_seen.append((self.workload, self.seed, self.tiny, batches))
            return [command("w0")], [[command(f"{i}.{j}") for j in range(2)] for i in range(batches)]

    return types.SimpleNamespace(Generator=Generator)


@pytest.fixture
def stubbed(tmp_path, monkeypatch):
    clock, calls, plans = [0.0], [], []
    texts = {"base": "same\n", "head": "same\n"}
    costs = {"base": 2.0, "head": 1.0}
    monkeypatch.setattr(ab_inprocess, "CLOCK", lambda: clock[0])
    monkeypatch.setattr(ab_inprocess, "load_cli", lambda checkout, name, into: FakeCli(
        name.rpartition("_")[2], costs[name.rpartition("_")[2]], clock, calls, texts[name.rpartition("_")[2]]))
    monkeypatch.setattr(ab_inprocess, "load_workloads", lambda checkout: fake_workloads(plans))
    monkeypatch.setattr(ab_inprocess, "workload_names", lambda checkout: ["w", "v"])
    return types.SimpleNamespace(calls=calls, plans=plans, texts=texts)


class TestStubbed:
    def test_batches_alternate_and_merge_into_the_out_file(self, tmp_path, stubbed):
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"claim": None, "workloads": {"w": {"seeds": [1]}}}))
        argv = ["base", "head", "--workload", "w", "--workload", "v", "--batches", "3", "--seed", "5",
                "--out", str(out)]
        assert ab_inprocess.main(argv) == 0
        assert stubbed.plans == [("w", 5, False, 3), ("v", 5, False, 3)]
        for series in (stubbed.calls[:14], stubbed.calls[14:]):
            # the warm-up on each side, then each batch with BASE first on
            # even batches and HEAD first on odd ones
            assert [side for side, _ in series] == (["base", "head"] + ["base"] * 2 + ["head"] * 4
                                                    + ["base"] * 4 + ["head"] * 2)
            assert [cid for _, cid in series[2:]] == ["0.0", "0.1"] * 2 + ["1.0", "1.1"] * 2 + ["2.0", "2.1"] * 2
        data = json.loads(out.read_text())
        assert data["claim"] is None and data["workloads"] == {"w": {"seeds": [1]}}
        for workload in ("w", "v"):
            entry = data["cpu_ab"][workload]
            assert entry["order"] == [["base", "head"], ["head", "base"], ["base", "head"]]
            assert entry["base"] == {"slot_median_batch_s": 4.0, "command_p50_s": 2.0, "batch_sums_s": [4.0] * 3}
            assert entry["head"] == {"slot_median_batch_s": 2.0, "command_p50_s": 1.0, "batch_sums_s": [2.0] * 3}
            assert entry["command_p50_head_minus_base_rel"] == -0.5
            assert entry["head_minus_base_rel"] == -0.5 and entry["head_wins"] == "3/3"
            # per command: its input, its result and its exit record
            assert entry["artifacts_compared"] == 3 * 2 * 3
            assert entry["differing_artifacts"] == 0 and entry["differences"] == []
            assert entry["largest_relative_difference"] == 0.0 and entry["moved_cells"] == {}

    def test_a_differing_artifact_exits_1(self, tmp_path, stubbed):
        stubbed.texts["head"] = "other\n"
        out = tmp_path / "BENCH.json"
        assert ab_inprocess.main(["base", "head", "--workload", "w", "--batches", "2", "--out", str(out)]) == 1
        entry = json.loads(out.read_text())["cpu_ab"]["w"]
        assert entry["differing_artifacts"] == 4
        assert entry["differences"][:2] == ["batch 0: 0.0/result.csv", "batch 0: 0.1/result.csv"]
        # a changed word has no numeric distance
        assert entry["largest_relative_difference"] == math.inf
        assert entry["moved_cells"] == {"result.csv: column 0": {"artifacts": 4, "ulps": math.inf, "rises": 0,
                                                                 "falls": 0}}

    def test_a_last_bit_change_names_its_column(self, tmp_path, stubbed):
        # row 1's value moves by 1 ulp; row 2's is written otherwise, equal in value
        stubbed.texts.update(base="name,value,n\nx,0.1,2\ny,3.0,2\n",
                             head="name,value,n\nx,0.10000000000000002,2\ny,3,2\n")
        out = tmp_path / "BENCH.json"
        assert ab_inprocess.main(["base", "head", "--workload", "w", "--batches", "2", "--out", str(out)]) == 1
        entry = json.loads(out.read_text())["cpu_ab"]["w"]
        assert entry["differing_artifacts"] == 4
        assert entry["largest_relative_difference"] == pytest.approx(math.ulp(0.1) / 0.1, rel=1e-6)
        assert 1e-16 < entry["largest_relative_difference"] < 2e-16
        # row 1 rose in each artifact; row 2's equal value counts in neither
        assert entry["moved_cells"] == {"result.csv: value": {"artifacts": 4, "ulps": 1, "rises": 4, "falls": 0}}

    def test_rises_and_falls_are_counted_per_cell(self, tmp_path, stubbed):
        # v rises in row 1 and falls in row 2; w falls and rises; a word in x
        # has no sign
        stubbed.texts.update(base="v,w,x\n1,5,a\n2,-3,b\n", head="v,w,x\n1.5,4,c\n1,-2,b\n")
        out = tmp_path / "BENCH.json"
        assert ab_inprocess.main(["base", "head", "--workload", "w", "--batches", "2", "--out", str(out)]) == 1
        moved = json.loads(out.read_text())["cpu_ab"]["w"]["moved_cells"]
        assert {k: (v["rises"], v["falls"]) for k, v in moved.items()} == {
            "result.csv: v": (4, 4), "result.csv: w": (4, 4), "result.csv: x": (0, 0)}

    def test_command_median_is_over_every_command(self):
        # slots (1, 2, 3) and (5, 6, 100): the slot medians sum to 2 + 6, while
        # the median of all six commands is (3 + 5) / 2
        series = {"cpu": {"base": [[1.0, 5.0], [2.0, 6.0], [3.0, 100.0]], "head": [[1.0, 1.0]] * 3},
                  "orders": [], "differing": [], "compared": 0, "moved": {}}
        entry = ab_inprocess.summarize(0, False, series)
        assert entry["base"]["slot_median_batch_s"] == 8.0
        assert entry["base"]["command_p50_s"] == 4.0
        assert entry["head"]["command_p50_s"] == 1.0
        assert entry["command_p50_head_minus_base_rel"] == -0.75

    @pytest.mark.parametrize(
        "a,b,want,moved",
        [
            ("v\n2\n", "v\n-2\n", 2.0, {"result.csv: v": 2**63}),
            # a lost column and a last-bit change
            ("v,w\n1,2\n", "v\n1.0000000000000002\n", math.inf,
             {"result.csv: (shape)": math.inf, "result.csv: v": 1}),
            # other line ends, every cell equal
            ("v\n1\n", "v\r\n1\r\n", math.inf, {"result.csv: (shape)": math.inf}),
            ("v\n1\n", None, math.inf, {"result.csv: (shape)": math.inf}),
            ("v\n1e308\n", "v\n1e999\n", math.inf,
             {"result.csv: v": ab_inprocess.golden_diff.ulps(1e308, math.inf)}),
        ],
    )
    def test_cell_differences(self, tmp_path, stubbed, a, b, want, moved):
        stubbed.texts.update(base=a, head=b)
        out = tmp_path / "BENCH.json"
        assert ab_inprocess.main(["base", "head", "--workload", "w", "--batches", "1", "--out", str(out)]) == 1
        entry = json.loads(out.read_text())["cpu_ab"]["w"]
        assert entry["largest_relative_difference"] == want
        assert {k: v["ulps"] for k, v in entry["moved_cells"].items()} == moved

    def test_an_unknown_workload_exits_2_before_any_load(self, tmp_path, monkeypatch, capsys):
        def load(*args):
            raise AssertionError("a checkout was loaded")

        monkeypatch.setattr(ab_inprocess, "load_cli", load)
        monkeypatch.setattr(ab_inprocess, "load_workloads", load)
        out = tmp_path / "BENCH.json"
        argv = [str(ROOT), str(ROOT), "--workload", "series-table", "--workload", "series_table",
                "--batches", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            ab_inprocess.main(argv)
        assert exc.value.code == 2
        assert "error: unknown workload 'series_table'; BENCHMARK.json declares witness-sweep" in capsys.readouterr().err
        assert not out.exists()

    def test_batches_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            ab_inprocess.main(["a", "b", "--workload", "w", "--batches", "0", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


def _checkout(root, src):
    shutil.copytree(src, root / "src" / "lambdabv", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


class TestRealRun:
    def test_two_copies_of_one_src_write_the_same_bytes(self, tmp_path):
        base = _checkout(tmp_path / "base", ROOT / "src" / "lambdabv")
        head = _checkout(tmp_path / "head", ROOT / "src" / "lambdabv")
        out = tmp_path / "BENCH.json"
        argv = [str(base), str(head), "--workload", "witness-sweep", "--workload", "arcs-search",
                "--batches", "2", "--tiny", "--out", str(out)]
        assert ab_inprocess.main(argv) == 0
        for entry in json.loads(out.read_text())["cpu_ab"].values():
            assert entry["batches"] == 2 and entry["commands_per_batch"] == 3
            assert entry["artifacts_compared"] > 0 and entry["differing_artifacts"] == 0

    def test_a_changed_written_byte_is_found(self, tmp_path):
        base = _checkout(tmp_path / "base", ROOT / "src" / "lambdabv")
        head = _checkout(tmp_path / "head", ROOT / "src" / "lambdabv")
        cli = head / "src" / "lambdabv" / "cli.py"
        text = cli.read_text()
        assert "sort_keys=True, indent=2" in text
        cli.write_text(text.replace("sort_keys=True, indent=2", "sort_keys=True, indent=3"))
        out = tmp_path / "BENCH.json"
        argv = [str(base), str(head), "--workload", "witness-sweep", "--batches", "1", "--tiny", "--out", str(out)]
        assert ab_inprocess.main(argv) == 1
        differences = json.loads(out.read_text())["cpu_ab"]["witness-sweep"]["differences"]
        assert differences == [f"batch 0: 0.{i}/sharpness.json" for i in range(3)]
        # an indentation change is not a numeric one
        assert json.loads(out.read_text())["cpu_ab"]["witness-sweep"]["largest_relative_difference"] == math.inf
