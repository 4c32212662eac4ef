import importlib.util
import json
import os
import pathlib
import platform
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "batch_s", "better": "lower", "bound": 0.25},
              {"name": "ok_ratio", "better": "higher", "bound": 0.15}]


def result(batch_s, ok_ratio=1.0, failed=0, attempted=42, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"batch_s": {"value": batch_s, "unit": "s"},
                        "ok_ratio": {"value": ok_ratio, "unit": "ratio"}}}


def completed(returncode, payload, stderr=""):
    stdout = "perfbench modulus-scan-seed1-trace0: ...\n" + json.dumps(payload) + "\n"
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


class TestSummary:
    def test_quartiles_wins_and_ties(self):
        parent = [result(1.0), result(2.0), result(3.0), result(4.0), result(5.0, ok_ratio=0.9, failed=4)]
        change = [result(0.5), result(2.5), result(3.0), result(3.0), result(4.0, ok_ratio=1.0)]
        entry = bench_pairs.summarize([7, 8, 9, 10, 11], parent, change, END_TO_END)
        batch = entry["metrics"]["batch_s"]
        assert batch["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
        assert batch["change"] == {"q1": 2.5, "median": 3.0, "q3": 3.0}
        assert batch["change_minus_parent_rel"] == 0.0
        assert batch["change_wins"] == "3/5" and batch["ties"] == 1
        assert batch["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
        ok = entry["metrics"]["ok_ratio"]
        assert ok["change_wins"] == "1/5" and ok["ties"] == 4
        assert entry["seeds"] == [7, 8, 9, 10, 11]
        assert entry["failed_per_run"] == {"parent": [0, 0, 0, 0, 4], "change": [0] * 5}
        assert entry["commands_per_run"] == 42
        assert entry["every_run_correct"] is True

    def test_relative_median_difference(self):
        entry = bench_pairs.summarize([1, 2], [result(0.2), result(0.4)], [result(0.27), result(0.27)],
                                      END_TO_END)
        batch = entry["metrics"]["batch_s"]
        assert batch["parent"]["median"] == pytest.approx(0.3)
        assert batch["change_minus_parent_rel"] == -0.1
        assert batch["change_wins"] == "1/2"
        assert batch["within_bound"] is True

    def test_read_result_takes_the_last_line(self):
        payload = result(1.25)
        assert bench_pairs.read_result(completed(0, payload), "x") == payload

    @pytest.mark.parametrize("proc, message", [
        (completed(2, result(1.0), "perfbench: unknown workload"), "exit 2"),
        (completed(0, result(1.0, correct=False)), "correct: False"),
        (subprocess.CompletedProcess([], 0, "", ""), "no result line"),
    ])
    def test_read_result_rejects_failed_runs(self, proc, message):
        with pytest.raises(bench_pairs.BenchError, match=message):
            bench_pairs.read_result(proc, "x")


class TestMain:
    def test_runs_alternate_and_merge_into_the_out_file(self, tmp_path, monkeypatch):
        parent, change = tmp_path / "parent", tmp_path / "change"
        parent.mkdir()
        change.mkdir()
        spec = {"run_seconds": 7, "end_to_end": END_TO_END}
        (change / "BENCHMARK.json").write_text(json.dumps(spec))
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"claim": None, "workloads": {"other": {"seeds": [1]}}}))
        calls = []

        def fake_run_once(checkout, workload, seed, seconds):
            calls.append((checkout.name, workload, seed, seconds))
            # batch_s halves, inside its bound; ok_ratio falls by 20%, past its 15%
            return result(1.0) if checkout == parent else result(0.5, ok_ratio=0.8)

        monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
        argv = [str(parent), str(change), "--workload", "w", "--workload", "v", "--pairs", "3",
                "--first-seed", "40", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        # each workload runs its own alternating series, one after the other
        assert [c[1] for c in calls] == ["w"] * 6 + ["v"] * 6
        for series in (calls[:6], calls[6:]):
            assert [c[0] for c in series] == ["parent", "change", "change", "parent", "parent", "change"]
            assert [c[2] for c in series] == [40, 40, 41, 41, 42, 42]
        assert {c[3] for c in calls} == {7}
        data = json.loads(out.read_text())
        assert data["claim"] is None and data["workloads"]["other"] == {"seeds": [1]}
        assert data["machine"] == bench_pairs.machine()
        for workload in ("w", "v"):
            assert data["workloads"][workload]["seeds"] == [40, 41, 42]
            metrics = data["workloads"][workload]["metrics"]
            assert metrics["batch_s"]["change_wins"] == "3/3"
            assert metrics["batch_s"]["within_bound"] is True
            assert metrics["ok_ratio"]["within_bound"] is False

    def test_out_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "1", "--first-seed", "1"])
        assert exc.value.code == 2


class TestMachine:
    def test_versions_and_cpu(self):
        import mpmath
        import numpy as np

        info = bench_pairs.machine()
        assert info["python"] == platform.python_version()
        assert info["numpy"] == np.__version__ and info["mpmath"] == mpmath.__version__
        assert info["cpu_count"] == os.cpu_count()
        assert isinstance(info["numpy_dispatch"], list)
        assert info["numpy_avx512"] is any(t.startswith("AVX512") or t == "X86_V4" for t in info["numpy_dispatch"])

    def test_dispatch_is_what_numpy_built_and_the_cpu_has(self, monkeypatch):
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath

        monkeypatch.setattr(umath, "__cpu_dispatch__", ["X86_V3", "X86_V4", "AVX512_SKX"], raising=False)
        monkeypatch.setattr(umath, "__cpu_features__", {"X86_V3": True, "X86_V4": False, "AVX512_SKX": False},
                            raising=False)
        assert bench_pairs.numpy_dispatch() == ["X86_V3"]
        assert bench_pairs.machine()["numpy_avx512"] is False
        monkeypatch.setattr(umath, "__cpu_features__", {"X86_V3": True, "X86_V4": True, "AVX512_SKX": False},
                            raising=False)
        assert bench_pairs.machine()["numpy_avx512"] is True

    @pytest.mark.parametrize("value, want", [(None, False), ("", False), ("1", True), ("x", True)])
    def test_dont_write_bytecode(self, monkeypatch, value, want):
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        assert bench_pairs.machine()["PYTHONDONTWRITEBYTECODE"] is want
