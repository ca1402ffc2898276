"""The pair runner's refusal rule and its per-metric summary."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _checkout(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


BASE = {
    "BENCHMARK.json": '{"end_to_end": []}\n',
    "perfbench/run.py": "print('{}')\n",
    "perfbench/workloads/ctrw.txt": "--n 10\n",
}


class TestBenchmarkDifferences:
    def test_identical_trees(self, tmp_path):
        a = _checkout(tmp_path / "a", BASE)
        b = _checkout(tmp_path / "b", BASE)
        # byte code and caches are not part of the benchmark
        (tmp_path / "b" / "perfbench" / "__pycache__").mkdir()
        (tmp_path / "b" / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"x")
        assert bench_pairs.benchmark_differences(a, b) == []

    def test_changed_added_and_missing(self, tmp_path):
        a = _checkout(tmp_path / "a", BASE)
        changed = dict(BASE)
        changed["perfbench/workloads/ctrw.txt"] = "--n 20\n"
        changed["perfbench/extra.py"] = ""
        del changed["BENCHMARK.json"]
        b = _checkout(tmp_path / "b", changed)
        assert bench_pairs.benchmark_differences(a, b) == [
            "perfbench/extra.py",
            "perfbench/workloads/ctrw.txt",
            "BENCHMARK.json",
        ]

    def test_main_refuses(self, tmp_path):
        a = _checkout(tmp_path / "a", BASE)
        b = _checkout(tmp_path / "b", {**BASE, "BENCHMARK.json": "{}\n"})
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit, match="BENCHMARK.json"):
            bench_pairs.main([a, b, "--workload", "ctrw:1", "--out", str(out)])
        assert not out.exists()


def test_summarise_counts_ties_for_neither():
    specs = [{"name": "solve_s", "better": "lower"}, {"name": "rate", "better": "higher"}]

    def run(solve, rate, correct=True):
        return {"failed": 0, "attempted": 3, "correct": correct,
                "metrics": {"solve_s": {"value": solve}, "rate": {"value": rate}}}

    runs = {"parent": [run(2.0, 1.0), run(2.0, 1.0), run(2.0, 1.0)],
            "change": [run(1.0, 2.0), run(2.0, 1.0), run(3.0, 0.5, correct=False)]}
    out = bench_pairs.summarise(runs, [1, 2, 3], specs)
    assert out["attempted"] == {"parent": 9, "change": 9}
    assert out["correct"] == {"parent": True, "change": False}
    for name in ("solve_s", "rate"):
        assert (out[name]["change_wins"], out[name]["change_losses"]) == (1, 1)
    assert out["solve_s"]["per_pair"] == [[2.0, 1.0], [2.0, 2.0], [2.0, 3.0]]
    assert out["solve_s"]["median_ratio"] == 1.0
    json.dumps(out)
