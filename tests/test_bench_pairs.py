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


SPECS = [{"name": "solve_s", "better": "lower", "bound": 0.25},
         {"name": "rate", "better": "higher", "bound": 0.25}]


def run(solve, rate=1.0, correct=True, failed=0, attempted=3):
    return {"failed": failed, "attempted": attempted, "correct": correct,
            "metrics": {"solve_s": {"value": solve}, "rate": {"value": rate}}}


def test_summarise_counts_ties_for_neither():
    specs = SPECS

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


def _verdicts(parent, change, name="solve_s"):
    runs = {"parent": [run(p, p) for p in parent], "change": [run(c, c) for c in change]}
    out = bench_pairs.summarise(runs, list(range(len(parent))), SPECS)[name]
    return out["gain"], out["worse"], out["unresolved"]


PARENT = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0, 2.2, 1.8, 2.1, 1.9]  # quartiles 1.9 and 2.1


class TestVerdicts:
    def test_gain_needs_nine_tenths_of_the_pairs(self):
        assert _verdicts(PARENT, [p - 0.5 for p in PARENT]) == (True, False, False)
        # eight wins of ten are too few, however large the median difference
        assert _verdicts(PARENT, [1.0] * 8 + [3.0, 3.0]) == (False, False, False)

    def test_gain_needs_more_than_the_parent_spread(self):
        # every pair won, but the medians differ by 0.1, less than the spread 0.2
        assert _verdicts(PARENT, [p - 0.1 for p in PARENT])[0] is False

    def test_worse_beyond_the_bound(self):
        assert _verdicts(PARENT, [p * 1.3 for p in PARENT]) == (False, True, False)
        assert _verdicts(PARENT, [p * 1.2 for p in PARENT]) == (False, False, False)

    def test_higher_is_better(self):
        assert _verdicts(PARENT, [p + 0.5 for p in PARENT], "rate") == (True, False, False)
        assert _verdicts(PARENT, [p * 0.7 for p in PARENT], "rate") == (False, True, False)

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        wide = [1.0, 3.0] * 5  # quartiles 1 and 3 around a median of 2
        assert _verdicts(wide, [2.0] * 10) == (False, False, True)
        # unless every change run beats every parent run
        assert _verdicts(wide, [0.9] * 10) == (False, False, False)

    def test_gain_needs_correct_runs_and_no_larger_failed_share(self):
        def gain(failed, attempted, correct=True):
            runs = {"parent": [run(p, failed=1, attempted=10) for p in PARENT],
                    "change": [run(p - 0.5, failed=failed, attempted=attempted,
                                   correct=correct) for p in PARENT]}
            return bench_pairs.summarise(runs, list(range(10)), SPECS)["solve_s"]["gain"]

        assert gain(1, 10) and gain(0, 10)
        # more failed calls, but the same share of more attempted ones
        assert gain(2, 20)
        assert not gain(2, 10)
        assert not gain(11, 100)  # 110 of 1000 against 10 of 100
        assert not gain(0, 10, correct=False)


class TestClaim:
    FILES = {
        "BENCHMARK.json": '{"end_to_end": [{"name": "solve_s", "better": "lower", '
                          '"bound": 0.25}]}\n',
        "perfbench/run.py": 'print(\'{"failed": 0, "attempted": 1, "correct": true, '
                            '"metrics": {"solve_s": {"value": 1.0}}}\')\n',
    }

    def _main(self, tmp_path, *extra):
        a = _checkout(tmp_path / "a", self.FILES)
        b = _checkout(tmp_path / "b", self.FILES)
        out = tmp_path / "out.json"
        bench_pairs.main([a, b, "--workload", "ctrw:1", "--out", str(out), *extra])
        return json.loads(out.read_text())

    def test_written_as_claimed(self, tmp_path):
        result = self._main(tmp_path, "--claim", "ctrw:solve_s")
        assert result["claimed"] == {"workload": "ctrw", "metric": "solve_s"}
        assert result["workloads"]["ctrw"]["solve_s"]["per_pair"] == [[1.0, 1.0]]

    def test_null_without_a_claim(self, tmp_path):
        assert self._main(tmp_path)["claimed"] is None

    @pytest.mark.parametrize("claim", ["transport_pn:solve_s", "ctrw:wall_s"])
    def test_refuses_a_workload_not_run_or_an_unknown_metric(self, tmp_path, claim):
        with pytest.raises(SystemExit, match="--claim"):
            self._main(tmp_path, "--claim", claim)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flag, expected", [("1", True), ("", False), (None, False)])
    def test_host_records_the_byte_code_state(self, tmp_path, monkeypatch, flag, expected):
        # with byte code writes off, a side without a cache compiles on every launch
        if flag is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
        (tmp_path / "b" / "src" / "fracrte" / "__pycache__").mkdir(parents=True)
        host = self._main(tmp_path)["host"]
        assert host["dont_write_bytecode"] is expected
        assert host["bytecode_cache"] == {"parent": False, "change": True}

    def test_host_records_the_src_line_count(self, tmp_path):
        # physical lines of src/**/*.py: a last line without a newline counts,
        # byte code and other files do not
        _checkout(tmp_path / "a", {"src/pkg/a.py": "x = 1\ny = 2\n\n",
                                   "src/pkg/__pycache__/a.cpython-311.pyc": "1\n2\n",
                                   "src/pkg/notes.txt": "1\n2\n"})
        _checkout(tmp_path / "b", {"src/pkg/a.py": "x = 1\nw = 0\n",
                                   "src/pkg/sub/b.py": "y = 2\nz", "src/top.py": ""})
        assert self._main(tmp_path)["host"]["src_lines"] == {"parent": 3, "change": 4}
        assert bench_pairs.src_lines(str(tmp_path / "missing")) == 0

    def test_refuses_a_malformed_claim(self, tmp_path):
        with pytest.raises(SystemExit):
            self._main(tmp_path, "--claim", "ctrw")
