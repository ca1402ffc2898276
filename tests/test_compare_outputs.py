"""The output comparison of tools/compare_outputs.py on temporary CSV directories."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

HEADER = "x,U,method,alpha,t,N,mode\n"


def _csv(rows):
    return HEADER + "".join(f"{x},{u},exact,0.75,0.05,15,exact\n" for x, u in rows)


def _dir(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return str(root)


ROWS = [(-1, 0.25), (0, 2.0), (1, 0.25)]


def test_identical_files(tmp_path):
    files = {"a.csv": _csv(ROWS), "b.csv": _csv(ROWS[:2])}
    a = _dir(tmp_path / "a", files)
    b = _dir(tmp_path / "b", {**files, "notes.txt": "not an output"})
    assert compare_outputs.compare_dirs(a, b) == "identical"


def test_largest_move_as_share_of_max_u(tmp_path):
    a = _dir(tmp_path / "a", {"a.csv": _csv(ROWS), "b.csv": _csv(ROWS)})
    b = _dir(tmp_path / "b", {"a.csv": _csv([(-1, 0.25), (0, 2.0), (1, 0.5)]),
                              "b.csv": _csv([(-1, 0.5), (0, 2.0), (1, 1.25)])})
    assert compare_outputs.compare_dirs(a, b) == "largest move 0.5 of max|U| (b.csv, x=1)"


def test_move_off_origin_follows_a_move_at_origin(tmp_path):
    # the largest move sits at x = 0, so the largest move at x != 0 follows,
    # here in the other file
    a = _dir(tmp_path / "a", {"a.csv": _csv(ROWS), "b.csv": _csv(ROWS)})
    b = _dir(tmp_path / "b", {"a.csv": _csv([(-1, 0.25), (0, 1.0), (1, 0.25)]),
                              "b.csv": _csv([(-1, 0.375), (0, 2.0), (1, 0.25)])})
    assert compare_outputs.compare_dirs(a, b) == (
        "largest move 0.5 of max|U| (a.csv, x=0); off x = 0 0.062 (b.csv, x=-1)")


def test_missing_file(tmp_path):
    a = _dir(tmp_path / "a", {"a.csv": _csv(ROWS), "b.csv": _csv(ROWS)})
    b = _dir(tmp_path / "b", {"a.csv": _csv(ROWS)})
    assert compare_outputs.compare_dirs(a, b) == "different files: b.csv"


def test_other_columns_differ(tmp_path):
    a = _dir(tmp_path / "a", {"a.csv": _csv(ROWS)})
    b = _dir(tmp_path / "b", {"a.csv": _csv([(-1, 0.25), (0.5, 2.0), (1, 0.25)])})
    assert compare_outputs.compare_dirs(a, b) == "a.csv: columns other than U differ"


def test_tolerance_bounds_the_exit_status(tmp_path, monkeypatch):
    # each run writes the fixture directory of its checkout; a move of
    # 0.125 of max|U| passes a bound of 0.125 and fails 0.1 and the default
    outputs = {"parent": {"a.csv": _csv(ROWS)},
               "change": {"a.csv": _csv([(-1, 0.25), (0, 2.0), (1, 0.5)])},
               "columns": {"a.csv": _csv([(-1, 0.25), (0.5, 2.0), (1, 0.25)])}}

    def fake_run(checkout, argv, out_dir, one_cpu):
        _dir(Path(out_dir), outputs[Path(checkout).name])
        return 0, ""

    monkeypatch.setattr(compare_outputs, "run_cli", fake_run)
    base = ["--workload", "ctrw", "--seeds", "1"]
    pair = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert compare_outputs.main(pair + base + ["--tolerance", "0.125"]) == 0
    assert compare_outputs.main(pair + base + ["--tolerance", "0.1"]) == 1
    assert compare_outputs.main(pair + base) == 1
    same = [str(tmp_path / "parent"), str(tmp_path / "parent")]
    assert compare_outputs.main(same + base) == 0
    other = [str(tmp_path / "parent"), str(tmp_path / "columns")]
    assert compare_outputs.main(other + base + ["--tolerance", "1.0"]) == 1
