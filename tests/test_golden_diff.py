import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_diff.py"


@pytest.fixture(scope="module")
def golden_diff():
    spec = importlib.util.spec_from_file_location("golden_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict[str, str | bytes]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    return root


BASE = {
    "run/fused.csv": "x_m,y_m,re,im\n0,20,1.23456789,1.5e-17\n0.1,20,0.5,-0.25\n",
    "run/metrics.json": '{"peak_val": [132.273537, 1.2e-17], "pslr_db": -13.25}\n',
    "run/fused.pgm": b"P5\n1 1\n255\n\x80",
}


def test_identical_trees_pass(golden_diff, tmp_path, capsys):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", BASE)
    assert golden_diff.main([str(a), str(b)]) == 0
    assert "identical: 3 of 3 files" in capsys.readouterr().out


def test_last_digit_and_numerical_zero_changes_pass(golden_diff, tmp_path, capsys):
    changed = dict(BASE)
    # the peak's last digit, and values that are zero at the column's scale
    changed["run/fused.csv"] = "x_m,y_m,re,im\n0,20,1.2345679,-3e-12\n0.1,20,0.5,-0.25\n"
    changed["run/metrics.json"] = '{"peak_val": [132.273537, 1.2e-10], "pslr_db": -13.25}\n'
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", changed)
    assert golden_diff.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "run/fused.csv: 1 of 3 lines changed, largest change 1 unit(s)" in out
    assert "run/metrics.json: 1 of 3 numbers changed" in out


@pytest.mark.parametrize(
    "rel, content",
    [
        ("run/fused.csv", "x_m,y_m,re,im\n0,20,1.23456787,1.5e-17\n0.1,20,0.5,-0.25\n"),
        ("run/metrics.json", '{"peak_val": [132.273537, 1.2e-17], "pslr_db": -13.26}\n'),
        ("run/fused.pgm", b"P5\n1 1\n255\n\x81"),
        ("run/fused.csv", "x_m,y_m,re,im\n0,20,1.23456789,1.5e-17\n"),
    ],
)
def test_larger_changes_fail(golden_diff, tmp_path, capsys, rel, content):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", {**BASE, rel: content})
    assert golden_diff.main([str(a), str(b)]) == 1
    capsys.readouterr()


def test_missing_file_fails(golden_diff, tmp_path, capsys):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", {k: v for k, v in BASE.items() if k != "run/fused.pgm"})
    assert golden_diff.main([str(a), str(b)]) == 1
    assert "only in" in capsys.readouterr().out


def test_differing_keys_are_named(golden_diff, tmp_path, capsys):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", {**BASE, "run/metrics.json": '{"error": "unresolved"}\n'})
    assert golden_diff.main([str(a), str(b)]) == 1
    assert (
        "run/metrics.json: differs beyond its numbers "
        "($: keys differ (only in A: peak_val, pslr_db; only in B: error))"
    ) in capsys.readouterr().out
