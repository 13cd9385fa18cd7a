"""scripts/make_scenarios.py regenerates the shipped scenario files byte
for byte: the golden runs and the benchmark read those files."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_generator_reproduces_shipped_scenarios(tmp_path, monkeypatch):
    path = ROOT / "scripts" / "make_scenarios.py"
    spec = importlib.util.spec_from_file_location("make_scenarios", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    shipped = sorted((ROOT / "scenarios").glob("*.json"))
    assert [p.name for p in sorted(tmp_path.iterdir())] == [p.name for p in shipped]
    for path in shipped:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
