"""The README's library example runs as written, from the repo root, so it
cannot drift from the package's exports."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert "rho_x_m" in capsys.readouterr().out
