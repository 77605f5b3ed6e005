"""The README's library example runs as written."""

import re
from pathlib import Path

from groupcompress.fixtures import build_toy_three
from groupcompress.modelio import save_model

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    save_model(build_toy_three(seed=0), tmp_path / "fixtures" / "toy3.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    ratio = float(capsys.readouterr().out)
    assert 0.0 < ratio < 1.0
