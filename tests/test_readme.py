"""The README's library example and CLI block run as written."""

import re
import shlex
from pathlib import Path

from groupcompress.cli import _FLAGS, main
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


def test_cli_block_runs(tmp_path, monkeypatch):
    """Each ``groupcompress`` command of the CLI block, continuation lines
    joined, exits 0 when the block is run in order in an empty directory."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("groupcompress ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)


def test_flag_table_matches_the_cli():
    """The CLI section's flag table has one row per flag of ``cli._FLAGS``,
    with the same subcommands."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `-")]
    in_readme = {cells[0].strip(" `").split()[0]: cells[1].strip().split(", ") for cells in rows}
    assert len(in_readme) == len(rows)
    assert in_readme == {flag: list(commands) for flag, commands, *_ in _FLAGS}
