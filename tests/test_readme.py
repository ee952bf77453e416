"""The README's command-line example runs as written."""

import re
import shlex
from pathlib import Path

from plasmeq.cli import main

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list[list[str]]:
    """The ``plasmeq`` lines of the first ``sh`` block under "## Command
    line", with backslash continuations joined, as argument lists."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("plasmeq ")]


def test_readme_command_block_runs(tmp_path, monkeypatch):
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 9
    for argv in commands:
        # the bogus generators are the negative control, rejected with exit 3
        expected = 3 if argv[-1].endswith("mhd_bogus.gen") else 0
        assert main(argv) == expected, argv
