"""Every ``bachain`` line of README.md's ``sh`` blocks runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from bachain import cli

README = Path(__file__).resolve().parent.parent / "README.md"

#: The ``bachain`` lines of each ``sh`` block, keyed by the block's place
#: among the README's ``sh`` blocks; blocks without any are left out.
COMMANDS = {
    f"sh-block-{i}": lines
    for i, block in enumerate(re.findall(r"^```sh\n(.*?)^```$",
                                         README.read_text(), re.M | re.S))
    if (lines := [line for line in block.splitlines()
                  if line.startswith("bachain ")])
}


def test_readme_has_commands():
    assert len(COMMANDS) >= 3


@pytest.mark.parametrize("lines", COMMANDS.values(), ids=COMMANDS.keys())
def test_readme_commands_exit_0(lines, tmp_path, monkeypatch):
    # each block in a directory of its own, its lines in order, so a
    # line reads the files the lines before it wrote
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK, line
