"""README's command-line block runs as written, so the docs name no command,
option or file that the program no longer has."""

import shlex
from pathlib import Path

from thermoneuron.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_block():
    """The `sh` block under "## Command line": one line per command, with
    backslash continuations joined and comments and blank lines dropped."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in command_block():
        argv = shlex.split(line)
        if argv[0] == "printf":
            # printf 'TABLE' > FILE, the only shell step in the block.
            assert argv[2:3] == [">"] and len(argv) == 4, line
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "thermoneuron", line
        assert main(argv[1:]) == 0, f"{line}\n{capsys.readouterr().err}"
        ran += 1
    assert ran
