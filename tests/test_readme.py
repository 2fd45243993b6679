"""The README's code, commands and CSV header against the package."""

import re
import shlex
from pathlib import Path

from secrecy_outage.cli import build_parser
from secrecy_outage.sweep import CSV_HEADER

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, language: str) -> str:
    """The first fenced ``language`` block after the ``## section`` heading."""
    start = README.index(f"\n## {section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start)
    return match.group(1)


def test_library_example_runs_as_written(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 5 and all(0.0 <= float(x) <= 1.0 for x in printed)


def test_every_cli_line_parses():
    text = _block("CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines() if line.startswith("sop ")]
    assert len(commands) >= 6
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(command[1:])
        assert args.command == command[1]


def test_csv_header_is_the_contract():
    (quoted,) = re.findall(r"Sweep CSV contract: header\s+`([^`]+)`", README)
    assert tuple(quoted.split(",")) == CSV_HEADER
