"""The shell examples in README's "Command line" section, run through the
CLI entry point.  Each shown output line must appear in order; a line that
reads "..." stands for any number of skipped lines.  The golden-corpus size
README states is the number of invocations tests/cli_golden.json pins."""

import json
import re
import shlex
from pathlib import Path

import pytest

from punctual.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def _examples():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ punctual "):
            examples.append((line[2:], []))
        elif line.strip() and examples:
            examples[-1][1].append(line)
    return examples


def _pattern(shown):
    """A regex for the whole stdout: shown lines in order, "..." skips."""
    return "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n"
                   for line in shown)


EXAMPLES = _examples()


def test_readme_has_the_six_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[cmd.split()[1] for cmd, _ in EXAMPLES])
def test_readme_example(command, shown, capsys):
    status = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert status == 0
    assert re.fullmatch(_pattern(shown), out), out


def test_readme_states_the_golden_corpus_size():
    stated = re.findall(r"(\d+) CLI\s+invocations", README.read_text())
    assert stated == [str(len(json.loads(GOLDEN.read_text())))]
