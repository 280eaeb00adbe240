"""The README's CLI lines and library example run as written."""

import json
import re
import shlex
import subprocess
from pathlib import Path

from test_cli import AFFSAT, SRC_ENV

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_cli_examples_run():
    lines = [line for line in _block("## CLI", "sh").splitlines() if line.startswith("affsat ")]
    assert len(lines) == 9
    for line in lines:
        command, _, comment = line.partition("#")
        command = command.split("|")[0].replace("[--include-empty]", "--include-empty")
        proc = subprocess.run([*AFFSAT, *shlex.split(command)[1:]], capture_output=True,
                              text=True, env=SRC_ENV, timeout=60)
        assert proc.returncode == 0, (line, proc.stderr)
        stated = re.search(r'\{"multiplicity":\d+\}', comment)
        if stated:
            assert json.loads(proc.stdout) == json.loads(stated.group()), line


def test_library_example_runs(capsys):
    exec(_block("## Library example", "python"), {})
    assert re.fullmatch(r"\d+ [0-9a-f]{12}\n", capsys.readouterr().out)
