"""The README's examples run as written and print what it says they print."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from xibergman.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_library_snippet(capsys):
    # the snippet says its printed K is 3.5 / (2 pi), delta_1 at the centre
    # of the unit disk at p = 1.5
    snippet = _blocks(README.split("## Library", 1)[1], "python")[0]
    exec(compile(snippet, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) == pytest.approx(3.5 / (2 * math.pi), rel=1e-8)


def test_first_compute_example(capsys):
    # the README's first `compute` command: delta_0 at the disk's centre, 1/pi
    line = next(line for block in _blocks(README, "sh") for line in block.splitlines()
                if line.startswith("xibergman compute"))
    assert main(shlex.split(line)[1:]) == 0
    K = json.loads(capsys.readouterr().out)["evaluation"]["K"]
    assert K == pytest.approx(1 / math.pi, rel=1e-9)
