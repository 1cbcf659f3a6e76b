"""Source hygiene: every package module is plain ASCII."""

from pathlib import Path

import xibergman


def test_modules_are_ascii():
    offenders = []
    for path in sorted(Path(xibergman.__file__).parent.glob("*.py")):
        try:
            path.read_bytes().decode("ascii")
        except UnicodeDecodeError as exc:
            offenders.append(f"{path.name}: byte {exc.start}")
    assert not offenders, offenders
