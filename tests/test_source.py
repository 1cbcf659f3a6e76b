"""Source hygiene: plain ASCII modules and exports that resolve."""

import importlib
from pathlib import Path

import xibergman

PACKAGE_DIR = Path(xibergman.__file__).parent


def test_modules_are_ascii():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        try:
            path.read_bytes().decode("ascii")
        except UnicodeDecodeError as exc:
            offenders.append(f"{path.name}: byte {exc.start}")
    assert not offenders, offenders


def test_exports_resolve():
    modules = [xibergman] + [
        importlib.import_module(f"xibergman.{path.stem}")
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem not in ("__init__", "__main__")]
    missing = [f"{mod.__name__}.{name}"
               for mod in modules for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, missing
