"""Source hygiene: plain ASCII modules and exports that resolve."""

import importlib
import importlib.util
from pathlib import Path

import xibergman

PACKAGE_DIR = Path(xibergman.__file__).parent
BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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


def test_bench_lookup_points_resolve():
    # bench/spans.py wraps each name where its callers look it up and skips
    # a missing one silently, so a dropped name would lose its metrics
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
