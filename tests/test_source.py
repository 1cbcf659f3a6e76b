"""Source hygiene: plain ASCII modules, used imports, no environment reads
and exports that resolve."""

import ast
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


def _unused_imports(path: Path) -> list[str]:
    """Imported names a module never reads, exports or keeps with ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            # quoted annotations name their types inside a string
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_imports_are_used():
    unused = [item for path in sorted(PACKAGE_DIR.glob("*.py")) for item in _unused_imports(path)]
    assert not unused, unused


def test_modules_read_no_environment():
    # every input is a flag, a config key or an argument, so runs repeat
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and node.attr in ("environ", "getenv")):
                offenders.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [f"{path.name}:{node.lineno} from os import {alias.name}"
                              for alias in node.names if alias.name in ("environ", "getenv")]
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
