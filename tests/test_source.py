"""Source hygiene: plain ASCII modules, used imports, no environment reads,
exports that resolve and a lean CLI import."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import xibergman

PACKAGE_DIR = Path(xibergman.__file__).parent
REPO = Path(__file__).resolve().parents[1]
BENCH_SPANS = REPO / "bench" / "spans.py"


def test_modules_are_ascii():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        try:
            path.read_bytes().decode("ascii")
        except UnicodeDecodeError as exc:
            offenders.append(f"{path.name}: byte {exc.start}")
    assert not offenders, offenders


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _unused_imports(path: Path) -> tuple[list[str], dict[str, int]]:
    """Imported names a module never reads or exports, and the names it keeps
    with ``# noqa: F401`` on their own line, with their line numbers."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, kept = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if "# noqa: F401" in lines[alias.lineno - 1]:
                kept[name] = alias.lineno
            else:
                imported[name] = alias.lineno
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
    unused = [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    return unused, kept


def test_imports_are_used():
    # a name kept with "# noqa: F401" must be a lookup point bench/spans.py
    # wraps, so the re-export goes when the span that needed it does
    targets = {(module, attr) for module, attr, _ in _bench_spans().TARGETS}
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        names, kept = _unused_imports(path)
        unused += names
        unused += [f"{path.name}:{line} {name} is no bench lookup point"
                   for name, line in kept.items()
                   if (f"xibergman.{path.stem}", name) not in targets]
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


def test_exports_have_callers():
    # a public name that only its own test reaches is dead surface: the
    # package, the README or the bench has to use it
    used = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    text = "\n".join(path.read_text() for path in
                     [REPO / "README.md", *sorted((REPO / "bench").glob("*.py"))])
    unreached = [name for name in xibergman.__all__
                 if name != "__version__" and name not in used
                 and not re.search(rf"\b{name}\b", text)]
    assert not unreached, unreached


def test_bench_lookup_points_resolve():
    # bench/spans.py wraps each name where its callers look it up and skips
    # a missing one silently, so a dropped name would lose its metrics
    missing = []
    for module_name, attr, _ in _bench_spans().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_modules_never_import_scipy():
    # the package runs on numpy alone: no import of scipy at any depth,
    # inside functions included
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name == "scipy" or name.startswith("scipy.")]
    assert not offenders, offenders


def test_cli_runs_solves_without_scipy():
    # the import, a compute on the disk, the bidisc and ball:2, a Moebius
    # sweep, and the infimum route on the disk run on numpy alone, so none
    # of them pays for importing scipy
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    script = textwrap.dedent("""
        import contextlib, io, sys
        import xibergman.cli as cli

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        print(loaded())
        runs = [["compute", "--domain", "disk", "--xi", "1: 1", "--p", "1.5", "--z", "0.3j"],
                ["compute", "--domain", "bidisc", "--xi", "0,0: 1", "--p", "1.5", "--z", "0.3,0.2j"],
                ["compute", "--domain", "ball:2", "--xi", "1,0: 1", "--p", "1.5", "--z", "0.2,-0.1j"],
                ["sweep", "--domain", "disk", "--xi", "0: 1", "--p", "0.8",
                 "--pole", "0.5", "--a-grid=-1:0:3"]]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            print(code, loaded())

        from xibergman import Domain, HomogeneousPolynomial, PolySpace, higher_kernel_via_inf
        space = PolySpace.build(Domain.disk(), degree=8)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        for p in (1.5, 2.0):
            print(higher_kernel_via_inf(space, H, 0.3 + 0.2j, p).flags, loaded())
        """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split("\n")[:7] == ["[]", "0 []", "0 []", "0 []", "2 []", "() []",
                                          "() []"], out.stdout
