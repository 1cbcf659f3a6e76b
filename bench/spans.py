"""Span recorder that wraps the library's public names from outside.

A ``from .x import f`` copies ``f`` into the importing module, so a wrapper
must be installed on every module that looks the name up, not only on the
module that defines it.  ``TARGETS`` lists those lookup points.  A name that
no longer exists is skipped and reported in ``Tracer.missing``; its metrics
are then left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" attributes are patched on
# the class, which every caller shares
TARGETS = (
    ("xibergman.cli", "main", "cli.main"),
    ("xibergman.pspace", "build_quadrature", "build_quadrature"),
    ("xibergman.pspace", "PolySpace.build", "PolySpace.build"),
    ("xibergman.pspace", "PolySpace.shifted_node_matrix", "shifted_node_matrix"),
    ("xibergman.kernels", "orthonormal_basis", "orthonormal_basis"),
    ("xibergman.higher", "orthonormal_basis", "orthonormal_basis"),
    ("xibergman.kernels", "solve_affine_lp", "solve_affine_lp"),
    ("xibergman.higher", "solve_affine_lp", "solve_affine_lp"),
    ("xibergman.cli", "diagonal", "diagonal"),
    ("xibergman.green", "diagonal", "diagonal"),
    ("xibergman.higher", "diagonal", "diagonal"),
    ("xibergman.kernels", "diagonal", "diagonal"),
    ("xibergman.kernels", "kernel2_diagonal", "kernel2_diagonal"),
    ("xibergman.higher", "kernel2_diagonal", "kernel2_diagonal"),
    ("xibergman.kernels", "kernelp_diagonal", "kernelp_diagonal"),
    ("xibergman.higher", "higher_kernel_via_inf", "higher_kernel_via_inf"),
    ("xibergman.cli", "higher_kernel_direct", "higher_kernel_direct"),
    ("xibergman.green", "higher_kernel_direct", "higher_kernel_direct"),
    ("xibergman.higher", "higher_kernel_direct", "higher_kernel_direct"),
    ("xibergman.higher", "minimizing_xi_p2", "minimizing_xi_p2"),
    ("xibergman.cli", "sweep", "sweep"),
    ("xibergman.kernels", "functional_apply", "functional_apply"),
    ("xibergman.algebra", "taylor_shift", "taylor_shift"),
    ("xibergman.pspace", "taylor_shift", "taylor_shift"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _count_solve(tracer, sol):
    tracer.counts["lpsolve.iterations"] += sol.iterations


def _count_inf(tracer, res):
    tracer.counts["higher.inner_calls"] += res.inner_calls
    tracer.counts["higher.starts"] += len(res.starts)
    tracer.counts["higher.outer_nonconverged"] += "outer-non-convergence" in res.flags


def _count_quadrature(tracer, quad):
    tracer.peak("domains.nodes", quad.node_count)


def _count_space(tracer, space):
    # the dense node matrix is Q x N complex128
    tracer.peak("pspace.node_matrix_mb",
                space.quadrature.node_count * space.size * 16 / 1e6)


def _count_sweep(tracer, table):
    tracer.counts["green.rows"] += len(table.rows)


COUNTERS = {
    "solve_affine_lp": _count_solve,
    "higher_kernel_via_inf": _count_inf,
    "build_quadrature": _count_quadrature,
    "PolySpace.build": _count_space,
    "sweep": _count_sweep,
}


class Tracer:
    """In-memory spans (name, parent, start, end) plus boundary counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or None, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), float(value))

    def _wrap(self, func, name):
        count = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else None,
                               time.perf_counter(), None])
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = time.perf_counter()
            if count is not None:
                count(self, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._restore.append((owner, leaf, raw))
            setattr(owner, leaf, patched)
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, raw = self._restore.pop()
            setattr(owner, leaf, raw)

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent is None)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), self = span time minus child spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = {name: [0, 0.0] for name in SPAN_NAMES
                                if name in self.installed}
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (end - start) - inner
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def span_seconds(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)
