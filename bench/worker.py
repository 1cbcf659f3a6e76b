"""One benchmark process: import the package, set up, run op-list passes.

Started fresh by run.py for every sample, so interpreter start-up and the
package import are paid again each time.  Prints one JSON object as its last
line of standard output.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
        --spawned-at T --workdir DIR [--passes K] [--smoke] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn;
the clock is system-wide, so set-up time includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

FRESH = "xibergman" not in sys.modules


def _blas_info() -> dict:
    """BLAS/LAPACK library numpy was built against and its live thread count."""
    import ctypes

    import numpy

    info: dict = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    func = getattr(lib, symbol)
                    func.restype = ctypes.c_int
                    threads = int(func())
                    break
    except OSError:
        pass
    info["blas_threads"] = threads
    return info


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    info.update(_blas_info())
    return info


# An op faster than MIN_OP_S is timed again, up to MAX_REPS times in all,
# each time at new seeded points, and its time is the median.  Short ops
# otherwise sample the machine's load at a single moment.
MIN_OP_S = 1.0
MAX_REPS = 5

# The cores of a small shared VM change speed by up to 1.5x within seconds
# as the host's other tenants come and go: a fixed job took 0.34 s to 0.60 s
# within one minute, with no CPU time stolen.  Over ten seeds the measured
# wall_s of higher-inf spread by 0.20 of its median and wall_p2_s of
# product-solve by 0.21, against a bound of 0.25.  Every timing is therefore
# scaled to a reference speed, measured by SpeedProbe next to it; the
# measured seconds are reported beside the scaled ones.  The reference is
# the probe's median time on a 2-vCPU VM (Python 3.11, numpy 2.4 with
# OpenBLAS 0.3.31 on one thread), so scaled and raw seconds are close there.
PROBE_REF_S = 0.020


class SpeedProbe:
    """A fixed job that uses no package code, timed to gauge the core's speed.

    It mixes the two kinds of work the workloads do: a complex Gram product
    in BLAS, as in the node-matrix solves, and an interpreted loop, as in the
    per-call Python overhead.  Both slow down together under the host's
    contention (their block times correlate at 0.94 or more).  A change to
    the package moves the op times and never the probe.
    """

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(0)
        self._matrix = rng.standard_normal((4096, 25)) + 1j * rng.standard_normal((4096, 25))
        self.seconds()  # warm BLAS and the caches before the first reading

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(8):
            self._matrix.conj().T @ self._matrix
        total = 0
        for i in range(120_000):
            total += i * i
        return time.perf_counter() - start

    def scale(self) -> float:
        """Reference time over the median of five readings."""
        return PROBE_REF_S / statistics.median(self.seconds() for _ in range(5))


def run_op(op) -> dict:
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return {"op": op.name, "p": op.p, "seconds": seconds, "err": None,
                "tol": None, "problem": f"raised {type(exc).__name__}: {exc}",
                "unconverged": False}
    seconds = time.perf_counter() - start
    verdict = op.check(result)
    return {"op": op.name, "p": op.p, "seconds": seconds, "err": verdict.err,
            "tol": verdict.tol, "problem": verdict.problem,
            "unconverged": verdict.unconverged}


def run_pass(make_ops, probe: SpeedProbe,
             max_reps: int = MAX_REPS) -> tuple[dict, list[dict]]:
    """One pass of the op list; ``make_ops(rep)`` builds the list for repeat rep.

    The probe is read between consecutive timings, and each op's time is
    scaled by the mean of the readings on its two sides, so the scaling
    follows swings from op to op, which one reading per pass would miss.
    Returns the scaled wall metrics and, under ``raw``, the measured ones.
    """
    lists = [make_ops(0)]
    records = []
    walls = {"scaled_s": [0.0, 0.0], "seconds": [0.0, 0.0]}  # [p = 2, p != 2]
    before = probe.seconds()

    def timed(op):
        nonlocal before
        record = run_op(op)
        after = probe.seconds()
        record["scaled_s"] = record["seconds"] * 2 * PROBE_REF_S / (before + after)
        before = after
        records.append(record)
        return record

    for j, op in enumerate(lists[0]):
        group = [timed(op)]
        reps = min(max_reps, max(1, math.ceil(MIN_OP_S / max(group[0]["seconds"], 1e-6))))
        for rep in range(1, reps):
            if rep == len(lists):
                lists.append(make_ops(rep))
            group.append(timed(lists[rep][j]))
        for key, sums in walls.items():
            sums[op.p != 2] += statistics.median(r[key] for r in group)

    def metrics(p2, pgen):
        return {"wall_s": p2 + pgen, "wall_p2_s": p2, "wall_pgen_s": pgen}

    return dict(metrics(*walls["scaled_s"]), raw=metrics(*walls["seconds"])), records


# each counter is recorded by the wrapper of this span, and is left out with it
COUNTER_SPANS = {
    "domains.nodes": "build_quadrature",
    "pspace.node_matrix_mb": "PolySpace.build",
    "lpsolve.iterations": "solve_affine_lp",
    "higher.inner_calls": "higher_kernel_via_inf",
    "higher.outer_nonconverged": "higher_kernel_via_inf",
    "green.rows": "sweep",
}


def layer_metrics(tracer, records: list[dict]) -> dict:
    out = {}
    times = tracer.self_times()
    for name, (calls, self_s) in times.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    counts = tracer.counts
    for key, span in COUNTER_SPANS.items():
        if span in times:
            out[key] = counts.get(key, 0.0)
    if "solve_affine_lp" in times:
        iters = counts.get("lpsolve.iterations", 0.0)
        out["lpsolve.s_per_iteration"] = times["solve_affine_lp"][1] / iters if iters else 0.0
    if "higher_kernel_via_inf" in times:
        starts = counts.get("higher.starts", 0.0)
        out["higher.inner_calls_per_start"] = (
            counts.get("higher.inner_calls", 0.0) / starts if starts else 0.0)
        out["higher.unconverged_err_max"] = max(
            (r["err"] for r in records if r["unconverged"]), default=0.0)
    if "sweep" in times:
        rows = counts.get("green.rows", 0.0)
        out["green.s_per_row"] = tracer.span_seconds("sweep") / rows if rows else 0.0
    out["trace.unspanned_s"] = sum(r["seconds"] for r in records) - tracer.root_seconds()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--passes", type=int, default=None,
                        help="exactly this many passes, each op timed once, so "
                             "span counts repeat exactly (default: as many passes "
                             "as fit in --seconds, short ops repeated)")
    parser.add_argument("--smoke", action="store_true",
                        help="only the first op of each pass")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    import xibergman.cli  # noqa: F401  (the import is what is timed)
    import_s = time.monotonic() - t0

    from workloads import WORKLOADS, Context
    workload = WORKLOADS[args.workload]
    ctx = Context(args.workdir)
    workload.setup(ctx)
    raw_setup_s = time.monotonic() - args.spawned_at
    probe = SpeedProbe()

    out = {"pid": os.getpid(), "fresh": FRESH, "setup_s": raw_setup_s * probe.scale(),
           "raw_setup_s": raw_setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    passes, records, durations = [], [], []
    started = time.monotonic()
    while True:
        def make_ops(rep, index=len(passes)):
            rng = random.Random(f"{args.workload}/{args.seed}/{index}/{rep}")
            ops = workload.ops(ctx, rng)
            return ops[:1] if args.smoke else ops

        t_pass = time.monotonic()
        walls, recs = run_pass(make_ops, probe, 1 if args.passes else MAX_REPS)
        durations.append(time.monotonic() - t_pass)
        passes.append(walls)
        records.extend(recs)
        if args.passes is not None:
            if len(passes) >= args.passes:
                break
        elif (time.monotonic() - started + statistics.median(durations)
              > args.seconds):
            break

    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, records)
        out["missing"] = tracer.missing
    out.update(
        passes=passes,
        ops=records,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        machine=machine_info(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
