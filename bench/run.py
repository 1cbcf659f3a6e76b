"""Outside-in benchmark of xibergman: three workloads, every op checked.

    python3 bench/run.py --workload {product-solve,moebius-sweep,higher-inf,all}
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  This runner stays single-threaded and never
imports the package: it starts a fresh worker process (worker.py) per sample
and aggregates what the workers print.

--trace 0: five fresh processes measure set-up; the last of them then runs
op-list passes while another pass is expected to finish within --seconds
(always at least one) and reports the end-to-end metrics (medians over
passes).  Timings are scaled to a reference core speed (see SpeedProbe in
worker.py); the provenance line keeps the unscaled medians.  --trace 1: one
untraced and one traced worker each run one pass on the same inputs; the
traced one reports per-layer metrics and the ratio of the two gives the
tracing overhead.

Each workload ends its output with one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
metrics with units, any failed ops, and the provenance.  ``all`` runs the
three workloads in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from oracles import margin_digits

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")

WORKLOAD_NAMES = ("product-solve", "moebius-sweep", "higher-inf")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s

# Pin every BLAS/OpenMP pool to one thread: the package runs single-threaded
# by default, and on a small shared machine a second BLAS thread competes
# with the neighbours and makes timings depend on their load.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "XIBERGMAN_THREADS": "1"}

E2E_UNITS = {"wall_s": "s", "wall_p2_s": "s", "wall_pgen_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "margin_digits": "digits"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("trace.overhead", "higher.unconverged_err_max"):
        return "ratio"
    return "count"


def spawn(args, extra: list[str], workdir: str, deadline: float, trace: int = 0) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONHASHSEED", None)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(trace), "--workdir", workdir]
    cmd += ["--smoke"] if args.smoke else []
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + extra + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "xibergman")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def summarize_ops(records: list[dict]) -> tuple[int, list[dict], float | None]:
    failed = [r for r in records if r["problem"] is not None]
    margins = [margin_digits(r["err"], r["tol"]) for r in records
               if r["err"] is not None and r["tol"] is not None and not r["unconverged"]]
    return len(records), failed, (min(margins) if margins else None)


def end_to_end(args, workdir: str, deadline: float
               ) -> tuple[dict, list[dict], list[dict], dict]:
    samples = args.setup_samples
    workers = [spawn(args, ["--setup-only"], workdir, deadline)
               for _ in range(samples - 1)]
    extra = ["--passes", "1"] if args.smoke else []
    main_run = spawn(args, extra, workdir, deadline)
    workers.append(main_run)
    passes = main_run["passes"]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "wall_p2_s": statistics.median(p["wall_p2_s"] for p in passes),
        "wall_pgen_s": statistics.median(p["wall_pgen_s"] for p in passes),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": main_run["peak_rss_mb"],
    }
    unscaled = {name: statistics.median(p["raw"][name] for p in passes)
                for name in ("wall_s", "wall_p2_s", "wall_pgen_s")}
    unscaled["setup_s"] = statistics.median(w["raw_setup_s"] for w in workers)
    return metrics, workers, main_run["ops"], unscaled


def traced(args, workdir: str, deadline: float
           ) -> tuple[dict, list[dict], list[dict], None]:
    plain = spawn(args, ["--passes", "1"], workdir, deadline)
    with_spans = spawn(args, ["--passes", "1"], workdir, deadline, trace=1)
    metrics = dict(with_spans["layers"])
    metrics["cli.import_s"] = with_spans["import_s"]
    metrics["trace.overhead"] = (with_spans["passes"][0]["wall_s"]
                                 / plain["passes"][0]["wall_s"] - 1)
    for name in with_spans["missing"]:
        print(f"note: {name} not found; its span metrics are left out", file=sys.stderr)
    return metrics, [plain, with_spans], plain["ops"] + with_spans["ops"], None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op, one pass, one set-up sample (for tests)")
    args = parser.parse_args(argv)
    args.setup_samples = 1 if args.smoke else SETUP_SAMPLES

    if not os.path.isfile(os.path.join(SRC, "xibergman", "cli.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for args.workload in names:
        status = max(status, run_workload(args))
    return status


def run_workload(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
            measure = traced if args.trace else end_to_end
            metrics, workers, records, unscaled = measure(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, margin = summarize_ops(records)
    if not args.trace:
        # no op produced a value only when all of them failed, so the run
        # is already marked incorrect
        metrics["margin_digits"] = margin if margin is not None else 0.0
    pids = [w["pid"] for w in workers]
    fresh = (all(w["fresh"] for w in workers) and len(set(pids)) == len(pids)
             and os.getpid() not in pids)
    units = E2E_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:36s} {value:14.6g} {units[name]}")
    print(f"{args.workload:14s} {'failed_frac':36s} {len(failed) / attempted:14.6g} ratio")
    for r in failed:
        print(f"FAILED {r['op']}: {r['problem']}")
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "machine": workers[-1]["machine"], "thread_env": THREAD_ENV,
        "fresh_processes": fresh, "worker_pids": pids,
        "passes": len(workers[-1]["passes"]), "min_margin_digits": margin,
        "unscaled_s": unscaled,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": not failed and fresh,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
