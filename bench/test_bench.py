"""Tests of the benchmark itself: oracles, failure accounting, smoke runs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _close(a, b, tol=1e-14):
    return abs(a - b) <= tol * abs(b)


# -- oracles at known points ---------------------------------------------


def test_disk_origin_is_one_over_pi():
    # the sublevel disk of the pole 0 at height 0 is the unit disk itself
    assert _close(oracles.moebius_delta0(0j, 0.0), 1 / math.pi)
    assert _close(oracles.higher_disk(0, 1.5, 0j), 1 / math.pi)


@pytest.mark.parametrize("k,p", [(1, 2.0), (1, 1.5), (2, 2.0), (2, 1.5)])
def test_higher_origin(k, p):
    expected = math.factorial(k) ** p * (p * k + 2) / (2 * math.pi)
    assert _close(oracles.higher_disk(k, p, 0j), expected)


@pytest.mark.parametrize("p", [2.0, 1.5, 1.0])
def test_ball_origin_is_two_over_pi_squared(p):
    assert _close(oracles.delta0_ball((0j, 0j)), 2 / math.pi ** 2)
    assert _close(oracles.delta_alpha_at_origin("ball", (0, 0), p), 2 / math.pi ** 2)


def test_monomial_integrals():
    assert _close(oracles.ball_monomial_integral((1, 0), 2.0), math.pi ** 2 / 6)
    assert _close(oracles.polydisc_monomial_integral((1, 0), 2.0), math.pi ** 2 / 2)
    # n = 1 ball and polydisc are the same disk
    assert _close(oracles.ball_monomial_integral((3,), 1.5),
                  oracles.polydisc_monomial_integral((3,), 1.5))


@pytest.mark.parametrize("shape", ["ball", "polydisc"])
def test_truncated_series_tends_to_closed_form(shape):
    z = (0.2 * cmath.exp(0.4j), 0.15 * cmath.exp(-2j))
    assert _close(oracles.delta0_truncated_p2(shape, z, 60), oracles.delta0(shape, z), 1e-12)
    assert oracles.delta0_truncated_p2(shape, z, 4) < oracles.delta0(shape, z)


def test_moebius_sublevel_is_the_pseudohyperbolic_disk():
    z0, a = 0.5 * cmath.exp(1j), -1.3
    c, r = oracles.moebius_sublevel(z0, a)
    for t in (0.0, 1.0, 2.5, 4.0):
        w = c + r * cmath.exp(1j * t)
        assert abs(abs(w - z0) / abs(1 - z0.conjugate() * w) - math.exp(a)) < 1e-12
    # pole 0: the disk of radius e^a, so the delta_1 value at p = 2 is 2 / (pi r^4)
    assert _close(oracles.moebius_delta1_p2(0j, a), 2 / (math.pi * math.exp(4 * a)))


# -- failure accounting -----------------------------------------------------


def test_corrupted_value_counts_as_failed():
    exact = oracles.delta0_ball((0.1j, 0.2 + 0j))
    assert workloads.judge_value(exact * (1 + 1e-12), exact, 2.0).problem is None
    assert workloads.judge_value(exact * (1 + 1e-6), exact, 2.0).problem is not None
    assert workloads.judge_value(exact * (1 + 1e-5), exact, 1.5).problem is None
    assert workloads.judge_value(exact * (1 + 1e-3), exact, 1.5).problem is not None
    assert workloads.judge_value(exact * (1 + 2e-3), exact, 1.0).problem is not None
    assert workloads.judge_value(float("nan"), exact, 1.0).problem is not None


def test_flags():
    assert workloads.judge_value(1.0, 1.0, 0.8, ["nonconvex-best-found"]).problem is None
    assert workloads.judge_value(1.0, 1.0, 1.5, ["nonconvex-best-found"]).problem is not None
    assert workloads.judge_value(1.0, 1.0, 0.8, ["non-convergence"]).problem is not None


class FixedProbe(worker.SpeedProbe):
    """A probe that reads a fixed time: the core runs at ``speed`` x reference."""

    def __init__(self, speed=1.0):
        self.speed = speed

    def seconds(self):
        return worker.PROBE_REF_S / self.speed


def test_timings_are_scaled_to_the_reference_speed():
    def sleep():
        time.sleep(0.05)
        return 1.0

    ops = [workloads.Op("slow core", 1.5, sleep, lambda k: workloads.judge_value(k, 1.0, 1.5))]
    walls, records = worker.run_pass(lambda rep: ops, FixedProbe(speed=0.5), max_reps=1)
    # a core at half speed takes twice as long, so the op counts half its time
    assert records[0]["scaled_s"] == pytest.approx(records[0]["seconds"] / 2)
    assert walls["raw"]["wall_s"] == records[0]["seconds"] >= 0.05
    assert walls["wall_s"] == pytest.approx(walls["raw"]["wall_s"] / 2)
    assert walls["wall_pgen_s"] == walls["wall_s"] and walls["wall_p2_s"] == 0
    # set-up is scaled the same way
    assert FixedProbe(speed=0.5).scale() == pytest.approx(0.5)


def test_budget_stop_is_held_to_the_contract():
    stop = ["outer-non-convergence"]
    expected = (workloads.EXPECTED_INF,)
    assert workloads.judge_value(1.0, 1.0, 1.5, stop).problem is not None
    assert workloads.judge_value(1 + 5e-5, 1.0, 1.5, stop, expected).problem is None
    assert workloads.judge_value(1 + 5e-4, 1.0, 1.5, stop, expected).problem is not None
    assert workloads.judge_value(1 - 5e-4, 1.0, 1.5, stop, expected).problem is not None
    assert workloads.judge_value(1 + 1e-11, 1.0, 2.0, stop, expected).problem is None
    assert workloads.judge_value(1 + 1e-8, 1.0, 2.0, stop, expected).problem is not None
    ops = [
        workloads.Op("stopped", 1.5, lambda: 1 + 3e-5,
                     lambda k: workloads.judge_value(k, 1.0, 1.5, stop, expected)),
        workloads.Op("converged", 1.5, lambda: 1 + 1e-8,
                     lambda k: workloads.judge_value(k, 1.0, 1.5)),
        workloads.Op("stopped at p = 2", 2.0, lambda: 1 + 1e-11,
                     lambda k: workloads.judge_value(k, 1.0, 2.0, stop, expected)),
    ]
    _, records = worker.run_pass(lambda rep: ops, FixedProbe(), max_reps=1)
    attempted, failed, margin = run.summarize_ops(records)
    assert (attempted, failed) == (3, [])
    # only the p != 2 budget stop is left out of margin_digits
    assert [r["unconverged"] for r in records] == [True, False, False]
    assert margin == pytest.approx(oracles.margin_digits(1e-11, 1e-9))


def _fake_compute_op(tmp_path, p, K, flags, z=(0j, 0j), degree=10):
    ctx = workloads.Context(str(tmp_path))
    op = workloads._compute_op(ctx, "ball:2", "ball", "0,0: 1", (0, 0), z, p)
    out = os.path.join(str(tmp_path), f"op{ctx._serial}.json")  # the op's --out file
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"degree": degree, "evaluation": {"K": K, "diagnostics": {"flags": flags}}}, fh)
    return op


def test_cli_exit_codes(tmp_path):
    exact = 2 / math.pi ** 2
    assert _fake_compute_op(tmp_path, 0.8, exact, ["nonconvex-best-found"]).check(2).problem is None
    assert _fake_compute_op(tmp_path, 2.0, exact, []).check(0).problem is None
    assert _fake_compute_op(tmp_path, 2.0, exact * 1.01, []).check(0).problem is not None
    assert _fake_compute_op(tmp_path, 2.0, exact, []).check(2).problem is not None
    assert _fake_compute_op(tmp_path, 2.0, exact, []).check(1).problem == "exit 1"


def test_p2_oracle_uses_the_reported_degree(tmp_path):
    z = (0.25 + 0j, 0.1j)
    K6 = oracles.delta0_truncated_p2("ball", z, 6)
    assert _fake_compute_op(tmp_path, 2.0, K6, [], z, degree=6).check(0).problem is None
    assert _fake_compute_op(tmp_path, 2.0, K6, [], z, degree=10).check(0).problem is not None


def test_raising_or_corrupted_op_is_counted():
    def boom():
        raise ValueError("boom")

    ops = [
        workloads.Op("good", 2.0, lambda: 1.0, lambda k: workloads.judge_value(k, 1.0, 2.0)),
        workloads.Op("corrupt", 2.0, lambda: 1.1, lambda k: workloads.judge_value(k, 1.0, 2.0)),
        workloads.Op("raises", 1.5, boom, lambda k: workloads.Verdict()),
    ]
    walls, records = worker.run_pass(lambda rep: ops, FixedProbe())
    attempted, failed, margin = run.summarize_ops(records)
    # each op is fast, so it is timed MAX_REPS times
    assert attempted == 3 * worker.MAX_REPS
    assert {r["op"] for r in failed} == {"corrupt", "raises"}
    assert len(failed) == 2 * worker.MAX_REPS
    # the corrupted value is off by 10%, 8 digits beyond the p = 2 tolerance
    assert margin == pytest.approx(-8.0)
    assert walls["wall_s"] == pytest.approx(walls["wall_p2_s"] + walls["wall_pgen_s"])
    assert walls["raw"]["wall_s"] == pytest.approx(
        walls["raw"]["wall_p2_s"] + walls["raw"]["wall_pgen_s"])


def test_missing_name_drops_its_metrics(monkeypatch):
    import spans
    import xibergman.cli
    monkeypatch.delattr(xibergman.cli, "sweep")
    tracer = spans.Tracer()
    tracer.install()
    try:
        layers = worker.layer_metrics(tracer, [])
    finally:
        tracer.uninstall()
    assert tracer.missing == ["xibergman.cli.sweep"]
    assert not {"sweep.calls", "green.rows", "green.s_per_row"} & set(layers)
    assert "solve_affine_lp.calls" in layers and "lpsolve.iterations" in layers


# -- smoke profile: one op per workload through run.py ----------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench("--workload", "higher-inf", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
