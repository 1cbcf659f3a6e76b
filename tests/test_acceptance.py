"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test drives the corresponding named check from the verification
battery (the same code path `xibergman verify` runs), so the CLI battery
and this gate can never drift apart.  The final test runs the battery
twice through the real command line and insists on byte-identical
machine output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xibergman
from xibergman import verify


@pytest.fixture(scope="module")
def ctx():
    # shared context so quadrature spaces are built once across the gate
    return verify.VerifyContext(seed=42)


def _passes(ctx, *names):
    results = [verify.run_check(name, ctx) for name in names]
    bad = [r for r in results if not r.passed]
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)
    return results


def test_disk_point_derivative_closed_forms(ctx):
    # (p*k + 2) / (2*pi) over p in {1, 1.5, 2, 3}, order k in {0, 1, 2};
    # 1e-9 at p = 2, 1e-4 otherwise, under 5s per case
    _passes(ctx, "kernels/disk-closed-family")


def test_closed_form_is_the_truncated_series_at_p2(ctx):
    # 20 random functional/point pairs on disk and bidisc: the p = 2 closed
    # form against the truncated Bergman series, split <= 1e-9
    _passes(ctx, "kernels/dual-route")


def test_bidisc_minimum_norm_factorizes(ctx):
    # product functionals at product points: m splits into disk factors
    _passes(ctx, "kernels/product-formula")


def test_higher_order_three_route_agreement(ctx):
    # direct vs infimum vs minimizing-functional routes, and at p = 2 the
    # dense normal equations too, H in {z, z^2}, z in {0, 0.3}; 1e-7 at
    # p = 2, 1e-4 at p = 1.5, under 2 minutes
    _passes(ctx, "higher/three-way")


def test_minimizers_reproduce_against_test_functions(ctx):
    # 30 random polynomials, p in {1.5, 2, 3}, disk and annulus;
    # pairing residual <= 1e-5, p = 2 orthogonality <= 1e-8
    _passes(ctx, "kernels/reproducing")


def test_conformal_sublevel_sweeps_monotone_and_log_convex(ctx):
    # pole 0.5 sweeps, 31 levels in [-3, 0]: monotone to 1e-8 slack,
    # log-convex to 1e-6, balanced scaled column constant to 1e-7
    results = _passes(ctx, "green/moebius-monotone", "green/balanced-constant")
    total = sum(r.seconds for r in results)
    assert total < 300, f"sweep battery took {total:.0f}s (limit 300s)"


def test_sublevel_limit_chain_brackets_kernel(ctx):
    # scaled sublevel kernels sandwich the shifted kernel and stabilize
    _passes(ctx, "green/limit-chain")


def test_pairing_inequalities_bounds_and_monotonicity(ctx):
    # two-point pairing quantity nonnegative over 25 random pairs,
    # kernel sandwiched by explicit bounds, larger domain never wins,
    # exhaustion closes the gap to 1% of the kernel
    _passes(ctx, "kernels/h-inequality", "kernels/bounds",
            "kernels/domain-monotonicity")


def test_log_kernel_beats_circle_means(ctx):
    # sub-mean-value check at 10 centers, p in {1.5, 2}, plus a strict
    # margin case away from the domain center
    _passes(ctx, "kernels/psh")


def test_boundary_blowup_rate(ctx):
    # log K against -log(1 - |z|) has slope >= p on the approach chain
    _passes(ctx, "kernels/boundary-blowup")


def test_full_battery_deterministic_through_cli(tmp_path):
    # two cold `verify --suite all` runs must agree byte for byte and
    # each finish inside the 10 minute budget
    # the child does not inherit pytest's import path
    env = dict(os.environ, PYTHONPATH=str(Path(xibergman.__file__).resolve().parents[1]))
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "xibergman.cli", "verify",
             "--suite", "all", "--seed", "42", "--out", str(out)],
            capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    first, second = (f.read_bytes() for f in outs)
    assert first == second
    report = json.loads(first)
    assert report["all_passed"] is True
    assert len(report["checks"]) == len(verify.check_names("all"))
