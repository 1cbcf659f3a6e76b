"""Diagonal, off-diagonal, and solver-path kernel behavior."""

import math

import numpy as np
import pytest

from xibergman import (
    Domain,
    Functional,
    KernelEvaluation,
    LpOptions,
    MultiIndex,
    PolyCoeffs,
    PolySpace,
    ZeroPairingError,
    bounds_check,
    diagonal,
    evaluate_batch,
    extremal_pairing,
    h_quantity,
    kernel2_diagonal,
    kernelp_diagonal,
    off_diagonal,
    reproducing_residual,
    solve_affine_lp,
)


@pytest.fixture(scope="module")
def disk16():
    return PolySpace.build(Domain.disk(), degree=16)


def closed_form_origin(p, k):
    # monomial extremality on the unit disk
    return (p * k + 2) / (2 * math.pi)


class TestClosedForms:
    @pytest.mark.parametrize("p,k", [(1.0, 0), (1.5, 1), (3.0, 2), (2.0, 1)])
    def test_origin_family(self, disk16, p, k):
        ev = diagonal(disk16, Functional.delta((k,)), 0j, p)
        rel = 1e-9 if p == 2 else 1e-8
        assert ev.K == pytest.approx(closed_form_origin(p, k), rel=rel)
        assert not ev.flags

    def test_exact_and_iterated_routes_agree(self, disk16):
        xi = Functional.from_string("0: 1; 1: 0.5; 2: -0.25j")
        z = 0.3 - 0.2j
        exact = kernel2_diagonal(disk16, xi, z)
        iterated = kernelp_diagonal(disk16, xi, z, 2.0)
        assert iterated.K == pytest.approx(exact.K, rel=1e-9)

    def test_scaled_functional_covariance(self, disk16):
        # K is |c|^p homogeneous in the functional scale
        xi = Functional.delta((1,))
        p = 1.5
        base = diagonal(disk16, xi, 0j, p).K
        scaled = diagonal(disk16, xi.scaled(2.0), 0j, p).K
        assert scaled == pytest.approx(2.0**p * base, rel=1e-9)


class TestMinimizer:
    def test_constraint_met(self, disk16):
        xi = Functional.from_string("0: 1; 2: 1")
        for p in (1.5, 2.0, 3.0):
            ev = diagonal(disk16, xi, 0.2 + 0.1j, p)
            assert ev.diagnostics["constraint_residual"] < 1e-9

    def test_tiny_extra_coefficient_is_harmless(self, disk16):
        # a nearly vanishing term must not destabilize the solve
        xi = Functional.delta((1,)).plus(Functional.delta((0,), coeff=1e-17))
        ev = diagonal(disk16, xi, 0j, 1.5)
        assert ev.K == pytest.approx(closed_form_origin(1.5, 1), rel=1e-6)
        assert not ev.flags

    def test_reproducing_property(self, disk16):
        rng = np.random.default_rng(11)
        xi = Functional.delta((0,))
        w = 0.3 + 0j
        for p in (1.5, 2.0, 3.0):
            ev = diagonal(disk16, xi, w, p)
            vec = rng.standard_normal(disk16.size) * 0.3
            f = disk16.element(vec + 0j)
            assert reproducing_residual(disk16, xi, w, p, f, ev) < 1e-6

    def test_extremal_pairing_orthogonality(self, disk16):
        # pairing must vanish against competitors annihilated at the pole
        xi = Functional.delta((0,))
        w = 0.25 + 0j
        for p in (1.5, 3.0):
            ev = diagonal(disk16, xi, w, p)
            g = PolyCoeffs.monomial(MultiIndex((1,)), w)  # (z - w), so g(w) = 0
            val = extremal_pairing(disk16, g, ev)
            assert abs(val) < 1e-7

    def test_uniqueness_across_starts(self, disk16):
        xi = Functional.from_string("0: 1; 1: 1")
        z = 0.1 + 0.2j
        p = 1.5
        phi = disk16.shifted_node_matrix((z,))
        L = disk16.constraint_row(xi, (z,))
        rng = np.random.default_rng(3)
        sols = []
        for _ in range(3):
            null = np.eye(disk16.size) - np.outer(L.conj(), L) / np.vdot(L, L)
            start = L.conj() / np.vdot(L, L) + null @ (
                0.5 * (rng.standard_normal(disk16.size)
                       + 1j * rng.standard_normal(disk16.size)))
            sol = solve_affine_lp(phi, disk16.quadrature.weights,
                                  L[None, :], np.array([1.0 + 0j]), p,
                                  start=start)
            sols.append(sol.objective)
        assert max(sols) - min(sols) <= 1e-8 * max(sols)


class TestOffDiagonal:
    def test_point_functional_section(self, disk16):
        section = off_diagonal(disk16, Functional.delta((0,)), 0j, 2.0)
        pts = np.array([0.1 + 0j, 0.4 - 0.2j])
        vals = section.values.evaluate(pts)
        # K(., 0) is the constant 1/pi on the disk
        assert np.allclose(vals, 1 / math.pi, rtol=1e-10)

    def test_diagonal_consistency(self, disk16):
        w = 0.3 + 0.1j
        section = off_diagonal(disk16, Functional.delta((0,)), w, 2.0)
        at_pole = section.values.evaluate(np.array([w]))[0]
        assert at_pole.real == pytest.approx(section.base.K, rel=1e-10)
        assert abs(at_pole.imag) < 1e-10

    def test_requires_p_at_least_one(self, disk16):
        with pytest.raises(ValueError):
            off_diagonal(disk16, Functional.delta((0,)), 0j, 0.5)


class TestHQuantity:
    def test_slack_positive_far_pair(self, disk16):
        xi = Functional.delta((0,))
        for p, regime in ((1.5, "midrange"), (3.0, "high")):
            q = h_quantity(disk16, xi, p, 0.3 + 0j, -0.2 + 0.1j)
            assert q.slack >= -1e-8
            assert q.regime == regime

    def test_p_at_most_one_rejected(self, disk16):
        with pytest.raises(ValueError):
            h_quantity(disk16, Functional.delta((0,)), 1.0, 0.1 + 0j, 0.2 + 0j)

    def test_coincident_pair_degenerates(self, disk16):
        q = h_quantity(disk16, Functional.delta((0,)), 3.0, 0.2 + 0j, 0.2 + 0j)
        assert q.h == pytest.approx(0.0, abs=1e-12)


class TestBounds:
    def test_disk_origin(self, disk16):
        res = bounds_check(disk16, Functional.delta((0,)), 2.0, 0j)
        assert res.lower <= res.kernel <= res.upper
        # volume lower bound is exactly 1/(4 pi) for the unit disk at 0
        assert res.lower == pytest.approx(1 / (4 * math.pi), rel=1e-12)

    def test_interior_point(self, disk16):
        res = bounds_check(disk16, Functional.delta((1,)), 1.5, 0.4 + 0j)
        assert res.lower <= res.kernel <= res.upper


class TestBatchAndFlags:
    def test_batch_matches_loop(self, disk16):
        xi = Functional.delta((0,))
        pts = [0j, 0.2 + 0j, 0.3 - 0.3j]
        batch = evaluate_batch(disk16, xi, pts, 1.5)
        single = [diagonal(disk16, xi, z, 1.5) for z in pts]
        for b, s in zip(batch, single):
            assert b.K == pytest.approx(s.K, rel=1e-12)

    def test_batch_threads_deterministic(self, disk16):
        xi = Functional.from_string("0: 1; 1: 1")
        pts = [0j, 0.1 + 0.1j, -0.2 + 0j, 0.25j]
        one = evaluate_batch(disk16, xi, pts, 1.5, threads=1)
        two = evaluate_batch(disk16, xi, pts, 1.5, threads=2)
        assert [e.K for e in one] == [e.K for e in two]

    def test_nonconvex_flagged(self, disk16):
        ev = diagonal(disk16, Functional.delta((0,)), 0j, 0.5)
        assert "nonconvex-best-found" in ev.flags

    def test_unsupported_order_raises(self, disk16):
        with pytest.raises(ZeroPairingError):
            diagonal(disk16, Functional.delta((17,)), 0j, 2.0)

    def test_zero_functional_rejected(self, disk16):
        with pytest.raises(ValueError):
            diagonal(disk16, Functional.zero_functional(1), 0j, 2.0)

    def test_outside_point_rejected(self, disk16):
        with pytest.raises(ValueError):
            diagonal(disk16, Functional.delta((0,)), 1.5 + 0j, 2.0)


class TestSolverContract:
    def test_p1_accepts_at_smoothing_scale(self):
        # interior zero of the minimizer: gradient decays slowly, the
        # smoothing-scale stop has to fire before the iteration cap
        space = PolySpace.build(Domain.disk(0.78), degree=16)
        ev = diagonal(space, Functional.delta((1,)), 0j, 1.0)
        assert not ev.flags
        assert ev.diagnostics["iterations"] < LpOptions().max_iter

    def test_monotone_in_domain(self):
        xi = Functional.delta((0,))
        prev = None
        for r in (0.6, 0.8, 1.0):
            space = PolySpace.build(Domain.disk(r), degree=12)
            K = diagonal(space, xi, 0j, 2.0).K
            assert K == pytest.approx(1 / (math.pi * r * r), rel=1e-10)
            if prev is not None:
                assert K < prev
            prev = K

    def test_line_search_stall_reports_accepted_steps(self):
        # an absurd damping overshoots at p > 2 and no halving recovers, so
        # the loop stops before its first accepted step
        space = PolySpace.build(Domain.disk(), degree=8, radial_order=12,
                                angular_order=24)
        ev = kernelp_diagonal(space, Functional.from_string("0: 1; 1: 0.5", 1),
                              0.3 + 0.1j, 3.0, LpOptions(damping=1e6))
        assert ev.diagnostics["iterations"] == 0
        assert ev.flags == ("line-search-stall",)
