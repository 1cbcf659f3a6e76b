"""Diagonal, off-diagonal, and solver-path kernel behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from xibergman import lpsolve
from xibergman import (
    Domain,
    Functional,
    KernelEvaluation,
    MultiIndex,
    PolyCoeffs,
    PolySpace,
    ZeroPairingError,
    ball_monomial_lp_integral,
    bounds_check,
    diagonal,
    enumerate_upto_degree,
    evaluate_batch,
    extremal_pairing,
    h_quantity,
    kernel2_diagonal,
    kernelp_diagonal,
    off_diagonal,
    orthonormal_basis,
    reproducing_residual,
    solve_affine_lp,
    sup_bound_constant,
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

    def test_basis_from_another_point_or_space_rejected(self, disk16):
        xi = Functional.delta((0,))
        ob = orthonormal_basis(disk16, 0j)
        assert kernel2_diagonal(disk16, xi, 0j, basis=ob).K == pytest.approx(
            1 / math.pi, rel=1e-12)
        with pytest.raises(ValueError):
            kernel2_diagonal(disk16, xi, 0.3 + 0j, basis=ob)
        other = PolySpace.build(Domain.disk(), degree=4, radial_order=8,
                                angular_order=16)
        with pytest.raises(ValueError):
            kernel2_diagonal(other, xi, 0j, basis=ob)

    def test_scaled_functional_covariance(self, disk16):
        # K is |c|^p homogeneous in the functional scale
        xi = Functional.delta((1,))
        p = 1.5
        base = diagonal(disk16, xi, 0j, p).K
        scaled = diagonal(disk16, xi.scaled(2.0), 0j, p).K
        assert scaled == pytest.approx(2.0**p * base, rel=1e-9)


def _jet_binom(k: int, b: int) -> float:
    # C(k, b) for any integer k (Laurent exponents included), b >= 0
    out = 1.0
    for i in range(b):
        out *= (k - i) / (i + 1)
    return out


def _series_kernel(space, xi, z, norm_sq) -> float:
    """Truncated Bergman series sum_alpha |(xi . phi_alpha)(z)|^2 / ||phi_alpha||^2.

    phi_alpha = (w - center)^alpha are orthogonal on these rules, so this is
    the exact p = 2 kernel of the truncated space, with no Gram or QR.
    """
    total = 0.0
    for alpha in space.indices:
        pairing = 0j
        for beta, c in xi.terms.items():
            term = c
            for a, b, zj, cj in zip(alpha.entries, beta.entries, z, space.center):
                if b > a >= 0:
                    term = 0.0
                    break
                term *= _jet_binom(a, b) * (zj - cj) ** (a - b)
            pairing += term
        total += abs(pairing) ** 2 / norm_sq(alpha.entries)
    return total


def _disk_norm_sq(radius):
    return lambda e: math.pi * radius ** (2 * e[0] + 2) / (e[0] + 1)


def _annulus_norm_sq(r1, r2):
    def norm_sq(e):
        k = e[0]
        if k == -1:
            return 2 * math.pi * math.log(r2 / r1)
        return math.pi * (r2 ** (2 * k + 2) - r1 ** (2 * k + 2)) / (k + 1)
    return norm_sq


class TestSeriesOracle:
    """The exact p = 2 kernel against its truncated series (closed-form norms)."""

    CASES = {
        "disk": (Domain.disk(), 16, 0.35 + 0.2j, _disk_norm_sq(1.0)),
        "off-centre disk": (Domain.disk(0.6, 0.2 - 0.1j), 16, 0.45 + 0.05j, _disk_norm_sq(0.6)),
        "annulus": (Domain.annulus(0.5, 1.0), 8, 0.6 + 0.4j, _annulus_norm_sq(0.5, 1.0)),
        "bidisc": (Domain.bidisc(), 10, (0.3 + 0.1j, -0.2 + 0.25j),
                   lambda e: math.pi ** 2 / ((e[0] + 1) * (e[1] + 1))),
        "ball:2": (Domain.ball(1.0, 2), 10, (0.3 - 0.2j, 0.1 + 0.35j),
                   lambda e: ball_monomial_lp_integral(1.0, 2, MultiIndex(e), 2.0)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exact_kernel_is_the_series(self, name):
        domain, degree, z, norm_sq = self.CASES[name]
        space = PolySpace.build(domain, degree=degree)
        rng = np.random.default_rng(11)
        xi = Functional(domain.dimension, {
            alpha: complex(*rng.uniform(-1.0, 1.0, 2))
            for alpha in enumerate_upto_degree(domain.dimension, 2)})
        zt = z if isinstance(z, tuple) else (z,)
        expect = _series_kernel(space, xi, zt, norm_sq)
        assert kernel2_diagonal(space, xi, z).K == pytest.approx(expect, rel=1e-11)

    @pytest.mark.parametrize("z", [0.95j, 0.9 + 0j])
    def test_iterated_kernel_is_the_series_near_the_boundary(self, z):
        # the IRLS at p = 2 solves in the same orthonormal coordinates as
        # the exact engine, so it keeps the series' digits near the boundary
        space = PolySpace.build(Domain.disk(), degree=24)
        xi = Functional.from_string("0: 1; 1: 0.5; 2: -0.25j")
        expect = _series_kernel(space, xi, (z,), _disk_norm_sq(1.0))
        assert kernelp_diagonal(space, xi, z, 2.0).K == pytest.approx(expect, rel=1e-12)


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
        ob = orthonormal_basis(disk16, z)
        c = ob.transform.T @ disk16.constraint_row(xi, (z,))
        rng = np.random.default_rng(3)
        sols = []
        for _ in range(3):
            null = np.eye(disk16.size) - np.outer(c.conj(), c) / np.vdot(c, c)
            start = c.conj() / np.vdot(c, c) + null @ (
                0.5 * (rng.standard_normal(disk16.size)
                       + 1j * rng.standard_normal(disk16.size)))
            sol = solve_affine_lp(disk16.ring, ob.coeffs, c, p, start=start)
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

    def test_upper_is_the_sup_bound(self, disk16):
        # mixed degrees: the bound is the Cauchy-estimate constant at the
        # boundary distance, with no inradius factor on the low-order terms
        xi = Functional.from_string("0: 1; 2: 2")
        res = bounds_check(disk16, xi, 1.5, 0.4 + 0j)
        c = sup_bound_constant(disk16.domain, xi, 1.5, 1.0 - 0.4)
        assert res.upper == pytest.approx(c**1.5, rel=1e-12)
        assert res.kernel <= res.upper


class TestBatchAndFlags:
    def test_batch_matches_loop(self, disk16):
        xi = Functional.delta((0,))
        pts = [0j, 0.2 + 0j, 0.3 - 0.3j]
        batch = evaluate_batch(disk16, xi, pts, 1.5)
        single = [diagonal(disk16, xi, z, 1.5) for z in pts]
        for b, s in zip(batch, single):
            assert b.K == pytest.approx(s.K, rel=1e-12)

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


class TestMemory:
    def test_bidisc_solve_allocates_no_node_products(self):
        # the IRLS normal matrices come from per-ring FFTs, so a p = 1.5
        # solve on the default bidisc (82,944 nodes x 66 monomials, an
        # 88 MB node matrix) allocates nothing of node-matrix size
        space = PolySpace.build(Domain.bidisc())
        z = (0.35 * np.exp(0.7j), 0.35 * np.exp(-1.9j))
        tracemalloc.start()
        try:
            ev = kernelp_diagonal(space, Functional.delta((0, 0)), z, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not ev.flags
        assert peak < 40e6

    def test_bidisc_build_holds_no_node_matrix(self):
        # the space keeps the rule and per-ring powers, never Q x N values:
        # building the default bidisc and its Cholesky factor stays far
        # below the 88 MB a node matrix would take
        tracemalloc.start()
        try:
            PolySpace.build(Domain.bidisc()).ring.factor
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestSolverContract:
    def test_p1_accepts_at_smoothing_scale(self):
        # interior zero of the minimizer: gradient decays slowly, the
        # smoothing-scale stop has to fire before the iteration cap
        space = PolySpace.build(Domain.disk(0.78), degree=16)
        ev = diagonal(space, Functional.delta((1,)), 0j, 1.0)
        assert not ev.flags
        assert ev.diagnostics["iterations"] < lpsolve.MAX_ITER

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

    def test_high_exponents_converge(self, disk16):
        # the damped step contracts every curvature ratio in [1, p - 1]
        ev = diagonal(disk16, Functional.delta((1,)), 0.3j, 4.0)
        assert not ev.flags
        for p in (3.0, 4.0, 6.0):
            for k in (0, 1):
                for z in (0j, 0.5j, 0.9 * np.exp(0.4j), -0.6 + 0.3j):
                    assert not diagonal(disk16, Functional.delta((k,)), z, p).flags

    def test_line_search_stall_reports_accepted_steps(self, monkeypatch):
        # a Gram scaled by 1j turns every reweighted step into its negative,
        # an ascent direction at p > 2 that no halving recovers, so the loop
        # stops before its first accepted step
        space = PolySpace.build(Domain.disk(), degree=8, radial_order=12,
                                angular_order=24)
        ring = space.ring
        ring.factor  # cache the factor, which the orthonormal basis reads, unscaled
        gram = ring.gram
        monkeypatch.setattr(ring, "gram", lambda omega: 1j * gram(omega))
        ev = kernelp_diagonal(space, Functional.from_string("0: 1; 1: 0.5", 1),
                              0.3 + 0.1j, 3.0)
        assert ev.diagnostics["iterations"] == 0
        assert ev.flags == ("line-search-stall",)
