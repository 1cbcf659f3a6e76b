"""Diagonal, off-diagonal, and solver-path kernel behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from xibergman import kernels, lpsolve, pspace, verify
from xibergman import (
    Domain,
    Functional,
    GreenModel,
    HomogeneousPolynomial,
    KernelEvaluation,
    MultiIndex,
    PolyCoeffs,
    PolySpace,
    ZeroPairingError,
    bounds_check,
    diagonal,
    duality_bracket,
    enumerate_upto_degree,
    extremal_pairing,
    h_quantity,
    higher_kernel_direct,
    kernel2_diagonal,
    kernelp_diagonal,
    off_diagonal,
    orthonormal_basis,
    reproducing_residual,
    solve_affine_lp,
    sublevel_domain,
    sup_bound_constant,
    sweep,
)


@pytest.fixture(scope="module")
def disk16():
    return PolySpace.build(Domain.disk(), degree=16)


def closed_form_origin(p, k):
    # monomial extremality on the unit disk
    return (p * k + 2) / (2 * math.pi)


def _iterated_p2(space, xi, z):
    """The descent solver's p = 2 value from a feasible start off the closed
    form's minimizer u0, along the null space of the constraint row."""
    ob = orthonormal_basis(space, z)
    c = ob.transform.T @ space.constraint_row(xi, ob.point)
    Z = lpsolve._null_space(c)
    t = np.random.default_rng(4).standard_normal((2, Z.shape[1]))
    start = lpsolve._minimal_norm(c) + 0.3 * Z @ (t[0] + 1j * t[1])
    sol = solve_affine_lp(space.ring, ob.coeffs, c, 2.0, start=start)
    assert sol.iterations > 0 and not sol.flags
    return 1.0 / sol.objective


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
        assert _iterated_p2(disk16, xi, z) == pytest.approx(exact.K, rel=1e-9)

    def test_p2_never_reaches_the_solver(self, monkeypatch, tmp_path, disk16):
        # p = 2 has one route, the closed form: the three diagonal names are
        # one computation, and no p = 2 entry point calls the descent solver
        # or builds the point-adapted QR, which the descent works in
        from xibergman.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("the solver or the adapted QR ran at p = 2")

        monkeypatch.setattr(kernels, "solve_affine_lp", refuse)
        monkeypatch.setattr(pspace, "_orthonormal_transform", refuse)
        assert kernelp_diagonal is diagonal
        xi = Functional.from_string("0: 1; 1: 0.5; 2: -0.25j")
        z = 0.3 - 0.2j
        evs = [diagonal(disk16, xi, z, 2.0), kernelp_diagonal(disk16, xi, z, 2.0),
               kernel2_diagonal(disk16, xi, z)]
        for ev in evs:
            assert ev.diagnostics["method"] == "exact-2"
            assert ev.K == evs[0].K
            assert np.array_equal(ev.coeffs, evs[0].coeffs)
        higher_kernel_direct(disk16, HomogeneousPolynomial.from_string("z^2: 1"), z, 2.0)
        for model in (GreenModel.balanced(Domain.disk()), GreenModel.moebius_disk(0.5)):
            sweep(disk16, model, Functional.delta((0,)), 2.0, [-2.0, -1.0, 0.0])
        out = tmp_path / "k.json"
        assert main(["compute", "--domain", "bidisc", "--xi", "0,0: 1; 1,0: 0.5",
                     "--p", "2", "--z", "0.2+0.1j,-0.3j", "--degree", "6",
                     "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("shape,degree,z", [
        ("disk", 16, (0.3 - 0.2j,)),
        ("annulus", 8, (0.7 + 0.1j,)),
        ("bidisc", 6, (0.2 + 0.1j, -0.3j)),
        ("ball2", 6, (0.2 + 0.1j, -0.3j)),
        ("ball3", 4, (0.2, 0.1j, -0.2)),
    ])
    def test_closed_form_matches_the_adapted_basis(self, shape, degree, z):
        # the closed form pairs the functional with the jets of the space's
        # own orthonormal basis; the point-adapted basis of the descent is
        # the reference: the same K, and the element's jets below low are 0
        domain = {"disk": Domain.disk(), "annulus": Domain.annulus(0.5, 1.0),
                  "bidisc": Domain.bidisc(), "ball2": Domain.ball(dimension=2),
                  "ball3": Domain.ball(dimension=3)}[shape]
        space = PolySpace.build(domain, degree=degree)
        coeffs = (1.0, 0.5, -0.25j, 0.4 + 0.3j, -0.6)
        taylor = [idx for idx in space.indices if idx.is_taylor]
        xi = Functional(space.dimension, dict(zip(taylor, coeffs)))
        ob = orthonormal_basis(space, z)
        L = space.constraint_row(xi, ob.point)
        for low in (0,) if space.laurent else (0, 1, 2):
            ev = kernels._constrained_kernel(space, xi, z, 2.0, low)
            c = ob.transform[low:, low:].T @ L[low:]
            assert ev.K == pytest.approx(np.vdot(c, c).real, rel=1e-12)
            assert all(ev.minimizer.coefficient(idx) == 0 for idx in space.indices[:low])
            assert ev.diagnostics["constraint_residual"] < 1e-12

    def test_scaled_functional_covariance(self, disk16):
        # K is |c|^p homogeneous in the functional scale
        xi = Functional.delta((1,))
        p = 1.5
        base = diagonal(disk16, xi, 0j, p).K
        scaled = diagonal(disk16, xi.scaled(2.0), 0j, p).K
        assert scaled == pytest.approx(2.0**p * base, rel=1e-9)


class TestSeriesOracle:
    """The exact p = 2 kernel against its truncated series (closed-form norms)."""

    CASES = {
        "disk": (Domain.disk(), 16, 0.35 + 0.2j),
        "off-centre disk": (Domain.disk(0.6, 0.2 - 0.1j), 16, 0.45 + 0.05j),
        "annulus": (Domain.annulus(0.5, 1.0), 8, 0.6 + 0.4j),
        "bidisc": (Domain.bidisc(), 10, (0.3 + 0.1j, -0.2 + 0.25j)),
        "ball:2": (Domain.ball(1.0, 2), 10, (0.3 - 0.2j, 0.1 + 0.35j)),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exact_kernel_is_the_series(self, name):
        domain, degree, z = self.CASES[name]
        space = PolySpace.build(domain, degree=degree)
        rng = np.random.default_rng(11)
        xi = Functional(domain.dimension, {
            alpha: complex(*rng.uniform(-1.0, 1.0, 2))
            for alpha in enumerate_upto_degree(domain.dimension, 2)})
        expect = verify._series_kernel(space, xi, z)
        assert kernel2_diagonal(space, xi, z).K == pytest.approx(expect, rel=1e-11)

    @pytest.mark.parametrize("z", [0.95j, 0.9 + 0j])
    def test_iterated_kernel_is_the_series_near_the_boundary(self, z):
        # the descent solver at p = 2 works in the same orthonormal
        # coordinates as the closed form, so from a start off the closed
        # form's minimizer it keeps the series' digits near the boundary
        space = PolySpace.build(Domain.disk(), degree=24)
        xi = Functional.from_string("0: 1; 1: 0.5; 2: -0.25j")
        expect = verify._series_kernel(space, xi, z)
        assert _iterated_p2(space, xi, z) == pytest.approx(expect, rel=1e-12)


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
            assert reproducing_residual(disk16, f, ev) < 1e-6

    def test_extremal_pairing_orthogonality(self, disk16):
        # pairing must vanish against competitors annihilated at the pole
        xi = Functional.delta((0,))
        w = 0.25 + 0j
        for p in (1.5, 3.0):
            ev = diagonal(disk16, xi, w, p)
            g = PolyCoeffs.monomial(MultiIndex((1,)), w)  # (z - w), so g(w) = 0
            val = extremal_pairing(disk16, g, ev)
            assert abs(val) < 1e-7

    def test_extremal_pairing_is_the_node_sum(self, disk16):
        # the pairing through the adjoint of the dual density against the
        # node sum sum_q conj(w_q rho_q g_q) f(x_q) it replaces
        rng = np.random.default_rng(5)
        annulus = PolySpace.build(Domain.annulus(0.5, 1.0), degree=10)
        cases = [(disk16, 0.3 - 0.2j, Functional.from_string("0: 1; 1: 0.5")),
                 (annulus, 0.75 * np.exp(0.4j), Functional.from_string("0: 1; 1: -0.5j"))]
        for space, z, xi in cases:
            for p in (1.0, 1.5, 2.0, 3.0):
                ev = diagonal(space, xi, z, p)
                g = space.values(ev.coeffs)
                _, rho, _, _ = lpsolve._smoothed(g.real**2 + g.imag**2, p)
                f = space.element(rng.standard_normal(space.size)
                                  + 1j * rng.standard_normal(space.size))
                fvals = space.values(space.coeff_vector(f))
                expected = np.sum(np.conj(space.quadrature.weights * rho * g) * fvals)
                got = extremal_pairing(space, f, ev)
                assert abs(got - expected) <= 1e-12 * abs(expected), (space.laurent, p)

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


class TestCentredCoefficients:
    @pytest.mark.parametrize("case", ["disk", "annulus", "bidisc", "higher"])
    def test_coeffs_are_the_minimizer(self, disk16, case):
        # KernelEvaluation.coeffs is the minimizer in the space's centred
        # basis: the same node values as the re-centred minimizer
        if case == "disk":
            space, ev = disk16, diagonal(disk16, Functional.from_string("0: 1; 1: 0.5", 1),
                                         0.4 * np.exp(0.3j), 1.5)
        elif case == "annulus":
            space = PolySpace.build(Domain.annulus(0.5, 1.0), degree=10)
            ev = diagonal(space, Functional.delta((1,)), 0.75 * np.exp(0.4j), 1.5)
        elif case == "bidisc":
            space = PolySpace.build(Domain.bidisc(), degree=6, radial_order=8,
                                    angular_order=16)
            ev = diagonal(space, Functional.delta((1, 0)), (0.3j, -0.2 + 0.1j), 2.0)
        else:
            space = disk16
            ev = higher_kernel_direct(space, HomogeneousPolynomial.from_string("z^2: 1"),
                                      0.3 - 0.2j, 1.5)
        ref = space.values(space.coeff_vector(ev.minimizer))
        assert np.abs(space.values(ev.coeffs) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_start_from_another_point(self, disk16):
        # a solve started from another point's coeffs, projected onto the
        # new point's basis, reaches the cold solve's value; this start has
        # a larger objective than the p = 2 point u0 (taken, it cost 90
        # Newton steps against 4), so u0 is kept
        xi = Functional.from_string("0: 1; 1: 0.5", 1)
        other = diagonal(disk16, xi, 0.5 * np.exp(1.1j), 1.5)
        z = 0.3 - 0.4j
        warm = kernels._constrained_kernel(disk16, xi, z, 1.5, start=other.coeffs)
        cold = diagonal(disk16, xi, z, 1.5)
        assert not warm.flags
        assert warm.K == pytest.approx(cold.K, rel=1e-9)
        assert warm.diagnostics["iterations"] <= cold.diagnostics["iterations"]


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
    def test_nonconvex_flagged(self, disk16):
        ev = diagonal(disk16, Functional.delta((0,)), 0j, 0.5)
        assert "nonconvex-best-found" in ev.flags

    def test_unsupported_order_raises(self, disk16):
        with pytest.raises(ZeroPairingError):
            diagonal(disk16, Functional.delta((17,)), 0j, 2.0)

    def test_zero_functional_rejected(self, disk16):
        with pytest.raises(ValueError):
            diagonal(disk16, Functional(1, {}), 0j, 2.0)

    def test_outside_point_rejected(self, disk16):
        with pytest.raises(ValueError):
            diagonal(disk16, Functional.delta((0,)), 1.5 + 0j, 2.0)

    def test_bad_solver_input_rejected(self, disk16):
        # the solver owns the checks on p and the row: before them, p = nan
        # and a zero row returned nan values flagged only line-search-stall,
        # and p = inf raised ZeroDivisionError
        ob = orthonormal_basis(disk16, 0.2j)
        row = ob.transform.T @ disk16.constraint_row(Functional.delta((1,)), (0.2j,))
        xi = Functional.delta((0,))
        for p in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                solve_affine_lp(disk16.ring, ob.coeffs, row, p)
            with pytest.raises(ValueError):
                kernelp_diagonal(disk16, xi, 0.2j, p)
        for bad in (np.zeros_like(row), np.full_like(row, np.nan)):
            with pytest.raises(ValueError):
                solve_affine_lp(disk16.ring, ob.coeffs, bad, 1.5)


class TestMemory:
    def test_bidisc_solve_allocates_no_node_products(self):
        # the Newton matrices come from per-ring FFTs, so a p = 1.5
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
        # backtracked Newton steps above p = 2
        ev = diagonal(disk16, Functional.delta((1,)), 0.3j, 4.0)
        assert not ev.flags
        for p in (3.0, 4.0, 6.0):
            for k in (0, 1):
                for z in (0j, 0.5j, 0.9 * np.exp(0.4j), -0.6 + 0.3j):
                    assert not diagonal(disk16, Functional.delta((k,)), z, p).flags

    def test_line_search_stall_reports_accepted_steps(self, monkeypatch):
        # a negated Gram makes the step an ascent direction, so the loop
        # stops before its first accepted step: the Newton step at p = 3
        # and the reweighted least-squares step of every p < 1 start alike
        space = PolySpace.build(Domain.disk(), degree=8, radial_order=12,
                                angular_order=24)
        ring = space.ring
        ring.factor  # cache the factor, which the orthonormal basis reads, unnegated
        gram = ring.gram
        monkeypatch.setattr(ring, "gram", lambda omega: -gram(omega))
        xi = Functional.from_string("0: 1; 1: 0.5", 1)
        for p, flags in ((3.0, ("line-search-stall",)),
                         (0.8, ("nonconvex-best-found", "line-search-stall"))):
            ev = kernelp_diagonal(space, xi, 0.3 + 0.1j, p)
            assert ev.diagnostics["iterations"] == 0, p
            assert ev.flags == flags, p

    @pytest.mark.parametrize("broken", ["indefinite", "scaled-by-1j"])
    def test_broken_gram_ends_flagged(self, monkeypatch, broken):
        # the p >= 1 step matrices solve with no definiteness test, as they
        # are positive definite by construction; with a Gram that is not,
        # the slope test still stops every descent, flagged
        space = PolySpace.build(Domain.disk(), degree=8, radial_order=12,
                                angular_order=24)
        ring = space.ring
        ring.factor
        gram = ring.gram

        def bad(omega):
            G = gram(omega)
            if broken == "scaled-by-1j":
                return 1j * G
            # every other eigenvalue negated
            values, vectors = np.linalg.eigh(G)
            signs = np.where(np.arange(len(values)) % 2, 1.0, -1.0)
            return (vectors * (signs * values)) @ vectors.conj().T

        monkeypatch.setattr(ring, "gram", bad)
        xi = Functional.from_string("0: 1; 1: 0.5", 1)
        for p in (1.0, 1.5, 3.0):
            ev = kernelp_diagonal(space, xi, 0.3 + 0.1j, p)
            assert ev.flags == ("line-search-stall",), p

    def test_p_below_one_beats_the_stationary_start(self, disk16):
        # at the centre the start z^k of delta_k is stationary but not
        # minimal at p < 1; its value is (p k + 2) / (2 pi), and only the
        # seeded restarts of the multistart get below it (measured +0.33%
        # for k = 1 and +5.2% for k = 2)
        p = 0.8
        for k in (1, 2):
            ev = kernelp_diagonal(disk16, Functional.delta((k,)), 0j, p)
            assert "nonconvex-best-found" in ev.flags
            assert ev.K >= (1 + 1e-3) * (p * k + 2) / (2 * math.pi), k

    def test_p_below_one_keeps_the_lowest_iterate(self):
        # the majorize-minimize step is not monotone in the unsmoothed
        # objective: on this annulus case four of the nine descents pass
        # through iterates below 2.28834e-1 and stop at about 2.28841e-1.
        # Every iterate is feasible, so the lowest one visited is returned
        space = PolySpace.build(Domain.annulus(0.4, 1.0))
        ev = kernelp_diagonal(space, Functional.delta((0,)), 0.5 * np.exp(0.7j), 0.5)
        assert "nonconvex-best-found" in ev.flags
        assert 1.0 / ev.K <= 2.28834e-1

    def test_p_below_one_sweep_takes_few_descent_steps(self, monkeypatch):
        # the 7-row p = 0.8 delta_0 sweep of the bench's Moebius disk: over
        # all nine starts of every row, 2,417 majorize-minimize steps before
        # Newton steps were taken below p = 1 and 967 with them; every row's
        # descent from the power start now ends stationary, so no restart
        # runs, in 8 steps for the whole sweep
        steps = []
        descend = lpsolve._descend

        def spy(*args):
            sol = descend(*args)
            steps.append(sol[2])
            return sol

        monkeypatch.setattr(lpsolve, "_descend", spy)
        sweep(PolySpace.build(Domain.disk(), degree=24),
              GreenModel.moebius_disk(0.5 * np.exp(1.234j)), Functional.delta((0,)), 0.8,
              [-3 + 0.5 * i for i in range(7)])
        assert len(steps) == 7
        assert sum(steps) <= 20

    def test_start_spread_below_one_only(self, disk16):
        # (max - min) / min over the seeded starts' final objectives: at the
        # centre the start z of delta_1 is stationary but not minimal, so
        # the starts end apart; p >= 1 has one start and reports nothing
        ev = kernelp_diagonal(disk16, Functional.delta((1,)), 0j, 0.8)
        spread = ev.diagnostics["start_spread"]
        assert kernels.evaluation_to_dict(ev)["diagnostics"]["start_spread"] == spread
        # the t = 0 descent stays at z, 0.33% above the best start's value
        assert 1e-3 < spread < 1e-2
        for p in (1.0, 1.5, 2.0):
            ev = kernelp_diagonal(disk16, Functional.delta((1,)), 0.3j, p)
            assert "start_spread" not in ev.diagnostics
            assert "start_spread" not in kernels.evaluation_to_dict(ev)["diagnostics"]

    def test_supplied_start_kept_only_when_no_worse(self, disk16):
        # the constrained solve takes a start only when its objective is no
        # larger than that of the p = 2 point u0: the minimizer itself is
        # kept, a point far along the null space is not and the cold descent
        # runs unchanged; the solver itself descends from any start it is given
        xi = Functional.from_string("0: 1; 1: 0.5", 1)
        z = 0.3 - 0.4j
        cold = kernels._constrained_kernel(disk16, xi, z, 1.5)
        near = kernels._constrained_kernel(disk16, xi, z, 1.5, start=cold.coeffs)
        assert near.diagnostics["iterations"] < cold.diagnostics["iterations"]
        assert near.K == pytest.approx(cold.K, rel=1e-12)
        ob = orthonormal_basis(disk16, z)
        c = ob.transform.T @ disk16.constraint_row(xi, ob.point)
        rng = np.random.default_rng(4)
        Z = lpsolve._null_space(c)
        far = lpsolve._minimal_norm(c) + 0.3 * Z @ rng.standard_normal(Z.shape[1])
        warm = kernels._constrained_kernel(disk16, xi, z, 1.5, start=ob.coeffs @ far)
        assert ((warm.diagnostics["iterations"], warm.K)
                == (cold.diagnostics["iterations"], cold.K))
        from_far = solve_affine_lp(disk16.ring, ob.coeffs, c, 1.5, start=far)
        assert from_far.iterations > cold.diagnostics["iterations"]
        assert from_far.objective == pytest.approx(1.0 / cold.K, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 0.8])
    def test_closed_form_and_multistart_ignore_a_start(self, disk16, p):
        # the p = 2 closed form and the seeded p < 1 multistart never read a
        # start, so their values do not depend on call history
        xi = Functional.from_string("0: 1; 1: 0.5", 1)
        z = 0.3 - 0.4j
        cold = kernels._constrained_kernel(disk16, xi, z, p)
        warm = kernels._constrained_kernel(disk16, xi, z, p, start=cold.coeffs)
        assert warm.K == cold.K
        assert warm.diagnostics == cold.diagnostics
        assert ("start_spread" in cold.diagnostics) == (p < 1)
        assert np.array_equal(warm.coeffs, cold.coeffs)

    def test_closed_form_is_the_descent_start(self, disk16):
        # the p = 2 minimizer is the minimal-norm point u0 of the solver's
        # default start, bit for bit, in the space's own orthonormal basis,
        # the columns of C^-1: c pairs the functional with their jets B(z),
        # and its value |c|^2 is the divisor of u0
        xi = Functional.from_string("0: 1; 1: 0.5; 2: -0.25j")
        z = 0.3 - 0.2j
        c = pspace._orthonormal_jets(disk16, z).T @ disk16.constraint_row(xi, z)
        u0 = lpsolve._minimal_norm(c)
        exact = kernel2_diagonal(disk16, xi, z)
        assert exact.K == np.vdot(c, c).real
        assert np.array_equal(exact.coeffs, disk16.ring.inverse_factor @ u0)
        assert abs(c @ u0 - 1.0) < 1e-15

    def test_null_space_is_orthonormal(self):
        # the Householder columns annihilate the row and are orthonormal,
        # also when the row's first entry is zero and when nothing is left
        rng = np.random.default_rng(8)
        rows = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (2, 5, 17)]
        rows.append(np.array([0j, 1 - 2j, 0.5j, 3.0]))
        rows.append(np.array([2 - 1j]))
        for row in rows:
            Z = lpsolve._null_space(row)
            assert Z.shape == (len(row), len(row) - 1)
            assert np.abs(row @ Z).max(initial=0.0) <= 1e-14
            assert np.abs(Z.conj().T @ Z - np.eye(len(row) - 1)).max(initial=0.0) <= 1e-14

    def test_p1_backtracks_on_the_smoothed_objective(self):
        # the Moebius delta_1 sweep row at a = -0.6: Armijo on the unsmoothed
        # objective rejects the Newton steps near the minimizer's zero and
        # runs to the cap; on the smoothed objective the steps model, it
        # converges
        pole = 0.5 * np.exp(0.7j)
        space = PolySpace.build(sublevel_domain(GreenModel.moebius_disk(pole), -0.6),
                                degree=24)
        ev = diagonal(space, Functional.delta((1,)), pole, 1.0)
        assert not ev.flags
        assert ev.diagnostics["method"] == "newton"
        assert ev.diagnostics["iterations"] < lpsolve.MAX_ITER

    def test_p1_reaches_stationarity_on_the_disk(self):
        # K_{delta_0, 1}(z) on the unit disk is the Bergman kernel
        # 1 / (pi (1 - |z|^2)^2); Newton at p = 1 stops on the true
        # stationarity test, not on the smoothing-scale one
        disk = PolySpace.build(Domain.disk(), degree=24)
        for r in (0.0, 0.3, 0.6):
            ev = kernelp_diagonal(disk, Functional.delta((0,)), r * np.exp(0.7j), 1.0)
            assert not ev.flags
            assert ev.diagnostics["grad_residual"] < lpsolve.GRAD_TOL, r
            assert ev.K == pytest.approx(1 / (math.pi * (1 - r * r) ** 2), rel=1e-6)

    @staticmethod
    def _newton_grid():
        disk = PolySpace.build(Domain.disk(), degree=24)
        bidisc = PolySpace.build(Domain.bidisc())
        mixed = Functional.from_string("0,0: 1; 1,0: 0.5; 0,1: -0.3j", 2)
        cases = [(disk, Functional.delta((k,)), r * np.exp(0.7j))
                 for k in (0, 1, 2) for r in (0.0, 0.3, 0.6, 0.9)]
        cases += [(bidisc, Functional.delta((1, 0)), (0j, 0j)),
                  (bidisc, mixed, (0.35 * np.exp(0.7j), 0.35 * np.exp(-1.9j)))]
        return cases

    def test_newton_grid_converges(self, monkeypatch):
        # Newton steps for p >= 1 from u0, the p = 2 minimizer (the power
        # start patched off): no flag and no solve at the cap on the disk
        # up to |z| = 0.9 and on the bidisc, few steps at p = 1.5 and 1;
        # every p > 1 value carries its Hoelder bracket, and a fresh
        # descent from the returned coefficients does not move K
        monkeypatch.setattr(kernels, "_power_start", lambda *args: None)
        steps = {}
        for p in (1.0, 1.2, 1.5, 3.0, 4.0):
            for space, xi, z in self._newton_grid():
                ev = kernelp_diagonal(space, xi, z, p)
                assert not ev.flags, (p, z, ev.flags)
                assert ev.diagnostics["method"] == "newton"
                assert ev.diagnostics["iterations"] < lpsolve.MAX_ITER
                steps.setdefault(p, []).append(ev.diagnostics["iterations"])
                if p == 1:
                    assert "K_upper" not in ev.diagnostics
                    assert "duality_gap" not in ev.diagnostics
                    continue
                gap = ev.diagnostics["duality_gap"]
                assert gap == ev.diagnostics["K_upper"] / ev.K - 1.0
                assert abs(gap) <= 1e-9, (p, z, gap)
                ob = orthonormal_basis(space, z)
                c = ob.transform.T @ space.constraint_row(xi, ob.point)
                u = ob.coeffs.conj().T @ (space.ring.base_gram @ ev.coeffs)
                again = solve_affine_lp(space.ring, ob.coeffs, c, p, start=u / (c @ u))
                assert abs(1.0 / again.objective - ev.K) <= 1e-12 * ev.K, (p, z)
        assert np.median(steps[1.5]) <= 8
        assert np.median(steps[1.0]) <= 16
        # the p = 1 counts of the relative-change stop, which p = 1 keeps
        assert steps[1.0] == [1, 5, 5, 15, 1, 26, 14, 11, 1, 20, 28, 27, 1, 17]

    def test_power_start_saves_steps(self, monkeypatch):
        # on the grid above, the power start against u0 alone: the same K
        # to 1e-12 and no flag, fewer steps in all at every p, and at most
        # one more at any single value
        def run():
            return {p: [kernelp_diagonal(space, xi, z, p) for space, xi, z in self._newton_grid()]
                    for p in (1.0, 1.2, 1.5, 3.0, 4.0)}

        power = run()
        monkeypatch.setattr(kernels, "_power_start", lambda *args: None)
        self._assert_start_saves_steps(power, run())

    @staticmethod
    def _assert_start_saves_steps(started, cold):
        """Per p: no flag, the same K to 1e-12, fewer steps in all, and at
        most one more at any single value."""
        for p, evs in started.items():
            steps = [ev.diagnostics["iterations"] for ev in evs]
            old_steps = [ev.diagnostics["iterations"] for ev in cold[p]]
            assert not any(ev.flags for ev in evs), p
            assert np.allclose([ev.K for ev in evs], [ev.K for ev in cold[p]],
                               rtol=1e-12, atol=0.0), p
            assert sum(steps) < sum(old_steps), p
            assert all(new <= old + 1 for new, old in zip(steps, old_steps)), p

    def test_jet_start_saves_steps(self, monkeypatch, disk16):
        # the vanishing-jet twin of test_power_start_saves_steps: H = z^k on
        # the disk and H = z1 on the default bidisc and ball:2, from the jet
        # start against u0 alone
        bidisc, ball = PolySpace.build(Domain.bidisc()), PolySpace.build(Domain.ball(1.0, 2))
        cases = [(disk16, HomogeneousPolynomial.from_string(f"z^{k}: 1"), r * np.exp(0.7j))
                 for k in (1, 2, 3) for r in (0.0, 0.3, 0.6)]
        z1 = HomogeneousPolynomial.from_string("z1: 1", 2)
        cases += [(bidisc, z1, (0.3 * np.exp(0.7j), 0.2 * np.exp(-1.1j))),
                  (bidisc, z1, (0.5 * np.exp(0.7j), 0.5 * np.exp(2j))),
                  (ball, z1, (0.3 * np.exp(0.7j), 0.2 * np.exp(-1.1j))),
                  (ball, z1, (0.4 * np.exp(0.7j), 0.3 * np.exp(2j)))]

        def run():
            return {p: [higher_kernel_direct(space, H, z, p) for space, H, z in cases]
                    for p in (1.5, 3.0)}

        jet = run()
        monkeypatch.setattr(kernels, "_power_start", lambda *args: None)
        self._assert_start_saves_steps(jet, run())

    def test_certified_stop_saves_steps(self, monkeypatch):
        # on the grid above, the certified stop against the relative-change
        # rule alone (a GAP_TOL no gap meets): fewer steps in all above
        # p = 1, the same K to 1e-12, and none more at any single value
        def run():
            evs = [kernelp_diagonal(space, xi, z, p)
                   for p in (1.2, 1.5, 3.0, 4.0) for space, xi, z in self._newton_grid()]
            return [ev.diagnostics["iterations"] for ev in evs], [ev.K for ev in evs]

        steps, Ks = run()
        monkeypatch.setattr(lpsolve, "GAP_TOL", -np.inf)
        old_steps, old_Ks = run()
        assert sum(steps) < sum(old_steps)
        assert all(new <= old for new, old in zip(steps, old_steps))
        assert np.allclose(Ks, old_Ks, rtol=1e-12, atol=0.0)

    def test_determined_solve_carries_its_bracket(self):
        # with one free coefficient there is no descent, and the bracket of
        # the one feasible function is still reported above p = 1
        space = PolySpace.build(Domain.disk(), degree=4)
        H = HomogeneousPolynomial.from_string("z^4: 1")
        for p in (1.0, 1.5):
            ev = higher_kernel_direct(space, H, 0.3 + 0.1j, p)
            assert ev.diagnostics["method"] == "determined"
            if p == 1:
                assert "duality_gap" not in ev.diagnostics
            else:
                assert abs(ev.diagnostics["duality_gap"]) <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_stationary_starts_take_no_step(self, disk16, p):
        # the p = 2 start is the L^p minimizer at a centre of symmetry: the
        # bracket certifies it before any step
        bidisc = PolySpace.build(Domain.bidisc())
        evs = [kernelp_diagonal(bidisc, Functional.delta((1, 0)), (0j, 0j), p)]
        evs += [higher_kernel_direct(disk16, HomogeneousPolynomial.from_string(f"z^{k}: 1"),
                                     0j, p) for k in (1, 2)]
        for ev in evs:
            assert not ev.flags
            assert ev.diagnostics["iterations"] == 0
            assert ev.diagnostics["final_rel_step"] == 0.0
            assert ev.diagnostics["duality_gap"] <= lpsolve.GAP_TOL


class TestPowerStart:
    """The p = 2 minimizer raised to 2/p as the start of p >= 1 solves."""

    CASES = [
        (Domain.disk(), (0.35 * np.exp(2.1j),)),
        (Domain.ball(dimension=2),
         (0.35 / math.sqrt(2) * np.exp(0.4j), 0.35 / math.sqrt(2) * np.exp(-2.3j))),
        (Domain.bidisc(), (0.35 * np.exp(0.9j), 0.35 * np.exp(-1.3j))),
    ]

    @pytest.mark.parametrize("domain,z", CASES, ids=["disk", "ball:2", "bidisc"])
    def test_delta0_takes_few_steps(self, monkeypatch, domain, z):
        # the delta_0 extremal at p is the p = 2 one raised to 2/p on these
        # domains, so the start is exact up to truncation and the rule.
        # Above p = 1 the certified stop ends the solve within two steps;
        # p = 1 stops on the relative change alone, after 1, 3 and 4 steps
        # here (5, 6 and 7 from u0)
        space = PolySpace.build(domain)
        xi = Functional.delta((0,) * domain.dimension)
        evs = [kernelp_diagonal(space, xi, z, p) for p in (1.0, 1.5, 3.0)]
        monkeypatch.setattr(kernels, "_power_start", lambda *args: None)
        for ev in evs:
            cold = kernelp_diagonal(space, xi, z, ev.p)
            assert not ev.flags
            assert ev.diagnostics["iterations"] <= (2 if ev.p > 1 else 4), ev.p
            assert ev.diagnostics["iterations"] < cold.diagnostics["iterations"], ev.p
            assert ev.K == pytest.approx(cold.K, rel=1e-12, abs=0.0)

    def test_candidate_and_its_skips(self, disk16):
        # delta_0 gets the power of the p = 2 minimizer; a zero constant
        # term (delta_1 at an interior point of the disk, delta_(1,0) at the
        # bidisc's centre) and a Laurent basis get none.  Vanishing jets get
        # the jet start above p = 1 off the centre, and none at the centre
        # or at p = 1
        def f2(space, xi, z):
            return kernel2_diagonal(space, xi, z).coeffs

        z = 0.4 * np.exp(0.7j)
        delta0 = f2(disk16, Functional.delta((0,)), z)
        power = kernels._power_start(disk16, delta0, 2.0 / 1.5)
        assert power[0] == 1.0
        assert np.array_equal(power, disk16.normalized_power(delta0, 2.0 / 1.5))
        assert kernels._power_start(
            disk16, f2(disk16, Functional.delta((1,)), z), 2.0 / 1.5) is None
        bidisc = PolySpace.build(Domain.bidisc(), degree=4, radial_order=8, angular_order=16)
        assert kernels._power_start(
            bidisc, f2(bidisc, Functional.delta((1, 0)), (0j, 0j)), 2.0 / 1.5) is None
        annulus = PolySpace.build(Domain.annulus(0.4, 1.0), degree=6)
        assert kernels._power_start(
            annulus, f2(annulus, Functional.delta((0,)), 0.7j), 2.0 / 1.5) is None

        def start(z, p, low):
            ob = orthonormal_basis(disk16, z)
            c = ob.transform.T @ disk16.constraint_row(Functional.delta((1,)), ob.point)
            return kernels._warm_start(disk16, ob.point, ob.coeffs[:, low:], c[low:], p, low, None)

        assert start(z, 1.5, 1) is not None
        assert start(0j, 1.5, 1) is None
        assert start(z, 1.0, 1) is None
        assert start(z, 1.5, 0) is None

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_jet_start_is_the_disk_extremal(self, k, p):
        # on the disk the H = z^k extremal at z is a constant times
        # phi_z^k (phi_z')^(2/p), that is (w - z)^k (1 - conj(z) w)^(-k-4/p);
        # its Taylor coefficients come from the binomial series and a
        # convolution, and the jet start matches them up to a constant
        disk = PolySpace.build(Domain.disk(), degree=24)
        z = 0.3 * np.exp(0.7j)
        ob = orthonormal_basis(disk, z)
        c = ob.transform.T @ disk.constraint_row(Functional.delta((k,)), ob.point)
        U = ob.coeffs[:, k:]
        x = U @ kernels._warm_start(disk, ob.point, U, c[k:], p, k, None)
        e = -k - 4.0 / p
        series = [1.0 + 0j]
        for n in range(1, disk.size):
            series.append(series[-1] * (e - n + 1) / n * -np.conj(z))
        head = [math.comb(k, j) * (-z) ** (k - j) for j in range(k + 1)]
        exact = np.convolve(head, series)[:disk.size]
        exact *= np.vdot(exact, x) / np.vdot(exact, exact)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("p", ["2", "0.8"])
    def test_closed_form_and_multistart_outputs_unchanged(self, monkeypatch, tmp_path, p):
        # p = 2 never reads a start: compute and sweep print the same bytes
        # with the power start patched off.  Below p = 1 the descent from
        # the power start ends stationary and no restart runs, and the
        # seeded multistart that runs without it reaches the same K, at
        # full precision (the CLI prints 12 digits)
        from xibergman.cli import main

        runs = [
            ["compute", "--domain", "bidisc", "--xi", "0,0: 1", "--z", "0.3+0.1j,-0.2j",
             "--degree", "6", "--radial-order", "8", "--angular-order", "16"],
            ["sweep", "--domain", "disk", "--xi", "0: 1", "--pole", "0.3+0.2j",
             "--degree", "12", "--a-grid=-2:0:3", "--format", "json"],
        ]
        bidisc = PolySpace.build(Domain.bidisc(), degree=6, radial_order=8, angular_order=16)
        disk = PolySpace.build(Domain.disk(), degree=12)

        def outputs():
            if p == "0.8":
                ev = kernelp_diagonal(bidisc, Functional.delta((0, 0)), (0.3 + 0.1j, -0.2j), 0.8)
                table = sweep(disk, GreenModel.moebius_disk(0.3 + 0.2j), Functional.delta((0,)),
                              0.8, [-2.0, -1.0, 0.0])
                return ev.diagnostics, [ev.K] + [row.K for row in table.rows]
            out = []
            for k, argv in enumerate(runs):
                path = tmp_path / f"{k}.json"
                main(argv + ["--p", p, "--out", str(path)])
                out.append(path.read_bytes())
            return out

        power = outputs()
        monkeypatch.setattr(kernels, "_power_start", lambda *args: None)
        cold = outputs()
        if p == "2":
            assert cold == power
            return
        assert power[0]["method"] == "power-start"
        assert "start_spread" not in power[0]
        assert cold[0]["method"] == "multistart"
        assert cold[1] == pytest.approx(power[1], rel=1e-12, abs=0.0)


def _duality_gap(space, xi, z, p):
    """Hoelder bracket ||g||_q^p ||f*||_p^p - 1 around the solver's value.

    f* (feasible) gives K >= ||f*||_p^-p.  Any g with sum_q w_q f_q g_q =
    (xi . f)(z) on the whole space gives K <= ||g||_q^p, q = p / (p - 1).
    g is the optimal representer |f*|^(p-2) conj(f*) / ||f*||_p^p plus the
    L^2 representer sum_a r_a conj(sigma_a) of its pairing residual r on
    the orthonormal basis sigma, which makes it exact.
    """
    ob = orthonormal_basis(space, z)
    c = ob.transform.T @ space.constraint_row(xi, ob.point)
    sol = solve_affine_lp(space.ring, ob.coeffs, c, p)
    w = space.quadrature.weights
    f = space.values(ob.coeffs @ sol.coeffs)
    obj = np.sum(w * np.abs(f) ** p)
    g = np.abs(f) ** (p - 2) * np.conj(f) / obj
    # r_a = (xi . sigma_a)(z) - sum_q w_q sigma_a(x_q) g_q, through the adjoint
    r = c - ob.coeffs.T @ np.conj(space.ring.adjoint(np.conj(w * g)))
    g = g + np.conj(space.values(ob.coeffs @ np.conj(r)))
    q = p / (p - 1)
    return float(np.sum(w * np.abs(g) ** q) ** (p / q) * obj - 1)


def _mm_multistart(space, xi, z, p, seed=42):
    """Best objective of a majorize-minimize multistart, written out on node values.

    The p < 1 rule of reweighted least squares alone: from the p = 2 point
    and from the solver's seeded feasible starts, each step solves the
    reweighted normal equations of dense node values, is taken whole, and
    the lowest objective visited wins.  A descent stops on the solver's
    rules: relative change below OBJ_TOL with the stationarity residual
    below GRAD_TOL, five such steps with the residual at the smoothing
    scale, or MAX_ITER steps.
    """
    ob = orthonormal_basis(space, z)
    c = ob.transform.T @ space.constraint_row(xi, ob.point)
    u0 = np.conj(c) / np.vdot(c, c).real
    Z = lpsolve._null_space(c)
    w = space.quadrature.weights
    f0, V = space.values(ob.coeffs @ u0), space.values(ob.coeffs @ Z)
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(u0)))
    starts = [np.zeros(Z.shape[1], dtype=complex)]
    starts += [scale * (rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1]))
               for _ in range(lpsolve.RESTARTS)]
    best = np.inf
    for t in starts:
        previous, settled = None, 0
        for _ in range(lpsolve.MAX_ITER + 1):
            f = f0 + V @ t
            a2 = np.abs(f) ** 2
            obj = float(np.sum(w * a2 ** (0.5 * p)))
            best = min(best, obj)
            wr = w * (a2 + (lpsolve.EPS_FACTOR ** 2) * a2.max()) ** (0.5 * p - 1.0)
            pairing = V.conj().T @ (wr * f)
            if previous is not None and abs(previous - obj) < lpsolve.OBJ_TOL * obj:
                residual = np.abs(pairing).max() / obj ** ((p - 1.0) / p)
                if residual < lpsolve.GRAD_TOL:
                    break
                settled = settled + 1 if residual < lpsolve.EPS_FACTOR else 0
                if settled >= 5:
                    break
            else:
                settled = 0
            t = t - np.linalg.solve(V.conj().T @ (wr[:, None] * V), pairing)
            previous = obj
    return best


class TestPowerStartBelowOne:
    """p < 1 delta_0 from the power start, and the restarts where it is not stationary."""

    @pytest.mark.parametrize("p", [0.5, 0.8])
    @pytest.mark.parametrize("domain,volume", [
        (Domain.bidisc(), math.pi ** 2),
        (Domain.ball(dimension=2), math.pi ** 2 / 2),
        (Domain.disk(), math.pi),
    ], ids=["bidisc", "ball:2", "disk"])
    def test_centre_is_one_over_the_volume(self, domain, volume, p):
        # the constant is the delta_0 extremal at the centre for every p (the
        # sub-mean-value property of |f|^p); the seeded multistart alone
        # returned a quadrature artefact 6.5e-3 above 1 / vol on the bidisc
        # at p = 0.5, and 2.9e-4 above it on ball:2.  At the disk and bidisc
        # centres the power start is u0 rounded one ulp higher; it wins
        # that tie, so no restart runs at p = 0.8 either
        n = domain.dimension
        ev = kernelp_diagonal(PolySpace.build(domain), Functional.delta((0,) * n), (0j,) * n, p)
        assert "nonconvex-best-found" in ev.flags
        assert ev.diagnostics["method"] == "power-start"
        assert "start_spread" not in ev.diagnostics
        assert ev.K == pytest.approx(1.0 / volume, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_restarts_run_only_off_stationary(self, monkeypatch, disk16, p):
        # disk delta_0 at 0.6 e^{0.7i}: at p = 0.5 the descent from the power
        # start ends with residual 4e-5, so the seeded restarts run; at
        # p = 0.8 it ends below GRAD_TOL and is the result
        first = []
        descend = lpsolve._descend

        def spy(*args):
            sol = descend(*args)
            first.append(sol)
            return sol

        monkeypatch.setattr(lpsolve, "_descend", spy)
        ev = kernelp_diagonal(disk16, Functional.delta((0,)), 0.6 * np.exp(0.7j), p)
        _, _, _, stop, residual, _, _ = first[0]
        assert "nonconvex-best-found" in ev.flags
        if p == 0.5:
            assert residual >= lpsolve.GRAD_TOL
            assert len(first) == lpsolve.RESTARTS + 2
            assert ev.diagnostics["method"] == "multistart"
            assert ev.diagnostics["start_spread"] >= 0.0
            assert 1.0 / ev.K == min(sol[1] for sol in first)
        else:
            assert stop is None and residual < lpsolve.GRAD_TOL
            assert len(first) == 1
            assert ev.diagnostics["method"] == "power-start"
            assert "start_spread" not in ev.diagnostics
            assert "start_spread" not in kernels.evaluation_to_dict(ev)["diagnostics"]


class TestMultistartReference:
    @pytest.mark.parametrize("p", [0.5, 0.8])
    def test_no_worse_than_majorize_minimize(self, disk16, p):
        # the solver's best objective against the reweighted least-squares
        # multistart from the same starts, which Newton steps replace where
        # they are taken whole; at 0.3 e^{1.1i}, p = 0.5, Newton steps that
        # collapse a node's |f| ended 6.5e-5 higher, in a local minimizer
        # with its zero on that node (the delta_0 extremal has no zero)
        cases = [(disk16, Functional.delta((k,)), r * np.exp(0.7j))
                 for k in (0, 1, 2) for r in (0.0, 0.6)]
        cases.append((disk16, Functional.delta((0,)), 0.3 * np.exp(1.1j)))
        cases.append((PolySpace.build(Domain.annulus(0.4, 1.0)), Functional.delta((1,)),
                      0.7 * np.exp(0.7j)))
        for space, xi, z in cases:
            ev = kernelp_diagonal(space, xi, z, p)
            reference = _mm_multistart(space, xi, z, p)
            assert 1.0 / ev.K <= (1 + 1e-8) * reference, (xi, z)


class TestDualityBracket:
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    def test_disk(self, disk16, p):
        xi = Functional.from_string("0: 1; 1: 0.5", 1)
        for r in (0.0, 0.3, 0.6, 0.9):
            gap = _duality_gap(disk16, xi, r * np.exp(1.1j), p)
            assert abs(gap) <= (1e-9 if r > 0.6 else 1e-12), (r, gap)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    def test_bidisc_mixed(self, p):
        space = PolySpace.build(Domain.bidisc())
        xi = Functional.from_string("0,0: 1; 1,0: 0.5; 0,1: -0.3j", 2)
        for r in (0.3, 0.6, 0.9):
            gap = _duality_gap(space, xi, (r * np.exp(0.7j), 0.5 * r * np.exp(-1.9j)), p)
            assert abs(gap) <= (1e-9 if r > 0.6 else 1e-12), (r, gap)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    def test_library_bracket_matches_the_formula(self, disk16, p):
        # duality_bracket on the cases above against _duality_gap, which
        # builds its representer unsmoothed; the lower end is the
        # evaluation's own K
        bidisc = PolySpace.build(Domain.bidisc())
        xi1 = Functional.from_string("0: 1; 1: 0.5", 1)
        xi2 = Functional.from_string("0,0: 1; 1,0: 0.5; 0,1: -0.3j", 2)
        cases = [(disk16, xi1, r * np.exp(1.1j)) for r in (0.0, 0.3, 0.6, 0.9)]
        cases += [(bidisc, xi2, (r * np.exp(0.7j), 0.5 * r * np.exp(-1.9j)))
                  for r in (0.3, 0.6, 0.9)]
        for space, xi, z in cases:
            ev = diagonal(space, xi, z, p)
            bracket = duality_bracket(space, xi, ev)
            assert bracket.K_lower == ev.K
            assert abs(bracket.gap - _duality_gap(space, xi, z, p)) <= 1e-12, z

    def test_p1_gap_carries_the_smoothing(self, disk16):
        # at p = 1 (q = infinity) the bound is the largest |g|, and the
        # smoothed representer leaves a small nonnegative gap
        xi = Functional.from_string("0: 1; 1: 0.5", 1)
        for r in (0.0, 0.3, 0.6, 0.9):
            ev = diagonal(disk16, xi, r * np.exp(1.1j), 1.0)
            gap = duality_bracket(disk16, xi, ev).gap
            assert 0.0 <= gap <= 1e-4, (r, gap)

    def test_no_bracket_below_p1(self, disk16):
        xi = Functional.delta((0,))
        ev = diagonal(disk16, xi, 0.3 + 0j, 0.8)
        with pytest.raises(ValueError):
            duality_bracket(disk16, xi, ev)
