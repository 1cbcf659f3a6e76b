"""Higher-order kernels: jet constraints, functional families, outer inf."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xibergman import (
    AlgebraError,
    Domain,
    Functional,
    FunctionalFamily,
    HomogeneousPolynomial,
    KernelError,
    MultiIndex,
    PolyCoeffs,
    PolySpace,
    Quadrature,
    RankLossError,
    apply_homogeneous,
    diagonal,
    enumerate_upto_degree,
    higher_kernel_direct,
    higher_kernel_via_inf,
    kernel2_diagonal,
    minimizing_xi_p2,
    taylor_shift,
)


@pytest.fixture(scope="module")
def disk16():
    return PolySpace.build(Domain.disk(), degree=16)


@pytest.fixture(scope="module")
def disk6():
    return PolySpace.build(Domain.disk(), degree=6, radial_order=12, angular_order=24)


class TestHomogeneous:
    def test_parse_and_degree(self):
        H = HomogeneousPolynomial.from_string("z^2: 1")
        assert H.degree == 2
        assert H.dimension == 1

    def test_mixed_degree_rejected(self):
        with pytest.raises(AlgebraError):
            HomogeneousPolynomial(1, 1, {MultiIndex((2,)): 1.0})

    def test_two_variable_parse(self):
        H = HomogeneousPolynomial.from_string("z1 z2: 2, z1^2: 1")
        assert H.degree == 2
        assert H.dimension == 2

    @pytest.mark.parametrize("text,dimension", [("z2: 1", 1), ("z1 z3^2: 1", 2)])
    def test_coordinate_beyond_dimension_rejected(self, text, dimension):
        with pytest.raises(AlgebraError, match="exceeds"):
            HomogeneousPolynomial.from_string(text, dimension=dimension)

    def test_pairing_is_scaled_derivative(self):
        # degree-k pairing applies a_alpha alpha! to the Taylor data, i.e.
        # the plain derivative d^2 f at z for H = z^2
        H = HomogeneousPolynomial.from_string("z^2: 1")
        f = PolyCoeffs.monomial(MultiIndex((3,)), 0j)  # f = z^3
        z = 0.4 + 0j
        got = apply_homogeneous(H, f, z)
        expect = 2 * taylor_shift(f, z).coefficient(MultiIndex((2,)))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_constant_pairing_is_evaluation(self):
        H = HomogeneousPolynomial.constant(2.0)
        f = PolyCoeffs.monomial(MultiIndex((1,)), 0j, coeff=3.0)
        assert apply_homogeneous(H, f, 0.5 + 0j) == pytest.approx(3.0)


class TestFamily:
    def test_top_coefficients_fixed(self):
        H = HomogeneousPolynomial.from_string("z^2: 1")
        family = FunctionalFamily(H)
        xi = family.fixed_member()
        # top entry carries the factorial normalization
        assert xi[MultiIndex((2,))] == pytest.approx(2.0)
        assert family.free_indices == (MultiIndex((0,)), MultiIndex((1,)))

    def test_member_at_zero_is_fixed(self):
        family = FunctionalFamily(HomogeneousPolynomial.from_string("z: 1"))
        a = family.member((0j,))
        b = family.fixed_member()
        assert a.to_json_dict() == b.to_json_dict()

    def test_member_places_free_coeffs(self):
        family = FunctionalFamily(HomogeneousPolynomial.from_string("z: 1"))
        xi = family.member((0.5 + 0.25j,))
        assert xi[MultiIndex((0,))] == pytest.approx(0.5 + 0.25j)


class TestDirect:
    @pytest.mark.parametrize("k,p", [(1, 2.0), (2, 2.0), (1, 1.5)])
    def test_origin_closed_form(self, disk16, k, p):
        # factorial action on z^k plus the monomial extremal value
        H = HomogeneousPolynomial.monomial(MultiIndex((k,)))
        ev = higher_kernel_direct(disk16, H, 0j, p)
        expect = math.factorial(k) ** p * (p * k + 2) / (2 * math.pi)
        rel = 1e-9 if p == 2 else 1e-6
        assert ev.K == pytest.approx(expect, rel=rel)

    def test_degree_zero_reduces_to_plain_kernel(self, disk16):
        H = HomogeneousPolynomial.constant(1.0)
        a = higher_kernel_direct(disk16, H, 0.3 + 0j, 2.0)
        b = diagonal(disk16, Functional.delta((0,)), 0.3 + 0j, 2.0)
        assert a.K == pytest.approx(b.K, rel=1e-12)

    def test_p2_routes_share_the_rank_guard(self):
        # four coincident nodes: every non-constant monomial vanishes on the
        # rule, so both exact p = 2 routes must refuse the same way
        dom = Domain.disk()
        quad = Quadrature(dom, np.zeros((4, 1), dtype=complex), np.full(4, 0.25), 0, 0)
        space = PolySpace(dom, quad, enumerate_upto_degree(1, 3), (0j,))
        with pytest.raises(RankLossError):
            kernel2_diagonal(space, Functional.delta((1,)), 0j)
        with pytest.raises(RankLossError):
            higher_kernel_direct(space, HomogeneousPolynomial.from_string("z: 1"),
                                 0j, 2.0)

    def test_sandwich_against_family(self, disk16):
        H = HomogeneousPolynomial.from_string("z^2: 1")
        family = FunctionalFamily(H)
        rng = np.random.default_rng(5)
        direct = higher_kernel_direct(disk16, H, 0.3 + 0j, 2.0).K
        for _ in range(8):
            free = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in family.free_indices)
            K_member = kernel2_diagonal(disk16, family.member(free), 0.3 + 0j).K
            assert K_member >= direct - 1e-8


class TestMinimizingFunctional:
    def test_origin_has_no_free_part(self, disk16):
        H = HomogeneousPolynomial.from_string("z^2: 1")
        xi = minimizing_xi_p2(disk16, H, 0j)
        assert abs(xi[MultiIndex((0,))]) < 1e-12
        assert abs(xi[MultiIndex((1,))]) < 1e-12
        assert xi[MultiIndex((2,))] == pytest.approx(2.0)

    def test_achieves_the_infimum(self, disk16):
        H = HomogeneousPolynomial.from_string("z: 1")
        z = 0.3 + 0j
        xi = minimizing_xi_p2(disk16, H, z)
        direct = higher_kernel_direct(disk16, H, z, 2.0).K
        assert kernel2_diagonal(disk16, xi, z).K == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("domain,mode,text,z", [
        (Domain.disk(), "total", "z^5: 1", 0.1j),
        (Domain.bidisc(), "tensor", "z1^4: 1", (0.1, 0.2j)),
    ])
    def test_orders_outside_the_space_rejected(self, domain, mode, text, z):
        # degree 2 lacks an order below k: past the truncation degree on
        # the disk, and z1^3 on the per-axis bidisc although z1^2 z2^2 fits
        space = PolySpace.build(domain, degree=2, radial_order=6,
                                angular_order=12, mode=mode)
        H = HomogeneousPolynomial.from_string(text, dimension=domain.dimension)
        with pytest.raises(KernelError):
            minimizing_xi_p2(space, H, z)
        with pytest.raises(KernelError):
            higher_kernel_direct(space, H, z, 2.0)


class TestViaInf:
    def test_matches_direct_p2(self, disk16):
        H = HomogeneousPolynomial.from_string("z: 1")
        res = higher_kernel_via_inf(disk16, H, 0.3 + 0j, 2.0)
        direct = higher_kernel_direct(disk16, H, 0.3 + 0j, 2.0)
        assert res.K == pytest.approx(direct.K, rel=1e-7)
        assert res.inner_calls >= 2

    def test_p2_factorizes_once(self, monkeypatch):
        # the jet-constrained columns are the trailing block of the basis
        # orthonormalized at z, which the space keeps: every route at one
        # point, and every inner call of the outer minimization, solves in it
        from xibergman import pspace
        space = PolySpace.build(Domain.disk(), degree=6, radial_order=12, angular_order=24)
        calls = []
        original = pspace._orthonormal_transform

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pspace, "_orthonormal_transform", spy)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        z = 0.3 + 0.1j
        for p in (2.0, 1.5):
            res = higher_kernel_via_inf(space, H, z, p)
            assert res.inner_calls >= 2
            higher_kernel_direct(space, H, z, p)
            xi = minimizing_xi_p2(space, H, z)
            kernel2_diagonal(space, xi, z)
        assert len(calls) == 1

    def test_matches_direct_p15(self, disk16):
        H = HomogeneousPolynomial.from_string("z: 1")
        res = higher_kernel_via_inf(disk16, H, 0j, 1.5)
        direct = higher_kernel_direct(disk16, H, 0j, 1.5)
        assert res.K == pytest.approx(direct.K, rel=1e-4)
        assert not res.flags

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_envelope_gradient_matches_differences(self, disk16, p):
        # d log K / d xi_alpha is p times the inner minimizer's free jet
        from xibergman import higher
        family = FunctionalFamily(HomogeneousPolynomial.from_string("z^2: 1"))
        z = 0.3 + 0.2j
        x = np.array([0.4, -0.2, -0.3, 0.5])
        logK, grad = higher._log_kernel_and_gradient(disk16, family, z, p, x)
        h = 1e-4
        diffs = np.empty(len(x))
        for i in range(len(x)):
            step = h * np.eye(len(x))[i]
            up = higher._log_kernel_and_gradient(disk16, family, z, p, x + step)[0]
            down = higher._log_kernel_and_gradient(disk16, family, z, p, x - step)[0]
            diffs[i] = (math.exp(up) - math.exp(down)) / (2 * h)
        dK = math.exp(logK) * grad
        assert np.abs(diffs - dK).max() <= 1e-6 * np.abs(dK).max()

    @pytest.mark.parametrize("text", ["z: 1", "z^2: 1", "z^3: 1"])
    def test_converges_to_direct(self, disk6, text):
        # off the center the infimum converges to the direct value
        H = HomogeneousPolynomial.from_string(text)
        for z in (0.3 + 0.2j, 0.25j):
            for p in (1.2, 1.5, 3.0):
                res = higher_kernel_via_inf(disk6, H, z, p)
                direct = higher_kernel_direct(disk6, H, z, p)
                assert not res.flags
                assert res.K == pytest.approx(direct.K, rel=1e-10)

    def test_inner_solves_start_warm(self, disk16, monkeypatch):
        # every inner solve after the first starts from the last minimizer
        from xibergman import kernels
        starts = []
        original = kernels.solve_affine_lp

        def spy(*args, **kwargs):
            starts.append(kwargs.get("start"))
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "solve_affine_lp", spy)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        res = higher_kernel_via_inf(disk16, H, 0.4 * np.exp(0.9j), 1.5)
        # the direct value, then the inner calls
        assert len(starts) == res.inner_calls + 1 and res.inner_calls >= 3
        assert starts[0] is None and starts[1] is None
        assert all(start is not None for start in starts[2:])
        assert len(res.starts) == 1
        assert not res.flags

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_run_from_the_p2_minimizer(self, disk16, monkeypatch, p):
        # one BFGS run, from the exact p = 2 minimizer off p = 2 and from
        # zero at p = 2, where that minimizer would leave nothing to search
        from xibergman import higher
        points = []
        original = higher._log_kernel_and_gradient

        def spy(*args, **kwargs):
            points.append(args[-1].copy())
            return original(*args, **kwargs)

        monkeypatch.setattr(higher, "_log_kernel_and_gradient", spy)
        H = HomogeneousPolynomial.from_string("z^3: 1")
        z = 0.3 + 0.2j
        res = higher_kernel_via_inf(disk16, H, z, p)
        xi2 = minimizing_xi_p2(disk16, H, z)
        free = FunctionalFamily(H).free_indices
        expected = np.zeros(2 * len(free))
        if p != 2:
            expected[0::2] = [xi2[idx].real for idx in free]
            expected[1::2] = [xi2[idx].imag for idx in free]
        assert np.array_equal(points[0], expected)
        assert len(res.starts) == 1 and res.inner_calls == len(points)

    @given(k=st.integers(1, 3),
           r=st.floats(0.0, 0.5), theta=st.floats(0.0, 2 * math.pi),
           a=st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
           p=st.floats(1.2, 4.0))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_property_matches_direct(self, disk6, k, r, theta, a, p):
        H = HomogeneousPolynomial.monomial((k,), a)
        z = r * complex(math.cos(theta), math.sin(theta))
        res = higher_kernel_via_inf(disk6, H, z, p)
        direct = higher_kernel_direct(disk6, H, z, p)
        assert not res.flags
        assert res.K == pytest.approx(direct.K, rel=1e-10)

    def test_precision_loss_at_the_floor_converges(self, disk6, monkeypatch):
        # rounding of 1e-12 in log K, below the OBJ_TOL the inner solve
        # resolves, makes the line search fail next to the minimum; such a
        # stop is converged, not a stall
        import scipy.optimize
        from xibergman import higher
        original = higher._log_kernel_and_gradient

        def rounded(*args, **kwargs):
            logK, grad = original(*args, **kwargs)
            return logK + 1e-12 * float(np.sin(1e9 * args[-1]).sum()), grad

        statuses = []
        minimize = scipy.optimize.minimize

        def spy(*args, **kwargs):
            res = minimize(*args, **kwargs)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(higher, "_log_kernel_and_gradient", rounded)
        monkeypatch.setattr(scipy.optimize, "minimize", spy)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        res = higher_kernel_via_inf(disk6, H, 0.3 + 0.2j, 3.0)
        assert statuses == [2]
        assert not res.flags
        direct = higher_kernel_direct(disk6, H, 0.3 + 0.2j, 3.0)
        assert res.K == pytest.approx(direct.K, rel=1e-10)

    def test_stall_is_flagged(self, disk6, monkeypatch):
        # a gradient of the wrong sign makes every line search fail far
        # from the minimum, which must not pass for convergence
        from xibergman import higher
        original = higher._log_kernel_and_gradient

        def uphill(*args, **kwargs):
            logK, grad = original(*args, **kwargs)
            return logK, -grad

        monkeypatch.setattr(higher, "_log_kernel_and_gradient", uphill)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        res = higher_kernel_via_inf(disk6, H, 0.3 + 0.2j, 1.5)
        assert res.flags == ("outer-non-convergence",)
        assert res.K >= higher_kernel_direct(disk6, H, 0.3 + 0.2j, 1.5).K

    def test_degree_zero_shortcut(self, disk16):
        H = HomogeneousPolynomial.constant(1.0)
        res = higher_kernel_via_inf(disk16, H, 0.2 + 0j, 2.0)
        assert res.inner_calls == 1
        assert res.free_part == ()
