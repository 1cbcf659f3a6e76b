"""Higher-order kernels: jet constraints, functional families, outer inf."""

import math

import numpy as np
import pytest

from xibergman import (
    AlgebraError,
    Domain,
    Functional,
    FunctionalFamily,
    HomogeneousPolynomial,
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
    jet_constrained_kernel,
    kernel2_diagonal,
    minimizing_xi_p2,
    orthonormal_basis,
    taylor_shift,
)


@pytest.fixture(scope="module")
def disk16():
    return PolySpace.build(Domain.disk(), degree=16)


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

    def test_jet_constraint_drops_directions(self, disk16):
        # forcing f'(0) = 0 leaves the constant extremal untouched
        ev = jet_constrained_kernel(disk16, [MultiIndex((1,))],
                                    Functional.delta((0,)), 0j, 2.0)
        assert ev.K == pytest.approx(1 / math.pi, rel=1e-10)

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

    def test_basis_from_another_point_rejected(self, disk16):
        H = HomogeneousPolynomial.from_string("z: 1")
        with pytest.raises(ValueError):
            minimizing_xi_p2(disk16, H, 0.3 + 0j,
                             basis=orthonormal_basis(disk16, 0j))


class TestViaInf:
    def test_matches_direct_p2(self, disk16):
        H = HomogeneousPolynomial.from_string("z: 1")
        res = higher_kernel_via_inf(disk16, H, 0.3 + 0j, 2.0)
        direct = higher_kernel_direct(disk16, H, 0.3 + 0j, 2.0)
        assert res.K == pytest.approx(direct.K, rel=1e-7)
        assert res.inner_calls >= 2

    def test_p2_factorizes_once(self, monkeypatch):
        # the jet-constrained columns are the trailing block of the basis
        # orthonormalized at z, so the direct value reuses its factor, and
        # every inner call of the outer minimization solves in that basis
        from xibergman import kernels, pspace
        space = PolySpace.build(Domain.disk(), degree=6, radial_order=12, angular_order=24)
        calls = []
        original = pspace._orthonormal_transform

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pspace, "_orthonormal_transform", spy)
        monkeypatch.setattr(kernels, "_orthonormal_transform", spy)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        z = 0.3 + 0.1j
        for p in (2.0, 1.5):
            calls.clear()
            res = higher_kernel_via_inf(space, H, z, p)
            assert len(calls) == 1 and res.inner_calls > 100
            ob = orthonormal_basis(space, z)
            shared = higher_kernel_direct(space, H, z, p, basis=ob)
            separate = higher_kernel_direct(space, H, z, p)
            assert len(calls) == 3
            assert shared.K == pytest.approx(separate.K, rel=1e-13)
            # a shared basis is the one a fresh call would build: equal bits
            xi = FunctionalFamily(H).member(res.free_part)
            assert (kernels._constrained_kernel(space, xi, z, p, exact=p == 2, basis=ob).K
                    == diagonal(space, xi, z, p).K)

    def test_identical_starts_run_once(self, disk16, monkeypatch):
        # at the center the exact p = 2 start is the zero start
        import scipy.optimize
        runs = []
        original = scipy.optimize.minimize

        def spy(*args, **kwargs):
            runs.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", spy)
        res = higher_kernel_via_inf(disk16, HomogeneousPolynomial.from_string("z^2: 1"), 0j, 2.0)
        assert len(runs) == 1
        assert res.starts[0] == res.starts[1]

    def test_matches_direct_p15(self, disk16):
        H = HomogeneousPolynomial.from_string("z: 1")
        res = higher_kernel_via_inf(disk16, H, 0j, 1.5)
        direct = higher_kernel_direct(disk16, H, 0j, 1.5)
        assert res.K == pytest.approx(direct.K, rel=1e-4)
        assert not res.flags

    def test_degree_zero_shortcut(self, disk16):
        H = HomogeneousPolynomial.constant(1.0)
        res = higher_kernel_via_inf(disk16, H, 0.2 + 0j, 2.0)
        assert res.inner_calls == 1
        assert res.free_part == ()
