"""Higher-order kernels: jet constraints, functional families, the family minimum."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xibergman import higher, kernels, lpsolve
from xibergman import (
    AlgebraError,
    Domain,
    Functional,
    FunctionalFamily,
    GreenModel,
    HomogeneousPolynomial,
    KernelError,
    MultiIndex,
    PolyCoeffs,
    PolySpace,
    Quadrature,
    RankLossError,
    apply_homogeneous,
    diagonal,
    duality_bracket,
    enumerate_upto_degree,
    higher_kernel_direct,
    higher_kernel_via_inf,
    kernel2_diagonal,
    minimizing_xi_p2,
    sweep,
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
        # rule, so both exact p = 2 routes and the descent at p = 1.5 and
        # 0.8 must refuse the same way, through the Cholesky factor of the
        # space's Gram
        dom = Domain.disk()
        quad = Quadrature(dom, np.zeros((4, 1), dtype=complex), np.full(4, 0.25), 1, 0)
        space = PolySpace(dom, quad, enumerate_upto_degree(1, 3))
        with pytest.raises(RankLossError):
            kernel2_diagonal(space, Functional.delta((1,)), 0j)
        for p in (2.0, 1.5, 0.8):
            with pytest.raises(RankLossError, match="on this rule"):
                diagonal(space, Functional.delta((1,)), 0j, p)
        for p in (2.0, 1.5):
            with pytest.raises(RankLossError, match="on this rule"):
                higher_kernel_direct(space, HomogeneousPolynomial.from_string("z: 1"),
                                     0j, p)

    def test_jet_constraint_is_shared(self, disk6):
        # every jet-constrained entry point refuses a Laurent basis and
        # p < 1 alike, in the same words
        annulus = PolySpace.build(Domain.annulus(0.5, 1.0), degree=4,
                                  radial_order=8, angular_order=16)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        z = 0.6 + 0.2j
        for route in (lambda: higher_kernel_direct(annulus, H, z, 2.0),
                      lambda: higher_kernel_via_inf(annulus, H, z, 2.0),
                      lambda: minimizing_xi_p2(annulus, H, z)):
            with pytest.raises(KernelError, match="non-Laurent"):
                route()
        message = "^" + re.escape("jet-constrained kernels require p >= 1") + "$"
        model = GreenModel.balanced(Domain.disk())
        for route in (lambda: higher_kernel_direct(disk6, H, 0.2j, 0.8),
                      lambda: higher_kernel_via_inf(disk6, H, 0.2j, 0.8),
                      lambda: sweep(disk6, model, H, 0.8, [-1.0, 0.0])):
            with pytest.raises(ValueError, match=message):
                route()

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
        assert res.inner_calls == 1

    def test_p2_factorizes_once(self, monkeypatch):
        # the basis orthonormalized at z, which the space keeps, is built
        # once, for the p = 1.5 descent; the infimum route's brackets,
        # minimizing_xi_p2 and the p = 2 values read only C^-1 and B(z)
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
            assert res.inner_calls == 1
            higher_kernel_direct(space, H, z, p)
            xi = minimizing_xi_p2(space, H, z)
            kernel2_diagonal(space, xi, z)
        assert len(calls) == 1

    def test_only_the_descent_reads_the_adapted_basis(self, monkeypatch):
        # away from the p != 2 descent every route pairs with the space's
        # own basis C^-1 and its jets B(z): the infimum route at p = 2,
        # minimizing_xi_p2, the bracket of a p = 2 value and verify's
        # uniqueness check build no point-adapted QR
        from xibergman import pspace, verify

        def refuse(*args, **kwargs):
            raise AssertionError("the point-adapted QR ran")

        monkeypatch.setattr(pspace, "_orthonormal_transform", refuse)
        space = PolySpace.build(Domain.disk(), degree=8, radial_order=12, angular_order=24)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        z = 0.3 + 0.1j
        res = higher_kernel_via_inf(space, H, z, 2.0)
        xi = minimizing_xi_p2(space, H, z)
        bracket = duality_bracket(space, xi, kernel2_diagonal(space, xi, z))
        assert not res.flags and abs(bracket.gap) <= 1e-12
        check = verify.run_check("kernels/uniqueness")
        assert check.passed, check.detail

    def test_zero_leading_jet_is_refused(self, disk16, monkeypatch):
        # a zero diagonal entry of R_1 leaves the least squares of
        # minimizing_xi_p2 without a solution: a KernelError, not LinAlgError
        original = higher._low_jets_qr

        def degenerate(*args):
            Q, R = original(*args)
            R = R.copy()
            R[0, 0] = 0.0
            return Q, R

        monkeypatch.setattr(higher, "_low_jets_qr", degenerate)
        with pytest.raises(KernelError):
            minimizing_xi_p2(disk16, HomogeneousPolynomial.from_string("z^2: 1"), 0.3j)

    def test_matches_direct_p15(self, disk16):
        H = HomogeneousPolynomial.from_string("z: 1")
        res = higher_kernel_via_inf(disk16, H, 0j, 1.5)
        direct = higher_kernel_direct(disk16, H, 0j, 1.5)
        assert res.K == pytest.approx(direct.K, rel=1e-4)
        assert not res.flags

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_envelope_gradient_matches_differences(self, disk16, p):
        # d log K / d xi_alpha is p times the minimizer's free jets: the
        # first-order condition the closed-form member satisfies with zero jets
        from xibergman.kernels import _constrained_kernel
        family = FunctionalFamily(HomogeneousPolynomial.from_string("z^2: 1"))
        z = 0.3 + 0.2j
        x = np.array([0.4 - 0.2j, -0.3 + 0.5j])

        def K(free):
            return _constrained_kernel(disk16, family.member(free), z, p).K

        ev = _constrained_kernel(disk16, family.member(x), z, p)
        jets = np.array([ev.minimizer.coefficient(idx) for idx in family.free_indices])
        h = 1e-4
        diffs, dK = [], []
        for i in range(len(x)):
            for step, d in ((h, p * jets[i].real), (1j * h, -p * jets[i].imag)):
                e = step * np.eye(len(x))[i]
                diffs.append((K(x + e) - K(x - e)) / (2 * h))
                dK.append(ev.K * d)
        diffs, dK = np.array(diffs), np.array(dK)
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

    def test_stop_at_p1_is_exact(self, disk16):
        # z^3 far off the centre at p = 1 read as a stalled search before the
        # closed form: the member named by the direct minimizer attains K_H
        H = HomogeneousPolynomial.from_string("z^3: 1")
        z = 0.58 * np.exp(0.9j)
        res = higher_kernel_via_inf(disk16, H, z, 1.0)
        direct = higher_kernel_direct(disk16, H, z, 1.0)
        assert not res.flags
        assert abs(res.K - direct.K) <= 1e-12 * direct.K
        assert res.inner_calls == 1 and res.starts == ((res.K, res.free_part),)

    @pytest.mark.parametrize("domain,text,z", [
        (Domain.disk(), "z: 1", 0.58 * np.exp(0.9j)),
        (Domain.disk(), "z^3: 1", 0.3 + 0.2j),
        (Domain.bidisc(), "z1 z2: 1, z1^2: 0.5",
         (0.3 * np.exp(0.7j), 0.2 * np.exp(-1.1j))),
        (Domain.ball(dimension=2), "z1 z2: 1, z1^2: 0.5",
         (0.3 * np.exp(0.7j), 0.2 * np.exp(-1.1j))),
    ])
    def test_closed_form_is_the_p2_minimizer(self, domain, text, z):
        # at p = 2 the pairing formula and the least squares on the jets of
        # minimizing_xi_p2 are independent routes to one member, and its
        # plain kernel is K_H, the residual of that least squares
        space = PolySpace.build(domain, degree=16 if domain.dimension == 1 else 6,
                                radial_order=None if domain.dimension == 1 else 8,
                                angular_order=None if domain.dimension == 1 else 16)
        H = HomogeneousPolynomial.from_string(text, dimension=domain.dimension)
        res = higher_kernel_via_inf(space, H, z, 2.0)
        xi2 = minimizing_xi_p2(space, H, z)
        free = FunctionalFamily(H).free_indices
        assert max(abs(res.xi_star[idx] - xi2[idx]) for idx in free) <= 1e-12
        assert abs(kernel2_diagonal(space, xi2, z).K - res.K) <= 1e-12 * res.K
        assert not res.flags

    def test_perturbed_member_is_flagged(self, disk16, monkeypatch):
        # a member off the minimizing one has K above K_H, which the upper
        # end of the duality bracket at it exposes
        original = higher._pairing_vector

        def perturbed(*args, **kwargs):
            pairing = original(*args, **kwargs)
            pairing[0] *= 1.01
            return pairing

        monkeypatch.setattr(higher, "_pairing_vector", perturbed)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        z = 0.3 + 0.2j
        res = higher_kernel_via_inf(disk16, H, z, 1.5)
        direct = higher_kernel_direct(disk16, H, z, 1.5)
        assert res.flags == ("inf-not-attained",)
        assert res.K_upper > direct.K

    def test_member_is_solved_from_scratch(self, disk16, monkeypatch):
        # the direct solve is the only one: the duality bracket at xi*
        # certifies the minimum from its minimizer, and the plain solve at
        # xi* from scratch is left to test_member_attains_from_scratch
        calls = []
        original = higher._constrained_kernel

        def spy(space, xi, z, p, low=0, **kwargs):
            calls.append((low, kwargs.get("start")))
            return original(space, xi, z, p, low, **kwargs)

        monkeypatch.setattr(higher, "_constrained_kernel", spy)
        H = HomogeneousPolynomial.from_string("z^2: 1")
        res = higher_kernel_via_inf(disk16, H, 0.4 * np.exp(0.9j), 1.5)
        assert calls == [(2, None)]
        assert res.inner_calls == 1 and not res.flags

    @pytest.mark.parametrize("text", ["z: 1", "z^2: 1", "z^3: 1"])
    def test_member_attains_from_scratch(self, disk6, disk16, text):
        # the plain solve at xi*, from scratch and with no vanishing jets,
        # is the independent check of the member the route no longer solves
        cases = [(disk6, z, p, 1e-10) for z in (0.3 + 0.2j, 0.25j) for p in (1.2, 1.5, 3.0)]
        if text == "z^3: 1":
            cases.append((disk16, 0.58 * np.exp(0.9j), 1.0, 1e-12))
        H = HomogeneousPolynomial.from_string(text)
        for space, z, p, tol in cases:
            res = higher_kernel_via_inf(space, H, z, p)
            direct = higher_kernel_direct(space, H, z, p)
            plain = diagonal(space, res.xi_star, z, p)
            assert plain.K == pytest.approx(direct.K, rel=tol), (z, p)
            if p > 1:
                assert res.K_upper == pytest.approx(direct.K, rel=1e-10), (z, p)

    def test_multiplier_matches_the_top_index_rule(self, disk16):
        # lambda = sum_q w_q rho_q |f_H|^2 against the rule it replaced,
        # lambda = pi_beta / xi_beta at the top index beta of largest
        # |xi_beta|, with its bracket and flags formed here as the route
        # formed them
        bidisc = PolySpace.build(Domain.bidisc(), degree=8)
        cases = [(disk16, f"z^{k}: 1", r * np.exp(1.1j))
                 for k in (1, 2, 3) for r in (0.0, 0.3, 0.58)]
        cases += [(bidisc, "z1 z2: 1, z1^2: 0.5", z)
                  for z in ((0j, 0j), (0.3 * np.exp(0.7j), 0.2 * np.exp(-1.1j)))]
        for space, text, z in cases:
            H = HomogeneousPolynomial.from_string(text, dimension=space.dimension)
            family = FunctionalFamily(H)
            for p in (1.0, 1.5, 2.0, 3.0):
                ev = higher_kernel_direct(space, H, z, p)
                dual = lpsolve._dual(space.ring, ev.coeffs, p)
                pairing = higher._pairing_vector(space, ev.z, dual[2])
                pos = space.index_position()
                beta = max((idx for idx in ev.xi.terms if idx in pos),
                           key=lambda idx: abs(ev.xi[idx]))
                free = pairing[:len(family.free_indices)] / (pairing[pos[beta]] / ev.xi[beta])
                bracket = kernels._bracket(space, family.member(free), ev, dual)
                flags = ev.flags + (("inf-not-attained",) if bracket.gap > higher.ATTAIN_TOL
                                    else ())

                res = higher_kernel_via_inf(space, H, z, p)
                case = (text, z, p)
                scale = max(np.abs(free), default=0.0)
                assert np.max(np.abs(np.array(res.free_part) - free)) <= 1e-10 * scale, case
                assert res.K == ev.K, case
                if p > 1:
                    assert abs(res.duality_gap - bracket.gap) <= 1e-15, case
                assert res.flags == flags, case

    def test_degree_zero_shortcut(self, disk16):
        H = HomogeneousPolynomial.constant(1.0)
        res = higher_kernel_via_inf(disk16, H, 0.2 + 0j, 2.0)
        assert res.inner_calls == 1
        assert res.free_part == ()
        # with no free index the one path is the plain kernel of H's top
        # functional and its duality bracket, bit for bit
        bidisc = PolySpace.build(Domain.bidisc(), degree=6, radial_order=8, angular_order=16)
        cases = [(disk16, 0.2 + 0.1j), (bidisc, (0.3j, -0.2))]
        for space, z in cases:
            H = HomogeneousPolynomial.constant(1.5 - 0.5j, dimension=space.dimension)
            xi = H.top_functional()
            for p in (1.0, 1.5, 2.0, 3.0):
                res = higher_kernel_via_inf(space, H, z, p)
                ev = diagonal(space, xi, z, p)
                assert res.K == ev.K, (space.dimension, p)
                assert res.K_upper == duality_bracket(space, xi, ev).K_upper, (space.dimension, p)
                assert res.free_part == () and res.xi_star.terms == xi.terms
