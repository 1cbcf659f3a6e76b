"""Multi-index order, functional arithmetic, and Taylor recentering."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xibergman import (
    AlgebraError,
    Domain,
    Functional,
    MultiIndex,
    PolyCoeffs,
    PolySpace,
    enumerate_upto_degree,
    functional_apply,
    prec_compare,
    taylor_shift,
)


def all_indices(dimension, degree):
    return enumerate_upto_degree(dimension, degree)


class TestOrder:
    def test_graded_by_degree(self):
        idx = all_indices(2, 4)
        for a, b in itertools.combinations(idx, 2):
            if a.degree < b.degree:
                assert prec_compare(a, b) < 0
            elif a.degree > b.degree:
                assert prec_compare(a, b) > 0

    def test_total_antisymmetric_transitive(self):
        idx = all_indices(2, 3)
        for a, b in itertools.product(idx, idx):
            cab, cba = prec_compare(a, b), prec_compare(b, a)
            assert cab == -cba
            assert (cab == 0) == (a == b)
        for a, b, c in itertools.product(idx, idx, idx):
            if prec_compare(a, b) < 0 and prec_compare(b, c) < 0:
                assert prec_compare(a, c) < 0

    def test_enumeration_is_sorted_and_complete(self):
        idx = all_indices(3, 3)
        assert len(idx) == 20  # C(3+3, 3)
        for a, b in zip(idx, idx[1:]):
            assert prec_compare(a, b) < 0

    def test_sort_key_matches_comparison(self):
        idx = all_indices(2, 4)
        assert sorted(idx, key=lambda a: a.sort_key()) == idx


class TestMultiIndex:
    def test_degree_and_factorial(self):
        a = MultiIndex((2, 1))
        assert a.degree == 3
        assert a.factorial() == 2

    def test_zero(self):
        z = MultiIndex.zero(3)
        assert z.degree == 0
        assert z.dimension == 3

    def test_negative_entries_flag_laurent(self):
        a = MultiIndex((-2,))
        assert not a.is_taylor
        assert MultiIndex((2,)).is_taylor


class TestFunctional:
    def test_delta_support(self):
        xi = Functional.delta((1, 0))
        assert xi.support() == [MultiIndex((1, 0))]
        assert xi.degree == 1
        assert not xi.is_zero

    def test_from_string_matches_delta(self):
        xi = Functional.from_string("2: 1")
        assert xi.to_json_dict() == Functional.delta((2,)).to_json_dict()

    def test_json_roundtrip(self):
        xi = Functional.from_string("0: 1; 2: 0.5+1j")
        back = Functional.from_json_dict(xi.to_json_dict())
        assert back.to_json_dict() == xi.to_json_dict()

    def test_zero_functional(self):
        assert Functional(1, {}).is_zero

    def test_mismatched_dimension_rejected(self):
        xi = Functional.delta((1,))
        eta = Functional.delta((1, 0))
        with pytest.raises(AlgebraError):
            xi.plus(eta)

    @given(
        c1=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        c2=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        s=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_action_is_linear(self, c1, c2, s):
        xi = Functional.delta((0,), coeff=c1).plus(Functional.delta((2,), coeff=c2))
        f = PolyCoeffs.monomial(MultiIndex((2,)), 0j).plus(
            PolyCoeffs.monomial(MultiIndex((0,)), 0j, coeff=3.0))
        z = 0.4 + 0.1j
        lhs = functional_apply(xi.scaled(s), f, z)
        rhs = s * functional_apply(xi, f, z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestPolyCoeffs:
    def test_monomial_evaluation(self):
        f = PolyCoeffs.monomial(MultiIndex((3,)), 0j, coeff=2.0)
        vals = f.evaluate(np.array([0.5 + 0j]))
        assert vals[0] == pytest.approx(2 * 0.5**3)

    def test_jet_reads_taylor_coefficients(self):
        # f(z) = (z - 1)^2 has jet {1, -2, 1} at center 1 shifted to 0
        f = PolyCoeffs.monomial(MultiIndex((2,)), 1.0 + 0j)
        g = taylor_shift(f, 0j)
        assert g.coefficient(MultiIndex((0,))) == pytest.approx(1.0)
        assert g.coefficient(MultiIndex((1,))) == pytest.approx(-2.0)
        assert g.coefficient(MultiIndex((2,))) == pytest.approx(1.0)

    def test_laurent_band(self):
        f = PolyCoeffs(1, (0j,), {MultiIndex((-1,)): 2.0, MultiIndex((0,)): 1.0})
        assert f.is_laurent
        assert f.band == 1
        vals = f.evaluate(np.array([0.5 + 0j]))
        assert vals[0] == pytest.approx(2.0 / 0.5 + 1.0)


coeff_box = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@st.composite
def polynomials(draw, max_degree=8):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    center = draw(st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False))
    terms = draw(st.dictionaries(
        st.integers(min_value=0, max_value=degree), coeff_box, min_size=1, max_size=5))
    f = None
    for k, c in terms.items():
        mono = PolyCoeffs.monomial(MultiIndex((k,)), center, coeff=c)
        f = mono if f is None else f.plus(mono)
    return f


class TestShift:
    @given(f=polynomials(), w=st.complex_numbers(max_magnitude=1,
                                                 allow_nan=False, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, f, w):
        g = taylor_shift(taylor_shift(f, w), f.center[0])
        pts = np.array([0.3 + 0.2j, -0.5 + 0j, 0.1 - 0.7j])
        # binomial growth on the way out bounds the roundtrip error
        scale = max(1.0, float(np.max(np.abs(taylor_shift(f, w).evaluate(pts)))),
                    float(np.max(np.abs(f.evaluate(pts)))))
        assert np.max(np.abs(g.evaluate(pts) - f.evaluate(pts))) <= 1e-8 * scale

    def test_shift_preserves_values_exactly_small_case(self):
        f = PolyCoeffs.monomial(MultiIndex((2,)), 0j).plus(
            PolyCoeffs.monomial(MultiIndex((1,)), 0j, coeff=-1.5))
        g = taylor_shift(f, 0.25 + 0.25j)
        pts = np.array([0.1 + 0j, 0.6 - 0.3j])
        assert np.allclose(g.evaluate(pts), f.evaluate(pts), rtol=0, atol=1e-13)


class TestJetRoutes:
    """PolyCoeffs.jet against routes that do not go through it."""

    @pytest.mark.parametrize("domain,mode,degree,z", [
        (Domain.polydisc((1.0, 0.8), center=(0.1j, -0.2)), "total", 6,
         (0.3 - 0.2j, -0.5 + 0.3j)),
        (Domain.bidisc(), "tensor", 4, (-0.4 + 0.1j, 0.2 + 0.5j)),
        (Domain.ball(dimension=3), "total", 4, (0.3j, -0.2 + 0.1j, 0.25)),
    ])
    def test_jets_match_the_jet_matrix(self, domain, mode, degree, z):
        space = PolySpace.build(domain, degree=degree, mode=mode,
                                radial_order=4, angular_order=8)
        rng = np.random.default_rng(3)
        c = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
        ref = space.jet_matrix(z) @ c
        f = space.element(c)
        shifted = taylor_shift(f, z)
        jets = np.array([f.jet(beta, z) for beta in space.indices])
        coeffs = np.array([shifted.coefficient(beta) for beta in space.indices])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(jets - ref)) <= 1e-12 * scale
        assert np.max(np.abs(coeffs - ref)) <= 1e-12 * scale

    @staticmethod
    def _cauchy_pairing(xi, f, z, radius, nodes=64):
        # f^(a)(z)/a! = (1/2 pi i) oint f(w) (w - z)^(-a-1) dw, trapezoid rule
        steps = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        vals = f.evaluate(z + steps)
        return sum(c * np.mean(vals * steps ** -alpha[0]) for alpha, c in xi.terms.items())

    @pytest.mark.parametrize("f,z,radius", [
        (PolyCoeffs(1, (0.2j,), {(k,): (0.5 - 0.3j) ** k + 1 for k in range(9)}),
         0.3 - 0.4j, 0.2),
        # a Laurent element of the annulus 0.4 < |z| < 1, circle kept inside it
        (PolyCoeffs(1, (0j,), {(k,): 1 / (1 + abs(k)) + 0.5j * k for k in range(-5, 6)}),
         0.7 * np.exp(0.9j), 0.1),
    ])
    def test_pairing_matches_cauchy_integral(self, f, z, radius):
        xi = Functional(1, {(0,): 0.7, (1,): -1.2 + 0.4j, (2,): 0.3j, (4,): 0.25})
        got = functional_apply(xi, f, z)
        ref = self._cauchy_pairing(xi, f, z, radius)
        assert abs(got - ref) <= 1e-12 * abs(ref)
