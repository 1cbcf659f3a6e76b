"""Truncated spaces, quadrature norms, and orthonormalization."""

import math
import tracemalloc

import numpy as np
import pytest

from xibergman import (
    Domain,
    Functional,
    MultiIndex,
    PolySpace,
    Quadrature,
    enumerate_upto_degree,
    gram_matrix,
    kernel2_diagonal,
    lp_norm,
    orthonormal_basis,
    sup_bound_constant,
)
from xibergman.pspace import RankLossError


@pytest.fixture(scope="module")
def disk16():
    return PolySpace.build(Domain.disk(), degree=16)


class TestNorms:
    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_monomial_lp_norm_disk(self, disk16, k, p):
        # int_disk |z^k|^p = 2 pi / (p k + 2)
        vec = np.zeros(disk16.size, dtype=complex)
        vec[disk16.index_position()[MultiIndex((k,))]] = 1.0
        expect = (2 * math.pi / (p * k + 2)) ** (1 / p)
        # fractional p makes the radial integrand non-polynomial, so the
        # 32-node rule is accurate but not exact
        rel = 1e-12 if p in (1.0, 2.0) else 1e-9
        assert lp_norm(vec, disk16, p) == pytest.approx(expect, rel=rel)

    def test_gram_diagonal(self, disk16):
        G = gram_matrix(disk16)
        for k in range(5):
            j = disk16.index_position()[MultiIndex((k,))]
            assert G[j, j].real == pytest.approx(math.pi / (k + 1), rel=1e-12)
            assert abs(G[j, (j + 1) % disk16.size]) < 1e-14


class TestOrthonormalBasis:
    def test_disk_sigma_closed_form(self, disk16):
        # at the origin the flag basis is sqrt((k+1)/pi) z^k
        ob = orthonormal_basis(disk16, 0j)
        for k in (0, 1, 4):
            s = ob.sigma(k)
            lead = s.coefficient(MultiIndex((k,)))
            assert abs(lead) == pytest.approx(math.sqrt((k + 1) / math.pi), rel=1e-10)

    def test_basis_is_orthonormal(self, disk16):
        ob = orthonormal_basis(disk16, 0.3 + 0.1j)
        V = ob.node_values()
        w = disk16.quadrature.weights
        G = V.conj().T @ (w[:, None] * V)
        assert np.max(np.abs(G - np.eye(disk16.size))) < 1e-10

    def test_jet_flag_structure(self, disk16):
        # element j has order-j contact: earlier Taylor coefficients vanish
        z = 0.2 - 0.4j
        ob = orthonormal_basis(disk16, z)
        for j in (1, 3, 6):
            s = ob.sigma(j)
            for i in range(j):
                assert abs(Functional.delta((i,)).max_abs_coeff() *
                           s.coefficient(MultiIndex((i,)))) < 1e-10

    def test_tiny_disk_still_orthonormalizes(self):
        # column scaling on a small domain must not masquerade as rank loss
        space = PolySpace.build(Domain.disk(0.04, center=0.46 + 0j), degree=16)
        ob = orthonormal_basis(space, 0.46 + 0j)
        V = ob.node_values()
        w = space.quadrature.weights
        G = V.conj().T @ (w[:, None] * V)
        assert np.max(np.abs(G - np.eye(space.size))) < 1e-8


class TestBergmanSeries:
    @pytest.mark.parametrize("x", [0.0, 0.2, 0.45])
    def test_disk_kernel_matches_closed_form(self, disk16, x):
        ev = kernel2_diagonal(disk16, Functional.delta((0,)), x + 0j)
        expect = 1.0 / (math.pi * (1 - x * x) ** 2)
        assert ev.K == pytest.approx(expect, rel=1e-8)

    def test_truncation_increases_to_limit(self):
        # richer spaces only improve the constrained maximum
        xi = Functional.delta((0,))
        vals = []
        for degree in (4, 8, 12, 16):
            space = PolySpace.build(Domain.disk(), degree=degree)
            vals.append(kernel2_diagonal(space, xi, 0.45 + 0j).K)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        expect = 1.0 / (math.pi * (1 - 0.45**2) ** 2)
        assert vals[-1] == pytest.approx(expect, rel=1e-6)


def _hand_built_space():
    # scattered nodes with no ring structure: read as rings of one angle
    rng = np.random.default_rng(4)
    dom = Domain.disk()
    nodes = (0.9 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40)))
    quad = Quadrature(dom, nodes[:, None], rng.uniform(0.05, 0.1, 40), 0, 0)
    return PolySpace(dom, quad, enumerate_upto_degree(1, 5), (0j,))


RING_SPACES = {
    "disk": lambda: PolySpace.build(Domain.disk(), degree=16),
    "annulus": lambda: PolySpace.build(Domain.annulus(0.5, 1.0), degree=6),
    "off-centre polydisc": lambda: PolySpace.build(
        Domain.polydisc((1.0, 0.5), (0.2 + 0.1j, -0.3j)), degree=4,
        radial_order=6, angular_order=8),
    "ball:2": lambda: PolySpace.build(Domain.ball(1.0, 2), degree=4,
                                      radial_order=6, angular_order=8),
    "ball:3": lambda: PolySpace.build(Domain.ball(1.0, 3), degree=3,
                                      radial_order=4, angular_order=6),
    "hand-built": _hand_built_space,
    # degree 10 on 8 angles: z^k and z^(k+8) share an FFT bin
    "aliased disk": lambda: PolySpace.build(Domain.disk(), degree=10,
                                            radial_order=8, angular_order=8),
}


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _dense_values(space):
    # phi_alpha at every node, straight from the nodes and exponents
    offsets = space.quadrature.nodes - np.asarray(space.center)
    return np.prod(offsets[:, None, :] ** space.exponents[None, :, :], axis=2)


class TestRingOperator:
    @pytest.mark.parametrize("name", list(RING_SPACES))
    def test_gram_and_adjoint_equal_the_node_sums(self, name):
        space = RING_SPACES[name]()
        phi = _dense_values(space)
        rng = np.random.default_rng(9)
        q = space.quadrature.node_count
        omega = rng.uniform(0.5, 2.0, q)
        v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        assert _rel(space.ring.gram(omega), phi.conj().T @ (omega[:, None] * phi)) < 1e-12
        assert _rel(space.ring.adjoint(v), phi.conj().T @ v) < 1e-12

    @pytest.mark.parametrize("name", list(RING_SPACES))
    def test_values_equal_the_node_sums(self, name):
        # exponents that alias share a bin: all of them on the hand-built rule
        space = RING_SPACES[name]()
        phi = _dense_values(space)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
        block = rng.standard_normal((space.size, 3)) + 1j * rng.standard_normal((space.size, 3))
        assert _rel(space.values(c), phi @ c) < 1e-12
        assert _rel(space.values(block), phi @ block) < 1e-12

    @pytest.mark.parametrize("name", ["disk", "off-centre polydisc", "ball:3"])
    def test_shift_matrix_moves_the_node_matrix(self, name):
        # the Taylor jets at z carry the shifted monomials back to the centred ones
        space = RING_SPACES[name]()
        z = tuple(c + 0.2 - 0.1j * j for j, c in enumerate(space.center))
        moved = space.shifted_node_matrix(z) @ space.jet_matrix(z)
        assert _rel(moved, space.shifted_node_matrix(space.center)) < 1e-12


class TestSpaceStructure:
    def test_total_vs_tensor_size(self):
        tot = PolySpace.build(Domain.bidisc(), degree=4, mode="total",
                              radial_order=8, angular_order=16)
        ten = PolySpace.build(Domain.bidisc(), degree=4, mode="tensor",
                              radial_order=8, angular_order=16)
        assert tot.size == 15   # C(4+2, 2)
        assert ten.size == 25   # (4+1)^2
        assert ten.mode == "tensor"

    def test_library_defaults_fit_on_the_bidisc(self):
        space = PolySpace.build(Domain.bidisc())
        assert space.quadrature.node_count == 82_944  # (12 * 24)^2
        assert space.size == 66                       # total degree 10

    def test_oversized_cache_refused_before_allocation(self):
        # degree 48 has 1,225 monomials, so the ring Gram gather on the
        # 144 rings of the default bidisc rule would hold 216 million
        # entries; the refusal must come before any node is built
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                PolySpace.build(Domain.bidisc(), degree=48)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_annulus_is_laurent(self):
        space = PolySpace.build(Domain.annulus(0.5, 1.0), degree=6)
        assert space.laurent
        assert space.size == 13

    def test_values_match_element_evaluation(self, disk16):
        rng = np.random.default_rng(7)
        vec = rng.standard_normal(disk16.size) + 1j * rng.standard_normal(disk16.size)
        f = disk16.element(vec)
        nodes = disk16.quadrature.nodes
        direct = f.evaluate(nodes[:5])
        assert np.allclose(disk16.values(vec)[:5], direct, rtol=1e-12, atol=1e-12)

    def test_constraint_row_reads_taylor_coeffs(self, disk16):
        xi = Functional.from_string("0: 2; 1: -1")
        row = disk16.constraint_row(xi, (0.3 + 0j,))
        pos = disk16.index_position()
        assert row[pos[MultiIndex((0,))]] == pytest.approx(2.0)
        assert row[pos[MultiIndex((1,))]] == pytest.approx(-1.0)

    def test_sup_bound_positive(self):
        c = sup_bound_constant(Domain.disk(), Functional.delta((1,)), 2.0, 0.1)
        assert c > 0 and math.isfinite(c)

    def test_degenerate_nodes_raise(self):
        dom = Domain.disk()
        nodes = np.zeros((4, 1), dtype=complex)  # all nodes coincide
        quad = Quadrature(dom, nodes, np.full(4, 0.25), 0, 0)
        with pytest.raises(RankLossError):
            space = PolySpace(dom, quad, enumerate_upto_degree(1, 3), (0j,))
            orthonormal_basis(space, 0j)
