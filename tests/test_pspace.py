"""Truncated spaces, quadrature norms, and orthonormalization."""

import math
import tracemalloc

import numpy as np
import pytest

from xibergman import lpsolve, pspace
from xibergman import (
    Domain,
    Functional,
    MultiIndex,
    PolySpace,
    Quadrature,
    build_quadrature,
    diagonal,
    enumerate_upto_degree,
    kernel2_diagonal,
    kernelp_diagonal,
    lp_norm,
    sup_bound_constant,
)
from xibergman.algebra import AlgebraError
from xibergman.pspace import RankLossError, orthonormal_basis


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
        G = disk16.ring.base_gram
        for k in range(5):
            j = disk16.index_position()[MultiIndex((k,))]
            assert G[j, j].real == pytest.approx(math.pi / (k + 1), rel=1e-12)
            assert abs(G[j, (j + 1) % disk16.size]) < 1e-14


class TestOrthonormalBasis:
    def test_disk_sigma_closed_form(self, disk16):
        # at the origin the flag basis is sqrt((k+1)/pi) z^k
        ob = orthonormal_basis(disk16, 0j)
        for k in (0, 1, 4):
            s = disk16.element(ob.transform[:, k], center=0j)
            lead = s.coefficient(MultiIndex((k,)))
            assert abs(lead) == pytest.approx(math.sqrt((k + 1) / math.pi), rel=1e-10)

    def test_basis_is_orthonormal(self, disk16):
        ob = orthonormal_basis(disk16, 0.3 + 0.1j)
        V = disk16.values(ob.coeffs)
        w = disk16.quadrature.weights
        G = V.conj().T @ (w[:, None] * V)
        assert np.max(np.abs(G - np.eye(disk16.size))) < 1e-10

    def test_jet_flag_structure(self, disk16):
        # element j has order-j contact: earlier Taylor coefficients vanish
        z = 0.2 - 0.4j
        ob = orthonormal_basis(disk16, z)
        for j in (1, 3, 6):
            s = disk16.element(ob.transform[:, j], center=z)
            for i in range(j):
                assert abs(Functional.delta((i,)).max_abs_coeff() *
                           s.coefficient(MultiIndex((i,)))) < 1e-10

    def test_tiny_disk_still_orthonormalizes(self):
        # column scaling on a small domain must not masquerade as rank loss
        space = PolySpace.build(Domain.disk(0.04, center=0.46 + 0j), degree=16)
        ob = orthonormal_basis(space, 0.46 + 0j)
        V = space.values(ob.coeffs)
        w = space.quadrature.weights
        G = V.conj().T @ (w[:, None] * V)
        assert np.max(np.abs(G - np.eye(space.size))) < 1e-8


class TestBasisMemo:
    @pytest.fixture
    def transforms(self, monkeypatch):
        calls = []
        original = pspace._orthonormal_transform

        def spy(space, point):
            calls.append(point)
            return original(space, point)

        monkeypatch.setattr(pspace, "_orthonormal_transform", spy)
        return calls

    @pytest.fixture
    def jet_forms(self, monkeypatch):
        # every B(z) = J(z) C^-1 the space forms reads jet_map once
        calls = []
        original = PolySpace.jet_map

        def spy(space, z):
            calls.append(z)
            return original(space, z)

        monkeypatch.setattr(PolySpace, "jet_map", spy)
        return calls

    @staticmethod
    def _space():
        return PolySpace.build(Domain.disk(), degree=8, radial_order=12, angular_order=24)

    def test_repeat_point_reuses_the_basis(self, transforms):
        space = self._space()
        first = orthonormal_basis(space, 0.3 + 0.1j)
        again = orthonormal_basis(space, (0.3 + 0.1j,))
        assert transforms == [(0.3 + 0.1j,)]
        assert again.transform is first.transform and again.coeffs is first.coeffs

    def test_new_point_replaces_the_entry(self, transforms):
        space = self._space()
        orthonormal_basis(space, 0.3 + 0.1j)
        orthonormal_basis(space, -0.2j)
        assert space._point_memo.point == (-0.2j,)
        orthonormal_basis(space, 0.3 + 0.1j)
        assert transforms == [(0.3 + 0.1j,), (-0.2j,), (0.3 + 0.1j,)]

    def test_p2_forms_the_jets_once_per_point(self, transforms, jet_forms):
        # repeated p = 2 values at one point share one B(z) and build no QR
        space = self._space()
        z = 0.3 + 0.1j
        for xs in ("0: 1", "0: 1; 1: 0.5", "2: 1j"):
            kernel2_diagonal(space, Functional.from_string(xs), z)
            diagonal(space, Functional.from_string(xs), (z,), 2.0)
        assert jet_forms == [(z,)] and transforms == []
        assert not pspace._orthonormal_jets(space, z).flags.writeable
        kernel2_diagonal(space, Functional.from_string("0: 1"), -0.2j)
        assert jet_forms == [(z,), (-0.2j,)]

    def test_cached_arrays_reject_writes(self):
        ob = orthonormal_basis(self._space(), 0.3 + 0.1j)
        with pytest.raises(ValueError):
            ob.transform[0, 0] = 0
        with pytest.raises(ValueError):
            ob.coeffs[0, 0] = 0

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_hit_matches_a_fresh_space(self, transforms, jet_forms, p):
        # p = 2 reads only B(z), one form per space; the descent also
        # reads the adapted basis, one QR per space
        xi = Functional.from_string("0: 1; 1: 0.5")
        z = 0.25 - 0.3j
        cached = self._space()
        orthonormal_basis(cached, z)
        hit = kernelp_diagonal(cached, xi, z, p)
        fresh = kernelp_diagonal(self._space(), xi, z, p)
        assert len(jet_forms) == 2
        assert len(transforms) == (1 if p == 2 else 2)
        assert hit.K == fresh.K
        assert hit.minimizer.coeffs == fresh.minimizer.coeffs


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
    quad = Quadrature(dom, nodes[:, None], rng.uniform(0.05, 0.1, 40), 1, 0)
    return PolySpace(dom, quad, enumerate_upto_degree(1, 5))


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
        G = space.ring.gram(omega)
        assert _rel(G, phi.conj().T @ (omega[:, None] * phi)) < 1e-12
        # the Hermitian half of real weights, mirrored: no symmetrization needed
        assert np.array_equal(G, G.conj().T)
        assert _rel(space.ring.adjoint(v), phi.conj().T @ v) < 1e-12
        # the unconjugated twin of the Gram, read at -(alpha + beta)
        assert _rel(space.ring.pair(v), phi.T @ (v[:, None] * phi)) < 1e-12

    def test_pair_holds_no_gather(self):
        # pair reads one table over the exponent sums alpha + beta, so on the
        # default bidisc (144 rings, 66 monomials) a call holds node-size
        # spectra only, not the 10 MB K x N x N gather of gram
        space = PolySpace.build(Domain.bidisc())
        rng = np.random.default_rng(5)
        q = space.quadrature.node_count
        nu = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        space.ring.pair(nu)  # builds the sum tables
        tracemalloc.start()
        try:
            space.ring.pair(nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_gram_holds_no_pair_gather(self):
        # gram reads the transform at the N(N+1)/2 ordered pairs from one
        # (N + K) x H product over its half box of differences, so on the
        # default bidisc (144 rings, 66 monomials) a call never holds the
        # 10 MB K x N x N gather of every pair
        space = PolySpace.build(Domain.bidisc())
        omega = np.random.default_rng(5).uniform(0.5, 2.0, space.quadrature.node_count)
        space.ring.gram(omega)
        tracemalloc.start()
        try:
            space.ring.gram(omega)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_factor_is_the_upper_cholesky_factor(self):
        ring = PolySpace.build(Domain.disk(), degree=24).ring
        C = ring.factor
        assert np.array_equal(C, np.triu(C))
        assert np.all(C.diagonal().imag == 0) and np.all(C.diagonal().real > 0)
        assert _rel(C.conj().T @ C, ring.base_gram) < 1e-14

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
        # and the shift matrix carries the centred ones to the shifted ones
        back = space.shifted_node_matrix(space.center) @ space.shift_matrix(z)
        assert _rel(back, space.shifted_node_matrix(z)) < 1e-12
        assert _rel(space.shift_matrix(z) @ space.jet_matrix(z), np.eye(space.size)) < 1e-12


class TestNewtonStep:
    @pytest.mark.parametrize("p", [0.8, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("name", ["disk", "annulus", "ball:2", "hand-built",
                                      "aliased disk"])
    def test_step_solves_the_dense_newton_system(self, name, p):
        # the step of the ring operator's G and P against the one solved from
        # node-value products: the real matrix of d -> A d + conj(C d) is
        # assembled column by column from its action on e_j and i e_j
        space = RING_SPACES[name]()
        rng = np.random.default_rng(11)
        m = space.size
        ob = orthonormal_basis(space, space.center)
        row = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        Z = lpsolve._null_space(row)
        M = ob.coeffs @ Z
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if p < 1:
            # below p = 1 the Newton matrix is definite only near a local
            # minimizer, so the iterate is the solver's best one for the row
            u = lpsolve.solve_affine_lp(space.ring, ob.coeffs, row, p).coeffs
        g = space.values(ob.coeffs @ u)
        a2 = np.abs(g) ** 2
        _, rho, inv_s, _ = lpsolve._smoothed(a2, p)
        wr = space.quadrature.weights * rho
        pairing = M.conj().T @ space.ring.adjoint(wr * g)
        d = lpsolve._newton_step(space.ring, M, wr, g, a2, inv_s, pairing, p, with_pair=True)
        assert d is not None

        V = _dense_values(space) @ M
        bend = 0.5 * p - 1.0
        A = V.conj().T @ ((wr * (1.0 + bend * a2 * inv_s))[:, None] * V)
        C = bend * V.T @ ((wr * np.conj(g) ** 2 * inv_s)[:, None] * V)
        n = m - 1
        columns = []
        for e in np.vstack([np.eye(n), 1j * np.eye(n)]).astype(complex):
            image = A @ e + np.conj(C @ e)
            columns.append(np.concatenate([image.real, image.imag]))
        H = np.array(columns).T
        x = np.linalg.solve(H, -np.concatenate([pairing.real, pairing.imag]))
        # there, nodes near a zero of f carry weights |f|^(p-2), so the
        # matrix has condition 1e3-1e8 and both solves are accurate to that
        # times the rounding unit
        tol = 1e-10 if p >= 1 else 1e-15 * np.linalg.cond(H)
        assert _rel(d, x[:n] + 1j * x[n:]) < tol

    def test_real_system_is_the_block_assembly(self, monkeypatch):
        # the filled real Newton matrix of every Newton step of a bidisc
        # solve equals numpy's block assembly of the same A and C bit for bit
        seen = []
        fill = lpsolve._real_system

        def spy(A, C):
            H = fill(A, C)
            seen.append((A, C, H))
            return H

        monkeypatch.setattr(lpsolve, "_real_system", spy)
        space = PolySpace.build(Domain.bidisc())
        xi = Functional.from_string("0,0: 1; 1,0: 0.5; 0,1: -0.3j", 2)
        kernelp_diagonal(space, xi, (0.35 * np.exp(0.7j), 0.35 * np.exp(-1.9j)), 1.5)
        assert seen
        for A, C, H in seen:
            block = np.block([[A.real + C.real, -A.imag - C.imag],
                              [A.imag - C.imag, A.real - C.real]])
            # bytes, so that a -0.0 against a 0.0 counts too
            assert H.shape == block.shape and H.tobytes() == block.tobytes()

    def test_cholesky_solve_tests_definiteness(self):
        # a real 2n x 2n Newton-sized system and a complex Hermitian one:
        # the positive definite ones solve as numpy's general solve does,
        # an indefinite symmetric one raises numpy's LinAlgError
        rng = np.random.default_rng(12)
        n = 6
        real = rng.standard_normal((2 * n, 2 * n))
        cplx = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for B in (real, cplx):
            rhs = rng.standard_normal(len(B)) + (1j * rng.standard_normal(len(B))
                                                 if np.iscomplexobj(B) else 0.0)
            spd = B.conj().T @ B + np.eye(len(B))
            x = lpsolve._cholesky_solve(spd, rhs)
            assert _rel(x, np.linalg.solve(spd, rhs)) < 1e-14
            assert _rel(spd @ x, rhs) < 1e-13
            eigvals, vecs = np.linalg.eigh(spd)
            indefinite = (vecs * np.where(np.arange(len(B)) % 2, eigvals, -eigvals)) @ vecs.conj().T
            with pytest.raises(np.linalg.LinAlgError):
                lpsolve._cholesky_solve(indefinite, rhs)


class TestSpaceStructure:
    def test_total_vs_tensor_size(self):
        tot = PolySpace.build(Domain.bidisc(), degree=4, mode="total",
                              radial_order=8, angular_order=16)
        ten = PolySpace.build(Domain.bidisc(), degree=4, mode="tensor",
                              radial_order=8, angular_order=16)
        assert tot.size == 15   # C(4+2, 2)
        assert ten.size == 25   # (4+1)^2

    def test_library_defaults_fit_on_the_bidisc(self):
        space = PolySpace.build(Domain.bidisc())
        assert space.quadrature.node_count == 82_944  # (12 * 24)^2
        assert space.size == 66                       # total degree 10

    @pytest.mark.parametrize("domain, orders", [
        (Domain.disk(), (32, 64)),
        (Domain.bidisc(), (12, 24)),
        (Domain.ball(1.0, 2), (12, 24)),
        (Domain.ball(1.0, 3), (6, 14)),
        (Domain.polydisc((1.0, 1.0, 1.0)), (6, 14)),
    ], ids=["disk", "bidisc", "ball:2", "ball:3", "polydisc:1,1,1"])
    def test_default_space_builds(self, domain, orders):
        quad = PolySpace.build(domain).quadrature
        assert (quad.radial_order, quad.angles) == orders

    def test_oversized_cache_refused_before_allocation(self):
        # degree 100 has 5,151 monomials, so with the 144 rings of the
        # default bidisc rule the ring Gram's arrays over its 201 x 101
        # half box of differences would hold 107 million entries; the
        # refusal must come before any node is built
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                PolySpace.build(Domain.bidisc(), degree=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_solves_read_no_nodes(self, monkeypatch):
        # the (Q, n) nodes are derived from the rings on request: check the
        # documented ring-major layout, then that exact and Newton values on
        # the default bidisc and ball:2 rules never ask for them
        dom = Domain.polydisc((1.0, 0.5), (0.2 + 0.1j, -0.3j))
        quad = build_quadrature(dom, 4, 6)
        k, j1, j2 = np.unravel_index(np.arange(quad.node_count), (len(quad.rings), 6, 6))
        turns = np.exp(2j * np.pi * np.stack([j1, j2], axis=-1) / 6)
        assert np.allclose(quad.nodes, np.asarray(dom.center) + quad.rings[k] * turns,
                           rtol=0, atol=1e-15)
        assert np.array_equal(quad.weights, quad.ring_weights[k])

        def refuse(self):
            raise AssertionError("a solve read the node array")

        monkeypatch.setattr(Quadrature, "nodes", property(refuse))
        for dom, z in ((Domain.bidisc(), (0.3, 0.2j)), (Domain.ball(1.0, 2), (0.2, -0.1j))):
            space = PolySpace.build(dom)
            for p in (2.0, 1.5):
                assert diagonal(space, Functional.delta((0, 0)), z, p).K > 0

    @pytest.mark.parametrize("domain,mode", [
        (Domain.disk(0.8, 0.2 - 0.1j), "total"),
        (Domain.bidisc(), "total"),
        (Domain.bidisc(), "tensor"),
        (Domain.ball(1.0, 3), "total"),
    ], ids=["shifted disk", "bidisc", "tensor bidisc", "ball:3"])
    def test_normalized_power_is_the_binomial_series(self, domain, mode):
        # (3 prod_j (1 - a_j w_j)^-2)^e is prod_j (1 - a_j w_j)^(-2e) after
        # the normalization, with coefficients prod_j C(n_j - 1 + s, n_j) a_j^n_j
        space = PolySpace.build(domain, degree=6, radial_order=8, angular_order=16, mode=mode)
        a = np.array([0.6 * np.exp(0.7j), -0.3j, 0.2 + 0.1j])[:domain.dimension]

        def series(s):
            rising = [math.prod(s + j for j in range(k)) / math.factorial(k) for k in range(13)]
            return np.array([math.prod(rising[k] * c ** k for k, c in zip(idx.entries, a))
                             for idx in space.indices])

        f = 3.0 * series(2.0)
        for e in (2.0 / 3.0, 4.0 / 3.0, -0.5, 1.0):
            h = space.normalized_power(f, e)
            assert np.allclose(h, series(2.0 * e), rtol=0, atol=1e-14), e

    def test_normalized_power_needs_a_taylor_series(self):
        space = PolySpace.build(Domain.annulus(0.5, 1.0), degree=3, radial_order=6,
                                angular_order=12)
        with pytest.raises(AlgebraError):
            space.normalized_power(np.ones(space.size), 0.5)

    def test_series_product_is_the_truncated_convolution(self):
        rng = np.random.default_rng(11)
        space = PolySpace.build(Domain.disk(), degree=16)
        a, b = rng.standard_normal((2, space.size)) + 1j * rng.standard_normal((2, space.size))
        full = np.convolve(a, b)[:space.size]
        assert _rel(space.series_product(a, b), full) <= 1e-14
        annulus = PolySpace.build(Domain.annulus(0.5, 1.0), degree=3, radial_order=6,
                                  angular_order=12)
        with pytest.raises(AlgebraError):
            annulus.series_product(np.ones(annulus.size), np.ones(annulus.size))

    @pytest.mark.parametrize("shape", ["bidisc", "ball:3"])
    def test_series_product_matches_a_double_loop(self, shape):
        # every pair of indices whose sum lies in the index set, by hand, on
        # the default bidisc and a degree-6 ball:3
        space = (PolySpace.build(Domain.bidisc()) if shape == "bidisc" else
                 PolySpace.build(Domain.ball(1.0, 3), degree=6, radial_order=8, angular_order=16))
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, space.size)) + 1j * rng.standard_normal((2, space.size))
        pos = space.index_position()
        full = np.zeros(space.size, dtype=complex)
        for i, alpha in enumerate(space.indices):
            for j, beta in enumerate(space.indices):
                k = pos.get(MultiIndex(tuple(x + y for x, y in zip(alpha.entries, beta.entries))))
                if k is not None:
                    full[k] += a[i] * b[j]
        assert _rel(space.series_product(a, b), full) <= 1e-14

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
        rings = np.zeros((4, 1), dtype=complex)  # all nodes coincide
        quad = Quadrature(dom, rings, np.full(4, 0.25), 1, 0)
        with pytest.raises(RankLossError):
            space = PolySpace(dom, quad, enumerate_upto_degree(1, 3))
            orthonormal_basis(space, 0j)
