"""Truncated subspaces of A^p(Omega) and their quadrature sums.

A :class:`PolySpace` is the span of monomials ``(z - center)^alpha`` for a
finite index set (total-degree or per-axis-degree truncation), or of Laurent
monomials ``z^k, |k| <= D`` on an annulus.  All norms and Gram matrices are
taken with respect to the attached quadrature rule, so every inner product
in the package is the same discrete object.

Node values, weighted Gram matrices and adjoints all come from the space's
:class:`RingOperator`, which works ring by ring with discrete Fourier
transforms over the uniform angles, as numpy products with small per-axis
tables restricted to the bins the space reaches; no Q x N array of node
values is kept, and no FFT library is loaded.  The exact Taylor jets
:meth:`PolySpace.jet_matrix` tie the centred monomials to a point z.

The space owns one orthonormal basis, the columns of C^-1 for the ring
factor C (G = C^H C); :func:`_orthonormal_jets` gives their Taylor jets
B(z) = J(z) C^-1 at a point, which is all the p = 2 closed form, the
duality bracket and the p = 2 minimizing functional read.  Only the
descent at p != 2 works in a basis adapted to the point, which
:func:`orthonormal_basis` rotates out of B(z) by one N x N QR:
sigma_alpha has vanishing Taylor jet at the point for every order below
alpha (in the graded order) and a nonvanishing jet exactly at alpha, so
the functions whose jets vanish at all orders below k are spanned by a
trailing block of the basis.  The space keeps B(z) of the last point it
was asked for, and that point's adapted basis once one is asked for, so the
routes that solve at one point share one B(z) and one QR.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraError,
    Functional,
    MultiIndex,
    PolyCoeffs,
    enumerate_upto_degree,
    functional_apply,
    taylor_shift,
    _as_point,
)
from .domains import Domain, Quadrature, build_quadrature

__all__ = [
    "PolySpace",
    "RingOperator",
    "OrthonormalBasis",
    "lp_norm",
    "orthonormal_basis",
    "sup_bound_constant",
    "RankLossError",
    "DegreeOverflowError",
]

# refuse spaces whose ring Gram arrays, the (N + K) x H that RingOperator.gram
# forms over the H bins of its half box of differences, would exceed this many
# complex entries (~1.6 GB)
MAX_CACHE_ENTRIES = 100_000_000

CONDITION_LIMIT = 1e12


class RankLossError(ValueError):
    """Basis numerically rank deficient at the working precision."""


class DegreeOverflowError(ValueError):
    """Polynomial does not fit inside the truncated space."""


def default_degree(dimension: int) -> int:
    return {1: 16, 2: 10}.get(dimension, 6)


def default_orders(dimension: int) -> tuple[int, int]:
    """Default (radial, angular) quadrature orders for a dimension."""
    # node counts grow like (radial * angular)^n, so defaults shrink with n;
    # (6, 14) is the cheapest of (6, 14), (6, 16), (8, 16) that holds delta_0
    # on ball:3 and the 3-polydisc to the p = 1 and p = 1.5 contracts
    return {1: (32, 64), 2: (12, 24)}.get(dimension, (6, 14))


@dataclass(eq=False)
class PolySpace:
    """A finite monomial basis over a quadrature rule."""

    domain: Domain
    quadrature: Quadrature
    indices: list[MultiIndex]
    # B(z) of the last point asked for and, once built, its adapted basis
    _point_memo: _PointMemo | None = field(default=None, init=False, repr=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def build(
        cls,
        domain: Domain,
        degree: int | None = None,
        radial_order: int | None = None,
        angular_order: int | None = None,
        mode: str = "total",
    ) -> "PolySpace":
        """Build the default truncated space on a domain.

        ``mode`` is "total" (all |alpha| <= degree) or "tensor" (all
        alpha_j <= degree per axis); annuli always get the Laurent band
        ``|k| <= degree``.  ``degree`` defaults to 16 / 10 / 6 and the
        (radial, angular) orders left as None to (32, 64) / (12, 24) /
        (6, 14) for dimensions 1 / 2 / >= 3 (:func:`default_orders`).  The
        largest arrays that grow with the degree, the (N + K) x H of
        :meth:`RingOperator.gram` on K = radial_order^n rings and the H bins
        of its half box of differences, are sized before any node is built.
        """
        if degree is None:
            degree = default_degree(domain.dimension)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        radial_default, angular_default = default_orders(domain.dimension)
        if radial_order is None:
            radial_order = radial_default
        if angular_order is None:
            angular_order = angular_default

        if domain.shape == "annulus":
            ks = sorted(range(-degree, degree + 1), key=lambda k: (abs(k), k))
            indices = [MultiIndex((k,)) for k in ks]
        elif mode == "total":
            indices = enumerate_upto_degree(domain.dimension, degree)
        elif mode == "tensor":
            indices = _tensor_indices(domain.dimension, degree)
        else:
            raise ValueError(f"unknown basis mode {mode!r}")
        half = _half_box(np.array([idx.entries for idx in indices]))
        entries = (len(indices) + radial_order ** domain.dimension) * math.prod(half)
        if entries > MAX_CACHE_ENTRIES:
            raise MemoryError(
                f"ring Gram would form {entries} complex entries; reduce orders or degree"
            )
        quad = build_quadrature(domain, radial_order, angular_order)
        if quad.node_count < len(indices):
            # fewer nodes than basis functions: the quadrature product is
            # singular on the space, whatever the node placement
            raise RankLossError(
                f"quadrature has {quad.node_count} nodes for {len(indices)} "
                "basis functions; raise the orders or lower the degree")
        return cls(domain, quad, indices)

    # -- basic data -----------------------------------------------------

    @property
    def center(self) -> tuple[complex, ...]:
        """Center of the monomials (w - center)^alpha: the domain's."""
        return self.domain.center

    @property
    def laurent(self) -> bool:
        """True on annuli, whose space is the Laurent band z^k, |k| <= degree."""
        return self.domain.shape == "annulus"

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def degree(self) -> int:
        """Maximal total degree (band half-width for Laurent bases)."""
        if self.laurent:
            return max(abs(idx.entries[0]) for idx in self.indices)
        return max(idx.degree for idx in self.indices)

    def index_position(self) -> dict[MultiIndex, int]:
        return {idx: j for j, idx in enumerate(self.indices)}

    @cached_property
    def exponents(self) -> np.ndarray:
        """(N, n) integer array of the basis exponents."""
        return np.array([idx.entries for idx in self.indices]).reshape(self.size, self.dimension)

    @cached_property
    def ring(self) -> "RingOperator":
        """Node values, weighted Grams and adjoints of the centred basis on this rule."""
        return RingOperator(self)

    def shifted_node_matrix(self, z) -> np.ndarray:
        """Values of the monomials ``(w - z)^alpha`` at the quadrature nodes.

        Total-degree and per-axis index sets are shift invariant, so this
        Q x N matrix spans the space: ``shifted_node_matrix(z) @
        jet_matrix(z) @ c`` is ``values(c)``.  Laurent bases are not
        shiftable.  The solvers never form it: it is the dense reference.
        """
        if self.laurent:
            raise AlgebraError("Laurent bases cannot be re-centered")
        return _monomials(self.quadrature.nodes - np.asarray(_as_point(z, self.dimension)),
                          self.exponents)

    def jet_matrix(self, z) -> np.ndarray:
        """Taylor jets at z of the centred monomials.

        J[beta, alpha] is the order-beta Taylor coefficient at z of
        ``(w - center)^alpha``, i.e. prod_j C(alpha_j, beta_j)
        (z_j - center_j)^(alpha_j - beta_j) for beta <= alpha, which the
        shift-invariant index sets always contain.  Laurent bases are not
        shiftable.
        """
        return self._binomial_shift(np.asarray(_as_point(z, self.dimension))
                                    - np.asarray(self.center))

    def shift_matrix(self, z) -> np.ndarray:
        """Centred coefficients of the z-shifted monomials, the inverse of
        :meth:`jet_matrix`.

        S[gamma, alpha] is the coefficient of ``(w - center)^gamma`` in
        ``(w - z)^alpha``: the jet matrix with the offset reversed, exact
        with no solve.  Laurent bases are not shiftable.
        """
        return self._binomial_shift(np.asarray(self.center)
                                    - np.asarray(_as_point(z, self.dimension)))

    def _binomial_shift(self, offset: np.ndarray) -> np.ndarray:
        """prod_j C(alpha_j, beta_j) offset_j^(alpha_j - beta_j), rows beta, columns alpha."""
        if self.laurent:
            raise AlgebraError("Laurent bases cannot be re-centered")
        J = np.ones((self.size, self.size), dtype=complex)
        for j, (binom, gap) in enumerate(self._shift_tables):
            powers = np.cumprod(np.concatenate(([1.0 + 0j], np.full(gap.max(initial=0), offset[j]))))
            J *= binom * powers[gap]
        return J

    @cached_property
    def _shift_tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per axis: C(alpha_j, beta_j) (zero unless beta_j <= alpha_j) and the
        exponent gap alpha_j - beta_j clipped at zero, rows beta, columns alpha."""
        tables = []
        for e in self.exponents.T:
            gap = e[None, :] - e[:, None]
            top = int(e.max(initial=0))
            pascal = np.array([[math.comb(a, b) for b in range(top + 1)]
                               for a in range(top + 1)], dtype=float)
            binom = np.where(gap >= 0, pascal[e[None, :], e[:, None]], 0.0)
            tables.append((binom, np.maximum(gap, 0)))
        return tables

    def normalized_power(self, coeffs: np.ndarray, e: float) -> np.ndarray:
        """Centred Taylor coefficients of (f / f(center))^e on the index set.

        f has the centred coefficients ``coeffs`` and f(center) = coeffs[0]
        must not vanish.  The index set is closed under lowering an
        exponent, so the series h = (f / f(center))^e has its coefficients
        there determined by f's there; with a = f / f(center), h_0 = 1 and
        the Euler identity f t d/dt h(t w) = e h t d/dt f(t w) gives, degree
        by degree (J. C. P. Miller's recurrence), for |gamma| = k >= 1

            h_gamma = sum_{0 < alpha <= gamma} ((e + 1) |alpha| / k - 1) a_alpha h_(gamma - alpha).

        No node is read.  Laurent bases have no Taylor series at the center.
        """
        if self.laurent:
            raise AlgebraError("Laurent bases have no Taylor series at the center")
        a = np.asarray(coeffs, dtype=complex) / coeffs[0]
        h = np.zeros(self.size, dtype=complex)
        h[0] = 1.0
        for k, gamma, alpha, beta, size in self._series_pairs:
            np.add.at(h, gamma, ((e + 1.0) / k * size - 1.0) * a[alpha] * h[beta])
        return h

    def series_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Centred coefficients of f g on the index set, for f and g with
        centred coefficients ``a`` and ``b``.

        The Cauchy product sum_{alpha + beta = gamma} a_alpha b_beta: the
        index set is closed under lowering an exponent, so every pair it
        needs lies in it, and the terms of degree above the set's are
        dropped.  No node is read.  Laurent bases have no Taylor series at
        the center.
        """
        if self.laurent:
            raise AlgebraError("Laurent bases have no Taylor series at the center")
        # alpha = 0 with beta = gamma, then the pairs with alpha != 0
        every = np.arange(self.size)
        pairs = self._series_pairs
        gamma = np.concatenate([every] + [g for _, g, _, _, _ in pairs])
        alpha = np.concatenate([np.zeros_like(every)] + [x for _, _, x, _, _ in pairs])
        beta = np.concatenate([every] + [y for _, _, _, y, _ in pairs])
        h = np.zeros(self.size, dtype=complex)
        np.add.at(h, gamma, np.asarray(a, dtype=complex)[alpha] * np.asarray(b, dtype=complex)[beta])
        return h

    @cached_property
    def _series_pairs(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per total degree k >= 1: the positions gamma, alpha, beta of the
        pairs alpha + beta = gamma in the index set with |gamma| = k and
        alpha != 0, and |alpha|.  The zero index leads the graded order."""
        E = self.exponents
        extent = 2 * E.max(axis=0) + 1
        code = np.ravel_multi_index(E.T, extent)
        lookup = np.full(math.prod(extent), -1)
        lookup[code] = np.arange(self.size)
        # the box holds every sum of two exponents, so their codes add
        gamma = lookup[code[:, None] + code[None, :]]
        degree = E.sum(axis=1)
        alpha, beta = np.nonzero((gamma >= 0) & (degree[:, None] > 0))
        gamma = gamma[alpha, beta]
        pairs = []
        for k in range(1, int(degree.max(initial=0)) + 1):
            at = degree[gamma] == k
            pairs.append((k, gamma[at], alpha[at], beta[at], degree[alpha[at]].astype(float)))
        return pairs

    def jet_map(self, z) -> np.ndarray:
        """Jets at z of the centred basis in the solve basis: J(z), or the
        identity for Laurent bases, which solve in their own basis."""
        return np.eye(self.size, dtype=complex) if self.laurent else self.jet_matrix(z)

    def constraint_row(self, xi: Functional, z) -> np.ndarray:
        """Row vector L with L_j = (xi . basis_j)(z) in the solve basis.

        For polynomial spaces the solve basis is the z-shifted monomial
        basis, so L is just xi restricted to the index set.  For Laurent
        bases the entries are the pairings of xi with z^k at z.
        """
        if xi.dimension != self.dimension:
            raise AlgebraError("functional dimension mismatch")
        if self.laurent:
            return np.array([functional_apply(xi, PolyCoeffs.monomial(idx, 0j), z)
                             for idx in self.indices])
        L = np.zeros(self.size, dtype=complex)
        pos = self.index_position()
        for alpha, c in xi.terms.items():
            j = pos.get(alpha)
            if j is not None:
                L[j] = c
        return L

    def coeff_vector(self, f: PolyCoeffs) -> np.ndarray:
        """Coefficients of a polynomial in this basis (exact re-centering)."""
        if f.dimension != self.dimension:
            raise AlgebraError("dimension mismatch")
        if self.laurent:
            if tuple(f.center) != (0j,):
                raise DegreeOverflowError("Laurent space elements must be centered at 0")
            if f.coeffs and f.band > self.degree:
                raise DegreeOverflowError(
                    f"band {f.band} exceeds the space band {self.degree}"
                )
            g = f
        else:
            if f.is_laurent:
                raise DegreeOverflowError("Laurent polynomial in a polynomial space")
            g = taylor_shift(f, self.center)
        vec = np.zeros(self.size, dtype=complex)
        pos = self.index_position()
        for idx, c in g.coeffs.items():
            j = pos.get(idx)
            if j is None:
                raise DegreeOverflowError(f"index {idx} outside the truncated space")
            vec[j] = c
        return vec

    def element(self, coeffs: np.ndarray, center=None) -> PolyCoeffs:
        """Package a coefficient vector (solve basis) as a polynomial."""
        ctr = _as_point(center, self.dimension) if center is not None else self.center
        if self.laurent:
            ctr = (0j,)
        data = {idx: c for idx, c in zip(self.indices, coeffs) if c != 0}
        return PolyCoeffs(self.dimension, ctr, data)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Node values of centred-basis coefficients, (Q,) or (Q, m)."""
        return self.ring.values(coeffs)


def _tensor_indices(dimension: int, degree: int) -> list[MultiIndex]:
    out = [MultiIndex(t) for t in itertools.product(range(degree + 1), repeat=dimension)]
    out.sort(key=MultiIndex.sort_key)
    return out


# ---------------------------------------------------------------------------
# norms and Gram matrices
# ---------------------------------------------------------------------------


def lp_norm(f: PolyCoeffs | np.ndarray, space: PolySpace, p: float) -> float:
    """Quadrature L^p norm of a space element.

    ``f`` may be a PolyCoeffs (re-centered into the basis, with a
    DegreeOverflowError if it does not fit) or a raw coefficient vector in
    the space's basis.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if isinstance(f, PolyCoeffs):
        vec = space.coeff_vector(f)
    else:
        vec = np.asarray(f, dtype=complex)
        if vec.shape != (space.size,):
            raise ValueError("coefficient vector has the wrong length")
    vals = space.values(vec)
    return float(np.sum(space.quadrature.weights * np.abs(vals) ** p) ** (1.0 / p))


def _dft(angles: int, low: int, high: int) -> np.ndarray:
    """exp(2 pi i t j / angles), rows j < angles, columns low <= t <= high.

    Each phase is the angles-th root of unity at t j mod angles, so bins
    that alias get identical columns.
    """
    roots = np.exp(2j * math.pi * np.arange(angles) / angles)
    return roots[np.arange(angles)[:, None] * np.arange(low, high + 1) % angles]


def _monomials(rings: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """prod_j rings[k, j] ** exps[e, j], (K, E), read from one table of powers per axis."""
    out = 1
    for b, e in zip(rings.T, exps.T):
        low = e.min()
        out = out * (b[:, None] ** np.arange(low, e.max() + 1))[:, e - low]
    return out


def _half_box(exps: np.ndarray) -> tuple[int, ...]:
    """Extents of the differences d of exponents with d_n >= 0, which
    :meth:`RingOperator.gram` transforms: 2 span_j + 1 bins per axis, and
    span_n + 1 on the last."""
    span = exps.max(axis=0) - exps.min(axis=0)
    return tuple(int(s) for s in 2 * span[:-1] + 1) + (int(span[-1]) + 1,)


def _transform(x: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """Contract axes 1, ..., m of x with the m per-axis tables, last axis first.

    out[k, t_1, ..., t_m, ...] = sum_s x[k, s_1, ..., s_m, ...]
    prod_d tables[d][s_d, t_d]; axis 0 (the rings) and any trailing axes
    ride along.  An axis with nothing behind it is one matrix product over
    all rings, any other a batch of (t, s) x (s, rest) products sharing
    the table.
    """
    for d in reversed(range(len(tables))):
        table = tables[d]
        shape = x.shape[:d + 1] + (table.shape[1],) + x.shape[d + 2:]
        pre, post = math.prod(x.shape[:d + 1]), math.prod(x.shape[d + 2:])
        if post == 1:
            x = x.reshape(pre, -1) @ table
        else:
            x = np.matmul(table.T, x.reshape(pre, -1, post))
        x = x.reshape(shape)
    return x


class RingOperator:
    """Node values and weighted sums over a space's ring-structured rule.

    On the rule's node (k, j) = center + b_k exp(2 pi i j / a) (see
    :class:`~xibergman.domains.Quadrature`) the centred monomial phi_alpha
    takes the value b_k^alpha exp(2 pi i alpha . j / a).  So each of the
    four sums below is, ring by ring, a discrete Fourier transform over
    the angles, filled or read at the few bins the space reaches
    (Trefethen & Weideman, SIAM Review 56, 2014):

    - :meth:`values` synthesizes b_k^alpha c_alpha from the box of
      exponents alpha, and :meth:`adjoint` reads the analysis there;
    - :meth:`gram`, sum_q omega_q conj(phi_alpha) phi_beta, reads the
      transform of the weights at the differences alpha - beta;
    - :meth:`pair`, sum_q nu_q phi_alpha phi_beta, reads it at the sums
      alpha + beta.

    A transform restricted to a box of bins is a product with one small
    table exp(+-2 pi i t j / a) per axis (:func:`_transform`), so no FFT
    and no Q x N array is formed.  The tables are periodic in the bin t,
    so exponents that alias (a degree reaching a, or a hand-built rule of
    one angle per ring, where the sums are plain node sums) need no
    special case.  They are built once per space, those of :meth:`pair`
    on its first call.
    """

    def __init__(self, space: PolySpace):
        quad = space.quadrature
        a, exps, rings = quad.angles, space.exponents, quad.rings
        low, high = exps.min(axis=0), exps.max(axis=0)
        self.weights = quad.weights
        self._rings, self._exps, self._angles = rings, exps, a
        self._torus = (rings.shape[0],) + (a,) * space.dimension
        # b_k^alpha (K, N), placed at alpha - low in the box of exponents
        self._powers = _monomials(rings, exps)
        self._box = tuple(high - low + 1)
        self._place = np.ravel_multi_index((exps - low).T, self._box)
        self._analysis = [_dft(a, lo, hi).conj() for lo, hi in zip(low, high)]
        self._synthesis = [table.conj().T for table in self._analysis]
        # gram reads each unordered pair {alpha, beta} in the order whose
        # difference d ends in d_n >= 0: the half box of _half_box.  Per
        # axis conj(b^alpha) b^beta = |b|^(2m) e(d) at m = min(alpha, beta),
        # with e(d) = conj(b)^d for d >= 0 and b^-d below
        span = high - low
        shift = np.append(span[:-1], 0)
        self._half = _half_box(exps)
        self._half_first = np.ascontiguousarray(_dft(a, 0, span[-1]).conj()).view(float)
        self._half_rest = [_dft(a, -s, s).conj() for s in span[:-1]]
        first, second = np.triu_indices(len(exps))
        flip = exps[first, -1] < exps[second, -1]
        first, second = np.where(flip, second, first), np.where(flip, first, second)
        self._upper = first, second
        self._upper_bin = np.ravel_multi_index((exps[first] - exps[second] + shift).T, self._half)
        lower = np.ravel_multi_index((np.minimum(exps[first], exps[second]) - low).T, self._box)
        rows, self._upper_row = np.unique(lower, return_inverse=True)
        mins = np.stack(np.unravel_index(rows, self._box), axis=-1) + low
        self._min_powers = _monomials(np.abs(rings) ** 2, mins).T
        self._half_factor = np.ones((rings.shape[0], 1))
        for b, low_d, high_d in zip(rings.T, -shift, span):
            d = np.arange(low_d, high_d + 1)
            e = np.where(d >= 0, b.conj()[:, None], b[:, None]) ** np.abs(d)
            self._half_factor = (self._half_factor[:, :, None] * e[:, None, :]).reshape(len(b), -1)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_alpha coeffs_alpha phi_alpha at the nodes, (Q,) or (Q, m).

        The synthesis twin of :meth:`adjoint`, from the box of exponents.
        """
        c = np.asarray(coeffs, dtype=complex)
        columns = c.shape[1:]
        box = np.zeros((self._torus[0], math.prod(self._box)) + columns, dtype=complex)
        box[:, self._place] = self._powers.reshape(self._powers.shape + (1,) * len(columns)) * c
        box = box.reshape(self._torus[:1] + self._box + columns)
        return _transform(box, self._synthesis).reshape((-1,) + columns)

    def gram(self, omega: np.ndarray) -> np.ndarray:
        """sum_q omega_q conj(phi_alpha) phi_beta over the nodes, (N, N), for real weights.

        Ring k contributes conj(b_k^alpha) b_k^beta omega_hat_k(d) at
        d = alpha - beta, which is |b_k|^(2m) e_k(d) omega_hat_k(d) (see
        the constructor): so G[alpha, beta] = H[m, d] for H the product of
        the (R, K) powers |b|^(2m) over the R distinct m with the (K, bins)
        spectrum e * omega_hat.  Real weights have omega_hat(-d) =
        conj(omega_hat(d)), so the transform runs on the half box d_n >= 0,
        its last axis in real arithmetic; H is read at the N(N+1)/2 pairs
        so ordered and mirrored, and G is Hermitian bit for bit.
        """
        x = np.asarray(omega, dtype=float).reshape(-1, self._angles) @ self._half_first
        x = _transform(x.view(complex).reshape(self._torus[:-1] + self._half[-1:]),
                       self._half_rest)
        spectrum = x.reshape(self._torus[0], -1) * self._half_factor
        H = (self._min_powers @ spectrum.view(float)).view(complex)
        upper = H[self._upper_row, self._upper_bin]
        first, second = self._upper
        G = np.empty((len(self._exps),) * 2, dtype=complex)
        G[first, second] = upper
        G[second, first] = upper.conj()
        return G

    def pair(self, nu: np.ndarray) -> np.ndarray:
        """sum_q nu_q phi_alpha phi_beta over the nodes, (N, N), symmetric.

        The twin of :meth:`gram` without the conjugate.  Ring k contributes
        b_k^alpha b_k^beta nu_hat_k(-(alpha + beta)) = b_k^s nu_hat_k(-s) at
        s = alpha + beta, so P[alpha, beta] = h(alpha + beta) for
        h(s) = sum_k b_k^s nu_hat_k(-s), one K x S contraction over the
        S exponent sums of the space's box.  The sum box barely prunes the
        torus (21^2 of 24^2 bins on the default bidisc), yet the product
        form takes 1.2-1.3 ms there against 1.8-1.9 ms for numpy's fftn
        and a gather (min of 7 timeit runs, one core).
        """
        powers, tables, position = self._sums
        spectrum = _transform(np.reshape(nu, self._torus), tables)
        return np.einsum("ks,ks->s", powers, spectrum.reshape(self._torus[0], -1))[position]

    @cached_property
    def _sums(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """b_k^s (K, S) and the per-axis tables of nu_hat(-s) over the box of
        exponent sums s, and the (N, N) position of alpha + beta in it.

        The box is laid out so that a sum's position is the sum of its
        terms' offsets e(alpha) + e(beta).  Built on the first :meth:`pair`
        call, which only the Newton steps at p != 2 make.
        """
        low, high = self._exps.min(axis=0), self._exps.max(axis=0)
        extent = 2 * (high - low) + 1
        grid = np.indices(extent).reshape(len(extent), -1).T + 2 * low
        powers = _monomials(self._rings, grid)
        tables = [_dft(self._angles, 2 * lo, 2 * hi) for lo, hi in zip(low, high)]
        offset = np.ravel_multi_index((self._exps - low).T, extent)
        return powers, tables, offset[:, None] + offset[None, :]

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """sum_q conj(phi_alpha) v_q over the nodes, (N,)."""
        spectrum = _transform(np.reshape(v, self._torus), self._analysis)
        spectrum = spectrum.reshape(self._torus[0], -1)[:, self._place]
        return np.einsum("ka,ka->a", self._powers.conj(), spectrum)

    @cached_property
    def base_gram(self) -> np.ndarray:
        """Centred Gram matrix of the quadrature weights, Hermitian bit for bit."""
        return self.gram(self.weights)

    @cached_property
    def factor(self) -> np.ndarray:
        """Upper Cholesky factor C of :attr:`base_gram` (G = C^H C).

        ``C @ coeffs`` has the weighted L^2 norm of the function, so N x N
        factorizations through C stand in for Q x N ones of node values.
        """
        try:
            return np.linalg.cholesky(self.base_gram).conj().T
        except np.linalg.LinAlgError as exc:
            raise RankLossError("basis numerically rank deficient on this rule") from exc

    @cached_property
    def inverse_factor(self) -> np.ndarray:
        """C^-1 for the ring factor C: its columns are the space's orthonormal
        basis, whose jets at a point every p = 2 value, the duality bracket
        and the descent's point-adapted basis read."""
        return np.linalg.inv(self.factor)


# ---------------------------------------------------------------------------
# point-adapted orthonormal bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Quadrature-orthonormal basis with jets adapted to a point.

    ``transform[b, a]`` expresses ``sigma_a = sum_b transform[b, a] psi_b``
    where psi_b are the solve-basis monomials: ``(w - point)^beta`` for
    polynomial spaces (then transform[b, a] is also the order-beta Taylor
    jet of sigma_a at the point, and vanishes unless beta >= alpha in the
    graded order), or the Laurent monomials (no jet adaptation).
    ``coeffs[:, a]`` holds the same sigma_a in the space's centred basis.
    The space that built the basis keeps it as its memo, so both arrays are
    read-only.
    """

    transform: np.ndarray
    coeffs: np.ndarray


@dataclass(eq=False)
class _PointMemo:
    """A space's one-entry memo: B(z) at ``point``, read-only, and the
    point-adapted basis, built from it only when asked for."""

    point: tuple[complex, ...]
    jets: np.ndarray
    basis: OrthonormalBasis | None = None


def _memo_at(space: PolySpace, point: tuple[complex, ...]) -> _PointMemo:
    """The space's memo at ``point``; another point replaces the entry."""
    memo = space._point_memo
    if memo is None or memo.point != point:
        jets = space.jet_map(point) @ space.ring.inverse_factor
        jets.flags.writeable = False
        memo = space._point_memo = _PointMemo(point, jets)
    return memo


def _orthonormal_jets(space: PolySpace, z) -> np.ndarray:
    """B(z) = J(z) C^-1, the solve-basis coefficients of the columns of C^-1.

    Column j holds the Taylor jets at z of the function whose centred
    coefficients are column j of C^-1 (Laurent bases: the column itself,
    J = I).  Those functions are orthonormal in the weighted product,
    since G = C^H C, and the same for every point; only their jets depend
    on z.  Raises RankLossError on a rule the space is rank deficient on
    (see :attr:`RingOperator.factor`).  The array is the space's memo and
    read-only.
    """
    return _memo_at(space, _as_point(z, space.dimension)).jets


def orthonormal_basis(space: PolySpace, z) -> OrthonormalBasis:
    """Orthonormalize the space against the quadrature product, adapted to z.

    For polynomial spaces the shifted monomials ``(w - z)^alpha`` are
    orthonormalized against the span of all *larger* indices first, which
    makes the change of basis triangular from the top: sigma_alpha has zero
    jet at z for every order strictly below alpha and a positive jet at
    alpha.  (Orthonormalizing in increasing order would destroy the jet
    conditions: the projections would reintroduce low-order terms.)

    Laurent bases are orthonormalized in the band order without jet
    adaptation; expansion identities that only need orthonormality remain
    valid there.

    The space keeps the last point's basis, with read-only arrays, next to
    that point's B(z) (:func:`_orthonormal_jets`), and returns it again for
    the same point; another point replaces both.
    """
    point = _as_point(z, space.dimension)
    memo = _memo_at(space, point)
    if memo.basis is None:
        T, U = _orthonormal_transform(space, point)
        T.flags.writeable = U.flags.writeable = False
        memo.basis = OrthonormalBasis(T, U)
    return memo.basis


def _orthonormal_transform(space: PolySpace, point) -> tuple[np.ndarray, np.ndarray]:
    """Triangular T and centred coefficients U of an orthonormal basis, built from the top.

    Column a of T only involves solve-basis columns b >= a, and its
    leading coefficient T[a, a] is real and positive; processing from the
    last column to the first keeps the jet flag structure.  The columns
    of X = B(z)^H, B(z) = J(z) C^-1 from the space's memo, represent the
    jet functionals at the point in the weighted product, and carry no
    cancellation.  An N x N QR, X = Q R, gives both factors: U = C^-1 Q
    is orthonormal, its jets at the point are T = R^H, and for every a
    its columns from a on span the functions whose jets below a vanish.
    Raises RankLossError when the columns are
    numerically dependent: the guard reads the same equilibrated diagonal
    as a QR of the node values would, 1 / (T[a, a] ||psi_a||), where
    ||psi_a|| is the norm of column a of T^-1.
    """
    X = _memo_at(space, point).jets.conj().T
    # equilibrate columns first so monomial scale spread (radius^|alpha| on
    # small domains) does not masquerade as rank loss
    colnorm = np.linalg.norm(X, axis=0)
    Q, R = np.linalg.qr(X / colnorm)
    diag = np.diagonal(R)
    if np.min(np.abs(diag)) == 0:
        raise RankLossError("basis numerically rank deficient at this point")
    # rotate phases so every sigma has a positive leading jet
    phase = diag / np.abs(diag)
    R = phase.conj()[:, None] * R * colnorm[None, :]
    # ||psi_a||, the norm of column a of T^-1, is that of row a of R^-1;
    # the upper triangular R inverts without pivoting
    scaled = 1.0 / (np.abs(np.diagonal(R)) * np.linalg.norm(np.linalg.inv(R), axis=1))
    if not np.all(np.isfinite(scaled)) or scaled.max() / scaled.min() > math.sqrt(CONDITION_LIMIT):
        raise RankLossError("basis numerically rank deficient at this point")
    return R.conj().T, space.ring.inverse_factor @ (Q * phase[None, :])


# ---------------------------------------------------------------------------
# a priori sup bound for jet pairings
# ---------------------------------------------------------------------------


def sup_bound_constant(domain: Domain, xi: Functional, p: float, gap: float) -> float:
    """Uniform bound for |(xi . f)(z)| over unit-norm f in A^p.

    Valid at every point whose boundary distance is at least ``gap``.  Built
    from the mean-value estimate on polydiscs: for r = gap,

        |f^(alpha)(z)/alpha!| <= (2 sqrt(n)/r)^|alpha| (n!)^(1/p)
                                 (4/(pi r^2))^(n/p) ||f||_p,

    summed over the support of xi with |xi_alpha| weights.
    """
    if gap <= 0:
        raise ValueError("boundary gap must be positive")
    n = domain.dimension
    s = sum(abs(c) * (2.0 * math.sqrt(n) / gap) ** alpha.degree for alpha, c in xi.terms.items())
    return s * math.factorial(n) ** (1.0 / p) * (4.0 / (math.pi * gap**2)) ** (n / p)
