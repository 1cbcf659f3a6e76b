"""Truncated subspaces of A^p(Omega) and their quadrature sums.

A :class:`PolySpace` is the span of monomials ``(z - center)^alpha`` for a
finite index set (total-degree or per-axis-degree truncation), or of Laurent
monomials ``z^k, |k| <= D`` on an annulus.  All norms and Gram matrices are
taken with respect to the attached quadrature rule, so every inner product
in the package is the same discrete object.

Node values, weighted Gram matrices and adjoints all come from the space's
:class:`RingOperator`, which works ring by ring with FFTs over the uniform
angles; no Q x N array of node values is kept.  The exact Taylor jets
:meth:`PolySpace.jet_matrix` tie the centred monomials to a point z.

:func:`orthonormal_basis` produces a basis adapted to a point: sigma_alpha
has vanishing Taylor jet at the point for every order below alpha (in the
graded order) and a nonvanishing jet exactly at alpha.  That triangular
structure is what the degree-constrained functional solvers rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
import scipy.linalg

from .algebra import (
    AlgebraError,
    Functional,
    MultiIndex,
    PolyCoeffs,
    enumerate_upto_degree,
    taylor_shift,
    _as_point,
    _gen_binom,
)
from .domains import Domain, Quadrature, build_quadrature

__all__ = [
    "PolySpace",
    "RingOperator",
    "OrthonormalBasis",
    "lp_norm",
    "gram_matrix",
    "orthonormal_basis",
    "sup_bound_constant",
    "RankLossError",
    "DegreeOverflowError",
]

# refuse ring Gram gathers (K x N x N) beyond this many complex entries (~1.6 GB)
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
    # node counts grow like (radial * angular)^n, so defaults shrink with n
    return (32, 64) if dimension == 1 else (12, 24)


@dataclass(eq=False)
class PolySpace:
    """A finite monomial basis over a quadrature rule."""

    domain: Domain
    quadrature: Quadrature
    indices: list[MultiIndex]
    center: tuple[complex, ...]
    laurent: bool = False
    mode: str = "total"

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
        ``|k| <= degree``.  ``degree`` defaults to 16 / 10 / 6 for
        dimensions 1 / 2 / >= 3, and each quadrature order left as None
        to :func:`default_orders`.  The largest array that grows with the
        degree, the K x N x N gather of :meth:`RingOperator.gram` on K =
        radial_order^n rings, is sized before any node is built.
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

        laurent = domain.shape == "annulus"
        if laurent:
            ks = sorted(range(-degree, degree + 1), key=lambda k: (abs(k), k))
            indices = [MultiIndex((k,)) for k in ks]
            ctr, mode = (0j,), "laurent"
        else:
            ctr = domain.center
            if mode == "total":
                indices = enumerate_upto_degree(domain.dimension, degree)
            elif mode == "tensor":
                indices = _tensor_indices(domain.dimension, degree)
            else:
                raise ValueError(f"unknown basis mode {mode!r}")
        entries = radial_order ** domain.dimension * len(indices) ** 2
        if entries > MAX_CACHE_ENTRIES:
            raise MemoryError(
                f"ring Gram would gather {entries} complex entries; reduce orders or degree"
            )
        quad = build_quadrature(domain, radial_order, angular_order)
        if quad.node_count < len(indices):
            # fewer nodes than basis functions: the quadrature product is
            # singular on the space, whatever the node placement
            raise RankLossError(
                f"quadrature has {quad.node_count} nodes for {len(indices)} "
                "basis functions; raise the orders or lower the degree")
        return cls(domain, quad, indices, ctr, laurent=laurent, mode=mode)

    # -- basic data -----------------------------------------------------

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
        shifted = self.quadrature.nodes - np.asarray(_as_point(z, self.dimension))
        out = np.ones((shifted.shape[0], self.size), dtype=complex)
        for j, e in enumerate(self.exponents.T):
            out *= (shifted[:, j][:, None] ** np.arange(e.max(initial=0) + 1))[:, e]
        return out

    def jet_matrix(self, z) -> np.ndarray:
        """Taylor jets at z of the centred monomials.

        J[beta, alpha] is the order-beta Taylor coefficient at z of
        ``(w - center)^alpha``, i.e. prod_j C(alpha_j, beta_j)
        (z_j - center_j)^(alpha_j - beta_j) for beta <= alpha, which the
        shift-invariant index sets always contain.  Laurent bases are not
        shiftable.
        """
        if self.laurent:
            raise AlgebraError("Laurent bases cannot be re-centered")
        offset = np.asarray(_as_point(z, self.dimension)) - np.asarray(self.center)
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

    def jet_map(self, z) -> np.ndarray:
        """Jets at z of the centred basis in the solve basis: J(z), or the
        identity for Laurent bases, which solve in their own basis."""
        return np.eye(self.size, dtype=complex) if self.laurent else self.jet_matrix(z)

    def constraint_row(self, xi: Functional, z) -> np.ndarray:
        """Row vector L with L_j = (xi . basis_j)(z) in the solve basis.

        For polynomial spaces the solve basis is the z-shifted monomial
        basis, so L is just xi restricted to the index set.  For Laurent
        bases the entries are exact jet pairings of z^k at z.
        """
        if xi.dimension != self.dimension:
            raise AlgebraError("functional dimension mismatch")
        L = np.zeros(self.size, dtype=complex)
        if self.laurent:
            z0 = complex(_as_point(z, 1)[0])
            for j, idx in enumerate(self.indices):
                k = idx.entries[0]
                total = 0j
                for alpha, c in xi.terms.items():
                    a = alpha.entries[0]
                    g = _gen_binom(k, a)
                    if g != 0:
                        total += c * g * z0 ** (k - a)
                L[j] = total
            return L
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


class RingOperator:
    """Node values and weighted sums over a space's ring-structured rule.

    On the rule's node (k, j) = center + b_k exp(2 pi i j / a) (see
    :class:`~xibergman.domains.Quadrature`) the centred monomial phi_alpha
    takes the value b_k^alpha exp(2 pi i alpha . j / a).  So ring k's node
    values of sum_alpha c_alpha phi_alpha are an inverse FFT over its
    angles of b_k^alpha c_alpha placed at bin alpha mod a, and for any node
    weights omega

        sum_q omega_q conj(phi_alpha) phi_beta
            = sum_k conj(b_k^alpha) b_k^beta omega_hat_k(alpha - beta),

    where omega_hat_k is the n-dimensional FFT of ring k's weights over its
    angles (Trefethen & Weideman, SIAM Review 56, 2014).  These are the
    node sums in another order, exact for any weights and coefficients, at
    K N^2 + Q log a cost instead of Q N^2 and with no Q x N array.  A rule
    of one angle per ring (a hand-built one) makes them plain node sums.
    """

    def __init__(self, space: PolySpace):
        quad = space.quadrature
        if tuple(space.center) != tuple(space.domain.center):
            raise ValueError("the ring structure is centred at the domain center")
        a = quad.angles
        exps = space.exponents
        torus = (a,) * space.dimension
        self.weights = quad.weights
        self._shape = (quad.rings.shape[0],) + torus
        self._flat = (quad.rings.shape[0], a ** space.dimension)
        self._axes = tuple(range(1, space.dimension + 1))
        # b_k^alpha (K, N); flat FFT bins of alpha and of alpha - beta mod a
        self._powers = np.prod(quad.rings[:, None, :] ** exps[None, :, :], axis=2)
        self._residue = np.ravel_multi_index(tuple((exps % a).T), torus)
        self._difference = np.ravel_multi_index(
            tuple(np.moveaxis((exps[:, None, :] - exps[None, :, :]) % a, -1, 0)), torus)
        # synthesis runs over the exponents grouped by bin: exponents that
        # alias (one angle per ring, or a degree reaching a) share one bin
        self._order = np.argsort(self._residue, kind="stable")
        self._grouped_powers = self._powers[:, self._order, None]
        grouped = self._residue[self._order]
        self._starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        self._bins = grouped[self._starts]

    def _ring_fft(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Unscaled n-d FFT (or inverse FFT) over each ring's angles.

        ``x`` is (K, a^n, ...), ring-major like the nodes; so is the result.
        """
        grid = x.reshape(self._shape + x.shape[2:])
        if inverse:
            grid = scipy.fft.ifftn(grid, axes=self._axes, norm="forward")
        else:
            grid = scipy.fft.fftn(grid, axes=self._axes)
        return grid.reshape(x.shape)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_alpha coeffs_alpha phi_alpha at the nodes, (Q,) or (Q, m).

        The synthesis twin of :meth:`adjoint`; aliased bins are summed.
        """
        c = np.asarray(coeffs, dtype=complex)
        columns = c[self._order].reshape(c.shape[0], -1)
        spectrum = np.zeros(self._flat + columns.shape[1:], dtype=complex)
        spectrum[:, self._bins] = np.add.reduceat(
            self._grouped_powers * columns, self._starts, axis=1)
        return self._ring_fft(spectrum, inverse=True).reshape((-1,) + c.shape[1:])

    def gram(self, omega: np.ndarray) -> np.ndarray:
        """sum_q omega_q conj(phi_alpha) phi_beta over the nodes, (N, N)."""
        spectrum = self._ring_fft(np.reshape(omega, self._flat))[:, self._difference]
        return np.einsum("ka,kab,kb->ab", self._powers.conj(), spectrum, self._powers)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """sum_q conj(phi_alpha) v_q over the nodes, (N,)."""
        spectrum = self._ring_fft(np.reshape(v, self._flat))[:, self._residue]
        return np.einsum("ka,ka->a", self._powers.conj(), spectrum)

    @cached_property
    def base_gram(self) -> np.ndarray:
        """Centred Gram matrix of the quadrature weights."""
        G = self.gram(self.weights)
        return 0.5 * (G + G.conj().T)

    @cached_property
    def factor(self) -> np.ndarray:
        """Upper Cholesky factor C of :attr:`base_gram` (G = C^H C).

        ``C @ coeffs`` has the weighted L^2 norm of the function, so N x N
        factorizations through C stand in for Q x N ones of node values.
        """
        try:
            return scipy.linalg.cholesky(self.base_gram, lower=False, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise RankLossError("basis numerically rank deficient on this rule") from exc


def gram_matrix(space: PolySpace) -> np.ndarray:
    """Hermitian Gram matrix of the basis under the quadrature product."""
    G = space.ring.base_gram.copy()
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise RankLossError(f"Gram matrix condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return G


# ---------------------------------------------------------------------------
# point-adapted orthonormal bases
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class OrthonormalBasis:
    """Quadrature-orthonormal basis with jets adapted to a point.

    ``transform[b, a]`` expresses ``sigma_a = sum_b transform[b, a] psi_b``
    where psi_b are the solve-basis monomials: ``(w - point)^beta`` for
    polynomial spaces (then transform[b, a] is also the order-beta Taylor
    jet of sigma_a at the point, and vanishes unless beta >= alpha in the
    graded order), or the Laurent monomials (no jet adaptation).
    ``coeffs[:, a]`` holds the same sigma_a in the space's centred basis.
    """

    space: PolySpace
    point: tuple[complex, ...]
    transform: np.ndarray
    coeffs: np.ndarray

    @property
    def indices(self) -> list[MultiIndex]:
        return self.space.indices

    def sigma(self, position: int) -> PolyCoeffs:
        return self.space.element(self.transform[:, position], center=self.point)

    def node_values(self) -> np.ndarray:
        return self.space.values(self.coeffs)

    def check(self, space: PolySpace, point: tuple[complex, ...]) -> None:
        """Raise ValueError unless this basis was built on ``space`` at ``point``."""
        if self.space is not space or self.point != point:
            raise ValueError(
                f"orthonormal basis was built for another space or point "
                f"({self.point}), not for {point} on this space")


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
    """
    point = _as_point(z, space.dimension)
    return OrthonormalBasis(space, point, *_orthonormal_transform(space, point))


def _orthonormal_transform(space: PolySpace, point,
                           keep: list[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Triangular T and centred coefficients U of an orthonormal basis, built from the top.

    Column a of T only involves solve-basis columns b >= a (of ``keep``,
    all by default), and its leading coefficient T[a, a] is real and
    positive; processing from the last column to the first keeps the jet
    flag structure.  With J = jet_map and the ring factor C, the columns
    of X = C^-H J^H represent the jet functionals at the point in the
    weighted product, and carry no cancellation.  An N x N QR, X = Q R,
    with the dropped columns first and their block then discarded, gives
    both factors: the trailing columns of Q span the functions whose
    dropped jets vanish, so U = C^-1 Q is orthonormal there, and its jets
    at the point are T = R^H.  Raises RankLossError when the columns are
    numerically dependent: the guard reads the same equilibrated diagonal
    as a QR of the node values would, 1 / (T[a, a] ||psi_a||), where
    ||psi_a|| is the norm of column a of T^-1.
    """
    n = space.size
    # numpy's inverse rather than scipy's triangular solves: scipy's own
    # threaded BLAS leaves its workers spinning against the numpy products
    # of an IRLS solve that follows (3x slower on two cores)
    C_inv = np.linalg.inv(space.ring.factor)
    X = (space.jet_map(point) @ C_inv).conj().T
    if keep is not None:
        kept = set(keep)
        X = X[:, [j for j in range(n) if j not in kept] + list(keep)]
    m = n if keep is None else len(keep)
    # equilibrate columns first so monomial scale spread (radius^|alpha| on
    # small domains) does not masquerade as rank loss
    colnorm = np.linalg.norm(X, axis=0)
    Q, R = np.linalg.qr(X / colnorm)
    Q, R = Q[:, n - m:], R[n - m:, n - m:]
    diag = np.diagonal(R)
    if np.min(np.abs(diag)) == 0:
        raise RankLossError("basis numerically rank deficient at this point")
    # rotate phases so every sigma has a positive leading jet
    phase = diag / np.abs(diag)
    R = phase.conj()[:, None] * R * colnorm[None, n - m:]
    # ||psi_a||, the norm of column a of T^-1, is that of row a of R^-1;
    # the upper triangular R inverts without pivoting
    scaled = 1.0 / (np.abs(np.diagonal(R)) * np.linalg.norm(np.linalg.inv(R), axis=1))
    if not np.all(np.isfinite(scaled)) or scaled.max() / scaled.min() > math.sqrt(CONDITION_LIMIT):
        raise RankLossError("basis numerically rank deficient at this point")
    return R.conj().T, C_inv @ (Q * phase[None, :])


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
