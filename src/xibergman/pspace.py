"""Truncated subspaces of A^p(Omega) with cached node evaluations.

A :class:`PolySpace` is the span of monomials ``(z - center)^alpha`` for a
finite index set (total-degree or per-axis-degree truncation), or of Laurent
monomials ``z^k, |k| <= D`` on an annulus.  All norms and Gram matrices are
taken with respect to the attached quadrature rule, so every inner product
in the package is the same discrete object.

:func:`orthonormal_basis` produces a basis adapted to a point: sigma_alpha
has vanishing Taylor jet at the point for every order below alpha (in the
graded order) and a nonvanishing jet exactly at alpha.  That triangular
structure is what the degree-constrained functional solvers rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
    "OrthonormalBasis",
    "lp_norm",
    "gram_matrix",
    "orthonormal_basis",
    "sup_bound_constant",
    "RankLossError",
    "DegreeOverflowError",
]

# refuse node-value caches beyond this many complex entries (~1.6 GB)
MAX_CACHE_ENTRIES = 100_000_000

CONDITION_LIMIT = 1e12


class RankLossError(ValueError):
    """Basis numerically rank deficient at the working precision."""


class DegreeOverflowError(ValueError):
    """Polynomial does not fit inside the truncated space."""


def default_degree(dimension: int) -> int:
    return {1: 16, 2: 10}.get(dimension, 6)


@dataclass(eq=False)
class PolySpace:
    """A finite monomial basis over a quadrature rule."""

    domain: Domain
    quadrature: Quadrature
    indices: list[MultiIndex]
    center: tuple[complex, ...]
    laurent: bool = False
    mode: str = "total"
    flags: tuple[str, ...] = ()
    node_matrix: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.node_matrix is None:
            self.node_matrix = self._evaluate_basis(self.quadrature.nodes)
            self.node_matrix.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def build(
        cls,
        domain: Domain,
        degree: int | None = None,
        radial_order: int = 32,
        angular_order: int = 64,
        mode: str = "total",
        center: Sequence[complex] | None = None,
        quadrature: Quadrature | None = None,
    ) -> "PolySpace":
        """Build the default truncated space on a domain.

        ``mode`` is "total" (all |alpha| <= degree) or "tensor" (all
        alpha_j <= degree per axis); annuli always get the Laurent band
        ``|k| <= degree``.  ``degree`` defaults to 16 / 10 / 6 for
        dimensions 1 / 2 / >= 3.
        """
        if degree is None:
            degree = default_degree(domain.dimension)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        quad = quadrature if quadrature is not None else build_quadrature(domain, radial_order, angular_order)

        flags: tuple[str, ...] = ()
        if domain.shape == "cloud":
            flags = ("unverified-density",)

        laurent = domain.shape == "annulus"
        if laurent:
            ks = sorted(range(-degree, degree + 1), key=lambda k: (abs(k), k))
            indices = [MultiIndex((k,)) for k in ks]
            ctr, mode = (0j,), "laurent"
        else:
            ctr = tuple(complex(c) for c in center) if center is not None else domain.center
            if mode == "total":
                indices = enumerate_upto_degree(domain.dimension, degree)
            elif mode == "tensor":
                indices = _tensor_indices(domain.dimension, degree)
            else:
                raise ValueError(f"unknown basis mode {mode!r}")
        entries = quad.node_count * len(indices)
        if entries > MAX_CACHE_ENTRIES:
            raise MemoryError(
                f"node cache would hold {entries} complex entries; reduce orders or degree"
            )
        if quad.node_count < len(indices):
            # fewer nodes than basis functions: the quadrature product is
            # singular on the space, whatever the node placement
            raise RankLossError(
                f"quadrature has {quad.node_count} nodes for {len(indices)} "
                "basis functions; raise the orders or lower the degree")
        return cls(domain, quad, indices, ctr, laurent=laurent, mode=mode, flags=flags)

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

    def _evaluate_basis(self, points: np.ndarray, center=None) -> np.ndarray:
        """Node-value matrix of the basis monomials at arbitrary points."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        ctr = np.asarray(center if center is not None else self.center, dtype=complex)
        shifted = pts - ctr[None, :]
        if self.laurent:
            ks = np.array([idx.entries[0] for idx in self.indices])
            return shifted[:, 0][:, None] ** ks[None, :]
        exps = np.array([idx.entries for idx in self.indices])  # (N, n)
        out = np.ones((pts.shape[0], len(self.indices)), dtype=complex)
        for j in range(self.dimension):
            maxdeg = int(exps[:, j].max(initial=0))
            powers = shifted[:, j][:, None] ** np.arange(maxdeg + 1)[None, :]
            out *= powers[:, exps[:, j]]
        return out

    def shifted_node_matrix(self, z) -> np.ndarray:
        """Values of the monomials ``(w - z)^alpha`` at the quadrature nodes.

        Total-degree and per-axis index sets are shift invariant, so this
        matrix spans the same space as the cached one.  Laurent bases are
        not shiftable.
        """
        if self.laurent:
            raise AlgebraError("Laurent bases cannot be re-centered")
        return self._evaluate_basis(self.quadrature.nodes, center=_as_point(z, self.dimension))

    def solve_node_matrix(self, z) -> np.ndarray:
        """Node values of the solve basis at z: shifted monomials, or Laurent."""
        return self.node_matrix if self.laurent else self.shifted_node_matrix(z)

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
        return self.node_matrix @ coeffs

    def cache_key(self) -> tuple:
        return (
            self.domain.cache_key(),
            tuple(idx.entries for idx in self.indices),
            self.center,
            self.quadrature.radial_order,
            self.quadrature.angular_order,
        )


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


def gram_matrix(space: PolySpace, check_condition: bool = True) -> np.ndarray:
    """Hermitian Gram matrix of the basis under the quadrature product."""
    phi = space.node_matrix
    G = phi.conj().T @ (space.quadrature.weights[:, None] * phi)
    G = 0.5 * (G + G.conj().T)
    if check_condition:
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
    """

    space: PolySpace
    point: tuple[complex, ...]
    transform: np.ndarray
    jet_adapted: bool

    @property
    def indices(self) -> list[MultiIndex]:
        return self.space.indices

    def pairing_coeffs(self, xi: Functional) -> np.ndarray:
        """c_alpha = (xi . sigma_alpha)(point) for every basis element."""
        L = self.space.constraint_row(xi, self.point)
        return self.transform.T @ L

    def sigma(self, position: int) -> PolyCoeffs:
        return self.space.element(self.transform[:, position], center=self.point)

    def node_values(self) -> np.ndarray:
        return self.space.solve_node_matrix(self.point) @ self.transform


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
    T = _orthonormal_transform(space.solve_node_matrix(point), space.quadrature.weights)
    return OrthonormalBasis(space, point, T, jet_adapted=not space.laurent)


def _orthonormal_transform(phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Triangular T whose columns phi @ T are orthonormal, built from the top.

    Columns are processed from the last to the first, so column a of T only
    involves columns b >= a of phi; the leading coefficient T[a, a] is real
    and positive.  Raises RankLossError when the columns are numerically
    dependent.
    """
    # equilibrate columns first so monomial scale spread (radius^|alpha| on
    # small domains) does not masquerade as rank loss
    Brev = np.sqrt(weights)[:, None] * phi[:, ::-1]
    colnorm = np.linalg.norm(Brev, axis=0)
    if np.any(colnorm == 0):
        raise RankLossError("basis numerically rank deficient at this point")
    Brev /= colnorm
    R = np.linalg.qr(Brev, mode="r")
    diag = np.diagonal(R)
    if np.min(np.abs(diag)) == 0 or np.max(np.abs(diag)) / np.min(np.abs(diag)) > math.sqrt(CONDITION_LIMIT):
        raise RankLossError("basis numerically rank deficient at this point")
    # rotate phases so every sigma has a positive leading jet
    phase = diag / np.abs(diag)
    R = phase.conj()[:, None] * R * colnorm[None, :]
    Rinv = np.linalg.inv(R)  # triangular, modest size
    return Rinv[::-1, ::-1]


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
