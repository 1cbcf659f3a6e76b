"""Higher-order extremal kernels driven by a homogeneous derivative pairing.

A degree-k homogeneous polynomial with coefficients a_alpha acts on a
holomorphic function through (P f)(z) = sum_{|alpha|=k} a_alpha (D^alpha f)(z).
The higher-order kernel at z is K = m^(-p) where m is the minimal norm over
functions with vanishing (k-1)-jet at z normalized by (P f)(z) = 1.

Three independent routes compute it:

  * direct constrained minimization: the vanishing jets are all orders below
    k, the leading block of the graded basis, so the solve runs on an
    orthonormal basis of the functions with those jets vanishing (for
    p != 2 the trailing block of the jet-adapted orthonormal basis at z)
    and the normalization becomes one affine row;
  * the minimum of the plain kernel over the affine family of functionals
    sharing the top coefficients a_alpha * alpha!: the direct minimizer's
    Euler-Lagrange pairing names the minimizing member xi* in closed form,
    and a Hoelder duality bracket at xi*, from the same adjoint, certifies
    that it attains K with no second solve: the direct minimizer is
    feasible for xi*, so K_H <= K_xi*, and an exact L^q representer of xi*
    bounds K_xi* from above;
  * at p = 2, a triangular linear system through the jet-adapted orthonormal
    basis yields the exact minimizing functional in closed form.

Cross-agreement of the three is part of the verification battery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .algebra import (
    AlgebraError,
    Functional,
    MultiIndex,
    PolyCoeffs,
    enumerate_upto_degree,
    functional_apply,
)
from .kernels import (
    KernelError,
    KernelEvaluation,
    _bracket,
    _constrained_kernel,
    diagonal,  # noqa: F401
    kernel2_diagonal,  # noqa: F401
)
# diagonal, kernel2_diagonal and solve_affine_lp are not called here since
# the solves moved to kernels; they stay importable because bench/spans.py
# wraps these lookups
from .lpsolve import (
    _dual,
    solve_affine_lp,  # noqa: F401
)
from .pspace import PolySpace, orthonormal_basis

__all__ = [
    "HomogeneousPolynomial",
    "FunctionalFamily",
    "HigherInfResult",
    "apply_homogeneous",
    "higher_kernel_direct",
    "higher_kernel_via_inf",
    "minimizing_xi_p2",
]

_FACTOR_RE = re.compile(r"^z(\d*)(?:\^(\d+))?$")

# relative slack by which the infimum route's upper bound may undercut the
# direct value before it raises
ASSERT_TOL = 1e-3

# largest width K_upper / K_H - 1 of the duality bracket at the closed-form
# minimizing member before the infimum route flags inf-not-attained
ATTAIN_TOL = 1e-8

# absolute slack on the top coefficients in FunctionalFamily.contains
MEMBER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HomogeneousPolynomial:
    """Homogeneous polynomial sum a_alpha z^alpha of a single total degree.

    ``degree`` 0 is allowed and means a nonzero constant (the induced
    pairing is then plain evaluation scaled by that constant).
    """

    dimension: int
    degree: int
    coeffs: Mapping[MultiIndex, complex]

    def __post_init__(self):
        cleaned = Functional(self.dimension, self.coeffs).terms
        if not cleaned:
            raise AlgebraError("homogeneous polynomial needs a nonzero coefficient")
        for idx in cleaned:
            if idx.degree != self.degree:
                raise AlgebraError(
                    f"index {idx} has degree {idx.degree}, expected {self.degree}")
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def monomial(cls, alpha, coeff: complex = 1.0) -> "HomogeneousPolynomial":
        idx = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha))
        return cls(idx.dimension, idx.degree, {idx: coeff})

    @classmethod
    def constant(cls, value: complex = 1.0, dimension: int = 1) -> "HomogeneousPolynomial":
        return cls(dimension, 0, {MultiIndex.zero(dimension): value})

    @classmethod
    def from_string(cls, text: str, dimension: int | None = None) -> "HomogeneousPolynomial":
        """Parse "z1^2: 1.0, z1 z2: 0.5" style strings ("1: c" for constants).

        Bare ``z`` means the first coordinate; exponents default to 1.  The
        dimension is inferred from the largest coordinate index unless given.
        """
        raw: list[tuple[dict[int, int], complex]] = []
        max_var = 1
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            mono_text, _, coeff_text = chunk.rpartition(":")
            if not mono_text:
                raise AlgebraError(f"term {chunk!r} is missing a ':'")
            coeff = complex(coeff_text.strip().replace(" ", ""))
            powers: dict[int, int] = {}
            mono_text = mono_text.strip()
            if mono_text != "1":
                for factor in mono_text.split():
                    mt = _FACTOR_RE.match(factor)
                    if not mt:
                        raise AlgebraError(f"cannot parse monomial factor {factor!r}")
                    var = int(mt.group(1)) if mt.group(1) else 1
                    exp = int(mt.group(2)) if mt.group(2) else 1
                    if var < 1:
                        raise AlgebraError(f"coordinate index in {factor!r} must be >= 1")
                    powers[var] = powers.get(var, 0) + exp
                    max_var = max(max_var, var)
            raw.append((powers, coeff))
        if not raw:
            raise AlgebraError("empty polynomial string")
        dim = dimension if dimension is not None else max_var
        if max_var > dim:
            raise AlgebraError(f"coordinate z{max_var} exceeds the dimension {dim}")
        terms: dict[MultiIndex, complex] = {}
        for powers, coeff in raw:
            entries = tuple(powers.get(j + 1, 0) for j in range(dim))
            idx = MultiIndex(entries)
            terms[idx] = terms.get(idx, 0j) + coeff
        degrees = {idx.degree for idx in terms}
        if len(degrees) != 1:
            raise AlgebraError(f"terms of mixed degrees {sorted(degrees)}")
        return cls(dim, degrees.pop(), terms)

    def top_functional(self) -> Functional:
        """The induced jet functional: coefficient a_alpha * alpha! at alpha."""
        return Functional(
            self.dimension,
            {idx: c * idx.factorial() for idx, c in self.coeffs.items()})

    def __str__(self) -> str:
        parts = []
        for idx, c in sorted(self.coeffs.items(), key=lambda t: t[0].sort_key()):
            mono = " ".join(
                f"z{j+1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(idx.entries) if e > 0) or "1"
            parts.append(f"{mono}: {c}")
        return ", ".join(parts)


def apply_homogeneous(H: HomogeneousPolynomial, f: PolyCoeffs, z) -> complex:
    """(P f)(z) = sum a_alpha (D^alpha f)(z), the pairing of H's top functional;
    plain evaluation when degree 0."""
    return functional_apply(H.top_functional(), f, z)


@dataclass(frozen=True, eq=False)
class FunctionalFamily:
    """Affine family of functionals sharing a homogeneous top part.

    Members have xi_alpha = a_alpha * alpha! at |alpha| = k, zero above, and
    arbitrary complex values on the free indices |alpha| < k.
    """

    H: HomogeneousPolynomial

    @property
    def free_indices(self) -> tuple[MultiIndex, ...]:
        return tuple(enumerate_upto_degree(self.H.dimension, self.H.degree - 1))

    def member(self, free) -> Functional:
        free = tuple(complex(v) for v in free)
        idxs = self.free_indices
        if len(free) != len(idxs):
            raise AlgebraError(
                f"family has {len(idxs)} free coefficients, got {len(free)}")
        terms = dict(self.H.top_functional().terms)
        for idx, v in zip(idxs, free):
            if v != 0:
                terms[idx] = v
        return Functional(self.H.dimension, terms)

    def fixed_member(self) -> Functional:
        return self.member((0j,) * len(self.free_indices))

    def contains(self, xi: Functional) -> bool:
        """Membership check: top part matches to MEMBER_TOL, nothing above degree k."""
        top = self.H.top_functional()
        k = self.H.degree
        for idx, c in xi.terms.items():
            if idx.degree > k:
                return False
            if idx.degree == k and abs(c - top[idx]) > MEMBER_TOL:
                return False
        return all(abs(xi[idx] - c) <= MEMBER_TOL for idx, c in top.terms.items())


@dataclass
class HigherInfResult:
    """The family member that attains the higher-order kernel, with its certificate.

    ``xi_star`` is the closed-form minimizing member and ``free_part`` its
    coefficients on the free indices; with no free index (deg H = 0) the
    member is H's top functional and ``free_part`` is empty.  K and m are
    the direct solve's, and ``K_upper`` is the Hoelder upper bound on K at
    xi*, so K <= K_xi* <= K_upper on the discrete problem, and
    ``duality_gap`` = K_upper / K - 1 is the bracket's width.
    ``inner_calls`` counts the solves made, always one, and ``starts``
    holds the one candidate, ``((K, free_part),)``.  ``flags`` carries the
    solve's flags and ``inf-not-attained`` when the gap exceeds ATTAIN_TOL.
    """

    K: float
    m: float
    K_upper: float
    duality_gap: float
    xi_star: Functional
    free_part: tuple[complex, ...]
    inner_calls: int
    starts: tuple[tuple[float, tuple[complex, ...]], ...]
    flags: tuple[str, ...] = ()


def _jet_constraint(space: PolySpace, H: HomogeneousPolynomial,
                    p: float) -> tuple[Functional, int]:
    """H's top functional and ``low``, the number of vanishing orders below k = deg H.

    Those orders lead the graded basis of the space, so the constrained
    solve takes them as its leading block.  Raises KernelError on a
    Laurent basis, when k exceeds the truncation degree or when the space
    misses an order below k (a per-axis truncation can), and ValueError
    below p = 1.
    """
    if space.laurent:
        raise KernelError("higher-order kernels need a polynomial (non-Laurent) basis")
    k = H.degree
    if k > space.degree:
        raise KernelError(
            f"pairing degree {k} exceeds the truncation degree {space.degree}")
    orders = enumerate_upto_degree(space.dimension, k - 1)
    if space.indices[:len(orders)] != orders:
        missing = next(idx for idx in orders if idx not in space.indices)
        raise KernelError(f"vanishing order {missing} lies outside the truncated space")
    if p < 1:
        raise ValueError("jet-constrained kernels require p >= 1")
    return H.top_functional(), len(orders)


def higher_kernel_direct(
    space: PolySpace,
    H: HomogeneousPolynomial,
    z,
    p: float,
) -> KernelEvaluation:
    """Higher-order kernel by direct constrained minimization.

    The minimal-norm element with vanishing jets at all orders below
    deg H and (P f)(z) = 1.  Those orders are the leading block of the
    graded order, so away from p = 2 Newton steps run on the trailing
    block of the basis orthonormalized at z; at p = 2 the value is exact,
    on the null space of those jets in the space's own orthonormal basis.
    Above p = 1 and off the domain's center the descent may start at the
    jet start of :func:`~xibergman.kernels._warm_start`, which on the disk
    is the extremal for H = z^k up to a constant and truncation.
    """
    top, low = _jet_constraint(space, H, p)
    return _constrained_kernel(space, top, z, p, low)


def minimizing_xi_p2(
    space: PolySpace,
    H: HomogeneousPolynomial,
    z,
) -> Functional:
    """Exact minimizing functional of the family at p = 2.

    In the jet-adapted orthonormal basis the kernel is the squared norm of
    the pairing-coefficient vector; killing every coefficient below order k
    is an upper-triangular system in the free coefficients (the diagonal
    holds the nonvanishing leading jets), solved directly.
    """
    fixed, low = _jet_constraint(space, H, 2.0)
    family = FunctionalFamily(H)
    if not low:
        return family.fixed_member()
    top_idx = [j for j, idx in enumerate(space.indices) if idx.degree == H.degree]

    T = orthonormal_basis(space, z).transform
    # pairing coefficient of basis element alpha: c_alpha = sum_beta xi_beta T[beta, alpha]
    M = T[:low, :low].T
    fixed_vec = np.array([fixed[space.indices[j]] for j in top_idx], dtype=complex)
    rhs = -(T[top_idx, :low].T @ fixed_vec)
    dmin = float(np.min(np.abs(np.diag(M))))
    if dmin == 0.0:
        raise KernelError("degenerate leading jet in the orthonormal basis")
    # M is upper triangular with a nonzero diagonal, so the partial pivoting
    # of a general solve swaps no rows
    x = np.linalg.solve(M, rhs)
    return family.member(x)


def _pairing_vector(space: PolySpace, z, centred: np.ndarray) -> np.ndarray:
    """pi_alpha = sum_q w_q rho_q conj(f(x_q)) (x_q - z)^alpha for every index alpha.

    The extremal pairing of a minimizer f (see
    :func:`~xibergman.kernels.extremal_pairing`) against the z-shifted
    monomials, from ``centred``, the adjoint of w rho f, which is the
    conjugate pairing against the centred monomials: the shift matrix
    carries those to the shifted ones.
    """
    return space.shift_matrix(z).T @ centred.conj()


def higher_kernel_via_inf(
    space: PolySpace,
    H: HomogeneousPolynomial,
    z,
    p: float,
) -> HigherInfResult:
    """Higher-order kernel as the minimum of plain kernels over the family.

    Every f with vanishing jets below k and (P f)(z) = 1 is feasible for
    every member of the family, so K_xi >= K_H on all of it, and a member
    with K_xi = K_H attains the minimum.  The direct minimizer f_H names
    that member: its Euler-Lagrange condition says the pairing
    pi_alpha = sum_q w_q rho_q conj(f_H) (w - z)^alpha is lambda xi*_alpha
    for one lambda and every index.  Tested on f_H itself, for which
    (xi* . f_H)(z) = 1, it gives lambda = sum_q w_q rho_q |f_H|^2, the
    bracket's own normalization, and xi*_alpha = pi_alpha / lambda on the
    free indices, at every p >= 1.  Node values, weights and the adjoint
    of w rho f_H come from one :func:`~xibergman.lpsolve._dual`.  Hoelder
    duality then certifies the minimum with no second solve: f_H is
    feasible for xi*, so K_H <= K_xi*, and the exact representer of xi*
    built from the same adjoint gives K_xi* <= K_upper (see
    :func:`~xibergman.kernels.duality_bracket`).  K and m are the direct
    solve's; the result carries its flags and ``inf-not-attained`` when
    the bracket's gap K_upper / K_H - 1 exceeds ATTAIN_TOL.  A K_upper
    below K_H by more than ASSERT_TOL relative raises, since no member
    can undercut the direct value beyond numerical error.  With no free
    index (deg H = 0) the same path runs: the direct solve has no
    vanishing jet, and the member is H's top functional.
    """
    ev = higher_kernel_direct(space, H, z, p)
    family = FunctionalFamily(H)
    dual = _dual(space.ring, ev.coeffs, ev.p)
    g, rho, centred = dual
    pairing = _pairing_vector(space, ev.z, centred)
    lam = float(np.sum(space.ring.weights * rho * (g.real**2 + g.imag**2)))
    # the free indices are the leading block of the graded basis
    vec = tuple(pairing[:len(family.free_indices)] / lam)
    xi_star = family.member(vec)
    # the residual of the representer is taken from the adjoint itself,
    # so a wrong xi* widens the gap
    bracket = _bracket(space, xi_star, ev, dual)

    if bracket.K_upper < ev.K * (1 - ASSERT_TOL):
        raise KernelError(
            f"family upper bound {bracket.K_upper:.9g} undercuts the direct value {ev.K:.9g}")
    flags = ev.flags
    if bracket.gap > ATTAIN_TOL:
        flags += ("inf-not-attained",)
    return HigherInfResult(
        K=ev.K, m=ev.m, K_upper=bracket.K_upper, duality_gap=bracket.gap,
        xi_star=xi_star, free_part=vec, inner_calls=1, starts=((ev.K, vec),),
        flags=flags)
