"""Higher-order extremal kernels driven by a homogeneous derivative pairing.

A degree-k homogeneous polynomial with coefficients a_alpha acts on a
holomorphic function through (P f)(z) = sum_{|alpha|=k} a_alpha (D^alpha f)(z).
The higher-order kernel at z is K = m^(-p) where m is the minimal norm over
functions with vanishing (k-1)-jet at z normalized by (P f)(z) = 1.

Three independent routes compute it:

  * direct constrained minimization: the vanishing jets are all orders below
    k, the leading block of the graded basis, so the solve runs on the
    trailing block of the jet-adapted orthonormal basis at z and the
    normalization becomes one affine row;
  * outer minimization of the plain kernel over the affine family of
    functionals sharing the top coefficients a_alpha * alpha! (one BFGS run
    over the free low-order coefficients, each inner solve warm-started
    from the previous one);
  * at p = 2, a triangular linear system through the jet-adapted orthonormal
    basis yields the exact minimizing functional in closed form.

Cross-agreement of the three is part of the verification battery.
"""

from __future__ import annotations

import math
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
    _constrained_kernel,
    diagonal,
    kernel2_diagonal,  # noqa: F401
)
from .lpsolve import GRAD_TOL, OBJ_TOL
# kernel2_diagonal and solve_affine_lp are not called here since the solves
# moved to kernels; they stay importable because bench/spans.py wraps these
# lookups
from .lpsolve import solve_affine_lp  # noqa: F401
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

# relative slack by which the infimum route may undercut the direct value
ASSERT_TOL = 1e-3

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
        if self.H.degree == 0:
            return ()
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
    """Outcome of the outer minimization over the functional family."""

    K: float
    m: float
    xi_star: Functional
    free_part: tuple[complex, ...]
    inner_calls: int
    starts: tuple[tuple[float, tuple[complex, ...]], ...]
    flags: tuple[str, ...] = ()


def _require_polynomial_space(space: PolySpace):
    if space.laurent:
        raise KernelError("higher-order kernels need a polynomial (non-Laurent) basis")


def _leading_block(space: PolySpace, k: int) -> int:
    """Number of orders below k, which lead the graded basis of the space.

    Raises KernelError when k exceeds the truncation degree or the space
    misses an order below k (a per-axis truncation can).
    """
    if k > space.degree:
        raise KernelError(
            f"pairing degree {k} exceeds the truncation degree {space.degree}")
    orders = enumerate_upto_degree(space.dimension, k - 1)
    if space.indices[:len(orders)] != orders:
        missing = next(idx for idx in orders if idx not in space.indices)
        raise KernelError(f"vanishing order {missing} lies outside the truncated space")
    return len(orders)


def higher_kernel_direct(
    space: PolySpace,
    H: HomogeneousPolynomial,
    z,
    p: float,
) -> KernelEvaluation:
    """Higher-order kernel by direct constrained minimization.

    The minimal-norm element with vanishing jets at all orders below
    deg H and (P f)(z) = 1.  Those orders are the leading block of the
    graded order, so the solve runs on the trailing block of the basis
    orthonormalized at z.  Exact at p = 2, Newton steps otherwise.
    """
    _require_polynomial_space(space)
    low = _leading_block(space, H.degree)
    if p < 1:
        raise ValueError("jet-constrained kernels require p >= 1")
    return _constrained_kernel(space, H.top_functional(), z, p, low)


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
    _require_polynomial_space(space)
    family = FunctionalFamily(H)
    if not family.free_indices:
        return family.fixed_member()
    k = H.degree
    low = _leading_block(space, k)
    top_idx = [j for j, idx in enumerate(space.indices) if idx.degree == k]

    T = orthonormal_basis(space, z).transform
    # pairing coefficient of basis element alpha: c_alpha = sum_beta xi_beta T[beta, alpha]
    M = T[:low, :low].T
    fixed = family.H.top_functional()
    fixed_vec = np.array([fixed[space.indices[j]] for j in top_idx], dtype=complex)
    rhs = -(T[top_idx, :low].T @ fixed_vec)
    dmin = float(np.min(np.abs(np.diag(M))))
    if dmin == 0.0:
        raise KernelError("degenerate leading jet in the orthonormal basis")
    # M is upper triangular with a nonzero diagonal, so the partial pivoting
    # of a general solve swaps no rows
    x = np.linalg.solve(M, rhs)
    return family.member(x)


def _log_kernel_and_gradient(space, family, z, p, x, warm=None):
    """log K of the family member at x, with its exact gradient in x.

    ``x`` interleaves the real and imaginary parts of the free coefficients.
    The inner minimizer f* has (xi . f*)(z) = 1, so by the envelope theorem
    d log K = p Re sum_alpha d xi_alpha a_alpha, where a_alpha is the centred
    coefficient of f* at the free index alpha (its free jet, (T u)_alpha):
    the derivative costs no solve beyond the value.  ``warm``, a one-entry
    list, carries the last inner minimizer in the space's centred basis
    (its ``coeffs``) from call to call: the inner solve starts from it
    (None: the p = 2 point) and leaves its own there.
    """
    ev = _constrained_kernel(space, family.member(x[0::2] + 1j * x[1::2]), z, p,
                             start=None if warm is None else warm[0])
    if warm is not None:
        warm[0] = ev.coeffs
    jets = np.array([ev.minimizer.coefficient(idx) for idx in family.free_indices])
    grad = np.empty(len(x))
    grad[0::2] = p * jets.real
    grad[1::2] = -p * jets.imag
    return math.log(ev.K), grad


def higher_kernel_via_inf(
    space: PolySpace,
    H: HomogeneousPolynomial,
    z,
    p: float,
) -> HigherInfResult:
    """Higher-order kernel as the minimum of plain kernels over the family.

    Minimizes log K by one BFGS run over the real and imaginary parts of the
    free coefficients.  K^(1/p) is a dual norm of the functional, so log K
    is convex along the family and one run suffices.  It starts from the
    exact p = 2 solution, or from zero at p = 2 itself, where that solution
    would make this route a copy of :func:`minimizing_xi_p2`.  The
    derivative is exact and free: it is p times the inner minimizer's free
    jets, which vanish exactly where the direct route's jet conditions hold.
    Every inner call solves in one basis orthonormalized at z, starting
    from the previous call's minimizer rescaled to the new functional.  The
    run converges when every gradient entry is below 100 p GRAD_TOL, the
    accuracy of the inner solve, or when its line search loses precision
    with a predicted remaining decrease of log K below OBJ_TOL, the
    relative objective change the inner solve resolves; otherwise the
    result carries ``outer-non-convergence``.  Deterministic: no random
    starts.  The sanity bound against the direct route (which the minimum
    can never undercut beyond numerical error) is enforced with ASSERT_TOL
    relative slack; the stop rule never reads the direct value.
    """
    # only this route minimizes, so the import is paid on its first call
    import scipy.optimize

    _require_polynomial_space(space)
    if p < 1:
        raise ValueError("outer minimization requires p >= 1")
    family = FunctionalFamily(H)
    free = family.free_indices
    direct = higher_kernel_direct(space, H, z, p)

    if not free:
        ev = diagonal(space, family.fixed_member(), z, p)
        return HigherInfResult(
            K=ev.K, m=ev.m, xi_star=ev.xi, free_part=(),
            inner_calls=1, starts=((ev.K, ()),), flags=ev.flags)

    calls = 0
    warm = [None]

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal calls
        calls += 1
        return _log_kernel_and_gradient(space, family, z, p, x, warm=warm)

    x0 = np.zeros(2 * len(free))
    if p != 2:
        xi2 = minimizing_xi_p2(space, H, z)
        for i, idx in enumerate(free):
            x0[2 * i], x0[2 * i + 1] = xi2[idx].real, xi2[idx].imag

    res = scipy.optimize.minimize(
        objective, x0, jac=True, method="BFGS",
        options={"gtol": 100 * p * GRAD_TOL})
    # a precision-loss stop (status 2) is converged when no step can gain
    # more than the inner solve resolves: the line search then fails on the
    # inner rounding, not on a wrong model
    at_floor = res.status == 2 and 0.5 * res.jac @ res.hess_inv @ res.jac <= OBJ_TOL
    flags = () if res.success or at_floor else ("outer-non-convergence",)

    vec = tuple(res.x[0::2] + 1j * res.x[1::2])
    K = math.exp(res.fun)
    if K < direct.K * (1 - ASSERT_TOL):
        raise KernelError(
            f"outer minimum {K:.9g} undercuts the direct value {direct.K:.9g}")
    return HigherInfResult(
        K=K, m=K ** (-1.0 / p), xi_star=family.member(vec), free_part=vec,
        inner_calls=calls, starts=((K, vec),), flags=flags)
