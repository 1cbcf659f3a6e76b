"""Extremal kernels for jet functionals: diagonal and off-diagonal values.

The central object is the minimal weighted L^p norm m(z) over the truncated
space subject to the normalization (xi . f)(z) = 1, together with

    K(z)        = m(z)^(-p)
    K(., z)     = minimizer * K(z)      (off-diagonal kernel, p >= 1)

For p = 2 the value is the closed form |c|^2 of an orthonormal-basis
pairing, with no iteration, in the space's own orthonormal basis (the
columns of C^-1, whose jets at z are B(z) = J(z) C^-1); for every other p
the constrained solver in lpsolve runs on the space's ring operator, in the
basis orthonormalized at z.
Both engines sit behind one constrained set-up, which also takes the
vanishing jets of the higher-order kernels: all orders below some k, the
leading block of the graded basis.
The module also evaluates the reproducing-formula residual, the symmetrized
difference quantity H with its two convexity-type integral inequalities,
a priori lower/upper bounds for K and, for p >= 1, the Hoelder duality
bracket that certifies a computed value of the discrete problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Functional, MultiIndex, PolyCoeffs, _as_point, functional_apply
from .domains import boundary_distance, contains
from .lpsolve import _dual, _hoelder_upper, _minimal_norm, _objective, solve_affine_lp
from .pspace import PolySpace, _orthonormal_jets, orthonormal_basis, sup_bound_constant

__all__ = [
    "KernelEvaluation",
    "OffDiagonalKernel",
    "HQuantity",
    "BoundsResult",
    "DualityBracket",
    "KernelError",
    "ZeroPairingError",
    "kernel2_diagonal",
    "kernelp_diagonal",
    "off_diagonal",
    "reproducing_residual",
    "extremal_pairing",
    "h_quantity",
    "bounds_check",
    "duality_bracket",
    "ball_monomial_lp_integral",
    "evaluations_to_csv",
    "evaluation_to_dict",
]


_ZERO_PAIRING = ("functional annihilates the truncated space at this point; "
                 "kernel is zero at this truncation")


class KernelError(RuntimeError):
    """Kernel evaluation failed in a way retrying cannot fix."""


class ZeroPairingError(KernelError):
    """The functional annihilates the whole truncated space at this point."""


@dataclass
class KernelEvaluation:
    """One diagonal kernel value with its minimizer and solve diagnostics.

    ``minimizer`` is centred at z (at 0 on a Laurent space); ``coeffs``
    holds the same function in the space's centred basis, the form a
    warm start of another solve on the space takes and the form its node
    values are computed from.
    """

    p: float
    z: tuple[complex, ...]
    m: float
    K: float
    minimizer: PolyCoeffs
    xi: Functional
    degree: int
    coeffs: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def flags(self) -> tuple[str, ...]:
        return tuple(self.diagnostics.get("flags", ()))


@dataclass
class OffDiagonalKernel:
    """K(., w) = minimizer(., w) * K(w) for a fixed pole w."""

    base: KernelEvaluation
    values: PolyCoeffs

    @property
    def pole(self) -> tuple[complex, ...]:
        return self.base.z

    def __call__(self, z) -> complex:
        return self.values(z)

    def pole_identity_residual(self) -> float:
        # (xi . K(., w))(w) should equal K(w) exactly by construction
        applied = functional_apply(self.base.xi, self.values, self.base.z)
        return abs(applied - self.base.K) / self.base.K


@dataclass
class HQuantity:
    """Symmetrized kernel difference H(z, w) and one integral inequality.

    regime is "midrange" for 1 < p <= 2 (lhs uses (|m_z|+|m_w|)^(p-2)) and
    "high" for p > 2 (lhs uses |m_z|^(p-2) + |m_w|^(p-2)); in both cases the
    claim under test is lhs <= rhs.
    """

    p: float
    z: tuple[complex, ...]
    w: tuple[complex, ...]
    h: float
    lhs: float
    rhs: float
    regime: str

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class BoundsResult:
    lower: float
    upper: float
    kernel: float
    z: tuple[complex, ...]
    p: float


@dataclass
class DualityBracket:
    """K_lower <= K <= K_upper for the discrete problem; gap = K_upper / K_lower - 1."""

    K_lower: float
    K_upper: float
    gap: float


def _check_inputs(space: PolySpace, xi: Functional, z) -> tuple[complex, ...]:
    if xi.is_zero:
        raise ValueError("functional is identically zero")
    if xi.dimension != space.domain.dimension:
        raise ValueError("functional dimension does not match the domain")
    zt = _as_point(z, space.domain.dimension)
    if not contains(space.domain, zt):
        raise ValueError(f"evaluation point {zt} lies outside the domain")
    return zt


def _constrained_kernel(
    space: PolySpace,
    xi: Functional,
    z,
    p: float,
    low: int = 0,
    seed: int = 42,
    start: np.ndarray | None = None,
) -> KernelEvaluation:
    """min ||f||_p subject to (xi . f)(z) = 1 and zero jets at the first ``low`` orders.

    The one constrained solve behind every kernel in the package.  Both
    engines work in an orthonormal basis of the functions whose jets
    vanish at the ``low`` leading orders of the graded order; T and U are
    its transform to the solve basis (the z-shifted monomials, or the
    Laurent monomials) and its centred coefficients.  There the
    functional is the single row c = T^T L, K = |c|^2, and u0 = conj(c) /
    |c|^2 is the p = 2 minimizer, whatever the basis.  At p = 2 the basis
    is the space's own, the columns of C^-1, with T = B(z) = J(z) C^-1
    (:func:`~xibergman.pspace._orthonormal_jets`); with vanishing jets,
    both are first restricted to the orthonormal null space of B(z)'s
    ``low`` leading rows, from a Householder QR of that N x low matrix.
    The solve stops at u0, and no per-point QR is formed.  At every other
    p the basis is the trailing block from position ``low`` of the
    point-adapted basis at z (:func:`~xibergman.pspace.orthonormal_basis`),
    and the descent solver of :mod:`xibergman.lpsolve` (Newton steps; for
    p < 1, reweighted least squares where a full Newton step is refused)
    runs on the space's ring operator, drawing its p < 1 restarts from
    ``seed``.  The minimizer's solve-basis coefficients are T u, its jets
    below ``low`` exactly 0, and its centred ones U u are returned as
    ``coeffs``.  A ``start`` is such a
    centred vector from an earlier solve on the space, at any point and
    for any functional.  This function alone decides whether the descent
    starts there (p >= 1 only), at u0 raised to the power 2/p (without
    vanishing jets; below p = 1 for a point evaluation only), with
    vanishing jets above p = 1 off the center at the jet start, the p = 2
    minimizer times a power of the delta_0 one at z, or at u0 (see
    :func:`_warm_start`).  The closed form and the p < 1 solves read
    no start, so their values never depend on call history.  Below p = 1
    the descent from the power start is the result when it ends
    stationary (method "power-start"); else the seeded restarts run and
    the diagnostics carry ``start_spread``, (max - min) / min of the
    descents' final objectives; above p = 1
    the descent's ``K_upper`` and ``duality_gap`` = K_upper / K - 1, the
    Hoelder bracket of the constrained discrete problem (see
    :func:`duality_bracket`), which the closed form, exact by
    construction, does not carry.
    """
    zt = _check_inputs(space, xi, z)
    if p == 2:
        # any orthonormal basis will do: the columns of C^-1, with jets B(z)
        B = _orthonormal_jets(space, zt)
        T, U = B[low:], space.ring.inverse_factor
        if low:
            # the orthonormal null space of the jets below low
            V = np.linalg.qr(B[:low].conj().T, mode="complete")[0][:, low:]
            T, U = T @ V, U @ V
    else:
        ob = orthonormal_basis(space, zt)
        T, U = ob.transform[low:, low:], ob.coeffs[:, low:]
    c = T.T @ space.constraint_row(xi, zt)[low:]
    K = float(np.vdot(c, c).real)
    if K <= (1e-14 * max(1.0, xi.max_abs_coeff())) ** 2:
        raise ZeroPairingError(_ZERO_PAIRING)
    if p == 2:
        u = _minimal_norm(c)
        m = K ** -0.5
        diagnostics = {"method": "exact-2", "iterations": 0,
                       "final_rel_step": 0.0, "flags": ()}
    else:
        point = xi.support() == [MultiIndex.zero(xi.dimension)]
        sol = solve_affine_lp(space.ring, U, c, p,
                              start=_warm_start(space, zt, U, c, p, low, start, point),
                              seed=seed)
        K = 1.0 / sol.objective
        m = sol.objective ** (1.0 / p)
        u = sol.coeffs
        diagnostics = {"method": sol.method, "iterations": sol.iterations,
                       "final_rel_step": sol.final_rel_step,
                       "grad_residual": sol.grad_residual,
                       "flags": sol.flags}
        if sol.start_spread is not None:
            diagnostics["start_spread"] = sol.start_spread
        if sol.K_upper is not None:
            diagnostics["K_upper"] = sol.K_upper
            diagnostics["duality_gap"] = sol.K_upper / K - 1.0
    full = np.zeros(space.size, dtype=complex)
    full[low:] = T @ u
    minimizer = space.element(full, center=zt)
    diagnostics["constraint_residual"] = abs(
        functional_apply(xi, minimizer, zt) - 1.0)
    return KernelEvaluation(
        p=float(p), z=zt, m=m, K=K, minimizer=minimizer, xi=xi,
        degree=space.degree, coeffs=U @ u, diagnostics=diagnostics)


def _warm_start(space: PolySpace, z: tuple[complex, ...], U: np.ndarray, c: np.ndarray,
                p: float, low: int, start: np.ndarray | None,
                point: bool = False) -> np.ndarray | None:
    """The feasible start the descent takes at ``z``, or None for u0, the p = 2 minimizer.

    There are up to two centred candidates: the caller's ``start``, and a
    power (:func:`_power_start`) of f2, the p = 2 minimizer with the same
    constraint.  Without vanishing jets (``low`` = 0) that is the power
    start f2^(2/p), up to a constant.  With vanishing jets, above p = 1
    and away from the space's center, it is the jet start

        f2 (d / d(center))^(2/p - 1)

    truncated to the index set, with d = C^-1 u0 the delta_0 p = 2
    minimizer at z, u0 from the row B(z)[0] of the point's memo, so no
    node is read.  On the disk the H = z^k extremal at z is a constant
    times phi_z^k (phi_z')^(2/p), phi_z(w) = (w - z) / (1 - conj(z) w), by
    the transformation rule of the p-Bergman kernel; there f2 is a
    constant times (w - z)^k (1 - conj(z) w)^(-k-2) and d one times
    (1 - conj(z) w)^-2, so the jet start is that extremal up to a
    constant and truncation.  Elsewhere it is a heuristic.  At the center
    it is f2 times a constant, and p = 1, with no certified stop, keeps u0.
    Below p = 1 the problem is nonconvex and the solver runs its seeded
    restarts unless the descent from the start ends stationary, so there
    the power start is the only candidate, and only for a point
    evaluation (``point``, the functional's support is the zero index),
    where it is exact up to truncation; the caller's ``start`` is never
    read, so a p < 1 value does not depend on call history.  A
    candidate's projection u = U^H G x onto the block (G the base Gram, in
    which U is orthonormal) is rescaled to u / (c . u), which is feasible.
    It is dropped when c . u is tiny against |c| |u|, or when
    sum_q w_q |f(x_q)|^p is larger there than at u0: a start from far away
    can cost many more steps than u0 does.  The candidate with the lowest
    such sum is the start; a tie within the 1e-15 relative slack of the
    solver's Armijo test goes to the candidate, since at a centre of
    symmetry the power start is u0 itself, rounded differently.
    """
    if not 0 < p < np.inf or p < 1 and not point:
        # an exponent the solver rejects, or p < 1 away from delta_0
        return None
    f2 = U @ _minimal_norm(c)
    power = None
    if low == 0:
        power = _power_start(space, f2, 2.0 / p)
    elif p > 1 and z != space.center:
        # the jet start, with d the delta_0 p = 2 minimizer at z
        d = space.ring.inverse_factor @ _minimal_norm(_orthonormal_jets(space, z)[0])
        power = _power_start(space, d, 2.0 / p - 1.0)
        if power is not None:
            power = space.series_product(f2, power)
    candidates = [x for x in (start if p >= 1 else None, power) if x is not None]
    if not candidates:
        return None
    best, lowest = None, _objective(space.ring, f2, p)
    for x in candidates:
        u = U.conj().T @ (space.ring.base_gram @ x)
        scale = c @ u
        if abs(scale) <= 1e-6 * np.linalg.norm(c) * np.linalg.norm(u):
            continue
        u = u / scale
        objective = _objective(space.ring, U @ u, p)
        if objective <= lowest * (1.0 + 1e-15):
            best, lowest = u, objective
    return best


def _power_start(space: PolySpace, f: np.ndarray, e: float) -> np.ndarray | None:
    """Centred coefficients of (f / f(center))^e, or None.

    ``f`` holds a p = 2 minimizer's centred coefficients.  On the disk, the
    ball and the polydisc (and on the Moebius sublevel disks of a sweep)
    the delta_0 extremal at p is that of p = 2 raised to e = 2/p, up to a
    constant, by the transformation rule of the p-Bergman kernel (Chen &
    Zhang, Adv. Math. 405, 2022); the truncated Taylor series at the
    center of the power is formed from the coefficients alone
    (:meth:`~xibergman.pspace.PolySpace.normalized_power`).  There is none
    on a Laurent basis, or when f(center) is below 1e-12 of f's largest
    coefficient (delta_1 at an interior point of the disk, say), where the
    power has no series.  p = 2 never asks: its value is the closed form.
    """
    if space.laurent or abs(f[0]) < 1e-12 * np.abs(f).max():
        return None
    return space.normalized_power(f, e)


def kernel2_diagonal(
    space: PolySpace,
    xi: Functional,
    z,
) -> KernelEvaluation:
    """Exact kernel value at p = 2 through the orthonormal-basis pairing.

    K = sum |c_a|^2 for the pairing coefficients c of the functional against
    the space's orthonormal basis, the columns of C^-1, at z; the minimizer
    is the coefficient-conjugate combination rescaled by 1/K.  Pure linear
    algebra, no iteration.
    """
    return _constrained_kernel(space, xi, z, 2.0)


def diagonal(space, xi, z, p, seed: int = 42) -> KernelEvaluation:
    """Kernel value for any p > 0: the closed form at p = 2, the descent solver otherwise.

    Convex and reliable for p >= 1.  For p in (0, 1) the objective is
    nonconvex and the result carries the "nonconvex-best-found" flag: a
    point evaluation descends from the power of the p = 2 minimizer (see
    :func:`_power_start`), and a multistart heuristic seeded by ``seed``
    runs wherever that descent does not end stationary.
    """
    return _constrained_kernel(space, xi, z, p, seed=seed)


# the name the README and the bench use for the general-p entry point
kernelp_diagonal = diagonal


def off_diagonal(
    space: PolySpace,
    xi: Functional,
    w,
    p: float,
) -> OffDiagonalKernel:
    """Off-diagonal kernel K(., w); needs p >= 1 for a unique minimizer."""
    if p < 1:
        raise ValueError("off-diagonal kernel requires p >= 1")
    base = diagonal(space, xi, w, p)
    return OffDiagonalKernel(base=base, values=base.minimizer.scaled(base.K))


def extremal_pairing(
    space: PolySpace,
    f: PolyCoeffs,
    evaluation: KernelEvaluation,
) -> complex:
    """Weighted node pairing  sum_q w_q |m_q|^(p-2) conj(m_q) f_q.

    This is the integral that vanishes against functions annihilated by the
    functional at the pole, and reproduces (xi . f) after scaling by K.
    The weights |m_q|^(p-2) are the solver's smoothed ones at every p, so
    nodes where the minimizer nearly vanishes are regularized as in the
    solve.  The sum is the minimizer's dual density (see
    :func:`~xibergman.lpsolve._dual`) paired with f's centred
    coefficients, coeffs(f) . conj(adjoint), so f is never evaluated at
    the nodes.
    """
    _, _, adjoint = _dual(space.ring, evaluation.coeffs, evaluation.p)
    return complex(space.coeff_vector(f) @ np.conj(adjoint))


def duality_bracket(
    space: PolySpace,
    xi: Functional,
    evaluation: KernelEvaluation,
) -> DualityBracket:
    """Hoelder bracket around the kernel of ``xi`` at the evaluation's point, p >= 1.

    The kernel is a dual norm, K^(1/p) = sup |(xi . f)(z)| / ||f||_p over
    the truncated space in the quadrature norm.  The evaluation's
    minimizer f must satisfy (xi . f)(z) = 1 (it may have vanishing jets
    too), so K >= ||f||_p^-p, the evaluation's own K, which is K_lower.
    Any node function g with sum_q w_q g_q h_q = (xi . h)(z) for every h
    in the space gives K <= ||g||_q^p, q = p / (p - 1), or the largest
    |g_q| at p = 1, which is K_upper.  g is the solver's smoothed
    representer rho conj(f) / sum_q w_q rho_q |f_q|^2 plus the L^2
    representer sum_a r_a conj(sigma_a) of its pairing residual r on the
    orthonormal basis at z, which makes it exact; the solver's certified
    stop forms the same bound.  Both ends bound the discrete (quadrature)
    problem, not the truncation error, and at p = 1 the gap carries the
    solver's smoothing.  Below p = 1 Hoelder's inequality fails and there
    is no bracket.
    """
    if evaluation.p < 1:
        raise ValueError("the duality bracket requires p >= 1")
    return _bracket(space, xi, evaluation, _dual(space.ring, evaluation.coeffs, evaluation.p))


def _bracket(space: PolySpace, xi: Functional, evaluation: KernelEvaluation,
             dual: tuple[np.ndarray, np.ndarray, np.ndarray]) -> DualityBracket:
    """:func:`duality_bracket` from ``dual``, the (g, rho, adjoint) of
    :func:`~xibergman.lpsolve._dual` at the evaluation's minimizer; ``xi``
    need not be the evaluation's functional, only one the minimizer is
    feasible for."""
    ob = orthonormal_basis(space, evaluation.z)
    c = ob.transform.T @ space.constraint_row(xi, ob.point)
    upper = _hoelder_upper(space.ring, ob.coeffs, c, evaluation.p, *dual)
    return DualityBracket(K_lower=evaluation.K, K_upper=upper,
                          gap=upper / evaluation.K - 1.0)


def reproducing_residual(
    space: PolySpace,
    f: PolyCoeffs,
    evaluation: KernelEvaluation,
) -> float:
    """Relative defect of  (xi . f)(w) = K(w) * <f, m(., w)>_p  at the nodes.

    xi, w, p, K and the minimizer m are the evaluation's.
    """
    if evaluation.p < 1:
        raise ValueError("reproducing identity requires p >= 1")
    lhs = functional_apply(evaluation.xi, f, evaluation.z)
    rhs = evaluation.K * extremal_pairing(space, f, evaluation)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def h_quantity(
    space: PolySpace,
    xi: Functional,
    p: float,
    z,
    w,
) -> HQuantity:
    """H(z, w) and the applicable integral inequality, both by quadrature.

    H = K(z) + K(w) - Re{(xi . K(., w))(z) + (xi . K(., z))(w)}.  For
    1 < p <= 2 the bound is  int (|m_z|+|m_w|)^(p-2) |m_z - m_w|^2 <=
    H / ((p-1) K(z) K(w)); for p > 2 the weight splits into the sum of the
    two powers and the constant becomes 2.
    """
    if p <= 1:
        raise ValueError("the H inequalities require p > 1")
    ev_z = diagonal(space, xi, z, p)
    ev_w = diagonal(space, xi, w, p)

    cross_wz = functional_apply(xi, ev_w.minimizer, ev_z.z) * ev_w.K
    cross_zw = functional_apply(xi, ev_z.minimizer, ev_w.z) * ev_z.K
    h = ev_z.K + ev_w.K - float(np.real(cross_wz + cross_zw))

    wq = space.quadrature.weights
    gz = space.values(ev_z.coeffs)
    gw = space.values(ev_w.coeffs)
    diff2 = np.abs(gz - gw) ** 2

    if p <= 2:
        s = np.abs(gz) + np.abs(gw)
        # clamp before the negative power; clamped nodes have diff2 = 0 anyway
        safe = np.where(s > 0, s, 1.0)
        lhs = float(np.sum(wq * np.where(s > 0, safe ** (p - 2.0) * diff2, 0.0)))
        rhs = h / ((p - 1.0) * ev_z.K * ev_w.K)
        regime = "midrange"
    else:
        az, aw = np.abs(gz), np.abs(gw)
        lhs = float(np.sum(wq * (az ** (p - 2.0) + aw ** (p - 2.0)) * diff2))
        rhs = 2.0 * h / (ev_z.K * ev_w.K)
        regime = "high"
    return HQuantity(p=float(p), z=ev_z.z, w=ev_w.z, h=h,
                     lhs=lhs, rhs=rhs, regime=regime)


def ball_monomial_lp_integral(radius: float, dimension: int,
                              alpha: MultiIndex, p: float) -> float:
    """int over the radius-R ball in C^n of prod |z_j|^(p a_j), closed form.

    Equals pi^n R^(2n + p|a|) prod Gamma(p a_j / 2 + 1) / Gamma(n + p|a|/2 + 1).
    Valid for any real exponents p a_j / 2 > -1, hence for every p > 0.
    """
    gam = [0.5 * p * a for a in alpha.entries]
    log_val = (dimension * math.log(math.pi)
               + (2 * dimension + p * alpha.degree) * math.log(radius)
               + sum(math.lgamma(g + 1.0) for g in gam)
               - math.lgamma(dimension + sum(gam) + 1.0))
    return math.exp(log_val)


def bounds_check(space: PolySpace, xi: Functional, p: float, z) -> BoundsResult:
    """A priori positive lower bound and boundary-rate upper bound for K.

    lower: from the monomial witness at the lowest supported order, with the
    whole domain replaced by the ball of diameter radius around the origin.
    upper: the p-th power of :func:`sup_bound_constant` at the boundary
    distance delta of z, the Cauchy-estimate bound for |(xi . f)(z)| over
    unit-norm f; it grows like delta^-(2n + p k0) with k0 the top degree
    of the functional.
    """
    zt = _check_inputs(space, xi, z)
    n = space.domain.dimension
    ev = diagonal(space, xi, zt, p)

    alpha0 = min(xi.support())
    R = space.domain.diameter()
    lower = abs(xi[alpha0]) ** p / ball_monomial_lp_integral(R, n, alpha0, p)

    delta = boundary_distance(space.domain, zt)
    upper = sup_bound_constant(space.domain, xi, p, delta) ** p

    if not (lower <= ev.K * (1 + 1e-9)):
        raise KernelError(
            f"kernel {ev.K:.6g} fell below its a priori lower bound {lower:.6g}")
    if not (ev.K <= upper * (1 + 1e-9)):
        raise KernelError(
            f"kernel {ev.K:.6g} exceeded its a priori upper bound {upper:.6g}")
    return BoundsResult(lower=lower, upper=upper, kernel=ev.K, z=zt, p=float(p))


def evaluations_to_csv(evaluations) -> str:
    """CSV rows of diagonal values; one line per point."""
    evals = list(evaluations)
    if not evals:
        return ""
    n = len(evals[0].z)
    if n == 1:
        header = "z_re,z_im,p,m,K,iterations,flag"
    else:
        coords = ",".join(f"z{j+1}_re,z{j+1}_im" for j in range(n))
        header = f"{coords},p,m,K,iterations,flag"
    lines = [header]
    for ev in evals:
        coords = ",".join(f"{c.real:.12g},{c.imag:.12g}" for c in ev.z)
        flag = ";".join(ev.flags) if ev.flags else "ok"
        lines.append(
            f"{coords},{ev.p:.12g},{ev.m:.12g},{ev.K:.12g},"
            f"{ev.diagnostics.get('iterations', 0)},{flag}")
    return "\n".join(lines) + "\n"


def evaluation_to_dict(ev: KernelEvaluation) -> dict:
    """JSON-ready dict for one evaluation, minimizer included."""
    return {
        "p": ev.p,
        "z": [[c.real, c.imag] for c in ev.z],
        "m": ev.m,
        "K": ev.K,
        "degree": ev.degree,
        "xi": ev.xi.to_json_dict(),
        "diagnostics": {**ev.diagnostics, "flags": list(ev.flags)},
        "minimizer": {
            "center": [[c.real, c.imag] for c in ev.minimizer.center],
            "coeffs": {str(idx): [v.real, v.imag]
                       for idx, v in sorted(ev.minimizer.coeffs.items())},
        },
    }
