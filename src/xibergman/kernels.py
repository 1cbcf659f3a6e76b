"""Extremal kernels for jet functionals: diagonal and off-diagonal values.

The central object is the minimal weighted L^p norm m(z) over the truncated
space subject to the normalization (xi . f)(z) = 1, together with

    K(z)        = m(z)^(-p)
    K(., z)     = minimizer * K(z)      (off-diagonal kernel, p >= 1)

For p = 2 the value comes from an orthonormal-basis pairing in closed form;
for general p the constrained solver in lpsolve runs on the node matrix.
Both engines sit behind one constrained set-up, which also takes the
vanishing jets of the higher-order kernels.
The module also evaluates the reproducing-formula residual, the symmetrized
difference quantity H with its two convexity-type integral inequalities,
and a priori lower/upper bounds for K.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .algebra import Functional, MultiIndex, PolyCoeffs, _as_point, functional_apply
from .domains import Domain, boundary_distance, contains
from .lpsolve import LpOptions, solve_affine_lp
from .pspace import OrthonormalBasis, PolySpace, _orthonormal_transform, orthonormal_basis

__all__ = [
    "KernelEvaluation",
    "OffDiagonalKernel",
    "HQuantity",
    "BoundsResult",
    "KernelError",
    "ZeroPairingError",
    "kernel2_diagonal",
    "kernelp_diagonal",
    "off_diagonal",
    "reproducing_residual",
    "extremal_pairing",
    "h_quantity",
    "bounds_check",
    "ball_monomial_lp_integral",
    "evaluate_batch",
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
    """One diagonal kernel value with its minimizer and solve diagnostics."""

    p: float
    z: tuple[complex, ...]
    m: float
    K: float
    minimizer: PolyCoeffs
    xi: Functional
    degree: int
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
    vanishing=(),
    exact: bool = False,
    basis: OrthonormalBasis | None = None,
    options: LpOptions | None = None,
) -> KernelEvaluation:
    """min ||f||_p subject to (xi . f)(z) = 1 and zero jets at ``vanishing``.

    The one constrained solve behind every kernel in the package.  Each
    vanishing order removes its column of the solve basis (the z-shifted
    monomials, or the Laurent monomials), and the functional acts on the
    kept columns as a single affine row.  ``exact`` (p = 2 only) pairs the
    row with the point-adapted orthonormal basis, taken from ``basis`` when
    given; otherwise the constrained IRLS solver runs on the node matrix.
    """
    zt = _check_inputs(space, xi, z)
    keep = None
    if vanishing:
        pos = space.index_position()
        drop = set()
        for beta in vanishing:
            if beta not in pos:
                raise KernelError(
                    f"vanishing order {beta} lies outside the truncated space")
            drop.add(pos[beta])
        keep = [j for j in range(space.size) if j not in drop]
        if not keep:
            raise KernelError("vanishing constraints exhaust the truncated space")
    L = space.constraint_row(xi, zt)
    if keep is not None:
        L = L[keep]
    if not np.any(L):
        raise ZeroPairingError(_ZERO_PAIRING)

    def node_matrix():
        phi = space.solve_node_matrix(zt)
        return phi if keep is None else phi[:, keep]

    w = space.quadrature.weights
    if exact:
        if keep is None:
            T = (basis if basis is not None else orthonormal_basis(space, zt)).transform
        else:
            T = _orthonormal_transform(node_matrix(), w)
        c = T.T @ L
        K = float(np.sum(np.abs(c) ** 2))
        if K <= (1e-14 * max(1.0, xi.max_abs_coeff())) ** 2:
            raise ZeroPairingError(_ZERO_PAIRING)
        sub = (T @ np.conj(c)) / K
        m = K ** -0.5
        diagnostics = {"method": "exact-2", "iterations": 0,
                       "final_rel_step": 0.0, "flags": space.flags}
    else:
        # witness vector: exactly feasible, anchored at the largest entry of
        # the row so the affine offset never blows up on a nearly vanishing term
        j = int(np.argmax(np.abs(L)))
        witness = np.zeros(L.size, dtype=complex)
        witness[j] = 1.0 / L[j]
        sol = solve_affine_lp(node_matrix(), w, L[None, :],
                              np.array([1.0 + 0j]), p, start=witness,
                              options=options)
        K = 1.0 / sol.objective
        m = sol.m
        sub = sol.coeffs
        diagnostics = {"method": sol.method, "iterations": sol.iterations,
                       "final_rel_step": sol.final_rel_step,
                       "grad_residual": sol.grad_residual,
                       "flags": space.flags + sol.flags}

    if keep is None:
        full = sub
    else:
        full = np.zeros(space.size, dtype=complex)
        full[keep] = sub
    minimizer = space.element(full, center=None if space.laurent else zt)
    diagnostics["constraint_residual"] = abs(
        functional_apply(xi, minimizer, zt) - 1.0)
    return KernelEvaluation(
        p=float(p), z=zt, m=m, K=K, minimizer=minimizer, xi=xi,
        degree=space.degree, diagnostics=diagnostics)


def kernel2_diagonal(
    space: PolySpace,
    xi: Functional,
    z,
    basis: OrthonormalBasis | None = None,
) -> KernelEvaluation:
    """Exact kernel value at p = 2 through the orthonormal-basis pairing.

    K = sum |c_a|^2 for the pairing coefficients c of the functional against
    the basis orthonormalized at z; the minimizer is the coefficient-conjugate
    combination rescaled by 1/K.  Pure linear algebra, no iteration.
    """
    return _constrained_kernel(space, xi, z, 2.0, exact=True, basis=basis)


def kernelp_diagonal(
    space: PolySpace,
    xi: Functional,
    z,
    p: float,
    options: LpOptions | None = None,
) -> KernelEvaluation:
    """Kernel value for general p > 0 through the constrained IRLS solver.

    Convex and reliable for p >= 1.  For p in (0, 1) the objective is
    nonconvex; a multistart heuristic runs and the result carries the
    "nonconvex-best-found" flag.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    return _constrained_kernel(space, xi, z, p, options=options)


def diagonal(space, xi, z, p, options=None) -> KernelEvaluation:
    """Route to the exact path at p = 2, the solver otherwise."""
    if p == 2:
        return kernel2_diagonal(space, xi, z)
    return kernelp_diagonal(space, xi, z, p, options)


def off_diagonal(
    space: PolySpace,
    xi: Functional,
    w,
    p: float,
    options: LpOptions | None = None,
) -> OffDiagonalKernel:
    """Off-diagonal kernel K(., w); needs p >= 1 for a unique minimizer."""
    if p < 1:
        raise ValueError("off-diagonal kernel requires p >= 1")
    base = diagonal(space, xi, w, p, options)
    return OffDiagonalKernel(base=base, values=base.minimizer.scaled(base.K))


def extremal_pairing(
    space: PolySpace,
    f: PolyCoeffs,
    evaluation: KernelEvaluation,
) -> complex:
    """Weighted node pairing  sum_q w_q |m_q|^(p-2) conj(m_q) f_q.

    This is the integral that vanishes against functions annihilated by the
    functional at the pole, and reproduces (xi . f) after scaling by K.
    Nodes where the minimizer nearly vanishes are regularized with the same
    floor the solver uses.
    """
    w = space.quadrature.weights
    g = space.values(space.coeff_vector(evaluation.minimizer))
    fvals = space.values(space.coeff_vector(f))
    p = evaluation.p
    absg = np.abs(g)
    if p < 2:
        eps = (1e-6 if p == 1 else 1e-7) * max(float(absg.max()), 1e-300)
        rho = (absg**2 + eps**2) ** (0.5 * p - 1.0)
    else:
        rho = absg ** (p - 2.0)
    return complex(np.sum(w * rho * np.conj(g) * fvals))


def reproducing_residual(
    space: PolySpace,
    xi: Functional,
    w,
    p: float,
    f: PolyCoeffs,
    evaluation: KernelEvaluation | None = None,
) -> float:
    """Relative defect of  (xi . f)(w) = K(w) * <f, m(., w)>_p  at the nodes."""
    if p < 1:
        raise ValueError("reproducing identity requires p >= 1")
    ev = evaluation if evaluation is not None else diagonal(space, xi, w, p)
    lhs = functional_apply(xi, f, ev.z)
    rhs = ev.K * extremal_pairing(space, f, ev)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def h_quantity(
    space: PolySpace,
    xi: Functional,
    p: float,
    z,
    w,
    options: LpOptions | None = None,
) -> HQuantity:
    """H(z, w) and the applicable integral inequality, both by quadrature.

    H = K(z) + K(w) - Re{(xi . K(., w))(z) + (xi . K(., z))(w)}.  For
    1 < p <= 2 the bound is  int (|m_z|+|m_w|)^(p-2) |m_z - m_w|^2 <=
    H / ((p-1) K(z) K(w)); for p > 2 the weight splits into the sum of the
    two powers and the constant becomes 2.
    """
    if p <= 1:
        raise ValueError("the H inequalities require p > 1")
    ev_z = diagonal(space, xi, z, p, options)
    ev_w = diagonal(space, xi, w, p, options)

    cross_wz = functional_apply(xi, ev_w.minimizer, ev_z.z) * ev_w.K
    cross_zw = functional_apply(xi, ev_z.minimizer, ev_w.z) * ev_z.K
    h = ev_z.K + ev_w.K - float(np.real(cross_wz + cross_zw))

    wq = space.quadrature.weights
    gz = space.values(space.coeff_vector(ev_z.minimizer))
    gw = space.values(space.coeff_vector(ev_w.minimizer))
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
               + sum(gammaln(g + 1.0) for g in gam)
               - gammaln(dimension + sum(gam) + 1.0))
    return math.exp(log_val)


def bounds_check(space: PolySpace, xi: Functional, p: float, z) -> BoundsResult:
    """A priori positive lower bound and boundary-rate upper bound for K.

    lower: from the monomial witness at the lowest supported order, with the
    whole domain replaced by the ball of diameter radius around the origin.
    upper: C1 / delta^(2n + p k0) with delta the boundary distance, k0 the
    top degree of the functional, and C1 assembled from the Cauchy-estimate
    constants of the sup pairing bound.
    """
    zt = _check_inputs(space, xi, z)
    n = space.domain.dimension
    ev = diagonal(space, xi, zt, p)

    alpha0 = min(xi.support())
    R = space.domain.diameter()
    lower = abs(xi[alpha0]) ** p / ball_monomial_lp_integral(R, n, alpha0, p)

    k0 = xi.degree
    delta = boundary_distance(space.domain, zt)
    d0 = max(1.0, space.domain.inradius())
    s = sum(abs(coeff) * (2.0 * math.sqrt(n)) ** idx.degree
            * d0 ** (k0 - idx.degree)
            for idx, coeff in xi.terms.items())
    c1 = s**p * math.factorial(n) * (4.0 / math.pi) ** n
    upper = c1 / delta ** (2 * n + p * k0)

    if not (lower <= ev.K * (1 + 1e-9)):
        raise KernelError(
            f"kernel {ev.K:.6g} fell below its a priori lower bound {lower:.6g}")
    if not (ev.K <= upper * (1 + 1e-9)):
        raise KernelError(
            f"kernel {ev.K:.6g} exceeded its a priori upper bound {upper:.6g}")
    return BoundsResult(lower=lower, upper=upper, kernel=ev.K, z=zt, p=float(p))


def evaluate_batch(
    space: PolySpace,
    xi: Functional,
    points,
    p: float,
    options: LpOptions | None = None,
    threads: int = 1,
) -> list[KernelEvaluation]:
    """Diagonal kernel on a list of points, optionally thread-parallel.

    Evaluations are independent and the result order follows the input
    order regardless of thread count.
    """
    def run(pt):
        return diagonal(space, xi, pt, p, options)

    pts = list(points)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, pts))
    return [run(pt) for pt in pts]


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


def evaluation_to_dict(ev: KernelEvaluation, include_minimizer: bool = False) -> dict:
    """JSON-ready dict for one evaluation."""
    diag = {
        "method": ev.diagnostics.get("method"),
        "iterations": ev.diagnostics.get("iterations"),
        "final_rel_step": ev.diagnostics.get("final_rel_step"),
        "constraint_residual": ev.diagnostics.get("constraint_residual"),
        "flags": list(ev.flags),
    }
    if "grad_residual" in ev.diagnostics:
        diag["grad_residual"] = ev.diagnostics["grad_residual"]
    out = {
        "p": ev.p,
        "z": [[c.real, c.imag] for c in ev.z],
        "m": ev.m,
        "K": ev.K,
        "degree": ev.degree,
        "xi": ev.xi.to_json_dict(),
        "diagnostics": diag,
    }
    if include_minimizer:
        out["minimizer"] = {
            "center": [[c.real, c.imag] for c in ev.minimizer.center],
            "coeffs": {str(idx): [v.real, v.imag]
                       for idx, v in sorted(ev.minimizer.coeffs.items())},
        }
    return out
