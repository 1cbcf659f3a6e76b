"""Closed forms the benchmark checks every timed operation against.

Nothing here imports the library: each value is derived on its own from the
geometry of the domain, so a library bug cannot cancel out in the check.
Monomial integrals use ``math.lgamma``; the Moebius sublevel geometry is the
pseudohyperbolic disk written out by hand.
"""

from __future__ import annotations

import itertools
import math

# README accuracy contract: exact linear algebra at p = 2, the iterative
# solver at p > 1, the smoothed objective at p <= 1.
TOL_P2 = 1e-9
TOL_P_GT_1 = 1e-4
TOL_P_LE_1 = 1e-3

# moebius-monotone margins from the verify battery, applied to the rescaled
# column and to log K of a delta_1 sweep
MONOTONE_SLACK = 1e-8
LOG_CONVEX_SLACK = 1e-6

ERR_FLOOR = 1e-16


def tolerance(p: float) -> float:
    """Relative tolerance the README promises at exponent p."""
    if p == 2:
        return TOL_P2
    return TOL_P_GT_1 if p > 1 else TOL_P_LE_1


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def margin_digits(err: float, tol: float) -> float:
    """Digits to spare: log10(tol / err), with err floored at 1e-16."""
    return math.log10(tol / max(err, ERR_FLOOR))


# -- monomial integrals -------------------------------------------------------


def ball_monomial_integral(alpha, p: float) -> float:
    """Integral of |z^alpha|^p over the unit ball of C^n.

    pi^n prod Gamma(p alpha_j / 2 + 1) / Gamma(n + p |alpha| / 2 + 1).
    """
    n = len(alpha)
    log = n * math.log(math.pi)
    log += sum(math.lgamma(p * a / 2 + 1) for a in alpha)
    log -= math.lgamma(n + p * sum(alpha) / 2 + 1)
    return math.exp(log)


def polydisc_monomial_integral(alpha, p: float) -> float:
    """Integral of |z^alpha|^p over the unit polydisc: prod 2 pi / (p alpha_j + 2)."""
    return math.prod(2 * math.pi / (p * a + 2) for a in alpha)


def monomial_integral(shape: str, alpha, p: float) -> float:
    if shape == "ball":
        return ball_monomial_integral(alpha, p)
    if shape == "polydisc":
        return polydisc_monomial_integral(alpha, p)
    raise ValueError(f"no monomial integral for {shape!r}")


def delta_alpha_at_origin(shape: str, alpha, p: float) -> float:
    """K for xi = delta_alpha at 0 on a circled domain: 1 / int |z^alpha|^p.

    Averaging over the torus action shows z^alpha itself is the minimizer for
    every p >= 1, and it lies in every truncated space of degree >= |alpha|,
    so this value is exact at any truncation.
    """
    return 1.0 / monomial_integral(shape, alpha, p)


# -- point kernels on the unit ball and polydisc -----------------------------


def delta0_ball(z) -> float:
    """n! / (pi^n (1 - |z|^2)^(n + 1)), the same at every p."""
    n = len(z)
    s = sum(abs(c) ** 2 for c in z)
    return math.factorial(n) / (math.pi ** n * (1 - s) ** (n + 1))


def delta0_polydisc(z) -> float:
    """prod 1 / (pi (1 - |z_j|^2)^2), the same at every p."""
    return math.prod(1 / (math.pi * (1 - abs(c) ** 2) ** 2) for c in z)


def delta0(shape: str, z) -> float:
    if shape == "ball":
        return delta0_ball(z)
    if shape == "polydisc":
        return delta0_polydisc(z)
    raise ValueError(f"no point kernel for {shape!r}")


def delta0_truncated_p2(shape: str, z, degree: int) -> float:
    """Exact p = 2 point kernel of the total-degree-``degree`` truncation.

    The monomials are orthogonal on circled domains, so the truncated kernel
    is sum_{|alpha| <= degree} |z^alpha|^2 / ||z^alpha||_2^2.  This is what
    exact linear algebra on the truncated space must return to 1e-9; the
    full closed form differs from it by the truncation tail (4e-5 on the
    bidisc at |z_j| = 0.5, degree 10).
    """
    n = len(z)
    total = 0.0
    for alpha in itertools.product(range(degree + 1), repeat=n):
        if sum(alpha) > degree:
            continue
        num = math.prod(abs(c) ** (2 * a) for c, a in zip(z, alpha))
        total += num / monomial_integral(shape, alpha, 2.0)
    return total


# -- Moebius sublevel disks -------------------------------------------------


def moebius_sublevel(z0: complex, a: float) -> tuple[complex, float]:
    """Centre and radius of {|z - z0| / |1 - conj(z0) z| < e^a} in the unit disk."""
    s2 = math.exp(2 * a)
    r2 = abs(z0) ** 2
    denom = 1 - s2 * r2
    return z0 * (1 - s2) / denom, math.exp(a) * (1 - r2) / denom


def moebius_delta0(z0: complex, a: float) -> float:
    """K of delta_0 at the pole of the sublevel disk, every p: 1/(pi r^2 (1-|w|^2)^2)."""
    c, r = moebius_sublevel(z0, a)
    w2 = abs((z0 - c) / r) ** 2
    return 1 / (math.pi * r ** 2 * (1 - w2) ** 2)


def moebius_delta1_p2(z0: complex, a: float) -> float:
    """K of delta_1 at the pole, p = 2: 2 (1 + 2|w|^2) / (pi r^4 (1 - |w|^2)^4)."""
    c, r = moebius_sublevel(z0, a)
    w2 = abs((z0 - c) / r) ** 2
    return 2 * (1 + 2 * w2) / (math.pi * r ** 4 * (1 - w2) ** 4)


def monotone_margin(values) -> float:
    """Smallest consecutive increment; >= 0 when non-decreasing."""
    return min(b - a for a, b in zip(values, values[1:]))


def second_difference_margin(values) -> float:
    """Smallest plain second difference; >= 0 when convex on a uniform grid."""
    return min(values[i - 1] - 2 * values[i] + values[i + 1]
               for i in range(1, len(values) - 1))


# -- higher-order kernel of z^k on the unit disk ---------------------------


def higher_disk(k: int, p: float, z: complex) -> float:
    """(k!)^p (p k + 2) / (2 pi) (1 - |z|^2)^-(p k + 2)."""
    return (math.factorial(k) ** p * (p * k + 2) / (2 * math.pi)
            * (1 - abs(z) ** 2) ** -(p * k + 2))
