"""Named verification checks over every module, grouped into suites.

Each check is a pure function of a context (seed, shared caches)
returning pass/fail, a human-readable detail line, and a headline number.
Suites: algebra, quadrature, kernels, higher, green; "all" runs everything
in registry order.  All randomness is drawn from generators seeded by the
context seed and the check name, so repeated runs produce byte-identical
machine output.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Functional,
    MultiIndex,
    PolyCoeffs,
    enumerate_upto_degree,
    functional_apply,
    prec_compare,
    taylor_shift,
)
from .domains import Domain, UnsupportedShapeError, build_quadrature, contains
from .green import (
    GreenModel,
    azukawa_indicatrix,
    default_a_grid,
    limit_chain_check,
    sublevel_domain,
    sweep,
)
from .higher import (
    FunctionalFamily,
    HomogeneousPolynomial,
    apply_homogeneous,
    higher_kernel_direct,
    higher_kernel_via_inf,
    minimizing_xi_p2,
)
from .kernels import (
    ball_monomial_lp_integral,
    bounds_check,
    diagonal,
    duality_bracket,
    extremal_pairing,
    h_quantity,
    kernel2_diagonal,
    off_diagonal,
    reproducing_residual,
)
from .lpsolve import _minimal_norm, solve_affine_lp
from .pspace import PolySpace, lp_norm, orthonormal_basis

__all__ = [
    "CheckResult",
    "VerifyContext",
    "SUITES",
    "check_names",
    "run_check",
    "run_suite",
    "format_table",
    "results_to_json_dict",
]

SUITES = ("algebra", "quadrature", "kernels", "higher", "green")


@dataclass
class CheckResult:
    name: str
    suite: str
    passed: bool
    detail: str
    value: float | None
    seconds: float


@dataclass
class VerifyContext:
    """Shared state for a verification run: seed and space caches."""

    seed: int = 42
    cache: dict = field(default_factory=dict)

    def rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(name.encode())])

    def space(self, domain: Domain, degree: int | None = None,
              radial_order: int | None = None,
              angular_order: int | None = None,
              mode: str = "total") -> PolySpace:
        key = (domain, degree, radial_order, angular_order, mode)
        if key not in self.cache:
            self.cache[key] = PolySpace.build(
                domain, degree=degree, radial_order=radial_order,
                angular_order=angular_order, mode=mode)
        return self.cache[key]

    def disk_space(self, degree: int = 16) -> PolySpace:
        return self.space(Domain.disk(), degree=degree)


# check name -> (suite, check function), in registration order
_REGISTRY: dict[str, tuple[str, object]] = {}


def _check(name: str, suite: str):
    def deco(fn):
        _REGISTRY[name] = (suite, fn)
        return fn
    return deco


def check_names(suite: str = "all") -> list[str]:
    return [name for name, (s, _) in _REGISTRY.items() if suite in ("all", s)]


def run_check(name: str, ctx: VerifyContext | None = None) -> CheckResult:
    ctx = ctx or VerifyContext()
    suite, fn = _REGISTRY[name]
    start = time.perf_counter()
    try:
        passed, detail, value = fn(ctx)
    except Exception as exc:  # noqa: BLE001 - battery must not abort
        passed, detail, value = False, f"raised {type(exc).__name__}: {exc}", None
    seconds = time.perf_counter() - start
    return CheckResult(name, suite, bool(passed), detail, value, seconds)


def run_suite(suite: str, ctx: VerifyContext | None = None,
              budget: float | None = None) -> list[CheckResult]:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITES + ('all',)}")
    ctx = ctx or VerifyContext()
    results = []
    start = time.perf_counter()
    for name in check_names(suite):
        if budget is not None and time.perf_counter() - start > budget:
            results.append(CheckResult(
                name, _REGISTRY[name][0], False, "skipped: budget exhausted",
                None, 0.0))
            continue
        results.append(run_check(name, ctx))
    return results


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results) if results else 10
    lines = []
    for r in results:
        state = "PASS" if r.passed else "FAIL"
        lines.append(f"{state}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)


def results_to_json_dict(results: list[CheckResult], suite: str, seed: int) -> dict:
    """Machine-readable summary; deliberately excludes wall-clock times."""
    return {
        "suite": suite,
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "suite": r.suite,
                "passed": r.passed,
                "detail": r.detail,
                "value": r.value,
            }
            for r in results
        ],
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _random_functional(rng, dimension: int, max_degree: int) -> Functional:
    idxs = enumerate_upto_degree(dimension, max_degree)
    count = int(rng.integers(1, 4))
    chosen = rng.choice(len(idxs), size=min(count, len(idxs)), replace=False)
    terms = {}
    for j in sorted(int(c) for c in chosen):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(c) < 0.25:
            c += 0.5 + 0.25j
        terms[idxs[j]] = c
    return Functional(dimension, terms)


def _monomial_norm_sq(domain: Domain, alpha: MultiIndex) -> float:
    """||(w - center)^alpha||_2^2 over the domain, in closed form."""
    if domain.shape == "ball":
        return ball_monomial_lp_integral(domain.radius, domain.dimension, alpha, 2.0)
    if domain.shape == "annulus":
        (k,), r1, r2 = alpha.entries, domain.r_inner, domain.r_outer
        if k == -1:
            return 2 * math.pi * math.log(r2 / r1)
        return math.pi * (r2 ** (2 * k + 2) - r1 ** (2 * k + 2)) / (k + 1)
    # disk and polydisc: the product of the one-variable disk norms
    radii = domain.radii or (domain.radius,)
    return math.prod(math.pi * r ** (2 * a + 2) / (a + 1)
                     for r, a in zip(radii, alpha.entries))


def _series_kernel(space: PolySpace, xi: Functional, z) -> float:
    """Truncated Bergman series sum_alpha |(xi . phi_alpha)(z)|^2 / ||phi_alpha||^2.

    The monomials phi_alpha = (w - center)^alpha of the space are
    orthogonal on every model domain, so this is the exact p = 2 kernel
    of the truncated space, from :func:`functional_apply` and closed-form
    norms alone: it reads no rule, Gram matrix, Cholesky factor or QR.
    """
    return sum(abs(functional_apply(xi, PolyCoeffs.monomial(alpha, space.center), z)) ** 2
               / _monomial_norm_sq(space.domain, alpha) for alpha in space.indices)


def _random_element(rng, space: PolySpace, scale: float = 1.0) -> PolyCoeffs:
    coeffs = scale * (rng.uniform(-1, 1, space.size)
                      + 1j * rng.uniform(-1, 1, space.size))
    return space.element(coeffs)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


@_check("algebra/order-properties", "algebra")
def _chk_order(ctx):
    """Law: antisymmetry, transitivity and degree first, against the enumeration."""
    for n in (1, 2, 3):
        idxs = enumerate_upto_degree(n, 4)
        for a, b in zip(idxs, idxs[1:]):
            if not (prec_compare(a, b) == -1 and prec_compare(b, a) == 1):
                return False, f"enumeration out of order at {a}, {b}", None
            if a.degree > b.degree:
                return False, f"degree not primary at {a}, {b}", None
    # antisymmetry + transitivity on a full small set
    idxs = enumerate_upto_degree(2, 3)
    for a in idxs:
        for b in idxs:
            if prec_compare(a, b) != -prec_compare(b, a):
                return False, f"antisymmetry fails at {a}, {b}", None
    for a, b, c in itertools.product(idxs, repeat=3):
        if prec_compare(a, b) <= 0 and prec_compare(b, c) <= 0:
            if prec_compare(a, c) > 0:
                return False, f"transitivity fails at {a}, {b}, {c}", None
    return True, "graded order is total on n <= 3, degree <= 4", None


@_check("algebra/shift-roundtrip", "algebra")
def _chk_shift(ctx):
    """Law: re-centring there and back returns the input coefficients."""
    rng = ctx.rng("algebra/shift-roundtrip")
    worst = 0.0
    for n, deg in ((1, 8), (1, 20), (2, 6)):
        idxs = enumerate_upto_degree(n, deg)
        for _ in range(6):
            coeffs = {idx: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for idx in idxs}
            f = PolyCoeffs(n, (0j,) * n, coeffs)
            w = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(n))
            g = taylor_shift(f, w)
            back = taylor_shift(g, (0j,) * n)
            scale = max(max(abs(c) for c in g.coeffs.values()),
                        max(abs(c) for c in f.coeffs.values()))
            err = max(abs(back.coefficient(idx) - f.coefficient(idx))
                      for idx in idxs) / scale
            worst = max(worst, err)
    return worst <= 1e-12, f"max round-trip error {worst:.3e} (tol 1e-12)", worst


@_check("algebra/witness-normalization", "algebra")
def _chk_witness(ctx):
    """Closed form: the monomial witness of the lowest order pairs to exactly 1."""
    rng = ctx.rng("algebra/witness-normalization")
    worst = 0.0
    for n in (1, 2):
        for _ in range(10):
            xi = _random_functional(rng, n, 3)
            z0 = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                       for _ in range(n))
            alpha0 = min(xi.support())
            wit = PolyCoeffs.monomial(alpha0, z0, 1.0 / xi[alpha0])
            worst = max(worst, abs(functional_apply(xi, wit, z0) - 1.0))
    return worst <= 5e-15, f"max witness defect {worst:.3e} (tol 5e-15)", worst


@_check("algebra/functional-linearity", "algebra")
def _chk_linearity(ctx):
    """Law: a functional is linear in the polynomial it pairs with."""
    rng = ctx.rng("algebra/functional-linearity")
    worst = 0.0
    for n in (1, 2):
        idxs = enumerate_upto_degree(n, 5)
        for _ in range(8):
            xi = _random_functional(rng, n, 4)
            mk = lambda: PolyCoeffs(n, (0j,) * n, {
                idx: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for idx in idxs})
            f, g = mk(), mk()
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z = tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                      for _ in range(n))
            lhs = functional_apply(xi, f.scaled(a).plus(g.scaled(b)), z)
            rhs = a * functional_apply(xi, f, z) + b * functional_apply(xi, g, z)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst <= 1e-12, f"max linearity defect {worst:.3e} (tol 1e-12)", worst


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@_check("quadrature/volumes", "quadrature")
def _chk_volumes(ctx):
    """Closed form: the volume formulas of :meth:`Domain.volume`."""
    cases = [
        (Domain.disk(), 32, 64),
        (Domain.disk(0.8, 0.3 + 0.2j), 32, 64),
        (Domain.annulus(0.5, 1.0), 32, 64),
        (Domain.bidisc(), 8, 16),
        (Domain.polydisc((1.0, 0.7)), 8, 16),
        (Domain.ball(1.0, 2), 12, 24),
        (Domain.ball(1.0, 3), 6, 12),
    ]
    worst = 0.0
    for dom, nr, na in cases:
        quad = build_quadrature(dom, nr, na)
        worst = max(worst, _rel(quad.volume(), dom.volume()))
    return worst <= 1e-12, f"max volume error {worst:.3e} (tol 1e-12)", worst


@_check("quadrature/disk-moments", "quadrature")
def _chk_disk_moments(ctx):
    """Closed form: int z^a conj(z)^b over the unit disk is pi / (a + 1) if a = b, else 0."""
    quad = build_quadrature(Domain.disk(), 32, 64)
    z = quad.nodes[:, 0]
    worst = 0.0
    for a in range(9):
        for b in range(9):
            val = quad.integrate(z**a * np.conj(z) ** b)
            ref = math.pi / (a + 1) if a == b else 0.0
            err = abs(val - ref) / (math.pi / (a + 1)) if a == b else abs(val)
            worst = max(worst, err)
    return worst <= 1e-12, f"max moment error {worst:.3e} (tol 1e-12)", worst


@_check("quadrature/ball-moments", "quadrature")
def _chk_ball_moments(ctx):
    """Closed form: the Gamma-function moments of :func:`ball_monomial_lp_integral`."""
    quad = build_quadrature(Domain.ball(1.0, 2), 16, 32)
    z1, z2 = quad.nodes[:, 0], quad.nodes[:, 1]
    worst = 0.0
    for g1 in range(4):
        for g2 in range(4):
            val = float(np.real(quad.integrate(
                np.abs(z1) ** (2 * g1) * np.abs(z2) ** (2 * g2))))
            ref = ball_monomial_lp_integral(1.0, 2, MultiIndex((g1, g2)), 2.0)
            worst = max(worst, _rel(val, ref))
    return worst <= 1e-12, f"max ball moment error {worst:.3e} (tol 1e-12)", worst


@_check("quadrature/annulus-norms", "quadrature")
def _chk_annulus_norms(ctx):
    """Closed form: pi (r2^(2k+2) - r1^(2k+2)) / (k + 1), and 2 pi log(r2 / r1) at k = -1."""
    r1, r2 = 0.5, 1.0
    quad = build_quadrature(Domain.annulus(r1, r2), 32, 64)
    z = quad.nodes[:, 0]
    worst = 0.0
    for k in range(-10, 11):
        val = float(np.real(quad.integrate(np.abs(z) ** (2 * k))))
        if k == -1:
            ref = 2 * math.pi * math.log(r2 / r1)
        else:
            ref = math.pi * (r2 ** (2 * k + 2) - r1 ** (2 * k + 2)) / (k + 1)
        worst = max(worst, _rel(val, ref))
    return worst <= 1e-10, f"max norm error {worst:.3e} for |k| <= 10 (tol 1e-10)", worst


@_check("quadrature/node-containment", "quadrature")
def _chk_nodes(ctx):
    """Second route: :func:`contains` tests nodes against the domain's defining inequality."""
    for dom, nr, na in ((Domain.disk(), 16, 32), (Domain.annulus(0.5, 1), 16, 32),
                        (Domain.bidisc(), 6, 12), (Domain.ball(1.0, 2), 8, 16)):
        quad = build_quadrature(dom, nr, na)
        if np.any(quad.weights <= 0):
            return False, f"nonpositive weight on {dom.shape}", None
        for row in quad.nodes[:: max(1, quad.node_count // 97)]:
            if not contains(dom, tuple(row)):
                return False, f"node escapes {dom.shape}", None
    return True, "weights positive, sampled nodes strictly inside", None


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@_check("kernels/disk-closed-family", "kernels")
def _chk_disk_family(ctx):
    """Closed form: K(0; delta_k) = (p k + 2) / (2 pi) on the unit disk."""
    space = ctx.disk_space()
    worst = 0.0
    slow = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        for k in (0, 1, 2):
            ref = (p * k + 2) / (2 * math.pi)
            t0 = time.perf_counter()
            xi = Functional.delta(MultiIndex((k,)))
            ev = diagonal(space, xi, 0j, p)
            slow = max(slow, time.perf_counter() - t0)
            err = _rel(ev.K, ref)
            tol = 1e-9 if p == 2 else 1e-4
            if err > tol:
                return False, (f"p={p}, order k={k}: rel err {err:.3e} "
                               f"exceeds {tol:.0e}"), err
            worst = max(worst, err)
    if slow > 5.0:
        return False, f"slowest case took {slow:.1f}s (limit 5s)", worst
    return True, f"12 closed-form cases, max rel err {worst:.3e}", worst


@_check("kernels/dual-route", "kernels")
def _chk_dual_route(ctx):
    """Second route: the truncated Bergman series of :func:`_series_kernel`."""
    rng = ctx.rng("kernels/dual-route")
    worst = 0.0
    disk = ctx.disk_space()
    for _ in range(10):
        xi = _random_functional(rng, 1, 3)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        series = _series_kernel(disk, xi, z)
        worst = max(worst, _rel(kernel2_diagonal(disk, xi, z).K, series))
    bidisc = ctx.space(Domain.bidisc(), degree=10, radial_order=12, angular_order=24)
    for _ in range(10):
        xi = _random_functional(rng, 2, 2)
        z = (complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
             complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        series = _series_kernel(bidisc, xi, z)
        worst = max(worst, _rel(kernel2_diagonal(bidisc, xi, z).K, series))
    return worst <= 1e-9, (f"20 cases, max closed-form/series split {worst:.3e} "
                           f"(tol 1e-9)"), worst


@_check("kernels/product-formula", "kernels")
def _chk_product(ctx):
    """Law: m factorizes over the tensor bidisc; the factors are solved on the disk alone."""
    d1 = ctx.space(Domain.disk(), degree=10, radial_order=12, angular_order=24)
    tensor = ctx.space(Domain.bidisc(), degree=10, radial_order=12,
                       angular_order=24, mode="tensor")
    cases = [
        (Functional.delta(MultiIndex((0,))), Functional.delta(MultiIndex((0,))),
         0j, 0j),
        (Functional.delta(MultiIndex((1,))), Functional.delta(MultiIndex((0,))),
         0j, 0j),
        (Functional(1, {MultiIndex((0,)): 1.0, MultiIndex((1,)): 0.5}),
         Functional.delta(MultiIndex((1,))), 0.3 + 0j, 0.1 - 0.2j),
    ]
    worst = {2.0: 0.0, 1.5: 0.0}
    for xi1, xi2, z1, z2 in cases:
        xi0 = xi1.tensor(xi2)
        for p in (2.0, 1.5):
            m1 = diagonal(d1, xi1, z1, p).m
            m2 = diagonal(d1, xi2, z2, p).m
            m0 = diagonal(tensor, xi0, (z1, z2), p).m
            worst[p] = max(worst[p], _rel(m0, m1 * m2))
    ok = worst[2.0] <= 1e-6 and worst[1.5] <= 1e-4
    return ok, (f"m factorization: p=2 err {worst[2.0]:.3e} (tol 1e-6), "
                f"p=1.5 err {worst[1.5]:.3e} (tol 1e-4)"), max(worst.values())


@_check("kernels/off-diagonal-identity", "kernels")
def _chk_off_diagonal(ctx):
    """Closed form: K(., 0) is 1/pi for delta_0 and (2/pi) z for delta_1 on the disk."""
    space = ctx.disk_space()
    k0 = off_diagonal(space, Functional.delta(MultiIndex((0,))), 0j, 2.0)
    dev0 = abs(k0.values(0.37 + 0.21j) - 1 / math.pi)
    k1 = off_diagonal(space, Functional.delta(MultiIndex((1,))), 0j, 2.0)
    zprobe = 0.4 - 0.3j
    dev1 = abs(k1.values(zprobe) - (2 / math.pi) * zprobe)
    worst_pole = 0.0
    xi = Functional(1, {MultiIndex((0,)): 1.0, MultiIndex((1,)): 0.3})
    for p in (1.5, 2.0):
        worst_pole = max(worst_pole,
                         off_diagonal(space, xi, 0.2 + 0j, p).pole_identity_residual())
    worst = max(dev0, dev1, worst_pole)
    ok = dev0 <= 1e-10 and dev1 <= 1e-10 and worst_pole <= 1e-8
    return ok, (f"constant/linear profiles {max(dev0, dev1):.3e}, "
                f"pole identity {worst_pole:.3e} (tols 1e-10 / 1e-8)"), worst


@_check("kernels/reproducing", "kernels")
def _chk_reproducing(ctx):
    """Law: (xi . f)(w) = K <f, m>_p for random f, the left side from the jets of f alone."""
    rng = ctx.rng("kernels/reproducing")
    disk = ctx.disk_space()
    ann = ctx.space(Domain.annulus(0.5, 1.0), degree=10)
    settings = [(disk, 0.3 + 0j, Functional.delta(MultiIndex((0,)))),
                (ann, 0.75 + 0j,
                 Functional(1, {MultiIndex((0,)): 1.0, MultiIndex((1,)): 0.5}))]
    worst_res = 0.0
    worst_orth = 0.0
    for space, w, xi in settings:
        for p in (1.5, 2.0, 3.0):
            ev = diagonal(space, xi, w, p)
            for _ in range(5):
                f = _random_element(rng, space)
                worst_res = max(worst_res, reproducing_residual(space, f, ev))
            # self-consistency: plugging in the minimizer recovers 1
            worst_res = max(worst_res, reproducing_residual(space, ev.minimizer, ev))
            # pairings against functions the functional kills at the pole
            alpha0 = min(xi.support())
            origin = (0j,) * space.dimension
            wit = taylor_shift(
                PolyCoeffs.monomial(alpha0, w, 1.0 / xi[alpha0]), origin)
            for j in range(space.size):
                psi = space.element(np.eye(space.size, dtype=complex)[j])
                lam = functional_apply(xi, psi, w)
                h = psi.plus(wit.scaled(-lam))
                pairing = abs(extremal_pairing(space, h, ev))
                norm = lp_norm(h, space, p)
                if norm > 1e-12:
                    worst_orth = max(worst_orth,
                                     pairing / (norm * ev.m ** (p - 1)))
    ok = worst_res <= 1e-5 and worst_orth <= 1e-8
    return ok, (f"30 random residuals max {worst_res:.3e} (tol 1e-5), "
                f"orthogonality max {worst_orth:.3e} (tol 1e-8)"), worst_res


@_check("kernels/h-inequality", "kernels")
def _chk_h_inequality(ctx):
    """Law: the integral inequality the paper proves for the symmetrized difference H."""
    rng = ctx.rng("kernels/h-inequality")
    space = ctx.disk_space()
    xi = Functional.delta(MultiIndex((0,)))
    min_slack = math.inf
    for i in range(25):
        p = 1.5 if i % 2 == 0 else 3.0
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) * 0.7
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) * 0.7
        hq = h_quantity(space, xi, p, z, w)
        min_slack = min(min_slack, hq.slack)
    same = h_quantity(space, xi, 1.5, 0.1 + 0j, 0.1 + 0j)
    degenerate_ok = abs(same.h) <= 1e-8 and abs(same.lhs) <= 1e-8
    ok = min_slack >= -1e-8 and degenerate_ok
    return ok, (f"25 pairs, min inequality slack {min_slack:.3e} "
                f"(allowed >= -1e-8); coincident pair H = {same.h:.1e}"), min_slack


@_check("kernels/bounds", "kernels")
def _chk_bounds(ctx):
    """Closed form: the monomial-witness lower bound and the Cauchy-estimate upper bound."""
    disk = ctx.disk_space()
    res = bounds_check(disk, Functional.delta(MultiIndex((0,))), 2.0, 0j)
    ref_lower = 1.0 / (4 * math.pi)  # |1|^2 / vol(disk of radius 2)
    if _rel(res.lower, ref_lower) > 1e-12:
        return False, f"origin lower bound {res.lower:.6g} != 1/(4 pi)", res.lower
    cases = [
        (disk, Functional.delta(MultiIndex((1,))), 2.0, 0.9 + 0j),
        (disk, Functional(1, {MultiIndex((0,)): 1.0, MultiIndex((2,)): 2.0}),
         1.5, 0.4 + 0j),
        (ctx.space(Domain.bidisc(), degree=10, radial_order=12, angular_order=24),
         Functional.delta(MultiIndex((0, 0))), 2.0, (0.2 + 0j, 0.1 + 0j)),
    ]
    for space, xi, p, z in cases:
        bounds_check(space, xi, p, z)  # raises on violation
    return True, "lower <= K <= upper on disk and bidisc samples", None


@_check("kernels/domain-monotonicity", "kernels")
def _chk_monotonic(ctx):
    """Closed form: K(0; delta_0) = 1 / (pi r^2) on the disk of radius r."""
    p = 1.5
    xi = Functional.delta(MultiIndex((0,)))
    radii = (0.5, 0.7, 0.9, 0.99, 0.999, 1.0)
    values = []
    for r in radii:
        space = ctx.space(Domain.disk(r), degree=16)
        ev = diagonal(space, xi, 0j, p)
        ref = 1.0 / (math.pi * r * r)
        if _rel(ev.K, ref) > 1e-4:
            return False, f"scaled-disk value at r={r} off by {_rel(ev.K, ref):.2e}", None
        values.append(ev.K)
    if any(b >= a for a, b in zip(values, values[1:])):
        return False, "kernel not strictly decreasing along the exhaustion", None
    gap = (values[-2] - values[-1]) / values[-1]
    ok = 0 < gap <= 1e-2
    return ok, (f"K decreasing along r -> 1, final exhaustion gap {gap:.3e} "
                f"(limit 1e-2)"), gap


@_check("kernels/psh", "kernels")
def _chk_psh(ctx):
    """Law: log K is subharmonic, so it lies below its circle means."""
    rng = ctx.rng("kernels/psh")
    space = ctx.disk_space()
    xi = Functional.delta(MultiIndex((0,)))
    angles = np.exp(2j * math.pi * np.arange(16) / 16)
    min_margin = math.inf
    for _ in range(10):
        c = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)) * 0.9
        for p in (1.5, 2.0):
            center_val = math.log(diagonal(space, xi, c, p).K)
            ring = [math.log(diagonal(space, xi, c + 0.2 * a, p).K)
                    for a in angles]
            min_margin = min(min_margin, float(np.mean(ring)) - center_val)
    if min_margin < -1e-6:
        return False, f"circle-mean defect {min_margin:.3e} below -1e-6", min_margin
    strict_ring = [math.log(kernel2_diagonal(space, xi, 0.1 * a).K) for a in angles]
    strict = float(np.mean(strict_ring)) - math.log(kernel2_diagonal(space, xi, 0j).K)
    ok = strict >= 1e-4
    return ok, (f"log-kernel circle means: min margin {min_margin:.3e} "
                f"(>= -1e-6), strict margin {strict:.4e} (>= 1e-4)"), strict


@_check("kernels/boundary-blowup", "kernels")
def _chk_blowup(ctx):
    """Law: K grows at least like the boundary distance to the power -p."""
    p = 1.5
    space = ctx.disk_space(degree=24)
    xi = Functional.delta(MultiIndex((0,)))
    xs = (0.5, 0.6, 0.7, 0.8, 0.9)
    logk = [math.log(diagonal(space, xi, x + 0j, p).K) for x in xs]
    logd = [-math.log(1.0 - x) for x in xs]
    slope = float(np.polyfit(logd, logk, 1)[0])
    ok = slope >= p
    return ok, f"log K vs -log(boundary distance) slope {slope:.3f} (needs >= {p})", slope


@_check("kernels/uniqueness", "kernels")
def _chk_uniqueness(ctx):
    """Law: strict convexity makes the minimizer unique, so descents from random starts meet."""
    rng = ctx.rng("kernels/uniqueness")
    space = ctx.disk_space()
    xi = Functional(1, {MultiIndex((0,)): 1.0, MultiIndex((1,)): 0.3})
    p = 1.5
    z = 0.2 + 0j
    ob = orthonormal_basis(space, z)
    c = ob.transform.T @ space.constraint_row(xi, z)
    w = space.quadrature.weights
    # random exactly-feasible starts in the orthonormal coordinates: the
    # minimal-norm solution plus a null-space perturbation; the nonzero row c
    # has rank one, so its trailing right singular vectors span the null space
    Z = np.linalg.svd(c[None, :])[2][1:].conj().T
    base = _minimal_norm(c)
    sols = []
    for _ in range(5):
        t = rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1])
        sol = solve_affine_lp(space.ring, ob.coeffs, c, p, start=base + Z @ t)
        sols.append(space.values(ob.coeffs @ sol.coeffs))
    worst = 0.0
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            dist = math.sqrt(float(np.sum(w * np.abs(sols[i] - sols[j]) ** 2)))
            worst = max(worst, dist)
    return worst <= 1e-6, (f"5 random starts, max pairwise minimizer distance "
                           f"{worst:.3e} (tol 1e-6)"), worst


@_check("kernels/lipschitz-smoke", "kernels")
def _chk_lipschitz(ctx):
    """Closed form: (K(z + h) - K(z)) / h is d/dx of 1 / (pi (1 - |z|^2)^2) at z + h / 2, to 1e-3.

    K(z; delta_0) on the unit disk is that closed form at every p, by the
    Moebius invariance of the kernel.  The midpoint quotient errs by
    O(h^2), about 1e-6 relative, and truncation near |z| = 0.58 by about
    1e-5, so the relative tolerance 1e-3 leaves room for both and still
    fails a K that is off by a fraction of its slope.
    """
    space = ctx.disk_space()
    xi = Functional.delta(MultiIndex((0,)))
    p = 1.5
    h = 1e-3
    worst = 0.0
    for x in np.linspace(-0.5, 0.5, 5):
        for y in (-0.3, 0.0, 0.3):
            z = complex(x, y)
            k0 = diagonal(space, xi, z, p).K
            k1 = diagonal(space, xi, z + h, p).K
            mid = z + h / 2
            slope = 4 * mid.real / (math.pi * (1 - abs(mid) ** 2) ** 3)
            worst = max(worst, _rel((k1 - k0) / h, slope))
    ok = worst <= 1e-3
    return ok, (f"15 difference quotients at step 1e-3 against the closed-form "
                f"slope at the midpoint, max rel err {worst:.3e} (tol 1e-3)"), worst


@_check("kernels/duality-bracket", "kernels")
def _chk_duality_bracket(ctx):
    """Law: Hoelder's inequality bounds K from above by an exact L^q representer."""
    # Hoelder bracket K_lower <= K <= K_upper of the discrete problem around
    # each value: |gap| <= 1e-9 for p > 1, and at p = 1, where the
    # representer carries the solver's smoothing, -1e-12 <= gap <= 1e-4
    xi1 = Functional.from_string("0: 1; 1: 0.5", 1)
    xi2 = Functional.from_string("0,0: 1; 1,0: 0.5; 0,1: -0.3j", 2)
    cases = [
        (ctx.disk_space(), xi1, 0.3 * np.exp(1.1j)),
        (ctx.disk_space(), xi1, 0.6 * np.exp(1.1j)),
        (ctx.space(Domain.annulus(0.4, 1.0)), xi1, 0.7 * np.exp(0.7j)),
        (ctx.space(Domain.bidisc()), xi2, (0.35 * np.exp(0.7j), 0.35 * np.exp(-1.9j))),
        (ctx.space(Domain.ball(1.0, 2)), xi2, (0.25 * np.exp(0.7j), 0.25 * np.exp(-1.9j))),
    ]
    gaps = {p: [] for p in (1.0, 1.5, 3.0)}
    for space, xi, z in cases:
        for p, found in gaps.items():
            found.append(duality_bracket(space, xi, diagonal(space, xi, z, p)).gap)
    worst = max(abs(g) for p in (1.5, 3.0) for g in gaps[p])
    low1, high1 = min(gaps[1.0]), max(gaps[1.0])
    ok = worst <= 1e-9 and -1e-12 <= low1 and high1 <= 1e-4
    detail = (f"disk, annulus, bidisc, ball:2 at p=1.5,3: max |gap| {worst:.3e} "
              f"(tol 1e-9); p=1: gap in [{low1:.3e}, {high1:.3e}] (tol [-1e-12, 1e-4])")
    lowest = min(min(found) for found in gaps.values())
    if -1e-12 <= lowest < 0:
        detail += f"; gaps down to {lowest:.1e} are rounding"
    return ok, detail, max(worst, high1)


# ---------------------------------------------------------------------------
# higher
# ---------------------------------------------------------------------------


@_check("higher/pairing-examples", "higher")
def _chk_pairing(ctx):
    """Closed form: derivatives of monomials at the point."""
    H2 = HomogeneousPolynomial.from_string("z^2: 1")
    f3 = PolyCoeffs.monomial(MultiIndex((3,)), 0j)
    f2 = PolyCoeffs.monomial(MultiIndex((2,)), 0j)
    checks = [
        abs(apply_homogeneous(H2, f3, 0j)),
        abs(apply_homogeneous(H2, f2, 0j) - 2.0),
    ]
    H0 = HomogeneousPolynomial.constant(1.0)
    g = PolyCoeffs(1, (0j,), {MultiIndex((0,)): 0.3, MultiIndex((1,)): 1.2})
    checks.append(abs(apply_homogeneous(H0, g, 0.4 + 0j) - g(0.4 + 0j)))
    Hmix = HomogeneousPolynomial.from_string("z1 z2: 1", dimension=2)
    fmix = PolyCoeffs.monomial(MultiIndex((1, 1)), (0j, 0j))
    checks.append(abs(apply_homogeneous(Hmix, fmix, (0j, 0j)) - 1.0))
    worst = max(checks)
    return worst <= 1e-14, f"derivative pairing examples, max defect {worst:.2e}", worst


@_check("higher/closed-forms", "higher")
def _chk_higher_closed(ctx):
    """Closed form: K_H(0; z^k) = k!^p (p k + 2) / (2 pi) on the unit disk."""
    space = ctx.disk_space()
    worst = 0.0
    for k in (1, 2):
        H = HomogeneousPolynomial.monomial(MultiIndex((k,)))
        for p in (1.5, 2.0):
            ref = math.factorial(k) ** p * (p * k + 2) / (2 * math.pi)
            ev = higher_kernel_direct(space, H, 0j, p)
            err = _rel(ev.K, ref)
            tol = 1e-10 if p == 2 else 1e-4
            if err > tol:
                return False, f"k={k}, p={p}: rel err {err:.3e} > {tol:.0e}", err
            worst = max(worst, err)
    return True, f"monomial pairings k=1,2 vs closed form, max err {worst:.3e}", worst


def _dense_higher_p2(space: PolySpace, H: HomogeneousPolynomial, z) -> float:
    """K_H at p = 2 from dense normal equations on the z-shifted monomials.

    Over f = sum u_alpha (w - z)^alpha with deg alpha >= deg H, whose jets
    below deg H vanish at z, min u^H G u subject to L u = 1 is
    1 / (L G^-1 L^H), with G the node Gram of those monomials and L the
    row of H's top functional; no orthonormal basis is read.
    """
    keep = [j for j, alpha in enumerate(space.indices) if alpha.degree >= H.degree]
    V = space.shifted_node_matrix(z)[:, keep]
    G = V.conj().T @ (space.quadrature.weights[:, None] * V)
    L = space.constraint_row(H.top_functional(), z)[keep]
    return float(np.real(L @ np.linalg.solve(G, np.conj(L))))


@_check("higher/three-way", "higher")
def _chk_three_way(ctx):
    """Second route: dense normal equations on the z-shifted monomials at p = 2."""
    # the direct K_H, the plain K solved here from scratch at the infimum
    # route's closed-form member, at p = 2 the exact member of
    # minimizing_xi_p2 and the dense normal equations; then small seeded
    # steps off the closed-form member must not lower K
    t0 = time.perf_counter()
    rng = ctx.rng("higher/three-way")
    space = ctx.disk_space()
    worst2 = 0.0
    worst15 = 0.0
    rise = math.inf
    gaps = {2.0: 0.0, 1.5: 0.0}
    for text in ("z: 1", "z^2: 1"):
        H = HomogeneousPolynomial.from_string(text)
        family = FunctionalFamily(H)
        for z in (0j, 0.3 + 0j):
            direct2 = higher_kernel_direct(space, H, z, 2.0).K
            inf2 = higher_kernel_via_inf(space, H, z, 2.0)
            plain2 = diagonal(space, inf2.xi_star, z, 2.0).K
            xistar = minimizing_xi_p2(space, H, z)
            viaxi = kernel2_diagonal(space, xistar, z).K
            dense2 = _dense_higher_p2(space, H, z)
            for a, b in itertools.combinations((direct2, plain2, viaxi, dense2), 2):
                worst2 = max(worst2, _rel(a, b))
            direct15 = higher_kernel_direct(space, H, z, 1.5).K
            inf15 = higher_kernel_via_inf(space, H, z, 1.5)
            plain15 = diagonal(space, inf15.xi_star, z, 1.5).K
            worst15 = max(worst15, _rel(direct15, plain15))
            for p, res, plain in ((2.0, inf2, plain2), (1.5, inf15, plain15)):
                gaps[p] = max(gaps[p], abs(res.duality_gap))
                for _ in range(3):
                    delta = 1e-3 * (rng.standard_normal(len(res.free_part))
                                    + 1j * rng.standard_normal(len(res.free_part)))
                    moved = diagonal(space, family.member(np.add(res.free_part, delta)), z, p).K
                    rise = min(rise, (moved - plain) / plain)
    elapsed = time.perf_counter() - t0
    ok = worst2 <= 1e-7 and worst15 <= 1e-4 and rise >= -1e-12 and elapsed < 120
    detail = (f"p=2 four-route max split {worst2:.3e} (tol 1e-7), "
              f"p=1.5 two-route {worst15:.3e} (tol 1e-4), "
              f"route's duality gap at xi* p=2 {gaps[2.0]:.3e}, p=1.5 {gaps[1.5]:.3e}, "
              f"K 24 steps off xi* rises by >= {rise:.3e} relative (tol -1e-12)")
    if elapsed >= 120:
        detail += f"; too slow: {elapsed:.0f}s"
    return ok, detail, max(worst2, worst15)


@_check("higher/sandwich", "higher")
def _chk_sandwich(ctx):
    """Law: every member of H's functional family has K >= K_H."""
    rng = ctx.rng("higher/sandwich")
    space = ctx.disk_space()
    H = HomogeneousPolynomial.from_string("z^2: 1")
    family = FunctionalFamily(H)
    min_gap = math.inf
    combos = [(z, p) for z in (0j, 0.3 + 0j) for p in (1.5, 2.0)]
    for i in range(50):
        z, p = combos[i % 4]
        free = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                     for _ in family.free_indices)
        xi = family.member(free)
        direct = higher_kernel_direct(space, H, z, p).K
        kxi = diagonal(space, xi, z, p).K
        min_gap = min(min_gap, kxi - direct)
    ok = min_gap >= -1e-8
    return ok, (f"50 family members, min K_family - K_higher = {min_gap:.3e} "
                f"(allowed >= -1e-8)"), min_gap


@_check("higher/minimizing-xi-examples", "higher")
def _chk_min_xi(ctx):
    """Closed form: xi* at the origin is 2! delta_2 with no free part; degree 0 evaluates."""
    space = ctx.disk_space()
    H2 = HomogeneousPolynomial.from_string("z^2: 1")
    xi0 = minimizing_xi_p2(space, H2, 0j)
    free_mass = sum(abs(xi0[idx]) for idx in FunctionalFamily(H2).free_indices)
    if free_mass > 1e-12:
        return False, f"free part at the origin has mass {free_mass:.2e}", free_mass
    if abs(xi0[MultiIndex((2,))] - 2.0) > 1e-12:
        return False, "top coefficient is not 2! at the origin", None
    H1 = HomogeneousPolynomial.from_string("z: 1")
    xistar = minimizing_xi_p2(space, H1, 0.3 + 0j)
    kstar = kernel2_diagonal(space, xistar, 0.3 + 0j).K
    kdir = higher_kernel_direct(space, H1, 0.3 + 0j, 2.0).K
    err = _rel(kstar, kdir)
    if err > 1e-8:
        return False, f"off-center minimizing functional mismatch {err:.3e}", err
    H0 = HomogeneousPolynomial.constant(1.0)
    if minimizing_xi_p2(space, H0, 0.2 + 0j).support() != [MultiIndex((0,))]:
        return False, "degree-0 case did not reduce to evaluation", None
    return True, f"origin diagonal, off-center match {err:.3e}, degree-0 reduction", err


@_check("higher/nontrivial", "higher")
def _chk_nontrivial(ctx):
    """Closed form: K_H(0; z^k) = k!^p (p k + 2) / (2 pi) on the disk, k = 0..4,
    and (p + 2) / (2 pi^2) for H = z1 at the bidisc's centre."""
    space = ctx.disk_space()
    p = 1.5
    worst = 0.0
    for k in range(5):
        H = HomogeneousPolynomial.monomial(MultiIndex((k,)))
        exact = math.factorial(k) ** p * (p * k + 2) / (2 * math.pi)
        worst = max(worst, _rel(higher_kernel_direct(space, H, 0j, p).K, exact))
    bidisc = ctx.space(Domain.bidisc(), degree=6, radial_order=8, angular_order=16)
    Hb = HomogeneousPolynomial.from_string("z1: 1", dimension=2)
    exact = (p + 2) / (2 * math.pi ** 2)
    worst = max(worst, _rel(higher_kernel_direct(bidisc, Hb, (0j, 0j), p).K, exact))
    return worst <= 1e-4, (f"orders 0..4 on the disk plus z1 on the bidisc at p=1.5, "
                           f"max rel err {worst:.3e} (tol 1e-4)"), worst


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------


@_check("green/sublevel-geometry", "green")
def _chk_sublevel(ctx):
    """Closed form: the pseudohyperbolic and scaled disks of the sublevel sets."""
    mob = GreenModel.moebius_disk(0.5)
    whole = sublevel_domain(mob, 0.0)
    if abs(whole.radius - 1) > 1e-15 or abs(whole.center[0]) > 1e-15:
        return False, "height 0 does not recover the unit disk", None
    half = sublevel_domain(mob, math.log(0.5))
    err = max(abs(half.center[0] - 0.4), abs(half.radius - 0.4))
    if err > 1e-15:
        return False, f"pseudohyperbolic disk off by {err:.2e}", err
    bal = GreenModel.balanced(Domain.disk())
    if abs(sublevel_domain(bal, -1.0).radius - math.exp(-1)) > 1e-15:
        return False, "balanced scaling at height -1 is off", None
    for a in default_a_grid():
        if not contains(sublevel_domain(mob, a), mob.pole):
            return False, f"pole escapes the sublevel set at a = {a}", None
    return True, "closed-form sublevel sets match at heights 0, log 1/2, -1", err


@_check("green/azukawa", "green")
def _chk_azukawa(ctx):
    """Closed form: the indicatrix of a balanced domain is the domain itself."""
    for dom in (Domain.disk(), Domain.bidisc(), Domain.ball(1.0, 2)):
        model = GreenModel.balanced(dom)
        ind = azukawa_indicatrix(model)
        if ind.to_spec() != dom.to_spec():
            return False, f"indicatrix differs from {dom.shape}", None
    try:
        azukawa_indicatrix(GreenModel.moebius_disk(0.5))
    except UnsupportedShapeError:
        return True, "balanced indicatrices equal their domains; off-center pole rejected", None
    return False, "off-center pole unexpectedly accepted", None


def _small_bidisc(ctx):
    return ctx.space(Domain.bidisc(), degree=8, radial_order=8, angular_order=16)


@_check("green/balanced-constant", "green")
def _chk_balanced_constant(ctx):
    """Closed form: the scaled level (p k + 2) / (2 pi), constant over the balanced sweep."""
    model = GreenModel.balanced(Domain.disk())
    grid = default_a_grid(-3.0, 0.0, 13)
    worst = 0.0
    worst_val = 0.0
    for k in (0, 1):
        xi = Functional.delta(MultiIndex((k,)))
        for p in (1.0, 1.5, 2.0):
            table = sweep(ctx.disk_space(), model, xi, p, grid)
            worst = max(worst, table.max_scaled_deviation())
            ref = (p * k + 2) / (2 * math.pi)
            err = _rel(table.rows[-1].scaled, ref)
            tol = 1e-9 if p == 2 else 1e-4
            if err > tol:
                return False, f"scaled level for k={k}, p={p} off by {err:.2e}", err
            worst_val = max(worst_val, err)
    bmodel = GreenModel.balanced(Domain.bidisc())
    btable = sweep(_small_bidisc(ctx), bmodel, Functional.delta(MultiIndex((0, 0))),
                   1.5, default_a_grid(-3.0, 0.0, 5))
    worst = max(worst, btable.max_scaled_deviation())
    ok = worst <= 1e-7
    return ok, (f"scaled columns constant to {worst:.3e} (tol 1e-7), "
                f"levels match closed forms to {worst_val:.3e}"), worst


@_check("green/moebius-monotone", "green")
def _chk_moebius(ctx):
    """Law: the scaled sweep is monotone and log-convex in the level, below its cap."""
    model = GreenModel.moebius_disk(0.5)
    grid = default_a_grid(-3.0, 0.0, 31)
    worst_mono = math.inf
    worst_convex = math.inf
    worst_upper = -math.inf
    for k in (0, 1):
        xi = Functional.delta(MultiIndex((k,)))
        for p in (1.0, 1.5, 2.0):
            # degree 24: the delta_0 column is exactly flat here, so the
            # shallow-row truncation tail (~0.25^D) must sit below the slack
            table = sweep(ctx.disk_space(24), model, xi, p, grid)
            if table.flagged:
                return False, f"flagged rows in sweep k={k}, p={p}", None
            worst_mono = min(worst_mono, table.monotonicity_margin())
            worst_convex = min(worst_convex, table.log_convexity_margin())
            worst_upper = max(worst_upper, table.scaled_upper_margin())
    ok = (worst_mono >= -1e-8 and worst_convex >= -1e-6
          and worst_upper <= 1e-6)
    return ok, (f"6 sweeps of 31 rows: min scaled increment {worst_mono:.2e} "
                f"(>= -1e-8), min log second difference {worst_convex:.2e} "
                f"(>= -1e-6), cap excess {worst_upper:.2e} (<= 1e-6)"), worst_mono


@_check("green/limit-chain", "green")
def _chk_limit_chain(ctx):
    """Law: the scaled sublevel kernels bracket the shifted kernel and stabilize."""
    results = []
    grid1 = default_a_grid(-3.0, 0.0, 13)
    disk_model = GreenModel.balanced(Domain.disk())
    for text in ("1: 1", "z: 1"):
        H = HomogeneousPolynomial.from_string(text)
        for p in (1.5, 2.0):
            results.append(limit_chain_check(ctx.disk_space(), disk_model, H, p, grid1))
    bid_model = GreenModel.balanced(Domain.bidisc())
    gridb = default_a_grid(-3.0, 0.0, 7)
    for text in ("1: 1", "z1: 1"):
        H = HomogeneousPolynomial.from_string(text, dimension=2)
        for p in (1.5, 2.0):
            results.append(limit_chain_check(_small_bidisc(ctx), bid_model, H, p, gridb))
    bad = [r for r in results if not r.passed]
    worst_stab = max(r.stabilization for r in results)
    if bad:
        r = bad[0]
        return False, (f"chain broken: whole {r.lhs:.6g}, limit {r.limit:.6g}, "
                       f"indicatrix {r.rhs:.6g}"), worst_stab
    ok = worst_stab <= 1e-4
    return ok, (f"8 chains hold within 1e-6; deepest-row stabilization "
                f"{worst_stab:.3e} (tol 1e-4)"), worst_stab


@_check("green/scaling-law", "green")
def _chk_scaling(ctx):
    """Symmetry law: dilation covariance; Moebius rows against spaces on their own disks."""
    worst = 0.0
    for k in (0, 1):
        xi = Functional.delta(MultiIndex((k,)))
        for p in (1.5, 2.0):
            base = diagonal(ctx.disk_space(), xi, 0j, p).K
            for t in (0.5, math.exp(-1)):
                space_t = ctx.space(Domain.disk(t), degree=16)
                kt = diagonal(space_t, xi, 0j, p).K
                worst = max(worst, _rel(kt * t ** (2 + p * k), base))
    # affine covariance: the sweep solves on the unit disk, the check on
    # spaces built on the pseudohyperbolic disks themselves
    model = GreenModel.moebius_disk(0.5)
    heights = (-2.0, -1.0, 0.0)
    for k in (0, 1):
        xi = Functional.delta(MultiIndex((k,)))
        for p in (1.5, 2.0):
            rows = sweep(ctx.disk_space(), model, xi, p, heights).rows
            for a, row in zip(heights, rows):
                space_a = ctx.space(sublevel_domain(model, a), degree=16)
                worst = max(worst, _rel(row.K, diagonal(space_a, xi, model.pole, p).K))
    return worst <= 1e-9, (f"dilation covariance K_t t^(2+pk) = K and Moebius "
                           f"sweep rows on their own disks, max rel err {worst:.3e} "
                           f"(tol 1e-9)"), worst
