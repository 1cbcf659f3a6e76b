"""Model domains in C^n and their quadrature rules.

Supported shapes: disk, polydisc, ball (n >= 2), annulus (n = 1), and a
point-cloud passthrough for externally supplied nodes.  Quadrature rules are
tensor products of Gauss-Legendre radial rules with uniform (trapezoidal)
angular grids; on circles the trapezoid rule is exact for trigonometric
polynomials, so monomial Gram matrices are integrated exactly once the
radial order is high enough.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import _as_point

__all__ = [
    "Domain",
    "Quadrature",
    "build_quadrature",
    "boundary_distance",
    "scale_domain",
    "product_domain",
    "contains",
    "domain_from_spec",
    "load_cloud_csv",
    "UnsupportedShapeError",
]

# Hard ceiling on materialized tensor grids.  Large enough for a bidisc at
# (32, 64) per axis; anything beyond this is almost certainly a mistake.
MAX_NODES = 8_000_000

MIN_ORDER = 4


class UnsupportedShapeError(ValueError):
    """Operation not defined for this domain shape."""


class QuadratureError(ValueError):
    """Quadrature construction failed validation."""


@dataclass(eq=False)
class Domain:
    """A model domain in C^n.

    Use the constructors (:meth:`disk`, :meth:`polydisc`, :meth:`ball`,
    :meth:`annulus`, :meth:`cloud`) rather than the raw initializer.
    Instances are treated as immutable.
    """

    shape: str
    dimension: int
    center: tuple[complex, ...]
    radius: float | None = None
    radii: tuple[float, ...] | None = None
    r_inner: float | None = None
    r_outer: float | None = None
    cloud_nodes: np.ndarray | None = field(default=None, repr=False)
    cloud_weights: np.ndarray | None = field(default=None, repr=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def disk(cls, radius: float = 1.0, center: complex = 0j) -> "Domain":
        if radius <= 0:
            raise ValueError("disk radius must be positive")
        return cls("disk", 1, (complex(center),), radius=float(radius))

    @classmethod
    def polydisc(cls, radii: Sequence[float], center: Sequence[complex] | None = None) -> "Domain":
        radii = tuple(float(r) for r in radii)
        if len(radii) < 1 or any(r <= 0 for r in radii):
            raise ValueError("polydisc radii must be positive")
        n = len(radii)
        ctr = tuple(complex(c) for c in center) if center is not None else (0j,) * n
        if len(ctr) != n:
            raise ValueError("center length must match radii")
        return cls("polydisc", n, ctr, radii=radii)

    @classmethod
    def bidisc(cls, r1: float = 1.0, r2: float = 1.0) -> "Domain":
        return cls.polydisc((r1, r2))

    @classmethod
    def ball(cls, radius: float = 1.0, dimension: int = 2,
             center: Sequence[complex] | None = None) -> "Domain":
        if dimension < 2:
            raise ValueError("ball shape requires dimension >= 2 (use disk for n = 1)")
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        ctr = tuple(complex(c) for c in center) if center is not None else (0j,) * dimension
        if len(ctr) != dimension:
            raise ValueError("center length must match dimension")
        return cls("ball", dimension, ctr, radius=float(radius))

    @classmethod
    def annulus(cls, r_inner: float, r_outer: float) -> "Domain":
        if not (0 < r_inner < r_outer):
            raise ValueError("annulus needs 0 < r_inner < r_outer")
        return cls("annulus", 1, (0j,), r_inner=float(r_inner), r_outer=float(r_outer))

    @classmethod
    def cloud(cls, nodes: np.ndarray, weights: np.ndarray) -> "Domain":
        nodes = np.atleast_2d(np.asarray(nodes, dtype=complex))
        weights = np.asarray(weights, dtype=float)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("node and weight counts differ")
        if np.any(weights <= 0):
            raise ValueError("cloud weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        n = nodes.shape[1]
        ctr = tuple(np.average(nodes, axis=0, weights=weights))
        return cls("cloud", n, ctr, cloud_nodes=nodes, cloud_weights=weights)

    # -- geometry --------------------------------------------------------

    @property
    def is_balanced_at_origin(self) -> bool:
        """True when the domain is circled and starlike about the origin
        (disk/polydisc/ball centered at 0), so that scaling sublevels make
        sense."""
        if self.shape not in ("disk", "polydisc", "ball"):
            return False
        return all(c == 0 for c in self.center)

    def volume(self) -> float:
        """Lebesgue volume of the domain (2n-dimensional)."""
        if self.shape == "disk":
            return math.pi * self.radius**2
        if self.shape == "polydisc":
            out = 1.0
            for r in self.radii:
                out *= math.pi * r**2
            return out
        if self.shape == "ball":
            n = self.dimension
            return math.pi**n * self.radius ** (2 * n) / math.factorial(n)
        if self.shape == "annulus":
            return math.pi * (self.r_outer**2 - self.r_inner**2)
        if self.shape == "cloud":
            return float(self.cloud_weights.sum())
        raise UnsupportedShapeError(self.shape)

    def diameter(self) -> float:
        """An exact diameter for the analytic shapes, a bounding-box
        diagonal for clouds (any upper bound is a valid diameter here)."""
        if self.shape == "disk":
            return 2.0 * self.radius
        if self.shape == "polydisc":
            return 2.0 * math.sqrt(sum(r**2 for r in self.radii))
        if self.shape == "ball":
            return 2.0 * self.radius
        if self.shape == "annulus":
            return 2.0 * self.r_outer
        if self.shape == "cloud":
            spread = 0.0
            for j in range(self.dimension):
                col = self.cloud_nodes[:, j]
                spread += (col.real.max() - col.real.min()) ** 2
                spread += (col.imag.max() - col.imag.min()) ** 2
            return math.sqrt(spread)
        raise UnsupportedShapeError(self.shape)

    def inradius(self) -> float:
        """Largest boundary distance attained inside the domain."""
        if self.shape == "disk" or self.shape == "ball":
            return self.radius
        if self.shape == "polydisc":
            return min(self.radii)
        if self.shape == "annulus":
            return 0.5 * (self.r_outer - self.r_inner)
        raise UnsupportedShapeError(f"inradius undefined for {self.shape}")

    def to_spec(self) -> dict:
        spec: dict = {"shape": self.shape}
        if self.shape == "disk":
            spec["radius"] = self.radius
            spec["center"] = [self.center[0].real, self.center[0].imag]
        elif self.shape == "polydisc":
            spec["radii"] = list(self.radii)
            spec["center"] = [[c.real, c.imag] for c in self.center]
        elif self.shape == "ball":
            spec["radius"] = self.radius
            spec["dimension"] = self.dimension
            spec["center"] = [[c.real, c.imag] for c in self.center]
        elif self.shape == "annulus":
            spec["r_inner"] = self.r_inner
            spec["r_outer"] = self.r_outer
        elif self.shape == "cloud":
            raise UnsupportedShapeError("cloud domains serialize via CSV, not JSON spec")
        return spec

    def cache_key(self) -> tuple:
        if self.shape == "cloud":
            return ("cloud", id(self.cloud_nodes))
        return (
            self.shape,
            self.dimension,
            self.center,
            self.radius,
            self.radii,
            self.r_inner,
            self.r_outer,
        )


def domain_from_spec(spec: dict) -> Domain:
    """Build a domain from its JSON dict form, e.g.
    ``{"shape": "disk", "radius": 1.0, "center": [0, 0]}``."""
    shape = spec.get("shape")
    if shape == "disk":
        ctr = spec.get("center", [0.0, 0.0])
        return Domain.disk(spec.get("radius", 1.0), complex(ctr[0], ctr[1]))
    if shape in ("polydisc", "bidisc"):
        radii = spec.get("radii", [1.0, 1.0])
        raw_ctr = spec.get("center")
        ctr = None
        if raw_ctr is not None:
            ctr = [complex(c[0], c[1]) for c in raw_ctr]
        return Domain.polydisc(radii, ctr)
    if shape == "ball":
        raw_ctr = spec.get("center")
        dim = spec.get("dimension", 2)
        ctr = [complex(c[0], c[1]) for c in raw_ctr] if raw_ctr is not None else None
        return Domain.ball(spec.get("radius", 1.0), dim, ctr)
    if shape == "annulus":
        return Domain.annulus(spec.get("r_inner", 0.5), spec.get("r_outer", 1.0))
    raise UnsupportedShapeError(f"unknown shape {shape!r}")


def load_cloud_csv(path) -> Domain:
    """Load a cloud domain from CSV rows ``re,im,...,weight`` (n coordinate
    pairs followed by one positive weight)."""
    rows = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    if rows.shape[1] % 2 != 1 or rows.shape[1] < 3:
        raise ValueError("cloud CSV needs 2n coordinate columns plus a weight column")
    n = (rows.shape[1] - 1) // 2
    nodes = rows[:, 0 : 2 * n : 2] + 1j * rows[:, 1 : 2 * n : 2]
    return Domain.cloud(nodes, rows[:, -1])


# ---------------------------------------------------------------------------
# membership and metric helpers
# ---------------------------------------------------------------------------


def contains(domain: Domain, z) -> bool:
    """Strict interior membership test."""
    pt = _as_point(z, domain.dimension)
    if domain.shape == "disk":
        return abs(pt[0] - domain.center[0]) < domain.radius
    if domain.shape == "polydisc":
        return all(abs(pt[j] - domain.center[j]) < domain.radii[j] for j in range(domain.dimension))
    if domain.shape == "ball":
        return math.sqrt(sum(abs(pt[j] - domain.center[j]) ** 2 for j in range(domain.dimension))) < domain.radius
    if domain.shape == "annulus":
        return domain.r_inner < abs(pt[0]) < domain.r_outer
    if domain.shape == "cloud":
        # advisory bounding-box test only
        for j in range(domain.dimension):
            col = domain.cloud_nodes[:, j]
            if not (col.real.min() <= pt[j].real <= col.real.max()):
                return False
            if not (col.imag.min() <= pt[j].imag <= col.imag.max()):
                return False
        return True
    raise UnsupportedShapeError(domain.shape)


def boundary_distance(domain: Domain, z) -> float:
    """Euclidean distance from an interior point to the boundary."""
    pt = _as_point(z, domain.dimension)
    if not contains(domain, pt):
        raise ValueError(f"point {pt} is not inside the domain")
    if domain.shape == "disk":
        return domain.radius - abs(pt[0] - domain.center[0])
    if domain.shape == "polydisc":
        return min(domain.radii[j] - abs(pt[j] - domain.center[j]) for j in range(domain.dimension))
    if domain.shape == "ball":
        return domain.radius - math.sqrt(sum(abs(pt[j] - domain.center[j]) ** 2 for j in range(domain.dimension)))
    if domain.shape == "annulus":
        r = abs(pt[0])
        return min(domain.r_outer - r, r - domain.r_inner)
    raise UnsupportedShapeError(f"boundary distance undefined for {domain.shape}")


def scale_domain(domain: Domain, t: float) -> Domain:
    """Scale a shape domain about the origin by a factor t > 0."""
    if t <= 0:
        raise ValueError("scale factor must be positive")
    if domain.shape == "cloud":
        raise UnsupportedShapeError("cannot scale a cloud domain")
    if domain.shape == "annulus":
        return Domain.annulus(t * domain.r_inner, t * domain.r_outer)
    if any(c != 0 for c in domain.center):
        raise ValueError("scaling is only defined for origin-centered domains")
    if domain.shape == "disk":
        return Domain.disk(t * domain.radius)
    if domain.shape == "polydisc":
        return Domain.polydisc(tuple(t * r for r in domain.radii))
    if domain.shape == "ball":
        return Domain.ball(t * domain.radius, domain.dimension)
    raise UnsupportedShapeError(domain.shape)


def product_domain(a: Domain, b: Domain) -> Domain:
    """Cartesian product of disk/polydisc factors, itself a polydisc."""
    for d in (a, b):
        if d.shape == "cloud":
            raise UnsupportedShapeError("cannot form products with cloud factors")
        if d.shape not in ("disk", "polydisc"):
            raise UnsupportedShapeError(f"product with {d.shape} factor is not tensor-compatible")

    def parts(d: Domain) -> tuple[tuple[float, ...], tuple[complex, ...]]:
        if d.shape == "disk":
            return (d.radius,), d.center
        return d.radii, d.center

    ra, ca = parts(a)
    rb, cb = parts(b)
    return Domain.polydisc(ra + rb, ca + cb)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Quadrature:
    """Nodes (m, n) and positive weights (m,) for integration over a domain."""

    domain: Domain
    nodes: np.ndarray
    weights: np.ndarray
    radial_order: int
    angular_order: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def volume(self) -> float:
        return float(self.weights.sum())

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def _gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _disk_rule_1d(radius: float, center: complex, nr: int, na: int):
    """Polar rule on a disk: GL in radius (weight r dr), trapezoid in angle."""
    u, v = _gauss_legendre_01(nr)
    theta = 2.0 * math.pi * np.arange(na) / na
    ring = np.exp(1j * theta)
    nodes = (center + radius * u[:, None] * ring[None, :]).ravel()
    w_r = radius**2 * u * v
    weights = (w_r[:, None] * np.full(na, 2.0 * math.pi / na)[None, :]).ravel()
    return nodes, weights


def _annulus_rule(r1: float, r2: float, nr: int, na: int):
    x, w = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * (r2 - r1) * x + 0.5 * (r1 + r2)
    wr = 0.5 * (r2 - r1) * w * r
    theta = 2.0 * math.pi * np.arange(na) / na
    ring = np.exp(1j * theta)
    nodes = (r[:, None] * ring[None, :]).ravel()
    weights = (wr[:, None] * np.full(na, 2.0 * math.pi / na)[None, :]).ravel()
    return nodes, weights


def _ball_rule(radius: float, center, n: int, nr: int, na: int):
    """Ball rule via the cone decomposition: z_j = sqrt(sigma v_j) e^{i theta_j}
    with sigma in [0, R^2] and v on the probability simplex.

    The Lebesgue volume element becomes
    2^-n sigma^(n-1) dsigma dv dtheta, and |z^alpha|^2-type integrands turn
    into polynomials in (sigma, v), so moderate Gauss-Legendre orders
    integrate monomial Gram matrices exactly.
    """
    s_nodes, s_w = _gauss_legendre_01(nr)
    sigma = radius**2 * s_nodes
    w_sigma = radius**2 * s_w * sigma ** (n - 1)

    # simplex factors via the iterated substitution v_1 = t_1,
    # v_2 = (1 - t_1) t_2, ... with polynomial Jacobians
    t_nodes, t_w = _gauss_legendre_01(nr)
    simplex_pts = [((), 1.0, 1.0)]  # (v-prefix, remaining mass, weight)
    for level in range(n - 1):
        nxt = []
        for prefix, remaining, wgt in simplex_pts:
            for t, tw in zip(t_nodes, t_w):
                v = remaining * t
                jac = remaining  # d v / d t at this level
                nxt.append((prefix + (v,), remaining - v, wgt * tw * jac))
        simplex_pts = nxt
    v_list = np.array([p + (rem,) for p, rem, _ in simplex_pts])
    v_wgt = np.array([wgt for _, _, wgt in simplex_pts])

    theta = 2.0 * math.pi * np.arange(na) / na
    ring = np.exp(1j * theta)
    ang_weight = 2.0 * math.pi / na

    total = len(sigma) * len(v_list) * na**n
    if total > MAX_NODES:
        raise QuadratureError(
            f"ball rule would need {total} nodes (cap {MAX_NODES}); lower the orders"
        )

    radial = np.sqrt(sigma[:, None, None] * v_list[None, :, :])  # (nr, nv, n)
    base_w = 0.5**n * (w_sigma[:, None] * v_wgt[None, :]) * ang_weight**n

    grids = np.meshgrid(*([ring] * n), indexing="ij")
    ring_prod = np.stack([g.ravel() for g in grids], axis=-1)  # (na^n, n)

    nodes = radial.reshape(-1, 1, n) * ring_prod[None, :, :]
    nodes = nodes.reshape(-1, n) + np.asarray(center)[None, :]
    weights = np.repeat(base_w.ravel(), ring_prod.shape[0])
    return nodes, weights


def build_quadrature(domain: Domain, radial_order: int = 32, angular_order: int = 64) -> Quadrature:
    """Build a quadrature rule for a domain.

    Parameters
    ----------
    domain : Domain
    radial_order : Gauss-Legendre order per radial/simplex direction.
    angular_order : number of uniform angular nodes per circle factor.

    The rule is validated: total weight must match the analytic volume to
    0.1 percent, and every node must lie strictly inside the domain.
    """
    if domain.shape == "cloud":
        return Quadrature(domain, domain.cloud_nodes, domain.cloud_weights, 0, 0)
    if radial_order < MIN_ORDER or angular_order < MIN_ORDER:
        raise QuadratureError(f"orders must be at least {MIN_ORDER}")

    if domain.shape == "disk":
        nodes1, weights = _disk_rule_1d(domain.radius, domain.center[0], radial_order, angular_order)
        nodes = nodes1[:, None]
    elif domain.shape == "annulus":
        nodes1, weights = _annulus_rule(domain.r_inner, domain.r_outer, radial_order, angular_order)
        nodes = nodes1[:, None]
    elif domain.shape == "polydisc":
        per_axis = [
            _disk_rule_1d(r, c, radial_order, angular_order)
            for r, c in zip(domain.radii, domain.center)
        ]
        total = 1
        for nd, _ in per_axis:
            total *= nd.size
        if total > MAX_NODES:
            raise QuadratureError(
                f"polydisc rule would need {total} nodes (cap {MAX_NODES}); lower the orders"
            )
        node_grids = np.meshgrid(*[nd for nd, _ in per_axis], indexing="ij")
        weight_grids = np.meshgrid(*[w for _, w in per_axis], indexing="ij")
        nodes = np.stack([g.ravel() for g in node_grids], axis=-1)
        weights = np.ones(nodes.shape[0])
        for w in weight_grids:
            weights = weights * w.ravel()
    elif domain.shape == "ball":
        nodes, weights = _ball_rule(domain.radius, domain.center, domain.dimension, radial_order, angular_order)
    else:
        raise UnsupportedShapeError(domain.shape)

    quad = Quadrature(domain, nodes, weights, radial_order, angular_order)
    _validate(quad)
    return quad


def _validate(quad: Quadrature) -> None:
    vol = quad.domain.volume()
    got = quad.volume()
    if abs(got - vol) > 1e-3 * vol:
        raise QuadratureError(f"quadrature volume {got} vs analytic {vol}")
    d = quad.domain
    pts = quad.nodes
    if d.shape == "disk":
        inside = np.abs(pts[:, 0] - d.center[0]) < d.radius
    elif d.shape == "polydisc":
        inside = np.ones(pts.shape[0], dtype=bool)
        for j in range(d.dimension):
            inside &= np.abs(pts[:, j] - d.center[j]) < d.radii[j]
    elif d.shape == "ball":
        ctr = np.asarray(d.center)
        inside = np.linalg.norm(pts - ctr, axis=1) < d.radius
    elif d.shape == "annulus":
        r = np.abs(pts[:, 0])
        inside = (r > d.r_inner) & (r < d.r_outer)
    else:
        return
    if not bool(inside.all()):
        raise QuadratureError("quadrature nodes escaped the domain")
