"""Model domains in C^n and their quadrature rules.

Supported shapes: disk, polydisc, ball (n >= 2) and annulus (n = 1).
Domains are immutable values: equal parameters give equal, hashable
domains.  Quadrature rules are tensor products of Gauss-Legendre radial
rules with uniform (trapezoidal) angular grids, stored as their rings alone
(see :class:`Quadrature`); on circles the trapezoid rule is exact for
trigonometric polynomials, so monomial Gram matrices are integrated exactly
once the radial order is high enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import _as_point

__all__ = [
    "Domain",
    "Quadrature",
    "build_quadrature",
    "node_count",
    "boundary_distance",
    "scale_domain",
    "contains",
    "domain_from_spec",
    "UnsupportedShapeError",
]

# Hard ceiling on the node count, which sizes every per-node array.  Large
# enough for a bidisc at (32, 64) per axis; beyond it is almost surely a mistake.
MAX_NODES = 8_000_000

MIN_ORDER = 4


class UnsupportedShapeError(ValueError):
    """Operation not defined for this domain shape."""


class QuadratureError(ValueError):
    """Quadrature construction failed validation."""


@dataclass(frozen=True)
class Domain:
    """A model domain in C^n: a disk, polydisc, ball or annulus.

    Use the constructors (:meth:`disk`, :meth:`polydisc`, :meth:`ball`,
    :meth:`annulus`) rather than the raw initializer.  Instances are
    immutable values, so equal parameters compare and hash equal.
    """

    shape: str
    dimension: int
    center: tuple[complex, ...]
    radius: float | None = None
    radii: tuple[float, ...] | None = None
    r_inner: float | None = None
    r_outer: float | None = None

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
        raise UnsupportedShapeError(self.shape)

    def diameter(self) -> float:
        """Exact diameter of the domain."""
        if self.shape == "disk":
            return 2.0 * self.radius
        if self.shape == "polydisc":
            return 2.0 * math.sqrt(sum(r**2 for r in self.radii))
        if self.shape == "ball":
            return 2.0 * self.radius
        if self.shape == "annulus":
            return 2.0 * self.r_outer
        raise UnsupportedShapeError(self.shape)

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
        return spec


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


# ---------------------------------------------------------------------------
# membership and metric helpers
# ---------------------------------------------------------------------------


def _boundary_gap(domain: Domain, pts: np.ndarray) -> np.ndarray:
    """Signed Euclidean gap to the boundary of each point of ``pts`` (m, n).

    Positive inside, where it is the distance to the boundary; zero or
    negative on and outside it.
    """
    d = np.abs(pts - np.asarray(domain.center))
    if domain.shape == "disk":
        return domain.radius - d[:, 0]
    if domain.shape == "polydisc":
        return np.min(np.asarray(domain.radii) - d, axis=1)
    if domain.shape == "ball":
        return domain.radius - np.sqrt(np.sum(d**2, axis=1))
    if domain.shape == "annulus":
        return np.minimum(domain.r_outer - d[:, 0], d[:, 0] - domain.r_inner)
    raise UnsupportedShapeError(domain.shape)


def _gap_at(domain: Domain, z) -> float:
    return float(_boundary_gap(domain, np.array([_as_point(z, domain.dimension)]))[0])


def contains(domain: Domain, z) -> bool:
    """Strict interior membership test."""
    return _gap_at(domain, z) > 0


def boundary_distance(domain: Domain, z) -> float:
    """Euclidean distance from an interior point to the boundary."""
    gap = _gap_at(domain, z)
    if not gap > 0:
        raise ValueError(f"point {_as_point(z, domain.dimension)} is not inside the domain")
    return gap


def scale_domain(domain: Domain, t: float) -> Domain:
    """Scale a shape domain about the origin by a factor t > 0."""
    if t <= 0:
        raise ValueError("scale factor must be positive")
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


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Quadrature:
    """A rule of K rings, each carried round a uniform torus of ``angles ** n`` angles.

    ``rings`` (K, n) holds the ring offsets from the domain center and
    ``ring_weights`` (K,) the weight of each node of a ring, the angular
    factor (2 pi / angles)^n included.  With the angle multi-index j (one
    entry per coordinate) running row-major, node k * angles**n + j is
    ``center + rings[k] * exp(2 pi i j / angles)`` with weight
    ``ring_weights[k]``.  Scattered nodes are a rule of one angle (rings =
    nodes - center).  The (Q,) :attr:`weights` are kept; the (Q, n)
    :attr:`nodes` are formed only when read, and no solve reads them.
    """

    domain: Domain
    rings: np.ndarray
    ring_weights: np.ndarray
    angles: int
    radial_order: int
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.rings.shape != (len(self.ring_weights), self.domain.dimension):
            raise QuadratureError(f"rings of shape {self.rings.shape} do not fit "
                                  f"{len(self.ring_weights)} weights in C^{self.domain.dimension}")
        self.weights = np.repeat(self.ring_weights, self.angles ** self.domain.dimension)
        for arr in (self.rings, self.ring_weights, self.weights):
            arr.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.ring_weights) * self.angles ** self.domain.dimension

    @cached_property
    def nodes(self) -> np.ndarray:
        """(Q, n) nodes in the ring-major layout above."""
        n = self.domain.dimension
        circle = np.exp(1j * (2.0 * math.pi * np.arange(self.angles) / self.angles))
        torus = circle[np.indices((self.angles,) * n).reshape(n, -1).T]  # (angles^n, n)
        nodes = (self.rings[:, None, :] * torus[None, :, :]).reshape(-1, n) + self.domain.center
        nodes.setflags(write=False)
        return nodes

    def volume(self) -> float:
        return float(self.weights.sum())

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def _gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# Each ring rule returns ring offsets (K, n) from the center and the radial
# weight of each ring; build_quadrature adds the angular factor.


def _disk_rings(radius: float, nr: int):
    """Gauss-Legendre radii on a disk (weight r dr)."""
    u, v = _gauss_legendre_01(nr)
    return (radius * u)[:, None], radius**2 * u * v


def _annulus_rings(r1: float, r2: float, nr: int):
    x, w = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * (r2 - r1) * x + 0.5 * (r1 + r2)
    return r[:, None], 0.5 * (r2 - r1) * w * r


def _polydisc_rings(radii, nr: int):
    """Products of the per-axis disk radii, first axis slowest."""
    per_axis = [_disk_rings(r, nr) for r in radii]
    ring_grids = np.meshgrid(*[rg[:, 0] for rg, _ in per_axis], indexing="ij")
    weight_grids = np.meshgrid(*[w for _, w in per_axis], indexing="ij")
    rings = np.stack([g.ravel() for g in ring_grids], axis=-1)
    weights = np.ones(rings.shape[0])
    for w in weight_grids:
        weights = weights * w.ravel()
    return rings, weights


def _ball_rings(radius: float, n: int, nr: int):
    """Ball rings via the cone decomposition: z_j = sqrt(sigma v_j) e^{i theta_j}
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

    rings = np.sqrt(sigma[:, None, None] * v_list[None, :, :]).reshape(-1, n)
    return rings, (0.5**n * (w_sigma[:, None] * v_wgt[None, :])).ravel()


def node_count(domain: Domain, radial_order: int, angular_order: int) -> int:
    """Number of nodes :func:`build_quadrature` makes for these orders.

    Every rule takes radial_order radial (or simplex) nodes times
    angular_order angles per complex coordinate, so the count is
    (radial_order * angular_order) ** n.
    """
    return (radial_order * angular_order) ** domain.dimension


def build_quadrature(domain: Domain, radial_order: int, angular_order: int) -> Quadrature:
    """Build a quadrature rule for a domain.

    Parameters
    ----------
    domain : Domain
    radial_order : Gauss-Legendre order per radial/simplex direction.
    angular_order : number of uniform angular nodes per circle factor.

    The rule is validated: total weight must match the analytic volume to
    0.1 percent, and every node must lie strictly inside the domain.
    """
    if radial_order < MIN_ORDER or angular_order < MIN_ORDER:
        raise QuadratureError(f"orders must be at least {MIN_ORDER}")
    total = node_count(domain, radial_order, angular_order)
    if total > MAX_NODES:
        raise QuadratureError(
            f"{domain.shape} rule in {domain.dimension} variable(s) at orders "
            f"({radial_order}, {angular_order}) would need {total} nodes "
            f"(cap {MAX_NODES}); lower the orders (--radial-order, --angular-order)")

    n = domain.dimension
    if domain.shape == "disk":
        rings, ring_weights = _disk_rings(domain.radius, radial_order)
    elif domain.shape == "annulus":
        rings, ring_weights = _annulus_rings(domain.r_inner, domain.r_outer, radial_order)
    elif domain.shape == "polydisc":
        rings, ring_weights = _polydisc_rings(domain.radii, radial_order)
    elif domain.shape == "ball":
        rings, ring_weights = _ball_rings(domain.radius, n, radial_order)
    else:
        raise UnsupportedShapeError(domain.shape)

    ring_weights = ring_weights * (2.0 * math.pi / angular_order) ** n
    quad = Quadrature(domain, rings, ring_weights, angular_order, radial_order)
    _validate(quad)
    return quad


def _validate(quad: Quadrature) -> None:
    vol = quad.domain.volume()
    got = quad.volume()
    if abs(got - vol) > 1e-3 * vol:
        raise QuadratureError(f"quadrature volume {got} vs analytic {vol}")
    # every shape is circled about its center, so a node's boundary gap is
    # its ring's: checking the K rings checks all Q nodes
    if not bool(np.all(_boundary_gap(quad.domain, quad.rings + quad.domain.center) > 0)):
        raise QuadratureError("quadrature nodes escaped the domain")
