"""Sublevel-set geometry of closed-form invariant potentials, plus sweeps.

Two models carry an explicit logarithmic potential with a pole:

  * balanced: an origin-centered shape domain, pole at the origin; the
    potential is the log of the Minkowski gauge and the sublevel set at
    height a <= 0 is the domain scaled by e^a.
  * moebius-disk: the unit disk with an arbitrary interior pole z0; the
    sublevel set is the pseudohyperbolic disk |z - z0| / |1 - conj(z0) z|
    < e^a, a Euclidean disk with explicit center and radius.

Every sublevel set is an affine image c_a + s_a Omega of the model domain
Omega, and so is every quadrature rule: the rule on the image is the image
of the rule on Omega.  The discrete problem therefore obeys the covariance
law

    K_{c + s Omega}(c + s x; xi) = s^(-2n) K_Omega(x; xi'),
    xi'_alpha = xi_alpha s^(-|alpha|),

with the vanishing jets of a higher-order target unchanged.  A sweep uses
it to solve every row on the caller's space over Omega, at the preimage
x_a = (pole - c_a) / s_a of the pole, and reports s_a^(-2n) times that
value.  Every row after the first hands the constrained solve the previous
row's minimizer in the space's centred basis (its ``coeffs``); the solve
decides whether to start there, so the rows at p = 2 stay exact and the
p < 1 rows never read it: a delta_0 row descends from the power of its
p = 2 minimizer and runs the seeded restarts only where that descent does
not end stationary, and other p < 1 rows run them from the p = 2 point.
The sweep tabulates K, the rescaled column e^((2n + p k) a) K, and log K.  The
scaled column is the quantity whose monotonicity and limit behavior the
verification battery checks; for balanced models with a functional
supported in a single degree it is constant by exact discrete scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Functional
from .domains import Domain, UnsupportedShapeError, contains, scale_domain
from .higher import (
    FunctionalFamily,
    HomogeneousPolynomial,
    _jet_constraint,
    higher_kernel_direct,
)
from .kernels import _constrained_kernel, diagonal
from .pspace import PolySpace

__all__ = [
    "GreenModel",
    "SweepRow",
    "SweepTable",
    "LimitChainResult",
    "sublevel_domain",
    "azukawa_indicatrix",
    "sweep",
    "limit_chain_check",
    "default_a_grid",
]

# relative slack on each inequality of the limit chain
LIMIT_CHAIN_TOL = 1e-6


@dataclass(frozen=True)
class GreenModel:
    """A domain together with a closed-form potential pole."""

    kind: str  # "balanced" | "moebius-disk"
    domain: Domain
    pole: tuple[complex, ...]

    @classmethod
    def balanced(cls, domain: Domain) -> "GreenModel":
        if not domain.is_balanced_at_origin:
            raise UnsupportedShapeError(
                f"{domain.shape} domain is not balanced about the origin")
        return cls("balanced", domain, (0j,) * domain.dimension)

    @classmethod
    def moebius_disk(cls, pole: complex) -> "GreenModel":
        pole = complex(pole)
        if abs(pole) >= 1:
            raise ValueError("pole must lie inside the unit disk")
        return cls("moebius-disk", Domain.disk(), (pole,))

    @property
    def dimension(self) -> int:
        return self.domain.dimension


def _sublevel_affine(model: GreenModel, a: float) -> tuple[tuple[complex, ...], float]:
    """Center c and scale s of the sublevel set at height a <= 0 as c + s * model.domain."""
    if a > 0:
        raise ValueError(f"sublevel height must be <= 0, got {a}")
    s = math.exp(a)
    if model.kind == "balanced":
        return (0j,) * model.dimension, s
    if model.kind == "moebius-disk":
        z0 = model.pole[0]
        r2 = abs(z0) ** 2
        denom = 1.0 - s * s * r2
        return (z0 * (1.0 - s * s) / denom,), s * (1.0 - r2) / denom
    raise UnsupportedShapeError(model.kind)


def sublevel_domain(model: GreenModel, a: float) -> Domain:
    """The potential sublevel set at height a <= 0, as a shape domain."""
    center, scale = _sublevel_affine(model, a)
    if model.kind == "balanced":
        return scale_domain(model.domain, scale)
    return Domain.disk(scale, center[0])


def azukawa_indicatrix(model: GreenModel) -> Domain:
    """Indicatrix of the infinitesimal metric at the pole.

    For a balanced pseudoconvex domain with the pole at the origin the
    metric equals the Minkowski gauge, so the indicatrix is the domain
    itself.  No closed form is implemented for off-center poles.
    """
    if model.kind != "balanced":
        raise UnsupportedShapeError(
            "indicatrix is only available for balanced models")
    return model.domain


def default_a_grid(lo: float = -3.0, hi: float = 0.0, count: int = 31) -> list[float]:
    return [float(a) for a in np.linspace(lo, hi, count)]


@dataclass
class SweepRow:
    a: float
    K: float
    scaled: float
    logK: float
    flags: tuple[str, ...] = ()


@dataclass
class SweepTable:
    """Kernel values along a sublevel family, with the rescaled column.

    metadata records p, the functional degree k, the complex dimension n,
    the model kind, the truncation degree, and the pole.
    """

    rows: list[SweepRow]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        avals = [r.a for r in self.rows]
        if any(b <= a for a, b in zip(avals, avals[1:])):
            raise ValueError("sweep heights must be strictly increasing")
        if any(r.K <= 0 for r in self.rows):
            raise ValueError("kernel values along a sweep must be positive")

    def scaled_column(self) -> np.ndarray:
        return np.array([r.scaled for r in self.rows])

    def monotonicity_margin(self) -> float:
        """Min of consecutive scaled differences; >= 0 when non-decreasing."""
        col = self.scaled_column()
        if len(col) < 2:
            return 0.0
        return float(np.min(np.diff(col)))

    def log_convexity_margin(self) -> float:
        """Min second difference of log K against a; >= 0 when convex."""
        logs = np.array([r.logK for r in self.rows])
        avals = np.array([r.a for r in self.rows])
        if len(logs) < 3:
            return 0.0
        # second divided differences scaled back to plain second differences
        # on a uniform grid; supports mildly non-uniform grids too
        h1 = np.diff(avals[:-1])
        h2 = np.diff(avals[1:])
        dd = (logs[2:] - logs[1:-1]) / h2 - (logs[1:-1] - logs[:-2]) / h1
        step = float(np.mean(np.diff(avals)))
        return float(np.min(dd) * step)

    def max_scaled_deviation(self) -> float:
        """Max relative deviation of the scaled column from its midpoint value."""
        col = self.scaled_column()
        ref = col[len(col) // 2]
        return float(np.max(np.abs(col - ref)) / abs(ref))

    def scaled_upper_margin(self) -> float:
        """max(scaled) relative to the final row; <= 0 when the last row caps."""
        col = self.scaled_column()
        return float((np.max(col) - col[-1]) / abs(col[-1]))

    @property
    def flagged(self) -> bool:
        return any(r.flags for r in self.rows)

    def to_csv(self) -> str:
        lines = ["a,K,scaled,logK,flag"]
        for r in self.rows:
            flag = ";".join(r.flags) if r.flags else "ok"
            lines.append(
                f"{r.a:.12g},{r.K:.12g},{r.scaled:.12g},{r.logK:.12g},{flag}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        meta = dict(self.metadata)
        if "pole" in meta:
            meta["pole"] = [[c.real, c.imag] for c in meta["pole"]]
        return {
            "metadata": meta,
            "rows": [
                {"a": r.a, "K": r.K, "scaled": r.scaled, "logK": r.logK,
                 "flags": list(r.flags)}
                for r in self.rows
            ],
        }


def _checked_grid(a_grid) -> list[float]:
    grid = [float(a) for a in a_grid]
    if not grid:
        raise ValueError("empty sweep grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    if grid[-1] > 0:
        raise ValueError("sweep heights must be <= 0")
    return grid


def sweep(
    space: PolySpace,
    model: GreenModel,
    target: Functional | HomogeneousPolynomial,
    p: float,
    a_grid,
    seed: int = 42,
) -> SweepTable:
    """Kernel at the pole across the sublevel family, on the caller's space.

    ``target`` is either a jet functional (plain kernel) or a homogeneous
    polynomial (higher-order kernel).  Every row is solved on ``space``, which
    must be over ``model.domain``, by the covariance law of the module
    docstring; each row after the first is handed the row before as its
    start.  The scaled column uses the exponent 2n + p k with k the degree
    of the target.  ``seed`` feeds the p < 1 restarts of the plain kernel.
    """
    _check_space(space, model)
    grid = _checked_grid(a_grid)
    n = model.dimension
    if isinstance(target, HomogeneousPolynomial):
        top, low = _jet_constraint(space, target, p)
    else:
        top, low = target, 0
    k = target.degree
    exponent = 2 * n + p * k
    # the previous row's minimizer in the space's centred basis
    start = None

    rows = []
    for a in grid:
        center, scale = _sublevel_affine(model, a)
        x = tuple((z - c) / scale for z, c in zip(model.pole, center))
        if not contains(model.domain, x):
            raise ValueError(
                f"pole leaves the sublevel domain at a = {a}")
        xi = Functional(n, {idx: c * scale ** -idx.degree
                            for idx, c in top.terms.items()})
        ev = _constrained_kernel(space, xi, x, p, low, seed=seed, start=start)
        start = ev.coeffs
        K = scale ** (-2 * n) * ev.K
        rows.append(SweepRow(a=a, K=K, scaled=math.exp(exponent * a) * K,
                             logK=math.log(K), flags=ev.flags))

    if isinstance(target, HomogeneousPolynomial):
        target_text = str(target)
    else:
        target_text = target.to_json()
    meta = {
        "p": p, "k": k, "n": n, "kind": model.kind,
        "pole": model.pole,
        "degree": space.degree,
        "target": target_text,
    }
    return SweepTable(rows=rows, metadata=meta)


def _check_space(space: PolySpace, model: GreenModel) -> None:
    if space.domain != model.domain:
        raise ValueError(
            f"space is over {space.domain.to_spec()}, the model over "
            f"{model.domain.to_spec()}")


@dataclass
class LimitChainResult:
    """Whole-domain kernel vs sweep limit vs indicatrix kernel."""

    lhs: float          # kernel of the functional on the whole domain
    limit: float        # scaled column at the most negative height
    rhs: float          # higher-order kernel on the indicatrix
    passed: bool
    stabilization: float  # relative gap between the two most negative rows
    table: SweepTable


def limit_chain_check(
    space: PolySpace,
    model: GreenModel,
    H: HomogeneousPolynomial,
    p: float,
    a_grid,
    xi: Functional | None = None,
) -> LimitChainResult:
    """Check  K_xi(whole) >= sweep limit >= K_H(indicatrix)  at the pole.

    Holds for every functional in the affine family of H when p <= 2; the
    limit is approximated by the scaled column at the most negative grid
    height, so the grid should reach a <= -3.  The indicatrix of a
    balanced model is the domain itself (see :func:`azukawa_indicatrix`),
    so ``space``, which must be over ``model.domain``, carries the whole-domain
    kernel, the sweep and the indicatrix kernel.  A grid that ends at
    a = 0 has the whole domain as its last row, and that row's K is the
    whole-domain kernel; only a grid that stops short of 0 solves it apart.
    """
    _check_space(space, model)
    if model.kind != "balanced":
        raise UnsupportedShapeError("limit chain needs a balanced model")
    if not (0 < p <= 2):
        raise ValueError("the limit chain is only claimed for 0 < p <= 2")
    family = FunctionalFamily(H)
    if xi is None:
        xi = family.fixed_member()
    elif not family.contains(xi):
        raise ValueError("functional does not share the top part of H")

    table = sweep(space, model, xi, p, a_grid)
    limit = table.rows[0].scaled
    if len(table.rows) > 1:
        stabilization = abs(table.rows[1].scaled - limit) / abs(limit)
    else:
        stabilization = 0.0

    # at a = 0 the sublevel set is the whole domain, whose row is the lhs
    lhs = table.rows[-1].K if table.rows[-1].a == 0 else diagonal(space, xi, model.pole, p).K
    rhs = higher_kernel_direct(space, H, model.pole, p).K

    slack = LIMIT_CHAIN_TOL * max(abs(lhs), abs(limit), abs(rhs))
    passed = lhs - limit >= -slack and limit - rhs >= -slack
    return LimitChainResult(lhs=lhs, limit=limit, rhs=rhs, passed=passed,
                            stabilization=stabilization, table=table)
