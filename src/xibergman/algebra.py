"""Multi-indices, jet functionals, and polynomial coefficient vectors.

The objects here are the combinatorial substrate for everything else in the
package: multi-indices in ``NN^n`` carrying a graded total order, finitely
supported functionals ``xi`` that pair with the Taylor jet of a holomorphic
function at a point, and explicit coefficient containers for polynomials
(plus one-variable Laurent polynomials, which the annulus needs).

The pairing convention is

    (xi . f)(z0) = sum_alpha  xi_alpha * f^(alpha)(z0) / alpha!

i.e. ``xi`` acts on the Taylor *coefficients* of ``f`` at ``z0``, not on the
raw derivatives.  One scalar routine, :meth:`PolyCoeffs.jet`, computes those
coefficients, for polynomial and Laurent data alike: the pairing
:func:`functional_apply`, the re-centring :func:`taylor_shift` and, through
the pairing, the homogeneous derivatives of ``higher`` all read it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "MultiIndex",
    "Functional",
    "PolyCoeffs",
    "prec_compare",
    "functional_apply",
    "taylor_shift",
    "enumerate_upto_degree",
]


class AlgebraError(ValueError):
    """Ill-formed multi-index, functional, or coefficient data."""


@dataclass(frozen=True)
class MultiIndex:
    """A derivative/monomial exponent tuple.

    Entries are non-negative for genuine Taylor indices.  Negative entries
    are tolerated only in dimension one, where they denote Laurent
    exponents; the jet-functional machinery rejects them.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise AlgebraError("multi-index needs at least one entry")
        if any(not isinstance(e, int) for e in self.entries):
            object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if len(self.entries) > 1 and any(e < 0 for e in self.entries):
            raise AlgebraError("negative entries only allowed in dimension 1")

    @classmethod
    def zero(cls, dimension: int) -> "MultiIndex":
        return cls((0,) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @cached_property
    def degree(self) -> int:
        return sum(self.entries)

    @property
    def is_taylor(self) -> bool:
        return all(e >= 0 for e in self.entries)

    def factorial(self) -> int:
        """alpha! = prod_j alpha_j!  (Taylor indices only)."""
        if not self.is_taylor:
            raise AlgebraError("factorial undefined for Laurent exponents")
        out = 1
        for e in self.entries:
            out *= math.factorial(e)
        return out

    def sort_key(self) -> tuple:
        # Graded order; ties compared from the last coordinate down.
        return (self.degree, tuple(reversed(self.entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> int:
        return self.entries[j]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        return prec_compare(self, other) < 0

    def __le__(self, other: "MultiIndex") -> bool:
        return prec_compare(self, other) <= 0

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def prec_compare(a: MultiIndex, b: MultiIndex) -> int:
    """Graded total order on multi-indices; returns -1, 0, or +1.

    Lower total degree comes first.  Within a degree, entries are compared
    from the last coordinate down to the first, and the first coordinate
    that differs decides: the index with the smaller entry there is the
    smaller one.  In dimension one this is plain degree order.  The order
    is that of :meth:`MultiIndex.sort_key`.
    """
    if a.dimension != b.dimension:
        raise AlgebraError("cannot compare indices of different dimension")
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


def enumerate_upto_degree(dimension: int, degree: int) -> list[MultiIndex]:
    """All Taylor indices with |alpha| <= degree, sorted by the graded order."""
    if degree < 0:
        return []
    out: list[MultiIndex] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            for e in range(remaining + 1):
                out.append(MultiIndex(prefix + (e,)))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, dimension)
    out.sort(key=MultiIndex.sort_key)
    return out


@dataclass(frozen=True, eq=False)
class Functional:
    """A finitely supported jet functional.

    ``terms`` maps Taylor multi-indices to complex coefficients.  Zero
    coefficients are pruned on construction; the zero functional is
    representable but rejected by every kernel operation.
    """

    dimension: int
    terms: Mapping[MultiIndex, complex]

    def __post_init__(self):
        cleaned: dict[MultiIndex, complex] = {}
        for idx, coeff in self.terms.items():
            if not isinstance(idx, MultiIndex):
                idx = MultiIndex(tuple(idx))
            if idx.dimension != self.dimension:
                raise AlgebraError(
                    f"index {idx} has dimension {idx.dimension}, expected {self.dimension}"
                )
            if not idx.is_taylor:
                raise AlgebraError("functional indices must be non-negative")
            c = complex(coeff)
            if c != 0:
                cleaned[idx] = c
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def delta(cls, alpha, dimension: int | None = None, coeff: complex = 1.0) -> "Functional":
        """The single-term functional pairing with one Taylor coefficient."""
        if isinstance(alpha, int):
            alpha = MultiIndex((alpha,))
        elif not isinstance(alpha, MultiIndex):
            alpha = MultiIndex(tuple(alpha))
        dim = dimension if dimension is not None else alpha.dimension
        return cls(dim, {alpha: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Top degree of the support."""
        if self.is_zero:
            raise AlgebraError("zero functional has no degree")
        return max(idx.degree for idx in self.terms)

    def support(self) -> list[MultiIndex]:
        return sorted(self.terms, key=MultiIndex.sort_key)

    def __getitem__(self, idx: MultiIndex) -> complex:
        return self.terms.get(idx, 0j)

    def scaled(self, factor: complex) -> "Functional":
        return Functional(self.dimension, {a: factor * c for a, c in self.terms.items()})

    def plus(self, other: "Functional") -> "Functional":
        if other.dimension != self.dimension:
            raise AlgebraError("dimension mismatch")
        merged = dict(self.terms)
        for a, c in other.terms.items():
            merged[a] = merged.get(a, 0j) + c
        return Functional(self.dimension, merged)

    def tensor(self, other: "Functional") -> "Functional":
        """Product functional on a product domain: acts factorwise on jets."""
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                terms[MultiIndex(a.entries + b.entries)] = ca * cb
        return Functional(self.dimension + other.dimension, terms)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {str(a): [c.real, c.imag] for a, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key())}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object], dimension: int | None = None) -> "Functional":
        terms: dict[MultiIndex, complex] = {}
        dim = dimension
        for key, val in data.items():
            entries = tuple(int(part) for part in key.split(","))
            idx = MultiIndex(entries)
            if dim is None:
                dim = idx.dimension
            if isinstance(val, (list, tuple)):
                if len(val) != 2:
                    raise AlgebraError(f"coefficient for {key} must be [re, im]")
                c = complex(float(val[0]), float(val[1]))
            else:
                c = complex(val)
            terms[idx] = c
        if dim is None:
            raise AlgebraError("cannot infer dimension from empty functional")
        return cls(dim, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_string(cls, text: str, dimension: int | None = None) -> "Functional":
        """Parse the CLI shorthand ``"0:1"`` or ``"0,0:1; 1,0:0.5+2j"``.

        Terms are separated by ``;``, each term is ``index:coefficient``
        where the index is a comma-separated entry list and the coefficient
        anything ``complex()`` accepts.
        """
        text = text.strip()
        if text.startswith("{"):
            return cls.from_json_dict(json.loads(text), dimension)
        terms: dict[MultiIndex, complex] = {}
        dim = dimension
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise AlgebraError(f"bad functional term {chunk!r}, expected index:coeff")
            key, _, val = chunk.partition(":")
            entries = tuple(int(part) for part in key.split(","))
            idx = MultiIndex(entries)
            if dim is None:
                dim = idx.dimension
            try:
                c = complex(val.strip().replace(" ", ""))
            except ValueError as exc:
                raise AlgebraError(f"bad coefficient {val!r}") from exc
            terms[idx] = terms.get(idx, 0j) + c
        if dim is None:
            raise AlgebraError("empty functional string")
        return cls(dim, terms)


@dataclass(eq=False)
class PolyCoeffs:
    """Coefficients of a polynomial around an expansion center.

    ``coeffs[alpha]`` is the Taylor coefficient ``a_alpha``, so the function
    is ``f(w) = sum_alpha a_alpha (w - center)^alpha``.  In dimension one,
    negative exponents are admitted (Laurent coefficients around 0); those
    objects refuse re-centering.
    """

    dimension: int
    center: tuple[complex, ...]
    coeffs: dict[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        self.center = tuple(complex(c) for c in self.center)
        if len(self.center) != self.dimension:
            raise AlgebraError("center length must equal dimension")
        cleaned = {}
        for idx, c in self.coeffs.items():
            if not isinstance(idx, MultiIndex):
                idx = MultiIndex(tuple(idx))
            if idx.dimension != self.dimension:
                raise AlgebraError("coefficient index dimension mismatch")
            c = complex(c)
            if c != 0:
                cleaned[idx] = c
        self.coeffs = cleaned

    @classmethod
    def monomial(cls, alpha: MultiIndex, center, coeff: complex = 1.0) -> "PolyCoeffs":
        center = _as_point(center, alpha.dimension)
        return cls(alpha.dimension, center, {alpha: coeff})

    @property
    def is_laurent(self) -> bool:
        return any(min(idx.entries) < 0 for idx in self.coeffs)

    @property
    def band(self) -> int:
        """Largest absolute exponent; the natural size for Laurent data."""
        if not self.coeffs:
            return 0
        return max(max(abs(e) for e in idx.entries) for idx in self.coeffs)

    def coefficient(self, alpha: MultiIndex) -> complex:
        return self.coeffs.get(alpha, 0j)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an array of points of shape (m, n) (or (m,) if n = 1)."""
        pts = np.asarray(points, dtype=complex)
        if self.dimension == 1 and pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise AlgebraError(f"points must have shape (m, {self.dimension})")
        shifted = pts - np.asarray(self.center)[None, :]
        vals = np.zeros(pts.shape[0], dtype=complex)
        for idx, c in self.coeffs.items():
            term = np.full(pts.shape[0], c, dtype=complex)
            for j, e in enumerate(idx.entries):
                if e != 0:
                    term = term * shifted[:, j] ** e
            vals += term
        return vals

    def __call__(self, z) -> complex:
        pt = np.asarray(_as_point(z, self.dimension), dtype=complex)[None, :]
        return complex(self.evaluate(pt)[0])

    def scaled(self, factor: complex) -> "PolyCoeffs":
        return PolyCoeffs(self.dimension, self.center, {a: factor * c for a, c in self.coeffs.items()})

    def plus(self, other: "PolyCoeffs") -> "PolyCoeffs":
        if other.dimension != self.dimension or other.center != self.center:
            raise AlgebraError("operands must share dimension and center")
        merged = dict(self.coeffs)
        for a, c in other.coeffs.items():
            merged[a] = merged.get(a, 0j) + c
        return PolyCoeffs(self.dimension, self.center, merged)

    def jet(self, alpha: MultiIndex, z) -> complex:
        """Taylor coefficient of this polynomial at the point z, order alpha.

        Equals ``f^(alpha)(z)/alpha!``.  Works for Laurent data too, via
        generalized binomial coefficients (z must avoid the pole at 0).
        """
        if not alpha.is_taylor:
            raise AlgebraError("jet order must be a Taylor index")
        point = _as_point(z, self.dimension)
        total = 0j
        for beta, c in self.coeffs.items():
            factor = c
            ok = True
            for j in range(self.dimension):
                b, a = beta.entries[j], alpha.entries[j]
                g = _gen_binom(b, a)
                if g == 0:
                    ok = False
                    break
                e = b - a
                base = point[j] - self.center[j]
                if e < 0 and base == 0:
                    raise AlgebraError("Laurent jet evaluated at the pole")
                factor *= g * (base ** e if e != 0 else 1.0)
            if ok:
                total += factor
        return total


def _gen_binom(b: int, a: int) -> int:
    """Generalized binomial C(b, a) for integer b (possibly negative), a >= 0."""
    if a < 0:
        return 0
    if b >= 0:
        if a > b:
            return 0
        return math.comb(b, a)
    num = 1
    for i in range(a):
        num *= b - i
    return num // math.factorial(a)


def _as_point(z, dimension: int) -> tuple[complex, ...]:
    if isinstance(z, (int, float, complex, np.complexfloating, np.floating, np.integer)):
        if dimension != 1:
            raise AlgebraError(f"scalar point given for dimension {dimension}")
        return (complex(z),)
    pt = tuple(complex(c) for c in z)
    if len(pt) != dimension:
        raise AlgebraError(f"point has {len(pt)} coordinates, expected {dimension}")
    return pt


def taylor_shift(f: PolyCoeffs, new_center) -> PolyCoeffs:
    """Re-center a polynomial: its jets at the new center are its coefficients.

    Raises for Laurent data, whose expansion around a shifted center is an
    infinite series.
    """
    if f.is_laurent:
        raise AlgebraError("cannot re-center a Laurent polynomial")
    target = _as_point(new_center, f.dimension)
    if target == f.center:
        return PolyCoeffs(f.dimension, f.center, dict(f.coeffs))
    # only orders below some exponent of f can have a nonzero jet
    orders = {MultiIndex(beta) for alpha in f.coeffs
              for beta in itertools.product(*(range(e + 1) for e in alpha))}
    return PolyCoeffs(f.dimension, target,
                      {beta: f.jet(beta, target)
                       for beta in sorted(orders, key=MultiIndex.sort_key)})


def functional_apply(xi: Functional, f: PolyCoeffs, z) -> complex:
    """Pair a jet functional with a polynomial or Laurent polynomial at ``z``.

    Computes ``sum_alpha xi_alpha f^(alpha)(z)/alpha!`` from the jets of f.
    """
    if xi.dimension != f.dimension:
        raise AlgebraError("functional and polynomial dimensions differ")
    return sum((c * f.jet(alpha, z) for alpha, c in xi.terms.items()), 0j)
