"""Demazure roots of a cone and the derivations they define.

A weight mu is a Demazure root of the cone C when it pairs to -1 with exactly
one primitive extremal ray rho and nonnegatively with all the others. Each root
defines a locally nilpotent derivation of the semigroup algebra over the dual
monoid Gamma(C): on a basis monomial of weight lambda it produces <rho, lambda>
times the monomial of weight lambda + mu. Exponentiating in a formal parameter
t gives a polynomial automorphism with binomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .cones import Cone
from .lattice import DualVector, LatticeVector, RankMismatch, Sublattice, box_points, \
    lattice_points, pairing


def demazure_ray(cone: Cone, mu: LatticeVector) -> Optional[DualVector]:
    """The unique extremal ray pairing to -1 with mu, or None if mu is no root.

    All other extremal rays must pair nonnegatively. At most one ray can
    qualify: two rays pairing to -1 would each violate the other's constraint.
    """
    if mu.rank != cone.rank or mu.lattice != cone.lattice:
        raise RankMismatch("weight does not match the cone's lattice")
    found = None
    for rho in cone.extremal_rays:
        value = pairing(rho, mu)
        if value == -1:
            if found is not None:
                return None
            found = rho
        elif value < 0:
            return None
    return found


@dataclass(frozen=True)
class DemazureRoot:
    """A root mu of a cone together with its distinguished ray rho."""

    mu: LatticeVector
    rho: DualVector
    cone: Cone

    def __post_init__(self):
        rho = demazure_ray(self.cone, self.mu)
        if rho is None:
            raise ValueError(f"{self.mu.coords} is not a Demazure root of the cone")
        if rho != self.rho:
            raise ValueError(
                f"ray mismatch: root {self.mu.coords} belongs to ray {rho.coords}")


def demazure_root(cone: Cone, mu: LatticeVector) -> DemazureRoot:
    rho = demazure_ray(cone, mu)
    if rho is None:
        raise ValueError(f"{mu.coords} is not a Demazure root of the cone")
    return DemazureRoot(mu, rho, cone)


def _root_rows(cone: Cone, rho: DualVector) -> list:
    """Rows (a, b), meaning a.mu >= b, of the roots pinning the extremal ray
    rho: <rho, mu> = -1 as two rows, and >= 0 on the other rays."""
    others = [(r.coords, 0) for r in cone.extremal_rays if r != rho]
    return [(rho.coords, -1), ((-rho).coords, 1)] + others


def ray_root_points(cone: Cone, rho: DualVector, bound: int):
    """Coordinates of the roots pinning the extremal ray rho, sup-norm <= bound,
    in (sup-norm, 1-norm, lex) order."""
    return lattice_points(cone.rank, bound, ge=_root_rows(cone, rho))


def enumerate_demazure_roots(cone: Cone, bound: int,
                             sublattice: Optional[Sublattice] = None) -> tuple:
    """All Demazure roots with sup-norm <= bound, grouped by ray, lex within.

    With a sublattice, only roots lying in it are kept.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if sublattice is not None and sublattice.ambient_rank != cone.rank:
        raise RankMismatch("sublattice ambient rank does not match the cone")
    lo, hi = [-bound] * cone.rank, [bound] * cone.rank
    roots = ((rho, LatticeVector(coords, cone.lattice)) for rho in cone.extremal_rays
             for coords in box_points(lo, hi, _root_rows(cone, rho)))
    return tuple(DemazureRoot(mu, rho, cone) for rho, mu in roots
                 if sublattice is None or sublattice.contains(mu))


# ---------------------------------------------------------------------------
# Semigroup algebra elements and the derivation action.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraElement:
    """A finite rational combination of basis monomials f_lambda.

    terms is a canonically sorted tuple of (weight, coefficient) pairs with all
    coefficients nonzero. Multiplication is the semigroup rule
    f_lambda * f_mu = f_{lambda+mu}, extended bilinearly.
    """

    terms: tuple

    @classmethod
    def from_dict(cls, mapping) -> "AlgebraElement":
        items = []
        for lam, c in mapping.items():
            if not isinstance(lam, LatticeVector):
                lam = LatticeVector(tuple(lam))
            c = Fraction(c)
            if c != 0:
                items.append((lam, c))
        items.sort(key=lambda t: t[0].coords)
        return cls(tuple(items))

    @classmethod
    def monomial(cls, lam, coefficient=1, lattice: str = "M") -> "AlgebraElement":
        if not isinstance(lam, LatticeVector):
            lam = LatticeVector(tuple(lam), lattice)
        return cls.from_dict({lam: coefficient})

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls(())

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple:
        return tuple(lam for lam, _ in self.terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        acc = dict(self.terms)
        for lam, c in other.terms:
            acc[lam] = acc.get(lam, Fraction(0)) + c
        return AlgebraElement.from_dict(acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            acc = {}
            for lam, c in self.terms:
                for mu, d in other.terms:
                    key = lam + mu
                    acc[key] = acc.get(key, Fraction(0)) + c * d
            return AlgebraElement.from_dict(acc)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement.from_dict({lam: c * v for lam, v in self.terms})


def monomial(lam, coefficient=1, lattice: str = "M") -> AlgebraElement:
    """Single-term element with the given weight and coefficient."""
    return AlgebraElement.monomial(lam, coefficient, lattice)


def check_supported(cone: Cone, element: AlgebraElement):
    """Raise unless every weight in the element lies in the dual monoid of cone."""
    for lam in element.support:
        if not cone.dual_contains(lam):
            raise ValueError(
                f"weight {lam.coords} lies outside the weight monoid of the cone")


def apply_derivation(root: DemazureRoot, element: AlgebraElement,
                     scale=1) -> AlgebraElement:
    """Apply the derivation of a Demazure root: f_lambda -> <rho,lambda> f_{lambda+mu}.

    The element must be supported on the weight monoid. scale multiplies the
    derivation by a fixed rational.
    """
    check_supported(root.cone, element)
    scale = Fraction(scale)
    acc = {}
    for lam, c in element.terms:
        d = pairing(root.rho, lam)
        if d == 0:
            continue
        key = lam + root.mu
        acc[key] = acc.get(key, Fraction(0)) + c * d * scale
    return AlgebraElement.from_dict(acc)


def nilpotency_index(root: DemazureRoot, lam: LatticeVector) -> int:
    """Least k with derivation^k f_lambda = 0, namely <rho, lambda> + 1."""
    if not root.cone.dual_contains(lam):
        raise ValueError(f"weight {lam.coords} lies outside the weight monoid of the cone")
    return pairing(root.rho, lam) + 1


@dataclass(frozen=True)
class FlowPolynomial:
    """A polynomial in the flow parameter t with AlgebraElement coefficients.

    coefficients[k] multiplies t^k; trailing zero coefficients are stripped, so
    the zero polynomial has no coefficients at all.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = list(self.coefficients)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def constant(cls, element: AlgebraElement) -> "FlowPolynomial":
        return cls((element,))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, k: int) -> AlgebraElement:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return AlgebraElement.zero()

    def __add__(self, other: "FlowPolynomial") -> "FlowPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return FlowPolynomial(tuple(self.coefficient(k) + other.coefficient(k)
                                    for k in range(n)))

    def __mul__(self, other: "FlowPolynomial") -> "FlowPolynomial":
        if self.is_zero() or other.is_zero():
            return FlowPolynomial(())
        out = [AlgebraElement.zero()] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] = out[i + j] + a * b
        return FlowPolynomial(tuple(out))


def exponentiate(root: DemazureRoot, element: AlgebraElement,
                 scale=1) -> FlowPolynomial:
    """exp(t * scale * derivation) applied to the element, as a polynomial in t.

    The derivation lowers <rho, .> by one, so its k-th power over k! sends
    f_lambda to C(<rho, lambda>, k) f_{lambda + k mu}, and distinct lambda give
    distinct lambda + k mu: the t^k coefficient is the sum of these times scale^k.
    """
    check_supported(root.cone, element)
    scale = Fraction(scale)
    terms = [(lam, c, pairing(root.rho, lam)) for lam, c in element.terms]
    top = max((n for _, _, n in terms), default=0)
    coeffs = []
    for k in range(top + 1):
        shift, factor = k * root.mu, scale ** k
        coeffs.append(AlgebraElement.from_dict(
            {lam + shift: comb(n, k) * factor * c for lam, c, n in terms if n >= k}))
    return FlowPolynomial(tuple(coeffs))
