"""Demazure roots of a cone and the derivations they define.

A weight mu is a Demazure root of the cone C when it pairs to -1 with exactly
one primitive extremal ray rho and nonnegatively with all the others. Each root
defines a locally nilpotent derivation of the semigroup algebra over the dual
monoid Gamma(C): on a basis monomial of weight lambda it produces <rho, lambda>
times the monomial of weight lambda + mu. Exponentiating in a formal parameter
t gives a polynomial automorphism with binomial coefficients.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from numbers import Rational
from typing import Optional

from .cones import Cone
from .lattice import DualVector, LatticeVector, Polyhedron, Sublattice, _Frozen, _require, \
    _require_bound, _require_sublattice, dot, pairing


def demazure_ray(cone: Cone, mu: LatticeVector) -> Optional[DualVector]:
    """The unique extremal ray pairing to -1 with mu, or None if mu is no root.

    All other extremal rays must pair nonnegatively. At most one ray can
    qualify: two rays pairing to -1 would each violate the other's constraint.
    """
    _require(mu, LatticeVector, cone.lattice, cone.rank)
    found = None
    for rho in cone.extremal_rays:  # checked against the cone when it was built
        value = dot(rho.coords, mu.coords)
        if value == -1:
            if found is not None:
                return None
            found = rho
        elif value < 0:
            return None
    return found


class DemazureRoot(_Frozen):
    """A root mu of a cone together with its distinguished ray rho."""

    __slots__ = ("mu", "rho", "cone")

    def __init__(self, mu: LatticeVector, rho: DualVector, cone: Cone):
        found = demazure_ray(cone, mu)
        if found is None:
            raise ValueError(f"{mu.coords} is not a Demazure root of the cone")
        if found != rho:
            raise ValueError(
                f"ray mismatch: root {mu.coords} belongs to ray {found.coords}")
        self._set(mu, rho, cone)

    @classmethod
    def _on_ray(cls, mu: LatticeVector, rho: DualVector, cone: Cone) -> "DemazureRoot":
        """A root whose ray rho the caller has already found: no second scan."""
        root = object.__new__(cls)
        root._set(mu, rho, cone)
        return root


def demazure_root(cone: Cone, mu: LatticeVector) -> DemazureRoot:
    rho = demazure_ray(cone, mu)
    if rho is None:
        raise ValueError(f"{mu.coords} is not a Demazure root of the cone")
    return DemazureRoot._on_ray(mu, rho, cone)


def root_polyhedron(cone: Cone, rho: DualVector) -> Polyhedron:
    """The roots mu pinning the extremal ray rho: <rho, mu> = -1, >= 0 on the other rays."""
    others = [(r.coords, 0) for r in cone.extremal_rays if r != rho]
    return Polyhedron(cone.rank, ge=others, eq=[(rho.coords, -1)])


def enumerate_demazure_roots(cone: Cone, bound: int,
                             sublattice: Optional[Sublattice] = None) -> tuple:
    """All Demazure roots with sup-norm <= bound, grouped by ray, lex within.

    With a sublattice, only roots lying in it are kept.
    """
    _require_bound(bound)  # here too, as a cone without rays builds no polyhedron
    if sublattice is not None:
        _require_sublattice(sublattice, cone.lattice, cone.rank)
    roots = ((rho, LatticeVector(coords, cone.lattice)) for rho in cone.extremal_rays
             for coords in root_polyhedron(cone, rho).cube(bound))
    return tuple(DemazureRoot._on_ray(mu, rho, cone) for rho, mu in roots
                 if sublattice is None or sublattice.contains(mu))


# ---------------------------------------------------------------------------
# Semigroup algebra elements and the derivation action.
# ---------------------------------------------------------------------------


class AlgebraElement(_Frozen):
    """A finite rational combination of basis monomials f_lambda.

    terms is a canonically sorted tuple of (weight, coefficient) pairs with all
    coefficients nonzero. Multiplication is the semigroup rule
    f_lambda * f_mu = f_{lambda+mu}, extended bilinearly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, mapping) -> "AlgebraElement":
        """The element of a {weight: coefficient} mapping from outside input.

        Weights may be LatticeVectors or int tuples (read in M), coefficients
        anything Fraction accepts; a weight given both ways is one weight. All
        weights must share one lattice and rank.
        """
        pairs = [(_weight(lam, "M"), Fraction(c)) for lam, c in mapping.items()]
        for lam, _ in pairs[1:]:
            pairs[0][0]._check(lam)
        return cls._collect(pairs)

    @classmethod
    def _collect(cls, pairs) -> "AlgebraElement":
        """Sort by coords, sum the coefficients of adjacent equal weights in one
        pass and drop zero sums. No weight is hashed, and the stable sort merges
        the two sorted runs of a sum in linear time."""
        terms = []
        for lam, c in sorted(pairs, key=lambda t: t[0].coords):
            if terms and terms[-1][0].coords == lam.coords:
                terms[-1] = (terms[-1][0], terms[-1][1] + c)
            else:
                terms.append((lam, c))
        return cls(tuple(t for t in terms if t[1]))

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
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.terms and other.terms:  # each side has one lattice and rank
            self.terms[0][0]._check(other.terms[0][0])
        return AlgebraElement._collect(self.terms + other.terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return AlgebraElement._collect((lam + mu, c * d) for lam, c in self.terms
                                           for mu, d in other.terms)
        if isinstance(other, Rational):  # a str or float is no scalar here
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "AlgebraElement":
        """The element times c, parsed by Fraction (so "2" and 0.5 are accepted)."""
        c = Fraction(c)
        return AlgebraElement(tuple((lam, c * v) for lam, v in self.terms) if c else ())


def monomial(lam, coefficient=1, lattice: str = "M") -> AlgebraElement:
    """Single-term element with the given weight and coefficient (anything
    Fraction accepts), built directly: one term needs no collector."""
    lam = _weight(lam, lattice)
    coefficient = Fraction(coefficient)
    return AlgebraElement(((lam, coefficient),) if coefficient else ())


def _weight(lam, lattice: str) -> LatticeVector:
    """lam if it is a vector, which must be a LatticeVector, else an int tuple read in lattice."""
    if isinstance(lam, (LatticeVector, DualVector)):
        _require(lam, LatticeVector, lam.lattice, lam.rank)
        return lam
    return LatticeVector(tuple(lam), lattice)


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
    return AlgebraElement._collect((lam + root.mu, c * pairing(root.rho, lam) * scale)
                                   for lam, c in element.terms)


def nilpotency_index(root: DemazureRoot, lam: LatticeVector) -> int:
    """Least k with derivation^k f_lambda = 0, namely <rho, lambda> + 1."""
    if not root.cone.dual_contains(lam):
        raise ValueError(f"weight {lam.coords} lies outside the weight monoid of the cone")
    return pairing(root.rho, lam) + 1


class FlowPolynomial(_Frozen):
    """A polynomial in the flow parameter t with AlgebraElement coefficients.

    coefficients[k] multiplies t^k; trailing zero coefficients are stripped, so
    the zero polynomial has no coefficients at all.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple):
        coeffs = list(coefficients)
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
        if not isinstance(other, FlowPolynomial):
            return NotImplemented
        n = max(len(self.coefficients), len(other.coefficients))
        return FlowPolynomial(tuple(self.coefficient(k) + other.coefficient(k)
                                    for k in range(n)))

    def __mul__(self, other: "FlowPolynomial") -> "FlowPolynomial":
        if not isinstance(other, FlowPolynomial):
            return NotImplemented
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
    distinct lambda + k mu in the same lex order: the t^k coefficient is the
    sorted tuple of these times scale^k (only k = 0 when scale is 0), stepped
    in k per term as an exact integer ratio, one Fraction per output term.
    """
    check_supported(root.cone, element)
    scale = Fraction(scale)
    p, q = scale.numerator, scale.denominator
    mu, lattice = root.mu.coords, root.mu.lattice
    columns = [[]]
    vectors = {}  # lambda + k mu recurs across k: one vector per weight
    for lam, c in element.terms:
        n = pairing(root.rho, lam) if p else 0
        coords, num, den = lam.coords, c.numerator, c.denominator
        columns += [[] for _ in range(n + 1 - len(columns))]
        for k in range(n + 1):
            v = vectors.get(coords)
            if v is None:
                v = vectors[coords] = LatticeVector._trusted(coords, lattice)
            columns[k].append((v, Fraction(num) if den == 1 else Fraction(num, den)))
            coords = tuple(map(operator.add, coords, mu))
            num, den = num * (n - k) * p // (k + 1), den * q
    return FlowPolynomial(tuple(AlgebraElement(tuple(column)) for column in columns))
