"""Borel-normalized locally nilpotent derivations of a spherical coordinate ring.

For a record Z with open chart determined by a subset of colors, the space of
B-normalized locally nilpotent derivations of given T-weight mu decomposes
into one term per realizable nilradical summand plus, when mu lies in M and is
a Demazure root of the chart's valuation cone, one purely toric term. Each
unipotent term is the product of a weight function of weight mu - alpha with
the formal summand derivation delta_alpha; these factors are recorded
symbolically, since evaluating delta_alpha needs the variety itself rather
than its record.

Geometric reading: a derivation with only unipotent terms integrates to a
subgroup fixing every B-stable divisor class off the chart (vertical); a
nonzero toric term moves exactly one divisor, the one whose valuation vector
spans the distinguished ray (horizontal). Which divisor that is splits into
the G-stable case and the excluded-color case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cones import on_nonnegative_ray
from .lattice import LatticeVector, DualVector
from .rootsystems import nilradical_highest_weights
from .spherical import ColorSubset, DatumError, SphericalDatum, levi_subset, slice_cone
from .toric import demazure_ray

VERTICAL = "vertical"
HORIZONTAL = "horizontal"
AMBIGUOUS = "ambiguous"
TOROIDAL = "toroidal"
BLURRING = "blurring"


@dataclass(frozen=True)
class LndDescriptor:
    """One basis element of the weight-mu derivation space.

    kind "unipotent": coefficient * f_{mu - root} delta_root, with root the
    highest weight of a nilradical summand (in X(T) coordinates).
    kind "toric": coefficient * the grading derivation of the Demazure root mu
    along the ray; root is None and ray is the pinned extremal functional.
    """

    weight: LatticeVector
    kind: str
    root: Optional[LatticeVector] = None
    ray: Optional[DualVector] = None
    coefficient: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        if self.kind == "unipotent":
            if self.root is None or self.ray is not None:
                raise ValueError("unipotent descriptor needs a root and no ray")
        elif self.kind == "toric":
            if self.root is not None or self.ray is None:
                raise ValueError("toric descriptor needs a ray and no root")
        else:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")


@dataclass(frozen=True)
class Classification:
    verdict: str
    subtype: Optional[str] = None
    moved_divisor: Optional[str] = None
    candidates: tuple = ()


def congruent_summand_weights(datum: SphericalDatum, mu: LatticeVector) -> tuple:
    """Nilradical summand highest weights alpha with mu - alpha in M."""
    _check_weight(datum, mu)
    omega = nilradical_highest_weights(datum.root_system, levi_subset(datum))
    return tuple(a for a in omega if datum.weight_lattice.contains(mu - a))


def realizable_summand_weights(datum: SphericalDatum, subset: ColorSubset,
                               mu: LatticeVector) -> tuple:
    """The subset of congruent weights with mu - alpha a weight of the chart.

    mu - alpha must pair nonnegatively with every valuation vector of the
    chart's divisors, so that f_{mu - alpha} is a regular function there.
    """
    cone = slice_cone(datum, subset)
    _check_weight(datum, mu)
    out = []
    for a in nilradical_highest_weights(datum.root_system, levi_subset(datum)):
        coords = datum.weight_lattice.coordinates(mu - a)
        if coords is not None and cone.dual_contains(LatticeVector(coords, lattice="M")):
            out.append(a)
    return tuple(out)


def lnd_basis(datum: SphericalDatum, subset: ColorSubset, mu: LatticeVector) -> tuple:
    """Basis of the B-normalized locally nilpotent derivations of weight mu."""
    _check_weight(datum, mu)
    terms = [LndDescriptor(weight=mu, kind="unipotent", root=a)
             for a in realizable_summand_weights(datum, subset, mu)]
    coords = datum.weight_lattice.coordinates(mu)
    if coords is not None:
        cone = slice_cone(datum, subset)
        ray = demazure_ray(cone, LatticeVector(coords, lattice="M"))
        if ray is not None:
            terms.append(LndDescriptor(weight=mu, kind="toric", ray=ray))
    return tuple(terms)


def classify(datum: SphericalDatum, subset: ColorSubset,
             descriptor: LndDescriptor) -> Classification:
    """Does the one-parameter subgroup of this derivation move a divisor, and which?"""
    if descriptor.kind == "unipotent":
        return Classification(verdict=VERTICAL)

    ray = descriptor.ray
    movers = []
    for d in subset.complement(datum):
        if d.kappa.is_zero():
            continue
        if on_nonnegative_ray(d.kappa, ray):
            movers.append(d)
    if not movers:
        raise DatumError(
            "the descriptor's ray carries no divisor valuation of this chart")
    if len(movers) == 1:
        moved = movers[0]
        subtype = TOROIDAL if not moved.is_color() else BLURRING
        return Classification(verdict=HORIZONTAL, subtype=subtype,
                              moved_divisor=moved.name)
    return Classification(verdict=AMBIGUOUS,
                          candidates=tuple(d.name for d in movers))


def _check_weight(datum: SphericalDatum, mu: LatticeVector) -> None:
    if mu.lattice != "X(T)":
        raise DatumError("derivation weights live in the character lattice X(T)")
    if mu.rank != datum.root_system.ambient_rank:
        raise DatumError(
            f"weight has rank {mu.rank}, ambient rank is {datum.root_system.ambient_rank}")
