"""Borel-normalized locally nilpotent derivations of a spherical coordinate ring.

For a record Z with open chart determined by a subset of colors, the space of
B-normalized locally nilpotent derivations of given T-weight mu decomposes
into one term per realizable nilradical summand plus, when mu lies in M and is
a Demazure root of the chart's valuation cone, one purely toric term. Each
unipotent term is the product of a weight function of weight mu - alpha with
the formal summand derivation delta_alpha; these factors are recorded
symbolically, since evaluating delta_alpha needs the variety itself rather
than its record.

A weight query reads the record's cached ``spherical.Chart``: its cone, and
its table of each summand highest weight alpha with its residue in M
(``Sublattice.residue``). Since the residue map is linear, mu - alpha lies in
M iff the residues of mu and alpha agree and the lattice's det divides the
difference of their numerators; the quotient is the coordinate vector the
cone's generators test. No difference vector is built.

Geometric reading: a derivation with only unipotent terms integrates to a
subgroup fixing every B-stable divisor class off the chart (vertical); a
nonzero toric term moves exactly one divisor, the one whose valuation vector
spans the distinguished ray (horizontal). Which divisor that is splits into
the G-stable case and the excluded-color case.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional

from .lattice import LatticeVector, DualVector, _Frozen
from .spherical import Chart, ColorSubset, DatumError, SphericalDatum, chart
from .toric import demazure_ray

VERTICAL = "vertical"
HORIZONTAL = "horizontal"
AMBIGUOUS = "ambiguous"
TOROIDAL = "toroidal"
BLURRING = "blurring"


class LndDescriptor(_Frozen):
    """One basis element of the weight-mu derivation space.

    kind "unipotent": coefficient * f_{mu - root} delta_root, with root the
    highest weight of a nilradical summand (in X(T) coordinates).
    kind "toric": coefficient * the grading derivation of the Demazure root mu
    along the ray; root is None and ray is the pinned extremal functional.
    """

    __slots__ = ("weight", "kind", "root", "ray", "coefficient")

    def __init__(self, weight: LatticeVector, kind: str, root: Optional[LatticeVector] = None,
                 ray: Optional[DualVector] = None, coefficient: Fraction = Fraction(1)):
        if kind == "unipotent":
            if root is None or ray is not None:
                raise ValueError("unipotent descriptor needs a root and no ray")
        elif kind == "toric":
            if root is not None or ray is None:
                raise ValueError("toric descriptor needs a ray and no root")
        else:
            raise ValueError(f"unknown descriptor kind {kind!r}")
        self._set(weight, kind, root, ray, Fraction(coefficient))


class Classification(_Frozen):
    __slots__ = ("verdict", "subtype", "moved_divisor", "candidates")

    def __init__(self, verdict: str, subtype: Optional[str] = None,
                 moved_divisor: Optional[str] = None, candidates: tuple = ()):
        self._set(verdict, subtype, moved_divisor, candidates)


def congruent_summand_weights(datum: SphericalDatum, mu: LatticeVector) -> tuple:
    """Nilradical summand highest weights alpha with mu - alpha in M."""
    _check_weight(datum, mu)
    return _summands(chart(datum, ColorSubset()), *datum.weight_lattice.residue(mu), False)


def realizable_summand_weights(datum: SphericalDatum, subset: ColorSubset,
                               mu: LatticeVector) -> tuple:
    """The subset of congruent weights with mu - alpha a weight of the chart.

    mu - alpha must pair nonnegatively with every valuation vector of the
    chart's divisors, so that f_{mu - alpha} is a regular function there.
    """
    c = chart(datum, subset)  # a bad chart is reported before a bad weight
    _check_weight(datum, mu)
    return _summands(c, *datum.weight_lattice.residue(mu), True)


def lnd_basis(datum: SphericalDatum, subset: ColorSubset, mu: LatticeVector) -> tuple:
    """Basis of the B-normalized locally nilpotent derivations of weight mu."""
    _check_weight(datum, mu)
    c = chart(datum, subset)
    num, res = datum.weight_lattice.residue(mu)
    terms = [LndDescriptor(weight=mu, kind="unipotent", root=a)
             for a in _summands(c, num, res, True)]
    coords = None if any(res) else datum.weight_lattice.divide(num)
    if coords is not None:
        ray = demazure_ray(c.cone, LatticeVector(coords, lattice="M"))
        if ray is not None:
            terms.append(LndDescriptor(weight=mu, kind="toric", ray=ray))
    return tuple(terms)


def _summands(c: Chart, num: tuple, res: tuple, in_cone: bool) -> tuple:
    """The summand weights alpha of the chart's table with mu - alpha in M, mu
    of residue (num, res), and in the chart's weight cone when in_cone."""
    lattice = c.datum.weight_lattice
    gens = c.cone.generators if in_cone else ()
    out = []
    for a, num_a, res_a in c.summands:
        coords = lattice.divide([x - y for x, y in zip(num, num_a)]) if res_a == res else None
        if coords is not None and all(sum(map(operator.mul, g.coords, coords)) >= 0 for g in gens):
            out.append(a)
    return tuple(out)


def classify(datum: SphericalDatum, subset: ColorSubset,
             descriptor: LndDescriptor) -> Classification:
    """Does the one-parameter subgroup of this derivation move a divisor, and which?"""
    if descriptor.kind == "unipotent":
        return Classification(verdict=VERTICAL)

    movers = chart(datum, subset).on_ray(descriptor.ray)
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
