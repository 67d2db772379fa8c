"""One check of a vector's side, lattice and rank, behind every function that
takes a vector.

A weight or root lives in M (LatticeVector), a valuation vector or ray in N
(DualVector); a vector from the wrong side raises TypeError, and one of another
lattice tag or rank raises RankMismatch. lattice._require makes that check and
is the one place that raises RankMismatch, which the AST guard below keeps so.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import demroots
from demroots.cones import build_cone, dual_monoid, on_nonnegative_ray
from demroots.lattice import DualVector, LatticeVector, RankMismatch, Sublattice, pairing
from demroots.toric import AlgebraElement, demazure_ray, enumerate_demazure_roots, monomial

SRC = Path(demroots.__file__).parent
CONE = build_cone([DualVector((1, 0)), DualVector((1, 2))])
SUB = Sublattice(2, ((2, 0), (0, 1)), "M")
OTHER_SIDE = {LatticeVector: DualVector, DualVector: LatticeVector}

# name: (the side the probe must have, the call on the probe)
CALLS = {
    "vector +": (LatticeVector, lambda v: LatticeVector((1, 0)) + v),
    "vector -": (DualVector, lambda v: DualVector((1, 0)) - v),
    "AlgebraElement.from_dict": (
        LatticeVector, lambda v: AlgebraElement.from_dict({(1, 0): 1, v: 2})),
    "AlgebraElement +": (
        LatticeVector, lambda v: monomial((1, 0)) + AlgebraElement(((v, Fraction(1)),))),
    "pairing rho": (DualVector, lambda v: pairing(v, LatticeVector((1, 0)))),
    "pairing lambda": (LatticeVector, lambda v: pairing(DualVector((1, 0)), v)),
    "Sublattice.residue": (LatticeVector, SUB.residue),
    "Sublattice.coordinates": (LatticeVector, SUB.coordinates),
    "Sublattice.contains": (LatticeVector, SUB.contains),
    "Cone.contains": (DualVector, CONE.contains),
    "Cone.dual_contains": (LatticeVector, CONE.dual_contains),
    "on_nonnegative_ray v": (DualVector, lambda v: on_nonnegative_ray(v, DualVector((1, 0)))),
    "on_nonnegative_ray rho": (DualVector, lambda v: on_nonnegative_ray(DualVector((1, 0)), v)),
    "demazure_ray": (LatticeVector, lambda v: demazure_ray(CONE, v)),
    "build_cone": (DualVector, lambda v: build_cone([DualVector((1, 0)), v])),
    "build_cone given rank and lattice": (
        DualVector, lambda v: build_cone([v], rank=2, lattice="M")),
}


@pytest.mark.parametrize("name", CALLS)
def test_side_lattice_and_rank_checked(name):
    cls, call = CALLS[name]
    call(cls((1, 1), "M"))
    with pytest.raises(TypeError):
        call(OTHER_SIDE[cls]((1, 1), "M"))
    with pytest.raises(RankMismatch, match="different lattices"):
        call(cls((1, 1), "X(T)"))
    with pytest.raises(RankMismatch, match="rank mismatch"):
        call(cls((1, 1, 1), "M"))


@pytest.mark.parametrize("sublattice", [Sublattice(2, ((1, 0), (0, 1))),
                                        Sublattice(3, ((1, 0, 0),), "M")],
                         ids=["tag X(T)", "ambient rank 3"])
@pytest.mark.parametrize("call", [lambda s: enumerate_demazure_roots(CONE, 0, s),
                                  lambda s: enumerate_demazure_roots(CONE, 2, s),
                                  lambda s: dual_monoid(CONE, s)],
                         ids=["roots at bound 0", "roots at bound 2", "dual_monoid"])
def test_sublattice_checked_up_front(call, sublattice):
    """A sublattice of another tag or ambient rank is refused before any root
    is found, so at bound 0, where none is, as well as at bound 2."""
    with pytest.raises(RankMismatch):
        call(sublattice)


def _constructions(tree):
    for node in ast.walk(tree):
        target = (node.func if isinstance(node, ast.Call)
                  else node.exc if isinstance(node, ast.Raise) else None)
        if (isinstance(target, ast.Name) and target.id == "RankMismatch"
                or isinstance(target, ast.Attribute) and target.attr == "RankMismatch"):
            yield node.lineno


def test_rank_mismatch_raised_only_in_lattice():
    found = {path.name: list(_constructions(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    assert found.pop("lattice.py")  # the check is there, so the scan sees it
    assert not any(found.values()), found


@pytest.mark.parametrize("call", [lambda v: AlgebraElement.from_dict({v: 1}),
                                  lambda v: AlgebraElement.from_dict({(1, 0): 1, v: 2}),
                                  monomial],
                         ids=["from_dict", "from_dict second weight", "monomial"])
def test_weight_from_the_wrong_side_is_named(call):
    """A DualVector weight is refused by the one check, which names both
    classes; an int tuple is still read as a weight in M."""
    with pytest.raises(TypeError, match="expected a LatticeVector, got DualVector"):
        call(DualVector((1, 0)))
    assert call((1, 1)).support[-1] == LatticeVector((1, 1))
