"""The contract of the package's value classes (lattice._Frozen and its
subclasses), checked on one instance of each.

Fields cannot be assigned or deleted; equal objects hash equal, and the hash
is that of the tuple of compared fields; equality holds only within one
class; copies and pickles rebuild equal objects through the constructor; and
no instance carries a __dict__ except a Chart, whose cached properties live
there.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from demroots.catalog import CATALOG
from demroots.classifier import classify, lnd_basis
from demroots.cones import build_cone, dual_monoid
from demroots.lattice import DualVector, LatticeVector, Polyhedron, Sublattice, _Frozen, _Vector
from demroots.rootsystems import standard_root_system
from demroots.search import find_witness
from demroots.spherical import ColorSubset, chart, validate
from demroots.toric import demazure_root, exponentiate, monomial

CONE = build_cone([DualVector((1, 0)), DualVector((1, 2))])
ROOT = demazure_root(CONE, LatticeVector((-1, 1)))
RECORD = CATALOG["sl2-times-torus"]
REPORT = find_witness(CATALOG["torus-quadrant"], "axis-x", 5)
DESCRIPTOR = lnd_basis(RECORD, ColorSubset(), LatticeVector((1, 0), "X(T)"))[0]

# class name: (an instance, one of its fields)
VALUES = {
    "LatticeVector": (LatticeVector((1, 0)), "coords"),
    "DualVector": (DualVector((1, 0), "X(T)"), "lattice"),
    "Polyhedron": (Polyhedron(2, (((1, 0), 0),), (((0, 1), 1),)), "ge"),
    "Sublattice": (Sublattice(2, ((2, 0), (1, 1))), "basis_rows"),
    "Cone": (CONE, "extremal_rays"),
    "WeightMonoid": (dual_monoid(CONE), "hilbert_basis"),
    "DemazureRoot": (ROOT, "mu"),
    "AlgebraElement": (monomial((1, 1), Fraction(1, 2)), "terms"),
    "FlowPolynomial": (exponentiate(ROOT, monomial((1, 1))), "coefficients"),
    "RootSystem": (standard_root_system("B", 2, 3), "positive_roots"),
    "Divisor": (RECORD.divisors[0], "moved_by"),
    "SphericalDatum": (RECORD, "divisors"),
    "ColorSubset": (ColorSubset("line"), "excluded_color"),
    "CheckResult": (validate(RECORD).checks[0], "passed"),
    "ValidationReport": (validate(RECORD), "checks"),
    "Chart": (chart(RECORD, None), "divisors"),
    "RayCheck": (REPORT.check, "ray"),
    "MoveWitness": (REPORT.witness, "shift"),
    "MoveReport": (REPORT, "status"),
    "LndDescriptor": (DESCRIPTOR, "coefficient"),
    "Classification": (classify(RECORD, ColorSubset(), DESCRIPTOR), "verdict"),
}


def test_every_value_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {c.__name__ for c in subclasses(_Frozen) if c is not _Vector} == set(VALUES)
    assert all(type(v).__name__ == name for name, (v, _) in VALUES.items())


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value, field = VALUES[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy,
                                     lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_rebuilt_objects_are_equal_and_hash_equal(name, rebuild):
    value, _ = VALUES[name]
    other = rebuild(value)
    assert type(other) is type(value)
    assert other == value and not other != value
    assert hash(other) == hash(value)
    assert repr(other) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_only_a_chart_has_an_instance_dict(name):
    value, _ = VALUES[name]
    assert hasattr(value, "__dict__") == (name == "Chart")


def test_equality_holds_only_within_one_class():
    assert LatticeVector((1, 0)) != DualVector((1, 0))
    assert not LatticeVector((1, 0)) == DualVector((1, 0))
    assert len({LatticeVector((1, 0)), DualVector((1, 0))}) == 2
    assert LatticeVector((1, 0)) != (1, 0) and ColorSubset() != (None,)


def test_hash_is_that_of_the_compared_fields():
    """The same tuples the hash always read, so set and dict orders stay put."""
    v, rs, sub = LatticeVector((1, 2), "X(T)"), VALUES["RootSystem"][0], VALUES["Sublattice"][0]
    assert hash(v) == hash(((1, 2), "X(T)"))
    assert hash(CONE) == hash((CONE.rank, CONE.generators, CONE.lattice))
    assert hash(rs) == hash((rs.ambient_rank, rs.simple_roots, rs.simple_coroots))
    assert hash(sub) == hash((sub.ambient_rank, sub.basis_rows, sub.lattice))
    assert hash(ColorSubset("line")) == hash(("line",))
    assert hash(RECORD) == hash((RECORD.root_system, RECORD.weight_lattice, RECORD.divisors))


def test_cone_repr_shows_rays_and_normals_only():
    assert repr(CONE) == (
        "Cone(rank=2, generators=(DualVector(coords=(1, 0), lattice='M'), "
        "DualVector(coords=(1, 2), lattice='M')), extremal_rays=(DualVector(coords=(1, 0), "
        "lattice='M'), DualVector(coords=(1, 2), lattice='M')), facet_normals=("
        "LatticeVector(coords=(0, 1), lattice='M'), LatticeVector(coords=(2, -1), "
        "lattice='M')), lattice='M')")
