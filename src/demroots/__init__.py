"""Exact lattice cones, Demazure roots and divisor-moving subgroups."""

from .lattice import (
    DualVector,
    LatticeVector,
    RankMismatch,
    Sublattice,
    pairing,
    primitive,
    smith_normal_form,
)
from .cones import (
    Cone,
    ContainsLine,
    WeightMonoid,
    build_cone,
    dual_monoid,
    on_nonnegative_ray,
)
from .toric import (
    AlgebraElement,
    DemazureRoot,
    FlowPolynomial,
    apply_derivation,
    check_supported,
    demazure_ray,
    demazure_root,
    enumerate_demazure_roots,
    exponentiate,
    monomial,
    nilpotency_index,
)
from .rootsystems import (
    RootSystem,
    cartan_matrix_of_type,
    nilradical_highest_weights,
    nilradical_roots,
    root_system,
    standard_root_system,
    torus_root_system,
)
from .spherical import (
    CheckResult,
    ColorSubset,
    DatumError,
    Divisor,
    SphericalDatum,
    ValidationReport,
    full_cone,
    levi_subset,
    slice_cone,
    slice_monoid,
    validate,
    weight_monoid,
)
from .classifier import (
    Classification,
    LndDescriptor,
    classify,
    congruent_summand_weights,
    lnd_basis,
    realizable_summand_weights,
)
from .search import (
    MoveReport,
    MoveWitness,
    RayCheck,
    check_divisor_ray,
    find_witness,
    gstable_report,
)
from .datumio import (
    DatumFormatError,
    parse_datum,
    read_datum,
    serialize_datum,
    write_datum,
)
from .catalog import CATALOG, example

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "CATALOG", "CheckResult", "Classification", "ColorSubset",
    "Cone", "ContainsLine", "DatumError", "DatumFormatError", "DemazureRoot",
    "Divisor", "DualVector", "FlowPolynomial", "LatticeVector", "LndDescriptor",
    "MoveReport", "MoveWitness", "RankMismatch", "RayCheck", "RootSystem",
    "SphericalDatum", "Sublattice", "ValidationReport", "WeightMonoid",
    "apply_derivation", "build_cone", "cartan_matrix_of_type", "check_divisor_ray",
    "check_supported", "classify", "congruent_summand_weights", "demazure_ray",
    "demazure_root", "dual_monoid", "enumerate_demazure_roots", "example",
    "exponentiate", "find_witness", "full_cone", "gstable_report",
    "levi_subset", "lnd_basis", "monomial", "nilpotency_index",
    "nilradical_highest_weights", "nilradical_roots", "on_nonnegative_ray",
    "pairing", "parse_datum", "primitive", "read_datum",
    "realizable_summand_weights", "root_system", "serialize_datum", "slice_cone",
    "slice_monoid", "smith_normal_form", "standard_root_system",
    "torus_root_system", "validate", "weight_monoid", "write_datum",
]
