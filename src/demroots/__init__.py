"""Exact lattice cones, Demazure roots and divisor-moving subgroups.

The exports load on first use (PEP 562): importing the package loads none of
its modules, and each name below imports its home module when first asked for.
"""

from importlib import import_module

_EXPORTS = {  # home module -> the names it exports
    "lattice": "DualVector LatticeVector RankMismatch Sublattice pairing primitive "
               "smith_normal_form",
    "cones": "Cone ContainsLine WeightMonoid build_cone dual_monoid on_nonnegative_ray",
    "toric": "AlgebraElement DemazureRoot FlowPolynomial apply_derivation check_supported "
             "demazure_ray demazure_root enumerate_demazure_roots exponentiate monomial "
             "nilpotency_index",
    "rootsystems": "RootSystem cartan_matrix_of_type nilradical_highest_weights "
                   "nilradical_roots root_system standard_root_system torus_root_system",
    "spherical": "CheckResult ColorSubset DatumError Divisor SphericalDatum "
                 "ValidationReport full_cone levi_subset slice_cone slice_monoid validate "
                 "weight_monoid",
    "classifier": "Classification LndDescriptor classify congruent_summand_weights "
                  "lnd_basis realizable_summand_weights",
    "search": "MoveReport MoveWitness RayCheck check_divisor_ray find_witness gstable_report",
    "datumio": "DatumFormatError parse_datum read_datum serialize_datum write_datum",
    "catalog": "CATALOG example",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule; importing it binds it on the package
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
