"""Combinatorial records of affine spherical varieties.

A record consists of a root system (the acting group), a weight sublattice M of
X(T) spanned by the weights of B-semiinvariant functions, and the B-stable
prime divisors. Each divisor carries its valuation vector kappa(D), written in
the basis dual to the declared basis of M, and is either G-stable or a color;
colors carry their type (U, T or N) and the set of simple roots moving them.
Types and moved-by data are input facts about the variety, not derived here.

Well-formedness that is structural (field shapes, index ranges) is enforced at
construction; semantic validation (strict convexity of the valuation cone, the
weight monoid spanning M, the type-T moving rule) is reported check by check by
``validate`` with witnesses instead of exceptions.

What is built from a record alone is built once per open chart: ``chart``
caches one ``Chart`` per (record, color subset), whose cone, weight monoid,
Levi and summand table are each built on first use and read by the functions
``full_cone``, ``weight_monoid``, ``levi_subset``, ``slice_cone``, ``slice_monoid``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Optional

from .cones import Cone, ContainsLine, WeightMonoid, build_cone, dual_monoid, on_nonnegative_ray
from .lattice import DualVector, Sublattice, _Frozen
from .rootsystems import RootSystem, nilradical_highest_weights

COLOR = "color"
G_STABLE = "g-stable"
COLOR_TYPES = ("U", "T", "N")

_CACHED_DATA = 64  # (record, color subset) charts that stay cached


class DatumError(ValueError):
    """A record violates the contract of the operation it was passed to."""


class Divisor(_Frozen):
    """One B-stable prime divisor with its valuation vector kappa."""

    __slots__ = ("name", "kappa", "kind", "color_type", "moved_by")

    def __init__(self, name: str, kappa: DualVector, kind: str,
                 color_type: Optional[str] = None, moved_by: frozenset = frozenset()):
        moved_by = frozenset(moved_by)
        if not name:
            raise DatumError("divisor name must be nonempty")
        if kind == COLOR:
            if color_type not in COLOR_TYPES:
                raise DatumError(f"color {name!r} needs a type among {COLOR_TYPES}")
            if not moved_by:
                raise DatumError(f"color {name!r} must be moved by a simple root")
        elif kind == G_STABLE:
            if color_type is not None:
                raise DatumError(f"G-stable divisor {name!r} cannot carry a color type")
            if moved_by:
                raise DatumError(f"G-stable divisor {name!r} cannot be moved by simple roots")
        else:
            raise DatumError(f"unknown divisor kind {kind!r}")
        self._set(name, kappa, kind, color_type, moved_by)

    def is_color(self) -> bool:
        return self.kind == COLOR


class SphericalDatum(_Frozen):
    """A record; its hash is computed once, since records key the chart cache
    below, and a copy or pickle computes it afresh."""

    __slots__ = ("root_system", "weight_lattice", "divisors", "_hash")
    _fields = ("root_system", "weight_lattice", "divisors")

    def __init__(self, root_system: RootSystem, weight_lattice: Sublattice, divisors: tuple):
        divisors = tuple(divisors)
        if weight_lattice.lattice != "X(T)":
            raise DatumError("the weight lattice must be a sublattice of X(T)")
        if weight_lattice.ambient_rank != root_system.ambient_rank:
            raise DatumError("weight lattice and root system have different ambient ranks")
        names = [d.name for d in divisors]
        if len(set(names)) != len(names):
            raise DatumError("divisor names must be distinct")
        r = weight_lattice.rank
        for d in divisors:
            if d.kappa.rank != r:
                raise DatumError(
                    f"kappa of {d.name!r} has rank {d.kappa.rank}, expected {r}")
            if d.kappa.lattice != "M":
                raise DatumError(f"kappa of {d.name!r} must be a functional on M")
            bad = [i for i in d.moved_by if not (0 <= i < root_system.semisimple_rank)]
            if bad:
                raise DatumError(
                    f"divisor {d.name!r} moved by unknown simple roots {sorted(bad)}")
        self._set(root_system, weight_lattice, divisors,
                  hash((root_system, weight_lattice, divisors)))

    @property
    def rank(self) -> int:
        return self.weight_lattice.rank

    @property
    def colors(self) -> tuple:
        return tuple(d for d in self.divisors if d.is_color())

    @property
    def g_stable_divisors(self) -> tuple:
        return tuple(d for d in self.divisors if not d.is_color())

    def __hash__(self) -> int:
        return self._hash

    def divisor(self, name: str) -> Divisor:
        for d in self.divisors:
            if d.name == name:
                return d
        raise DatumError(
            f"no divisor named {name!r}; known: {[d.name for d in self.divisors]}")


class ColorSubset(_Frozen):
    """The set of colors removed from the variety when passing to the open chart.

    Either every color is removed (excluded_color None) or all but one color of
    type T stays removed; no other shapes are admissible.
    """

    __slots__ = ("excluded_color",)

    def __init__(self, excluded_color: Optional[str] = None):
        self._set(excluded_color)


class CheckResult(_Frozen):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set(name, passed, detail)


class ValidationReport(_Frozen):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple):
        self._set(checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)


def validate(datum: SphericalDatum) -> ValidationReport:
    """Semantic checks with witnesses; failures are report entries, not errors."""
    checks = []

    try:
        full_cone(datum)
    except ContainsLine as exc:
        checks.append(CheckResult(
            "strict-convexity", False,
            f"valuation vectors span the line through {exc.line.coords}"))
    else:
        # A strictly convex cone has a full-dimensional dual, whose lattice points
        # generate M as a group (Cox-Little-Schenck, Toric Varieties, 1.2).
        checks += [CheckResult("strict-convexity", True,
                               "the valuation vectors span a strictly convex cone"),
                   CheckResult("weight-monoid-spans-M", True,
                               "the weight monoid generates M as a group")]

    lone = next(((i, d.name) for d in datum.colors if d.color_type == "T"
                 for i in sorted(d.moved_by)
                 if not any(i in c.moved_by for c in datum.colors if c.name != d.name)),
                None)
    if lone:
        checks.append(CheckResult(
            "type-T-moving-rule", False,
            f"simple root {lone[0]} moves only the type-T color {lone[1]!r}"))
    else:
        checks.append(CheckResult(
            "type-T-moving-rule", True,
            "every simple root moving a type-T color moves another color"))

    return ValidationReport(tuple(checks))


class Chart(_Frozen):
    """The open chart of a record left when the colors ``removed`` are taken
    away: its divisors are the record's others, in record order. Its cone,
    weight monoid, Levi and summand table are each built on first use, in the
    instance __dict__ that only this value class keeps."""

    __slots__ = ("datum", "removed", "divisors", "__dict__")
    _fields = ("datum", "removed", "divisors")

    def __init__(self, datum: SphericalDatum, removed: tuple, divisors: tuple):
        self._set(datum, removed, divisors)

    @cached_property
    def cone(self) -> Cone:
        return build_cone([d.kappa for d in self.divisors], rank=self.datum.rank, lattice="M")

    @cached_property
    def monoid(self) -> WeightMonoid:
        return dual_monoid(self.cone)

    @cached_property
    def levi(self) -> frozenset:
        """Simple roots moving no removed color: the Levi of the chart stabilizer.
        It must equal the Levi of all colors, which the type-T moving rule ensures."""
        roots = frozenset(range(self.datum.root_system.semisimple_rank))
        result = roots.difference(*(c.moved_by for c in self.removed))
        if result != roots.difference(*(c.moved_by for c in self.datum.colors)):
            raise DatumError("excluding the color changes the chart stabilizer; "
                             "the record violates the type-T moving rule")
        return result

    @cached_property
    def summands(self) -> tuple:
        """Each nilradical summand highest weight of the Levi with its residue in M."""
        omega = nilradical_highest_weights(self.datum.root_system, self.levi)
        return tuple((a, *self.datum.weight_lattice.residue(a)) for a in omega)

    def on_ray(self, rho: DualVector) -> tuple:
        """The chart's divisors whose nonzero valuation vector lies on the ray of rho."""
        return tuple(d for d in self.divisors
                     if not d.kappa.is_zero() and on_nonnegative_ray(d.kappa, rho))


@lru_cache(maxsize=_CACHED_DATA)
def chart(datum: SphericalDatum, subset: Optional[ColorSubset]) -> Chart:
    """The chart removing the colors of subset, or keeping every divisor for
    None; a subset that removes no color gives that same full chart."""
    if subset is None:
        return Chart(datum, (), datum.divisors)
    removed = datum.colors
    if subset.excluded_color is not None:
        kept = datum.divisor(subset.excluded_color)
        if not kept.is_color():
            raise DatumError(f"{kept.name!r} is G-stable, not a color")
        if kept.color_type != "T":
            raise DatumError(
                f"only a type-T color can be excluded; {kept.name!r} has type {kept.color_type}")
        removed = tuple(c for c in removed if c is not kept)
    if not removed:
        return chart(datum, None)
    return Chart(datum, removed, tuple(d for d in datum.divisors if d not in removed))


def full_cone(datum: SphericalDatum) -> Cone:
    """The cone spanned by the valuation vectors of all B-stable divisors."""
    return chart(datum, None).cone


def weight_monoid(datum: SphericalDatum) -> WeightMonoid:
    """Hilbert basis of the weights with nonnegative order along every divisor."""
    return chart(datum, None).monoid


def levi_subset(datum: SphericalDatum, subset: ColorSubset = ColorSubset()) -> frozenset:
    """Simple roots moving no color of the subset (``Chart.levi``)."""
    return chart(datum, subset).levi


def slice_cone(datum: SphericalDatum, subset: ColorSubset = ColorSubset()) -> Cone:
    """Cone of valuation vectors of the divisors remaining on the open chart."""
    return chart(datum, subset).cone


def slice_monoid(datum: SphericalDatum, subset: ColorSubset = ColorSubset()) -> WeightMonoid:
    """Weight monoid of the chart's toric slice: Hilbert basis of its dual cone."""
    return chart(datum, subset).monoid
