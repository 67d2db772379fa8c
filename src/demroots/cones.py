"""Strictly convex lattice cones: double description, Hilbert bases, ray tests.

A cone is stored with both descriptions. ``build_cone`` takes generators in the
dual lattice N and computes the dual cone's V-representation: it splits off the
lineality once, then runs a pointed double description from the simplicial
cone of independent halfspaces with the combinatorial adjacency test (Fukuda
and Prodon 1996). It rejects cones containing a line (with a witness direction)
and derives facet normals and extremal rays. Low-dimensional cones, single
rays and the zero cone are all first-class.

``dual_monoid`` computes the Hilbert basis of the monoid of lattice points of
the dual cone: unit directions (when the dual cone has lineality) are returned
as a lattice basis and its negatives, and the pointed part is found by degree.
Its candidates are the lattice points of the generator zonotope's box whose
degree (the sum of the inequalities) is at most that of dim rays; in degree
order, a candidate is kept unless an element kept before it has row values
componentwise at most its own. Boxes over _ZONOTOPE_CAP points are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .lattice import (
    DualVector,
    LatticeVector,
    RankMismatch,
    Sublattice,
    _bareiss,
    _transform,
    box_points,
    dot,
    integer_kernel,
    matrix_rank,
    primitive_tuple,
    smith_normal_form,
    unimodular_inverse,
)


class ContainsLine(ValueError):
    """Raised when generators span a cone that is not strictly convex."""

    def __init__(self, line, lattice: str = "M"):
        self.line = DualVector(line, lattice)
        super().__init__(
            f"cone is not strictly convex: it contains the line through {tuple(line)}")


def _lineality_split(halves: Sequence[tuple], rank: int):
    """(units, V, section) for the lineality {y : <f, y> = 0 for all halves}.

    units is integer_kernel's basis, in its order. With V from the Smith form
    of the units, y * V lists y in the basis of rows of V^-1; the first
    len(units) rows span the units, the rest (the section) lift the quotient.
    """
    identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    units = integer_kernel(halves, rank) if matrix_rank(halves) < rank else []
    if len(units) in (0, rank):
        return units, identity, identity[len(units):]
    _, D, V = smith_normal_form(units)
    assert all(D[i][i] == 1 for i in range(len(units))), "the lineality is saturated"
    return units, V, unimodular_inverse(V)[len(units):]


def _dual_v_representation(functionals: Sequence[tuple], rank: int):
    """V-representation (lineality basis, extreme rays) of {y : <f, y> >= 0}.

    On the quotient by the lineality, the simplicial cone of independent halves
    takes the others one at a time, each ray carrying the processed halves
    vanishing on it. Rays are primitive, lifted through the section and sorted,
    so the output is canonical for a given halfspace set.
    """
    halves = list(dict.fromkeys(primitive_tuple(f) for f in functionals if any(f)))
    units, _, section = _lineality_split(halves, rank)
    # Without units the section is the identity.
    rows = [tuple(dot(f, s) for s in section) for f in halves] if units else halves

    # The pivot rows P are independent; _transform on P^T gives rows T_c with
    # <P_j, T_c> = det * [j == c]: det * T_c spans the ray where all but P_c vanish.
    pivots = [r for r, _, _ in _bareiss(rows)[1]]
    det, transform = _transform(list(zip(*(rows[r] for r in pivots))), len(pivots))
    rays = [(primitive_tuple(tuple(det * x for x in transform[c])),
             frozenset(pivots[:c] + pivots[c + 1:])) for c in range(len(pivots))]

    for idx in sorted(set(range(len(rows))) - set(pivots)):
        a = rows[idx]
        plus, minus, new_rays = [], [], []
        for ray in rays:
            value = dot(a, ray[0])
            if value > 0:
                plus.append((ray, value))
                new_rays.append(ray)
            elif value < 0:
                minus.append((ray, value))
            else:
                new_rays.append((ray[0], ray[1] | {idx}))
        # p and q are adjacent iff no third ray is active on all their common halves.
        for p, pa in plus:
            for q, qa in minus:
                common = p[1] & q[1]
                if any(r[1] >= common for r in rays if r is not p and r is not q):
                    continue
                vec = tuple(pa * y - qa * x for x, y in zip(p[0], q[0]))
                new_rays.append((primitive_tuple(vec), common | {idx}))
        rays = new_rays

    rays = [y for y, _ in rays]
    if units:
        rays = [tuple(sum(c * s[j] for c, s in zip(y, section)) for j in range(rank))
                for y in rays]
    return sorted(units), sorted(rays)


@dataclass(frozen=True)
class Cone:
    """A strictly convex rational polyhedral cone in the dual lattice N.

    generators may be redundant; extremal_rays and facet_normals are computed,
    primitive and lexicographically sorted. facet_normals describe the cone
    exactly: x is in the cone iff <normal, x> >= 0 for every normal (equations
    cutting out the span appear as +/- pairs).
    """

    rank: int
    generators: tuple
    extremal_rays: tuple = field(compare=False)
    facet_normals: tuple = field(compare=False)
    dual_rays: tuple = field(compare=False, repr=False)
    dual_lineality: tuple = field(compare=False, repr=False)
    lattice: str = "M"

    def contains(self, v: DualVector) -> bool:
        if v.lattice != self.lattice:
            raise RankMismatch(f"vector of {v.lattice!r} tested against a cone over {self.lattice!r}")
        if v.rank != self.rank:
            raise RankMismatch(f"rank mismatch: {v.rank} vs {self.rank}")
        return all(dot(n.coords, v.coords) >= 0 for n in self.facet_normals)

    def dual_contains(self, lam: LatticeVector) -> bool:
        """True iff lam lies in the dual cone, i.e. <x, lam> >= 0 for all x in the cone."""
        if lam.lattice != self.lattice:
            raise RankMismatch(
                f"vector of {lam.lattice!r} tested against a cone over {self.lattice!r}")
        if lam.rank != self.rank:
            raise RankMismatch(f"rank mismatch: {lam.rank} vs {self.rank}")
        return all(dot(g.coords, lam.coords) >= 0 for g in self.generators)


def build_cone(generators: Sequence[DualVector], rank: Optional[int] = None,
               lattice: Optional[str] = None) -> Cone:
    """Build a strictly convex cone from (possibly redundant) generators.

    Zero generators are dropped. Raises ContainsLine with a witness direction
    when the generators positively span a line. The zero cone is built from an
    empty generator list (rank must then be given).
    """
    gens = tuple(generators)
    if gens:
        tags = {g.lattice for g in gens}
        ranks = {g.rank for g in gens}
        if len(tags) > 1:
            raise RankMismatch(f"generators from several lattices: {sorted(tags)}")
        if len(ranks) > 1:
            raise RankMismatch(f"generators of several ranks: {sorted(ranks)}")
        if lattice is None:
            lattice = gens[0].lattice
        elif lattice != gens[0].lattice:
            raise RankMismatch(f"generators live in {gens[0].lattice!r}, not {lattice!r}")
        if rank is None:
            rank = gens[0].rank
        elif rank != gens[0].rank:
            raise RankMismatch(f"generators have rank {gens[0].rank}, not {rank}")
    else:
        if rank is None:
            raise ValueError("an empty generator list needs an explicit rank")
        if lattice is None:
            lattice = "M"

    functionals = [g.coords for g in gens if not g.is_zero()]
    lin, rays = _dual_v_representation(functionals, rank)

    span_rows = list(lin) + list(rays)
    if matrix_rank(span_rows) < rank:
        witness = integer_kernel(span_rows, rank)[0]
        raise ContainsLine(primitive_tuple(witness), lattice)

    normals = sorted({v for l in lin for v in (l, tuple(-x for x in l))} | set(rays))
    facet_normals = tuple(LatticeVector(v, lattice) for v in normals)

    # Every extremal ray of cone(generators) passes through a generator; a
    # candidate is extremal iff its active facets cut out a one-dimensional face.
    facet_vecs = [n.coords for n in facet_normals]
    candidates = sorted({primitive_tuple(g.coords) for g in gens if not g.is_zero()})
    extremal = []
    for c in candidates:
        active = [f for f in facet_vecs if dot(f, c) == 0]
        if matrix_rank(active) == rank - 1:
            extremal.append(DualVector(c, lattice))

    return Cone(
        rank=rank,
        generators=gens,
        extremal_rays=tuple(extremal),
        facet_normals=facet_normals,
        dual_rays=tuple(rays),
        dual_lineality=tuple(lin),
        lattice=lattice,
    )


def on_nonnegative_ray(v: DualVector, rho: DualVector) -> bool:
    """True iff v is a nonnegative rational multiple of rho (both nonzero)."""
    if v.lattice != rho.lattice:
        raise RankMismatch(f"vectors on different lattices: {v.lattice!r} vs {rho.lattice!r}")
    if v.rank != rho.rank:
        raise RankMismatch(f"rank mismatch: {v.rank} vs {rho.rank}")
    if v.is_zero() or rho.is_zero():
        raise ValueError("ray membership needs nonzero vectors")
    for i in range(v.rank):
        for j in range(i + 1, v.rank):
            if v.coords[i] * rho.coords[j] != v.coords[j] * rho.coords[i]:
                return False
    return dot(v.coords, rho.coords) > 0


@dataclass(frozen=True)
class WeightMonoid:
    """The monoid of dual-cone lattice points, with its minimal generating set."""

    cone: Cone
    hilbert_basis: tuple

    def contains(self, lam: LatticeVector) -> bool:
        return self.cone.dual_contains(lam)


_ZONOTOPE_CAP = 2_000_000


def _pointed_hilbert_basis(rows: Sequence[tuple], ray_gens: Sequence[tuple]) -> list:
    """Irreducible elements of {x in Z^dim : <row, x> >= 0 for all rows}, a
    pointed cone generated by the primitive ray_gens.

    The degree, the sum of the rows, is positive on the cone. By Caratheodory
    an irreducible other than a ray lies in the half-open parallelepiped of at
    most dim independent rays, which bounds its degree by the dim largest ray
    degrees. The monoid is saturated, so x - b lies in it iff each row value of
    x - b is nonnegative: in degree order, a candidate is irreducible iff no
    irreducible found before it has values componentwise at most its own.
    """
    if not ray_gens:
        return []
    dim = len(ray_gens[0])
    lo = [sum(min(0, g[j]) for g in ray_gens) for j in range(dim)]
    hi = [sum(max(0, g[j]) for g in ray_gens) for j in range(dim)]
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
        if size > _ZONOTOPE_CAP:
            raise ValueError("zonotope lattice-point enumeration is too large")
    rows = list(dict.fromkeys(primitive_tuple(f) for f in rows))
    degree = tuple(map(sum, zip(*rows)))
    top = sum(sorted((dot(degree, g) for g in ray_gens), reverse=True)[:dim])
    ge = [(f, 0) for f in rows] + [(tuple(-d for d in degree), -top)]
    graded = sorted(((tuple(dot(f, p) for f in rows), p)
                     for p in box_points(lo, hi, ge) if any(p)), key=lambda c: sum(c[0]))
    basis = []
    for values, p in graded:
        if not any(all(a <= b for a, b in zip(v, values)) for v, _ in basis):
            basis.append((values, p))
    return sorted(p for _, p in basis)


def _monoid_basis(functionals: Sequence[tuple], rank: int, v_rep=None) -> list:
    """Minimal generating set of {y in Z^rank : <f, y> >= 0 for all functionals}.

    v_rep is the (lineality, rays) pair of _dual_v_representation on the
    functionals when the caller has it already. Units (the lineality of the
    solution cone) contribute a lattice basis and its negatives; the pointed
    quotient contributes lifted irreducibles.
    """
    halves = [tuple(f) for f in functionals if any(f)]
    lineality, rays = v_rep or _dual_v_representation(halves, rank)
    if not lineality:
        return _pointed_hilbert_basis(halves, rays)

    units, V, section = _lineality_split(halves, rank)
    basis = sorted({v for u in units for v in (u, tuple(-x for x in u))})
    # Columns of V past the units give quotient coordinates; f pulls back to f o lift.
    columns = [tuple(V[i][j] for i in range(rank)) for j in range(len(units), rank)]
    quotient_rows = [tuple(dot(f, s) for s in section) for f in halves]
    quotient_rays = sorted({primitive_tuple(p) for p in (
        tuple(dot(r, c) for c in columns) for r in rays) if any(p)})

    for y in _pointed_hilbert_basis(quotient_rows, quotient_rays):
        basis.append(tuple(sum(c * s[j] for c, s in zip(y, section)) for j in range(rank)))
    return sorted(basis)


def dual_monoid(cone: Cone, sublattice: Optional[Sublattice] = None) -> WeightMonoid:
    """Hilbert basis of the lattice points of the dual cone.

    With a sublattice the monoid is intersected with it: the computation is
    pulled back to the sublattice's coordinates and the basis re-embedded, so
    the returned vectors are ambient and all lie in the sublattice.
    """
    functionals = [g.coords for g in cone.generators if not g.is_zero()]
    if sublattice is None:
        basis = _monoid_basis(functionals, cone.rank, (cone.dual_lineality, cone.dual_rays))
        return WeightMonoid(cone, tuple(LatticeVector(v, cone.lattice) for v in basis))

    if sublattice.ambient_rank != cone.rank:
        raise RankMismatch(
            f"sublattice ambient rank {sublattice.ambient_rank} does not match cone rank {cone.rank}")
    pulled = [tuple(dot(row, f) for row in sublattice.basis_rows) for f in functionals]
    basis = _monoid_basis(pulled, sublattice.rank)
    embedded = sorted(sublattice.embed(y).coords for y in basis)
    return WeightMonoid(cone, tuple(LatticeVector(v, sublattice.lattice) for v in embedded))
