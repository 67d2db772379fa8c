"""Strictly convex lattice cones: double description, Hilbert bases, ray tests.

``build_cone`` takes generators in the dual lattice N and describes the dual
cone once, on its quotient by the lineality: one fraction-free elimination of
the halfspaces gives their rank and an independent subset, one column echelon
form of them, when their rank is short, gives the lineality basis, a section
that lifts the quotient back and the halfspaces on the quotient, and a pointed
double description starts from the simplicial cone of the independent
halfspaces and uses the combinatorial adjacency test (Fukuda and Prodon 1996)
on bitmasks of active halves, after the rank condition on their count.
The cone keeps that quotient. Its lifted rays give the facet normals, the line
witness of a cone that is not strictly convex, and the extremal rays.
Low-dimensional cones, single rays and the zero cone are all first-class.

``dual_monoid`` reads the stored quotient. The Hilbert basis of the dual cone's
lattice points is the lineality basis with its negatives and the lifted
irreducibles of the pointed quotient, by the primal algorithm (Bruns and Koch
2001): an irreducible x other than a ray lies in the half-open parallelepiped
of a simplex of a pulling triangulation that contains it, or else x - r_i is
in the monoid for a ray r_i of the simplex (Caratheodory); a plane quotient
takes the Hirzebruch-Jung walk instead. Quotients whose ray zonotope's box
holds over _ZONOTOPE_CAP points are refused.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .lattice import (
    DualVector,
    LatticeVector,
    Sublattice,
    _Frozen,
    _bareiss,
    _echelon,
    _lift,
    _require,
    _require_sublattice,
    _transform,
    dot,
    integer_kernel,
    matrix_rank,
    primitive_tuple,
)


class ContainsLine(ValueError):
    """Raised when generators span a cone that is not strictly convex."""

    def __init__(self, line, lattice: str = "M"):
        self.line = DualVector(line, lattice)
        super().__init__(
            f"cone is not strictly convex: it contains the line through {tuple(line)}")


def _dual_v_representation(functionals: Sequence[tuple], rank: int):
    """The cone {y : <f, y> >= 0} on its quotient by the lineality, as
    (units, section, rows, rays).

    rows are the distinct primitive halves in quotient coordinates, and rays
    the sorted primitive extreme rays of the pointed cone they cut out: the
    simplicial cone of independent rows takes the others one at a time, each
    ray carrying the bitmask of the processed rows vanishing on it. When the
    halves have rank r below the rank, one _echelon of the halves, H = A * U,
    gives the rest: the units, a basis of the lineality, are U's columns r..,
    the section, which lifts quotient coordinates back (see _lift), is its
    first r columns, and rows are the first r entries of H's rows.
    """
    halves = list(dict.fromkeys(primitive_tuple(f) for f in functionals if any(f)))
    pivots = [r for r, _, _ in _bareiss(halves)[1]]
    units, rows = (), halves
    section = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    if len(pivots) < rank:
        H, U, r = _echelon(halves, rank)
        units, section = tuple(map(tuple, U[r:])), tuple(map(tuple, U[:r]))
        # Every half vanishes on the units, so the rows keep the relations
        # among the halves: the pivot rows stay independent.
        rows = list(zip(*H[:r]))

    # _transform on P^T, P the pivot rows, gives rows T_c with
    # <P_j, T_c> = det * [j == c]: det * T_c spans the ray where all but P_c vanish.
    det, transform = _transform(list(zip(*(rows[r] for r in pivots))), len(pivots))
    rays = [(primitive_tuple(tuple(det * x for x in transform[c])),
             sum(1 << r for r in pivots if r != pivots[c])) for c in range(len(pivots))]

    for idx in sorted(set(range(len(rows))) - set(pivots)):
        a, bit = rows[idx], 1 << idx
        plus, minus, new_rays = [], [], []
        for ray in rays:
            value = dot(a, ray[0])
            if value > 0:
                plus.append((ray, value))
                new_rays.append(ray)
            elif value < 0:
                minus.append((ray, value))
            else:
                new_rays.append((ray[0], ray[1] | bit))
        # p and q are adjacent iff no third ray is active on all their common
        # halves, and adjacent rays of the pointed cone share len(pivots) - 2.
        for p, pa in plus:
            for q, qa in minus:
                common = p[1] & q[1]
                if common.bit_count() < len(pivots) - 2 or any(
                        r[1] & common == common for r in rays if r is not p and r is not q):
                    continue
                vec = tuple(pa * y - qa * x for x, y in zip(p[0], q[0]))
                new_rays.append((primitive_tuple(vec), common | bit))
        rays = new_rays
    return units, section, tuple(rows), tuple(sorted(y for y, _ in rays))


class Cone(_Frozen):
    """A strictly convex rational polyhedral cone in the dual lattice N.

    generators may be redundant; extremal_rays and facet_normals are computed,
    primitive and lexicographically sorted. facet_normals describe the cone
    exactly: x is in the cone iff <normal, x> >= 0 for every normal (equations
    cutting out the span appear as +/- pairs). build_cone also keeps the dual
    cone's quotient by its lineality, as _dual_v_representation returns it,
    for dual_monoid. Equality reads rank, generators and lattice.
    """

    __slots__ = ("rank", "generators", "extremal_rays", "facet_normals", "dual_rays",
                 "dual_lineality", "lattice", "_quotient")
    _compared = ("rank", "generators", "lattice")
    _shown = ("rank", "generators", "extremal_rays", "facet_normals", "lattice")

    def __init__(self, rank: int, generators: tuple, extremal_rays: tuple,
                 facet_normals: tuple, dual_rays: tuple, dual_lineality: tuple,
                 lattice: str = "M", _quotient: tuple = None):
        self._set(rank, generators, extremal_rays, facet_normals, dual_rays, dual_lineality,
                  lattice, _quotient)

    def contains(self, v: DualVector) -> bool:
        _require(v, DualVector, self.lattice, self.rank)
        return all(dot(n.coords, v.coords) >= 0 for n in self.facet_normals)

    def dual_contains(self, lam: LatticeVector) -> bool:
        """True iff lam lies in the dual cone, i.e. <x, lam> >= 0 for all x in the cone."""
        _require(lam, LatticeVector, self.lattice, self.rank)
        return all(dot(g.coords, lam.coords) >= 0 for g in self.generators)


def build_cone(generators: Sequence[DualVector], rank: Optional[int] = None,
               lattice: Optional[str] = None) -> Cone:
    """Build a strictly convex cone from (possibly redundant) generators.

    Zero generators are dropped. Raises ContainsLine with a witness direction
    when the generators positively span a line. The zero cone is built from an
    empty generator list (rank must then be given).
    """
    gens = tuple(generators)
    if not gens and rank is None:
        raise ValueError("an empty generator list needs an explicit rank")
    if lattice is None:
        lattice = gens[0].lattice if gens else "M"
    if rank is None:
        rank = gens[0].rank
    for g in gens:
        _require(g, DualVector, lattice, rank)

    functionals = [g.coords for g in gens if not g.is_zero()]
    quotient = _dual_v_representation(functionals, rank)
    units, section, _, quotient_rays = quotient
    lin, rays = sorted(units), sorted(_lift(section, quotient_rays))
    if matrix_rank(quotient_rays) < len(section):
        raise ContainsLine(primitive_tuple(integer_kernel(lin + rays, rank)[0]), lattice)
    normals = sorted({v for l in lin for v in (l, tuple(-x for x in l))} | set(rays))

    # Every extremal ray of the pointed cone passes through a generator, and
    # the face a candidate spans is cut out by its active facets: the
    # candidate is extremal iff no other candidate is active on all of them.
    candidates = sorted({primitive_tuple(f) for f in functionals})
    active = [sum(1 << i for i, r in enumerate(rays) if dot(r, c) == 0) for c in candidates]
    extremal = [DualVector(c, lattice) for i, c in enumerate(candidates)
                if not any(j != i and b & active[i] == active[i] for j, b in enumerate(active))]

    return Cone(
        rank=rank,
        generators=gens,
        extremal_rays=tuple(extremal),
        facet_normals=tuple(LatticeVector(v, lattice) for v in normals),
        dual_rays=tuple(rays),
        dual_lineality=tuple(lin),
        lattice=lattice,
        _quotient=quotient,
    )


def on_nonnegative_ray(v: DualVector, rho: DualVector) -> bool:
    """True iff v is a nonnegative rational multiple of rho (both nonzero)."""
    _require(v, DualVector, rho.lattice, len(rho.coords))
    _require(rho, DualVector, v.lattice, len(v.coords))
    if v.is_zero() or rho.is_zero():
        raise ValueError("ray membership needs nonzero vectors")
    return primitive_tuple(v.coords) == primitive_tuple(rho.coords)


class WeightMonoid(_Frozen):
    """The monoid of dual-cone lattice points, in the sublattice when one is
    given, with its minimal generating set."""

    __slots__ = ("cone", "hilbert_basis", "sublattice")

    def __init__(self, cone: Cone, hilbert_basis: tuple,
                 sublattice: Optional[Sublattice] = None):
        self._set(cone, hilbert_basis, sublattice)

    def contains(self, lam: LatticeVector) -> bool:
        return self.cone.dual_contains(lam) and (
            self.sublattice is None or self.sublattice.contains(lam))


# No step below walks the rays' zonotope, but its box keeps the largest answers
# out: uncapped, the cone over (1, i, i^2), i < 24, runs a degree-506 flow that
# lifts cone-ladder's peak RSS from 24.2 to 33.9 MB, until that rung re-anchors.
_ZONOTOPE_CAP = 2_000_000


def _pulling_triangulation(rows: Sequence[tuple], rays: Sequence[tuple], rank: int) -> list:
    """Simplices of the pulling triangulation of the rank-dimensional cone of
    rays, on which every row is >= 0: the first ray joined to the
    triangulation of each facet {<row, x> = 0} that misses it."""
    if len(rays) == rank:
        return [tuple(rays)]
    apex, simplices, facets = rays[0], [], set()
    for f in rows:
        face = tuple(r for r in rays if dot(f, r) == 0)
        if dot(f, apex) and face not in facets and matrix_rank(face) == rank - 1:
            facets.add(face)
            simplices += [(apex,) + s for s in _pulling_triangulation(rows, face, rank - 1)]
    return simplices


def _parallelepiped(simplex: Sequence[tuple]) -> list:
    """Nonzero lattice points sum c_i s_i, 0 <= c_i < 1, over the rays of a
    simplex S. _transform's rows T_c, with T_c S = det on pivot column c and 0
    on the others, generate the numerators det * c mod |det|; those that
    combine the rays to a multiple of |det| give the points (all if S is full)."""
    det, transform = _transform(simplex, len(simplex[0]))
    n, group, columns = abs(det), {(0,) * len(simplex)}, list(zip(*simplex))
    for g in transform.values():  # add cosets group + k g until one repeats
        coset = list(group)
        while (coset := [tuple((a + b) % n for a, b in zip(p, g)) for p in coset])[0] not in group:
            group.update(coset)
    sums = ([dot(p, c) for c in columns] for p in group if any(p))
    return [tuple(x // n for x in v) for v in sums if all(x % n == 0 for x in v)]


def _plane_basis(r1: tuple, r2: tuple) -> list:
    """Irreducibles of the plane cone over independent primitive r1, r2: the
    Hirzebruch-Jung walk r1 = b_0, ..., b_s = r2 over the lattice points on
    the compact edges of the hull of its nonzero points (Oda 1988, 1.6)."""
    def det(u, v):
        return u[0] * v[1] - u[1] * v[0]

    if det(r1, r2) < 0:
        r1, r2 = r2, r1
    (p, q), d0 = r1, det(r1, r2)
    y = pow(p, -1, abs(q)) if q else p  # b = (x, y) has det(r1, b) = p y - q x = 1
    b = ((p * y - 1) // q if q else 0, y)
    t = -(det(b, r2) // d0)  # b_1 = b + t r1 is the first point of b + Z r1 in the cone
    b1 = (b[0] + t * p, b[1] + t * q)
    walk, d = [r1, b1], [d0, det(b1, r2)]
    while d[-1]:  # det(b_i, r2) falls strictly to 0, at b_s = r2
        a = -(-d[-2] // d[-1])
        walk.append((a * walk[-1][0] - walk[-2][0], a * walk[-1][1] - walk[-2][1]))
        d.append(a * d[-1] - d[-2])
    return sorted(walk)


def _pointed_hilbert_basis(rows: Sequence[tuple], ray_gens: Sequence[tuple]) -> list:
    """Irreducible elements of {x in Z^dim : <row, x> >= 0 for all rows}, a
    pointed cone generated by the primitive ray_gens.

    An irreducible x other than a ray lies in a simplex of a pulling
    triangulation, x = sum c_i r_i with c_i >= 0, and all c_i < 1, or else
    x - r_i is in the monoid. The degree, the sum of the rows, is positive on
    the cone; the monoid is saturated, so in degree order a candidate is
    irreducible iff no irreducible before it has row values at most its own.
    """
    if not ray_gens:
        return []
    size = 1
    for column in zip(*ray_gens):
        size *= sum(map(abs, column)) + 1
        if size > _ZONOTOPE_CAP:
            raise ValueError("zonotope lattice-point enumeration is too large")
    if len(ray_gens) == 2 == len(ray_gens[0]):
        return _plane_basis(*ray_gens)
    candidates = set(ray_gens)
    for simplex in _pulling_triangulation(rows, ray_gens, matrix_rank(ray_gens)):
        candidates.update(_parallelepiped(simplex))
    graded = sorted(((tuple(dot(f, p) for f in rows), p) for p in candidates),
                    key=lambda c: sum(c[0]))
    basis = []
    for values, p in graded:
        if not any(all(a <= b for a, b in zip(v, values)) for v, _ in basis):
            basis.append((values, p))
    return sorted(p for _, p in basis)


def _monoid_basis(quotient) -> list:
    """Minimal generating set of the lattice points of the cone that
    _dual_v_representation returned as quotient: the units and their
    negatives, and the irreducibles of the pointed quotient, lifted.
    """
    units, section, rows, rays = quotient
    basis = {v for u in units for v in (u, tuple(-x for x in u))}
    return sorted(basis.union(_lift(section, _pointed_hilbert_basis(rows, rays))))


def dual_monoid(cone: Cone, sublattice: Optional[Sublattice] = None) -> WeightMonoid:
    """Hilbert basis of the lattice points of the dual cone.

    Without a sublattice this reads the quotient that build_cone kept. With
    one, the monoid is intersected with it: the double description runs on the
    functionals pulled back to the sublattice's coordinates and the basis is
    re-embedded, so the returned vectors are ambient and all lie in the
    sublattice, which the monoid keeps for its membership test.
    """
    if sublattice is None:
        basis = _monoid_basis(cone._quotient)
        return WeightMonoid(cone, tuple(LatticeVector(v, cone.lattice) for v in basis))

    _require_sublattice(sublattice, cone.lattice, cone.rank)
    pulled = [tuple(dot(row, g.coords) for row in sublattice.basis_rows) for g in cone.generators]
    basis = _monoid_basis(_dual_v_representation(pulled, sublattice.rank))
    embedded = sorted(_lift(sublattice.basis_rows, basis))
    return WeightMonoid(cone, tuple(LatticeVector(v, cone.lattice) for v in embedded), sublattice)
