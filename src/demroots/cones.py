"""Strictly convex lattice cones: double description, Hilbert bases, ray tests.

A cone is stored with both descriptions. ``build_cone`` takes generators in the
dual lattice N, computes the dual cone's V-representation by incremental
halfspace insertion (double description with the combinatorial adjacency test),
rejects cones containing a line (with a witness direction), and derives facet
normals and extremal rays. Low-dimensional cones, single rays and the zero cone
are all first-class.

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


@dataclass(frozen=True)
class _Ray:
    vec: tuple
    active: frozenset


def _dual_v_representation(functionals: Sequence[tuple], rank: int):
    """V-representation (lineality basis, extreme rays) of {y : <f, y> >= 0}.

    Rays are primitive, reduced modulo the lineality lattice and sorted, so the
    output is canonical for a given halfspace set.
    """
    seen = set()
    halves = []
    for f in functionals:
        if not any(f):
            continue
        p = primitive_tuple(f)
        if p not in seen:
            seen.add(p)
            halves.append(p)

    lineality = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    rays: list = []
    done: list = []

    for a in halves:
        vals = [dot(a, l) for l in lineality]
        if any(vals):
            j0 = next(j for j, v in enumerate(vals) if v)
            l0, v0 = lineality[j0], vals[j0]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            new_lin = []
            for j, (l, v) in enumerate(zip(lineality, vals)):
                if j == j0:
                    continue
                if v == 0:
                    new_lin.append(l)
                else:
                    new_lin.append(primitive_tuple(
                        tuple(v0 * x - v * y for x, y in zip(l, l0))))
            new_rays = []
            for r in rays:
                va = dot(a, r.vec)
                if va == 0:
                    new_rays.append(_Ray(r.vec, r.active | {len(done)}))
                else:
                    vec = primitive_tuple(
                        tuple(v0 * x - va * y for x, y in zip(r.vec, l0)))
                    new_rays.append(_Ray(vec, r.active | {len(done)}))
            new_rays.append(_Ray(l0, frozenset(range(len(done)))))
            lineality, rays = new_lin, new_rays
        else:
            plus = [r for r in rays if dot(a, r.vec) > 0]
            zero = [r for r in rays if dot(a, r.vec) == 0]
            minus = [r for r in rays if dot(a, r.vec) < 0]
            idx = len(done)
            new_rays = [_Ray(r.vec, r.active | {idx}) for r in zero]
            new_rays += [_Ray(r.vec, r.active) for r in plus]
            for p in plus:
                for q in minus:
                    common = p.active & q.active
                    blocked = any(r is not p and r is not q and r.active >= common
                                  for r in rays)
                    if blocked:
                        continue
                    pa, qa = dot(a, p.vec), dot(a, q.vec)
                    vec = tuple(pa * y - qa * x for x, y in zip(p.vec, q.vec))
                    assert any(vec), "combination of opposite rays"
                    vec = primitive_tuple(vec)
                    active = frozenset(
                        j for j, f in enumerate(done) if dot(f, vec) == 0) | {idx}
                    new_rays.append(_Ray(vec, active))
            dedup = {}
            for r in new_rays:
                dedup.setdefault(r.vec, r)
            rays = list(dedup.values())
        done.append(a)

    # Saturated, canonical lineality lattice.
    dim = matrix_rank(halves)
    lin_basis = integer_kernel(halves, rank) if dim < rank else []

    # Prune rays to the extremal ones (rank of active halfspaces = rank(H) - 1)
    # and canonicalize them modulo the lineality lattice.
    target = dim - 1
    reduce_mod = _lattice_reducer(lin_basis, rank)
    final = set()
    for r in rays:
        active = [f for f in halves if dot(f, r.vec) == 0]
        if matrix_rank(active) != target:
            continue
        vec = reduce_mod(r.vec)
        if any(vec):
            final.add(primitive_tuple(vec))
    return sorted(lin_basis), sorted(final)


def _saturated_split(basis: Sequence[tuple]):
    """(V, V^-1) for the Smith normal form U * basis * V = (I | 0) of the rows
    of a saturated sublattice: x * V lists x in the basis of Z^n given by the
    rows of V^-1, whose first len(basis) rows span the sublattice."""
    _, D, V = smith_normal_form(basis)
    assert all(D[i][i] == 1 for i in range(len(basis))), "sublattice must be saturated"
    return V, unimodular_inverse(V)


def _lattice_reducer(basis: Sequence[tuple], rank: int):
    """Map x to its canonical representative modulo the (saturated) lattice."""
    if not basis:
        return lambda vec: vec
    k = len(basis)
    V, Vinv = _saturated_split(basis)

    def reduce(vec):
        # coeffs = vec * V; zero out the k lattice coordinates, map back with V^-1.
        coeffs = [sum(vec[i] * V[i][j] for i in range(rank)) for j in range(rank)]
        trimmed = [0] * k + coeffs[k:]
        return tuple(sum(trimmed[i] * Vinv[i][j] for i in range(rank))
                     for j in range(rank))

    return reduce


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

    units = integer_kernel(halves, rank)
    basis = sorted({v for u in units for v in (u, tuple(-x for x in u))})
    k = len(units)
    if k == rank:
        return basis

    V, Vinv = _saturated_split(units)
    # The first k rows of V^-1 span the units, so y -> sum y[i] * section[i]
    # lifts the quotient and f pulls back to f o lift.
    section = [Vinv[i] for i in range(k, rank)]
    columns = [tuple(V[i][j] for i in range(rank)) for j in range(k, rank)]
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
    pulled = []
    for f in functionals:
        g = tuple(dot(row, f) for row in sublattice.basis_rows)
        if any(g):
            pulled.append(g)
    basis = _monoid_basis(pulled, sublattice.rank)
    embedded = sorted(sublattice.embed(y).coords for y in basis)
    return WeightMonoid(cone, tuple(LatticeVector(v, sublattice.lattice) for v in embedded))
