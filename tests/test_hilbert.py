"""Hilbert bases from a pulling triangulation's half-open parallelepipeds.

The reference below is the whole-box construction: every lattice point of
the zonotope of the quotient rays, each tested against all the others. It
shares the units basis and the section with the library, so the two answers
must be equal as lists, on cones with and without lineality. The pieces of
the primal algorithm are checked on their own too: the triangulation against
exact rational solves, the parallelepiped points against the determinant of
their simplex.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from demroots.cones import (ContainsLine, _dual_v_representation, _monoid_basis,
                            _parallelepiped, _pointed_hilbert_basis, _pulling_triangulation,
                            build_cone, dual_monoid)
from demroots.datumio import parse_datum
from demroots.lattice import DualVector, matrix_rank
from demroots.spherical import validate, weight_monoid

from conftest import dot, rational_rank, verify_hilbert_basis


def _reference_basis(functionals, rank):
    halves = [tuple(f) for f in functionals if any(f)]
    units, section, _, rays = _dual_v_representation(halves, rank)
    basis = sorted({v for u in units for v in (u, tuple(-x for x in u))})
    k = len(units)
    if k == rank:
        return basis

    def lift(y):
        return tuple(sum(c * s[j] for c, s in zip(y, section)) for j in range(rank))

    def member(y):
        return all(dot(f, lift(y)) >= 0 for f in halves)

    box = [range(sum(min(0, g[j]) for g in rays), sum(max(0, g[j]) for g in rays) + 1)
           for j in range(rank - k)]
    candidates = [p for p in product(*box) if any(p) and member(p)]
    for x in candidates:
        if not any(c != x and member(tuple(a - b for a, b in zip(x, c)))
                   for c in candidates):
            basis.append(lift(x))
    return sorted(basis)


def _zonotope_box(rays):
    size = 1
    for j in range(len(rays[0])):
        size *= sum(abs(r[j]) for r in rays) + 1
    return size


def _random_cones(seed, ranks, count, entry, box_cap, full=False):
    """Strictly convex cones with a small dual zonotope box; unless full, many
    are not full-dimensional, and their dual monoid then has units."""
    rnd = random.Random(seed)
    found = []
    while len(found) < count:
        rank = rnd.choice(ranks)
        gens = [tuple(rnd.randint(-entry, entry) for _ in range(rank))
                for _ in range(rnd.randint(rank if full else 1, rank + 1))]
        if full and matrix_rank(gens) < rank:
            continue
        try:
            cone = build_cone([DualVector(g) for g in gens], rank=rank)
        except ContainsLine:
            continue
        if not cone.dual_rays or _zonotope_box(cone.dual_rays) <= box_cap:
            found.append((cone, gens))
    return found


def test_primal_basis_matches_whole_box_scan():
    cones = _random_cones(7, (2, 3, 4, 5), 60, 2, 150) + \
        _random_cones(8, (4, 5), 12, 1, 2000, full=True)
    for cone, gens in cones:
        want = _reference_basis(gens, cone.rank)
        assert [v.coords for v in dual_monoid(cone).hilbert_basis] == want, gens
        assert _monoid_basis(_dual_v_representation(gens, cone.rank)) == want, gens
    lineality = sum(bool(cone.dual_lineality) for cone, _ in cones)
    assert 10 <= lineality <= 50


def test_random_rank_four_and_five_verified():
    for cone, gens in _random_cones(3, (4, 5), 16, 1, 10 ** 6, full=True):
        basis = [v.coords for v in dual_monoid(cone).hilbert_basis]
        verify_hilbert_basis(gens, basis, box_bound=1)


def test_two_dimensional_cliff():
    # the dual of cone((0,1), (a, a-1)) is generated by (1,0) and (-k, k+1), k < a
    cone = build_cone([DualVector((0, 1)), DualVector((200, 199))])
    basis = [v.coords for v in dual_monoid(cone).hilbert_basis]
    assert basis == sorted([(1, 0)] + [(-k, k + 1) for k in range(200)])


def test_plane_bases_by_the_continued_fraction_walk():
    """Seeded plane cones of determinant up to 10^4, with either ray order:
    the whole-box reference where the box is small, the descent oracle
    elsewhere."""
    rnd = random.Random(41)
    referenced = 0
    for n in range(100):
        top = 10 ** (1 + n % 4)
        det, e = 0, int(top ** 0.5) + 1
        while not 0 < abs(det) <= top:
            gens = [(rnd.randint(-e, e), rnd.randint(-e, e)) for _ in range(2)]
            det = gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0]
        cone = build_cone([DualVector(g) for g in gens])
        basis = [v.coords for v in dual_monoid(cone).hilbert_basis]
        rays = tuple(sorted(cone.dual_rays))
        assert _pointed_hilbert_basis(cone._quotient[2], rays[::-1]) == basis, gens
        if _zonotope_box(rays) <= 150:
            referenced += 1
            assert basis == _reference_basis(gens, 2), gens
        else:
            verify_hilbert_basis(gens, basis, box_bound=1)
    assert 20 <= referenced <= 80, referenced


def test_wide_plane_record_in_linear_time():
    """The torus record (n, 1), (n, -1): the dual monoid's basis is the 2n + 1
    points (1, k), |k| <= n, walked in O(n) steps."""
    for n in (10 ** 3, 10 ** 4):
        datum = _torus_record([(n, 1), (n, -1)])
        start = time.perf_counter()
        basis = [v.coords for v in weight_monoid(datum).hilbert_basis]
        elapsed = time.perf_counter() - start
        assert basis == [(1, k) for k in range(-n, n + 1)], n
        assert elapsed < 2.0, f"n = {n} took {elapsed:.2f} s"


def _torus_record(kappas):
    rank = len(kappas[0])
    doc = {"cartan": {"ambient_rank": rank, "simple_roots": [], "simple_coroots": []},
           "lattice_M": {"basis_rows": [[int(i == j) for j in range(rank)]
                                        for i in range(rank)]},
           "divisors": [{"name": f"d{i}", "kappa": list(k), "kind": "g-stable"}
                        for i, k in enumerate(kappas)]}
    return parse_datum(json.dumps(doc))


def test_rank5_record_validates_within_budget():
    units = [tuple(int(i == j) for j in range(5)) for i in range(4)]
    datum = _torus_record(units + [(3, 5, 7, 11, 13)])
    start = time.perf_counter()
    report = validate(datum)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert elapsed < 10.0, f"rank-5 validate took {elapsed:.2f} s"
    basis = [v.coords for v in weight_monoid(datum).hilbert_basis]
    verify_hilbert_basis([d.kappa.coords for d in datum.divisors], basis, box_bound=1)


def test_dual_monoid_ignores_generator_scaling():
    """Scaling or repeating generators keeps the cone, so it keeps the basis,
    and the basis holds each unit of the lineality with its negative."""
    rnd = random.Random(11)
    cones = [(c, g) for c, g in _random_cones(12, (2, 3, 4, 5), 200, 2, 400)
             if c.dual_lineality and c.generators]
    assert len(cones) >= 30
    for cone, gens in cones:
        want = [v.coords for v in dual_monoid(cone).hilbert_basis]
        for u in cone.dual_lineality:
            assert u in want and tuple(-x for x in u) in want, gens
        scaled = [tuple(k * x for x in g) for k, g in ((rnd.randint(1, 3), g) for g in gens)]
        scaled.append(rnd.choice(scaled))
        other = build_cone([DualVector(g) for g in scaled], rank=cone.rank)
        assert [v.coords for v in dual_monoid(other).hilbert_basis] == want, (gens, scaled)
    gens = [(2, -2, 1, 2, -2), (1, 0, -1, 2, -1)]
    bases = [[v.coords for v in dual_monoid(build_cone([DualVector(g) for g in gens + [last]]))
              .hilbert_basis] for last in ((-2, -2, 2, -2, -2), (-1, -1, 1, -1, -1))]
    assert bases[0] == bases[1]


def _rows_and_rays(gens):
    """Rows and extremal rays of the cone over gens. The rows are the facet
    normals and, like the halves the library passes, redundant ones: the sums
    of two normals, which vanish on lower faces."""
    cone = build_cone([DualVector(g) for g in gens])
    normals = [n.coords for n in cone.facet_normals]
    rows = normals + [tuple(map(sum, zip(a, b))) for a, b in combinations(normals, 2)]
    return tuple(rows), tuple(r.coords for r in cone.extremal_rays)


def _pointed_cones(seed, count):
    """Full-dimensional cones of rank 1-5 with small entries, pointed by a
    positive first coordinate; from rank 3 on, many are not simplicial."""
    rnd = random.Random(seed)
    found = []
    while len(found) < count:
        rank = 1 + len(found) % 5
        gens = [(rnd.randint(1, 2),) + tuple(rnd.randint(-2, 2) for _ in range(rank - 1))
                for _ in range(rank + rnd.randint(0, 3))]
        if rational_rank(gens) == rank:
            found.append(_rows_and_rays(gens))
    return found


# The cone over square x triangle has square 2-faces: sums of two normals cut
# them out, and they are not simplices.
PRISM = [(1, a, b) + t for a, b in product((0, 1), repeat=2) for t in ((0, 0), (1, 0), (0, 1))]
CONES = _pointed_cones(21, 200) + [_rows_and_rays(PRISM)]


def _both_pulling_orders(rows, rays):
    return [_pulling_triangulation(rows, order, len(rays[0])) for order in (rays, rays[::-1])]


def _coordinates(rows):
    """(det, columns) for a square integer matrix S, by Gauss-Jordan
    elimination over the rationals: x = c S has c_i = <x, columns[i]> / det."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    det = Fraction(1)
    for c in range(n):
        i = next(i for i in range(c, n) if m[i][c])
        if i != c:
            m[c], m[i], det = m[i], m[c], -det
        det *= m[c][c]
        m[c] = [a / m[c][c] for a in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det), [[int(det * x) for x in column] for column in zip(*(r[n:] for r in m))]


def test_triangulation_uses_independent_rays_of_the_cone():
    orders_differ = 0
    for rows, rays in CONES:
        both = _both_pulling_orders(rows, rays)
        for simplices in both:
            assert simplices, rays
            for s in simplices:
                assert set(s) <= set(rays) and len(s) == rational_rank(s) == len(rays[0])
        orders_differ += len(both[0]) != len(both[1])
    assert orders_differ >= 10


def test_triangulation_covers_the_cone_without_overlap():
    rnd = random.Random(22)
    for rows, rays in CONES:
        for simplices in _both_pulling_orders(rows, rays):
            solvers = [_coordinates(s) for s in simplices]
            for _ in range(5):
                x = [0] * len(rays[0])
                for r in rays:
                    k = rnd.randint(1, 10 ** 6)
                    x = [a + k * b for a, b in zip(x, r)]
                holding = [s for s, (det, columns) in zip(simplices, solvers)
                           if all(dot(x, column) * det >= 0 for column in columns)]
                assert len(holding) == 1, (rays, x, holding)


def test_parallelepiped_has_det_minus_one_points():
    sizes = []
    for rows, rays in CONES:
        for s in _pulling_triangulation(rows, rays, len(rays[0])):
            points = _parallelepiped(s)
            det, columns = _coordinates(s)
            assert len(set(points)) == len(points) == abs(det) - 1, s
            for p in points:
                coefficients = [Fraction(dot(p, column), det) for column in columns]
                assert any(p) and all(0 <= c < 1 for c in coefficients), (s, p)
            sizes.append(len(points))
    assert max(sizes) >= 5 and sizes.count(0) < len(sizes)


def test_lower_dimensional_cone_keeps_the_lattice_of_its_span():
    # The cone over (2,0,1) and (0,2,1) in the plane x + y = 2z, as the dual of
    # a cone on a sublattice may be. The minor on the first two columns is 4,
    # but the plane's lattice adds only (1,1,1) to the rays.
    rows = ((-1, 0, 2), (0, -1, 2), (1, 1, -2), (-1, -1, 2))
    rays = ((0, 2, 1), (2, 0, 1))
    assert _parallelepiped(rays) == [(1, 1, 1)]
    assert _pointed_hilbert_basis(rows, rays) == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]


def test_moment_cones_up_to_the_cap():
    """The cone over (1, i, i^2), i < x, for every x the cap admits: its dual
    monoid has 2x + 1 irreducibles."""
    gens = {x: [(1, i, i * i) for i in range(x)] for x in range(4, 15)}
    start = time.perf_counter()
    bases = {x: [v.coords for v in dual_monoid(build_cone([DualVector(g) for g in gens[x]]))
                 .hilbert_basis] for x in range(4, 14)}
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"moment cones took {elapsed:.2f} s"
    for x, basis in bases.items():
        assert len(basis) == 2 * x + 1, x
        verify_hilbert_basis(gens[x], basis, box_bound=1)
    with pytest.raises(ValueError, match="zonotope lattice-point enumeration is too large"):
        dual_monoid(build_cone([DualVector(g) for g in gens[14]]))
