"""The one lattice-point walk, Polyhedron, against box scans from definitions.

Each oracle here scans the whole box [-bound, bound]^rank, keeps the points
that satisfy the defining conditions and orders them by (sup-norm, 1-norm,
lex) for Polyhedron.points or lex for Polyhedron.cube; none of them uses the
walk or the library's root machinery.
"""

import json
import random
from itertools import product

import pytest

from demroots.cones import ContainsLine, build_cone
from demroots.datumio import parse_datum
from demroots.lattice import DualVector, Polyhedron, RankMismatch
from demroots.search import _minimal_shift
from demroots.spherical import ColorSubset, chart, full_cone
from demroots.toric import enumerate_demazure_roots, root_polyhedron

from conftest import demazure_box_oracle, dot, random_pointed_cone

# Box half-widths small enough for a full scan at each rank.
SCAN_BOUND = {1: 4, 2: 4, 3: 3, 4: 2, 5: 1}


def key(x):
    return (max(map(abs, x)), sum(map(abs, x)), x)


def box(rank, bound):
    return product(range(-bound, bound + 1), repeat=rank)


def minimal(points):
    return min(points, key=key, default=None)


def _rows(rnd, rank, most, rhs):
    return [(tuple(rnd.randint(-3, 3) for _ in range(rank)), rnd.randint(-rhs, rhs))
            for _ in range(rnd.randint(0, most))]


def _corner_rows(rank):
    """Row sets for the edge cases: none, ones the origin fails (a zero row
    among them), eq rows alone and beside ge rows."""
    ones, e0 = (1,) * rank, (1,) + (0,) * (rank - 1)
    zero = (0,) * rank
    return [([], []), ([(ones, 1)], []), ([(e0, 1), (ones, 2)], []),
            ([(zero, 1)], []), ([(zero, 0), (e0, -1)], []),
            ([], [(ones, 0)]), ([], [(e0, 1)]), ([(e0, 0)], [(ones, 1)]),
            ([], [(e0, 1), (ones, 1)])]


def _cases(seed, count):
    """(rank, bound, ge, eq): seeded random systems of rank 1-5, then the
    corner rows at bounds 0, 1 and the rank's scan bound."""
    rnd = random.Random(seed)
    cases = []
    for _ in range(count):
        rank = rnd.randint(1, 5)
        cases.append((rank, rnd.randint(0, SCAN_BOUND[rank]),
                      _rows(rnd, rank, 4, 3), _rows(rnd, rank, 2, 2)))
    return cases + [(rank, bound, ge, eq) for rank in SCAN_BOUND
                    for bound in sorted({0, 1, SCAN_BOUND[rank]})
                    for ge, eq in _corner_rows(rank)]


def _scan(rank, bound, ge, eq):
    """The points of the box satisfying every row, in lex order."""
    return [x for x in box(rank, bound)
            if all(dot(a, x) >= b for a, b in ge) and all(dot(c, x) == d for c, d in eq)]


def test_points_match_box_scan():
    for rank, bound, ge, eq in _cases(11, 500):
        want = sorted(_scan(rank, bound, ge, eq), key=key)
        assert list(Polyhedron(rank, ge, eq).points(bound)) == want, (rank, bound, ge, eq)


def test_cube_matches_box_scan():
    for rank, bound, ge, eq in _cases(12, 250):
        assert Polyhedron(rank, ge, eq).cube(bound) == _scan(rank, bound, ge, eq), \
            (rank, bound, ge, eq)


def test_points_sorted_are_the_cube():
    """The two orders of the one walk list the same points."""
    for rank, bound, ge, eq in _cases(13, 250):
        P = Polyhedron(rank, ge, eq)
        assert sorted(P.points(bound)) == P.cube(bound), (rank, bound, ge, eq)


def test_polyhedron_rejects_negative_bound():
    P = Polyhedron(2, ge=[((1, 0), 0)])
    with pytest.raises(ValueError, match="bound must be nonnegative, got -1"):
        next(P.points(-1))
    with pytest.raises(ValueError, match="bound must be nonnegative, got -1"):
        P.cube(-1)


@pytest.mark.parametrize("rank, ge, eq", [(2, [], [((0, 0, 1), 1)]),
                                          (3, [((1, 0), 1)], [])],
                         ids=["long eq row", "short ge row"])
def test_rows_of_another_length_refused(rank, ge, eq):
    """A row longer than the rank used to be read in part, and a shorter one
    raised IndexError in the walk; both are refused at construction."""
    with pytest.raises(RankMismatch, match="rank mismatch"):
        Polyhedron(rank, ge, eq)


def test_polyhedra_hash_and_compare_by_rows():
    """Rows given as lists are stored as tuples: the root polyhedron of a
    cone hashes, and equals a polyhedron built from its own rows."""
    cone = build_cone([DualVector((1, 0)), DualVector((1, 2))])
    for rho in cone.extremal_rays:
        P = root_polyhedron(cone, rho)
        same = Polyhedron(2, tuple(P.ge), tuple(P.eq))
        assert P == same and hash(P) == hash(same)
        assert P == Polyhedron(2, [(list(a), b) for a, b in P.ge],
                               [(list(c), d) for c, d in P.eq])
    assert repr(root_polyhedron(cone, DualVector((1, 0)))) \
        == "Polyhedron(rank=2, ge=(((1, 2), 0),), eq=(((1, 0), -1),))"
    assert Polyhedron(2, ge=[((1, 0), 0)]) != Polyhedron(2, ge=[((1, 0), 1)])


def _random_cones(seed, count):
    """Pointed cones of rank 2, 3, 4, 5 in turn, entries in -2..2."""
    rnd = random.Random(seed)
    for i in range(count):
        rank = 2 + i % 4
        while True:
            cone, gens = random_pointed_cone(rnd, max_rank=rank, max_gens=rank + 1,
                                             entry=2)
            if cone.rank == rank:
                yield cone, gens
                break


def test_demazure_roots_match_box_scan_with_order():
    for cone, gens in _random_cones(3, 24):
        bound = SCAN_BOUND[cone.rank]
        found = demazure_box_oracle(gens, bound)
        want = [(rho, mu) for rho in sorted({rho for rho, _ in found})
                for mu in sorted(mu for r, mu in found if r == rho)]
        got = [(r.rho.coords, r.mu.coords)
               for r in enumerate_demazure_roots(cone, bound)]
        assert got == want, gens


def test_minimal_root_matches_box_scan():
    """find_witness takes the first root that root_polyhedron's points yield."""
    def first_root(cone, rho, bound):
        return next(root_polyhedron(cone, rho).points(bound), None)

    hit_at_bound = none_found = 0
    for cone, gens in _random_cones(7, 40):
        bound = SCAN_BOUND[cone.rank]
        found = demazure_box_oracle(gens, bound)
        for rho in cone.extremal_rays:
            want = minimal(mu for r, mu in found if r == rho.coords)
            assert first_root(cone, rho, bound) == want, (gens, rho.coords)
            if want is None:
                none_found += 1
                continue
            # The same answer with the bound at its sup-norm, none below it.
            norm = max(map(abs, want))
            assert first_root(cone, rho, norm) == want
            assert first_root(cone, rho, norm - 1) is None
            hit_at_bound += 1
    assert hit_at_bound and none_found


def _torus_or_sl2_record(rnd, rank):
    """A record with random kappas spanning a strictly convex cone; with type-T
    colors when the group is SL2 x torus."""
    while True:
        datum = _random_record(rnd, rank)
        try:
            full_cone(datum)
        except ContainsLine:
            continue
        return datum


def _random_record(rnd, rank):
    kappas = [tuple(rnd.randint(-2, 2) for _ in range(rank))
              for _ in range(rnd.randint(2, rank + 2))]
    divisors = [{"name": f"d{i}", "kappa": list(k), "kind": "g-stable"}
                for i, k in enumerate(kappas)]
    simple, coroots = [], []
    if rnd.random() < 0.5:
        simple, coroots = [[2] + [0] * (rank - 1)], [[1] + [0] * (rank - 1)]
        for name in ("t1", "t2")[:rnd.randint(1, 2)]:
            divisors.append({"name": name, "kind": "color", "color_type": "T",
                             "moved_by": [0],
                             "kappa": [rnd.randint(-2, 2) for _ in range(rank)]})
    doc = {"cartan": {"ambient_rank": rank, "simple_roots": simple,
                      "simple_coroots": coroots},
           "lattice_M": {"basis_rows": [[int(i == j) for j in range(rank)]
                                        for i in range(rank)]},
           "divisors": divisors}
    return parse_datum(json.dumps(doc))


def test_minimal_shift_matches_box_scan():
    rnd = random.Random(19)
    hit_at_bound = none_found = 0
    for i in range(40):
        rank = 2 + i % 4
        datum = _torus_or_sl2_record(rnd, rank)
        kappas = [d.kappa.coords for d in datum.divisors]
        bound = SCAN_BOUND[rank]
        subsets = [ColorSubset()] + [ColorSubset(c.name) for c in datum.colors]
        for subset in subsets:
            removed = [c.kappa.coords for c in chart(datum, subset).removed]
            rho = tuple(rnd.randint(-2, 2) for _ in range(rank))

            def is_shift(lam):
                return (any(lam) and dot(rho, lam) == 0
                        and all(dot(k, lam) >= 0 for k in kappas)
                        and all(dot(k, lam) >= 1 for k in removed))

            want = minimal(filter(is_shift, box(rank, bound)))
            rho_vec = DualVector(rho, lattice="M")
            got = _minimal_shift(datum, subset, rho_vec, bound)
            assert got == want, (kappas, removed, rho)
            if want is None:
                none_found += 1
                continue
            norm = max(map(abs, want))
            assert _minimal_shift(datum, subset, rho_vec, norm) == want
            assert _minimal_shift(datum, subset, rho_vec, norm - 1) is None
            hit_at_bound += 1
    assert hit_at_bound and none_found
