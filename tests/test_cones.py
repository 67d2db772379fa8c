import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from demroots.cones import (Cone, ContainsLine, WeightMonoid, _dual_v_representation,
                            build_cone, dual_monoid, on_nonnegative_ray)
from demroots import cones, lattice
from demroots.lattice import DualVector, LatticeVector, RankMismatch, Sublattice, primitive_tuple

from conftest import (_same_open_ray, dot, in_cone_oracle, random_pointed_cone, rational_rank,
                      verify_hilbert_basis)


def dv(*c):
    return DualVector(c, lattice="M")


def lv(*c):
    return LatticeVector(c, lattice="M")


class TestBuildCone:
    def test_skew_cone(self):
        c = build_cone([dv(1, 0), dv(1, 2)])
        assert [r.coords for r in c.extremal_rays] == [(1, 0), (1, 2)]
        assert [f.coords for f in c.facet_normals] == [(0, 1), (2, -1)]

    def test_quadrant(self):
        c = build_cone([dv(1, 0), dv(0, 1)])
        assert [f.coords for f in c.facet_normals] == [(0, 1), (1, 0)]

    def test_redundant_generator_dropped(self):
        c = build_cone([dv(1, 0), dv(1, 1), dv(0, 1)])
        assert [r.coords for r in c.extremal_rays] == [(0, 1), (1, 0)]

    def test_generator_multiples_merged(self):
        c = build_cone([dv(2, 0), dv(3, 0)], rank=2)
        assert [r.coords for r in c.extremal_rays] == [(1, 0)]

    def test_zero_generators_dropped(self):
        c = build_cone([dv(0, 0), dv(1, 0)], rank=2)
        assert [r.coords for r in c.extremal_rays] == [(1, 0)]

    def test_zero_cone_needs_rank(self):
        with pytest.raises(ValueError):
            build_cone([])
        c = build_cone([], rank=2)
        assert c.extremal_rays == ()

    def test_line_raises_with_witness(self):
        with pytest.raises(ContainsLine) as err:
            build_cone([dv(1, 0), dv(-1, 0)])
        assert err.value.line.coords in ((1, 0), (-1, 0))

    def test_halfplane_raises(self):
        with pytest.raises(ContainsLine):
            build_cone([dv(1, 0), dv(-1, 1), dv(0, -1)])

    def test_skew_line_raises(self):
        with pytest.raises(ContainsLine) as err:
            build_cone([dv(2, 1), dv(-2, -1)])
        w = err.value.line.coords
        assert w in ((2, 1), (-2, -1))

    def test_rank_three(self):
        c = build_cone([dv(1, 0, 0), dv(0, 1, 0), dv(0, 0, 1), dv(1, 1, 1)])
        assert [r.coords for r in c.extremal_rays] == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert len(c.facet_normals) == 3

    def test_contains(self):
        c = build_cone([dv(1, 0), dv(1, 2)])
        assert c.contains(dv(3, 1))
        assert c.contains(dv(1, 2))
        assert not c.contains(dv(0, 1))
        assert not c.contains(dv(1, -1))

    def test_dual_contains(self):
        c = build_cone([dv(1, 0), dv(1, 2)])
        assert c.dual_contains(lv(2, -1))
        assert c.dual_contains(lv(0, 1))
        assert not c.dual_contains(lv(1, -1))


class TestRayPredicates:
    def test_on_nonnegative_ray(self):
        assert on_nonnegative_ray(dv(2, 4), dv(1, 2))
        assert not on_nonnegative_ray(dv(-1, -2), dv(1, 2))
        assert not on_nonnegative_ray(dv(1, 3), dv(1, 2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            on_nonnegative_ray(dv(0, 0), dv(1, 0))

    def test_mismatch_rejected(self):
        with pytest.raises(RankMismatch, match="different lattices"):
            on_nonnegative_ray(dv(1, 0), DualVector((1, 0), lattice="X(T)"))
        with pytest.raises(RankMismatch, match="rank mismatch: 2 vs 3"):
            on_nonnegative_ray(dv(1, 0), dv(1, 0, 0))

    def test_agrees_with_the_minor_rule(self):
        """Equal primitive vectors iff every 2x2 minor of (v, rho) vanishes
        and the pairing is positive, on at least 500 seeded pairs of rank 1-5."""
        rnd = random.Random(47)
        kinds = {"positive": 0, "negative": 0, "perturbed": 0, "random": 0}
        answers = set()
        for n in range(600):
            rank = 1 + n % 5
            rho = (0,) * rank
            while not any(rho):
                rho = tuple(rnd.choice((0, 0, rnd.randint(-4, 4))) for _ in range(rank))
            p = primitive_tuple(rho)
            kind = rnd.choice(sorted(kinds))
            if kind == "positive":
                v = tuple(rnd.randint(1, 5) * c for c in p)
            elif kind == "negative":
                v = tuple(-rnd.randint(1, 5) * c for c in p)
            elif kind == "perturbed":
                v = list(rho)
                v[rnd.randrange(rank)] += rnd.choice((-1, 1))
                v = tuple(v)
            else:
                v = tuple(rnd.randint(-3, 3) for _ in range(rank))
            if not any(v):
                continue
            kinds[kind] += 1
            expected = _same_open_ray(v, rho)
            assert on_nonnegative_ray(dv(*v), dv(*rho)) == expected, (v, rho)
            answers.add(expected)
        assert sum(kinds.values()) >= 500 and min(kinds.values()) >= 100, kinds
        assert answers == {True, False}


def cone_tiers(rnd, max_gens):
    """20 random pointed cones of rank 1-3 with entries within 3, then 6 of
    rank 4-5 with entries within 2."""
    for _ in range(20):
        yield random_pointed_cone(rnd, max_rank=3, max_gens=max_gens, entry=3)
    for _ in range(6):
        yield random_pointed_cone(rnd, min_rank=4, max_rank=5, max_gens=max_gens + 2, entry=2)


class TestDoubleDescriptionAgainstOracle:
    """H-representation from the library vs direct V-side rational solves."""

    def test_grid_agreement(self):
        rnd = random.Random(7)
        for cone, gens in cone_tiers(rnd, max_gens=4):
            nonzero = [g for g in gens if any(c != 0 for c in g)]
            if cone.rank <= 3:
                pts = list(product(range(-6, 7, 4), repeat=cone.rank))
            else:  # a grid costs 4^rank oracle calls; probe around the generators
                pts = [tuple(a + s * b for a, b in zip(g, h))
                       for g, h in combinations(nonzero, 2) for s in (1, -1)]
            for _ in range(12):
                pts.append(tuple(
                    Fraction(rnd.randint(-9, 9), rnd.randint(1, 3))
                    for _ in range(cone.rank)))
            for p in pts:
                by_facets = all(
                    sum(f * x for f, x in zip(n.coords, p)) >= 0
                    for n in cone.facet_normals)
                assert by_facets == in_cone_oracle(nonzero, p), (gens, p)

    def test_extremal_rays_are_irredundant(self):
        rnd = random.Random(11)
        for cone, gens in cone_tiers(rnd, max_gens=5):
            rays = [r.coords for r in cone.extremal_rays]
            nonzero = [g for g in gens if any(c != 0 for c in g)]
            for i, r in enumerate(rays):
                others = rays[:i] + rays[i + 1:]
                assert not in_cone_oracle(others, r), (gens, r)
            for g in nonzero:
                assert in_cone_oracle(rays, g), (gens, g)


def _det(rows):
    """Determinant over the rationals, by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        i = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if i is None:
            return 0
        if i != c:
            rows[c], rows[i] = rows[i], rows[c]
            det = -det
        det *= rows[c][c]
        for r in rows[c + 1:]:
            f = r[c] / rows[c][c]
            r[:] = [a - f * b for a, b in zip(r, rows[c])]
    return det


def _random_halves(rnd):
    """A raw halfspace set of rank 1-5, each rank equally likely, with one
    extra half: an opposite, a sum of two halves, a multiple, or zero."""
    rank = rnd.randint(1, 5)
    entry, most = (3, 5) if rank <= 3 else (2, 4)
    halves = [tuple(rnd.randint(-entry, entry) for _ in range(rank))
              for _ in range(rnd.randint(0, most))]
    if halves:
        a, b = rnd.choice(halves), rnd.choice(halves)
        halves.append(rnd.choice((tuple(-x for x in a), tuple(x + y for x, y in zip(a, b)),
                                  tuple(2 * x for x in a), (0,) * rank)))
        rnd.shuffle(halves)
    return rank, halves


class TestDoubleDescriptionOnRawHalfspaces:
    """_dual_v_representation on random halfspace sets, lineality included,
    against V-side rational solves, with its rays lifted from the quotient."""

    def test_random_halfspace_sets(self):
        rnd = random.Random(2024)
        kinds = dict(lineality=0, opposite=0, redundant=0)
        for _ in range(2000):
            rank, halves = _random_halves(rnd)
            units_basis, section, rows, quotient_rays = _dual_v_representation(halves, rank)
            lin = sorted(units_basis)
            rays = sorted(tuple(sum(c * s[j] for c, s in zip(y, section)) for j in range(rank))
                          for y in quotient_rays)
            # The units and the section form a basis of Z^rank; the rows are
            # the distinct primitive halves read on the section.
            assert abs(_det(list(units_basis) + list(section))) == 1, halves
            distinct = dict.fromkeys(primitive_tuple(h) for h in halves if any(h))
            assert list(rows) == [tuple(sum(f * x for f, x in zip(h, s)) for s in section)
                                  for h in distinct], halves
            # The units and minus their sum span the lineality as a cone.
            units = lin + [tuple(-sum(c) for c in zip(*lin))] if lin else []
            nonzero = {h for h in halves if any(h)}
            kinds["lineality"] += bool(lin)
            kinds["opposite"] += any(tuple(-x for x in h) in nonzero for h in nonzero)
            kinds["redundant"] += any(tuple(x + y for x, y in zip(a, b)) in nonzero
                                      for a, b in combinations(nonzero, 2))

            # Probe beside the rays and at random; a grid on the line.
            probes = 2 if rank <= 3 else 1
            pts = [tuple(x + s * (i == j) for j, x in enumerate(r))
                   for r in rays for i in range(rank) for s in (1, -1)]
            pts = rnd.sample(pts, min(probes, len(pts)))
            pts += [tuple(Fraction(rnd.randint(-6, 6), rnd.randint(1, 2))
                          for _ in range(rank)) for _ in range(probes)]
            if rank == 1:
                pts += [(-1,), (0,), (1,)]
            for p in pts:
                inside = all(sum(f * x for f, x in zip(h, p)) >= 0 for h in halves)
                assert inside == in_cone_oracle(rays + units, p), (halves, p)

            dim = rational_rank(halves)
            for i, r in enumerate(rays):
                active = [h for h in halves if sum(f * x for f, x in zip(h, r)) == 0]
                assert rational_rank(active) == dim - 1, (halves, r)
                assert not in_cone_oracle(rays[:i] + rays[i + 1:] + units, r), (halves, r)
        assert min(kinds.values()) >= 100, kinds

    def test_lineality_split_up_to_rank_8(self):
        """Halves of rank 1-8 in an ambient lattice one or two ranks larger,
        with a zero, a repeated and a doubled row besides the dependent ones:
        the units and the section form a basis of Z^rank, every half vanishes
        on the units, and the rows are the halves read on the section. So the
        units span the whole saturated kernel."""
        rnd = random.Random(8)
        start = time.perf_counter()
        for case in range(80):
            width = case % 8 + 1
            rank = width + rnd.randint(1, 2)
            L = [[rnd.randint(-2, 2) for _ in range(width)]
                 for _ in range(width + rnd.randint(0, 3))]
            R = [[rnd.randint(-3, 3) for _ in range(rank)] for _ in range(width)]
            halves = [tuple(dot(a, c) for c in zip(*R)) for a in L]
            a = rnd.choice(halves)
            halves += [(0,) * rank, a, tuple(2 * x for x in a)]
            rnd.shuffle(halves)
            units, section, rows, _ = _dual_v_representation(halves, rank)
            assert len(units) == rank - rational_rank(halves), halves
            assert abs(_det(list(section) + list(units))) == 1, halves
            assert all(dot(h, u) == 0 for h in halves for u in units), halves
            distinct = dict.fromkeys(primitive_tuple(h) for h in halves if any(h))
            assert list(rows) == [tuple(dot(h, s) for s in section) for h in distinct], halves
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"splits took {elapsed:.2f} s"

    def test_ladder_of_many_halves_within_budget(self):
        """Pointed halfspace sets of rank 4-6 with 40-80 halves, hundreds of
        rays at rank 6: the same rank and irredundancy checks on a sample of
        the rays, and the same rays for the halves in another order. Without
        the adjacency rank filter the three descriptions took about 3 s."""
        rnd = random.Random(5)
        elapsed = 0.0
        for rank, count in ((4, 40), (5, 60), (6, 80)):
            halves = [(rnd.randint(5, 9),) + tuple(rnd.randint(-4, 4) for _ in range(rank - 1))
                      for _ in range(count)]
            start = time.perf_counter()
            units, _, _, rays = _dual_v_representation(halves, rank)
            elapsed += time.perf_counter() - start
            assert not units and len(rays) >= 5 * rank, (rank, len(rays))
            shuffled = rnd.sample(halves, len(halves))
            assert _dual_v_representation(shuffled, rank)[3] == rays, rank
            for r in rnd.sample(rays, min(40, len(rays))):
                active = [h for h in halves if dot(h, r) == 0]
                assert all(dot(h, r) >= 0 for h in halves), (rank, r)
                assert rational_rank(active) == rank - 1, (rank, r)
                # a combination giving r uses only rays active where r is
                face = [s for s in rays if s != r and all(dot(h, s) == 0 for h in active)]
                assert not in_cone_oracle(face, r), (rank, r)
        assert elapsed < 1.5, f"double descriptions took {elapsed:.2f} s"


class TestDualMonoid:
    def test_skew_hilbert(self):
        c = build_cone([dv(1, 0), dv(1, 2)])
        basis = [v.coords for v in dual_monoid(c).hilbert_basis]
        assert basis == [(0, 1), (1, 0), (2, -1)]

    def test_quadrant_hilbert(self):
        c = build_cone([dv(1, 0), dv(0, 1)])
        assert [v.coords for v in dual_monoid(c).hilbert_basis] == [(0, 1), (1, 0)]

    def test_halfplane_units(self):
        c = build_cone([dv(1, 0)], rank=2)
        basis = [v.coords for v in dual_monoid(c).hilbert_basis]
        assert basis == [(0, -1), (0, 1), (1, 0)]

    def test_zero_cone_all_units(self):
        c = build_cone([], rank=2)
        basis = [v.coords for v in dual_monoid(c).hilbert_basis]
        assert basis == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_simplicial_three(self):
        c = build_cone([dv(1, 0, 0), dv(0, 1, 0), dv(0, 0, 1)])
        basis = [v.coords for v in dual_monoid(c).hilbert_basis]
        assert basis == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_singular_quadric_cone(self):
        # cone over a square: dual monoid needs the interior generator
        c = build_cone([dv(1, 0, 0), dv(0, 1, 0), dv(1, 0, 1), dv(0, 1, 1)])
        basis = [v.coords for v in dual_monoid(c).hilbert_basis]
        assert (1, 1, -1) in basis
        verify_hilbert_basis([g.coords for g in c.generators],
                             basis, box_bound=3)

    def test_membership(self):
        c = build_cone([dv(1, 0), dv(1, 2)])
        m = dual_monoid(c)
        assert m.contains(lv(2, -1))
        assert m.contains(lv(3, -1))
        assert not m.contains(lv(1, -1))

    def test_random_cones_verified(self):
        rnd = random.Random(23)
        done = 0
        while done < 12:
            cone, gens = random_pointed_cone(rnd, max_rank=3, max_gens=4, entry=2)
            nonzero = [g for g in gens if any(c != 0 for c in g)]
            if not nonzero:
                continue
            # w-descent checker needs a full-dimensional cone
            from demroots.lattice import matrix_rank
            if matrix_rank(nonzero) != cone.rank:
                continue
            basis = [v.coords for v in dual_monoid(cone).hilbert_basis]
            verify_hilbert_basis(nonzero, basis, box_bound=2)
            done += 1

    def test_sublattice_restriction(self):
        c = build_cone([dv(1, 0), dv(0, 1)])
        sub = Sublattice(2, ((2, 0), (0, 1)), lattice="M")
        basis = [v.coords for v in dual_monoid(c, sublattice=sub).hilbert_basis]
        assert basis == [(0, 1), (2, 0)]

    def test_sublattice_skew(self):
        c = build_cone([dv(1, 0), dv(1, 2)])
        sub = Sublattice(2, ((1, 1), (0, 2)), lattice="M")
        m = dual_monoid(c, sublattice=sub)
        for v in m.hilbert_basis:
            assert sub.contains(v)
            assert c.dual_contains(v)

    def test_sublattice_membership(self):
        c = build_cone([dv(1, 0), dv(0, 1)])
        m = dual_monoid(c, Sublattice(2, ((2, 0), (0, 1)), "M"))
        assert m.contains(lv(2, 3))
        assert not m.contains(lv(1, 0))
        assert dual_monoid(c).contains(lv(1, 0))

    def test_sublattice_of_another_lattice_rejected(self):
        c = build_cone([dv(1, 0), dv(0, 1)])
        with pytest.raises(RankMismatch):
            dual_monoid(c, Sublattice(2, ((2, 0), (0, 1))))


class TestStoredQuotient:
    """build_cone keeps the dual cone's quotient; dual_monoid only reads it."""

    def test_dual_monoid_makes_no_smith_form(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        c = build_cone([dv(1, 0, 0), dv(0, 1, 0)])
        assert c.dual_lineality
        for module in (lattice, cones):
            monkeypatch.setattr(module, "_echelon", counted("_echelon", module._echelon))
        build_cone([dv(1, 0, 0), dv(0, 1, 0)])
        assert calls == ["_echelon"]
        calls.clear()
        basis = [v.coords for v in dual_monoid(c).hilbert_basis]
        assert basis == [(0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert calls == []

    def test_equal_generators_equal_cones(self):
        gens = [dv(1, 0, 0), dv(1, 2, 0), dv(0, 0, 0)]
        a, b = build_cone(gens), build_cone(list(gens))
        assert a == b and hash(a) == hash(b)
        assert a._quotient == b._quotient
        assert "_quotient" not in repr(a)
        assert repr(a) == repr(b)
