import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from demroots.cones import (Cone, ContainsLine, WeightMonoid, build_cone,
                            dual_monoid, on_nonnegative_ray)
from demroots.lattice import DualVector, LatticeVector, Sublattice

from conftest import in_cone_oracle, random_pointed_cone, verify_hilbert_basis


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
