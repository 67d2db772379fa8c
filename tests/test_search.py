import json
import random
import time

import pytest

from demroots.catalog import CATALOG
from demroots.datumio import parse_datum
from demroots.lattice import DualVector, Sublattice
from demroots.rootsystems import standard_root_system, torus_root_system
from demroots.search import (check_divisor_ray, find_witness, gstable_report)
from demroots.spherical import (ColorSubset, Divisor, SphericalDatum, chart, slice_cone,
                                validate)

from conftest import random_pointed_cone


def gstable(name, kappa):
    return Divisor(name=name, kappa=DualVector(kappa, lattice="M"), kind="g-stable")


class TestRayCheck:
    def test_holds_alone_on_ray(self):
        c = check_divisor_ray(CATALOG["sl2-times-torus"], "axis")
        assert c.status == "holds"
        assert c.ray.coords == (0, 1)
        assert c.sharing == ()

    def test_u_color_impossible(self):
        c = check_divisor_ray(CATALOG["sl2-plane"], "line")
        assert c.status == "impossible"
        assert "type U" in c.reason

    def test_n_color_impossible(self):
        d = CATALOG["blurring-pair"]
        bad = SphericalDatum(
            root_system=d.root_system, weight_lattice=d.weight_lattice,
            divisors=(Divisor(name="ncol", kappa=DualVector((1, 0), lattice="M"),
                              kind="color", color_type="N", moved_by=frozenset({0})),
                      d.divisors[1]))
        c = check_divisor_ray(bad, "ncol")
        assert c.status == "impossible"

    def test_t_color_allowed(self):
        c = check_divisor_ray(CATALOG["blurring-pair"], "tcol")
        assert c.status == "holds"
        assert c.ray.coords == (1, 0)

    def test_shared_ray_fails(self):
        c = check_divisor_ray(CATALOG["shared-ray"], "inner")
        assert c.status == "fails"
        assert c.sharing == ("outer",)
        c = check_divisor_ray(CATALOG["shared-ray"], "outer")
        assert c.sharing == ("inner",)

    def test_two_t_colors_share(self):
        c = check_divisor_ray(CATALOG["sl2-two-colors"], "plus")
        assert c.status == "fails"
        assert c.sharing == ("minus",)

    def test_zero_valuation_fails(self):
        d = SphericalDatum(
            root_system=torus_root_system(2),
            weight_lattice=Sublattice.full(2),
            divisors=(Divisor(name="flat", kappa=DualVector((0, 0), lattice="M"),
                              kind="g-stable"),
                      Divisor(name="edge", kappa=DualVector((1, 0), lattice="M"),
                              kind="g-stable")))
        c = check_divisor_ray(d, "flat")
        assert c.status == "fails"
        assert "zero" in c.reason

    def test_interior_ray_fails(self):
        d = SphericalDatum(
            root_system=torus_root_system(2),
            weight_lattice=Sublattice.full(2),
            divisors=(Divisor(name="a", kappa=DualVector((1, 0), lattice="M"),
                              kind="g-stable"),
                      Divisor(name="b", kappa=DualVector((0, 1), lattice="M"),
                              kind="g-stable"),
                      Divisor(name="mid", kappa=DualVector((1, 1), lattice="M"),
                              kind="g-stable")))
        c = check_divisor_ray(d, "mid")
        assert c.status == "fails"
        assert "extremal" in c.reason

    def test_held_ray_is_extremal_on_the_chart(self):
        """The chart cone lies in the full cone and contains the divisor's
        ray, so a ray extremal in the full cone stays extremal on the chart:
        on the bundled records, on 60 random valid torus records of rank 2-5
        and on random valid SL2 x torus records with colors."""
        rnd = random.Random(83)
        records = list(CATALOG.values())
        while len(records) < len(CATALOG) + 60:
            cone, gens = random_pointed_cone(rnd, min_rank=2, max_rank=5, max_gens=6, entry=3)
            records.append(SphericalDatum(
                root_system=torus_root_system(cone.rank),
                weight_lattice=Sublattice.full(cone.rank),
                divisors=tuple(gstable(f"d{i}", g) for i, g in enumerate(gens))))
        colored = 0
        while colored < 40:
            rank = rnd.randint(2, 5)
            divisors = []
            for i in range(rnd.randint(2, 5)):
                kappa = tuple(rnd.randint(-2, 2) for _ in range(rank))
                if rnd.random() < 0.5:
                    divisors.append(gstable(f"d{i}", kappa))
                else:
                    divisors.append(Divisor(
                        name=f"d{i}", kappa=DualVector(kappa, lattice="M"), kind="color",
                        color_type=rnd.choice("TTU"), moved_by=frozenset({0})))
            datum = SphericalDatum(
                root_system=standard_root_system("A", 1, ambient_rank=rank),
                weight_lattice=Sublattice.full(rank), divisors=tuple(divisors))
            if datum.colors and validate(datum).ok:
                records.append(datum)
                colored += 1
        held = sliced = 0
        for datum in records:
            for d in datum.divisors:
                check = check_divisor_ray(datum, d.name)
                if check.status != "holds":
                    continue
                subset = ColorSubset(d.name if d.is_color() else None)
                assert check.ray in slice_cone(datum, subset).extremal_rays, (datum, d.name)
                held += 1
                sliced += bool(chart(datum, subset).removed)
        assert held >= 100 and sliced >= 50, (held, sliced)


class TestFindWitness:
    def test_quadrant_axes(self):
        d = CATALOG["torus-quadrant"]
        r = find_witness(d, "axis-x")
        assert r.status == "witness"
        assert r.witness.ray.coords == (1, 0)
        assert r.witness.mu.coords == (-1, 0)
        assert r.witness.shift.coords == (0, 1)
        r = find_witness(d, "axis-y")
        assert r.witness.mu.coords == (0, -1)
        assert r.witness.shift.coords == (1, 0)

    def test_sl2_times_torus_axis(self):
        r = find_witness(CATALOG["sl2-times-torus"], "axis")
        assert r.status == "witness"
        assert r.witness.ray.coords == (0, 1)
        assert r.witness.mu.coords == (0, -1)
        assert r.witness.shift.coords == (1, 0)
        assert r.witness.family == ("N*(1, 0) + (0, -1) for all integers N >= "
                                    "some N0 (N0 not determined by this record)")

    def test_skew_edges(self):
        d = CATALOG["torus-skew"]
        r = find_witness(d, "edge-a")
        assert (r.witness.mu.coords, r.witness.shift.coords) == ((-1, 1), (0, 1))
        r = find_witness(d, "edge-b")
        assert (r.witness.mu.coords, r.witness.shift.coords) == ((1, -1), (2, -1))

    def test_blurring_t_color(self):
        r = find_witness(CATALOG["blurring-pair"], "tcol")
        assert r.status == "witness"
        assert r.witness.mu.coords == (-1, 0)
        assert r.witness.shift.coords == (0, 1)

    def test_failed_check_short_circuits(self):
        r = find_witness(CATALOG["shared-ray"], "inner")
        assert r.status == "fails"
        assert r.witness is None

    def test_impossible_short_circuits(self):
        r = find_witness(CATALOG["sl2-plane"], "line")
        assert r.status == "impossible"

    def test_tiny_bound_inconclusive(self):
        r = find_witness(CATALOG["torus-quadrant"], "axis-x", search_bound=0)
        assert r.status == "inconclusive"
        assert r.witness is None
        assert r.searched == ("demazure root", 0, 0)

    def test_inconclusive_shift_names_its_range(self):
        # mu = (1, -1) lies in shell 1, the smallest shift (2, -1) in shell 2.
        r = find_witness(CATALOG["torus-skew"], "edge-b", search_bound=1)
        assert r.status == "inconclusive"
        assert r.searched == ("shift", 1, 1)
        assert find_witness(CATALOG["torus-skew"], "edge-b").searched is None

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            find_witness(CATALOG["torus-quadrant"], "axis-x", search_bound=-1)
        # rejected before the ray test, which would end the search early
        with pytest.raises(ValueError, match="nonnegative"):
            find_witness(CATALOG["sl2-plane"], "line", search_bound=-1)

    def test_shift_positive_on_removed_colors(self):
        d = CATALOG["sl2-times-torus"]
        r = find_witness(d, "axis")
        lam = r.witness.shift
        for c in d.colors:
            assert sum(a * b for a, b in zip(c.kappa.coords, lam.coords)) >= 1


class TestGstableReport:
    def test_row_order_matches_record(self):
        d = CATALOG["torus-space"]
        rows = gstable_report(d)
        assert [r.divisor for r in rows] == ["plane-yz", "plane-xz", "plane-xy"]
        assert all(r.status == "witness" for r in rows)

    def test_no_g_stables_empty(self):
        assert gstable_report(CATALOG["sl2-plane"]) == ()

    def test_mixed_statuses(self):
        rows = gstable_report(CATALOG["shared-ray"])
        assert [r.status for r in rows] == ["fails", "fails"]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gstable_report(CATALOG["torus-space"], search_bound=-1)
        # also on a record without G-stable divisors, where nothing is searched
        with pytest.raises(ValueError, match="nonnegative"):
            gstable_report(CATALOG["sl2-plane"], search_bound=-1)

    def test_rank5_record_within_budget(self):
        kappas = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                  (0, 0, 0, 1, 0), (1, 1, 1, 1, -2), (0, 0, 0, 0, 1),
                  (2, -1, 0, 3, 1)]
        doc = {"cartan": {"ambient_rank": 5, "simple_roots": [],
                          "simple_coroots": []},
               "lattice_M": {"basis_rows": [[int(i == j) for j in range(5)]
                                            for i in range(5)]},
               "divisors": [{"name": f"d{i}", "kappa": list(k), "kind": "g-stable"}
                            for i, k in enumerate(kappas)]}
        datum = parse_datum(json.dumps(doc))
        start = time.perf_counter()
        rows = gstable_report(datum)
        elapsed = time.perf_counter() - start
        assert [r.status for r in rows] == ["witness"] * 7
        assert rows[3].witness.mu.coords == (2, 0, 0, -1, 0)
        assert elapsed < 2.0, f"rank-5 report took {elapsed:.2f} s"
        assert validate(datum).ok

    def test_halfplane(self):
        rows = gstable_report(CATALOG["torus-halfplane"])
        assert len(rows) == 1
        w = rows[0].witness
        assert w.mu.coords == (-1, 0)
        assert w.shift.coords == (0, -1)
