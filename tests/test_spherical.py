import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import demroots
from demroots.catalog import CATALOG, example
from demroots.lattice import DualVector, LatticeVector, Sublattice, smith_normal_form
from demroots.rootsystems import standard_root_system, torus_root_system
from demroots.spherical import (ColorSubset, DatumError, Divisor, SphericalDatum,
                                chart, full_cone, levi_subset, slice_cone, slice_monoid,
                                validate, weight_monoid)

from conftest import random_pointed_cone


def gstable(name, kappa):
    return Divisor(name=name, kappa=DualVector(kappa, lattice="M"), kind="g-stable")


def color(name, kappa, t, moved):
    return Divisor(name=name, kappa=DualVector(kappa, lattice="M"), kind="color",
                   color_type=t, moved_by=frozenset(moved))


class TestDivisorShape:
    def test_color_needs_type(self):
        with pytest.raises(DatumError):
            Divisor(name="d", kappa=DualVector((1,), lattice="M"), kind="color",
                    moved_by=frozenset({0}))

    def test_color_needs_mover(self):
        with pytest.raises(DatumError):
            Divisor(name="d", kappa=DualVector((1,), lattice="M"), kind="color",
                    color_type="U")

    def test_g_stable_rejects_color_fields(self):
        with pytest.raises(DatumError):
            Divisor(name="d", kappa=DualVector((1,), lattice="M"),
                    kind="g-stable", color_type="T")
        with pytest.raises(DatumError):
            Divisor(name="d", kappa=DualVector((1,), lattice="M"),
                    kind="g-stable", moved_by=frozenset({0}))

    def test_unknown_kind(self):
        with pytest.raises(DatumError):
            Divisor(name="d", kappa=DualVector((1,), lattice="M"), kind="open")

    def test_bad_type(self):
        with pytest.raises(DatumError):
            color("d", (1,), "X", {0})


class TestDatumShape:
    def test_duplicate_names(self):
        with pytest.raises(DatumError):
            SphericalDatum(root_system=torus_root_system(1),
                           weight_lattice=Sublattice.full(1),
                           divisors=(gstable("d", (1,)), gstable("d", (2,))))

    def test_kappa_rank_checked(self):
        with pytest.raises(DatumError):
            SphericalDatum(root_system=torus_root_system(2),
                           weight_lattice=Sublattice.full(2),
                           divisors=(gstable("d", (1,)),))

    def test_mover_index_checked(self):
        with pytest.raises(DatumError):
            SphericalDatum(root_system=standard_root_system("A", 1),
                           weight_lattice=Sublattice.full(1),
                           divisors=(color("d", (1,), "U", {3}),))

    def test_ambient_rank_mismatch(self):
        with pytest.raises(DatumError):
            SphericalDatum(root_system=torus_root_system(2),
                           weight_lattice=Sublattice.full(3),
                           divisors=())

    def test_divisor_lookup(self):
        d = CATALOG["sl2-times-torus"]
        assert d.divisor("axis").kind == "g-stable"
        with pytest.raises(DatumError):
            d.divisor("nope")

    def test_partitions(self):
        d = CATALOG["sl2-times-torus"]
        assert [c.name for c in d.colors] == ["line"]
        assert [g.name for g in d.g_stable_divisors] == ["axis"]


class TestDatumHash:
    def parts(self):
        return (standard_root_system("A", 1, 2), Sublattice(2, ((2, 0), (1, 1))),
                [color("c", (1, 0), "U", {0}), gstable("g", (0, 1))])

    def test_equal_records_built_twice_hash_equal(self):
        a, b = (SphericalDatum(*self.parts()) for _ in range(2))
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.root_system, a.weight_lattice, a.divisors))
        assert slice_cone(a) is slice_cone(b)

    def test_replace_rehashes(self):
        d = SphericalDatum(*self.parts())
        moved = SphericalDatum(d.root_system, d.weight_lattice, d.divisors[:1])
        assert moved != d
        assert hash(moved) == hash(SphericalDatum(d.root_system, d.weight_lattice,
                                                  d.divisors[:1]))
        assert hash(moved) == hash((d.root_system, d.weight_lattice, d.divisors[:1]))
        same = SphericalDatum(d.root_system, d.weight_lattice, d.divisors)
        assert same == d and hash(same) == hash(d)

    def test_repr_and_equality_ignore_the_stored_hash(self):
        rs, lattice, divisors = self.parts()
        d = SphericalDatum(rs, lattice, divisors)
        assert repr(d) == (f"SphericalDatum(root_system={rs!r}, "
                           f"weight_lattice={lattice!r}, divisors={tuple(divisors)!r})")
        other = SphericalDatum(rs, lattice, divisors)
        object.__setattr__(other, "_hash", hash(d) + 1)
        assert other == d
        # each of the three compared fields tells records apart
        assert d != SphericalDatum(standard_root_system("A", 2), lattice, divisors)
        assert d != SphericalDatum(rs, Sublattice.full(2), divisors)
        assert d != SphericalDatum(rs, lattice, divisors[:1])

    def test_a_record_pickled_in_another_process_hashes_afresh(self, tmp_path):
        """String hashes are salted per process: a record pickled under one
        PYTHONHASHSEED and loaded under another must hash like a record built
        there, so that it finds its equal in a set and shares its chart."""
        src = str(Path(demroots.__file__).resolve().parent.parent)
        build = ("import pickle, sys\n"
                 "from pathlib import Path\n"
                 "from demroots.catalog import CATALOG\n"
                 "from demroots.spherical import chart\n")

        def run(seed, code):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", build + code, str(tmp_path / "p")],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.split()

        run("1", "Path(sys.argv[1]).write_bytes(pickle.dumps(CATALOG['sl2-times-torus']))")
        assert run("2", "p = pickle.loads(Path(sys.argv[1]).read_bytes())\n"
                        "f = CATALOG['sl2-times-torus']\n"
                        "print(p == f, hash(p) == hash(f), p in {f}, "
                        "chart(p, None) is chart(f, None))") == ["True"] * 4


class TestValidation:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_records_pass(self, name):
        report = validate(CATALOG[name])
        assert report.ok, [c.detail for c in report.failures()]
        assert {c.name for c in report.checks} >= {
            "strict-convexity", "weight-monoid-spans-M", "type-T-moving-rule"}

    def test_line_detected(self):
        bad = SphericalDatum(root_system=torus_root_system(2),
                             weight_lattice=Sublattice.full(2),
                             divisors=(gstable("a", (1, 1)), gstable("b", (-1, -1))))
        report = validate(bad)
        assert not report.ok
        names = [c.name for c in report.failures()]
        assert names == ["strict-convexity"]
        assert "(1, 1)" in report.failures()[0].detail \
            or "(-1, -1)" in report.failures()[0].detail

    def test_lone_t_color_detected(self):
        bad = SphericalDatum(root_system=standard_root_system("A", 1),
                             weight_lattice=Sublattice.full(1),
                             divisors=(color("d", (1,), "T", {0}),))
        report = validate(bad)
        assert not report.ok
        fail = report.failures()[0]
        assert fail.name == "type-T-moving-rule"
        assert "'d'" in fail.detail

    def test_t_color_paired_passes(self):
        ok = CATALOG["sl2-two-colors"]
        report = validate(ok)
        assert report.ok

    def test_spans_check_agrees_with_the_hilbert_basis_rule(self):
        """validate passes weight-monoid-spans-M on every strictly convex record;
        the rule it replaced read the verdict off the Smith form of the weight
        monoid's Hilbert basis: rank invariant factors, all 1."""
        rnd = random.Random(29)
        seen = {rank: 0 for rank in range(1, 6)}
        while min(seen.values()) < 12:
            cone, gens = random_pointed_cone(rnd, max_rank=5, max_gens=6, entry=3)
            rank = cone.rank
            datum = SphericalDatum(
                root_system=torus_root_system(rank), weight_lattice=Sublattice.full(rank),
                divisors=tuple(gstable(f"d{i}", g) for i, g in enumerate(gens)))
            try:
                basis = weight_monoid(datum).hilbert_basis
            except ValueError as exc:  # over the zonotope cap: no reference
                assert "too large" in str(exc)
                continue
            D = smith_normal_form([v.coords for v in basis])[1] if basis else ()
            factors = [D[i][i] for i in range(min(len(D), rank)) if D[i][i]]
            old_rule = len(factors) == rank and all(f == 1 for f in factors)
            checks = {c.name: c.passed for c in validate(datum).checks}
            assert checks["strict-convexity"]
            assert checks["weight-monoid-spans-M"] == old_rule, gens
            seen[rank] += 1


class TestColorSubset:
    def test_default_keeps_all(self):
        d = CATALOG["sl2-times-torus"]
        assert [c.name for c in chart(d, ColorSubset()).removed] == ["line"]
        assert [x.name for x in chart(d, ColorSubset()).divisors] == ["axis"]

    def test_exclude_t_color(self):
        d = CATALOG["blurring-pair"]
        sub = ColorSubset("tcol")
        assert [c.name for c in chart(d, sub).removed] == ["ucol"]
        assert [x.name for x in chart(d, sub).divisors] == ["tcol"]

    def test_exclude_u_color_rejected(self):
        d = CATALOG["blurring-pair"]
        with pytest.raises(DatumError,
                           match="only a type-T color can be excluded; 'ucol' has type U"):
            chart(d, ColorSubset("ucol"))

    def test_exclude_g_stable_rejected(self):
        d = CATALOG["sl2-times-torus"]
        with pytest.raises(DatumError, match="'axis' is G-stable, not a color"):
            chart(d, ColorSubset("axis"))

    def test_exclude_unknown_rejected(self):
        d = CATALOG["sl2-times-torus"]
        with pytest.raises(DatumError, match="no divisor named 'nothing'"):
            chart(d, ColorSubset("nothing"))


class TestConesAndMonoids:
    def test_full_cone_quadrant(self):
        c = full_cone(CATALOG["torus-quadrant"])
        assert [r.coords for r in c.extremal_rays] == [(0, 1), (1, 0)]

    def test_weight_monoid(self):
        m = weight_monoid(CATALOG["torus-skew"])
        assert [v.coords for v in m.hilbert_basis] == [(0, 1), (1, 0), (2, -1)]

    def test_slice_cone_drops_colors(self):
        d = CATALOG["sl2-times-torus"]
        c = slice_cone(d, ColorSubset())
        assert [r.coords for r in c.extremal_rays] == [(0, 1)]

    def test_slice_monoid_gains_units(self):
        d = CATALOG["sl2-times-torus"]
        m = slice_monoid(d, ColorSubset())
        assert [v.coords for v in m.hilbert_basis] == [(-1, 0), (0, 1), (1, 0)]

    def test_slice_with_excluded_color(self):
        d = CATALOG["blurring-pair"]
        c = slice_cone(d, ColorSubset("tcol"))
        assert [r.coords for r in c.extremal_rays] == [(1, 0)]

    def test_empty_chart_cone(self):
        d = CATALOG["sl2-plane"]
        c = slice_cone(d, ColorSubset())
        assert c.extremal_rays == ()

    def test_slice_cone_is_the_full_cone_when_the_chart_keeps_every_divisor(self):
        # Other tests may have evicted the full chart but not a colour chart.
        chart.cache_clear()
        d = CATALOG["torus-quadrant"]
        assert slice_cone(d, ColorSubset()) is full_cone(d)
        # Excluding the only color keeps every divisor on the chart too.
        lone = SphericalDatum(root_system=standard_root_system("A", 1),
                              weight_lattice=Sublattice.full(1),
                              divisors=(gstable("g", (1,)), color("t", (2,), "T", {0})))
        assert slice_cone(lone, ColorSubset("t")) is full_cone(lone)
        assert slice_cone(lone, ColorSubset()) is not full_cone(lone)
        d = CATALOG["sl2-times-torus"]
        assert slice_cone(d, ColorSubset()) is not full_cone(d)
        assert slice_cone(d, ColorSubset()).extremal_rays != full_cone(d).extremal_rays

    def test_caching(self):
        d = CATALOG["torus-quadrant"]
        assert full_cone(d) is full_cone(d)
        assert slice_cone(d, ColorSubset()) is slice_cone(d, ColorSubset())


class TestLeviSubset:
    def test_torus_has_empty_levi(self):
        assert levi_subset(CATALOG["torus-quadrant"]) == frozenset()

    def test_sl2_colors_move_root(self):
        assert levi_subset(CATALOG["sl2-times-torus"]) == frozenset()

    def test_unmoved_root_stays(self):
        rs = standard_root_system("A", 2)
        d = SphericalDatum(root_system=rs, weight_lattice=Sublattice.full(2),
                           divisors=(color("c", (1, 0), "U", {0}),
                                     gstable("g", (0, 1))))
        assert levi_subset(d) == frozenset({1})

    def test_exclusion_preserves_levi(self):
        d = CATALOG["blurring-pair"]
        assert levi_subset(d, ColorSubset("tcol")) == levi_subset(d)

    def test_lone_t_exclusion_raises(self):
        # removing the only color moved by root 0 would change the stabilizer
        bad = SphericalDatum(root_system=standard_root_system("A", 1),
                             weight_lattice=Sublattice.full(1),
                             divisors=(color("d", (1,), "T", {0}),))
        with pytest.raises(DatumError):
            levi_subset(bad, ColorSubset("d"))

    def test_example_lookup(self):
        assert example("torus-skew") is CATALOG["torus-skew"]
        with pytest.raises(KeyError):
            example("absent")
