import random
from collections import Counter
from fractions import Fraction

import pytest

from demroots.catalog import CATALOG
from demroots.classifier import (Classification, LndDescriptor, classify,
                                 congruent_summand_weights, lnd_basis,
                                 realizable_summand_weights)
from demroots.lattice import DualVector, LatticeVector, Sublattice, smith_normal_form
from demroots.rootsystems import nilradical_highest_weights, standard_root_system
from demroots.spherical import (ColorSubset, DatumError, Divisor, SphericalDatum,
                                levi_subset, slice_cone)
from demroots.toric import demazure_ray

from conftest import rational_rank

ALL = ColorSubset()


def xt(*c):
    return LatticeVector(c, lattice="X(T)")


class TestDescriptorShape:
    def test_unipotent_requires_root(self):
        with pytest.raises(ValueError):
            LndDescriptor(weight=xt(0, 0), kind="unipotent")

    def test_toric_requires_ray(self):
        with pytest.raises(ValueError):
            LndDescriptor(weight=xt(0, 0), kind="toric")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LndDescriptor(weight=xt(0, 0), kind="mixed",
                          root=xt(1, 1), ray=DualVector((1, 0), lattice="M"))

    def test_coefficient_coerced(self):
        d = LndDescriptor(weight=xt(0, 0), kind="unipotent", root=xt(2, 0),
                          coefficient=2)
        assert d.coefficient == Fraction(2)


class TestSummandWeights:
    def test_congruent_needs_lattice_membership(self):
        d = CATALOG["sl2-two-colors"]  # M = 2Z inside X(T) = Z
        assert [a.coords for a in congruent_summand_weights(d, xt(0))] == [(2,)]
        assert congruent_summand_weights(d, xt(1)) == ()

    def test_realizable_needs_chart_weight(self):
        d = CATALOG["sl2-times-torus"]
        # mu - alpha = (0, 0) pairs 0 with the chart ray: realizable
        assert [a.coords for a in realizable_summand_weights(d, ALL, xt(2, 0))] \
            == [(2, 0)]
        # mu - alpha = (-2, -1) pairs -1 with the chart ray (0, 1): dropped
        assert congruent_summand_weights(d, xt(0, -1)) == (xt(2, 0),)
        assert realizable_summand_weights(d, ALL, xt(0, -1)) == ()

    def test_weight_tag_checked(self):
        d = CATALOG["sl2-times-torus"]
        with pytest.raises(DatumError):
            congruent_summand_weights(d, LatticeVector((0, 0), lattice="M"))
        with pytest.raises(DatumError):
            congruent_summand_weights(d, xt(0))

    def test_chart_levi_is_the_one_levi_read(self):
        # Excluding the lone type-T color d changes the chart stabilizer. The
        # summand table of that chart reads that chart's Levi, so the Levi,
        # the basis and the realizable weights all refuse the record alike.
        bad = SphericalDatum(root_system=standard_root_system("A", 1),
                             weight_lattice=Sublattice.full(1),
                             divisors=(Divisor("d", DualVector((1,), "M"), "color", "T",
                                               frozenset({0})),))
        chart = ColorSubset("d")
        for call in (lambda: levi_subset(bad, chart),
                     lambda: lnd_basis(bad, chart, xt(2)),
                     lambda: realizable_summand_weights(bad, chart, xt(2))):
            with pytest.raises(DatumError, match="changes the chart stabilizer"):
                call()


class TestLndBasis:
    def test_toric_only(self):
        d = CATALOG["sl2-times-torus"]
        basis = lnd_basis(d, ALL, xt(0, -1))
        assert [b.kind for b in basis] == ["toric"]
        assert basis[0].ray.coords == (0, 1)

    def test_unipotent_only(self):
        d = CATALOG["sl2-times-torus"]
        basis = lnd_basis(d, ALL, xt(2, 0))
        assert [b.kind for b in basis] == ["unipotent"]
        assert basis[0].root.coords == (2, 0)

    def test_empty(self):
        d = CATALOG["sl2-times-torus"]
        assert lnd_basis(d, ALL, xt(0, -2)) == ()

    def test_mixed_weight_gets_both(self):
        # on the plane under SL2 x C*, weight (2, -1) supports both kinds:
        # mu - alpha = (0, -1)? no: that pairs -1 with the ray. Use a record
        # where the chart cone is trivial in the alpha direction instead.
        d = CATALOG["sl2-two-colors"]
        basis = lnd_basis(d, ALL, xt(-2))
        # E_Z is the zero cone: no toric term, and mu - alpha = (-4) in M
        # is a chart weight since every weight is one
        assert [b.kind for b in basis] == ["unipotent"]

    def test_torus_record_matches_roots(self):
        d = CATALOG["torus-quadrant"]
        assert [b.kind for b in lnd_basis(d, ALL, xt(-1, 0))] == ["toric"]
        assert lnd_basis(d, ALL, xt(-1, -1)) == ()
        assert lnd_basis(d, ALL, xt(1, 1)) == ()

    def test_off_lattice_weight_gets_no_toric_term(self):
        d = CATALOG["sl2-two-colors"]
        sub = ColorSubset("plus")
        # odd weights are not in M, so no toric term can appear
        basis = lnd_basis(d, sub, xt(-1))
        assert all(b.kind != "toric" for b in basis)

    def test_blurring_chart(self):
        d = CATALOG["blurring-pair"]
        basis = lnd_basis(d, ColorSubset("tcol"), xt(-1, 0))
        assert [b.kind for b in basis] == ["toric"]
        assert basis[0].ray.coords == (1, 0)


class TestClassify:
    def test_unipotent_is_vertical(self):
        d = CATALOG["sl2-times-torus"]
        desc = lnd_basis(d, ALL, xt(2, 0))[0]
        c = classify(d, ALL, desc)
        assert c == Classification(verdict="vertical")

    def test_toric_moves_g_stable(self):
        d = CATALOG["sl2-times-torus"]
        desc = lnd_basis(d, ALL, xt(0, -1))[0]
        c = classify(d, ALL, desc)
        assert c.verdict == "horizontal"
        assert c.subtype == "toroidal"
        assert c.moved_divisor == "axis"

    def test_toric_moves_excluded_color(self):
        d = CATALOG["blurring-pair"]
        sub = ColorSubset("tcol")
        desc = lnd_basis(d, sub, xt(-1, 0))[0]
        c = classify(d, sub, desc)
        assert c.verdict == "horizontal"
        assert c.subtype == "blurring"
        assert c.moved_divisor == "tcol"

    def test_two_color_chart_blurs(self):
        d = CATALOG["sl2-two-colors"]
        sub = ColorSubset("plus")
        desc = lnd_basis(d, sub, xt(-2))[0]
        c = classify(d, sub, desc)
        assert (c.verdict, c.subtype, c.moved_divisor) == \
            ("horizontal", "blurring", "plus")

    def test_shared_ray_is_ambiguous(self):
        d = CATALOG["shared-ray"]
        desc = LndDescriptor(weight=xt(-1, 0), kind="toric",
                             ray=DualVector((1, 0), lattice="M"))
        c = classify(d, ALL, desc)
        assert c.verdict == "ambiguous"
        assert c.candidates == ("inner", "outer")

    def test_stray_ray_rejected(self):
        d = CATALOG["torus-quadrant"]
        desc = LndDescriptor(weight=xt(0, 0), kind="toric",
                             ray=DualVector((7, 3), lattice="M"))
        with pytest.raises(DatumError):
            classify(d, ALL, desc)


# ---------------------------------------------------------------------------
# The per-chart table against the per-weight loop it replaced: coordinates of
# each difference mu - alpha in M, then the chart cone's dual_contains.
# ---------------------------------------------------------------------------

def reference_summands(datum, subset, mu):
    """(congruent, realizable) summand weights, one difference vector each."""
    cone = slice_cone(datum, subset)
    congruent, realizable = [], []
    for a in nilradical_highest_weights(datum.root_system, levi_subset(datum)):
        coords = datum.weight_lattice.coordinates(mu - a)
        if coords is not None:
            congruent.append(a)
            if cone.dual_contains(LatticeVector(coords, lattice="M")):
                realizable.append(a)
    return tuple(congruent), tuple(realizable)


def reference_basis(datum, subset, mu):
    terms = [LndDescriptor(weight=mu, kind="unipotent", root=a)
             for a in reference_summands(datum, subset, mu)[1]]
    coords = datum.weight_lattice.coordinates(mu)
    if coords is not None:
        ray = demazure_ray(slice_cone(datum, subset), LatticeVector(coords, lattice="M"))
        if ray is not None:
            terms.append(LndDescriptor(weight=mu, kind="toric", ray=ray))
    return tuple(terms)


CARTAN_TYPES_UP_TO_RANK_6 = (
    [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(3, 7)]
    + [("E", 6), ("F", 4), ("G", 2)])


def random_record(rng, letter, n):
    """A record of the type padded by one or two central directions, with M of
    rank 2-4 spanned by random rows, two G-stable divisors and two colors, one
    of type T, whose valuation vectors lie in one orthant of M's dual."""
    ambient = n + rng.randint(1, 2)
    r = rng.randint(2, min(4, ambient))
    rows = None
    while rows is None or rational_rank(rows) < r:
        rows = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(r)]
    signs = [rng.choice((-1, 1)) for _ in range(r)]
    kappas = set()
    while len(kappas) < 4:
        k = tuple(s * rng.randint(0, 3) for s in signs)
        if any(k):
            kappas.add(k)
    g0, g1, t, c = (DualVector(k, lattice="M") for k in rng.sample(sorted(kappas), 4))
    moved = rng.randrange(n)
    divisors = (Divisor("g0", g0, "g-stable"), Divisor("g1", g1, "g-stable"),
                Divisor("t", t, "color", "T", frozenset({moved})),
                Divisor("c", c, "color", rng.choice("UNT"),
                        frozenset({moved, rng.randrange(n)})))
    return SphericalDatum(standard_root_system(letter, n, ambient),
                          Sublattice(ambient, rows), divisors)


def test_table_matches_the_per_weight_loop():
    rng = random.Random(2112)
    seen = Counter()
    for letter, n in CARTAN_TYPES_UP_TO_RANK_6 * 8:
        datum = random_record(rng, letter, n)
        lattice = datum.weight_lattice
        U, D, _ = smith_normal_form(lattice.basis_rows)
        d = D[lattice.rank - 1][lattice.rank - 1]
        seen["records"] += 1
        seen["not saturated"] += d > 1
        unit = (1,) + (0,) * (lattice.rank - 1)
        seen["negative det"] += lattice.residue(lattice.embed(unit))[0][0] < 0
        # U[-1] * rows = d * w: c * w is an integer vector off M for 0 < c < d
        w = [x // d for x in lattice.embed(U[-1]).coords]
        omega = nilradical_highest_weights(datum.root_system, levi_subset(datum))
        for q in range(8):
            x = tuple(rng.randint(-2, 2) for _ in range(lattice.rank))
            mu = lattice.embed(x)
            if q % 2 and omega:
                mu = mu + rng.choice(omega)
            if q % 4 == 3:
                k = rng.randrange(lattice.ambient_rank)
                mu = mu + LatticeVector(tuple(int(i == k) for i in range(len(w))), "X(T)")
            elif q % 4 == 2 and d > 1:
                mu = mu + LatticeVector(tuple(rng.randint(1, d - 1) * v for v in w), "X(T)")
                seen["weights in QM off M"] += 1
            seen["weights in M"] += lattice.contains(mu)
            congruent = congruent_summand_weights(datum, mu)
            for subset in (ColorSubset(), ColorSubset("t")):
                want = reference_summands(datum, subset, mu)
                assert congruent == want[0]
                assert realizable_summand_weights(datum, subset, mu) == want[1]
                basis = lnd_basis(datum, subset, mu)
                assert basis == reference_basis(datum, subset, mu)
                seen["realizable hits"] += len(want[1])
                seen["toric terms"] += sum(b.kind == "toric" for b in basis)
    assert seen["not saturated"] >= 50, seen
    assert seen["realizable hits"] >= 50, seen
    assert min(seen.values()) >= 20, seen
