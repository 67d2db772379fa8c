import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from demroots.cones import build_cone
from demroots.lattice import DualVector, LatticeVector, RankMismatch, Sublattice
from demroots.toric import (AlgebraElement, DemazureRoot, FlowPolynomial,
                            apply_derivation, check_supported, demazure_ray,
                            demazure_root, enumerate_demazure_roots,
                            exponentiate, monomial, nilpotency_index)

from conftest import demazure_box_oracle, random_pointed_cone


def dv(*c):
    return DualVector(c, lattice="M")


def lv(*c):
    return LatticeVector(c, lattice="M")


QUADRANT = build_cone([dv(1, 0), dv(0, 1)])
SKEW = build_cone([dv(1, 0), dv(1, 2)])


def dual_monoid_weights(rnd, cone, count):
    """count random points of the cone's dual monoid, as int tuples: the dual
    rays times k >= 0 plus the lineality times any k."""
    steps = [(r, 0) for r in cone.dual_rays] + [(u, -2) for u in cone.dual_lineality]
    weights = []
    for _ in range(count):
        w = (0,) * cone.rank
        for g, low in steps:
            k = rnd.randint(low, 2)
            w = tuple(a + k * b for a, b in zip(w, g))
        weights.append(w)
    return weights


def element_dicts(rank):
    """{weight: coefficient} mappings of one rank with int tuple keys; zero
    coefficients allowed."""
    return st.dictionaries(st.tuples(*[st.integers(-3, 3)] * rank),
                           st.fractions(max_denominator=4), max_size=3)


def reference(pairs):
    """(weight, coefficient) pairs summed by coordinates, zeros dropped: the
    plain-dict model of an algebra element."""
    out = {}
    for lam, c in pairs:
        key = lam.coords if isinstance(lam, LatticeVector) else tuple(lam)
        out[key] = out.get(key, 0) + Fraction(c)
    return {lam: c for lam, c in out.items() if c}


def as_reference(element):
    """The element's terms as a plain dict, after checking they are canonical:
    weights strictly increasing by coords and no zero coefficient."""
    coords = [lam.coords for lam, _ in element.terms]
    assert all(a < b for a, b in zip(coords, coords[1:])), coords
    assert all(isinstance(c, Fraction) and c != 0 for _, c in element.terms)
    return dict(zip(coords, (c for _, c in element.terms)))


def evaluate(poly, t):
    total = AlgebraElement.zero()
    power = Fraction(1)
    for k in range(poly.degree() + 1):
        total = total + poly.coefficient(k).scale(power)
        power *= t
    return total


class TestDemazureRay:
    def test_quadrant(self):
        assert demazure_ray(QUADRANT, lv(-1, 0)).coords == (1, 0)
        assert demazure_ray(QUADRANT, lv(-1, 3)).coords == (1, 0)
        assert demazure_ray(QUADRANT, lv(-1, -1)) is None
        assert demazure_ray(QUADRANT, lv(0, 0)) is None
        assert demazure_ray(QUADRANT, lv(1, 1)) is None

    def test_skew(self):
        assert demazure_ray(SKEW, lv(1, -1)).coords == (1, 2)
        assert demazure_ray(SKEW, lv(-1, 1)).coords == (1, 0)
        assert demazure_ray(SKEW, lv(-1, 0)) is None

    def test_root_factory_validates(self):
        r = demazure_root(QUADRANT, lv(-1, 2))
        assert r.rho.coords == (1, 0)
        with pytest.raises(ValueError, match=r"\(-2, 0\) is not a Demazure root"):
            demazure_root(QUADRANT, lv(-2, 0))
        # The public constructor checks the root and its ray.
        with pytest.raises(ValueError, match=r"\(1, 1\) is not a Demazure root"):
            DemazureRoot(mu=lv(1, 1), rho=dv(1, 0), cone=QUADRANT)
        with pytest.raises(ValueError, match=r"ray mismatch: root \(-1, 2\) belongs "
                                             r"to ray \(1, 0\)"):
            DemazureRoot(mu=lv(-1, 2), rho=dv(0, 1), cone=QUADRANT)

    def test_known_ray_is_not_scanned_again(self, monkeypatch):
        import demroots.toric as toric
        calls = []
        scan = toric.demazure_ray
        monkeypatch.setattr(toric, "demazure_ray",
                            lambda cone, mu: calls.append(mu) or scan(cone, mu))
        root = demazure_root(SKEW, lv(1, -1))
        assert len(calls) == 1
        roots = enumerate_demazure_roots(SKEW, 2)
        assert len(calls) == 1 and roots
        # The roots equal, and hash like, the ones the checked constructor builds.
        public = tuple(DemazureRoot(r.mu, r.rho, r.cone) for r in roots)
        assert roots == public and list(map(hash, roots)) == list(map(hash, public))
        assert root == DemazureRoot(lv(1, -1), dv(1, 2), SKEW)


class TestEnumeration:
    def test_quadrant_bound_two(self):
        roots = enumerate_demazure_roots(QUADRANT, 2)
        pairs = [(r.rho.coords, r.mu.coords) for r in roots]
        assert pairs == [
            ((0, 1), (0, -1)), ((0, 1), (1, -1)), ((0, 1), (2, -1)),
            ((1, 0), (-1, 0)), ((1, 0), (-1, 1)), ((1, 0), (-1, 2)),
        ]

    def test_matches_box_oracle_on_random_cones(self):
        rnd = random.Random(5)
        for _ in range(15):
            cone, gens = random_pointed_cone(rnd, max_rank=3, max_gens=4, entry=3)
            got = {(r.rho.coords, r.mu.coords)
                   for r in enumerate_demazure_roots(cone, 4)}
            want = demazure_box_oracle(gens, 4)
            assert got == want, gens

    def test_sublattice_filter(self):
        sub = Sublattice(2, ((2, 0), (0, 1)), lattice="M")
        roots = enumerate_demazure_roots(QUADRANT, 2, sublattice=sub)
        pairs = [(r.rho.coords, r.mu.coords) for r in roots]
        assert pairs == [((0, 1), (0, -1)), ((0, 1), (2, -1))]

    def test_zero_cone_has_no_roots(self):
        cone = build_cone([], rank=2)
        assert enumerate_demazure_roots(cone, 3) == ()
        # It builds no polyhedron, and still refuses a negative bound.
        for c in (cone, QUADRANT):
            with pytest.raises(ValueError, match="bound must be nonnegative, got -1"):
                enumerate_demazure_roots(c, -1)


class TestAlgebraElement:
    def test_canonical_merge(self):
        f = monomial(lv(1, 0)) + monomial(lv(1, 0), 2)
        assert f.terms == ((lv(1, 0), Fraction(3)),)

    def test_cancellation(self):
        f = monomial(lv(1, 0)) - monomial(lv(1, 0))
        assert f.is_zero()

    def test_product_convolution(self):
        f = monomial(lv(1, 0)) + monomial(lv(0, 1))
        g = monomial(lv(1, 0)) - monomial(lv(0, 1))
        fg = f * g
        assert fg.as_dict() == {lv(2, 0): Fraction(1), lv(0, 2): Fraction(-1)}

    def test_scalar_multiplication(self):
        f = monomial(lv(1, 0), 3)
        assert (Fraction(1, 3) * f).terms == ((lv(1, 0), Fraction(1)),)

    def test_weight_given_two_ways_is_one_weight(self):
        e = AlgebraElement.from_dict({(1, 0): 1, lv(1, 0): 2})
        three = monomial(lv(1, 0), 3)
        assert e == three
        assert e + AlgebraElement.zero() == three
        assert e.scale(1) == three
        assert e * monomial((0, 0)) == three

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda rank: st.tuples(element_dicts(rank),
                                                            element_dicts(rank))))
    def test_ring_laws(self, dicts):
        f, g = (AlgebraElement.from_dict({lv(*k): v for k, v in d.items()}) for d in dicts)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) - g == f
        assert f * (g + g) == f * g + f * g

    def test_matches_dict_reference(self):
        """+, -, *, scale and the derivation agree with plain dicts on random
        elements of rank 1-5 whose keys mix int tuples and LatticeVectors."""
        rnd = random.Random(43)
        add = lambda lam, mu: tuple(a + b for a, b in zip(lam, mu))
        for trial in range(60):
            rank = 1 + trial % 5
            cone, _ = random_pointed_cone(rnd, rank, max_gens=6, entry=3, min_rank=rank)
            raw = []
            for _ in range(2):
                mapping = {}
                for w in dual_monoid_weights(rnd, cone, 5):
                    key = lv(*w) if rnd.random() < 0.5 else w
                    mapping[key] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
                raw.append(mapping)
            f, g = (AlgebraElement.from_dict(m) for m in raw)
            rf, rg = (reference(m.items()) for m in raw)
            assert as_reference(f) == rf
            assert as_reference(f + g) == reference([*rf.items(), *rg.items()])
            assert as_reference(f - g) == reference([*rf.items(),
                                                     *((lam, -c) for lam, c in rg.items())])
            assert as_reference(f * g) == reference((add(lam, mu), c * d)
                                                    for lam, c in rf.items()
                                                    for mu, d in rg.items())
            # Cancellation in the adjacent sum: f + (-f); f - h with h on f's
            # weights, half of them with f's own coefficient; and a product
            # whose terms repeat weights along a dual ray, telescoping to zero
            # in its interior.
            assert (f + (-1) * f).is_zero()
            rh = {lam: c if rnd.random() < 0.5 else c + 1 for lam, c in rf.items()}
            rh.update(dict.fromkeys(dual_monoid_weights(rnd, cone, 2), Fraction(2)))
            h = AlgebraElement.from_dict(rh)
            assert as_reference(f - h) == reference([*rf.items(),
                                                     *((lam, -c) for lam, c in rh.items())])
            ray = rnd.choice(cone.dual_rays + cone.dual_lineality)
            steps = [tuple(i * a for a in ray) for i in range(8)]
            ladder = AlgebraElement.from_dict(dict.fromkeys(steps, 1))
            step = AlgebraElement.from_dict({steps[0]: 1, steps[1]: -1})
            assert as_reference(ladder * step) == {steps[0]: 1, tuple(8 * a for a in ray): -1}
            assert as_reference(ladder * ladder) == reference(
                (add(lam, mu), 1) for lam in steps for mu in steps)
            for k in (0, -1, Fraction(3, 2)):
                assert as_reference(f.scale(k)) == reference((lam, k * c)
                                                             for lam, c in rf.items())
            roots = enumerate_demazure_roots(cone, 2 if rank < 4 else 1)
            if roots:
                root = rnd.choice(roots)
                rho, mu = root.rho.coords, root.mu.coords
                shifted = ((add(lam, mu), c * sum(a * b for a, b in zip(rho, lam)))
                           for lam, c in rf.items())
                assert as_reference(apply_derivation(root, f)) == reference(shifted)

    def test_sum_with_a_number_is_a_type_error(self):
        with pytest.raises(TypeError):
            monomial((1, 0)) + 0
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -:"):
            monomial((1, 0)) - 1

    def test_scalar_must_be_rational(self):
        """* takes elements and exact rationals only; scale() still parses."""
        f = monomial((1, 0), 3)
        for bad in ("2", 0.1):
            with pytest.raises(TypeError):
                f * bad
            with pytest.raises(TypeError):
                bad * f
        assert f * 2 == 2 * f == Fraction(2) * f == monomial((1, 0), 6)
        assert True * f == f
        assert f.scale("2") == monomial((1, 0), 6)
        assert f.scale(0.5) == monomial((1, 0), Fraction(3, 2))

    def test_terms_contract_and_no_weight_hash(self, monkeypatch):
        """+, -, *, the derivation, exponentiate and the flow product never
        hash a weight, and their terms are what perfbench and the CLI read:
        LatticeVector weights of the element's lattice, strictly increasing
        by coords, with nonzero Fraction coefficients."""
        rnd = random.Random(17)
        cone, _ = random_pointed_cone(rnd, 3, max_gens=5, entry=3, min_rank=3)
        root = rnd.choice(enumerate_demazure_roots(cone, 2))
        f, g = (AlgebraElement.from_dict(
            {lv(*w): Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
             for w in dual_monoid_weights(rnd, cone, 8)}) for _ in range(2))

        def unhashable(self):
            raise AssertionError("a weight was hashed")

        monkeypatch.setattr(LatticeVector, "__hash__", unhashable)
        flow = exponentiate(root, f, Fraction(3, 2))
        elements = [f + g, f - g, f * g, 2 * f, apply_derivation(root, f),
                    *flow.coefficients, *(flow * exponentiate(root, g)).coefficients]
        assert all(not e.is_zero() for e in elements[:3])
        for e in elements:
            coords = [lam.coords for lam, _ in e.terms]
            assert all(a < b for a, b in zip(coords, coords[1:])), coords
            assert all(type(lam) is LatticeVector and lam.lattice == "M"
                       and lam.rank == 3 for lam, _ in e.terms)
            assert all(type(c) is Fraction and c for _, c in e.terms)

    def test_mixed_ranks_refused_at_entry(self):
        with pytest.raises(RankMismatch):
            AlgebraElement.from_dict({(1, 0): 1, (1, 0, 0): 2})
        with pytest.raises(RankMismatch):
            AlgebraElement.from_dict({(1, 0): 1, LatticeVector((1, 0), "X(T)"): 2})
        with pytest.raises(RankMismatch):
            monomial((1, 0)) + monomial((1, 0, 0))
        with pytest.raises(RankMismatch):
            monomial((1, 0)) * monomial((1, 0, 0))
        assert monomial((1, 0)) + AlgebraElement.zero() == monomial((1, 0))

    def test_sum_of_2000_monomials_within_budget(self):
        rnd = random.Random(5)
        weights = rnd.sample([(a, b, c) for a in range(20) for b in range(20) for c in range(10)],
                             2000)
        start = time.perf_counter()
        total = AlgebraElement.zero()
        for w in weights:
            total = total + monomial(w)
        elapsed = time.perf_counter() - start
        assert total == AlgebraElement.from_dict(dict.fromkeys(weights, 1))
        assert elapsed < 4.0, f"2,000 one-at-a-time additions took {elapsed:.2f} s"


class TestDerivation:
    def test_single_weight(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        out = apply_derivation(root, monomial(lv(2, 0)))
        assert out.as_dict() == {lv(1, 0): Fraction(2)}

    def test_kills_ray_weight(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        out = apply_derivation(root, monomial(lv(0, 5)))
        assert out.is_zero()

    def test_nilpotency_index(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        assert nilpotency_index(root, lv(2, 0)) == 3
        assert nilpotency_index(root, lv(0, 4)) == 1

    def test_index_is_exact(self):
        root = demazure_root(SKEW, lv(1, -1))
        lam = lv(2, 2)
        d = 2 + 2 * 2  # pairing with ray (1, 2)
        f = monomial(lam)
        cur = f
        for _ in range(d):
            cur = apply_derivation(root, cur)
            assert not cur.is_zero()
        assert apply_derivation(root, cur).is_zero()
        assert nilpotency_index(root, lam) == d + 1

    def test_leibniz(self):
        rnd = random.Random(3)
        root = demazure_root(SKEW, lv(1, -1))

        def sample():
            while True:
                lam = lv(rnd.randint(0, 3), rnd.randint(-1, 2))
                if SKEW.dual_contains(lam):
                    return monomial(lam, rnd.randint(1, 4))

        for _ in range(20):
            f, g = sample(), sample()
            lhs = apply_derivation(root, f * g)
            rhs = apply_derivation(root, f) * g + f * apply_derivation(root, g)
            assert lhs == rhs

    def test_support_guard(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        with pytest.raises(ValueError):
            apply_derivation(root, monomial(lv(-1, -1)))
        with pytest.raises(ValueError):
            check_supported(QUADRANT, monomial(lv(0, -1)))


class TestExponentiation:
    def test_binomial_closed_form(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        lam = lv(3, 1)
        poly = exponentiate(root, monomial(lam))
        d = 3
        assert poly.degree() == d
        for k in range(d + 1):
            expected = {lam + k * root.mu: Fraction(math.comb(d, k))}
            assert poly.coefficient(k).as_dict() == expected

    def test_constant_on_killed_weight(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        poly = exponentiate(root, monomial(lv(0, 2)))
        assert poly.degree() == 0
        assert poly.coefficient(0) == monomial(lv(0, 2))

    def test_automorphism_law(self):
        root = demazure_root(QUADRANT, lv(-1, 1))
        f = monomial(lv(2, 0)) + monomial(lv(1, 1), 2)
        g = monomial(lv(0, 1)) - monomial(lv(1, 0), 3)
        assert exponentiate(root, f * g) == exponentiate(root, f) * exponentiate(root, g)

    def test_one_parameter_group_law(self):
        root = demazure_root(SKEW, lv(1, -1))
        f = monomial(lv(1, 1), 2) + monomial(lv(2, 0))
        poly = exponentiate(root, f)
        for a, b in [(Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(-1, 3))]:
            once = evaluate(poly, a)
            twice = evaluate(exponentiate(root, once), b)
            assert twice == evaluate(poly, a + b)

    def test_scale_substitutes(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        f = monomial(lv(2, 1))
        scaled = exponentiate(root, f, scale=3)
        plain = exponentiate(root, f)
        for k in range(plain.degree() + 1):
            assert scaled.coefficient(k) == plain.coefficient(k).scale(3 ** k)

    def test_identity_at_zero(self):
        root = demazure_root(SKEW, lv(1, -1))
        f = monomial(lv(1, 1), 5)
        assert evaluate(exponentiate(root, f), Fraction(0)) == f

    @staticmethod
    def by_definition(root, f, scale):
        """The t^k coefficients of exp(t * scale * derivation) f, as the
        derivation applied k times and divided by k!."""
        coeffs, current, k = [f], f, 1
        while True:
            current = apply_derivation(root, current, scale=scale)
            if current.is_zero():
                return FlowPolynomial(tuple(coeffs))
            coeffs.append(current.scale(Fraction(1, math.factorial(k))))
            k += 1

    def test_closed_form_is_the_definition(self):
        rnd = random.Random(31)
        scales = [1, 0, -2, Fraction(3, 2), Fraction(-1, 3)]
        done = 0
        while done < 50:  # each rank 1-5 with each scale twice
            rank = 1 + done % 5
            cone, _ = random_pointed_cone(rnd, rank, max_gens=6, entry=3, min_rank=rank)
            roots = enumerate_demazure_roots(cone, 2 if cone.rank < 4 else 1)
            weights = dual_monoid_weights(rnd, cone, 6)
            if not roots:
                continue
            root = rnd.choice(roots)
            f = AlgebraElement.from_dict(
                {lv(*w): Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for w in weights})
            scale = scales[done // 5 % len(scales)]
            assert exponentiate(root, f, scale) == self.by_definition(root, f, scale)
            done += 1

    def test_rational_coefficients_and_scales(self):
        """Coefficients with denominators, against the derivation applied k
        times over k!, for every scale: the coefficient steps stay exact."""
        f = monomial(lv(3, 1), Fraction(2, 3)) + monomial(lv(5, 2), Fraction(-5, 7))
        for cone, mu, degree in ((QUADRANT, lv(-1, 1), 5), (SKEW, lv(1, -1), 9)):
            root = demazure_root(cone, mu)
            for scale in (0, -2, Fraction(3, 2), Fraction(-1, 3)):
                poly = exponentiate(root, f, scale)
                assert poly == self.by_definition(root, f, scale), (mu, scale)
                assert poly.degree() == (degree if scale else 0)

    def test_closed_form_edge_cases(self):
        root = demazure_root(QUADRANT, lv(-1, 0))
        killed = monomial(lv(0, 3), Fraction(2, 7))  # <rho, lambda> = 0
        mixed = killed + monomial(lv(4, 1), -3)
        for f in (AlgebraElement.zero(), killed, mixed):
            for scale in (0, -1, Fraction(5, 3)):
                assert exponentiate(root, f, scale) == self.by_definition(root, f, scale)
        assert exponentiate(root, AlgebraElement.zero()).is_zero()
        assert exponentiate(root, mixed, 0) == FlowPolynomial.constant(mixed)
        assert exponentiate(root, killed, -1) == FlowPolynomial.constant(killed)


class TestFlowPolynomial:
    def test_degree_and_coefficients(self):
        p = FlowPolynomial((monomial(lv(1, 0)), AlgebraElement.zero(),
                            monomial(lv(0, 1))))
        assert p.degree() == 2
        assert p.coefficient(1).is_zero()
        assert p.coefficient(5).is_zero()

    def test_trailing_zeros_stripped(self):
        p = FlowPolynomial((monomial(lv(1, 0)), AlgebraElement.zero()))
        assert p.degree() == 0

    def test_arithmetic_with_a_non_polynomial_is_a_type_error(self):
        p = FlowPolynomial.constant(monomial(lv(1, 0)))
        for op in (lambda: p + 1, lambda: 1 + p, lambda: p * 2, lambda: 2 * p,
                   lambda: p * monomial(lv(1, 0))):
            with pytest.raises(TypeError, match="unsupported operand type"):
                op()

    def test_product_degree(self):
        p = FlowPolynomial((monomial(lv(1, 0)), monomial(lv(0, 1))))
        q = p * p
        assert q.degree() == 2
        assert q.coefficient(1) == monomial(lv(1, 1), 2)
