import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from demroots.datumio import parse_datum
from demroots.lattice import DualVector, LatticeVector
from demroots.rootsystems import (RootSystem, _finite_type, cartan_matrix_of_type,
                                  levi_positive_roots, nilradical_highest_weights,
                                  nilradical_roots, root_system,
                                  standard_root_system, torus_root_system)
from demroots.spherical import validate

from conftest import run_cli


def xt(*c):
    return LatticeVector(c, lattice="X(T)")


POSITIVE_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9,
    ("C", 3): 9,
    ("D", 4): 12,
    ("G", 2): 6,
    ("F", 4): 24,
    ("E", 6): 36,
}


class TestCartanMatrices:
    def test_a2(self):
        assert cartan_matrix_of_type("A", 2) == ((2, -1), (-1, 2))

    def test_b2_asymmetry(self):
        A = cartan_matrix_of_type("B", 2)
        assert A == ((2, -1), (-2, 2))

    def test_c2_is_b2_transposed(self):
        B = cartan_matrix_of_type("B", 2)
        C = cartan_matrix_of_type("C", 2)
        assert C == tuple(tuple(B[j][i] for j in range(2)) for i in range(2))

    def test_g2(self):
        assert cartan_matrix_of_type("G", 2) == ((2, -1), (-3, 2))

    def test_d4_fork(self):
        A = cartan_matrix_of_type("D", 4)
        # the last two nodes both attach to node 1, not to each other
        assert A[2][3] == 0 and A[3][2] == 0
        assert A[1][2] == -1 and A[1][3] == -1

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            cartan_matrix_of_type("H", 3)
        with pytest.raises(ValueError):
            cartan_matrix_of_type("G", 3)


class TestRootSystemClosure:
    @pytest.mark.parametrize("letter,rank", sorted(POSITIVE_COUNTS))
    def test_positive_root_counts(self, letter, rank):
        rs = standard_root_system(letter, rank)
        assert len(rs.positive_roots) == POSITIVE_COUNTS[(letter, rank)]

    def test_a2_roots(self):
        rs = standard_root_system("A", 2)
        assert [a.coords for a in rs.positive_roots] == [(-1, 2), (2, -1), (1, 1)]

    def test_coefficients_track_roots(self):
        rs = standard_root_system("G", 2)
        for root in rs.positive_roots:
            coeff = rs.coefficients_of(root)
            built = sum((c * a for c, a in zip(coeff, rs.simple_roots)),
                        start=xt(0, 0))
            assert built == root

    def test_is_root_accepts_negatives(self):
        rs = standard_root_system("A", 2)
        assert rs.is_root(xt(1, 1))
        assert rs.is_root(xt(-1, -1))
        assert not rs.is_root(xt(2, 2))
        assert not rs.is_root(xt(0, 0))

    def test_ambient_padding(self):
        rs = standard_root_system("A", 1, ambient_rank=3)
        assert rs.simple_roots[0].coords == (2, 0, 0)
        assert rs.simple_coroots[0].coords == (1, 0, 0)
        assert rs.ambient_rank == 3

    def test_string_lengths_b2(self):
        rs = standard_root_system("B", 2)
        coeffs = sorted(rs.coefficients)
        assert coeffs == [(0, 1), (1, 0), (1, 1), (1, 2)]


class TestValidation:
    def test_affine_matrix_rejected(self):
        # determinant zero: not finite type
        with pytest.raises(ValueError):
            root_system([xt(2, -2), xt(-2, 2)],
                        [DualVector((1, -1), lattice="X(T)"),
                         DualVector((-1, 1), lattice="X(T)")], 2)

    def test_dependent_roots_rejected(self):
        with pytest.raises(ValueError):
            root_system([xt(2, 0), xt(4, 0)],
                        [DualVector((1, 0), lattice="X(T)"),
                         DualVector((2, 0), lattice="X(T)")], 2)

    def test_positive_off_diagonal_rejected(self):
        with pytest.raises(ValueError):
            root_system([xt(2, 1), xt(1, 2)],
                        [DualVector((1, 0), lattice="X(T)"),
                         DualVector((0, 1), lattice="X(T)")], 2)

    def test_wrong_diagonal_rejected(self):
        with pytest.raises(ValueError):
            root_system([xt(3, 0)], [DualVector((1, 0), lattice="X(T)")], 2)

    def test_asymmetric_zero_pattern_rejected(self):
        # <a2, a1^> = 0 but <a1, a2^> = -1
        with pytest.raises(ValueError):
            root_system([xt(2, -1, 0), xt(0, 2, 0)],
                        [DualVector((1, 0, 0), lattice="X(T)"),
                         DualVector((0, 1, 0), lattice="X(T)")], 3)

    def test_wrong_lattice_tag_rejected(self):
        with pytest.raises(ValueError):
            root_system([LatticeVector((2,), lattice="M")],
                        [DualVector((1,), lattice="X(T)")], 1)


def _det(rows) -> Fraction:
    rows = [[Fraction(v) for v in row] for row in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def principal_minors_positive(A) -> bool:
    """Reference finite-type test (Kac, Thm 4.3): every principal minor of the
    GCM is positive; 2^n exact determinants."""
    n = len(A)
    return all(_det([[A[i][j] for j in subset] for i in subset]) > 0
               for size in range(1, n + 1) for subset in combinations(range(n), size))


def symmetrizable(A) -> bool:
    """Whether A = DB with D positive diagonal and B symmetric."""
    n = len(A)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start], todo = Fraction(1), [start]
        while todo:
            i = todo.pop()
            for j in range(n):
                if j != i and A[i][j]:
                    dj = d[i] * A[j][i] / A[i][j]  # a_ij / d_i = a_ji / d_j
                    if d[j] is None:
                        d[j] = dj
                        todo.append(j)
                    elif d[j] != dj:
                        return False
    return True


def forest(A) -> bool:
    """Whether the Dynkin graph of A has no cycle: edges = nodes - components."""
    n = len(A)
    seen, components = set(), 0
    for start in range(n):
        if start not in seen:
            components += 1
            seen.add(start)
            todo = [start]
            while todo:
                i = todo.pop()
                for j in range(n):
                    if A[i][j] and j not in seen:
                        seen.add(j)
                        todo.append(j)
    return sum(1 for i in range(n) for j in range(i) if A[i][j]) == n - components


def random_gcm(rnd, n):
    """A random GCM: a random forest plus a few extra edges (cycles), with
    mostly simple bonds so that finite types are common."""
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = [(i, rnd.randrange(i)) for i in range(1, n) if rnd.random() < 0.8]
    if n > 2:
        edges += [tuple(rnd.sample(range(n), 2)) for _ in range(rnd.choice((0, 0, 1, 2)))]
    for i, j in edges:
        if rnd.random() < 0.7:
            A[i][j] = A[j][i] = -1
        else:
            A[i][j], A[j][i] = -rnd.randint(1, 4), -rnd.randint(1, 3)
    return A


def realize(A):
    """Simple roots and coroots with Cartan matrix A; an extra identity block
    keeps the roots independent whatever det A is."""
    n = len(A)
    roots = [xt(*(A[i][j] for i in range(n)), *(int(i == j) for i in range(n)))
             for j in range(n)]
    coroots = [DualVector(tuple(int(i == j) for i in range(2 * n)), "X(T)") for j in range(n)]
    return roots, coroots, 2 * n


class TestFiniteType:
    def test_agrees_with_all_principal_minors(self):
        rnd = random.Random(5)
        seen = {"finite": 0, "cycle": 0, "non-symmetrizable": 0, "tree not finite": 0}
        for _ in range(2000):
            A = random_gcm(rnd, rnd.randint(1, 7))
            expected = principal_minors_positive(A)
            assert _finite_type(A) == expected, A
            seen["finite"] += expected
            seen["cycle"] += not forest(A)
            seen["non-symmetrizable"] += not symmetrizable(A)
            seen["tree not finite"] += forest(A) and not expected
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("A", [
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2~: a cycle
        [[2, -3], [-3, 2]],                       # hyperbolic
    ])
    def test_rejected(self, A):
        with pytest.raises(ValueError, match="not of finite type"):
            root_system(*realize(A))

    @pytest.mark.parametrize("letter,n,count", [
        ("A", 25, 25 * 26 // 2), ("B", 18, 18 ** 2), ("D", 18, 18 * 17)])
    def test_large_systems_close(self, letter, n, count):
        assert len(standard_root_system(letter, n).positive_roots) == count

    def test_record_with_a25_factor_validates(self, tmp_path):
        A = cartan_matrix_of_type("A", 25)
        doc = {"cartan": {"ambient_rank": 26,
                          "simple_roots": [[A[i][j] for i in range(25)] + [0]
                                           for j in range(25)],
                          "simple_coroots": [[int(i == j) for i in range(26)]
                                             for j in range(25)]},
               "lattice_M": {"basis_rows": [[1] + [0] * 25, [0] * 25 + [1]]},
               "divisors": [{"name": "line", "kappa": [1, 0], "kind": "color",
                             "color_type": "U", "moved_by": [0]},
                            {"name": "axis", "kappa": [0, 1], "kind": "g-stable"}]}
        path = tmp_path / "a25.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert validate(parse_datum(path.read_text())).ok
        assert "record valid" in run_cli("validate", str(path)).stdout
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"A25 record validation took {elapsed:.2f} s"


class TestTorus:
    def test_empty_system(self):
        rs = torus_root_system(2)
        assert rs.simple_roots == ()
        assert rs.positive_roots == ()
        assert rs.semisimple_rank == 0
        assert rs.ambient_rank == 2


class TestNilradical:
    def test_levi_positive_roots(self):
        rs = standard_root_system("A", 2)
        levi = frozenset({0})
        inside = levi_positive_roots(rs, levi)
        assert [a.coords for a in inside] == [(2, -1)]
        outside = nilradical_roots(rs, levi)
        assert len(outside) == 2

    def test_highest_weights_a2(self):
        rs = standard_root_system("A", 2)
        assert [a.coords for a in nilradical_highest_weights(rs, frozenset({0}))] \
            == [(1, 1)]
        assert len(nilradical_highest_weights(rs, frozenset())) == 3
        assert nilradical_highest_weights(rs, frozenset({0, 1})) == ()

    def test_highest_weights_a3_two_blocks(self):
        rs = standard_root_system("A", 3)
        omega = nilradical_highest_weights(rs, frozenset({0, 2}))
        assert [rs.coefficients_of(a) for a in omega] == [(1, 1, 1)]

    def test_highest_weights_b2(self):
        rs = standard_root_system("B", 2)
        # short-root Levi: the nilradical is one irreducible 3-dim string
        omega = nilradical_highest_weights(rs, frozenset({1}))
        assert [rs.coefficients_of(a) for a in omega] == [(1, 2)]
        # long-root Levi: a 2-dim string plus the isolated long root
        omega = nilradical_highest_weights(rs, frozenset({0}))
        assert sorted(rs.coefficients_of(a) for a in omega) == [(1, 1), (1, 2)]

    def test_unknown_levi_index_rejected(self):
        rs = standard_root_system("A", 2)
        with pytest.raises(ValueError):
            nilradical_highest_weights(rs, frozenset({5}))


def _highest_weights_by_all_levi_roots(rs, levi) -> tuple:
    """The reference rule: alpha + gamma is no root for every positive Levi root gamma."""
    positive = set(rs.coefficients)

    def inside(coeff):
        return all(c == 0 or i in levi for i, c in enumerate(coeff))

    levi_roots = [coeff for coeff in rs.coefficients if inside(coeff)]
    out = [beta for beta, coeff in zip(rs.positive_roots, rs.coefficients)
           if not inside(coeff) and not any(
               tuple(a + b for a, b in zip(coeff, gamma)) in positive for gamma in levi_roots)]
    return tuple(sorted(out, key=lambda b: b.coords))


CARTAN_TYPES_UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def test_simple_root_rule_matches_all_levi_roots():
    assert len(CARTAN_TYPES_UP_TO_RANK_8) == 33
    rng = random.Random(20260618)
    cases = 0
    for letter, rank in CARTAN_TYPES_UP_TO_RANK_8:
        rs = standard_root_system(letter, rank)
        levis = [frozenset(), frozenset(range(rank))]
        levis += [frozenset(i for i in range(rank) if rng.random() < 0.5) for _ in range(12)]
        for levi in levis:
            assert nilradical_highest_weights(rs, levi) \
                == _highest_weights_by_all_levi_roots(rs, levi), (letter, rank, sorted(levi))
            cases += 1
    assert cases == 462
