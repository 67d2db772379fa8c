import random
from collections import Counter

import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from demroots.lattice import (DualVector, LatticeVector, RankMismatch, Sublattice,
                              content, integer_kernel, invariant_factors, matrix_rank,
                              pairing, primitive, primitive_tuple, smith_normal_form,
                              unimodular_inverse)
from demroots.toric import monomial


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def det(M):
    n = len(M)
    rows = [[Fraction(v) for v in r] for r in M]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def fraction_rank(M):
    rows = [[Fraction(v) for v in r] for r in M]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_solve(B, v):
    """The x with x * B = v over the rationals, for independent rows B, or None
    when v is outside their span."""
    r, n = len(B), len(v)
    # Eliminate on the columns of [B^T | v^T]: n equations in r unknowns.
    rows = [[Fraction(B[i][j]) for i in range(r)] + [Fraction(v[j])] for j in range(n)]
    pivots = []
    for c in range(r):
        piv = next(i for i in range(len(pivots), n) if rows[i][c] != 0)
        rows[len(pivots)], rows[piv] = rows[piv], rows[len(pivots)]
        top = rows[len(pivots)]
        top[:] = [a / top[c] for a in top]
        for i in range(n):
            if i != len(pivots) and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        pivots.append(c)
    if any(row[r] for row in rows[r:]):
        return None
    return tuple(rows[i][r] for i in range(r))


def unimodular_within(rng, n, bound):
    """A random n x n integer matrix of determinant +-1 with entries in +-bound:
    row operations on the identity that keep the entries within the bound."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c = rng.choice((-1, 1))
        row = [a if i == j else a + c * b for a, b in zip(M[i], M[j])]
        if max(map(abs, row)) <= bound:
            M[i] = row
        M[i], M[j] = M[j], M[i]
        if rng.random() < 0.5:
            M[i] = [-a for a in M[i]]
    return M


def xt(*c):
    return LatticeVector(c, lattice="X(T)")


class TestVectors:
    def test_arithmetic(self):
        a = LatticeVector((1, 2))
        b = LatticeVector((3, -1))
        assert (a + b).coords == (4, 1)
        assert (a - b).coords == (-2, 3)
        assert (-a).coords == (-1, -2)
        assert (3 * a).coords == (3, 6)
        assert (a * 3).coords == (3, 6)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            LatticeVector((1, 2)) + LatticeVector((1, 2, 3))

    def test_lattice_tag_mismatch(self):
        a = LatticeVector((1, 2), lattice="M")
        b = LatticeVector((1, 2), lattice="X(T)")
        with pytest.raises(ValueError):
            a + b

    def test_pairing(self):
        rho = DualVector((2, -1))
        lam = LatticeVector((3, 4))
        assert pairing(rho, lam) == 2

    def test_pairing_rejects_swapped_arguments(self):
        with pytest.raises(TypeError):
            pairing(LatticeVector((1, 0)), LatticeVector((1, 0)))

    def test_pairing_rejects_cross_lattice(self):
        with pytest.raises(ValueError):
            pairing(DualVector((1, 0), lattice="M"),
                    LatticeVector((1, 0), lattice="X(T)"))

    def test_bools_rejected(self):
        with pytest.raises(TypeError):
            LatticeVector((True, 0))

    @pytest.mark.parametrize("make", [
        lambda: LatticeVector((1.5, 2)),
        lambda: LatticeVector((2.0, 2)),
        lambda: DualVector((Fraction(1, 2), 0)),
        lambda: LatticeVector(("1", 2)),
        lambda: LatticeVector((1, 2)) * Fraction(1, 2),
        lambda: LatticeVector((1, 2)) * 0.5,
        lambda: monomial((0.9, 1)),
        lambda: smith_normal_form([[1.5, 2]]),
        lambda: Sublattice(2, ((1.5, 0),)),
    ])
    def test_non_integers_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    def test_is_zero(self):
        assert LatticeVector((0, 0)).is_zero()
        assert not LatticeVector((0, 1)).is_zero()

    def test_classes_are_distinct(self):
        assert LatticeVector((1, 0)) != DualVector((1, 0))
        assert LatticeVector((1, 0)) == LatticeVector((1, 0))

    @pytest.mark.parametrize("cls", [LatticeVector, DualVector])
    def test_operators_keep_the_class(self, cls):
        a, b = cls((1, 2), "X(T)"), cls((3, -1), "X(T)")
        for v in (a + b, a - b, -a, 3 * a, a * 3, primitive(2 * a)):
            assert type(v) is cls and v.lattice == "X(T)"

    @pytest.mark.parametrize("cls", [LatticeVector, DualVector])
    def test_mixed_lattices_raise(self, cls):
        with pytest.raises(RankMismatch):
            cls((1, 2), "M") + cls((1, 2), "X(T)")
        with pytest.raises(RankMismatch):
            cls((1, 2), "M") - cls((1, 2), "X(T)")


class TestPrimitive:
    def test_content(self):
        assert content((6, -9, 3)) == 3
        assert content((0, 0)) == 0

    def test_primitive_tuple(self):
        assert primitive_tuple((6, -9, 3)) == (2, -3, 1)
        assert primitive_tuple((-4, -6)) == (-2, -3)

    def test_primitive_preserves_type(self):
        v = primitive(DualVector((4, 6), lattice="M"))
        assert isinstance(v, DualVector)
        assert v.coords == (2, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_tuple((0, 0))


int_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(int_entries, min_size=n, max_size=n),
                min_size=m, max_size=m)))


class TestSmithNormalForm:
    def test_frozen_diagonal(self):
        U, D, V = smith_normal_form([[2, 0], [0, 3]])
        assert [D[i][i] for i in range(2)] == [1, 6]

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_transform_identity(self, A):
        U, D, V = smith_normal_form(A)
        m, n = len(A), len(A[0])
        UAV = matmul(matmul([list(r) for r in U], A), [list(r) for r in V])
        assert tuple(tuple(r) for r in UAV) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # zeros come last
            if diag[i] == 0:
                assert diag[i + 1] == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0

    def test_invariant_factors(self):
        assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
        assert invariant_factors([[2, 4], [4, 8]]) == (2,)

    def test_matrix_rank(self):
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([[0, 0]]) == 0

    @settings(max_examples=150, deadline=None)
    @given(matrices(6), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                           int_entries, int_entries), max_size=3))
    def test_matrix_rank_against_fractions(self, A, extra):
        # Append zero rows and combinations of existing rows.
        for i, j, a, b in extra:
            A = A + [[a * x + b * y for x, y in zip(A[i % len(A)], A[j % len(A)])]]
        assert matrix_rank(A) == fraction_rank(A)


class TestKernelAndSolve:
    def test_kernel_halfplane(self):
        assert integer_kernel([[1, 0]], 2) == [(0, 1)]

    def test_kernel_empty_rows(self):
        basis = integer_kernel([], 2)
        assert sorted(basis) == [(0, 1), (1, 0)]

    def test_kernel_saturated(self):
        # kernel of (2, 4) must contain the primitive (2, -1), not just (4, -2)
        basis = integer_kernel([[2, 4]], 2)
        assert len(basis) == 1
        assert primitive_tuple(basis[0]) == basis[0]

    @settings(max_examples=40, deadline=None)
    @given(matrices(3))
    def test_kernel_annihilates(self, A):
        n = len(A[0])
        basis = integer_kernel(A, n)
        for v in basis:
            for row in A:
                assert sum(r * x for r, x in zip(row, v)) == 0
        assert len(basis) == n - matrix_rank(A)

    def test_row_solve(self):
        assert Sublattice(2, ((2, 1), (0, 3))).coordinates(xt(2, 7)) == (1, 2)
        assert Sublattice(2, ((2, 0),)).coordinates(xt(1, 0)) is None
        assert Sublattice(2, ((2, 0),)).coordinates(xt(4, 0)) == (2,)

    @settings(max_examples=40, deadline=None)
    @given(matrices(3), st.lists(int_entries, min_size=3, max_size=3))
    def test_row_solve_round_trip(self, B, xs):
        assume(matrix_rank(B) == len(B))
        sub = Sublattice(len(B[0]), B)
        x = tuple(xs[:len(B)])
        assert sub.coordinates(sub.embed(x)) == x


class TestUnimodularInverse:
    def test_round_trip(self):
        M = [[2, 1], [1, 1]]
        inv = unimodular_inverse(M)
        assert matmul([list(r) for r in inv], M) == [[1, 0], [0, 1]]

    @settings(max_examples=80, deadline=None)
    @given(matrices(5))
    def test_round_trip_on_smith_transforms(self, A):
        _, _, V = smith_normal_form(A)
        inv = unimodular_inverse(V)
        identity = [[int(i == j) for j in range(len(V))] for i in range(len(V))]
        assert matmul([list(r) for r in inv], [list(r) for r in V]) == identity
        assert matmul([list(r) for r in V], [list(r) for r in inv]) == identity

    def test_singular(self):
        with pytest.raises(ValueError, match="singular"):
            unimodular_inverse([[1, 2], [2, 4]])

    def test_not_unimodular(self):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse([[2, 0], [0, 1]])


class TestSublattice:
    def test_full(self):
        sub = Sublattice.full(2)
        assert sub.is_full
        assert sub.coordinates(LatticeVector((3, -1), lattice="X(T)")) == (3, -1)

    def test_index_two(self):
        sub = Sublattice(1, ((2,),), lattice="X(T)")
        assert sub.coordinates(LatticeVector((4,), lattice="X(T)")) == (2,)
        assert sub.coordinates(LatticeVector((3,), lattice="X(T)")) is None
        assert sub.contains(LatticeVector((-2,), lattice="X(T)"))
        assert not sub.contains(LatticeVector((1,), lattice="X(T)"))

    def test_embed(self):
        sub = Sublattice(2, ((2, 0), (0, 1)), lattice="X(T)")
        v = sub.embed((1, 3))
        assert v.coords == (2, 3)
        assert sub.coordinates(v) == (1, 3)

    def test_skew_basis(self):
        sub = Sublattice(2, ((1, 1), (0, 2)), lattice="X(T)")
        assert sub.contains(LatticeVector((1, 3), lattice="X(T)"))
        assert not sub.contains(LatticeVector((1, 2), lattice="X(T)"))
        assert sub.coordinates(LatticeVector((1, 3), lattice="X(T)")) == (1, 1)

    def test_rank(self):
        sub = Sublattice(3, ((1, 0, 0), (0, 1, 0)), lattice="X(T)")
        assert sub.rank == 2
        assert not sub.is_full

    def test_empty_basis(self):
        sub = Sublattice(3, ())
        assert sub.rank == 0 and not sub.is_full
        assert sub.coordinates(xt(0, 0, 0)) == ()
        assert sub.coordinates(xt(0, 1, 0)) is None
        assert sub.embed(()) == xt(0, 0, 0)
        assert Sublattice(0, ()).is_full

    def test_dependent_rows_rejected(self):
        for rows in (((1, 2), (2, 4)), ((1, 0, 1), (0, 1, 1), (1, 1, 2)),
                     ((0, 0),), ((1, 0), (0, 1), (1, 1))):
            with pytest.raises(ValueError, match="not linearly independent"):
                Sublattice(len(rows[0]), rows)

    def test_equal_records_hash_equal(self):
        a = Sublattice(2, [[1, 0], [0, 1]])
        b = Sublattice.full(2)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == \
            "Sublattice(ambient_rank=2, basis_rows=((1, 0), (0, 1)), lattice='X(T)')"
        assert Sublattice(2, ((2, 0),)) != Sublattice(2, ((2, 0),), lattice="M")
        assert len({a, b, Sublattice(2, ((1, 1), (0, 1)))}) == 2

    def test_random_bases_up_to_rank_5(self):
        # Seeded bases of rank 1-5 with entries in +-3, a fifth of them square
        # and unimodular; each meets three kinds of target, and a Fraction
        # solve is the reference.
        rng = random.Random(5)
        seen = Counter()
        while seen["basis"] < 250:
            rank = rng.randint(1, 5)
            n = rng.randint(rank, 5)
            if rng.random() < 0.2:
                B, n = unimodular_within(rng, rank, 3), rank
            else:
                B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
                if rank > 1 and rng.random() < 0.2:
                    B[-1] = [a - b for a, b in zip(B[0], B[1])]
            if fraction_rank(B) < rank:
                with pytest.raises(ValueError, match="not linearly independent"):
                    Sublattice(n, B)
                seen["dependent"] += 1
                continue
            sub = Sublattice(n, B)
            seen["basis"] += 1
            assert sub.is_full == (rank == n and abs(det(B)) == 1)
            seen["full"] += sub.is_full
            U, D, _ = smith_normal_form(B)
            d = D[rank - 1][rank - 1]
            seen["not saturated"] += d > 1
            # U[-1] * B = d * w with U[-1] primitive, so c * w is an integer
            # vector with non-integer coordinates c * U[-1] / d for 0 < c < d.
            w = [sum(U[-1][i] * B[i][j] for i in range(rank)) // d for j in range(n)]
            for _ in range(6):
                x = [rng.randint(-4, 4) for _ in range(rank)]
                v = tuple(sum(x[i] * B[i][j] for i in range(rank)) for j in range(n))
                assert fraction_solve(B, v) == tuple(x)
                assert sub.coordinates(xt(*v)) == tuple(x)
                if d > 1:
                    c = rng.randint(1, d - 1)
                    v = tuple(c * a + b for a, b in zip(w, v))
                    want = tuple(Fraction(c * u, d) + a for u, a in zip(U[-1], x))
                    assert fraction_solve(B, v) == want
                    assert any(a.denominator != 1 for a in want)
                    assert sub.coordinates(xt(*v)) is None
                    seen["rational target"] += 1
                v = tuple(rng.randint(-6, 6) for _ in range(n))
                want = fraction_solve(B, v)
                if want is None:
                    seen["random target outside the span"] += 1
                elif any(a.denominator != 1 for a in want):
                    seen["random target in the span, not the lattice"] += 1
                    want = None
                assert sub.coordinates(xt(*v)) == want
        assert min(seen.values()) >= 25, seen
        assert seen["basis"] - seen["not saturated"] >= 40, seen
        assert seen["basis"] - seen["full"] >= 40, seen
