"""Exact integer lattice arithmetic: tagged vectors, pairings, Smith normal form.

Everything here is plain ``int`` arithmetic (arbitrary precision); no floats are
used anywhere in the package. Vectors carry the name of the lattice they live in
so that a functional on one lattice can never be paired against a vector of
another by accident.

One fraction-free (Bareiss) Gauss-Jordan elimination gives ranks, leading
principal minors, and, run on a matrix beside an identity block, inverses of
unimodular matrices and the coordinates of a vector in a sublattice basis; the
Smith normal form gives integer kernels and invariant factors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Optional, Sequence


class RankMismatch(ValueError):
    """Raised when two vectors of different rank (or lattice) are combined."""


def _as_int_tuple(coords) -> tuple:
    coords = tuple(coords)
    if any(isinstance(c, bool) for c in coords):
        raise TypeError("vector coordinates must be integers")
    return tuple(map(operator.index, coords))


@dataclass(frozen=True)
class _Vector:
    """Integer coordinates tagged with the name of their lattice.

    The two subclasses below tell the sides of a pairing apart; arithmetic
    returns the class of its left operand, and the dataclass equality never
    equates vectors of different classes.
    """

    coords: tuple
    lattice: str = "M"

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_int_tuple(self.coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other):
        if self.lattice != other.lattice:
            raise RankMismatch(
                f"vectors live in different lattices: {self.lattice!r} vs {other.lattice!r}"
            )
        if len(self.coords) != len(other.coords):
            raise RankMismatch(
                f"rank mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other):
        self._check(other)
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords)), self.lattice)

    def __sub__(self, other):
        self._check(other)
        return type(self)(tuple(a - b for a, b in zip(self.coords, other.coords)), self.lattice)

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords), self.lattice)

    def __mul__(self, n: int):
        return type(self)(tuple(n * a for a in self.coords), self.lattice)

    __rmul__ = __mul__


class LatticeVector(_Vector):
    """A point of a lattice, e.g. a weight in M or a character in X(T)."""


class DualVector(_Vector):
    """An integral functional on the lattice named by ``lattice``.

    Valuation vectors kappa(D) and cone ray generators are DualVectors; weights
    are LatticeVectors. The pairing below only accepts a matching pair.
    """


def pairing(rho: DualVector, lam: LatticeVector) -> int:
    """<rho, lambda>: the integer value of the functional rho on lambda."""
    if not isinstance(rho, DualVector) or not isinstance(lam, LatticeVector):
        raise TypeError("pairing takes (DualVector, LatticeVector)")
    if rho.lattice != lam.lattice:
        raise RankMismatch(
            f"cannot pair a functional on {rho.lattice!r} with a vector of {lam.lattice!r}"
        )
    if rho.rank != lam.rank:
        raise RankMismatch(f"rank mismatch: {rho.rank} vs {lam.rank}")
    return sum(a * b for a, b in zip(rho.coords, lam.coords))


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise RankMismatch(f"rank mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def lattice_points(rank: int, bound: int, ge=(), eq=()):
    """Points x of Z^rank (rank >= 1) with a.x >= b for (a, b) in ge, c.x = d
    for (c, d) in eq and sup-norm at most bound, as int tuples in (sup-norm,
    1-norm, lex) order.

    Shells of equal sup-norm come out in turn and only each shell's surface is
    walked, so a caller that stops at its first point pays for the shells up
    to it, and a search without a hit costs one box. Each coordinate's range
    is cut to the interval that keeps every row satisfiable.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    rows = [(tuple(a), b) for a, b in ge]
    rows += [row for c, d in eq for row in ((tuple(c), d), (tuple(-v for v in c), -d))]
    for s in range(bound + 1):
        hits = []
        # Shell s is the disjoint union over `face` of the points whose first
        # coordinate of absolute value s is x[face]; s = 0 is the origin alone.
        for face in range(rank) if s else (None,):
            widths = [0] * rank if face is None else [s - 1] * face + [s] * (rank - face)
            _walk(rows, [-w for w in widths], widths, face, hits)
        hits.sort(key=lambda x: (sum(map(abs, x)), x))
        yield from hits


def box_points(lo: Sequence[int], hi: Sequence[int], ge=()) -> list:
    """Points x of Z^n (n >= 1) with lo <= x <= hi and a.x >= b for (a, b) in
    ge, as int tuples in lex order; ranges are cut as in lattice_points."""
    hits = []
    _walk([(tuple(a), b) for a, b in ge], list(lo), list(hi), None, hits)
    return hits


def _walk(rows, lo, hi, face, hits):
    """Append to hits, in lex order, each point of the box lo <= x <= hi that
    satisfies every row a.x >= b, with x[face] restricted to its two ends."""
    if any(b > 0 for a, b in rows if not any(a)):
        return
    rank = len(lo)
    active = [[] for _ in range(rank)]  # (row, a[k], max of a[k+1:].x[k+1:])
    for r, (a, _) in enumerate(rows):
        rest = 0
        for k in reversed(range(rank)):
            if a[k]:
                active[k].append((r, a[k], rest))
            rest += a[k] * (hi[k] if a[k] > 0 else lo[k])
    need = [b for _, b in rows]  # what each row still needs from the free coordinates
    x = [0] * rank

    def walk(k):
        low, high = lo[k], hi[k]
        for r, a, rest in active[k]:  # a * x[k] >= need[r] - rest
            if a > 0:
                low = max(low, -((rest - need[r]) // a))
            else:
                high = min(high, (need[r] - rest) // a)
        values = range(low, high + 1) if k != face else \
            [v for v in (lo[k], hi[k]) if low <= v <= high]
        for v in values:
            x[k] = v
            if k == rank - 1:
                hits.append(tuple(x))
                continue
            for r, a, _ in active[k]:
                need[r] -= a * v
            walk(k + 1)
            for r, a, _ in active[k]:
                need[r] += a * v

    walk(0)


def content(coords: Iterable[int]) -> int:
    g = 0
    for c in coords:
        g = gcd(g, abs(c))
    return g


def primitive_tuple(coords: Sequence[int]) -> tuple:
    """Divide out the gcd of the coordinates, keeping direction and sign."""
    g = content(coords)
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(c // g for c in coords)


def primitive(v):
    """Primitive vector on the same ray: v / gcd(coords). Sign is preserved."""
    if not isinstance(v, _Vector):
        raise TypeError("primitive expects a LatticeVector or DualVector")
    return type(v)(primitive_tuple(v.coords), v.lattice)


# ---------------------------------------------------------------------------
# Integer matrices (lists of row tuples) and Smith normal form.
# ---------------------------------------------------------------------------


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Return (U, D, V) with U * A * V = D over the integers.

    U (m x m) and V (n x n) are unimodular; D is diagonal with nonnegative
    entries d_1 | d_2 | ... . Matrices are returned as tuples of row tuples.
    """
    A = [list(_as_int_tuple(row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
            rem = [i for i in range(t + 1, m) if A[i][t]]
            if rem:
                i = min(rem, key=lambda k: (abs(A[k][t]), k))
                swap_rows(t, i)
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    add_col(t, j, -(A[t][j] // A[t][t]))
            rem = [j for j in range(t + 1, n) if A[t][j]]
            if rem:
                j = min(rem, key=lambda k: (abs(A[t][k]), k))
                swap_cols(t, j)
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    to_t = lambda M: tuple(tuple(row) for row in M)
    return to_t(U), to_t(A), to_t(V)


def invariant_factors(matrix) -> tuple:
    _, D, _ = smith_normal_form(matrix)
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0)


def matrix_rank(matrix) -> int:
    return len(_bareiss([row for row in matrix if any(row)])[1])


def integer_kernel(rows: Sequence[Sequence[int]], n: int):
    """Basis of {v in Z^n : <row, v> = 0 for every row}, as a list of tuples.

    The basis spans a saturated sublattice (it is the full integer kernel).
    """
    rows = [tuple(r) for r in rows if any(r)]
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    if any(len(r) != n for r in rows):
        raise ValueError("row length does not match n")
    _, D, V = smith_normal_form(rows)
    m = len(rows)
    nonzero = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    basis = []
    for j in range(nonzero, n):
        basis.append(tuple(V[i][j] for i in range(n)))
    return basis


def unimodular_inverse(matrix: Sequence[Sequence[int]]):
    """Inverse of a unimodular integer matrix, as integer row tuples."""
    det, transform = _transform(matrix, len(matrix))
    if list(transform) != list(range(len(matrix))):
        raise ValueError("matrix is singular")
    if abs(det) != 1:
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(det * v for v in row) for row in transform.values())


def _transform(matrix, width: int):
    """Reduce [A | I] with _bareiss, for A of the given width, to the last pivot
    d and a dict from each pivot column c to the row T_c of the identity block.

    T_c * A is d on column c and 0 on the other pivot columns, so for
    independent rows x * A = v has the one solution x = sum_c v[c] * T_c / d,
    and |d| is the minor of A on its pivot columns. A pivot column c >= width
    means the rows of A are dependent.
    """
    m = len(matrix)
    rows, pivots = _bareiss([list(row) + [int(i == j) for j in range(m)]
                             for i, row in enumerate(matrix)])
    det = pivots[-1][2] if pivots else 1
    return det, {c: tuple(rows[r][width:]) for r, c, _ in pivots}


def _bareiss(matrix):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns the reduced rows and the pivots (row, column, value) in column
    order. Rows are never exchanged: a column's pivot is the first row not yet
    used with a nonzero entry there. Each pivot is the minor of the matrix on
    the pivot rows and columns so far, so every division is exact (Bareiss,
    Math. Comp. 1968); when the pivots sit on the diagonal they are the
    leading principal minors, and the last pivot of a square nonsingular
    matrix is its determinant up to the sign of the row order.
    """
    rows = [list(row) for row in matrix]
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        used = {r for r, _, _ in pivots}
        r = next((i for i, row in enumerate(rows) if row[c] and i not in used), None)
        if r is None:
            continue
        p, top = rows[r][c], rows[r]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = [(p * a - row[c] * b) // prev for a, b in zip(row, top)]
        pivots.append((r, c, p))
        prev = p
    return rows, pivots


@dataclass(frozen=True)
class Sublattice:
    """A finite-rank subgroup of Z^ambient_rank given by independent basis rows.

    The rows are reduced once by _transform; coordinates then cost one
    matrix-vector product.
    """

    ambient_rank: int
    basis_rows: tuple
    lattice: str = "X(T)"
    _solver: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(_as_int_tuple(r) for r in self.basis_rows)
        object.__setattr__(self, "basis_rows", rows)
        if any(len(r) != self.ambient_rank for r in rows):
            raise ValueError("basis row length does not match ambient rank")
        det, transform = _transform(rows, self.ambient_rank)
        if any(c >= self.ambient_rank for c in transform):
            raise ValueError("basis rows are not linearly independent")
        object.__setattr__(self, "_solver", (det, transform))

    @classmethod
    def full(cls, rank: int, lattice: str = "X(T)") -> "Sublattice":
        return cls(rank, tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)),
                   lattice)

    @property
    def rank(self) -> int:
        return len(self.basis_rows)

    @property
    def is_full(self) -> bool:
        return self.rank == self.ambient_rank and abs(self._solver[0]) == 1

    def coordinates(self, v: LatticeVector) -> Optional[tuple]:
        """Coefficients of v in the basis rows, or None when v is not in the sublattice."""
        if v.lattice != self.lattice:
            raise RankMismatch(
                f"vector of {v.lattice!r} tested against a sublattice of {self.lattice!r}")
        if v.rank != self.ambient_rank:
            raise RankMismatch(f"rank mismatch: {v.rank} vs {self.ambient_rank}")
        det, transform = self._solver
        # Exact when v lies in the sublattice; otherwise no integer x embeds
        # to v, so the floor division needs no divisibility test of its own.
        x = tuple(sum(v.coords[c] * row[i] for c, row in transform.items()) // det
                  for i in range(self.rank))
        return x if self.embed(x).coords == v.coords else None

    def contains(self, v: LatticeVector) -> bool:
        return self.coordinates(v) is not None

    def embed(self, coeffs: Sequence[int]) -> LatticeVector:
        """The ambient vector sum_i coeffs[i] * basis_rows[i]."""
        if len(coeffs) != self.rank:
            raise RankMismatch(f"expected {self.rank} coefficients, got {len(coeffs)}")
        coords = [0] * self.ambient_rank
        for c, row in zip(coeffs, self.basis_rows):
            for j in range(self.ambient_rank):
                coords[j] += c * row[j]
        return LatticeVector(tuple(coords), self.lattice)
