"""Exact integer lattice arithmetic: tagged vectors, pairings, echelon forms,
and Polyhedron, whose one walk lists the lattice points of a system of rows.
_Frozen, the base of every value class in the package, makes them immutable
slotted classes with equality, hash, repr and pickling over their fields.

Everything here is plain ``int`` arithmetic (arbitrary precision); no floats are
used anywhere in the package. Vectors carry their side of the pairing (a
LatticeVector in M, a DualVector in N) and the name of their lattice. One
check, _require, stands behind every function that takes a vector: the wrong
side raises TypeError, and another lattice or rank raises RankMismatch, which
no other module raises.

One fraction-free (Bareiss) Gauss-Jordan elimination gives ranks, leading
principal minors, and, run on a matrix beside an identity block, the
coordinates of a vector in a sublattice basis. One column echelon form by
Euclid steps, which carries its unimodular transform, does every unimodular
job: integer kernels, the split of a cone's lineality, and, alternated with
its run on the transpose, the Smith normal form.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterable, Optional, Sequence


class RankMismatch(ValueError):
    """Raised when two vectors of different rank (or lattice) are combined."""


class _Frozen:
    """An immutable value of the fields a subclass lists in __slots__, which
    its __init__ sets in order with _set (the hottest with object.__setattr__).
    _fields are the constructor's arguments, in order, and default to the
    slots; _compared, the fields equality and hash read, and _shown, those the
    repr shows, default to _fields. Equality holds only within one class, the
    hash is that of the tuple of compared fields, and copies and pickles
    rebuild through __init__, so no stored derived field outlives a process.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        own = vars(cls)
        fields = own.get("_fields") or own.get("__slots__")
        if fields:
            cls._fields = fields
            cls._shown = own.get("_shown", fields)
            compared = own.get("_compared", fields)
            get = operator.attrgetter(*compared)
            cls._key = property(get if len(compared) > 1 else lambda self: (get(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


def _as_int_tuple(coords) -> tuple:
    coords = tuple(coords)
    if any(isinstance(c, bool) for c in coords):
        raise TypeError("vector coordinates must be integers")
    return tuple(map(operator.index, coords))


def _require(v, cls, lattice: str, rank: int) -> None:
    """Raise TypeError unless v is a cls, and RankMismatch unless it lives in
    the named lattice and has the given rank. Allocates nothing unless it raises."""
    if not isinstance(v, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(v).__name__}")
    if v.lattice != lattice:
        raise RankMismatch(f"vectors live in different lattices: {v.lattice!r} vs {lattice!r}")
    if len(v.coords) != rank:
        raise RankMismatch(f"rank mismatch: {len(v.coords)} vs {rank}")


def _require_sublattice(sub, lattice: str, rank: int) -> None:
    """Raise RankMismatch unless the Sublattice sub lies in a cone's lattice and rank."""
    if sub.lattice != lattice or sub.ambient_rank != rank:
        raise RankMismatch(f"a sublattice of {sub.lattice!r} of rank {sub.ambient_rank} "
                           f"does not match a cone over {lattice!r} of rank {rank}")


class _Vector(_Frozen):
    """Integer coordinates tagged with the name of their lattice.

    The two subclasses below tell the sides of a pairing apart; arithmetic
    returns the class of its left operand, and equality never equates vectors
    of different classes.
    """

    __slots__ = ("coords", "lattice")

    def __init__(self, coords: tuple, lattice: str = "M"):
        object.__setattr__(self, "coords", _as_int_tuple(coords))
        object.__setattr__(self, "lattice", lattice)

    @classmethod
    def _trusted(cls, coords: tuple, lattice: str):
        """A vector of an int tuple the caller has built: no re-validation."""
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        object.__setattr__(v, "lattice", lattice)
        return v

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords and self.lattice == other.lattice

    def __hash__(self) -> int:
        return hash((self.coords, self.lattice))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other):
        _require(other, type(self), self.lattice, len(self.coords))

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

    __slots__ = ()


class DualVector(_Vector):
    """An integral functional on the lattice named by ``lattice``.

    Valuation vectors kappa(D) and cone ray generators are DualVectors; weights
    are LatticeVectors. The pairing below only accepts a matching pair.
    """

    __slots__ = ()


def pairing(rho: DualVector, lam: LatticeVector) -> int:
    """<rho, lambda>: the integer value of the functional rho on lambda."""
    _require(rho, DualVector, lam.lattice, len(lam.coords))
    _require(lam, LatticeVector, rho.lattice, len(rho.coords))
    return sum(map(operator.mul, rho.coords, lam.coords))


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise RankMismatch(f"rank mismatch: {len(a)} vs {len(b)}")
    return sum(map(operator.mul, a, b))


def _require_bound(bound: int) -> None:
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")


class Polyhedron(_Frozen):
    """The points x of Z^rank (rank >= 1) with a.x >= b for (a, b) in ge and
    c.x = d for (c, d) in eq, kept as tuples of (int tuple, int) rows, so
    polyhedra with the same rows are equal and hash alike. The rows are built
    once, each equation as the pair c.x >= d, -c.x >= -d, whose two cuts at a
    coordinate are exactly the equation's; one walk of a cube [-s, s]^rank
    lists the points."""

    __slots__ = ("rank", "ge", "eq", "_rows")
    _fields = ("rank", "ge", "eq")

    def __init__(self, rank: int, ge: Sequence = (), eq: Sequence = ()):
        ge = tuple([(tuple(a), b) for a, b in ge])
        eq = tuple([(tuple(c), d) for c, d in eq])
        rows = ge + tuple([row for c, d in eq for row in ((c, d), (tuple([-v for v in c]), -d))])
        if any(len(a) != rank for a, _ in rows):
            raise RankMismatch(f"rank mismatch: every row must have length {rank}")
        self._set(rank, ge, eq, rows)

    def points(self, bound: int):
        """The points of sup-norm at most bound in (sup-norm, 1-norm, lex) order, one
        shell at a time, so a caller that stops early pays for the shells up to there."""
        _require_bound(bound)
        for s in range(bound + 1):
            yield from self._walk(s, shell=s > 0)

    def cube(self, bound: int) -> list:
        """The points of [-bound, bound]^rank, as int tuples in lex order."""
        _require_bound(bound)
        return self._walk(bound)

    def _walk(self, s: int, shell: bool = False) -> list:
        """The points of [-s, s]^rank in lex order, each coordinate's range cut
        to the interval that keeps every row satisfiable; with shell (s > 0),
        only those of sup-norm s, walking the surface, in (1-norm, lex) order."""
        rows, rank = self._rows, self.rank
        if any(b > 0 for a, b in rows if not any(a)):
            return []
        active = [[] for _ in range(rank)]  # (row, a[k], max of a[k+1:].x[k+1:])
        for r, (a, _) in enumerate(rows):
            rest = 0
            for k in reversed(range(rank)):
                if a[k]:
                    active[k].append((r, a[k], rest))
                rest += abs(a[k]) * s
        need = [b for _, b in rows]  # what each row still needs from the free coordinates
        x, hits = [0] * rank, []

        def walk(k, inside):
            # inside: with shell, x[:k] has no entry +-s, so x[k:] must have one
            low, high = -s, s
            for r, a, rest in active[k]:  # a * x[k] >= need[r] - rest
                if a > 0:
                    low = max(low, -((rest - need[r]) // a))
                else:
                    high = min(high, (need[r] - rest) // a)
            if k == rank - 1:
                for v in (-s, s) if inside else range(low, high + 1):
                    if low <= v <= high:
                        x[k] = v
                        hits.append(tuple(x))
                return
            for v in range(low, high + 1):
                x[k] = v
                for r, a, _ in active[k]:
                    need[r] -= a * v
                walk(k + 1, inside and -s < v < s)
                for r, a, _ in active[k]:
                    need[r] += a * v

        walk(0, shell)
        if shell:
            hits.sort(key=lambda x: (sum(map(abs, x)), x))
        return hits


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
# Integer matrices (lists of row tuples): echelon and Smith forms, elimination.
# ---------------------------------------------------------------------------


def _echelon(matrix: Sequence[Sequence[int]], n: int, start=None):
    """Column echelon form of an integer matrix with rows of length n, by
    Euclid steps one row at a time, as (H, U, r) with A * U = H, H and U given
    by their columns (lists).

    Row by row, the column of least nonzero entry among columns r.. is swapped
    to r and reduces the others, until only column r is nonzero there; then r
    moves on. Columns r.. of H are zero and the first r are independent, so
    U's columns r.. are a basis of the saturated integer kernel, and its first
    r columns complete it to a basis of Z^n. start, the columns of a
    transform to continue, takes the column steps in place of the identity.
    """
    rows = [_as_int_tuple(row) for row in matrix]
    if any(len(row) != n for row in rows):
        raise ValueError("row length does not match n")
    H = [list(column) for column in zip(*rows)] if rows else [[] for _ in range(n)]
    U = [list(column) for column in start] if start is not None else [
        [int(i == j) for i in range(n)] for j in range(n)]
    r = 0
    for i in range(len(rows)):
        while live := [j for j in range(r, n) if H[j][i]]:
            p = min(live, key=lambda j: abs(H[j][i]))  # ties keep column r
            H[r], H[p], U[r], U[p] = H[p], H[r], U[p], U[r]
            if len(live) == 1:
                r += 1
                break
            h, u, a = H[r], U[r], H[r][i]
            for j in range(r + 1, n):
                if q := H[j][i] // a:
                    H[j] = [x - q * y for x, y in zip(H[j], h)]
                    U[j] = [x - q * y for x, y in zip(U[j], u)]
    return H, U, r


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Return (U, D, V) with U * A * V = D over the integers.

    U (m x m) and V (n x n) are unimodular; D is diagonal with nonnegative
    entries d_1 | d_2 | ... . Matrices are returned as tuples of row tuples.
    Column echelon passes alternate with row passes (column passes on the
    transpose), each continuing its transform, until the matrix is diagonal;
    then the signs are fixed, and while some d_i does not divide a later d_j,
    row j is added to row i and the passes resume.
    """
    A = [tuple(row) for row in matrix]  # _echelon checks the entries and lengths
    m, n = len(A), len(A[0]) if A else 0
    U = V = None  # the rows of U, the columns of V
    while True:
        columns, V, _ = _echelon(A, n, V)
        A, U, _ = _echelon(columns, m, U)
        if any(x for i, row in enumerate(A) for j, x in enumerate(row) if i != j):
            continue
        for i in range(min(m, n)):
            if A[i][i] < 0:
                A[i], U[i] = [-x for x in A[i]], [-x for x in U[i]]
        bad = next(((i, j) for i in range(min(m, n)) for j in range(i + 1, min(m, n))
                    if A[i][i] and A[j][j] % A[i][i]), None)
        if bad is None:
            break
        i, j = bad
        A[i] = [x + y for x, y in zip(A[i], A[j])]
        U[i] = [x + y for x, y in zip(U[i], U[j])]
    return tuple(map(tuple, U)), tuple(map(tuple, A)), tuple(zip(*V))


def matrix_rank(matrix) -> int:
    return len(_bareiss([row for row in map(_as_int_tuple, matrix) if any(row)])[1])


def integer_kernel(rows: Sequence[Sequence[int]], n: int):
    """Basis of {v in Z^n : <row, v> = 0 for every row}, as a list of tuples:
    the trailing columns of _echelon's transform, which span the full
    (saturated) integer kernel."""
    _, U, r = _echelon(rows, n)
    return [tuple(u) for u in U[r:]]


def _lift(rows: Sequence[tuple], vectors) -> list:
    """The int tuples sum_i y_i * rows_i, one for each coefficient tuple y."""
    columns = list(zip(*rows))
    return [tuple(dot(y, c) for c in columns) for y in vectors]


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


class Sublattice(_Frozen):
    """A finite-rank subgroup of Z^ambient_rank given by independent basis rows.

    The rows are reduced once by _transform; _solver keeps the last pivot det,
    the pivot columns, and the columns of the T_c and of the rows. They give
    the linear residue map v -> (num, res): num = T * v[pivots] and
    res = embed(num) - det * v, one matrix-vector product each. v lies in the
    sublattice iff res is zero and det divides every entry of num, and its
    coordinates are then num // det.
    """

    __slots__ = ("ambient_rank", "basis_rows", "lattice", "_solver")
    _fields = ("ambient_rank", "basis_rows", "lattice")

    def __init__(self, ambient_rank: int, basis_rows: tuple, lattice: str = "X(T)"):
        rows = tuple(_as_int_tuple(r) for r in basis_rows)
        if any(len(r) != ambient_rank for r in rows):
            raise ValueError("basis row length does not match ambient rank")
        det, transform = _transform(rows, ambient_rank)
        if any(c >= ambient_rank for c in transform):
            raise ValueError("basis rows are not linearly independent")
        solver = (det, tuple(transform), tuple(zip(*transform.values())),
                  tuple(tuple(r[j] for r in rows) for j in range(ambient_rank)))
        self._set(ambient_rank, rows, lattice, solver)

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

    def residue(self, v: LatticeVector) -> tuple:
        """(num, res) of v, as int tuples; the map is linear in v."""
        _require(v, LatticeVector, self.lattice, self.ambient_rank)
        det, pivots, solve, columns = self._solver
        at_pivots = [v.coords[c] for c in pivots]
        num = tuple(sum(map(operator.mul, at_pivots, col)) for col in solve)
        return num, tuple(sum(map(operator.mul, num, col)) - det * x
                          for col, x in zip(columns, v.coords))

    def divide(self, num: Sequence[int]) -> Optional[tuple]:
        """num // det, or None when det does not divide every entry."""
        det = self._solver[0]
        if any(n % det for n in num):
            return None
        return tuple(n // det for n in num)

    def coordinates(self, v: LatticeVector) -> Optional[tuple]:
        """Coefficients of v in the basis rows, or None when v is not in the
        sublattice: divide(num) when res is zero."""
        num, res = self.residue(v)
        return None if any(res) else self.divide(num)

    def contains(self, v: LatticeVector) -> bool:
        return self.coordinates(v) is not None

    def embed(self, coeffs: Sequence[int]) -> LatticeVector:
        """The ambient vector sum_i coeffs[i] * basis_rows[i]."""
        if len(coeffs) != self.rank:
            raise RankMismatch(f"expected {self.rank} coefficients, got {len(coeffs)}")
        coords = _lift(self.basis_rows, [coeffs])[0] if coeffs else (0,) * self.ambient_rank
        return LatticeVector(coords, self.lattice)
