"""Finite root systems from explicit simple root and coroot vectors.

Simple roots live in the character lattice X(T) of a connected reductive group
(possibly with central torus factors, so the ambient rank may exceed the number
of simple roots); simple coroots are integral functionals on X(T). Positive
roots are generated by the root-string closure: beta + alpha_i is a root iff
the string length q = p - <beta, alpha_i^vee> is positive, where p counts how
far the string extends backwards. The closure runs on Cartan integers (a step
up by alpha_i adds column i of the Cartan matrix) and keeps each root's
raising mask, the set of i with beta + alpha_i a root. The Cartan matrix is
checked to be of finite type first (its Dynkin graph is a forest and the
pivots of eliminating it leaf by leaf are positive), so the closure always
terminates, no cap on its size is needed, and no coefficient exceeds 6 (the
highest root of E8). So each coefficient tuple is packed into one int key,
8 bits per simple root below the height, and a step along a root string adds
or subtracts a unit key.

The standard constructors realize each Cartan type in fundamental-weight
coordinates: coroots are standard basis functionals and simple roots are the
columns of the Cartan matrix, padded with zeros for central torus directions.
"""

from __future__ import annotations

from operator import add
from typing import Optional, Sequence

from .lattice import DualVector, LatticeVector, _Frozen, _require, dot, matrix_rank


def cartan_matrix_of_type(letter: str, rank: int):
    """The Cartan matrix of a simple type, rows indexed by coroots."""
    letter = letter.upper()
    if rank < 1:
        raise ValueError("rank must be positive")
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain(last: int):
        for i in range(last):
            A[i][i + 1] = -1
            A[i + 1][i] = -1

    if letter == "A":
        chain(rank - 1)
    elif letter == "B":
        if rank < 2:
            raise ValueError("type B needs rank >= 2")
        chain(rank - 1)
        A[rank - 1][rank - 2] = -2
    elif letter == "C":
        if rank < 2:
            raise ValueError("type C needs rank >= 2")
        chain(rank - 1)
        A[rank - 2][rank - 1] = -2
    elif letter == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
        chain(rank - 2)
        A[rank - 3][rank - 1] = -1
        A[rank - 1][rank - 3] = -1
    elif letter == "G":
        if rank != 2:
            raise ValueError("type G has rank 2")
        A[0][1] = -1
        A[1][0] = -3
    elif letter == "F":
        if rank != 4:
            raise ValueError("type F has rank 4")
        chain(3)
        A[1][2] = -2
        A[2][1] = -1
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E has rank 6, 7 or 8")
        # Bourbaki numbering: node 2 attaches to node 4 of the A-chain 1-3-4-5-...
        chain_nodes = [0] + list(range(2, rank))
        for a, b in zip(chain_nodes, chain_nodes[1:]):
            A[a][b] = -1
            A[b][a] = -1
        A[1][3] = -1
        A[3][1] = -1
    else:
        raise ValueError(f"unknown type {letter!r}")
    return tuple(tuple(row) for row in A)


def _finite_type(A) -> bool:
    """Whether a GCM with the sign and zero pattern of a Cartan matrix is of
    finite type.

    Finite-type Dynkin diagrams are forests (Kac, Infinite dimensional Lie
    algebras, ch. 4). On a forest A = DB with D positive diagonal and B
    symmetric, so A is of finite type iff B is positive definite, that is iff
    the pivots of a symmetric elimination are positive, in any order. Taken
    leaves first, eliminating a node changes only its one remaining neighbour
    u, whose pivot drops by A[u][v] A[v][u] / p_v; pivots are kept as integer
    (numerator, positive denominator) pairs.
    """
    n = len(A)
    component = list(range(n))  # union-find: an edge inside a component closes a cycle
    for i in range(n):
        for j in range(i):
            if A[i][j]:
                a, b = _find(component, i), _find(component, j)
                if a == b:
                    return False
                component[a] = b
    neighbours = [[j for j in range(n) if j != i and A[i][j]] for i in range(n)]
    left = [len(nb) for nb in neighbours]  # neighbours not yet eliminated
    pivot = [(2, 1)] * n
    leaves = [v for v in range(n) if left[v] <= 1]
    while leaves:
        v = leaves.pop()
        num, den = pivot[v]
        if num <= 0:
            return False
        left[v] = -1  # eliminated
        for u in neighbours[v]:
            if left[u] > 0:
                un, ud = pivot[u]
                pivot[u] = (un * num - A[u][v] * A[v][u] * den * ud, ud * num)
                left[u] -= 1
                if left[u] == 1:
                    leaves.append(u)
    return True


def _find(component, i):
    while component[i] != i:
        i = component[i]
    return i


class RootSystem(_Frozen):
    """A finite root system realized inside X(T) = Z^ambient_rank; equality reads
    the ambient rank and the simple roots and coroots."""

    __slots__ = ("ambient_rank", "simple_roots", "simple_coroots", "positive_roots",
                 "coefficients", "_raising")  # _raising: bit i, beta + alpha_i is a root
    _compared = ("ambient_rank", "simple_roots", "simple_coroots")
    _shown = _compared + ("positive_roots",)

    def __init__(self, ambient_rank: int, simple_roots: tuple, simple_coroots: tuple,
                 positive_roots: tuple, coefficients: tuple, _raising: tuple):
        self._set(ambient_rank, simple_roots, simple_coroots, positive_roots, coefficients,
                  _raising)

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def coefficients_of(self, root: LatticeVector) -> tuple:
        _require(root, LatticeVector, "X(T)", self.ambient_rank)
        for beta, coeff in zip(self.positive_roots, self.coefficients):
            if beta == root:
                return coeff
        raise ValueError(f"{root.coords} is not a positive root")

    def is_root(self, v: LatticeVector) -> bool:
        _require(v, LatticeVector, "X(T)", self.ambient_rank)
        minus = -v
        return any(beta == v or beta == minus for beta in self.positive_roots)


def root_system(simple_roots: Sequence[LatticeVector],
                simple_coroots: Sequence[DualVector],
                ambient_rank: int) -> RootSystem:
    """Validate vector data as a finite root system and close the positive roots."""
    roots = tuple(simple_roots)
    coroots = tuple(simple_coroots)
    if len(roots) != len(coroots):
        raise ValueError("need as many simple coroots as simple roots")
    n = len(roots)
    for v in roots:
        _require(v, LatticeVector, "X(T)", ambient_rank)
    for v in coroots:
        _require(v, DualVector, "X(T)", ambient_rank)
    simple = [v.coords for v in roots]
    A = [[dot(cv.coords, a) for a in simple] for cv in coroots]
    problem = _cartan_problem(A)
    if problem:  # A = C R^T, and a finite-type A is nonsingular: ranks run only here
        if matrix_rank(simple) != n:
            raise ValueError("simple roots are linearly dependent")
        if matrix_rank([v.coords for v in coroots]) != n:
            raise ValueError("simple coroots are linearly dependent")
        raise ValueError(problem)

    # Positive roots by height, breadth first with order as the queue. A packed
    # key has the height above the coefficients, simple root 0 highest, so
    # keys order by height and then by coefficient tuple. Each key carries its
    # coefficients, coordinates and Cartan integers <beta, alpha_k^vee>, and
    # gets its raising mask.
    columns = tuple(zip(*A))
    unit = [(1 << 8 * n) + (1 << 8 * (n - 1 - i)) for i in range(n)]
    eye = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    known = {unit[i]: (eye[i], simple[i], columns[i]) for i in range(n)}
    order, masks = list(known), {}
    for key in order:
        coeff, coords, cartan = known[key]
        mask = 0
        for i, c, a, step in zip(range(n), coeff, cartan, unit):
            p, down = 0, key - step
            while p < c and down in known:  # the guard keeps digit i from borrowing
                p, down = p + 1, down - step
            if p > a:  # the string length q = p - <beta, alpha_i^vee> is positive
                mask |= 1 << i
                if key + step not in known:
                    known[key + step] = (tuple(map(add, coeff, eye[i])),
                                         tuple(map(add, coords, simple[i])),
                                         tuple(map(add, cartan, columns[i])))
                    order.append(key + step)
        masks[key] = mask

    order.sort()
    return RootSystem(
        ambient_rank=ambient_rank,
        simple_roots=roots,
        simple_coroots=coroots,
        positive_roots=tuple(LatticeVector._trusted(known[k][1], "X(T)") for k in order),
        coefficients=tuple(known[k][0] for k in order),
        _raising=tuple(masks[k] for k in order),
    )


def _cartan_problem(A) -> Optional[str]:
    """What keeps A from being a Cartan matrix of finite type, or None."""
    n = len(A)
    for i in range(n):
        if A[i][i] != 2:
            return f"<alpha_{i}, alpha_{i}^vee> = {A[i][i]}, expected 2"
        for j in range(n):
            if i == j:
                continue
            if A[i][j] > 0:
                return f"positive off-diagonal Cartan entry at ({i},{j})"
            if (A[i][j] == 0) != (A[j][i] == 0):
                return f"asymmetric zero pattern at ({i},{j})"
    return None if _finite_type(A) else "Cartan matrix is not of finite type"


def standard_root_system(letter: str, rank: int,
                         ambient_rank: Optional[int] = None) -> RootSystem:
    """A simple type in fundamental-weight coordinates, optionally padded.

    Coroots are the first ``rank`` standard basis functionals; simple roots are
    Cartan matrix columns. Extra ambient coordinates model central torus factors.
    """
    A = cartan_matrix_of_type(letter, rank)
    if ambient_rank is None:
        ambient_rank = rank
    if ambient_rank < rank:
        raise ValueError("ambient rank cannot be smaller than the type rank")
    pad = ambient_rank - rank
    roots = tuple(
        LatticeVector(tuple(A[i][j] for i in range(rank)) + (0,) * pad, "X(T)")
        for j in range(rank))
    coroots = tuple(
        DualVector(tuple(1 if i == j else 0 for i in range(rank)) + (0,) * pad, "X(T)")
        for j in range(rank))
    return root_system(roots, coroots, ambient_rank)


def torus_root_system(ambient_rank: int) -> RootSystem:
    """The empty root system of a torus of the given rank."""
    return root_system((), (), ambient_rank)


# ---------------------------------------------------------------------------
# Parabolic subgroups: Levi roots, nilradical roots and their highest weights.
# ---------------------------------------------------------------------------


def _outside_levi(rs: RootSystem, levi) -> list:
    """The simple-root indices outside a Levi subset, once its indices are checked."""
    levi = frozenset(levi)
    bad = [i for i in levi if isinstance(i, bool) or not isinstance(i, int)
           or not 0 <= i < rs.semisimple_rank]
    if bad:
        bad.sort(key=lambda i: (0, i) if type(i) is int else (1, repr(i)))
        raise ValueError(f"invalid simple-root indices in Levi subset: {bad}")
    return [i for i in range(rs.semisimple_rank) if i not in levi]


def levi_positive_roots(rs: RootSystem, levi) -> tuple:
    """Positive roots supported on the chosen simple roots."""
    rest = _outside_levi(rs, levi)
    return tuple(beta for beta, coeff in zip(rs.positive_roots, rs.coefficients)
                 if not any(coeff[i] for i in rest))


def nilradical_roots(rs: RootSystem, levi) -> tuple:
    """Positive roots using at least one simple root outside the Levi subset."""
    rest = _outside_levi(rs, levi)
    return tuple(beta for beta, coeff in zip(rs.positive_roots, rs.coefficients)
                 if any(coeff[i] for i in rest))


def nilradical_highest_weights(rs: RootSystem, levi) -> tuple:
    """Highest weights of the irreducible Levi summands of the nilradical.

    A nilradical root alpha is a highest weight iff alpha + alpha_i is not a
    root for any simple root alpha_i of the Levi: the raising operators of the
    Levi are generated by those of its simple roots (Humphreys, Introduction
    to Lie Algebras, 20-21). That is the root's raising mask read on the
    Levi's bits. The result is sorted by coordinates.
    """
    rest = _outside_levi(rs, levi)
    inside = (1 << rs.semisimple_rank) - 1 - sum(1 << i for i in rest)
    out = [beta for beta, coeff, mask in zip(rs.positive_roots, rs.coefficients, rs._raising)
           if not mask & inside and any(coeff[i] for i in rest)]
    return tuple(sorted(out, key=lambda b: b.coords))
