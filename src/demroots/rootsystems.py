"""Finite root systems from explicit simple root and coroot vectors.

Simple roots live in the character lattice X(T) of a connected reductive group
(possibly with central torus factors, so the ambient rank may exceed the number
of simple roots); simple coroots are integral functionals on X(T). Positive
roots are generated by the root-string closure: beta + alpha_i is a root iff
the string length q = p - <beta, alpha_i^vee> is positive, where p counts how
far the string extends backwards. The Cartan matrix is checked to be of finite
type first (its Dynkin graph is a forest and its leading principal minors are
positive), so the closure always terminates and no cap on its size is needed.

The standard constructors realize each Cartan type in fundamental-weight
coordinates: coroots are standard basis functionals and simple roots are the
columns of the Cartan matrix, padded with zeros for central torus directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .lattice import DualVector, LatticeVector, _bareiss, matrix_rank, pairing


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
    symmetric, so A is of finite type iff B is positive definite, that is
    (Sylvester) iff the leading principal minors of A are positive; these are
    the pivots of the fraction-free elimination when they sit on the diagonal.
    """
    n = len(A)
    # The vectors e_i - e_j of a graph's edges are independent iff it has no cycle.
    edges = [[(k == i) - (k == j) for k in range(n)]
             for i in range(n) for j in range(i) if A[i][j]]
    if matrix_rank(edges) != len(edges):
        return False
    _, pivots = _bareiss(A)
    return [(r, c) for r, c, _ in pivots] == [(k, k) for k in range(n)] \
        and all(p > 0 for _, _, p in pivots)


@dataclass(frozen=True)
class RootSystem:
    """A finite root system realized inside X(T) = Z^ambient_rank."""

    ambient_rank: int
    simple_roots: tuple
    simple_coroots: tuple
    positive_roots: tuple = field(compare=False)
    coefficients: tuple = field(compare=False, repr=False)

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def cartan_matrix(self):
        return tuple(tuple(pairing(cv, a) for a in self.simple_roots)
                     for cv in self.simple_coroots)

    def coefficients_of(self, root: LatticeVector) -> tuple:
        for beta, coeff in zip(self.positive_roots, self.coefficients):
            if beta == root:
                return coeff
        raise ValueError(f"{root.coords} is not a positive root")

    def is_root(self, v: LatticeVector) -> bool:
        return any(beta == v for beta in self.positive_roots) or \
            any(beta == -v for beta in self.positive_roots)


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
        if v.rank != ambient_rank or v.lattice != "X(T)":
            raise ValueError("simple roots must be X(T) vectors of the ambient rank")
    for v in coroots:
        if v.rank != ambient_rank or v.lattice != "X(T)":
            raise ValueError("simple coroots must be X(T) functionals of the ambient rank")
    if matrix_rank([v.coords for v in roots]) != n:
        raise ValueError("simple roots are linearly dependent")
    if matrix_rank([v.coords for v in coroots]) != n:
        raise ValueError("simple coroots are linearly dependent")
    A = [[pairing(cv, a) for a in roots] for cv in coroots]
    for i in range(n):
        if A[i][i] != 2:
            raise ValueError(f"<alpha_{i}, alpha_{i}^vee> = {A[i][i]}, expected 2")
        for j in range(n):
            if i == j:
                continue
            if A[i][j] > 0:
                raise ValueError(f"positive off-diagonal Cartan entry at ({i},{j})")
            if (A[i][j] == 0) != (A[j][i] == 0):
                raise ValueError(f"asymmetric zero pattern at ({i},{j})")
    if not _finite_type(A):
        raise ValueError("Cartan matrix is not of finite type")

    # Positive roots by height, with coefficient vectors over the simple roots.
    known = {}
    order = []
    for i, alpha in enumerate(roots):
        coeff = tuple(1 if j == i else 0 for j in range(n))
        known[coeff] = alpha
        order.append(coeff)
    frontier = list(order)
    while frontier:
        next_frontier = []
        for coeff in frontier:
            beta = known[coeff]
            for i in range(n):
                p = 0
                probe = list(coeff)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in known:
                        break
                    p += 1
                q = p - pairing(coroots[i], beta)
                if q >= 1:
                    up = list(coeff)
                    up[i] += 1
                    up = tuple(up)
                    if up not in known:
                        known[up] = beta + roots[i]
                        order.append(up)
                        next_frontier.append(up)
        frontier = next_frontier

    order.sort(key=lambda c: (sum(c), c))
    return RootSystem(
        ambient_rank=ambient_rank,
        simple_roots=roots,
        simple_coroots=coroots,
        positive_roots=tuple(known[c] for c in order),
        coefficients=tuple(order),
    )


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


def _check_levi(rs: RootSystem, levi) -> frozenset:
    levi = frozenset(levi)
    bad = [i for i in levi if not (0 <= i < rs.semisimple_rank)]
    if bad:
        raise ValueError(f"invalid simple-root indices in Levi subset: {sorted(bad)}")
    return levi


def _in_levi(coeff, levi) -> bool:
    return all(c == 0 or i in levi for i, c in enumerate(coeff))


def levi_positive_roots(rs: RootSystem, levi) -> tuple:
    """Positive roots supported on the chosen simple roots."""
    levi = _check_levi(rs, levi)
    return tuple(beta for beta, coeff in zip(rs.positive_roots, rs.coefficients)
                 if _in_levi(coeff, levi))


def nilradical_roots(rs: RootSystem, levi) -> tuple:
    """Positive roots using at least one simple root outside the Levi subset."""
    levi = _check_levi(rs, levi)
    return tuple(beta for beta, coeff in zip(rs.positive_roots, rs.coefficients)
                 if not _in_levi(coeff, levi))


def nilradical_highest_weights(rs: RootSystem, levi) -> tuple:
    """Highest weights of the irreducible Levi summands of the nilradical.

    A nilradical root alpha is a highest weight iff alpha + alpha_i is not a
    root for any simple root alpha_i of the Levi: the raising operators of the
    Levi are generated by those of its simple roots (Humphreys, Introduction
    to Lie Algebras, 20-21). The result is sorted by coordinates.
    """
    levi = _check_levi(rs, levi)
    positive = set(rs.coefficients)
    out = [beta for beta, coeff in zip(rs.positive_roots, rs.coefficients)
           if not _in_levi(coeff, levi) and not any(
               coeff[:i] + (coeff[i] + 1,) + coeff[i + 1:] in positive for i in levi)]
    return tuple(sorted(out, key=lambda b: b.coords))
