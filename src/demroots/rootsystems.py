"""Finite root systems from explicit simple root and coroot vectors.

Simple roots live in the character lattice X(T) of a connected reductive group
(possibly with central torus factors, so the ambient rank may exceed the number
of simple roots); simple coroots are integral functionals on X(T). Positive
roots are generated by the root-string closure: beta + alpha_i is a root iff
the string length q = p - <beta, alpha_i^vee> is positive, where p counts how
far the string extends backwards. The closure runs on Cartan integers (a step
up by alpha_i adds column i of the Cartan matrix) and keeps each root's
raising mask, the set of i with beta + alpha_i a root. The Cartan matrix is
checked to be of finite type first (its Dynkin graph is a forest and its
leading principal minors are positive), so the closure always terminates and
no cap on its size is needed.

The standard constructors realize each Cartan type in fundamental-weight
coordinates: coroots are standard basis functionals and simple roots are the
columns of the Cartan matrix, padded with zeros for central torus directions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .lattice import DualVector, LatticeVector, _Frozen, _bareiss, _require, matrix_rank, pairing


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


def _finite_type(A, pivots=None) -> bool:
    """Whether a GCM with the sign and zero pattern of a Cartan matrix is of
    finite type; `pivots` are those of `_bareiss(A)` if already known.

    Finite-type Dynkin diagrams are forests (Kac, Infinite dimensional Lie
    algebras, ch. 4). On a forest A = DB with D positive diagonal and B
    symmetric, so A is of finite type iff B is positive definite, that is
    (Sylvester) iff the leading principal minors of A are positive; these are
    the pivots of the fraction-free elimination when they sit on the diagonal.
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
    if pivots is None:
        _, pivots = _bareiss(A)
    return [(r, c) for r, c, _ in pivots] == [(k, k) for k in range(n)] \
        and all(p > 0 for _, _, p in pivots)


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
        _require(v, LatticeVector, "X(T)", ambient_rank)
    for v in coroots:
        _require(v, DualVector, "X(T)", ambient_rank)
    A = [[pairing(cv, a) for a in roots] for cv in coroots]
    _, pivots = _bareiss(A)
    if len(pivots) < n:  # A = C R^T, so a nonsingular A proves both independent
        if matrix_rank([v.coords for v in roots]) != n:
            raise ValueError("simple roots are linearly dependent")
        if matrix_rank([v.coords for v in coroots]) != n:
            raise ValueError("simple coroots are linearly dependent")
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
    if not _finite_type(A, pivots):
        raise ValueError("Cartan matrix is not of finite type")

    # Positive roots by height, breadth first with order as the queue. Each
    # coefficient tuple carries its root and its Cartan integers
    # <beta, alpha_k^vee>, and gets its raising mask.
    columns = tuple(zip(*A))
    known = {tuple(int(j == i) for j in range(n)): (alpha, columns[i])
             for i, alpha in enumerate(roots)}
    order, masks = list(known), {}
    for coeff in order:
        beta, cartan = known[coeff]
        mask = 0
        for i in range(n):
            p, down = 0, coeff
            while down[i]:
                down = down[:i] + (down[i] - 1,) + down[i + 1:]
                if down not in known:
                    break
                p += 1
            if p > cartan[i]:  # the string length q = p - <beta, alpha_i^vee> is positive
                mask |= 1 << i
                up = coeff[:i] + (coeff[i] + 1,) + coeff[i + 1:]
                if up not in known:
                    known[up] = (beta + roots[i],
                                 tuple(a + b for a, b in zip(cartan, columns[i])))
                    order.append(up)
        masks[coeff] = mask

    order.sort(key=lambda c: (sum(c), c))
    return RootSystem(
        ambient_rank=ambient_rank,
        simple_roots=roots,
        simple_coroots=coroots,
        positive_roots=tuple(known[c][0] for c in order),
        coefficients=tuple(order),
        _raising=tuple(masks[c] for c in order),
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


def _outside_levi(rs: RootSystem, levi) -> list:
    """The simple-root indices outside a Levi subset, once its indices are checked."""
    levi = frozenset(levi)
    bad = [i for i in levi if not (0 <= i < rs.semisimple_rank)]
    if bad:
        raise ValueError(f"invalid simple-root indices in Levi subset: {sorted(bad)}")
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
