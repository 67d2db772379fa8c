"""Exact checks recomputed from definitions, with no demroots code.

The benchmark uses these to judge every output it times. They are small
integer and Fraction routines: determinants, facet normals of a full cone,
extremal generators, rational row solving and the binomial closed form of an
exponentiated Demazure root.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rank(rows):
    """Rank of an integer matrix, by Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in rows if any(r)]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def facet_normals(gens):
    """Primitive inner facet normals of the full-dimensional cone on gens.

    These are the extremal rays of the dual cone. Each facet is spanned by
    rank-1 independent generators, so every candidate normal is the vector of
    signed maximal minors of such a subset.
    """
    r = len(gens[0])
    out = set()
    for subset in combinations(gens, r - 1):
        normal = tuple((-1) ** j * det([row[:j] + row[j + 1:] for row in subset])
                       for j in range(r))
        if not any(normal):
            continue
        signs = {(v > 0) - (v < 0) for v in (dot(normal, g) for g in gens)} - {0}
        if len(signs) == 1:
            normal = primitive(normal if signs == {1} else tuple(-x for x in normal))
            out.add(normal)
    return sorted(out)


def extremal_generators(gens):
    """Primitive generators spanning extremal rays of a full pointed cone."""
    r = len(gens[0])
    normals = facet_normals(gens)
    rays = set()
    for g in gens:
        if any(g) and rank([n for n in normals if dot(n, g) == 0]) == r - 1:
            rays.add(primitive(g))
    return sorted(rays)


def in_dual(gens, y):
    return all(dot(g, y) >= 0 for g in gens)


def reducible(basis, h, gens):
    """Is h the sum of two nonzero elements of the pointed monoid dual to gens?

    Any such sum has a summand above some other basis element h', so it is
    enough to test h - h' for membership.
    """
    for other in basis:
        if other != h:
            diff = tuple(a - b for a, b in zip(h, other))
            if any(diff) and in_dual(gens, diff):
                return True
    return False


def demazure_roots(rays, bound):
    """All (ray, mu) with sup-norm(mu) <= bound by a full box scan."""
    r = len(rays[0])
    out = []
    for mu in product(range(-bound, bound + 1), repeat=r):
        values = [dot(rho, mu) for rho in rays]
        pinned = [rho for rho, v in zip(rays, values) if v == -1]
        if len(pinned) == 1 and all(v >= 0 for v in values if v != -1):
            out.append((pinned[0], mu))
    return sorted(out)


def is_demazure_root(rays, rho, mu):
    return dot(rho, mu) == -1 and all(dot(r, mu) >= 0 for r in rays if r != rho)


def flow_closed_form(rho, mu, weights):
    """exp(t D) of the sum of f_lam over weights, as {k: {weight: coeff}}.

    D^k f_lam / k! = binom(<rho, lam>, k) f_{lam + k mu}.
    """
    out = {}
    for lam in weights:
        d = dot(rho, lam)
        for k in range(d + 1):
            w = tuple(a + k * b for a, b in zip(lam, mu))
            terms = out.setdefault(k, {})
            terms[w] = terms.get(w, 0) + comb(d, k)
    return {k: {w: c for w, c in t.items() if c} for k, t in out.items()}


def invariant_factor_product(rows):
    """gcd of the maximal minors: the product of the nonzero invariant factors."""
    r = rank(rows)
    if r == 0:
        return 1
    cols = len(rows[0])
    g = 0
    for rsub in combinations(rows, r):
        for csub in combinations(range(cols), r):
            g = gcd(g, det([[row[c] for c in csub] for row in rsub]))
    return g


def solve_rows(basis_rows, target):
    """Integer x with x * B = target, or None; B has independent rows."""
    k = len(basis_rows)
    n = len(target)
    # Columns of the augmented system B^T x = target.
    m = [[Fraction(basis_rows[i][j]) for i in range(k)] + [Fraction(target[j])]
         for j in range(n)]
    r, pivots = 0, []
    for c in range(k):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if any(m[i][k] for i in range(r, n)):
        return None
    x = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        x[c] = m[i][k]
    if any(v.denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}
