"""Shared helpers: independent oracles and random generators.

The oracles here recompute answers straight from definitions, with none of the
library's cone or root machinery, so the tests cross-check two genuinely
different computations.
"""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

from demroots.cones import ContainsLine, build_cone
from demroots.lattice import DualVector, primitive_tuple


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Exact membership in the convex cone of a generator list (V-side oracle).
# ---------------------------------------------------------------------------

def _solve_exact(cols, target):
    """Solve sum_j x_j * cols[j] = target exactly; None if inconsistent."""
    n = len(target)
    k = len(cols)
    rows = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if rows[i][k] != 0:
            return None
    x = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        x[c] = rows[i][k]
    return x


def rational_rank(rows):
    """Rank over the rationals, by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            f = r[c] / pivot[c]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def in_cone_oracle(generators, point) -> bool:
    """Is the point a nonnegative rational combination of the generators?

    Caratheodory: it is iff some linearly independent subset yields it with
    nonnegative coefficients, and such a subset extends by generators to a
    basis of their span. So only subsets of the generators' rank are solved;
    any nonnegative solution that passes the residual check is a certificate.
    """
    gens = [tuple(g) for g in generators]
    pt = tuple(point)
    if all(c == 0 for c in pt):
        return True
    if not gens:
        return False
    n = len(pt)
    size = rational_rank(gens)
    for subset in combinations(gens, size):
        x = _solve_exact(list(subset), pt)
        if x is None:
            continue
        if all(v >= 0 for v in x):
            resid = [sum(x[j] * subset[j][i] for j in range(size)) - pt[i]
                     for i in range(n)]
            if all(v == 0 for v in resid):
                return True
    return False


# ---------------------------------------------------------------------------
# Demazure roots by definition: a plain box scan over the generator list.
# ---------------------------------------------------------------------------

def _same_open_ray(a, b) -> bool:
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return dot(a, b) > 0


def demazure_box_oracle(generators, bound):
    """All (extremal ray, mu) pairs with pairing -1 on the ray and >= 0 on the
    other extremal rays.

    Only extremal rays constrain mu: a generator interior to the cone can pair
    negatively with a valid root when its decomposition leans on the pinned
    ray. Extremality is decided here by the membership oracle, not by the
    library.
    """
    gens = [tuple(g) for g in generators if any(c != 0 for c in g)]
    if not gens:
        return set()
    rank = len(gens[0])
    rays = []
    for g in gens:
        p = primitive_tuple(g)
        if p not in rays:
            rays.append(p)
    extremal = [p for p in rays
                if not in_cone_oracle(
                    [g for g in gens if not _same_open_ray(g, p)], p)]
    found = set()
    for rho in extremal:
        others = [p for p in extremal if p != rho]
        for mu in product(range(-bound, bound + 1), repeat=rank):
            if dot(rho, mu) != -1:
                continue
            if all(dot(p, mu) >= 0 for p in others):
                found.add((rho, mu))
    return found


# ---------------------------------------------------------------------------
# Monoid generation and minimality, by w-descent recursion.
# ---------------------------------------------------------------------------

def monoid_checker(generators):
    """Reachability tester for the monoid of lattice points of the dual cone.

    Only valid when the cone spans the full space, so that the sum of the
    generators is strictly positive on every nonzero monoid element and the
    recursion terminates.
    """
    gens = [tuple(g) for g in generators]
    w = tuple(sum(col) for col in zip(*gens))

    def member(v):
        return all(dot(g, v) >= 0 for g in gens)

    def reachable(target, basis, memo):
        target = tuple(target)
        if all(c == 0 for c in target):
            return True
        if target in memo:
            return memo[target]
        memo[target] = False
        for h in basis:
            rest = tuple(t - x for t, x in zip(target, h))
            if member(rest) and dot(w, rest) < dot(w, target):
                if reachable(rest, basis, memo):
                    memo[target] = True
                    break
        return memo[target]

    return member, reachable


def verify_hilbert_basis(generators, hilbert, box_bound):
    """Membership, generation over a box, and minimality of a claimed basis."""
    member, reachable = monoid_checker(generators)
    basis = [tuple(h) for h in hilbert]
    for h in basis:
        assert member(h), f"{h} outside the monoid"
    rank = len(generators[0])
    memo = {}
    for v in product(range(-box_bound, box_bound + 1), repeat=rank):
        if member(v):
            assert reachable(v, basis, memo), f"{v} not generated"
    for h in basis:
        others = [x for x in basis if x != h]
        assert not reachable(h, others, {}), f"{h} is redundant"


# ---------------------------------------------------------------------------
# Random pointed cones.
# ---------------------------------------------------------------------------

def random_pointed_cone(rnd: random.Random, max_rank=3, max_gens=5, entry=4, min_rank=1):
    while True:
        rank = rnd.randint(min_rank, max_rank)
        count = rnd.randint(1, max_gens)
        gens = []
        for _ in range(count):
            g = tuple(rnd.randint(-entry, entry) for _ in range(rank))
            gens.append(g)
        if all(all(c == 0 for c in g) for g in gens):
            continue
        try:
            return build_cone([DualVector(g, lattice="M") for g in gens],
                              rank=rank), gens
        except ContainsLine:
            continue


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "demroots", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}")
    return proc
