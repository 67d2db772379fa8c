"""Search for additive one-parameter subgroups moving a prescribed divisor.

The question has two stages. First a ray test on the record alone: the
divisor's valuation vector must span an extremal ray of the valuation vector
cone, alone among all divisors. Colors of type U or N are rejected outright;
no Borel-normalized additive action moves them.

Second, a witness search on the chart that removes every color (for a
G-stable divisor) or every color but this one (for a type-T color). A witness
is a Demazure root mu of the chart's valuation cone pinning the divisor's
ray, plus a nonzero weight shift lam vanishing on the ray, nonnegative on all
divisors and strictly positive on the removed colors. Then N*lam + mu is a
Demazure root pinning the same ray for every N >= 0, and for all large N the
resulting derivation lifts off the chart and moves exactly this divisor. How
large is large depends on the variety, not the record, so the threshold stays
symbolic in the reported family.

Weights in this module are written in coordinates on M (the basis declared by
the record), matching the cone machinery.
"""

from __future__ import annotations

from typing import Optional

from .lattice import DualVector, LatticeVector, Polyhedron, _Frozen, primitive
from .spherical import ColorSubset, SphericalDatum, chart
from .toric import root_polyhedron

HOLDS = "holds"
FAILS = "fails"
IMPOSSIBLE = "impossible"
WITNESS = "witness"
INCONCLUSIVE = "inconclusive"


class RayCheck(_Frozen):
    __slots__ = ("divisor", "status", "ray", "sharing", "reason")

    def __init__(self, divisor: str, status: str, ray: Optional[DualVector] = None,
                 sharing: tuple = (), reason: str = ""):
        self._set(divisor, status, ray, sharing, reason)


class MoveWitness(_Frozen):
    __slots__ = ("divisor", "ray", "mu", "shift", "family")

    def __init__(self, divisor: str, ray: DualVector, mu: LatticeVector,
                 shift: LatticeVector, family: str):
        self._set(divisor, ray, mu, shift, family)


class MoveReport(_Frozen):
    # searched, inconclusive only: (what was not found, lowest, highest sup-norm searched)
    __slots__ = ("divisor", "check", "status", "witness", "searched")

    def __init__(self, divisor: str, check: RayCheck, status: str,
                 witness: Optional[MoveWitness] = None, searched: Optional[tuple] = None):
        self._set(divisor, check, status, witness, searched)


def check_divisor_ray(datum: SphericalDatum, name: str) -> RayCheck:
    """Can this divisor's ray carry a moving subgroup at all?"""
    d = datum.divisor(name)
    if d.is_color() and d.color_type in ("U", "N"):
        return RayCheck(
            divisor=name, status=IMPOSSIBLE,
            reason=f"colors of type {d.color_type} are never moved by a "
                   "Borel-normalized additive subgroup")
    if d.kappa.is_zero():
        return RayCheck(
            divisor=name, status=FAILS,
            reason="the divisor's valuation vector is zero, so it spans no ray")
    full = chart(datum, None)
    rho = primitive(d.kappa)
    if rho not in full.cone.extremal_rays:
        return RayCheck(
            divisor=name, status=FAILS, ray=rho,
            reason="the valuation vector does not span an extremal ray of the "
                   "valuation vector cone")
    sharing = tuple(o.name for o in full.on_ray(rho) if o.name != name)
    if sharing:
        return RayCheck(
            divisor=name, status=FAILS, ray=rho, sharing=sharing,
            reason="other divisors lie on the same ray: " + ", ".join(sharing))
    return RayCheck(divisor=name, status=HOLDS, ray=rho,
                    reason="the divisor alone spans an extremal ray")


def _minimal_shift(datum, subset, rho, bound):
    """Coordinates of the smallest nonzero lam vanishing on rho, in the weight
    monoid, and pairing at least 1 with every removed color."""
    ge = [(g.coords, 0) for g in chart(datum, None).cone.generators]
    ge += [(c.kappa.coords, 1) for c in chart(datum, subset).removed]
    points = Polyhedron(datum.rank, ge, eq=[(rho.coords, 0)]).points(bound)
    return next((x for x in points if any(x)), None)


def find_witness(datum: SphericalDatum, name: str,
                 search_bound: int = 50) -> MoveReport:
    """Ray test, then bounded search for the Demazure root and weight shift."""
    _check_bound(search_bound)
    check = check_divisor_ray(datum, name)
    if check.status != HOLDS:
        return MoveReport(divisor=name, check=check, status=check.status)

    d = datum.divisor(name)
    subset = ColorSubset(None if not d.is_color() else name)
    rho = check.ray

    mu = next(root_polyhedron(chart(datum, subset).cone, rho).points(search_bound), None)
    if mu is None:
        return MoveReport(divisor=name, check=check, status=INCONCLUSIVE,
                          searched=("demazure root", 0, search_bound))
    lam = _minimal_shift(datum, subset, rho, search_bound)
    if lam is None:
        return MoveReport(divisor=name, check=check, status=INCONCLUSIVE,
                          searched=("shift", 1, search_bound))

    family = (f"N*{_fmt(lam)} + {_fmt(mu)} for all integers "
              "N >= some N0 (N0 not determined by this record)")
    witness = MoveWitness(divisor=name, ray=rho, mu=LatticeVector(mu, "M"),
                          shift=LatticeVector(lam, "M"), family=family)
    return MoveReport(divisor=name, check=check, status=WITNESS, witness=witness)


def gstable_report(datum: SphericalDatum, search_bound: int = 50) -> tuple:
    """One MoveReport per G-stable divisor, in record order."""
    _check_bound(search_bound)
    return tuple(find_witness(datum, d.name, search_bound)
                 for d in datum.g_stable_divisors)


def _check_bound(search_bound: int) -> None:
    if search_bound < 0:
        raise ValueError(f"search bound must be nonnegative, got {search_bound}")


def _fmt(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"
