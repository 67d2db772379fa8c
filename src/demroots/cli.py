"""Command line front end.

Every subcommand reads exact integer data, computes with exact arithmetic and
prints a deterministic report, as text or as JSON. Commands that take a record
file validate it first and refuse to compute on a broken record (exit code 1);
argparse reports usage problems with exit code 2. Each subcommand imports
only the modules it uses, so a cold run loads no more of the library than it
needs.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demroots",
        description="Demazure roots, locally nilpotent derivations and "
                    "divisor-moving subgroups, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a record file")
    p.add_argument("file")
    _format_flag(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("monoid", help="Hilbert basis of the weight monoid")
    p.add_argument("file")
    p.add_argument("--chart", action="store_true",
                   help="use the open chart's monoid instead of the full one")
    p.add_argument("--exclude-color", metavar="NAME",
                   help="keep this type-T color on the chart (implies --chart)")
    _format_flag(p)
    p.set_defaults(handler=_cmd_monoid)

    p = sub.add_parser("roots", help="Demazure roots of a plain cone")
    p.add_argument("--cone", required=True, metavar="GENS",
                   help="cone generators, like '1,0;1,2'")
    p.add_argument("--bound", type=int, default=10,
                   help="sup-norm search box (default 10)")
    _format_flag(p)
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("exp", help="exponentiate a Demazure root derivation")
    p.add_argument("--cone", required=True, metavar="GENS")
    p.add_argument("--root", required=True, metavar="MU",
                   help="the Demazure root, like '-1,0'")
    p.add_argument("--term", required=True, action="append", metavar="C:W",
                   help="a term COEFF:WEIGHT like '3/2:2,0' (repeatable; "
                        "COEFF: may be omitted)")
    _format_flag(p)
    p.set_defaults(handler=_cmd_exp)

    p = sub.add_parser("lnd-dim",
                       help="dimension of the normalized derivation space")
    p.add_argument("file")
    p.add_argument("--weight", required=True, metavar="MU",
                   help="derivation weight in ambient character coordinates")
    p.add_argument("--exclude-color", metavar="NAME")
    _format_flag(p)
    p.set_defaults(handler=_cmd_lnd_dim)

    p = sub.add_parser("classify", help="classify the basis derivations")
    p.add_argument("file")
    p.add_argument("--weight", required=True, metavar="MU")
    p.add_argument("--exclude-color", metavar="NAME")
    _format_flag(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("omega", help="nilradical summand highest weights")
    p.add_argument("file")
    p.add_argument("--weight", metavar="MU",
                   help="also list the weights congruent and realizable for MU")
    p.add_argument("--exclude-color", metavar="NAME")
    _format_flag(p)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser("move-divisor",
                       help="search a subgroup moving the named divisor")
    p.add_argument("file")
    p.add_argument("--divisor", required=True, metavar="NAME")
    p.add_argument("--search-bound", type=int, default=50)
    _format_flag(p)
    p.set_defaults(handler=_cmd_move)

    p = sub.add_parser("report-gstable",
                       help="movability report for every G-stable divisor")
    p.add_argument("file")
    p.add_argument("--search-bound", type=int, default=50)
    _format_flag(p)
    p.set_defaults(handler=_cmd_report)

    return parser


def _format_flag(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _emit(args, report: dict, text_lines) -> None:
    if args.format == "json":
        import json
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def _vec(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _csv_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_cone(text: str):
    from .cones import build_cone
    from .lattice import DualVector
    gens = [_csv_ints(part, "--cone generator") for part in text.split(";") if part]
    if not gens:
        raise ValueError("--cone needs at least one generator")
    rank = len(gens[0])
    if any(len(g) != rank for g in gens):
        raise ValueError(f"--cone generator needs {rank} coordinates")
    return build_cone([DualVector(g, lattice="M") for g in gens], rank=rank)


def _load_valid(path):
    from .datumio import read_datum
    from .spherical import validate
    datum = read_datum(path)
    report = validate(datum)
    if not report.ok:
        for c in report.failures():
            print(f"invalid record: {c.name}: {c.detail}", file=sys.stderr)
        raise SystemExit(1)
    return datum


def _weight(datum, text: str) -> LatticeVector:
    from .lattice import LatticeVector
    coords = _csv_ints(text, "--weight")
    ambient = datum.root_system.ambient_rank
    if len(coords) != ambient:
        raise ValueError(f"--weight needs {ambient} coordinates")
    return LatticeVector(coords, lattice="X(T)")


def _subset(args) -> ColorSubset:
    from .spherical import ColorSubset
    return ColorSubset(args.exclude_color)


def _cmd_validate(args) -> int:
    from .datumio import read_datum
    from .spherical import validate
    datum = read_datum(args.file)
    report = validate(datum)
    doc = {"ok": report.ok,
           "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                      for c in report.checks]}
    lines = [f"check {c.name}: {'pass' if c.passed else 'FAIL'}  {c.detail}"
             for c in report.checks]
    lines.append("record valid" if report.ok else "record invalid")
    _emit(args, doc, lines)
    return 0 if report.ok else 1


def _cmd_monoid(args) -> int:
    from .spherical import slice_monoid, weight_monoid
    datum = _load_valid(args.file)
    if args.chart or args.exclude_color:
        monoid = slice_monoid(datum, _subset(args))
        label = "chart weight monoid"
    else:
        monoid = weight_monoid(datum)
        label = "weight monoid"
    basis = [list(v.coords) for v in monoid.hilbert_basis]
    doc = {"label": label, "hilbert_basis": basis}
    lines = [f"{label} Hilbert basis ({len(basis)} generators):"]
    lines += [f"  {_vec(b)}" for b in basis]
    _emit(args, doc, lines)
    return 0


def _cmd_roots(args) -> int:
    from .toric import enumerate_demazure_roots
    cone = _parse_cone(args.cone)
    roots = enumerate_demazure_roots(cone, args.bound)
    by_ray = {}
    for r in roots:
        by_ray.setdefault(r.rho.coords, []).append(r.mu.coords)
    rays = [r.coords for r in cone.extremal_rays]
    doc = {"bound": args.bound,
           "rays": [{"ray": list(ray), "roots": [list(m) for m in by_ray.get(ray, [])]}
                    for ray in rays]}
    lines = [f"Demazure roots with sup-norm at most {args.bound}:"]
    for ray in rays:
        lines.append(f"ray {_vec(ray)}:")
        found = by_ray.get(ray, [])
        lines += [f"  {_vec(m)}" for m in found] if found else ["  none in range"]
    _emit(args, doc, lines)
    return 0


def _parse_term(text: str, rank: int):
    from fractions import Fraction
    from .lattice import LatticeVector
    from .toric import monomial
    if ":" in text:
        coeff_text, weight_text = text.split(":", 1)
        try:
            coeff = Fraction(coeff_text)
        except ValueError:
            raise ValueError("--term coefficient must be an integer or a fraction "
                             f"like 3/2, got {coeff_text!r}") from None
        except ZeroDivisionError:
            raise ValueError(f"--term coefficient {coeff_text} divides by zero") from None
    else:
        coeff, weight_text = Fraction(1), text
    coords = _csv_ints(weight_text, "--term weight")
    if len(coords) != rank:
        raise ValueError(f"--term weight needs {rank} coordinates")
    return monomial(LatticeVector(coords, lattice="M"), coefficient=coeff)


def _cmd_exp(args) -> int:
    from .lattice import LatticeVector
    from .toric import AlgebraElement, demazure_root, exponentiate
    cone = _parse_cone(args.cone)
    mu = LatticeVector(_csv_ints(args.root, "--root"), lattice="M")
    if mu.rank != cone.rank:
        raise ValueError(f"--root needs {cone.rank} coordinates")
    root = demazure_root(cone, mu)
    element = AlgebraElement.zero()
    for term in args.term:
        element = element + _parse_term(term, cone.rank)
    poly = exponentiate(root, element)
    doc = {"root": list(mu.coords), "ray": list(root.rho.coords),
           "polynomial": [
               {"degree": k,
                "terms": [{"weight": list(w.coords), "coefficient": str(c)}
                          for w, c in poly.coefficient(k).terms]}
               for k in range(poly.degree() + 1)]}
    lines = [_render_flow(poly)]
    _emit(args, doc, lines)
    return 0


def _render_flow(poly) -> str:
    out = ""
    for k in range(poly.degree() + 1):
        for w, c in poly.coefficient(k).terms:
            bits = []
            if abs(c) != 1:
                bits.append(str(abs(c)))
            if k == 1:
                bits.append("t")
            elif k >= 2:
                bits.append(f"t^{k}")
            bits.append("f" + _vec(w.coords))
            term = " ".join(bits)
            if not out:
                out = ("-" if c < 0 else "") + term
            else:
                out += (" - " if c < 0 else " + ") + term
    return out or "0"


def _descriptor_doc(d) -> dict:
    doc = {"kind": d.kind, "weight": list(d.weight.coords)}
    if d.kind == "unipotent":
        doc["summand_root"] = list(d.root.coords)
    else:
        doc["ray"] = list(d.ray.coords)
    return doc


def _descriptor_line(d) -> str:
    if d.kind == "unipotent":
        return f"unipotent term from summand root {_vec(d.root.coords)}"
    return f"toric term along ray {_vec(d.ray.coords)}"


def _cmd_lnd_dim(args) -> int:
    from .classifier import lnd_basis
    datum = _load_valid(args.file)
    mu = _weight(datum, args.weight)
    basis = lnd_basis(datum, _subset(args), mu)
    doc = {"weight": list(mu.coords), "dimension": len(basis),
           "basis": [_descriptor_doc(d) for d in basis]}
    lines = [f"weight {_vec(mu.coords)}: dimension {len(basis)}"]
    lines += [f"  {_descriptor_line(d)}" for d in basis]
    _emit(args, doc, lines)
    return 0


def _cmd_classify(args) -> int:
    from .classifier import classify, lnd_basis
    datum = _load_valid(args.file)
    subset = _subset(args)
    mu = _weight(datum, args.weight)
    basis = lnd_basis(datum, subset, mu)
    rows = []
    for d in basis:
        c = classify(datum, subset, d)
        rows.append((d, c))
    doc = {"weight": list(mu.coords), "dimension": len(basis),
           "derivations": [dict(_descriptor_doc(d),
                                verdict=c.verdict,
                                subtype=c.subtype,
                                moved_divisor=c.moved_divisor,
                                candidates=list(c.candidates))
                           for d, c in rows]}
    lines = [f"weight {_vec(mu.coords)}: dimension {len(basis)}"]
    for d, c in rows:
        tail = c.verdict
        if c.subtype:
            tail += f" ({c.subtype})"
        if c.moved_divisor:
            tail += f", moves {c.moved_divisor}"
        if c.candidates:
            tail += ", candidates " + ", ".join(c.candidates)
        lines.append(f"  {_descriptor_line(d)}: {tail}")
    _emit(args, doc, lines)
    return 0


def _cmd_omega(args) -> int:
    from .rootsystems import nilradical_highest_weights
    from .spherical import levi_subset
    datum = _load_valid(args.file)
    levi = levi_subset(datum, _subset(args))
    omega = nilradical_highest_weights(datum.root_system, levi)
    doc = {"levi": sorted(levi),
           "summand_highest_weights": [list(a.coords) for a in omega]}
    levi_text = ", ".join(str(i) for i in sorted(levi)) or "none"
    lines = [f"levi simple roots: {levi_text}",
             "nilradical summand highest weights:"]
    lines += [f"  {_vec(a.coords)}" for a in omega] or ["  none"]
    if args.weight:
        from .classifier import congruent_summand_weights, realizable_summand_weights
        mu = _weight(datum, args.weight)
        cong = congruent_summand_weights(datum, mu)
        real = realizable_summand_weights(datum, _subset(args), mu)
        doc["weight"] = list(mu.coords)
        doc["congruent"] = [list(a.coords) for a in cong]
        doc["realizable"] = [list(a.coords) for a in real]
        lines.append(f"with weight {_vec(mu.coords)}:")
        lines.append("  congruent: " +
                     (" ".join(_vec(a.coords) for a in cong) or "none"))
        lines.append("  realizable: " +
                     (" ".join(_vec(a.coords) for a in real) or "none"))
    _emit(args, doc, lines)
    return 0


def _move_doc(r) -> dict:
    doc = {"divisor": r.divisor, "status": r.status,
           "check": {"status": r.check.status, "reason": r.check.reason,
                     "ray": list(r.check.ray.coords) if r.check.ray else None,
                     "sharing": list(r.check.sharing)}}
    if r.witness:
        doc["witness"] = {"mu": list(r.witness.mu.coords),
                          "shift": list(r.witness.shift.coords),
                          "family": r.witness.family}
    if r.searched:
        missing, low, high = r.searched
        doc["searched"] = {"missing": missing, "sup_norm": [low, high]}
    return doc


def _move_lines(r) -> list:
    lines = [f"divisor {r.divisor}: {r.status}"]
    lines.append(f"  ray test: {r.check.status}  {r.check.reason}")
    if r.witness:
        lines.append(f"  demazure root mu = {_vec(r.witness.mu.coords)}")
        lines.append(f"  shift lam = {_vec(r.witness.shift.coords)}")
        lines.append(f"  family: {r.witness.family}")
    if r.searched:
        missing, low, high = r.searched
        lines.append(f"  searched: no {missing} with sup-norm {low}..{high}")
    return lines


def _cmd_move(args) -> int:
    from .search import find_witness
    datum = _load_valid(args.file)
    datum.divisor(args.divisor)
    report = find_witness(datum, args.divisor, args.search_bound)
    _emit(args, _move_doc(report), _move_lines(report))
    return 0


def _cmd_report(args) -> int:
    from .search import gstable_report
    datum = _load_valid(args.file)
    rows = gstable_report(datum, args.search_bound)
    doc = {"divisors": [_move_doc(r) for r in rows]}
    if not rows:
        lines = ["no G-stable divisors in this record"]
    else:
        lines = []
        for r in rows:
            lines += _move_lines(r)
    _emit(args, doc, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
