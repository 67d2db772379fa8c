"""Reading and writing variety records as JSON documents.

The document has three top-level blocks. "cartan" fixes the acting group:
the ambient character lattice rank, the simple roots and the simple coroots
(both lists may be empty for a torus). "lattice_M" gives the rows of a basis
of the weight sublattice inside the ambient lattice. "divisors" lists the
B-stable prime divisors with their valuation vectors in the basis dual to
the declared one.

Parsing is strict: unknown keys, booleans posing as integers, or malformed
shapes are rejected with the JSON path of the offending field. Serialization
is canonical, so parse followed by serialize reproduces a file byte for byte
once it is in canonical form.
"""

from __future__ import annotations

import json

from .lattice import DualVector, LatticeVector, Sublattice
from .rootsystems import root_system, torus_root_system
from .spherical import Divisor, SphericalDatum


class DatumFormatError(ValueError):
    """The document does not follow the record format."""


def parse_datum(text: str) -> SphericalDatum:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatumFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DatumFormatError("not valid JSON: nested too deeply") from exc
    return _parse_document(doc)


def read_datum(path) -> SphericalDatum:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_datum(fh.read())


def serialize_datum(datum: SphericalDatum) -> str:
    doc = {
        "cartan": {
            "ambient_rank": datum.root_system.ambient_rank,
            "simple_roots": [list(a.coords) for a in datum.root_system.simple_roots],
            "simple_coroots": [list(c.coords) for c in datum.root_system.simple_coroots],
        },
        "lattice_M": {
            "basis_rows": [list(r) for r in datum.weight_lattice.basis_rows],
        },
        "divisors": [_divisor_doc(d) for d in datum.divisors],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_datum(datum: SphericalDatum, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_datum(datum))


def _divisor_doc(d: Divisor) -> dict:
    doc = {"name": d.name, "kappa": list(d.kappa.coords), "kind": d.kind}
    if d.is_color():
        doc["color_type"] = d.color_type
        doc["moved_by"] = sorted(d.moved_by)
    return doc


def _parse_document(doc) -> SphericalDatum:
    _expect_keys(doc, "", ("cartan", "lattice_M", "divisors"))

    cartan = doc["cartan"]
    _expect_keys(cartan, "cartan", ("ambient_rank", "simple_roots", "simple_coroots"))
    ambient = _int(cartan["ambient_rank"], "cartan.ambient_rank")
    if ambient < 1:
        raise DatumFormatError("cartan.ambient_rank must be at least 1")
    roots = _int_matrix(cartan["simple_roots"], "cartan.simple_roots", ambient)
    coroots = _int_matrix(cartan["simple_coroots"], "cartan.simple_coroots", ambient)
    if len(roots) != len(coroots):
        raise DatumFormatError(
            "cartan.simple_roots and cartan.simple_coroots differ in length")
    if roots:
        rs = root_system(
            [LatticeVector(r, lattice="X(T)") for r in roots],
            [DualVector(c, lattice="X(T)") for c in coroots],
            ambient)
    else:
        rs = torus_root_system(ambient)

    lat = doc["lattice_M"]
    _expect_keys(lat, "lattice_M", ("basis_rows",))
    rows = _int_matrix(lat["basis_rows"], "lattice_M.basis_rows", ambient)
    if not rows:
        raise DatumFormatError("lattice_M.basis_rows must be nonempty")
    sub = Sublattice(ambient, tuple(rows), lattice="X(T)")

    raw = doc["divisors"]
    if not isinstance(raw, list):
        raise DatumFormatError("divisors must be a list")
    divisors = [_parse_divisor(entry, i, sub.rank) for i, entry in enumerate(raw)]

    return SphericalDatum(root_system=rs, weight_lattice=sub,
                          divisors=tuple(divisors))


def _parse_divisor(entry, index: int, rank: int) -> Divisor:
    where = f"divisors[{index}]"
    if not isinstance(entry, dict):
        raise DatumFormatError(f"{where} must be an object")
    kind = entry.get("kind")
    if kind == "color":
        _expect_keys(entry, where, ("name", "kappa", "kind", "color_type", "moved_by"))
        moved = entry["moved_by"]
        if not isinstance(moved, list) or not moved:
            raise DatumFormatError(f"{where}.moved_by must be a nonempty list")
        moved_by = frozenset(_int(i, f"{where}.moved_by") for i in moved)
        color_type = entry["color_type"]
        if color_type not in ("U", "T", "N"):
            raise DatumFormatError(f"{where}.color_type must be 'U', 'T' or 'N'")
    elif kind == "g-stable":
        _expect_keys(entry, where, ("name", "kappa", "kind"))
        moved_by = frozenset()
        color_type = None
    else:
        raise DatumFormatError(f"{where}.kind must be 'color' or 'g-stable'")
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise DatumFormatError(f"{where}.name must be a nonempty string")
    kappa = _int_vector(entry["kappa"], f"{where}.kappa", rank)
    return Divisor(name=name, kappa=DualVector(kappa, lattice="M"),
                   kind=kind, color_type=color_type, moved_by=moved_by)


def _expect_keys(obj, where: str, keys: tuple) -> None:
    label = where or "document"
    if not isinstance(obj, dict):
        raise DatumFormatError(f"{label} must be an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DatumFormatError(f"{label} is missing {missing}")
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise DatumFormatError(f"{label} has unknown fields {unknown}")


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatumFormatError(f"{where} must be an integer")
    return value


def _int_vector(value, where: str, rank: int) -> tuple:
    if not isinstance(value, list) or len(value) != rank:
        raise DatumFormatError(f"{where} must be a list of {rank} integers")
    return tuple(_int(v, where) for v in value)


def _int_matrix(value, where: str, width: int) -> list:
    if not isinstance(value, list):
        raise DatumFormatError(f"{where} must be a list of rows")
    return [_int_vector(row, f"{where}[{i}]", width) for i, row in enumerate(value)]
