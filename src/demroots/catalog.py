"""Built-in variety records used by the tests and the command line tour.

The records are the JSON files in the repository's data/ directory, which
the package reaches through its records link; the README describes each one.
"""

from __future__ import annotations

from pathlib import Path

from .datumio import read_datum
from .spherical import SphericalDatum

_RECORDS = Path(__file__).with_name("records")

CATALOG = {path.stem: read_datum(path) for path in sorted(_RECORDS.glob("*.json"))}
if not CATALOG:
    raise FileNotFoundError(f"no record files in {_RECORDS}")


def example(name: str) -> SphericalDatum:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"no catalog record {name!r}; known: {sorted(CATALOG)}")
