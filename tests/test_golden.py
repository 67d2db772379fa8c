"""Search output on every bundled record, byte for byte.

search_golden.json holds the JSON that `report-gstable` and `move-divisor`
(for every divisor) print on each data/*.json record at the default search
bound, recorded before the searches moved to the shell-ordered enumerator.
Each command runs in process and its stdout must equal the fixture entry
re-serialized the way the CLI prints it.
"""

import contextlib
import io
import json
from pathlib import Path

from demroots.cli import main
from demroots.datumio import read_datum

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).with_name("search_golden.json")).read_text())


def _commands():
    for path in sorted((ROOT / "data").glob("*.json")):
        rel = f"data/{path.name}"
        yield ["report-gstable", rel]
        for d in read_datum(path).divisors:
            yield ["move-divisor", rel, "--divisor", d.name]


def test_search_json_matches_golden():
    seen = []
    for argv in _commands():
        key = " ".join(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([argv[0], str(ROOT / argv[1]), *argv[2:], "--format", "json"])
        assert code == 0, key
        assert buf.getvalue() == json.dumps(GOLDEN[key], indent=2) + "\n", key
        seen.append(key)
    assert sorted(seen) == sorted(GOLDEN)
