"""Every subcommand's output on every bundled record, pinned by digest.

cli_golden.json maps each invocation below to the sha256 of its exit code,
stdout and stderr, in text and in JSON. The invocations run in process through
``cli.main`` from the repository root, so record paths read ``data/...``.
Regenerate the file only when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import product
from pathlib import Path

from demroots.cli import main
from demroots.datumio import read_datum

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")

# Inline cones for `roots` and `exp`; the last one contains a line.
_CONES = ("1,0;1,2", "1,0;0,1;1,1", "1,0,0;0,1,0;1,1,3", "1,0;-1,0;0,1")
_EXP = (
    ("1,0;0,1", "-1,0", ("2,0", "3/2:1,1")),
    ("1,0;1,2", "-1,1", ("1,0", "-2:3,-1")),
    ("1,0,0;0,1,0;1,1,3", "-1,0,1", ("1,0,0", "2,1,1")),
    ("1,0;-1,0;0,1", "0,-1", ("0,1",)),
)


def _record_commands(rel: str) -> list:
    datum = read_datum(ROOT / rel)
    type_t = [d.name for d in datum.colors if d.color_type == "T"]
    exclusions = [[]] + [["--exclude-color", name] for name in type_t]
    commands = [["validate", rel], ["monoid", rel], ["monoid", rel, "--chart"]]
    commands += [["monoid", rel, *ex] for ex in exclusions[1:]]
    for weight in product((-1, 0, 1), repeat=datum.root_system.ambient_rank):
        text = "--weight=" + ",".join(map(str, weight))
        for cmd in ("omega", "lnd-dim", "classify"):
            commands += [[cmd, rel, text, *ex] for ex in exclusions]
    commands += [["move-divisor", rel, "--divisor", d.name] for d in datum.divisors]
    commands += [["report-gstable", rel], ["report-gstable", rel, "--search-bound", "0"]]
    return commands


def invocations() -> list:
    commands = []
    for path in sorted((ROOT / "data").glob("*.json")):
        commands += _record_commands(f"data/{path.name}")
    commands += [["roots", "--cone", cone, "--bound", "3"] for cone in _CONES]
    for cone, root, terms in _EXP:
        commands.append(["exp", "--cone", cone, f"--root={root}",
                         *(f"--term={t}" for t in terms)])
    return [argv + fmt for argv in commands for fmt in ([], ["--format", "json"])]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _digests() -> dict:
    return {" ".join(argv): digest(argv) for argv in invocations()}


def test_every_subcommand_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN_PATH.read_text())
    got = _digests()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN_PATH.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
