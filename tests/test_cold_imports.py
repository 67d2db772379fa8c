"""Cold runs load only what they use.

Each test starts a fresh interpreter on this checkout and reads the modules it
loaded, either from `-X importtime` (which lists every import of the process)
or from `sys.modules`. No subcommand loads `dataclasses` or the `inspect` it
imports: the value classes are plain slotted classes, and an AST guard keeps
every module of the package off `dataclasses`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import demroots

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(demroots.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
RECORD = {"lattice", "cones", "rootsystems", "spherical", "datumio"}
PLAIN_CONE = {"lattice", "cones", "toric"}
NOT_COLD = {"dataclasses", "inspect"}


def fresh(*args):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def imported(*args):
    """The modules that `python -X importtime ARGS` imported."""
    stderr = fresh("-X", "importtime", *args).stderr
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def loaded_by(*cli_args):
    return imported("-m", "demroots", *cli_args)


@pytest.fixture(scope="module")
def at_startup():
    """What the interpreter imports on its own (site hooks may import more)."""
    return imported("-c", "pass")


def library(names):
    return {f"demroots.{name}" for name in names}


@pytest.mark.parametrize("argv, loads, skips, stdlib_skips", [
    (("validate", "data/torus-skew.json"),
     RECORD, {"toric", "classifier", "search", "catalog"}, {"fractions"} | NOT_COLD),
    (("monoid", "data/sl2-times-torus.json"),
     RECORD, {"toric", "classifier", "search", "catalog"}, {"fractions"} | NOT_COLD),
    (("omega", "data/sl2-times-torus.json"),
     RECORD, {"toric", "classifier", "search", "catalog"}, {"fractions"} | NOT_COLD),
    (("roots", "--cone", "1,0;1,2", "--bound", "3"),
     PLAIN_CONE, {"spherical", "rootsystems", "datumio", "classifier", "search", "catalog"},
     {"json"} | NOT_COLD),
    (("exp", "--cone", "1,0;0,1", "--root=-1,0", "--term", "1/2:1,0"),
     PLAIN_CONE, {"spherical", "rootsystems", "datumio", "classifier", "search", "catalog"},
     {"json"} | NOT_COLD),
])
def test_subcommand_loads_only_its_modules(argv, loads, skips, stdlib_skips, at_startup):
    loaded = loaded_by(*argv)
    assert library(loads) <= loaded
    assert not (library(skips) | (stdlib_skips - at_startup)) & loaded


def test_no_module_imports_dataclasses():
    found = [(path.name, node.lineno) for path in sorted(Path(SRC, "demroots").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert not found, found


@pytest.mark.parametrize("argv", [
    ("lnd-dim", "data/sl2-times-torus.json", "--weight", "1,0"),
    ("classify", "data/sl2-times-torus.json", "--weight", "1,0"),
    ("omega", "data/sl2-times-torus.json", "--weight", "1,0"),
    ("move-divisor", "data/torus-quadrant.json", "--divisor", "axis-x"),
    ("report-gstable", "data/torus-space.json", "--format", "json"),
])
def test_no_subcommand_loads_the_catalog(argv, at_startup):
    loaded = loaded_by(*argv)
    assert "demroots.spherical" in loaded
    assert "demroots.catalog" not in loaded
    assert not (NOT_COLD - at_startup) & loaded


def test_package_import_defers_its_modules():
    out = fresh("-c", "import sys, demroots\n"
                      "print(sorted(m for m in sys.modules if m.startswith('demroots.')))\n"
                      "print(set(demroots.__all__) <= set(dir(demroots)))\n"
                      "print(demroots.toric.exponentiate.__module__)").stdout
    assert out.split("\n")[:3] == ["[]", "True", "demroots.toric"]


def test_star_import_binds_every_export():
    out = fresh("-c", "from demroots import *\n"
                      "import demroots\n"
                      "print([n for n in demroots.__all__ if globals().get(n) is not\n"
                      "       getattr(demroots, n)])\n"
                      "print(len(demroots.__all__))").stdout
    assert out.split() == ["[]", str(len(demroots.__all__))]
