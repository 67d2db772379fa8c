"""The package's one cache, spherical.chart, is a module-level function bounded
by one constant.

The benchmark's in-process CLI runner (perfbench/run.py, CliInProcess) finds
the caches by scanning module attributes and clears them before each command,
as a fresh process would start. A cache built inside a function or class
would escape that scan, and one without the shared bound would grow with
every record. Everything a chart builds on first use hangs off the cached
chart, so that one clear drops it all.
"""

import ast
import sys
from importlib import import_module
from pathlib import Path

import demroots
from demroots.lattice import DualVector, Sublattice
from demroots.rootsystems import standard_root_system
from demroots.spherical import (_CACHED_DATA, ColorSubset, Divisor, SphericalDatum, chart,
                                full_cone, levi_subset, slice_cone)

SRC = Path(demroots.__file__).parent
CACHE_NAMES = {"lru_cache", "cache"}


def _is_cache(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id in CACHE_NAMES
            or isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES)


def _bounded(decorator) -> bool:
    """lru_cache(maxsize=_CACHED_DATA), with nothing else."""
    return (isinstance(decorator, ast.Call) and not decorator.args
            and [(k.arg, getattr(k.value, "id", None)) for k in decorator.keywords]
            == [("maxsize", "_CACHED_DATA")])


def test_every_cache_is_module_level_and_bounded():
    found = 0
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = import_module("demroots" if path.stem == "__init__"
                               else f"demroots.{path.stem}")
        tree = ast.parse(path.read_text())
        uses = [n for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
                and _is_cache(n)]
        top = {fn.name: dec for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for dec in fn.decorator_list if _is_cache(dec)}
        # one use per top-level decorator: no cache made anywhere else
        assert len(uses) == len(top), path.name
        for name, dec in top.items():
            assert _bounded(dec), f"{path.name}: {name}"
            assert getattr(module, name).cache_info().maxsize == _CACHED_DATA
        own = {name for name, f in vars(module).items()
               if hasattr(f, "cache_clear") and f.__module__ == module.__name__}
        assert own == set(top), path.name
        found += len(top)
    assert found == 1  # spherical.chart


def _clear_like_the_cli_runner():
    for m in list(sys.modules.values()):
        if getattr(m, "__name__", "").startswith("demroots"):
            for f in list(vars(m).values()):
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


def test_clearing_the_module_caches_rebuilds_every_chart_field():
    # A2 with both colors moved by root 0 only: the Levi {1} is nonempty, so
    # a rebuilt one is a fresh object, and removing u leaves a smaller cone.
    d = SphericalDatum(standard_root_system("A", 2), Sublattice.full(2), (
        Divisor("g", DualVector((0, 1), "M"), "g-stable"),
        Divisor("t", DualVector((1, 0), "M"), "color", "T", frozenset({0})),
        Divisor("u", DualVector((1, 1), "M"), "color", "U", frozenset({0}))))
    sub = ColorSubset("t")

    def built():
        return (full_cone(d), slice_cone(d, sub), levi_subset(d, sub),
                chart(d, sub).summands)

    before = built()
    assert levi_subset(d, sub) == {1} and chart(d, sub).summands
    assert slice_cone(d, sub) is not full_cone(d)
    assert all(a is b for a, b in zip(before, built()))
    _clear_like_the_cli_runner()
    after = built()
    assert before == after
    assert all(a is not b for a, b in zip(before, after))
