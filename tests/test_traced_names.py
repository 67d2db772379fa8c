"""The traced benchmark run wraps library functions by name; each must resolve.

perfbench/tracer.py lists them in TRACED as {layer: (name, ...)} and wraps
demroots.<layer>.<name> with getattr, so a refactor that drops or renames one
would only break `perfbench/run.py --trace 1`. The table is read from the
file's source, not imported, so this test depends on nothing else there.
"""

import ast
from importlib import import_module
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"demroots.{layer}.{name}" for layer, names in traced.items()
               for name in names
               if not callable(getattr(import_module(f"demroots.{layer}"), name, None))]
    assert not missing, missing
