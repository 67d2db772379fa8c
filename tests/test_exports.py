import ast
from pathlib import Path

import demroots

INIT = Path(demroots.__file__)


def test_all_names_resolve():
    assert len(set(demroots.__all__)) == len(demroots.__all__)
    for name in demroots.__all__:
        assert getattr(demroots, name) is not None, name


def test_all_matches_the_imports():
    imported = {alias.asname or alias.name
                for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(demroots.__all__) == imported
