from importlib import import_module

import pytest

import demroots


def test_all_names_resolve():
    assert len(set(demroots.__all__)) == len(demroots.__all__)
    for name in demroots.__all__:
        assert getattr(demroots, name) is not None, name


def test_all_is_the_export_table():
    listed = [name for names in demroots._EXPORTS.values() for name in names.split()]
    assert len(set(listed)) == len(listed)
    assert len(set(demroots.__all__)) == len(demroots.__all__)
    assert set(demroots.__all__) == set(listed) == set(demroots._HOME)


def test_each_export_is_its_home_modules_object():
    for module, names in demroots._EXPORTS.items():
        home = import_module(f"demroots.{module}")
        assert getattr(demroots, module) is home
        for name in names.split():
            assert getattr(demroots, name) is getattr(home, name), name
            assert vars(demroots)[name] is getattr(home, name), name  # kept after first use


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        demroots.no_such_name
    assert not hasattr(demroots, "cli_main")
