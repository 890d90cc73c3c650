"""The package namespace: what genpos exports."""

import genpos


def test_all_has_no_duplicates():
    assert len(genpos.__all__) == len(set(genpos.__all__))


def test_all_names_resolve():
    for name in genpos.__all__:
        assert hasattr(genpos, name), name
