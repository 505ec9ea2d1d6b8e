"""The package's public names: ``logcap.__all__`` and what it exports."""

import logcap


def test_all_names_resolve_sorted_without_duplicates():
    names = logcap.__all__
    assert [name for name in names if not hasattr(logcap, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_star_import_exports_exactly_all():
    namespace = {}
    exec("from logcap import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(logcap.__all__)
