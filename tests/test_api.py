"""The package's public names: ``logcap.__all__`` and what it exports."""

import dataclasses

import pytest

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


def test_results_are_frozen_and_have_no_instance_dict():
    e = logcap.make_interval_union([(-1.0, -0.5), (0.5, 1.0)])
    results = (logcap.capacity(e), logcap.all_bounds(e)[0], logcap.widom_polynomial(e),
               logcap.akhiezer_params(-0.5, 0.5), logcap.tail_integral(lambda t: 1.0 / (t * t), 1.0, 1e-10))
    for result in results:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, dataclasses.fields(result)[0].name, 0.0)
        assert not hasattr(result, "__dict__")
