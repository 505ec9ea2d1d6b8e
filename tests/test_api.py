"""The package's public names: ``logcap.__all__`` and what it exports; and value bits that no interpreter changes."""

import builtins
import dataclasses
import math
import random

import pytest

import logcap
from logcap.verify import random_unit_interval_union


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


ORIGINAL_SUM = builtins.sum


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 adds floats, with Neumaier's compensation; other sums as before."""
    values = list(values)
    if not all(type(v) is float for v in values):
        return ORIGINAL_SUM(values, start)
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_value_sums_do_not_depend_on_the_interpreters_sum(monkeypatch):
    # the builtin sum compensates float sums from Python 3.12 on; every
    # value sum runs left to right, so a compensated sum changes no bit of
    # the seeded sets, the total lengths, the classical and projection
    # bounds or the Widom route's est_error
    rng = random.Random(11)
    sets = [random_unit_interval_union(rng, n) for n in range(3, 21) for _ in range(20)]

    def values():
        rng = random.Random(11)
        drawn = [random_unit_interval_union(rng, n) for n in range(3, 21) for _ in range(20)]
        return [(d, e.total_length(), logcap.classical_bounds(e), logcap.circle_preimage(e).total_length(),
                 logcap.projection_upper(e), logcap.capacity(e).est_error) for d, e in zip(drawn, sets)]

    want = values()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0  # left to right, the sum is 1 - 2**-53
    got = values()
    for path in range(6):
        assert [v[path] for v in got] == [v[path] for v in want], path
