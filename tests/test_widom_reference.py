"""The Schwarz-Christoffel route against an independent 30-digit mpmath reference.

Random sets at n >= 3 have no closed form, so here each `est_error` of
``widom_capacity`` is checked against ``widom_mp.widom_capacity_mp`` on a
small fixed pool: ordinary random sets, a narrow gap, an off-hull affine
image, and three sets with an interior component 2e-5..2e-4 wide whose
error exceeds their `est_error` today.  The reference itself is checked
against the canonical closed form and the polynomial-preimage one.
"""

import functools
import math
import random

import mpmath
import numpy as np
import pytest

from logcap import canonical_set, make_interval_union, widom_capacity
from logcap.verify import random_unit_interval_union

from preimages import polynomial_preimage
from widom_mp import widom_capacity_mp


def _pool():
    rng = random.Random(7)
    pool = {f"ordinary-n{n}": random_unit_interval_union(rng, n).intervals for n in (3, 4, 6, 8)}
    pool["narrow-gap"] = ((-1.0, 0.2), (0.2 + 1e-6, 0.6), (0.7, 1.0))
    base = random_unit_interval_union(rng, 5)
    pool["off-hull"] = make_interval_union(
        [(2.5 * a - 7.0, 2.5 * b - 7.0) for a, b in base.intervals]).intervals
    return pool


POOL = _pool()

# error over est_error was 2.5, 3.8 and 1.1 on these three (errors
# 1.3e-14, 1.7e-14 and 4.8e-15 absolute); the gap-local offsets of
# ROADMAP item 16 are meant to bring them back, and the maximum-principle
# certificate of item 17 to bracket them
EST_ERROR_MISSES = {
    "thin-interior-n4": ((-1.0, -0.9459984986328897), (-0.8961397946081879, -0.7716667851289537),
                         (-0.12774257098039854, -0.12771748125889368), (0.6379536974477524, 1.0)),
    "thin-interior-n3a": ((-1.0, -0.3637940888373111), (0.14853422006845007, 0.14855212165182582),
                          (0.661772991478865, 1.0)),
    "thin-interior-n3b": ((-1.0, -0.8821045607008962), (-0.5467842597296588, -0.5466237489646154),
                          (0.9494657122960113, 1.0)),
}


@functools.lru_cache(maxsize=None)
def reference(intervals, dps=30):
    return widom_capacity_mp(intervals, dps)


@pytest.mark.parametrize("name", [
    *POOL,
    *(pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="error above est_error beside a thin interior component (ROADMAP items 16 and 17)"))
      for name in EST_ERROR_MISSES),
])
def test_widom_route_is_within_est_error_of_the_mpmath_reference(name):
    intervals = {**POOL, **EST_ERROR_MISSES}[name]
    res = widom_capacity(make_interval_union(intervals))
    assert abs(res.value - reference(intervals)) <= res.est_error


def test_mpmath_reference_agrees_with_itself_at_50_digits():
    # on the sets whose verdict rests on the last digits of the reference
    for intervals in [POOL["narrow-gap"], *EST_ERROR_MISSES.values()]:
        assert abs(reference(intervals) - widom_capacity_mp(intervals, 50)) < 1e-25, intervals


def test_mpmath_reference_matches_the_canonical_closed_form():
    # the closed form is for the exact arcs; the float endpoints move the
    # capacity by an ulp or two
    for l, arcs in ((math.pi, 4), (1.0, 3), (5.5, 6)):
        e = canonical_set(l, arcs)
        want = mpmath.mpf(0.5) * mpmath.sin(mpmath.mpf(l) / 4) ** (mpmath.mpf(2) / arcs)
        assert abs(reference(e.intervals) - want) < 1e-15, (l, arcs)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("k", range(3))
def test_mpmath_reference_brackets_the_polynomial_preimage_closed_form(d, k):
    # cap(E_in) <= cap(E) <= cap(E_out); here (2|c|)^(-1/d) lies 4e-16..1.3e-15
    # (relative) inside either end
    e_in, e_out, cap = polynomial_preimage(np.random.default_rng([5, d, k]), d)
    assert reference(e_in.intervals) <= cap <= reference(e_out.intervals)
