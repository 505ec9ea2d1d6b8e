"""Interval-union construction, measure, intersection, projection tests."""

import math
import random

import mpmath
import pytest

from logcap import (
    DomainError,
    ValidationError,
    all_bounds,
    canonical_set,
    capacity,
    chebyshev_measure,
    circle_preimage,
    intersect,
    make_interval_union,
    normalize_to_unit,
    project_to_real_axis,
)
from logcap.sets import CircleArcSet, IntervalUnion, Partition
from logcap.verify import equality_gap_points, random_unit_interval_union


def test_make_canonical_input():
    e = make_interval_union([(-1, -0.5), (0.5, 1)])
    assert e.intervals == ((-1.0, -0.5), (0.5, 1.0))
    assert e.n == 2


def test_make_sorts():
    e = make_interval_union([(0.5, 1), (-1, -0.5)])
    assert e.intervals == ((-1.0, -0.5), (0.5, 1.0))


def test_make_merges_touching():
    e = make_interval_union([(-1, 0), (0, 1)])
    assert e.intervals == ((-1.0, 1.0),)


def test_make_merges_overlapping():
    e = make_interval_union([(0, 2), (1, 3)])
    assert e.intervals == ((0.0, 3.0),)


def test_make_rejects_reversed():
    with pytest.raises(ValidationError):
        make_interval_union([(1.0, 0.5)])


def test_make_rejects_nonfinite():
    with pytest.raises(ValidationError):
        make_interval_union([(0.0, math.inf)])
    with pytest.raises(ValidationError):
        make_interval_union([(math.nan, 1.0)])


def test_make_rejects_empty():
    with pytest.raises(ValidationError):
        make_interval_union([])


def test_snap_to_unit_endpoints():
    e = make_interval_union([(-1 - 5e-15, 0.5), (0.6, 1 + 5e-15)])
    assert e.hull == (-1.0, 1.0)


def test_thin_components_near_unit_ends_are_not_snapped_empty():
    # only the hull ends snap to +-1, never an interior endpoint
    e = make_interval_union([(-1.0, -1.0 + 1e-15), (0.0, 1.0)])
    assert e.intervals[0] == (-1.0, -1.0 + 1e-15)
    # normalized, the thin component ends within 1e-14 of -1
    thin = make_interval_union([(0.0, 1e-15), (0.5, 1.0)])
    assert 0.125 <= capacity(thin).value <= 0.25  # cap([0.5, 1]) <= cap <= cap([0, 1])


def test_make_rejects_malformed_input():
    for pairs in (3, [1, 2], [(0.0, 1.0, 2.0)], [(0.0,)], [(0.0, "x")], "ab"):
        with pytest.raises(ValidationError):
            make_interval_union(pairs)


@pytest.mark.parametrize("data", [{"sets": []}, [[0, 1]]])
def test_from_json_dict_rejects_malformed_input(data):
    with pytest.raises(ValidationError):
        IntervalUnion.from_json_dict(data)


def test_json_dict_round_trip():
    e = make_interval_union([(-1.0, -0.123456789012345), (0.1, 0.3), (2.0 / 3.0, 1.0)])
    assert IntervalUnion.from_json_dict(e.to_json_dict()) == e


def test_direct_construction_validates():
    for intervals in ((), ((0.0, 1.0), (0.5, 2.0)), ((0.0, math.inf),), ((1.0, 1.0),)):
        with pytest.raises(ValidationError):
            IntervalUnion(intervals)
    for points in ((-1.0,), (-0.5, 1.0), (-1.0, 0.5), (-1.0, 0.2, 0.2, 1.0)):
        with pytest.raises(ValidationError):
            Partition(points)
    for arcs in ((), ((1.0, 0.5),), ((0.0, 7.0),), ((1.0, 2.0), (0.5, 3.0))):
        with pytest.raises(ValidationError):
            CircleArcSet(arcs)


def test_mu_full_interval():
    assert chebyshev_measure(make_interval_union([(-1, 1)])) == pytest.approx(math.pi, abs=1e-15)


def test_mu_half_interval():
    assert chebyshev_measure(make_interval_union([(0, 1)])) == pytest.approx(math.pi / 2, abs=1e-15)


def test_mu_symmetric_pair():
    # oracle: tanh-sinh quadrature of dx/sqrt(1-x^2), frozen value 2*pi/3
    e = make_interval_union([(-1, -0.5), (0.5, 1)])
    got = chebyshev_measure(e)
    assert got == pytest.approx(2.0943951023931953, abs=1e-13)
    with mpmath.workdps(30):  # the endpoint singularity needs extra digits
        oracle = 2 * float(
            mpmath.quad(lambda x: 1 / mpmath.sqrt(1 - x * x), [0.5, 1])
        )
    assert got == pytest.approx(oracle, abs=1e-12)


def test_mu_domain_error():
    with pytest.raises(DomainError):
        chebyshev_measure(make_interval_union([(0.0, 1.5)]))


def test_mu_additive_and_monotone():
    rng = random.Random(7)
    for _ in range(50):
        e = random_unit_interval_union(rng, rng.choice([2, 3, 4]))
        total = chebyshev_measure(e)
        parts = sum(
            chebyshev_measure(make_interval_union([iv])) for iv in e.intervals
        )
        assert total == pytest.approx(parts, abs=1e-12)
        # monotone under droppping a component
        sub = make_interval_union(e.intervals[:-1])
        assert chebyshev_measure(sub) <= total + 1e-15


def test_intersect_subset():
    a = make_interval_union([(-1, 1)])
    b = make_interval_union([(0, 0.5)])
    assert intersect(a, b).intervals == ((0.0, 0.5),)


def test_intersect_disjoint_is_none():
    a = make_interval_union([(-1, -0.5), (0.5, 1)])
    b = make_interval_union([(-0.2, 0.2)])
    assert intersect(a, b) is None


def test_intersect_two_pieces():
    a = make_interval_union([(-1, 0), (0.3, 1)])
    b = make_interval_union([(-0.5, 0.6)])
    assert intersect(a, b).intervals == ((-0.5, 0.0), (0.3, 0.6))


def test_intersect_matches_membership_grid():
    rng = random.Random(11)
    for _ in range(25):
        a = random_unit_interval_union(rng, rng.choice([2, 3, 4]), min_seg=0.02)
        b = random_unit_interval_union(rng, rng.choice([2, 3, 4]), min_seg=0.02)
        c = intersect(a, b)
        for _ in range(400):
            x = rng.uniform(-1, 1)
            expected = a.contains(x) and b.contains(x)
            got = c is not None and c.contains(x)
            assert got == expected


def test_normalize_examples():
    e, scale = normalize_to_unit(make_interval_union([(0, 4)]))
    assert e.intervals == ((-1.0, 1.0),)
    assert scale == 2.0

    e2 = make_interval_union([(-1, -0.5), (0.5, 1)])
    out, scale = normalize_to_unit(e2)
    assert out.intervals == e2.intervals
    assert scale == 1.0

    out, scale = normalize_to_unit(make_interval_union([(0, 1), (3, 4)]))
    assert scale == 2.0
    assert out.intervals[0] == (-1.0, -0.5)
    assert out.intervals[1] == (0.5, 1.0)


def test_normalize_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        base = random_unit_interval_union(rng, rng.choice([2, 3, 4]))
        shift = rng.uniform(-5, 5)
        factor = rng.uniform(0.1, 10)
        moved = make_interval_union(
            [(factor * a + shift, factor * b + shift) for a, b in base.intervals]
        )
        norm, scale = normalize_to_unit(moved)
        center = 0.5 * (moved.hull[0] + moved.hull[1])
        for (a, b), (na, nb) in zip(moved.intervals, norm.intervals):
            assert abs(na * scale + center - a) < 1e-14 * max(1.0, abs(a))
            assert abs(nb * scale + center - b) < 1e-14 * max(1.0, abs(b))


def test_normalize_names_a_component_or_gap_that_collapses():
    # narrower than the rounding at the hull's scale: mapped onto [-1, 1],
    # its ends coincide; the same type as before, so CLI exit codes stay
    cases = [
        ([(-1e-3, -1e-3 + 1e-15), (0, 1e3)], r"component 0 \(-0\.001, "),
        ([(0, 1e-17), (0.5, 1)], r"component 0 \(0\.0, 1e-17\)"),
        ([(-1e-3, -5e-4), (-5e-4 + 1e-15, 1e3)], r"gap 0 \(-0\.0005, "),
    ]
    for pairs, what in cases:
        e = make_interval_union(pairs)
        for f in (normalize_to_unit, capacity, all_bounds):
            with pytest.raises(ValidationError, match=what + ".*narrower than the rounding"):
                f(e)


def test_canonical_single_arc():
    l = 1.3
    e = canonical_set(l, 1)
    assert e.intervals == ((math.cos(l / 2), 1.0),)


def test_canonical_two_arcs():
    l = 2.0
    e = canonical_set(l, 2)
    assert e.n == 2
    assert e.intervals[0][0] == -1.0
    assert e.intervals[0][1] == pytest.approx(-math.cos(l / 4), abs=1e-15)
    assert e.intervals[1][0] == pytest.approx(math.cos(l / 4), abs=1e-15)
    assert e.intervals[1][1] == 1.0


def test_canonical_four_arcs():
    e = canonical_set(math.pi, 4)
    assert e.n == 3
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    expect = ((-1.0, -c), (-s, s), (c, 1.0))
    for got, want in zip(e.intervals, expect):
        assert got[0] == pytest.approx(want[0], abs=1e-15)
        assert got[1] == pytest.approx(want[1], abs=1e-15)


def test_canonical_matches_arc_membership():
    # brute force: x in E(l,n) iff n*arccos(x) is within l/2 of a multiple of 2*pi
    rng = random.Random(5)
    for l, n in [(1.0, 3), (math.pi, 4), (4.5, 5), (6.0, 2)]:
        e = canonical_set(l, n)
        for _ in range(500):
            x = rng.uniform(-1, 1)
            ang = n * math.acos(x)
            d = abs((ang + math.pi) % (2 * math.pi) - math.pi)
            inside = d <= l / 2
            if abs(d - l / 2) > 1e-9:  # skip boundary fuzz
                assert e.contains(x) == inside


def test_canonical_measure_is_half_length():
    # projection halves the total arc length of the symmetric preimage
    for l in (0.5, math.pi / 2, math.pi, 5.0):
        for n in range(1, 9):
            e = canonical_set(l, n)
            assert chebyshev_measure(e) == pytest.approx(l / 2, abs=1e-12)


def test_canonical_domain():
    with pytest.raises(DomainError):
        canonical_set(0.0, 2)
    with pytest.raises(DomainError):
        canonical_set(2 * math.pi, 2)


def test_preimage_full_circle():
    f = circle_preimage(make_interval_union([(-1, 1)]))
    assert f.total_length() == pytest.approx(2 * math.pi, abs=1e-14)


def test_preimage_single_arc():
    l = 1.7
    f = circle_preimage(make_interval_union([(math.cos(l / 2), 1)]))
    assert f.total_length() == pytest.approx(l, abs=1e-13)


def test_preimage_length_is_twice_measure():
    rng = random.Random(13)
    for _ in range(40):
        e = random_unit_interval_union(rng, rng.choice([1, 2, 3, 4]), min_seg=0.03)
        f = circle_preimage(e)
        assert f.total_length() == pytest.approx(2 * chebyshev_measure(e), abs=1e-12)


def test_preimage_projection_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        e = random_unit_interval_union(rng, rng.choice([1, 2, 3, 4]), min_seg=0.03)
        back = project_to_real_axis(circle_preimage(e))
        assert back.n == e.n
        for (a, b), (a2, b2) in zip(e.intervals, back.intervals):
            assert abs(a - a2) < 1e-14
            assert abs(b - b2) < 1e-14


def test_verify_generators_raise_domain_error():
    # 41 pieces of at least 0.05 do not fit in [-1, 1]
    with pytest.raises(DomainError, match="minimum segment length"):
        random_unit_interval_union(random.Random(1), 21)
    with pytest.raises(DomainError, match="at least two intervals"):
        equality_gap_points(1)
