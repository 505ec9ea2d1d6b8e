"""Interval-union construction, measure, normalization, projection tests."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from logcap import (
    DomainError,
    ValidationError,
    all_bounds,
    canonical_set,
    capacity,
    chebyshev_measure,
    circle_preimage,
    make_interval_union,
    normalize_to_unit,
    project_to_real_axis,
)
from logcap.errors import _brief
from logcap.sets import TWO_PI, CircleArcSet, IntervalUnion, Partition, _arcs
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
    # integers beyond the float range, which float() cannot convert
    for pair in ((0, 10**400), (-10**400, 0)):
        with pytest.raises(ValidationError, match="too large for a float"):
            make_interval_union([pair])


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


# each raised a bare ValueError: Python refuses to print an integer of more
# than 4300 digits, and the error message named it
UNPRINTABLE_INPUTS = {
    "pair-of-three": lambda: make_interval_union([(0, 1, 10**5000)]),
    "not-a-sequence": lambda: make_interval_union(10**5000),
    "nan-beside-huge-endpoint": lambda: IntervalUnion(((math.nan, 10**5000),)),
    "arc-end": lambda: CircleArcSet(((0.0, 10**5000),)),
}


@pytest.mark.parametrize("case", list(UNPRINTABLE_INPUTS))
def test_unprintable_integers_raise_validation_error(case):
    with pytest.raises(ValidationError):
        UNPRINTABLE_INPUTS[case]()


def test_brief_shows_an_unprintable_integer_by_its_digit_count():
    assert _brief(-(10**4299)) == repr(-(10**4299))
    assert _brief(10**4300) == "<int of 4301 digits>"
    assert _brief(10**4300 - 1) == repr(10**4300 - 1)  # 4300 digits print
    assert _brief(-(10**5000) + 1) == "<negative int of 5000 digits>"
    assert _brief(-(10**5000)) == "<negative int of 5001 digits>"
    assert _brief([1, 10**5000]) == "<list holding an integer too long to print>"


@pytest.mark.parametrize("data", [{"sets": []}, [[0, 1]], {"intervals": [[0, 10**400]]}])
def test_from_json_dict_rejects_malformed_input(data):
    with pytest.raises(ValidationError):
        IntervalUnion.from_json_dict(data)


def test_json_dict_round_trip():
    e = make_interval_union([(-1.0, -0.123456789012345), (0.1, 0.3), (2.0 / 3.0, 1.0)])
    assert IntervalUnion.from_json_dict(e.to_json_dict()) == e


def test_direct_construction_validates():
    for intervals in ((), ((0.0, 1.0), (0.5, 2.0)), ((0.0, math.inf),), ((1.0, 1.0),),
                      ((0, 10**400),), ((-10**400, 0),)):
        with pytest.raises(ValidationError):
            IntervalUnion(intervals)
    for points in ((-1.0,), (-0.5, 1.0), (-1.0, 0.5), (-1.0, 0.2, 0.2, 1.0)):
        with pytest.raises(ValidationError):
            Partition(points)
    for arcs in ((), ((1.0, 0.5),), ((0.0, 7.0),), ((1.0, 2.0), (0.5, 3.0))):
        with pytest.raises(ValidationError):
            CircleArcSet(arcs)
    # make_interval_union and normalize_to_unit skip this check; what they
    # build passes it unchanged: touching and overlapping pairs, hull ends
    # snapped to +-1, single intervals, subnormal and near-1e308 hulls
    rng = random.Random(35)
    built, snapped = [], 0
    for i in range(400):
        n = rng.randint(1, 6)
        pts = sorted(rng.sample(range(-1000, 1001), 2 * n))
        pairs = [[pts[2 * j], pts[2 * j + 1]] for j in range(n)]
        for j in range(1, n):
            r = rng.random()
            if r < 0.25:  # touching its left neighbour
                pairs[j][0] = pairs[j - 1][1]
            elif r < 0.5:  # overlapping it
                pairs[j][0] = pairs[j - 1][1] - 1
        unit = (5e-324, 1e-3, 1.7e305)[i % 3]
        pairs = [[a * unit, b * unit] for a, b in pairs]
        if unit == 1e-3 and rng.random() < 0.5:  # ends within 1e-14 of +-1
            pairs[0][0] = -1.0 + rng.uniform(-9e-15, 9e-15)
            pairs[-1][1] = 1.0 + rng.uniform(-9e-15, 9e-15)
        rng.shuffle(pairs)
        e = make_interval_union(pairs)
        snapped += e.is_unit_hull() and e.hull != (min(pairs)[0], max(b for _, b in pairs))
        built += [e, normalize_to_unit(e)[0]]
    assert snapped and any(e.n == 1 for e in built)
    assert any(0.0 < e.hull[1] - e.hull[0] < 2.2e-308 for e in built)
    assert any(max(map(abs, e.hull)) > 1e308 for e in built)
    for e in built:
        again = IntervalUnion(e.intervals)
        assert again == e and hash(again) == hash(e)


@pytest.mark.parametrize("pair", [("a", 1.0), (None, 1.0)])
def test_direct_construction_rejects_an_endpoint_that_is_no_number(pair):
    # math.isfinite raised a bare TypeError
    with pytest.raises(ValidationError, match="non-finite endpoint"):
        IntervalUnion((pair,))


# a string or None entry raised a bare TypeError where it was first
# compared, the one-entry pair a bare ValueError, and a union or partition
# given no sequence a bare TypeError
UNREADABLE_ENTRIES = {
    "union-one-entry-pair": lambda: IntervalUnion(((1.0,),)),
    "union-not-iterable": lambda: IntervalUnion(5),
    "partition-not-iterable": lambda: Partition(5),
}
for _kind, _value in (("string", "abc"), ("none", None), ("huge", 10**400)):
    UNREADABLE_ENTRIES[f"partition-point-{_kind}"] = lambda v=_value: Partition((-1.0, v, 1.0))
    UNREADABLE_ENTRIES[f"arc-start-{_kind}"] = lambda v=_value: CircleArcSet(((v, 1.0),))
    UNREADABLE_ENTRIES[f"arc-end-{_kind}"] = lambda v=_value: CircleArcSet(((0.0, v),))


@pytest.mark.parametrize("case", list(UNREADABLE_ENTRIES))
def test_value_types_reject_unreadable_entries(case):
    with pytest.raises(ValidationError):
        UNREADABLE_ENTRIES[case]()


@pytest.mark.parametrize("number", [int, str, Decimal, np.float64])
def test_value_types_hold_the_floats_they_read(number):
    # a union, partition and arc set store float() of each entry, a numeric
    # string included, and compare and hash equal to one built from floats
    if number is int:
        pairs, points, arcs = ((-1, 1),), (-1, 0, 1), ((0, 1), (3, 6))
    else:
        pairs = tuple((number(a), number(b)) for a, b in (("-1", "-0.5"), ("0.25", "1")))
        points = tuple(map(number, ("-1", "0.1", "1")))
        arcs = tuple((number(s), number(t)) for s, t in (("0", "1.5"), ("3", "6.25")))
    floats = lambda seq: tuple(map(float, seq))
    e, p, f = IntervalUnion(pairs), Partition(points), CircleArcSet(arcs)
    assert all(type(x) is float for x in [*e.endpoints(), *p.points, *(x for arc in f.arcs for x in arc)])
    for got, want in ((e, IntervalUnion(tuple(map(floats, pairs)))), (p, Partition(floats(points))),
                      (f, CircleArcSet(tuple(map(floats, arcs))))):
        assert got == want and hash(got) == hash(want)
    # such a union with hull [-1, 1] is its own normalization
    out, scale = normalize_to_unit(e)
    assert out is e and scale == 1.0


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


@pytest.mark.parametrize("a, width", [(0.3, 1e-12), (0.5, 1e-14), (-0.99, 1e-10)])
def test_mu_thin_interval_keeps_its_digits(a, width):
    """A width from two arccos values would lose log10(1/width) digits."""
    e = make_interval_union([(a, a + width)])
    (lo, hi), = e.intervals
    with mpmath.workdps(40):
        want = mpmath.acos(mpmath.mpf(lo)) - mpmath.acos(mpmath.mpf(hi))
        assert abs(chebyshev_measure(e) / want - 1) <= 4e-15


def _arcs_by_builtins(a, b):
    """``sets._arcs`` written with ``math.`` names and the builtin max and min: its reference."""
    s = math.acos(a) + math.acos(b)
    half = 0.5 * (math.acos(-a) + math.acos(-b)) if a + b < 0.0 else 0.5 * s
    return 2.0 * math.asin(min(max(b - a, 0.0) / (2.0 * math.sin(half)), 1.0)), s


def test_arcs_matches_the_builtin_max_min_formula_bit_for_bit():
    up = lambda x: math.nextafter(x, 2.0)
    tiny = 5e-324
    cases = [(x, x) for x in (-1.0, -0.5, -0.0, 0.0, 0.3, 1.0)]
    # signed zeros: -0.0 - 0.0 is -0.0, which max(., 0.0) keeps
    cases += [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]
    # ends at -1 and 1, and intervals spanning nearly all of [-1, 1]
    cases += [(-1.0, 1.0), (-1.0, up(-1.0)), (math.nextafter(1.0, 0.0), 1.0), (-1.0, 0.0),
              (0.0, 1.0), (up(-1.0), math.nextafter(1.0, 0.0)), (-1.0, -1.0), (1.0, 1.0)]
    # widths of 1 ulp and subnormal widths
    cases += [(x, up(x)) for x in (-0.75, -0.5, -tiny, 0.0, 1e-300, 0.1, 0.5, 0.9999)]
    cases += [(0.0, tiny), (-tiny, 0.0), (-tiny, tiny), (1e-310, 2e-310), (-2e-310, -1e-310)]
    # both branches of a + b < 0, and its boundary a + b = 0
    cases += [(-0.6, 0.5), (-0.5, 0.6), (-0.5, 0.5), (-0.9, -0.8), (0.8, 0.9)]
    # reversed ends, whose width max(., 0.0) clamps to 0
    cases += [(0.5, 0.2), (-0.2, -0.5), (tiny, 0.0), (1.0, -1.0)]
    rng = random.Random(19)
    for _ in range(2000):
        a, b = sorted(rng.uniform(-1.0, 1.0) for _ in range(2))
        cases += [(a, b), (b, a), (a, math.nextafter(a, b))]

    def outcome(arcs, a, b):
        try:
            return [x.hex() for x in arcs(a, b)]
        except ZeroDivisionError:  # [-1, -1] and [1, 1], where sin(half) is 0
            return "ZeroDivisionError"

    signs = set()
    for a, b in cases:
        got = outcome(_arcs, a, b)
        assert got == outcome(_arcs_by_builtins, a, b), (a, b)
        if got[0] in ("0x0.0p+0", "-0x0.0p+0"):
            signs.add(got[0])
    assert signs == {"0x0.0p+0", "-0x0.0p+0"}  # the sign of a zero width is exercised both ways


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


def _general_map(e):
    """The map of ``normalize_to_unit`` onto hull [-1, 1], without its unit-hull shortcut."""
    ends = e.endpoints()
    k = 1 - math.frexp(max(abs(ends[0]), abs(ends[-1])))[1]
    lo, hi = math.ldexp(ends[0], k), math.ldexp(ends[-1], k)
    half, center = 0.5 * (hi - lo), 0.5 * (hi + lo)
    mapped = [(math.ldexp(x, k) - center) / half for x in ends]
    mapped[0], mapped[-1] = -1.0, 1.0
    return tuple(zip(mapped[::2], mapped[1::2])), math.ldexp(half, -k)


def _unit_hull_sets(rng, count):
    """Seeded unit-hull sets, some with components a few ulp wide or subnormal endpoints."""
    sets = []
    for i in range(count):
        n = rng.randint(2, 8)
        pts = set()
        while len(pts) < 2 * n - 2:
            kind = rng.randrange(4)
            if kind == 0:  # subnormal, of either sign, or a signed zero
                x = rng.choice((-1.0, 1.0)) * rng.randrange(0, 1000) * 5e-324
            else:
                x = rng.uniform(-0.999, 0.999)
            pts.add(x)
            if kind == 1 and len(pts) < 2 * n - 2:  # a point a few ulp above it
                for _ in range(rng.randint(1, 4)):
                    x = math.nextafter(x, 1.0)
                pts.add(x)
        pts = sorted(pts)
        ends = [-1.0, *pts, 1.0]
        sets.append(make_interval_union(list(zip(ends[::2], ends[1::2]))))
    return sets


def test_normalize_returns_a_unit_hull_set_as_is():
    rng = random.Random(32)
    sets = _unit_hull_sets(rng, 200)
    assert any(0.0 < abs(a) < 2.2e-308 for e in sets for a in e.endpoints())
    assert any(math.nextafter(a, b) != b and b - a <= 4 * math.ulp(a)
               for e in sets for a, b in e.intervals)
    for e in sets:
        out, scale = normalize_to_unit(e)
        assert out is e and scale == 1.0 and type(scale) is float
        # the general map gives the same bits: the shortcut moves no value
        mapped, general_scale = _general_map(e)
        assert [x.hex() for iv in mapped for x in iv] == [x.hex() for x in e.endpoints()]
        assert general_scale == 1.0


def test_normalize_maps_other_endpoint_types_to_floats():
    # a union built directly from other number types holds floats, so it
    # comes back as floats
    for e in (IntervalUnion(((Decimal(-1), Decimal(0)), (Decimal("0.5"), Decimal(1)))),
              IntervalUnion(((Fraction(-1), Fraction(0)), (Fraction(1, 2), Fraction(1)))),
              IntervalUnion(((np.float64(-1), np.float64(0)), (np.float64(0.5), np.float64(1)))),
              IntervalUnion(((-1, 0), (0.5, 1)))):
        out, scale = normalize_to_unit(e)
        assert all(type(x) is float for x in out.endpoints()), e
        assert out.intervals == ((-1.0, 0.0), (0.5, 1.0)) and scale == 1.0
    e = IntervalUnion(((Decimal(-1), Decimal("-0.2")), (Decimal("0.3"), Decimal(1))))
    assert capacity(e).value == capacity(make_interval_union(e.intervals)).value


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


def test_length_within_one_sector():
    """Arc length in a sector that crosses 0, one that runs past 2 pi, and a full turn.

    The arc [-0.2, 0.3] is stored split at 0, as (0, 0.3) and (2 pi - 0.2, 2 pi).
    """
    f = CircleArcSet(((0.0, 0.3), (1.0, 2.0), (TWO_PI - 0.2, TWO_PI)))
    assert type(f.length_within(-0.5, 0.5)) is float
    assert f.length_within(-0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert f.length_within(1.5, 2.5) == pytest.approx(0.5, abs=1e-15)
    assert f.length_within(6.0, 7.5) == pytest.approx(0.5 + 7.5 - (1.0 + TWO_PI), abs=1e-15)
    assert f.length_within(0.0, TWO_PI) == f.total_length()
    assert f.length_within(1.5, 1.5 + TWO_PI) == pytest.approx(f.total_length(), abs=1e-15)


def test_verify_generators_raise_domain_error():
    # 41 pieces of at least 0.05 do not fit in [-1, 1]
    with pytest.raises(DomainError, match="minimum segment length"):
        random_unit_interval_union(random.Random(1), 21)
    with pytest.raises(DomainError, match="at least two intervals"):
        equality_gap_points(1)
