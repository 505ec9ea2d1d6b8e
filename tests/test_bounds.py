"""Lower/upper bound formulas, equality cases, dominance and sandwich checks."""

import math
import random

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

from logcap import (
    DomainError,
    GapPoints,
    Partition,
    all_bounds,
    beurling_arc_capacity,
    canonical_set,
    capacity,
    chebyshev_measure,
    circle_preimage,
    classical_bounds,
    gap_division_lower,
    gap_division_lower_max,
    gillis_upper,
    haliste_arcs_capacity,
    make_interval_union,
    normalize_to_unit,
    partition_lower,
    polarization_upper,
    projection_upper,
    schiefermayr_lower,
    schiefermayr_upper,
    sector_product_lower,
    solynin_lower,
    solynin_lower_max,
    uniform_measure_partition,
    widom_capacity,
)
from logcap import bounds as bounds_module
from logcap.bounds import (
    _C,
    _CH,
    _CHH,
    _H,
    _HALVINGS,
    _NEWTON_STEPS,
    _NEWTON_TOL,
    _cell_log,
    _chain_eval,
    _chain_max,
    _gap_division_chain,
    _newton_step,
    _solynin_chain,
    _to_edge,
    _tridiag_solve,
)
from logcap.verify import (
    DOMINANCE_SLACK,
    EQUALITY_TOL,
    SANDWICH_SLACK,
    equality_gap_points,
    random_unit_interval_union,
)

SYM = 0.4330127018922193  # capacity of [-1,-1/2] u [1/2,1]


def sym_pair(g):
    return make_interval_union([(-1.0, -g), (g, 1.0)])


def two_interval(alpha, beta):
    return make_interval_union([(-1.0, alpha), (beta, 1.0)])


def eq2_direct(alpha, beta, delta):
    """Direct transcription of the two-interval tailored bound at a fixed delta."""
    th = math.acos
    t_d = th(delta)
    f1 = math.sin(math.pi * th(beta) / (2.0 * t_d)) ** (2.0 * t_d ** 2 / math.pi ** 2)
    f2 = math.sin(
        math.pi * (math.pi - th(alpha)) / (2.0 * (math.pi - t_d))
    ) ** (2.0 * (math.pi - t_d) ** 2 / math.pi ** 2)
    return 0.5 * f1 * f2


def test_classical_bounds():
    assert classical_bounds(make_interval_union([(-1, 1)])) == (0.5, 0.5)
    assert classical_bounds(sym_pair(0.5)) == (0.25, 0.5)
    lo, hi = classical_bounds(make_interval_union([(0, 0.4)]))
    assert lo == pytest.approx(0.1, rel=1e-15)
    assert hi == 0.5


def test_schiefermayr_lower_symmetric_equality():
    assert schiefermayr_lower(-0.5, 0.5) == pytest.approx(SYM, abs=1e-12)
    assert schiefermayr_lower(-0.8, 0.8) == pytest.approx(0.3, abs=1e-13)


def test_schiefermayr_lower_is_a_lower_bound():
    exact = widom_capacity(two_interval(-0.3, 0.5)).value
    assert schiefermayr_lower(-0.3, 0.5) <= exact + 1e-12


def test_polarization_upper_values():
    assert polarization_upper(-0.5, 0.5) == pytest.approx(SYM, abs=1e-13)
    assert polarization_upper(-0.1, 0.7) == pytest.approx(0.458257569495584, abs=1e-12)
    # degenerate-gap limit recovers the full-interval capacity
    assert polarization_upper(-1e-12, 1e-12) == pytest.approx(0.5, abs=1e-12)


def test_gillis_upper_symmetric_collapse():
    # symmetric sets collapse to 2*sqrt((1+alpha)/8 * (1-beta)/8)
    assert gillis_upper(-0.5, 0.5) == pytest.approx(0.5, abs=1e-13)
    assert gillis_upper(-0.9, 0.9) == pytest.approx(2.0 / math.sqrt(80.0), abs=1e-13)


def test_gillis_upper_sandwiches_exact():
    rng = random.Random(53)
    for _ in range(30):
        alpha = rng.uniform(-0.9, 0.8)
        beta = rng.uniform(alpha + 0.05, 0.92)
        exact = widom_capacity(two_interval(alpha, beta)).value
        assert gillis_upper(alpha, beta) >= exact - 1e-12


def test_schiefermayr_upper_reflection():
    assert schiefermayr_upper(-0.9, -0.5) == pytest.approx(
        schiefermayr_upper(0.5, 0.9), rel=1e-15
    )


def test_schiefermayr_upper_dominates_exact():
    for g in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert schiefermayr_upper(-g, g) >= 0.5 * math.sqrt(1 - g * g)
    exact = widom_capacity(two_interval(0.5, 0.9)).value
    assert schiefermayr_upper(0.5, 0.9) >= exact


def schiefermayr_upper_mp(alpha, beta):
    """Schiefermayr's upper bound in mpmath's working precision, from ellipe and ellipk."""
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    if a + b < 0:
        a, b = -b, -a
    m = (2 * (b - a) / ((1 - a) * (1 + b))) ** 2
    t = (1 + a) * (1 - b) / ((1 - a) * (1 + b))
    log_term = mpmath.log((mpmath.sqrt(2) + mpmath.sqrt(1 - a)) / mpmath.sqrt(1 + a))
    return (1 + a) / (2 * (1 + b)) * mpmath.exp(2 * (mpmath.ellipe(m) / mpmath.ellipk(m) - t)
                                                * log_term ** 2)


def test_schiefermayr_upper_matches_mpmath_on_thin_outer_components():
    # an outer component delta wide takes the modulus k within delta of 1,
    # down to one that rounds to 1 at delta = 1 ulp; both orientations
    rng = random.Random(59)
    pairs = []
    for _ in range(40):
        alpha = rng.uniform(-0.99, 0.98)
        beta = rng.uniform(alpha + 1e-3, 0.999)
        pairs += [(alpha, beta), (-beta, -alpha)]
    for delta in [10.0 ** -j for j in range(1, 16)] + [2.0 ** -53]:
        for alpha in (-0.5, 0.3):
            pairs += [(alpha, 1.0 - delta), (-1.0 + delta, -alpha)]
    for alpha, beta in pairs:
        with mpmath.workdps(50):
            want = float(schiefermayr_upper_mp(alpha, beta))
        assert schiefermayr_upper(alpha, beta) == pytest.approx(want, rel=1e-14, abs=0.0), (alpha, beta)
    # all_bounds reports it, and every other bound, on such a set
    reports = {r.name: r.value for r in all_bounds(two_interval(-0.5, 1.0 - 2.0 ** -53))}
    assert reports["schiefermayr_upper"] == schiefermayr_upper(-0.5, 1.0 - 2.0 ** -53)
    assert len(reports) == 10


def test_beurling_arc_capacity():
    assert beurling_arc_capacity(2 * math.pi) == pytest.approx(1.0, rel=1e-15)
    assert beurling_arc_capacity(math.pi) == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
    assert beurling_arc_capacity(1e-12) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        beurling_arc_capacity(0.0)


def test_haliste_arcs_capacity():
    assert haliste_arcs_capacity(1.3, 1) == pytest.approx(beurling_arc_capacity(1.3), rel=1e-15)
    assert haliste_arcs_capacity(math.pi, 2) == pytest.approx(0.8408964152537145, rel=1e-14)
    assert haliste_arcs_capacity(math.pi, 4) == pytest.approx((math.sqrt(2) / 2) ** 0.25, rel=1e-14)


def test_sector_product_full_circle():
    f = circle_preimage(make_interval_union([(-1, 1)]))
    assert sector_product_lower(f, [0.0, math.pi / 3, math.pi, 2 * math.pi]) == pytest.approx(
        1.0, abs=1e-14
    )


def test_sector_product_single_arc():
    l = 1.8
    f = circle_preimage(make_interval_union([(math.cos(l / 2), 1.0)]))
    got = sector_product_lower(f, [0.0, 2 * math.pi])
    # one sector spanning the full circle: factor sin(l/4) with exponent 2
    assert got == pytest.approx(math.sin(l / 4) ** 2, abs=1e-13)
    assert got <= beurling_arc_capacity(l) + 1e-13


def test_sector_product_canonical_two_arcs():
    l = 2.2
    f = circle_preimage(canonical_set(l, 2))
    got = sector_product_lower(f, [-math.pi / 2, math.pi / 2, 1.5 * math.pi])
    assert got == pytest.approx(math.sin(l / 4), abs=1e-12)
    # consistent ordering with the single-arc minimum and the n-arc maximum
    assert beurling_arc_capacity(l) <= got + 1e-12
    assert got <= haliste_arcs_capacity(l, 2) + 1e-12


def test_sector_product_empty_sector_gives_zero():
    l = 0.8
    f = circle_preimage(make_interval_union([(math.cos(l / 2), 1.0)]))
    assert sector_product_lower(f, [math.pi / 2, math.pi, 2 * math.pi + math.pi / 2]) == 0.0


def test_sector_product_validation():
    f = circle_preimage(make_interval_union([(-1, 1)]))
    with pytest.raises(DomainError):
        sector_product_lower(f, [0.0, math.pi])  # does not cover the circle
    with pytest.raises(DomainError):
        sector_product_lower(f, [0.0, 0.0, 2 * math.pi])
    with pytest.raises(DomainError, match="need at least one sector"):
        sector_product_lower(f, [0.0])


def test_partition_lower_trivial_cases():
    full = Partition((-1.0, 1.0))
    assert partition_lower(make_interval_union([(-1, 1)]), full) == pytest.approx(0.5, abs=1e-15)
    # [0,1] against the trivial partition: exact value length/4
    assert partition_lower(make_interval_union([(0, 1)]), full) == pytest.approx(0.25, abs=1e-14)


def test_partition_lower_zero_when_cell_missed():
    e = make_interval_union([(0.5, 1.0)])
    p = Partition((-1.0, 0.0, 1.0))
    assert partition_lower(e, p) == 0.0


def test_partition_lower_equality_on_canonical_sets():
    for l in (math.pi / 2, math.pi, 1.5 * math.pi):
        for n in (2, 3, 4, 5):
            e = canonical_set(l, n)
            pts = sorted(math.cos(math.pi * k / n) for k in range(n + 1))
            pts[0], pts[-1] = -1.0, 1.0
            got = partition_lower(e, Partition(tuple(pts)))
            want = 0.5 * math.sin(l / 4) ** (2.0 / n)
            assert got == pytest.approx(want, abs=1e-13)


def partition_lower_loop(e, p):
    """Scalar per-cell transcription of the partition bound, as an oracle.

    The measure of a cell's part of e comes from clamping each component
    to the cell, as a difference of arccos values, independent of
    ``sets._arcs``.
    """
    log_total = 0.0
    for lo, hi in p.cells():
        cell_mu = math.acos(lo) - math.acos(hi)
        inter_mu = sum(math.acos(max(a, lo)) - math.acos(min(b, hi))
                       for a, b in e.intervals if max(a, lo) < min(b, hi))
        if inter_mu <= 0.0:
            return 0.0
        s = math.sin(math.pi * inter_mu / (2.0 * cell_mu))
        log_total += (2.0 * cell_mu * cell_mu / math.pi ** 2) * math.log(s)
    return 0.5 * math.exp(log_total)


def gap_division_lower_loop(e, d):
    """Scalar per-component transcription of the gap-division bound, as an oracle."""
    dt = [math.pi] + [math.acos(x) for x in d.deltas] + [0.0]
    log_total = 0.0
    for (a, b), d_prev, d_k in zip(e.intervals, dt, dt[1:]):
        span = d_prev - d_k
        factor = 0.5 * (
            math.cos(math.pi * (math.acos(b) - d_k) / span)
            - math.cos(math.pi * (math.acos(a) - d_k) / span)
        )
        if factor <= 0.0:
            return 0.0
        log_total += (span * span / math.pi ** 2) * math.log(factor)
    return 0.5 * math.exp(log_total)


def gap_division_lower_mp(e, d):
    """The gap-division bound in mpmath's working precision, in its cosine-difference form."""
    th = [mpmath.acos(x) for x in e.endpoints()]
    cut = [mpmath.pi, *map(mpmath.acos, d.deltas), mpmath.mpf(0)]
    log_total = 0
    for th_a, th_b, lo, hi in zip(th[0::2], th[1::2], cut, cut[1:]):
        span = lo - hi
        factor = (mpmath.cos(mpmath.pi * (th_b - hi) / span)
                  - mpmath.cos(mpmath.pi * (th_a - hi) / span)) / 2
        log_total += span ** 2 / mpmath.pi ** 2 * mpmath.log(factor)
    return mpmath.exp(log_total) / 2


def partition_lower_mp(e, p):
    """The partition bound in mpmath's working precision, from exact cell intersections."""
    log_total = 0
    for lo, hi in p.cells():
        inter_mu = sum(mpmath.acos(max(a, lo)) - mpmath.acos(min(b, hi))
                       for a, b in e.intervals if max(a, lo) < min(b, hi))
        if inter_mu == 0:
            return mpmath.mpf(0)
        cell_mu = mpmath.acos(lo) - mpmath.acos(hi)
        log_total += 2 * cell_mu ** 2 / mpmath.pi ** 2 * mpmath.log(
            mpmath.sin(mpmath.pi * inter_mu / (2 * cell_mu)))
    return mpmath.exp(log_total) / 2


def test_partition_and_gap_division_match_scalar_oracles():
    rng = random.Random(103)
    for n in range(2, 9):
        for _ in range(10):
            e = random_unit_interval_union(rng, n)
            cuts = sorted(rng.uniform(-1.0, 1.0) for _ in range(rng.randint(0, 2 * n)))
            p = Partition((-1.0, *cuts, 1.0))
            want = partition_lower_loop(e, p)
            assert partition_lower(e, p) == pytest.approx(want, rel=1e-14, abs=0.0)
            d = GapPoints(tuple(rng.uniform(lo, hi) for lo, hi in e.gaps()))
            want = gap_division_lower_loop(e, d)
            assert gap_division_lower(e, d) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_partition_and_gap_division_zero_cases_match_scalar_oracles():
    e = make_interval_union([(-1.0, -0.5), (0.5, 1.0)])
    p = Partition((-1.0, -0.2, 0.2, 1.0))  # the middle cell misses e
    assert partition_lower(e, p) == partition_lower_loop(e, p) == 0.0
    # arccos does not resolve [0, 1e-300], so the scalar oracle's factor for
    # it is 0; its width taken from b - a keeps the bound positive
    e = make_interval_union([(-1.0, -0.5), (0.0, 1e-300), (0.6, 1.0)])
    d = GapPoints((-0.2, 0.3))
    assert gap_division_lower_loop(e, d) == 0.0
    with mpmath.workdps(400):
        want = float(gap_division_lower_mp(e, d))
    assert gap_division_lower(e, d) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_bound_formulas_raise_nothing_at_their_edges():
    """No math error escapes where a factor is 0 or a part of the set is thin.

    Each edge returns 0, or the value of an oracle: a partition point on
    a component end, a cell meeting the set in one point, a cell missing
    it, a sector with no arc in it, a component 1 ulp from -1 or 1, and
    a component 1e-300 wide.
    """
    e = make_interval_union([(-1.0, -0.5), (0.5, 1.0)])
    for pts, want in [((-1.0, -0.5, 0.7, 1.0), None), ((-1.0, -0.5, 0.5, 1.0), 0.0),
                      ((-1.0, -0.6, -0.5, 1.0), None), ((-1.0, -0.2, 0.2, 1.0), 0.0)]:
        p = Partition(pts)
        want = partition_lower_loop(e, p) if want is None else want
        assert partition_lower(e, p) == pytest.approx(want, rel=1e-14, abs=0.0), pts
    f = circle_preimage(make_interval_union([(0.5, 1.0)]))
    assert sector_product_lower(f, [math.pi / 2, math.pi, 2.5 * math.pi]) == 0.0
    one_ulp = 2.0 ** -53
    oracles = {"solynin_lower": partition_lower_mp, "partition_uniform_lower": partition_lower_mp,
               "gap_division_lower": gap_division_lower_mp}
    for pairs in ([(-1.0, -1.0 + one_ulp), (0.0, 0.5), (0.6, 1.0)],
                  [(-1.0, -0.5), (0.0, 0.5), (1.0 - one_ulp, 1.0)],
                  [(-1.0, -0.5), (1.0 - one_ulp, 1.0)],
                  [(-1.0, -0.5), (0.0, 1e-300), (0.6, 1.0)]):
        e = make_interval_union(pairs)
        reports = {r.name: r for r in all_bounds(e)}
        assert len(reports) == (10 if e.n == 2 else 6)
        for name, oracle in oracles.items():
            val, p = reports[name].value, reports[name].params
            if pairs[1][1] == 1e-300 and name == "solynin_lower":
                # the split point lies 1 ulp below the component's end, so
                # the angle pi mu / 2M of that part is subnormal, with 25
                # bits; the value is checked for sign alone
                assert val > 0.0
                continue
            with mpmath.workdps(400):
                want = float(oracle(e, p))
            assert val == pytest.approx(want, rel=1e-13, abs=0.0), (name, pairs)
    # a component ending 1 ulp inside -1 or 1, with the cell end on it
    e = make_interval_union([(-1.0 + one_ulp, -0.5), (0.5, 1.0 - one_ulp)])
    for pts in ((-1.0, 1.0), (-1.0, -1.0 + one_ulp, 0.0, 1.0 - one_ulp, 1.0)):
        p = Partition(pts)
        with mpmath.workdps(50):
            want = float(partition_lower_mp(e, p))
        assert partition_lower(e, p) == pytest.approx(want, rel=1e-14, abs=0.0), pts
    assert chebyshev_measure(e) > 0.0


def test_partition_matches_scalar_oracles_at_cuts_on_and_beside_endpoints():
    """The walk over cells and components agrees with the exact intersection.

    Each cut lies on a component end or one float outside or inside it.
    A cut one float inside leaves a part of the component 1 ulp wide in
    the next cell, whose arccos difference the loop oracle cannot
    resolve, so there the oracle is the 50-digit one.
    """
    rng = random.Random(127)
    for n in range(2, 9):
        for _ in range(10):
            e = random_unit_interval_union(rng, n)
            cuts, inside = [], False
            # b_1, a_2, b_2, ..., a_n: a component lies below a b and above an a
            for x, into in zip(e.endpoints()[1:-1], (-1.0, 1.0) * n):
                k = rng.randrange(4)
                if k < 3:
                    cuts.append((math.nextafter(x, -into), x, math.nextafter(x, into))[k])
                    inside |= k == 2
            p = Partition((-1.0, *cuts, 1.0))
            if inside:
                with mpmath.workdps(50):
                    want = float(partition_lower_mp(e, p))
            else:
                want = partition_lower_loop(e, p)
            assert partition_lower(e, p) == pytest.approx(want, rel=1e-14, abs=0.0), p.points


def test_partition_cell_a_few_ulp_inside_a_component_has_factor_one():
    # the cell's M is a width from hi - lo, like its mu, not a difference
    # of two arccos values, which reads 0 on a cell 1 ulp wide
    e = make_interval_union([(-1.0, -0.5), (0.2, 0.3), (0.5, 1.0)])
    hi = 0.25
    for _ in range(3):
        hi = math.nextafter(hi, 1.0)
        p = Partition((-1.0, 0.25, hi, 1.0))
        with mpmath.workdps(60):
            want = float(partition_lower_mp(e, p))
        assert partition_lower(e, p) == pytest.approx(want, rel=1e-14, abs=0.0), hi


@pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-12])
def test_gap_division_keeps_its_digits_on_a_thin_component(width):
    # mpmath keeps 40 digits beyond the log10(1/w) that acos(a) - acos(b) cancels
    rng = random.Random(113)
    for _ in range(30):
        pairs = list(random_unit_interval_union(rng, 3).intervals)
        a = rng.uniform(*pairs[1])
        pairs[1] = (a, a + width)
        e = make_interval_union(pairs)
        d = GapPoints(tuple(rng.uniform(lo, hi) for lo, hi in e.gaps()))
        with mpmath.workdps(40 + round(-math.log10(width))):
            want = float(gap_division_lower_mp(e, d))
        assert gap_division_lower(e, d) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_solynin_max_keeps_its_digits_beside_a_thin_component():
    # each cell's part of the set is measured from its width in t, so no
    # digits cancel between two arccos values of the thin component
    for width in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        e = make_interval_union([(-1.0, -0.6), (-0.3, -0.3 + width), (0.2, 1.0)])
        val, p = solynin_lower_max(e)
        with mpmath.workdps(50):
            want = float(partition_lower_mp(e, p))
        assert val == pytest.approx(want, rel=1e-13, abs=0.0), width
    # 4 ulp wide: arccos of its ends and of the split point collide
    b = -0.3
    for _ in range(4):
        b = math.nextafter(b, 1.0)
    val, p = solynin_lower_max(make_interval_union([(-1.0, -0.6), (-0.3, b), (0.2, 1.0)]))
    assert val > 0.0


def test_partition_bound_is_squared_symmetric_sector_product():
    # the cells of p and their mirror images are sectors of the circle
    # preimage, each carrying half the cell's exponent
    rng = random.Random(107)
    for n in range(2, 9):
        e = random_unit_interval_union(rng, n)
        p = uniform_measure_partition(n + 1)
        upper = [math.acos(t) for t in reversed(p.points)]
        angles = upper + [2.0 * math.pi - t for t in reversed(upper[:-1])]
        want = 0.5 * sector_product_lower(circle_preimage(e), angles) ** 2
        assert partition_lower(e, p) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_gap_division_symmetric_pair():
    e = sym_pair(0.5)
    assert gap_division_lower(e, GapPoints((0.0,))) == pytest.approx(SYM, abs=1e-13)


def test_gap_division_matches_direct_transcription():
    # the two formulations coincide for two intervals
    rng = random.Random(59)
    for _ in range(40):
        alpha = rng.uniform(-0.9, 0.7)
        beta = rng.uniform(alpha + 0.05, 0.9)
        delta = rng.uniform(alpha + 0.01 * (beta - alpha), beta - 0.01 * (beta - alpha))
        e = two_interval(alpha, beta)
        got = gap_division_lower(e, GapPoints((delta,)))
        want = eq2_direct(alpha, beta, delta)
        assert got == pytest.approx(want, rel=1e-12)


def test_gap_division_equality_on_canonical_sets():
    for l in (math.pi / 2, math.pi, 1.5 * math.pi):
        for n in (2, 3, 4):
            e = canonical_set(l, 2 * (n - 1))
            got = gap_division_lower(e, equality_gap_points(n))
            want = 0.5 * math.sin(l / 4) ** (1.0 / (n - 1))
            assert got == pytest.approx(want, abs=1e-13)


def test_gap_division_printed_equality_values_are_not_tight():
    # the cos(pi (n-k)/n) values quoted alongside the equality statement do
    # not attain it for three components; the bound stays strictly below
    e = canonical_set(math.pi, 4)
    printed = GapPoints(tuple(math.cos(math.pi * (3 - k) / 3) for k in (1, 2)))
    exact = 0.5 * math.sin(math.pi / 4) ** 0.5
    assert gap_division_lower(e, printed) < exact - 1e-3


def test_gap_division_validates_deltas():
    e = sym_pair(0.5)
    with pytest.raises(DomainError):
        gap_division_lower(e, GapPoints((0.7,)))
    with pytest.raises(DomainError):
        gap_division_lower(e, GapPoints((0.0, 0.1)))
    with pytest.raises(DomainError):
        gap_division_lower(make_interval_union([(-1, -0.5), (0.5, 0.9)]), GapPoints((0.0,)))


def test_gap_division_reflection_invariance():
    rng = random.Random(61)
    for _ in range(20):
        e = random_unit_interval_union(rng, 3)
        deltas = [rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)) for lo, hi in e.gaps()]
        mirrored = make_interval_union([(-b, -a) for a, b in e.intervals])
        m_deltas = tuple(sorted(-d for d in deltas))
        v1 = gap_division_lower(e, GapPoints(tuple(deltas)))
        v2 = gap_division_lower(mirrored, GapPoints(m_deltas))
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_gap_division_below_exact():
    rng = random.Random(67)
    for _ in range(20):
        e = random_unit_interval_union(rng, rng.choice([2, 3, 4]))
        exact = widom_capacity(e).value
        deltas = tuple(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
                       for lo, hi in e.gaps())
        assert gap_division_lower(e, GapPoints(deltas)) <= exact + SANDWICH_SLACK


def test_gap_division_max_symmetric_argmax():
    e = sym_pair(0.3)
    val, pts = gap_division_lower_max(e)
    assert abs(pts.deltas[0]) <= 1e-12
    assert val == pytest.approx(0.5 * math.sqrt(1 - 0.09), abs=1e-9)


def test_gap_division_max_beats_two_interval_bound():
    e = two_interval(-0.3, 0.5)
    val, _ = gap_division_lower_max(e)
    assert val >= schiefermayr_lower(-0.3, 0.5) - DOMINANCE_SLACK


def test_solynin_reduces_to_gap_division_for_two_intervals():
    rng = random.Random(71)
    for _ in range(20):
        alpha = rng.uniform(-0.8, 0.6)
        beta = rng.uniform(alpha + 0.1, 0.9)
        delta = 0.5 * (alpha + beta)
        e = two_interval(alpha, beta)
        v_sol = solynin_lower(e, GapPoints((delta,)))
        v_eq2 = eq2_direct(alpha, beta, delta)
        assert v_sol == pytest.approx(v_eq2, rel=1e-12)


def test_all_bounds_takes_solynin_at_the_gap_division_point_for_two_intervals():
    """At n = 2 one ascent serves both chain bounds: Solynin's is taken at gap division's point.

    The two bounds are one function of the gap point, so they agree to
    1e-15 relative there (claim (i) of the paper).
    """
    rng = random.Random(211)
    for _ in range(200):
        e = random_unit_interval_union(rng, 2)
        reports = {r.name: r for r in all_bounds(e)}
        gap, sol = reports["gap_division_lower"], reports["solynin_lower"]
        d = gap.params
        assert sol.params == Partition((-1.0, d.deltas[0], 1.0))
        assert sol.value == solynin_lower(e, d)
        assert gap.value == gap_division_lower(e, d)
        assert sol.value == pytest.approx(gap.value, rel=1e-15, abs=0.0)


def test_solynin_symmetric_equality():
    assert solynin_lower(sym_pair(0.5), GapPoints((0.0,))) == pytest.approx(SYM, abs=1e-13)


def test_solynin_never_beats_gap_division():
    rng = random.Random(73)
    for _ in range(30):
        e = random_unit_interval_union(rng, 3)
        deltas = GapPoints(tuple(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
                                 for lo, hi in e.gaps()))
        interior = [rng.uniform(a + 0.2 * (b - a), b - 0.2 * (b - a))
                    for a, b in e.intervals[1:-1]]
        assert gap_division_lower(e, deltas) >= solynin_lower(e, deltas, interior) - DOMINANCE_SLACK


def test_solynin_max_reaches_equality_on_symmetric_pair():
    val, pts = solynin_lower_max(sym_pair(0.5))
    assert val == pytest.approx(SYM, abs=1e-9)
    assert pts.points[0] == -1.0 and pts.points[-1] == 1.0


def test_solynin_validates_interior_points():
    e = make_interval_union([(-1, -0.6), (-0.1, 0.2), (0.5, 1)])
    with pytest.raises(DomainError):
        solynin_lower(e, GapPoints((-0.4, 0.4)), [0.9])  # outside middle component
    with pytest.raises(DomainError):
        solynin_lower(e, GapPoints((-0.4, 0.4)), [])  # missing interior point


# The generic chain link, the reference of the per-chain kernels of
# bounds._chain_eval: the link is _cell_log of its cell M = lo - hi with
# one mu = a lo + b hi + off per (a, b, off).

_REF_INFEASIBLE = (-math.inf, 0.0, 0.0, 0.0, 0.0, 0.0)


def _link_terms(mus, lo, hi):
    """(f, f_lo, f_hi, f_ll, f_lh, f_hh) of one link by the chain rule; f = -inf where a term is 0."""
    cell = lo - hi
    if not cell > 0.0:
        return _REF_INFEASIBLE
    cm = _C * cell
    f = f_lo = f_hi = f_ll = f_lh = f_hh = 0.0
    for a, b, off in mus:
        mu = a * lo + b * hi + off
        if not mu > 0.0:
            return _REF_INFEASIBLE
        u = _H * mu / cell
        s = math.sin(u)
        if not s > 0.0:
            return _REF_INFEASIBLE
        log_s = math.log(s)
        cot = math.cos(u) / s
        csc2 = 1.0 + cot * cot
        # the term's derivatives in M and mu
        g_m = cm * (2.0 * log_s - u * cot)
        g_u = _CH * cell * cot
        g_mm = _C * (2.0 * log_s - 2.0 * u * cot - u * u * csc2)
        g_mu = _CH * (cot + u * csc2)
        g_uu = _CHH * csc2
        f += cm * cell * log_s
        f_lo += g_m + a * g_u
        f_hi += -g_m + b * g_u
        f_ll += g_mm + 2.0 * a * g_mu + a * a * g_uu
        f_lh += -g_mm + (b - a) * g_mu + a * b * g_uu
        f_hh += g_mm - 2.0 * b * g_mu + b * b * g_uu
    r = 1.0 / len(mus)
    return f * r, f_lo * r, f_hi * r, f_ll * r, f_lh * r, f_hh * r


def _reference_links(chain):
    """The (a, b, off) descriptors of each link of a chain of bounds._chain_eval."""
    gap, consts = chain
    if gap:
        links = [((0.0, 0.0, w), (0.0, -2.0, c)) for w, c in consts]
        links[0] = ((0.0, 0.0, consts[0][0]), (0.0, 0.0, consts[0][1]))
        return links
    return [((0.0, -1.0, end),) if k % 2 else ((1.0, 0.0, -end),) for k, end in enumerate(consts)]


def _reference_chain_eval(links, x):
    """Chain sum, gradient, diagonal and off-diagonal of the Hessian from the generic links."""
    m = len(x) - 2
    total, grad, diag, off = 0.0, [0.0] * m, [0.0] * m, [0.0] * (m - 1)
    for k in range(m + 1):
        f, f_lo, f_hi, f_ll, f_lh, f_hh = _link_terms(links[k], x[k], x[k + 1])
        total += f
        if k:
            grad[k - 1] += f_lo
            diag[k - 1] += f_ll
        if k < m:
            grad[k] += f_hi
            diag[k] += f_hh
            if k:
                off[k - 1] = f_lh
    return total, grad, diag, off


@pytest.mark.parametrize("n", range(2, 13))
def test_chain_kernels_match_the_generic_link_formula_bit_for_bit(n):
    """Each chain's kernel gives the generic link formula's value, gradient and Hessian exactly.

    The points are the ascent's start, points drawn in the angle boxes,
    and decreasing angles drawn anywhere in (0, pi), most of which make a
    link 0 or negative: there both give -inf.
    """
    rng = random.Random(700 + n)
    infeasible = 0
    for _ in range(5):
        e = random_unit_interval_union(rng, n, min(0.05, 0.5 / (2 * n - 1)))
        for make_chain in (_gap_division_chain, _solynin_chain):
            chain, boxes, angle_boxes, start = make_chain(e)
            links = _reference_links(chain)
            points = [[math.pi, *map(math.acos, start), 0.0]]
            points += [[math.pi, *(rng.uniform(lo, hi) for lo, hi in angle_boxes), 0.0]
                       for _ in range(4)]
            points += [[math.pi, *sorted((rng.uniform(0.0, math.pi) for _ in boxes), reverse=True), 0.0]
                       for _ in range(8)]
            for x in points:
                want = _reference_chain_eval(links, x)
                got = _chain_eval(chain, x)
                assert want[0] == got[0]
                if want[0] == -math.inf:
                    infeasible += 1
                    assert got[1] is None
                else:
                    assert got == want
    assert infeasible > 0


def _brute_force_chain(tables):
    """Optimum and argmax of a chain sum by enumerating the whole product grid."""
    m = len(tables) - 1
    i = np.indices(tuple(t.shape[1] for t in tables[:-1]))
    total = tables[0][0, i[0]]
    for k in range(1, m):
        total = total + tables[k][i[k - 1], i[k]]
    total = total + tables[m][i[m - 1], 0]
    best = np.unravel_index(int(np.argmax(total)), total.shape)
    return total[best], [int(j) for j in best]


def _box_candidates(lo, hi, k):
    """k angles evenly spaced across the box, as t strictly inside it, or every float there.

    On a box a few ulp wide the evenly spaced angles round onto its ends,
    which are infeasible; the floats strictly inside it are enumerated
    instead.
    """
    inside = [math.nextafter(lo, hi)]
    while len(inside) <= k and math.nextafter(inside[-1], hi) < hi:
        inside.append(math.nextafter(inside[-1], hi))
    if len(inside) <= k:
        return inside
    a, b = math.acos(hi), math.acos(lo)
    return [t for t in (math.cos(a + (j + 0.5) * (b - a) / k) for j in range(k)) if lo < t < hi]


def _chain_test_set(rng, n, kind):
    """n intervals: random, mirror-symmetric, or with one or every gap a few ulp wide."""
    pts = random_unit_interval_union(rng, n).endpoints()
    if kind == "ties":
        half = [0.5 * (p + 1.0) for p in pts[n:]]
        pts = [-p for p in reversed(half)] + half
    thin = {"infeasible": [rng.randrange(n - 1)], "all_infeasible": range(n - 1)}.get(kind, [])
    for k in thin:
        a = pts[2 * k + 1]
        for _ in range(rng.randint(2, 5)):
            a = math.nextafter(a, 1.0)
        pts[2 * k + 2] = a
    return make_interval_union(list(zip(pts[::2], pts[1::2])))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["continuous", "ties", "infeasible", "all_infeasible"])
def test_chain_argmax_matches_exhaustive_enumeration(m, kind):
    """The Newton ascent of _chain_max is no lower than any point of a product grid.

    The chains are both optimizers' on m + 1 intervals.  The sum is
    concave in the arccos angles, so on wide boxes the ascent's angles
    also lie within two grid steps of the grid's best; on a
    mirror-symmetric set, where the grid's mirrored points tie, the
    ascent's points are symmetric.  Where a gap is a few ulp wide the
    grid takes every float in it, and the ascent must still move the
    other coordinates.
    """
    rng = random.Random(100 * m + len(kind))
    for _ in range(4):
        e = _chain_test_set(rng, m + 1, kind)
        for make_chain in (_gap_division_chain, _solynin_chain):
            chain, boxes, angle_boxes, start = make_chain(e)
            t = _chain_max(chain, boxes, angle_boxes, start)
            assert all(lo < ti < hi for ti, (lo, hi) in zip(t, boxes, strict=True))
            got = _chain_eval(chain, [math.pi, *map(math.acos, t), 0.0])[0]
            k = 33 if len(boxes) <= 3 else 11
            cands = [[math.pi]] + [_box_candidates(lo, hi, k) for lo, hi in boxes] + [[0.0]]
            cands[1:-1] = [list(map(math.acos, c)) for c in cands[1:-1]]
            # each link's value by the reference formula, which the kernels equal bit for bit
            tables = [np.array([[_link_terms(mus, lo, hi)[0] for hi in his] for lo in los])
                      for mus, los, his in zip(_reference_links(chain), cands, cands[1:])]
            want, idx = _brute_force_chain(tables)
            assert got >= want - 1e-14 * abs(want)
            if kind in ("continuous", "ties"):
                for x, c, j in zip(map(math.acos, t), cands[1:-1], idx, strict=True):
                    assert abs(x - c[j]) <= 2.0 * abs(c[-1] - c[0]) / (len(c) - 1)
            if kind == "ties":
                assert max(abs(a + b) for a, b in zip(t, reversed(t))) <= 1e-12


def test_chain_max_stops_where_newton_predicts_no_rise():
    """Each ascent returns a point where Newton's predicted rise is within _NEWTON_TOL of the sum.

    A stop guessed from the shrinking of earlier rises returned, on 2 of
    these 2200 ascents (n = 11 and 12), points where Newton still
    predicted a rise of 1.0e-15 and 1.8e-15 of the sum.  An ascent whose
    last step predicts at most _LAST_RISE of the sum returns that step's
    points unevaluated; here they are evaluated, and the stop holds.
    """
    rng = random.Random(23)
    for n in range(2, 13):
        for _ in range(100):
            e = random_unit_interval_union(rng, n, min(0.05, 0.5 / (2 * n - 1)))
            for make_chain in (_gap_division_chain, _solynin_chain):
                chain, boxes, angle_boxes, start = make_chain(e)
                x = list(map(math.acos, _chain_max(chain, boxes, angle_boxes, start)))
                total, grad, diag, off = _chain_eval(chain, [math.pi, *x, 0.0])
                newton = _newton_step(grad, diag, off, x, angle_boxes)
                assert newton is None or newton[1] <= _NEWTON_TOL * abs(total)


def _full_rise(grad, diag, off, d):
    """The quadratic model's rise g.d + 1/2 d.H.d of a step d, in the order of bounds._newton_step."""
    g_d = h_dd = o_dd = 0.0
    for g, h, di in zip(grad, diag, d):
        g_d += g * di
        h_dd += h * di * di
    for o, di, dj in zip(off, d, d[1:]):
        o_dd += o * di * dj
    return g_d + 0.5 * (h_dd + 2.0 * o_dd)


@pytest.mark.parametrize("make_chain", [_gap_division_chain, _solynin_chain])
def test_newton_step_takes_the_interior_rise_in_one_pass(make_chain):
    """Where no coordinate is held the rise is 1/2 g.d, the full model g.d + 1/2 d.H.d.

    There d solves H d = -g, so the two differ only by the rounding of
    the solve: within a few ulp of the sum (at most 3 on these points).
    Where a coordinate is held, the step returns the full form itself.
    Whether one is held is decided here from the unheld step: a
    coordinate that it takes out of its box in the direction of its
    gradient.  The points are the start and points drawn in the angle
    boxes, each coordinate anywhere in its box or within 1% of an end,
    on sets whose shortest piece is as in ``verify`` or 1e-4, so that
    some steps of both chains hold a coordinate.
    """
    rng = random.Random(5)
    interior = held = 0
    for n in range(2, 13):
        for e in [random_unit_interval_union(rng, n, min_seg)
                  for min_seg in (min(0.05, 0.5 / (2 * n - 1)), 1e-4) for _ in range(10)]:
            chain, boxes, angle_boxes, start = make_chain(e)
            points = [list(map(math.acos, start))]
            points += [[lo + (hi - lo) * rng.choice((u, 0.01 * u, 1.0 - 0.01 * u))
                        for lo, hi in angle_boxes for u in [rng.random()]] for _ in range(4)]
            for x in points:
                total, grad, diag, off = _chain_eval(chain, [math.pi, *x, 0.0])
                d, rise, free = _newton_step(grad, diag, off, x, angle_boxes)
                step = _tridiag_solve(diag, off, grad)
                holds = any(not lo < xi + di < hi and (g > 0.0) == (di > 0.0)
                            for xi, di, g, (lo, hi) in zip(x, step, grad, angle_boxes))
                assert free is not holds
                if free:
                    interior += 1
                    assert d == step
                    assert abs(rise - _full_rise(grad, diag, off, d)) <= 8.0 * math.ulp(total)
                else:
                    held += 1
                    assert rise == _full_rise(grad, diag, off, d)
    assert interior > 0 and held > 0


def _reference_chain_max(chain, boxes, angle_boxes, t):
    """bounds._chain_max evaluating every trial point, its last step's too: (t, chain evaluations).

    Each step's rise is the full model g.d + 1/2 d.H.d, and the ascent
    stops only at an evaluated point whose predicted rise is at most
    _NEWTON_TOL of the sum, or where no halving rises.
    """
    x = list(map(math.acos, t))
    total, grad, diag, off = _chain_eval(chain, [math.pi, *x, 0.0])
    evals = 1
    if grad is None:
        return t, evals
    for _ in range(_NEWTON_STEPS):
        newton = _newton_step(grad, diag, off, x, angle_boxes)
        if newton is None or not _full_rise(grad, diag, off, newton[0]) > _NEWTON_TOL * abs(total):
            break
        d, step = newton[0], 1.0
        for _ in range(_HALVINGS + 1):
            x_new = [xi + step * di for xi, di in zip(x, d)]
            t_new = list(map(math.cos, x_new))
            if not all(lo < ti < hi for ti, (lo, hi) in zip(t_new, boxes)):
                _to_edge(x, d, boxes, angle_boxes, x_new, t_new)
            trial = _chain_eval(chain, [math.pi, *x_new, 0.0])
            evals += 1
            if trial[0] > total:
                break
            step *= 0.5
        else:
            break
        x, t = x_new, t_new
        total, grad, diag, off = trial
    return t, evals


def _ascent_pool():
    """1735 unit-hull sets: 1620 seeded random ones, n = 2..16 at three shortest pieces, and canonical sets."""
    sets = []
    for seed in range(6):
        rng = random.Random(seed)
        for n in range(2, 17):
            for min_seg in (0.05, min(0.05, 0.5 / (2 * n - 1)), 1e-4):
                sets += [random_unit_interval_union(rng, n, min_seg) for _ in range(6)]
    for l in (0.1, 0.3, 1.0, math.pi, 5.5):
        sets += [normalize_to_unit(canonical_set(l, arcs))[0] for arcs in range(2, 25)]
    return sets


def test_optimizers_match_an_ascent_that_evaluates_every_step(monkeypatch):
    """An ascent's unevaluated last step moves no optimized bound, and saves evaluations.

    On every set of the pool, each optimizer's value is bit for bit the
    public bound at the points of :func:`_reference_chain_max`, with no
    more chain evaluations.  In all they make 14722 where the reference
    makes 15944.
    """
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _chain_eval(*args)

    monkeypatch.setattr(bounds_module, "_chain_eval", counted)
    total = reference = 0
    for e in _ascent_pool():
        t, evals = _reference_chain_max(*_gap_division_chain(e))
        calls = 0
        assert gap_division_lower_max(e)[0] == gap_division_lower(e, GapPoints(tuple(t)))
        assert calls <= evals
        total, reference = total + calls, reference + evals
        t, evals = _reference_chain_max(*_solynin_chain(e))
        calls = 0
        assert solynin_lower_max(e)[0] == solynin_lower(e, GapPoints(tuple(t[::2])), t[1::2])
        assert calls <= evals
        total, reference = total + calls, reference + evals
    assert total <= 0.93 * reference


def _reaches_closed_form(optimizer, l, n):
    """The optimized bound equals the capacity 1/2 sin(l/4)^(2/arcs) of canonical_set(l, arcs)."""
    e = canonical_set(l, 2 * (n - 1))
    assert e.n == n
    want = 0.5 * math.sin(l / 4.0) ** (1.0 / (n - 1))
    assert optimizer(e)[0] == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("l", [0.3, math.pi / 2.0, math.pi, 1.5 * math.pi, 5.5])
@pytest.mark.parametrize("n", range(3, 17))
def test_gap_division_max_reaches_equality_on_canonical_sets(l, n):
    _reaches_closed_form(gap_division_lower_max, l, n)


@pytest.mark.parametrize("l", [0.3, math.pi / 2.0, math.pi, 1.5 * math.pi, 5.5])
@pytest.mark.parametrize("n", range(3, 17))
def test_solynin_max_reaches_equality_on_canonical_sets(l, n):
    _reaches_closed_form(solynin_lower_max, l, n)


def test_gap_division_max_dominates_solynin_max():
    rng = random.Random(89)
    for n in range(2, 7):
        for _ in range(4):
            e = random_unit_interval_union(rng, n)
            assert gap_division_lower_max(e)[0] >= solynin_lower_max(e)[0] - DOMINANCE_SLACK


def test_optimized_values_match_public_bounds_at_their_points():
    rng = random.Random(97)
    for n in range(2, 7):
        e = random_unit_interval_union(rng, n)
        val, d = gap_division_lower_max(e)
        assert val == gap_division_lower(e, d)
        val, p = solynin_lower_max(e)
        free = p.points[1:-1]
        assert len(free) == 2 * n - 3
        assert val == solynin_lower(e, GapPoints(free[0::2]), free[1::2])


def test_gap_division_max_returns_the_public_bound_at_its_points():
    """The optimizer's value comes from its own chain links, and equals the public bound."""
    rng = random.Random(103)
    sets = _hard_sets()
    for n in range(2, 13):
        sets += [random_unit_interval_union(rng, n, min_seg) for min_seg in (0.05, 0.5 / (2 * n - 1))]
    for e in sets:
        val, d = gap_division_lower_max(e)
        assert val == gap_division_lower(e, d)


def test_all_bounds_chain_evaluations_stay_few(monkeypatch):
    """The Solynin start, one ascent at n = 2 and an unevaluated last step keep the chain evaluations few.

    On these 70 sets a climb of both optimizers from the box centres made
    640 evaluations, and with the Solynin start 584; with one ascent for
    both bounds at n = 2 they made 557, and without the evaluation that
    only confirms a converged step they make 505.
    """
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _chain_eval(*args)

    monkeypatch.setattr(bounds_module, "_chain_eval", counted)
    rng = random.Random(0)
    for n in range(2, 9):
        for _ in range(10):
            all_bounds(random_unit_interval_union(rng, n))
    assert calls <= 505


@pytest.mark.parametrize("optimizer", [solynin_lower_max, gap_division_lower_max])
def test_optimizers_reject_single_interval_and_non_unit_hull(optimizer):
    with pytest.raises(DomainError):
        optimizer(make_interval_union([(-1.0, 1.0)]))
    with pytest.raises(DomainError):
        optimizer(make_interval_union([(-0.9, -0.2), (0.1, 1.0)]))


def test_gap_division_optimum_stays_inside_a_gap_a_few_ulp_wide():
    # the gap is 4 ulp wide: the centre of its angle box can round onto one of its ends
    e = make_interval_union([(-1.0, -0.5), (-0.49999999999999956, 1.0)])
    val, d = gap_division_lower_max(e)
    assert -0.5 < d.deltas[0] < -0.49999999999999956
    assert val == gap_division_lower(e, d) == 0.5
    # a gap 1 ulp wide has no interior float
    e = make_interval_union([(-1.0, -0.5), (math.nextafter(-0.5, 1.0), 1.0)])
    with pytest.raises(DomainError, match="outside open gap"):
        gap_division_lower_max(e)


def test_solynin_split_point_stays_inside_a_component_a_few_ulp_wide():
    a = -0.3
    b = math.nextafter(math.nextafter(math.nextafter(math.nextafter(a, 1.0), 1.0), 1.0), 1.0)
    e = make_interval_union([(-1.0, -0.6), (a, b), (0.2, 1.0)])
    val, p = solynin_lower_max(e)
    free = p.points[1:-1]
    assert a < free[1] < b
    assert val == solynin_lower(e, GapPoints(free[0::2]), free[1::2])


def test_solynin_optimizer_raises_where_a_box_is_1_ulp_wide():
    # no float lies strictly inside the gap, or the middle component, so
    # the optimizer raises as solynin_lower does instead of returning an end
    e = make_interval_union([(-1.0, -0.5), (math.nextafter(-0.5, 1.0), 1.0)])
    with pytest.raises(DomainError, match="outside open gap"):
        solynin_lower(e, GapPoints((-0.5,)))
    with pytest.raises(DomainError, match="outside open gap"):
        solynin_lower_max(e)
    e = make_interval_union([(-1.0, -0.6), (-0.3, math.nextafter(-0.3, 1.0)), (0.2, 1.0)])
    with pytest.raises(DomainError, match="outside component"):
        solynin_lower(e, GapPoints((-0.45, 0.0)), (-0.3,))
    with pytest.raises(DomainError, match="outside component"):
        solynin_lower_max(e)


def test_solynin_optimizer_raises_where_both_gaps_beside_a_split_point_are_1_ulp_wide():
    # the angle of each gap's start rounds onto that of the component's end,
    # so the small-gap start of the split point has no gap on either side
    a, b = 0.1, 0.3
    e = make_interval_union([(-1.0, math.nextafter(a, -1.0)), (a, b), (math.nextafter(b, 1.0), 1.0)])
    with pytest.raises(DomainError, match="outside open gap"):
        solynin_lower_max(e)


def _link_geometry(rng, edge):
    """Angles lo > end > hi of one link, with lo (edge 1) or hi (edge 2) within 1e-6 of end."""
    end = rng.uniform(0.6, 2.4)
    above = 1e-6 * rng.random() if edge == 1 else rng.uniform(0.05, 0.7)
    below = 1e-6 * rng.random() if edge == 2 else rng.uniform(0.05, 0.5)
    return end + above, end, end - below


def _mp_link(chain, k, x, parts):
    """Link k of ``chain`` at the mpmath angles x, from the bound's own factor.

    A Solynin link is the cell term 2 M^2 / pi^2 log sin(pi mu / (2 M)); a
    gap-division link is M^2 / pi^2 log phi with phi = (cos(pi (th_b - hi) / M)
    - cos(pi (th_a - hi) / M)) / 2 for the component [th_b, th_a] = parts[k].
    """
    lo, hi = x[k], x[k + 1]
    span = lo - hi
    if chain[0]:
        th_b, th_a = map(mpmath.mpf, parts[k])
        phi = (mpmath.cos(mpmath.pi * (th_b - hi) / span)
               - mpmath.cos(mpmath.pi * (th_a - hi) / span)) / 2
        return span ** 2 / mpmath.pi ** 2 * mpmath.log(phi)
    end = mpmath.mpf(chain[1][k])
    mu = end - hi if k % 2 else lo - end
    return 2 / mpmath.pi ** 2 * span ** 2 * mpmath.log(mpmath.sin(mpmath.pi * mu / (2 * span)))


def _derivative_chain(rng, kind, edge):
    """A chain of four links whose link j has the geometry of :func:`_link_geometry`.

    j is the even link 2 of a Solynin chain, its odd link 1, or link 1 of
    a gap-division chain; the other links' mu's sit in the middle of their
    cells.  Returns the chain, its angles x_0 > ... > x_4, j and, for
    gap division, each link's component [th_b, th_a].
    """
    lo, end, hi = _link_geometry(rng, edge)
    if kind == "gap":
        # the component [th_b, th_a] lies inside the cell [hi, lo]
        th_b, th_a = end, end + rng.uniform(0.01, 0.5)
        lo += th_a - th_b
        x = [lo + 0.5, lo, hi, hi - 0.5, hi - 1.0]
        parts = [(lo + 0.1, lo + 0.3), (th_b, th_a), (hi - 0.4, hi - 0.2), (hi - 0.9, hi - 0.7)]
        consts = [(th_a - th_b, th_a + th_b) for th_b, th_a in parts]
        # the first link's second mu is the mirror 2 M - mu, constant in x_1
        consts[0] = (consts[0][0], 2.0 * x[0] - parts[0][1] - parts[0][0])
        return (True, consts), x, 1, parts
    if kind == "even":
        x = [lo + 0.8, lo + 0.4, lo, hi, hi - 0.4]
        ends = [lo + 0.6, lo + 0.2, end, hi - 0.2]
        return (False, ends), x, 2, None
    x = [lo + 0.4, lo, hi, hi - 0.4, hi - 0.8]
    ends = [lo + 0.2, end, hi - 0.2, hi - 0.6]
    return (False, ends), x, 1, None


@pytest.mark.parametrize("kind", ["even", "odd", "gap"])
def test_chain_link_derivatives_match_mpmath(kind):
    """Closed-form value, gradient and Hessian of one link against 40-digit mpmath.diff.

    The link is the generic formula :func:`_link_terms`, which the chain
    kernels equal bit for bit.  Near an edge a term of a factor close to 1 rounds to an absolute
    epsilon in the log, so the value is compared against span^2 and the
    gradient against span at 1e-14, besides their own size; the Hessian
    is compared against its largest entry.
    """
    orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    rng = random.Random({"even": 11, "odd": 12, "gap": 13}[kind])
    for trial in range(12):
        lo, end, hi = _link_geometry(rng, trial % 3)
        if kind == "gap":
            # the component [th_b, th_a] lies inside the cell [hi, lo]
            th_b, th_a = end, end + rng.uniform(0.01, 0.5)
            lo += th_a - th_b
            got = _link_terms(((0.0, 0.0, th_a - th_b), (0.0, -2.0, th_a + th_b)), lo, hi)
            want_np = float(_cell_log(np.float64(lo - hi), np.float64(th_a - th_b),
                                      np.float64(th_a + th_b - 2.0 * hi)))

            def f(x, y, th_a=mpmath.mpf(th_a), th_b=mpmath.mpf(th_b)):
                span = x - y
                phi = (mpmath.cos(mpmath.pi * (th_b - y) / span)
                       - mpmath.cos(mpmath.pi * (th_a - y) / span)) / 2
                return span ** 2 / mpmath.pi ** 2 * mpmath.log(phi)
        else:
            even = kind == "even"
            got = _link_terms(((1.0, 0.0, -end),) if even else ((0.0, -1.0, end),), lo, hi)
            want_np = float(_cell_log(np.float64(lo - hi), np.float64(lo - end if even else end - hi)))

            def f(x, y, even=even, end=mpmath.mpf(end)):
                mu = x - end if even else end - y
                u = mpmath.pi * mu / (2 * (x - y))
                return 2 / mpmath.pi ** 2 * (x - y) ** 2 * mpmath.log(mpmath.sin(u))
        with mpmath.workdps(40):
            want = [float(mpmath.diff(f, (mpmath.mpf(lo), mpmath.mpf(hi)), o)) for o in orders]
        span = lo - hi
        assert abs(got[0] - want_np) <= 4 * np.finfo(float).eps * abs(want_np)
        assert abs(got[0] - want[0]) <= 1e-12 * (abs(want[0]) + span * span)
        scale = max(map(abs, want[1:3]))
        assert max(abs(g - w) for g, w in zip(got[1:3], want[1:3])) <= 1e-10 * scale + 1e-14 * span
        scale = max(map(abs, want[3:]))
        assert max(abs(g - w) for g, w in zip(got[3:], want[3:])) <= 1e-10 * scale


@pytest.mark.parametrize("kind", ["even", "odd", "gap"])
def test_chain_eval_derivatives_match_mpmath(kind):
    """Closed-form value, gradient and Hessian of a chain against 40-digit mpmath.diff.

    The chain has four links and three free angles, and the link under
    test lies near an edge of its cell.  There a term of a factor close
    to 1 rounds to an absolute epsilon in the log, so the value is
    compared against span^2 and the gradient against span at 1e-14,
    besides their own size, where span is that link's cell; the Hessian
    is compared against its largest entry.
    """
    firsts = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    seconds = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1))
    rng = random.Random({"even": 11, "odd": 12, "gap": 13}[kind])
    for trial in range(12):
        chain, x, j, parts = _derivative_chain(rng, kind, trial % 3)
        total, grad, diag, off = _chain_eval(chain, x)
        want_np = 0.0
        for k, (lo, hi) in enumerate(zip(x, x[1:])):
            if chain[0]:
                w, c = chain[1][k]
                mus = (w, c - 2.0 * hi if k else c)
            else:
                end = chain[1][k]
                mus = (end - hi if k % 2 else lo - end,)
            want_np += float(_cell_log(np.float64(lo - hi), *map(np.float64, mus)))

        def f(x1, x2, x3):
            xs = [mpmath.mpf(x[0]), x1, x2, x3, mpmath.mpf(x[4])]
            return sum(_mp_link(chain, k, xs, parts) for k in range(4))

        with mpmath.workdps(40):
            at = tuple(map(mpmath.mpf, x[1:4]))
            want = float(f(*at))
            want_grad = [float(mpmath.diff(f, at, o)) for o in firsts]
            want_hess = [float(mpmath.diff(f, at, o)) for o in seconds]
        span = x[j] - x[j + 1]
        assert abs(total - want_np) <= 4 * np.finfo(float).eps * abs(want_np)
        assert abs(total - want) <= 1e-12 * (abs(want) + span * span)
        scale = max(map(abs, want_grad))
        assert max(abs(g - w) for g, w in zip(grad, want_grad)) <= 1e-10 * scale + 1e-14 * span
        scale = max(map(abs, want_hess))
        assert max(abs(g - w) for g, w in zip(diag + off, want_hess)) <= 1e-10 * scale


def _optimizer_problem(e, optimizer):
    """The optimizer's value and points, the boxes of those points, and the public bound at t."""
    if optimizer is solynin_lower_max:
        val, p = optimizer(e)
        boxes = _solynin_chain(e)[1]
        return val, p.points[1:-1], boxes, lambda t: partition_lower(e, Partition((-1.0, *t, 1.0)))
    val, d = optimizer(e)
    return val, d.deltas, e.gaps(), lambda t: gap_division_lower(e, GapPoints(tuple(t)))


# of the first 300 three-interval sets that random_unit_interval_union draws from
# random.Random(3), the one on which the former three-round grid refinement stalled
# furthest below Solynin's optimum, by 1.0e-5
STALLED_SET = [(-1.0, -0.8810244639358251), (-0.11142871970137391, 0.036664952430284115),
               (0.10758085679925139, 1.0)]


@pytest.mark.parametrize("optimizer", [solynin_lower_max, gap_division_lower_max])
def test_optimizers_return_local_maxima(optimizer):
    """L-BFGS-B in the arccos angle boxes cannot raise either optimized bound."""
    rng = random.Random(101)
    sets = [make_interval_union(STALLED_SET)]
    for n in range(2, 13):
        sets += [random_unit_interval_union(rng, n, min_seg) for min_seg in (0.05, 0.5 / (2 * n - 1))]
    for e in sets:
        val, t, boxes, public = _optimizer_problem(e, optimizer)

        def neg_log(x):
            t = np.cos(x).tolist()
            if not all(lo < ti < hi for ti, (lo, hi) in zip(t, boxes)):
                return 1e3
            v = public(t)
            return -math.log(v) if v > 0.0 else 1e3

        res = minimize(neg_log, np.arccos(t), method="L-BFGS-B", jac="3-point",
                       bounds=[(math.acos(hi) + 1e-12, math.acos(lo) - 1e-12) for lo, hi in boxes],
                       options={"ftol": 1e-15, "gtol": 1e-12})
        assert math.exp(-res.fun) <= val * (1.0 + 1e-12)


# three sets on which the Newton ascent of solynin_lower_max stopped short
# while it held every coordinate whose step left its box: L-BFGS-B, run as
# above, raised it by 2.3e-4, 3.5e-5 and 9.4e-6 relative; holding only a
# step that leaves in the direction of its gradient reaches the last two;
# on the first, a climb from the box centres that put a trial point on the
# float next to its box end still spent all 30 steps at 0.448024, and
# either the start at each split point's small-gap optimum or a trial that
# stops short of the end reaches 0.448127; gap_division_lower_max is a
# local maximum on all three
SOLYNIN_SHORT_SETS = [
    [(-1.0, -0.993475), (-0.80172, -0.694607), (-0.547577, -0.381191), (-0.174204, -0.162129),
     (-0.040587, 0.201589), (0.362609, 0.47974), (0.577006, 0.660432), (0.678002, 0.696589),
     (0.955077, 1.0)],
    [(-1.0, -0.752838), (-0.595397, -0.464106), (-0.266066, 0.04336), (0.318534, 0.48113),
     (0.495887, 0.65258), (0.96863, 1.0)],
    [(-1.0, -0.808927), (-0.800297, -0.726007), (0.038447, 1.0)],
]


@pytest.mark.parametrize("k, optimizer", [
    *((k, solynin_lower_max) for k in range(len(SOLYNIN_SHORT_SETS))),
    *((k, gap_division_lower_max) for k in range(len(SOLYNIN_SHORT_SETS))),
])
def test_optimizers_reach_the_maximum_where_solynin_stops_short(k, optimizer):
    e = make_interval_union(SOLYNIN_SHORT_SETS[k])
    val, t, boxes, public = _optimizer_problem(e, optimizer)

    def neg_log(x):
        t = np.cos(x).tolist()
        if not all(lo < ti < hi for ti, (lo, hi) in zip(t, boxes)):
            return 1e3
        v = public(t)
        return -math.log(v) if v > 0.0 else 1e3

    res = minimize(neg_log, np.arccos(t), method="L-BFGS-B", jac="3-point",
                   bounds=[(math.acos(hi) + 1e-12, math.acos(lo) - 1e-12) for lo, hi in boxes],
                   options={"ftol": 1e-15, "gtol": 1e-12})
    assert math.exp(-res.fun) <= val * (1.0 + 1e-12)


# two sets with an interior component about 1e-8 wide, on which the first
# Newton step from the small-gap start carried the split point of a wider
# component past its end; put on the float next to that end, beside the log
# singularity of its cell term, it spent all 30 steps doubling its distance
# from the end and stopped 0.37% and 0.95% below the maximum
CLIPPED_SETS = [
    [(-1.0, -0.8705979627435327), (-0.4208045152629978, -0.42080450634643934),
     (0.1214080630375039, 0.5321998448468155), (0.7130503183970479, 1.0)],
    [(-1.0, -0.8691153252572474), (-0.732162213965798, -0.5968615023042163),
     (-0.2596011522137198, -0.25960115120788413), (0.20858637066578706, 0.2740572820400731),
     (0.6637290408538901, 1.0)],
]


@pytest.mark.parametrize("k", range(len(CLIPPED_SETS)))
def test_solynin_reaches_the_maximum_where_a_step_leaves_a_box(k):
    e = make_interval_union(CLIPPED_SETS[k])
    val, t, boxes, public = _optimizer_problem(e, solynin_lower_max)

    def neg_log(x):
        t = np.cos(x).tolist()
        if not all(lo < ti < hi for ti, (lo, hi) in zip(t, boxes)):
            return 1e3
        v = public(t)
        return -math.log(v) if v > 0.0 else 1e3

    res = minimize(neg_log, np.arccos(t), method="L-BFGS-B", jac="3-point",
                   bounds=[(math.acos(hi) + 1e-12, math.acos(lo) - 1e-12) for lo, hi in boxes],
                   options={"ftol": 1e-15, "gtol": 1e-12})
    assert math.exp(-res.fun) <= val * (1.0 + 1e-12)


def _hard_sets():
    """Near-full canonical sets, sets with a component of width 1e-9 or less, and n = 16."""
    sets = [canonical_set(2.0 * math.pi - delta, arcs)
            for delta in (1e-3, 1e-5, 1e-7) for arcs in (4, 8, 14)]
    rng = random.Random(107)
    for n in (3, 5, 8):
        for _ in range(2):
            pairs = list(random_unit_interval_union(rng, n).intervals)
            k = rng.randrange(1, n - 1)
            a = rng.uniform(*pairs[k])
            pairs[k] = (a, a + 1e-9)
            sets.append(make_interval_union(pairs))
    sets += [random_unit_interval_union(rng, 16, 0.5 / 31) for _ in range(2)]
    # a component 63 ulp wide: t = cos(x) and arccos(t) move its split point by
    # a large share of its width
    sets.append(make_interval_union([
        (-1.0, -0.8691053601385033), (-0.7022330373106636, -0.702233037135044),
        (-0.20931030012916224, -0.2093103001291605), (-0.037535230452002515, 0.14638171064444938),
        (0.4027234923709578, 0.6436021092002506), (0.9035241103623934, 1.0)]))
    return sets


# the bound on each of _hard_sets(), to 50 digits, at the points that a
# 33-candidate grid search followed by Newton steps returned; its own float
# values were off by up to 9.6e-4 on the thin components
HARD_SET_VALUES = {
    solynin_lower_max: [
        0.49999999218749996, 0.49999999609374995, 0.49999999776785714, 0.49999999999921874,
        0.49999999999960937, 0.4999999999997768, 0.49999999999999994, 0.49999999999999994,
        0.5, 0.32647177012908374, 0.3583641872408692, 0.40202359098270807,
        0.42723566690734077, 0.46946522895148635, 0.4713844290466929, 0.49041564149493533,
        0.4908790292669844, 0.20627485572269622],
    gap_division_lower_max: [
        0.49999999218749996, 0.49999999609374995, 0.49999999776785714, 0.49999999999921874,
        0.49999999999960937, 0.4999999999997768, 0.49999999999999994, 0.49999999999999994,
        0.5, 0.33156055996705, 0.35906952325219404, 0.40483058940706973,
        0.42893746341058214, 0.4703286385313548, 0.4717562776090446, 0.4904722300728277,
        0.490947983761821, 0.29185040380243316],
}

# the public bound on each of _hard_sets() at the optimum of that grid
# search alone, before any Newton step
FIRST_GRID_VALUES = {
    solynin_lower_max: [
        0.49999999218749996, 0.49999999609374995, 0.49999999776785714, 0.49999999999921874,
        0.49999999999960937, 0.4999999999997768, 0.49999999999999994, 0.49999999999999994,
        0.5, 0.3264054276085935, 0.35821271654686915, 0.40197246189728075,
        0.42722083192053245, 0.46945311123981587, 0.47137332222933936, 0.4904133521818176,
        0.49087461962473683, 0.20647384756891146],
    gap_division_lower_max: [
        0.49999999218749996, 0.49999999609374995, 0.49999999776785714, 0.49999999999921874,
        0.49999999999960937, 0.4999999999997768, 0.49999999999999994, 0.49999999999999994,
        0.5, 0.33120570609791206, 0.359003347019257, 0.40467889797710305,
        0.42889659646647355, 0.4703068575131784, 0.47173811889734446, 0.49047057785808057,
        0.49094489673060887, 0.2916755404207999],
}


@pytest.mark.parametrize("optimizer, chain", [(solynin_lower_max, _solynin_chain),
                                              (gap_division_lower_max, _gap_division_chain)])
def test_optimizers_never_fall_below_the_first_grid(optimizer, chain):
    """Neither the former grid's optimum nor its refinement is lost, to 1e-15, in open boxes."""
    for e, grid, refined in zip(_hard_sets(), FIRST_GRID_VALUES[optimizer],
                                HARD_SET_VALUES[optimizer], strict=True):
        val, t, _, _ = _optimizer_problem(e, optimizer)
        assert val >= max(grid, refined) * (1.0 - 1e-15), e.intervals
        assert all(lo < ti < hi for ti, (lo, hi) in zip(t, chain(e)[1], strict=True))


def test_projection_upper_values():
    for g in (0.2, 0.5, 0.8):
        assert projection_upper(sym_pair(g)) == pytest.approx(0.5 * math.sqrt(1 - g * g), abs=1e-13)
    e = canonical_set(math.pi, 4)
    assert projection_upper(e) == pytest.approx(0.5 * (math.sqrt(2) / 2) ** 0.5, abs=1e-13)
    assert projection_upper(e) == pytest.approx(0.420448207626857, abs=1e-12)


def test_projection_upper_dominates_exact():
    rng = random.Random(79)
    for _ in range(20):
        e = random_unit_interval_union(rng, 3)
        assert projection_upper(e) >= widom_capacity(e).value - SANDWICH_SLACK


def test_projection_upper_from_arc_maximum():
    # composing the circle maximum with the projection identity reproduces
    # the closed form: 0.5 * haliste(l, 2(n-1))^2 == projection bound on the
    # canonical sets
    for l in (1.0, math.pi, 5.0):
        for n in (2, 3, 4):
            e = canonical_set(l, 2 * (n - 1))
            got = 0.5 * haliste_arcs_capacity(l, 2 * (n - 1)) ** 2
            assert got == pytest.approx(projection_upper(e), abs=1e-12)


def test_all_bounds_single_interval_only_classical():
    reports = all_bounds(make_interval_union([(-1, 1)]))
    assert [r.name for r in reports] == ["classical_lower", "classical_upper"]


def test_all_bounds_two_interval_names():
    names = [r.name for r in all_bounds(sym_pair(0.5))]
    assert names == [
        "classical_lower",
        "schiefermayr_lower",
        "solynin_lower",
        "partition_uniform_lower",
        "gap_division_lower",
        "classical_upper",
        "polarization_upper",
        "gillis_upper",
        "schiefermayr_upper",
        "projection_upper",
    ]


def test_all_bounds_three_intervals_excludes_two_interval_bounds():
    e = make_interval_union([(-1, -0.6), (-0.1, 0.2), (0.5, 1)])
    names = {r.name for r in all_bounds(e)}
    assert "schiefermayr_lower" not in names
    assert "polarization_upper" not in names
    assert "gillis_upper" not in names
    assert "schiefermayr_upper" not in names
    assert {"solynin_lower", "partition_uniform_lower", "gap_division_lower",
            "projection_upper"} <= names


def test_all_bounds_leaves_out_optimized_bounds_without_an_interior_float():
    # a gap 1 ulp wide holds no division point, and a component 1 ulp wide
    # no Solynin split point; every other bound is still reported
    e = make_interval_union([(-1.0, -0.5), (math.nextafter(-0.5, 1.0), 1.0)])
    assert [r.name for r in all_bounds(e)] == [
        "classical_lower",
        "schiefermayr_lower",
        "partition_uniform_lower",
        "classical_upper",
        "polarization_upper",
        "gillis_upper",
        "schiefermayr_upper",
        "projection_upper",
    ]
    e = make_interval_union([(-1.0, -0.6), (-0.3, math.nextafter(-0.3, 1.0)), (0.2, 1.0)])
    assert [r.name for r in all_bounds(e)] == [
        "classical_lower",
        "partition_uniform_lower",
        "gap_division_lower",
        "classical_upper",
        "projection_upper",
    ]


def test_all_bounds_equality_collapse_on_symmetric_set():
    reports = {r.name: r.value for r in all_bounds(sym_pair(0.5))}
    for name in ("schiefermayr_lower", "solynin_lower", "partition_uniform_lower",
                 "gap_division_lower", "polarization_upper", "projection_upper"):
        assert reports[name] == pytest.approx(SYM, abs=EQUALITY_TOL), name


def test_all_bounds_sandwich_randomized():
    rng = random.Random(83)
    for _ in range(15):
        e = random_unit_interval_union(rng, rng.choice([2, 3, 4]))
        exact = capacity(e).value
        for rep in all_bounds(e):
            if rep.kind == "lower":
                assert rep.value <= exact + SANDWICH_SLACK, rep.name
            else:
                assert rep.value >= exact - SANDWICH_SLACK, rep.name


def affine_image(rng, e):
    """x -> a x + b with |a| in [0.1, 10] of either sign and b in [-5, 5]; returns (a, image)."""
    a = 10.0 ** rng.uniform(-1.0, 1.0) * rng.choice((-1.0, 1.0))
    b = rng.uniform(-5.0, 5.0)
    return a, make_interval_union([tuple(sorted((a * x + b, a * y + b))) for x, y in e.intervals])


def test_all_bounds_sandwich_random_hulls():
    rng = random.Random(97)
    for i in range(100):
        _, e = affine_image(rng, random_unit_interval_union(rng, (2, 3, 4, 6, 8)[i % 5]))
        exact = capacity(e).value
        for rep in all_bounds(e):
            if rep.kind == "lower":
                assert rep.value <= exact + SANDWICH_SLACK, (rep.name, e.intervals)
            else:
                assert rep.value >= exact - SANDWICH_SLACK, (rep.name, e.intervals)


def test_all_bounds_affine_covariance():
    rng = random.Random(101)
    for i in range(60):
        e = random_unit_interval_union(rng, (1, 2, 3, 4, 6, 8)[i % 6])
        a, image = affine_image(rng, e)
        unit, moved = all_bounds(e), all_bounds(image)
        assert [r.name for r in moved] == [r.name for r in unit]
        for u, v in zip(unit, moved):
            assert v.value == pytest.approx(abs(a) * u.value, rel=1e-12, abs=0.0), u.name


def test_uniform_measure_partition():
    p = uniform_measure_partition(4)
    assert p.points[0] == -1.0 and p.points[-1] == 1.0
    mus = [math.acos(lo) - math.acos(hi) for lo, hi in p.cells()]
    for mu in mus:
        assert mu == pytest.approx(math.pi / 4, abs=1e-14)


def test_uniform_measure_partition_is_built_once_per_count():
    for n in range(1, 41):
        p = uniform_measure_partition(n)
        assert uniform_measure_partition(n) is p
        want = [math.cos(math.pi * (n - k) / n) for k in range(n + 1)]
        assert [x.hex() for x in p.points] == [x.hex() for x in want], n
    # a numpy count shares the partition of the equal int
    assert uniform_measure_partition(np.int64(7)) is uniform_measure_partition(7)


@pytest.mark.parametrize("count", [0, -3, 2.5, 10**400])
def test_uniform_measure_partition_rejects_a_count_on_every_call(count):
    # a rejected count is checked before the cache, so it is never stored
    for _ in range(2):
        with pytest.raises(DomainError):
            uniform_measure_partition(count)


def circle_capacity(e):
    """cap(F) of the symmetric preimage F of a unit-hull e, by Robinson's formula cap(F)^2 = 2 cap(e).

    Returns the values at cap(e) -+ its est_error.
    """
    res = capacity(e)
    return math.sqrt(2.0 * (res.value - res.est_error)), math.sqrt(2.0 * (res.value + res.est_error))


def random_arc_sets(count):
    rng = random.Random(11)
    return [random_unit_interval_union(rng, 2 + i % 19, min_seg=0.02) for i in range(count)]


def test_partition_bound_is_the_halved_square_of_the_sector_product():
    # Robinson's formula on the bounds: a partition of [-1, 1] lifts to the
    # sectors of its arccos angles and their mirror images, each cell
    # giving two sectors of half its cell term's exponent.  A partition
    # with a cell that misses the set gives 0 on both sides and is skipped.
    # The sector side takes arc lengths as differences of angles, so a cell
    # that only just meets the set costs it digits: 1.6e-14 at a cell with
    # mu / M = 0.007, where partition_lower is within 1e-16 of mpmath
    rng = random.Random(12)
    checked = 0
    for e in random_arc_sets(180):
        for _ in range(2):
            inner = {rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, e.n + 2))}
            p = Partition((-1.0, *sorted(inner - {-1.0}), 1.0))
            upper = [math.acos(x) for x in reversed(p.points)]
            angles = upper + [2.0 * math.pi - th for th in reversed(upper[:-1])]
            want = 0.5 * sector_product_lower(circle_preimage(e), angles) ** 2
            got = partition_lower(e, p)
            if got == 0.0:
                assert want == 0.0
                continue
            checked += 1
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (e.intervals, p.points)
    assert checked >= 200


def test_beurling_and_haliste_bracket_the_capacity_of_the_preimage():
    for e in random_arc_sets(180):
        f = circle_preimage(e)
        # an arc through angle 0 is stored split there; count it once
        k = len(f.arcs) - (f.arcs[0][0] == 0.0 and f.arcs[-1][1] == 2.0 * math.pi)
        assert k == 2 * e.n - 2
        lo, hi = circle_capacity(e)
        l = f.total_length()
        assert beurling_arc_capacity(l) <= hi * (1.0 + 1e-14), e.intervals
        assert lo * (1.0 - 1e-14) <= haliste_arcs_capacity(l, k), e.intervals
