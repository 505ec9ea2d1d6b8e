"""Exact capacity tests: theta-quotient route, Schwarz-Christoffel route, Green values."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from logcap import (
    ConvergenceError,
    DomainError,
    SingularMatrixError,
    akhiezer_capacity,
    akhiezer_params,
    all_bounds,
    capacity,
    canonical_set,
    green_value,
    make_interval_union,
    normalize_to_unit,
    robin_constant,
    widom_capacity,
    widom_polynomial,
)
from logcap import _kernels as kernels_module
from logcap import exact as exact_module
from logcap import special as special_module
from logcap._kernels import gap_moment_sums
from logcap.exact import _LADDER, _MOMENT_TOL, _moment_vectors
from logcap.verify import SANDWICH_SLACK, random_unit_interval_union

from gauss_moments import gauss_gap_moment_sums, gauss_moment_ladder
from preimages import polynomial_preimage


def sym_pair(g):
    return make_interval_union([(-1.0, -g), (g, 1.0)])


def test_akhiezer_symmetric_closed_form():
    for g in (0.2, 0.5, 0.8):
        res = akhiezer_capacity(-g, g)
        assert res.value == pytest.approx(0.5 * math.sqrt(1 - g * g), abs=1e-12)
    assert akhiezer_capacity(-0.5, 0.5).value == pytest.approx(0.433012701892, abs=1e-11)
    assert akhiezer_capacity(-0.8, 0.8).value == pytest.approx(0.3, abs=1e-12)


def akhiezer_oracle(alpha, beta):
    """The theta-quotient formula at 40 digits, from the float endpoints.

    It keeps the four-series form theta4 theta3 at 0 over theta4 theta3 at
    omega, so it does not share the library's two-series evaluation.
    """
    with mpmath.workdps(40):
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
        m = 2 * (beta - alpha) / ((1 - alpha) * (1 + beta))
        big_k = mpmath.ellipk(m)
        q = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - m) / big_k)
        omega = mpmath.pi * mpmath.ellipf(mpmath.asin(mpmath.sqrt((1 - alpha) / 2)), m) / (2 * big_k)
        num = mpmath.jtheta(4, 0, q) * mpmath.jtheta(3, 0, q)
        den = mpmath.jtheta(4, omega, q) * mpmath.jtheta(3, omega, q)
        return float(0.5 * (num / den) ** 2)


@pytest.mark.parametrize("digits", range(1, 10))
def test_akhiezer_thin_symmetric_components(digits):
    a = 1.0 - 10.0 ** -digits
    res = capacity(sym_pair(a))
    assert res.method == "akhiezer"
    assert abs(res.value - 0.5 * math.sqrt((1.0 - a) * (1.0 + a))) <= res.est_error
    assert res.est_error <= 1e-11 * res.value


def test_akhiezer_thin_asymmetric_components_against_oracle():
    rng = random.Random(61)
    for _ in range(32):
        w1, w2 = (10.0 ** rng.uniform(-9.0, 0.0) for _ in range(2))
        alpha, beta = -1.0 + w1, 1.0 - w2
        if beta - alpha < 1e-3:
            continue
        res = akhiezer_capacity(alpha, beta)
        assert abs(res.value - akhiezer_oracle(alpha, beta)) <= res.est_error, (alpha, beta)
        assert res.est_error <= 1e-11 * res.value, (alpha, beta)


def test_akhiezer_params_invariants():
    p = akhiezer_params(-0.3, 0.5)
    assert p.k ** 2 + p.k_prime ** 2 == pytest.approx(1.0, abs=1e-14)
    assert 0.0 < p.q < 1.0
    # modulus squared equals 2(beta-alpha)/((1-alpha)(1+beta))
    assert p.k ** 2 == pytest.approx(2 * 0.8 / (1.3 * 1.5), rel=1e-15)


def test_akhiezer_domain_errors():
    with pytest.raises(DomainError):
        akhiezer_capacity(0.5, 0.5)
    with pytest.raises(DomainError):
        akhiezer_capacity(-1.0, 0.5)
    with pytest.raises(DomainError):
        akhiezer_capacity(0.2, 1.0)


def test_single_interval_closed_form():
    res = widom_capacity(make_interval_union([(-1, 1)]))
    assert res.value == 0.5
    assert res.method == "closed_form"
    rng = random.Random(23)
    for _ in range(20):
        a = rng.uniform(-10, 9)
        b = a + rng.uniform(0.05, 8)
        res = widom_capacity(make_interval_union([(a, b)]))
        assert res.value == pytest.approx((b - a) / 4, rel=1e-15)
    # subnormal ends: the value is (b - a)/4 correctly rounded
    for _ in range(400):
        a, b = sorted(rng.uniform(-1.0, 1.0) * 2.0 ** -rng.randrange(1022, 1074) for _ in range(2))
        if a < b:
            value = widom_capacity(make_interval_union([(a, b)])).value
            assert value == float((Fraction(b) - Fraction(a)) / 4), (a, b)


def test_robin_constant_single_intervals():
    model = widom_polynomial(make_interval_union([(-1, 1)]))
    assert robin_constant(model) == pytest.approx(math.log(2), abs=1e-11)
    rng = random.Random(29)
    for _ in range(10):
        a = rng.uniform(-4, 3)
        b = a + rng.uniform(0.2, 5)
        model = widom_polynomial(make_interval_union([(a, b)]))
        assert robin_constant(model) == pytest.approx(-math.log((b - a) / 4), abs=1e-9)


def test_robin_constant_symmetric_pair():
    model = widom_polynomial(sym_pair(0.5))
    assert robin_constant(model) == pytest.approx(-math.log(0.433012701892), abs=1e-10)


def test_widom_polynomial_symmetry():
    # symmetric two-interval set: p(t) = t
    model = widom_polynomial(sym_pair(0.4))
    assert model.coeffs[0] == pytest.approx(0.0, abs=1e-13)
    # symmetric three-interval set: mirror symmetry forces p(-t) = p(t)
    e = canonical_set(math.pi, 4)
    model = widom_polynomial(e)
    assert model.coeffs[1] == pytest.approx(0.0, abs=1e-13)


def test_widom_gap_residuals_vanish():
    rng = random.Random(31)
    for _ in range(25):
        e = random_unit_interval_union(rng, rng.choice([2, 3, 4]))
        model = widom_polynomial(e)
        for r in model.gap_residuals:
            assert abs(r) < 1e-10


def test_widom_symmetric_values():
    for g in (0.2, 0.5, 0.8):
        res = widom_capacity(sym_pair(g))
        assert res.value == pytest.approx(0.5 * math.sqrt(1 - g * g), abs=1e-8)
        assert res.method == "widom"


def test_cross_method_agreement():
    rng = random.Random(101)
    for _ in range(100):
        alpha = rng.uniform(-0.95, 0.89)
        beta = rng.uniform(alpha + 0.05, 0.95)
        e = make_interval_union([(-1.0, alpha), (beta, 1.0)])
        va = akhiezer_capacity(alpha, beta).value
        vw = widom_capacity(e).value
        assert abs(va - vw) <= 1e-8


def test_scaling_law():
    rng = random.Random(37)
    for factor in (0.5, 2.0, -3.0):
        for _ in range(10):
            e = random_unit_interval_union(rng, rng.choice([2, 3]))
            base = widom_capacity(e).value
            scaled_pairs = sorted(
                tuple(sorted((factor * a, factor * b))) for a, b in e.intervals
            )
            scaled = make_interval_union(scaled_pairs)
            assert widom_capacity(scaled).value == pytest.approx(
                abs(factor) * base, abs=1e-9 * max(1.0, abs(factor))
            )


# hulls beyond about 9e307, whose half-width or centre 0.5 (b_n -+ a_1) overflowed
HUGE_SETS = {
    "two-right": [(1e308, 1.2e308), (1.5e308, 1.7e308)],
    "three-right": [(1e308, 1.2e308), (1.3e308, 1.4e308), (1.5e308, 1.7e308)],
    "two-across-zero": [(-1.7e308, -1e308), (1e308, 1.7e308)],
}


@pytest.mark.parametrize("name", list(HUGE_SETS))
def test_scaling_law_holds_near_the_largest_float(name):
    pairs = HUGE_SETS[name]
    e = make_interval_union(pairs)
    small = make_interval_union([(a / 1e308, b / 1e308) for a, b in pairs])
    half_width = normalize_to_unit(e)[1]
    assert half_width == pytest.approx(1e308 * normalize_to_unit(small)[1], rel=1e-15)
    for method in ("auto", "widom"):
        got, want = capacity(e, method), capacity(small, method)
        assert got.method == want.method
        assert abs(got.value - 1e308 * want.value) <= got.est_error < math.inf, method
    for rep in all_bounds(e):
        if rep.kind == "lower":
            assert rep.value <= got.value + SANDWICH_SLACK * half_width, rep.name
        else:
            assert rep.value >= got.value - SANDWICH_SLACK * half_width, rep.name


def test_single_interval_near_the_largest_float_is_a_quarter_of_its_length():
    e = make_interval_union([(-1.7e308, 1.7e308)])
    assert capacity(e).value == 8.5e307
    assert [rep.value for rep in all_bounds(e)] == [8.5e307, 8.5e307]


# subnormal hulls on the Widom and the theta route: halving their ends
# rounded, and scale * 1e-15 underflowed to an est_error of 0
SUBNORMAL_SETS = {
    "three-widom": [(1e-310, 2e-310), (2.5e-310, 2.7e-310), (3e-310, 4e-310)],
    "two-theta": [(1e-310, 2e-310), (3e-310, 4e-310)],
}


@pytest.mark.parametrize("name", list(SUBNORMAL_SETS))
def test_subnormal_hull_commutes_with_an_exact_power_of_two(name):
    pairs = SUBNORMAL_SETS[name]
    e = make_interval_union(pairs)
    big = make_interval_union([(math.ldexp(a, 1030), math.ldexp(b, 1030)) for a, b in pairs])
    (norm, scale), (norm_big, scale_big) = normalize_to_unit(e), normalize_to_unit(big)
    assert norm == norm_big
    assert scale == math.ldexp(scale_big, -1030)
    got = capacity(e)
    oracle = math.ldexp(capacity(big).value, -1030)
    assert got.est_error > 0.0
    assert abs(got.value - oracle) <= got.est_error + 0.5 * math.ulp(oracle)


def test_translation_invariance():
    e = make_interval_union([(-1, -0.2), (0.3, 1)])
    base = widom_capacity(e).value
    moved = make_interval_union([(a + 7.5, b + 7.5) for a, b in e.intervals])
    assert widom_capacity(moved).value == pytest.approx(base, abs=1e-10)


def test_monotonicity_under_inclusion():
    rng = random.Random(41)
    for _ in range(25):
        e = random_unit_interval_union(rng, 3)
        sub = make_interval_union(e.intervals[:2])
        assert widom_capacity(sub).value <= widom_capacity(e).value + 1e-10


def test_moving_gap_maximal_at_symmetric_position():
    w = 0.4
    alphas = [-0.95 + (0.55 + 0.95) * i / 100 for i in range(101)]
    vals = []
    for a in alphas:
        e = make_interval_union([(-1.0, a), (a + w, 1.0)])
        vals.append(capacity(e).value)
    best = max(range(101), key=lambda i: vals[i])
    sym = min(range(101), key=lambda i: abs(alphas[i] + w / 2))
    assert abs(best - sym) <= 1


def test_green_at_base_point_and_endpoints():
    e = make_interval_union([(-1, -0.6), (-0.1, 0.2), (0.5, 1)])
    model = widom_polynomial(e)
    for x in e.endpoints():
        assert green_value(model, x) < 1e-9
    assert green_value(model, -1.0) == 0.0


def test_green_positive_in_gaps_and_outside():
    e = make_interval_union([(-1, -0.3), (0.4, 1)])
    model = widom_polynomial(e)
    assert green_value(model, 0.05) > 0.0
    assert green_value(model, 1.5) > 0.0
    assert green_value(model, -2.0) > 0.0


def test_green_asymptotics_single_interval():
    model = widom_polynomial(make_interval_union([(-1, 1)]))
    x = 1e6
    want = math.log(abs(x) + math.sqrt(x * x - 1.0))
    assert green_value(model, x) == pytest.approx(want, abs=1e-5)


def test_green_matches_explicit_single_interval_form():
    model = widom_polynomial(make_interval_union([(-1, 1)]))
    for x in (1.5, 3.0, -2.5, 10.0):
        want = math.log(abs(x) + math.sqrt(x * x - 1.0))
        assert green_value(model, x) == pytest.approx(want, abs=1e-9)


def test_green_interior_raises():
    model = widom_polynomial(sym_pair(0.5))
    with pytest.raises(DomainError):
        green_value(model, 0.9)
    with pytest.raises(DomainError):
        green_value(model, math.nan)


def test_green_asymptotic_robin_offset():
    e = make_interval_union([(-1, -0.2), (0.3, 1)])
    model = widom_polynomial(e)
    r = robin_constant(model)
    x = 1e5
    assert green_value(model, x) - math.log(x) == pytest.approx(r, abs=1e-4)


def test_capacity_dispatch():
    assert capacity(make_interval_union([(-1, 1)])).method == "closed_form"
    assert capacity(sym_pair(0.3)).method == "akhiezer"
    assert capacity(make_interval_union([(-1, -0.6), (-0.1, 0.2), (0.5, 1)])).method == "widom"
    forced = capacity(sym_pair(0.3), method="widom")
    assert forced.method == "widom"
    with pytest.raises(DomainError):
        capacity(make_interval_union([(-1, 1)]), method="akhiezer")
    with pytest.raises(DomainError):
        capacity(sym_pair(0.3), method="nonsense")


def test_capacity_on_scaled_two_interval_set():
    # dispatch normalizes before applying the theta formula
    e = make_interval_union([(0, 1), (3, 4)])
    res = capacity(e)
    assert res.method == "akhiezer"
    inner = akhiezer_capacity(-0.5, 0.5).value
    assert res.value == pytest.approx(2 * inner, rel=1e-12)


def test_capacity_range_for_unit_subsets():
    rng = random.Random(43)
    for _ in range(20):
        e = random_unit_interval_union(rng, rng.choice([1, 2, 3, 4]))
        v = capacity(e).value
        assert 0.0 < v <= 0.5 + 1e-12


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5])
def test_canonical_sets_with_narrow_gaps_come_back_within_est_error(delta):
    # arc length 2 pi - delta leaves gaps down to 7.8e-8 (delta = 1e-5, 20 arcs)
    l = 2.0 * math.pi - delta
    for arcs in (3, 4, 6, 9, 12, 20):
        res = capacity(canonical_set(l, arcs))
        assert abs(res.value - 0.5 * math.sin(l / 4) ** (2 / arcs)) <= res.est_error, arcs


def test_theta_and_widom_agree_across_narrow_gaps():
    rng = random.Random(71)
    for _ in range(300):
        c = rng.uniform(-0.9, 0.9)
        g = 10.0 ** rng.uniform(-13.0, -6.0)
        alpha, beta = c - 0.5 * g, c + 0.5 * g
        va = akhiezer_capacity(alpha, beta)
        vw = widom_capacity(make_interval_union([(-1.0, alpha), (beta, 1.0)]))
        assert abs(va.value - vw.value) <= va.est_error + vw.est_error, (alpha, beta)


def test_est_error_brackets_truth_on_known_cases():
    for g in (0.2, 0.5, 0.8):
        res = widom_capacity(sym_pair(g))
        truth = 0.5 * math.sqrt(1 - g * g)
        assert abs(res.value - truth) <= max(res.est_error, 1e-10)


def test_green_value_budget_exhaustion_raises_convergence_error(monkeypatch):
    # this edge integral takes the ladder's second level; capped at the first
    # level, it runs out
    model = widom_polynomial(canonical_set(0.3, 4))
    want = green_value(model, -4.0, tol=1e-13)
    monkeypatch.setattr(special_module, "_LADDER", (128,))
    with pytest.raises(ConvergenceError, match="Green function quadrature") as exc_info:
        green_value(model, -4.0, tol=1e-13)
    partial = exc_info.value.partial
    assert partial.nodes_used == 127
    assert math.isfinite(partial.value)
    # the partial is the edge integral without the log1p term added back
    assert abs(partial.value) == pytest.approx(want - math.log1p(3.0), rel=1e-6)


def test_green_value_far_from_the_set_is_log_plus_robin():
    e = make_interval_union([(-1.0, -0.55), (-0.3, 0.1), (0.25, 0.4), (0.7, 1.0)])
    model = widom_polynomial(e)
    r = robin_constant(model)
    for x in (1e9, -1e9, 1e12, -1e12, 1e15, -1e15):
        assert green_value(model, x) == pytest.approx(math.log(abs(x)) + r, abs=1e-9)


def canonical_green_oracle(l, arcs, x):
    """G(x) = acosh|P(x)| / arcs at 40 digits, P = (2 T_arcs - 1 - cos(l/2)) / (1 - cos(l/2)).

    ``canonical_set(l, arcs)`` is the preimage of [-1, 1] under P, whose
    degree is arcs.
    """
    with mpmath.workdps(40):
        x, c = mpmath.mpf(x), mpmath.cos(mpmath.mpf(l) / 2)
        if abs(x) <= 1:
            t = mpmath.cos(arcs * mpmath.acos(x))
        else:
            t = mpmath.sign(x) ** arcs * mpmath.cosh(arcs * mpmath.acosh(abs(x)))
        return float(mpmath.acosh(abs((2 * t - 1 - c) / (1 - c))) / arcs)


@pytest.mark.parametrize("l", [0.3, 1.0, math.pi, 5.5])
def test_green_value_matches_the_canonical_closed_form(l):
    # the 1e-7 points put quadrature nodes within rounding of the base
    # endpoint; the 1/2 +- 1e-12 points straddle the switch between the
    # two ends of a gap
    fractions = (1e-7, 0.25, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.75, 1 - 1e-7)
    for arcs in range(2, 13):
        e = canonical_set(l, arcs)
        model = widom_polynomial(e)
        a1, bn = e.hull
        xs = [lo + f * (hi - lo) for lo, hi in e.gaps() for f in fractions]
        for d in (1e-7, 0.5, 10.0):
            xs += [a1 - d * (bn - a1), bn + d * (bn - a1)]
        for x in xs:
            want = canonical_green_oracle(l, arcs, x)
            assert green_value(model, x) == pytest.approx(want, abs=1e-11), (arcs, x)


@pytest.mark.parametrize("l, known_misses", [
    (0.3, [7]), (math.pi, []), (5.5, []), (0.1, [8, 9, 11, 13]), (1.0, []), (2.0, []), (4.0, []),
    (6.0, []),
])
def test_canonical_sets_up_to_40_arcs_come_back_within_est_error(l, known_misses):
    # every set returns; est_error has no term yet for the rounding of the
    # moments and their solve, which is what the known misses come from (the
    # largest, l = 0.1 with 9 arcs, is 8.7e-14 against 1.8e-14)
    misses = []
    for arcs in range(2, 41):
        res = capacity(canonical_set(l, arcs))
        if abs(res.value - 0.5 * math.sin(l / 4) ** (2 / arcs)) > res.est_error:
            misses.append(arcs)
    assert misses == known_misses


# the ids on which the Widom route raises today: at d = 32 its Robin tail
# stalls, at d = 40 and 48 the moment matrix is singular in the monomial
# basis (and one d = 48 set, with a component of 3.3e-8, stalls in its gap
# moments); the gap-centre product basis planned in ROADMAP.md is meant to
# flip these
PREIMAGE_FAILURES = {
    (32, 0): ConvergenceError, (32, 1): ConvergenceError, (32, 2): ConvergenceError,
    (40, 0): SingularMatrixError, (40, 1): SingularMatrixError, (40, 2): SingularMatrixError,
    (48, 0): SingularMatrixError, (48, 1): ConvergenceError, (48, 2): SingularMatrixError,
}


@pytest.mark.parametrize("d, k", [
    pytest.param(d, k, marks=pytest.mark.xfail(
        raises=PREIMAGE_FAILURES[d, k], strict=True)) if (d, k) in PREIMAGE_FAILURES
    else (d, k)
    for d in [*range(2, 25), 32, 40, 48] for k in range(3)
])
def test_polynomial_preimages_come_back_within_est_error(d, k):
    e_in, e_out, cap = polynomial_preimage(np.random.default_rng([5, d, k]), d)
    inner, outer = capacity(e_in), capacity(e_out)
    assert inner.value - inner.est_error <= cap <= outer.value + outer.est_error


def loop_gap_moment_sums(endpoints, gap, m, jmax):
    """Gap moment sums one power at a time: the m-interval Lobatto rule and its nested m/2 rule."""
    lo_i, hi_i = 2 * gap + 1, 2 * gap + 2
    lo, hi = endpoints[lo_i], endpoints[hi_i]
    nodes = np.cos(np.arange(m + 1) * np.pi / m)
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    mask = np.ones(endpoints.shape[0], dtype=bool)
    mask[lo_i] = mask[hi_i] = False
    w = -np.prod(t[:, None] - endpoints[mask], axis=1)
    acc = 1.0 / np.sqrt(w)
    acc[0] *= 0.5
    acc[-1] *= 0.5
    out = np.empty((2, jmax + 1))
    for j in range(jmax + 1):
        out[0, j] = acc.sum()
        out[1, j] = acc[::2].sum()
        acc *= t
    out[0] *= np.pi / m
    out[1] *= 2.0 * np.pi / m
    return out


def test_gap_moment_sums_match_power_loop_bit_for_bit():
    # every gap of a range call, and a single-gap call, as alone in the loop;
    # two sets of each shape, so the second set's calls run on the index
    # layout cached by the first's
    rng = random.Random(8)
    for n in (2, 5, 11, 20):
        for shift in (False, True):
            for _ in range(2):
                ep = np.asarray(random_unit_interval_union(rng, n).endpoints(), dtype=float)
                if shift:
                    ep = 3.0 * ep + 0.7  # off the unit hull
                for m in (64, 128, 256):
                    want = [loop_gap_moment_sums(ep, gap, m, n - 1) for gap in range(n - 1)]
                    for start, stop in ((0, n - 1), (n // 3, n // 3 + 1), ((n - 1) // 2, n - 1)):
                        got = gap_moment_sums(ep, start, m, n - 1, stop)
                        assert got.shape == (2, stop - start, n)
                        for gap in range(start, stop):
                            assert got[:, gap - start].tobytes() == want[gap].tobytes()
                    gap = n // 2 - 1
                    assert gap_moment_sums(ep, gap, m, n - 1)[:, 0].tobytes() == want[gap].tobytes()
            layout = kernels_module._layout(2 * n, 0, n - 1)
            assert not any(a.flags.writeable for a in layout)


def _chebyshev_weight_integral(c, r, j):
    """Exact integral of (c + r x)^j / sqrt(1 - x^2) over (-1, 1), over pi, as a Fraction."""
    return sum(
        math.comb(j, i) * c ** (j - i) * r ** i * Fraction(math.comb(i, i // 2), 2 ** i)
        for i in range(0, j + 1, 2)
    )


@pytest.mark.parametrize("m", [2, 4, 8])
def test_gap_moment_sums_polynomial_exactness(m):
    # with the other endpoints at -+2^30 the smooth factor is 2^-30 up to rounding, so
    # 2^30 S_j is the rule applied to t^j, a polynomial of degree j in the pulled-back x;
    # one degree past exactness the rule's error is visible (small m keeps it so)
    big = 2.0 ** 30
    lo, hi = -0.5, 1.5
    c, r = Fraction(lo + hi) / 2, Fraction(hi - lo) / 2
    sums = big * gap_moment_sums(np.array([-big, lo, hi, big]), 0, m, 2 * m)[:, 0]
    for j in range(2 * m + 1):
        want = math.pi * float(_chebyshev_weight_integral(c, r, j))
        for row, degree in ((0, 2 * m - 1), (1, m - 1)):
            if j <= degree:
                assert sums[row, j] == pytest.approx(want, rel=1e-14)
            elif j == degree + 1:
                assert sums[row, j] != pytest.approx(want, rel=1e-9)


def test_gap_moments_against_generic_rule():
    # the specialized kernel agrees with the generic Chebyshev-Gauss rule
    rng = np.random.default_rng(17)
    ep = np.sort(rng.uniform(-1, 1, size=6))
    while np.min(np.diff(ep)) < 1e-3:
        ep = np.sort(rng.uniform(-1, 1, size=6))
    gap, m = 1, 128
    sums = gap_moment_sums(ep, gap, m, 2)[:, 0]
    want = gauss_gap_moment_sums(ep, gap, m, 2)
    for j in range(3):
        assert sums[0, j] == pytest.approx(want[j], rel=1e-13)


def test_lobatto_ladder_agrees_with_gauss_ladder():
    rng = random.Random(31)
    sets = [random_unit_interval_union(rng, n) for n in range(2, 21) for _ in range(2)]
    sets.append(canonical_set(0.3, 2))
    for e in sets:
        got, _ = _moment_vectors(e)
        want, _ = gauss_moment_ladder(e)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= _MOMENT_TOL * max(1.0, float(np.max(np.abs(w))))
    assert widom_polynomial(sym_pair(0.5)).moment_nodes == _LADDER[0]  # accepted at the first level
    assert widom_polynomial(canonical_set(0.3, 2)).moment_nodes == 16 * _LADDER[0]  # climbs four levels more


def per_gap_moment_ladder(e, start=_LADDER[0]):
    """The moment ladder one gap at a time, each gap climbing from ``start`` to its own level."""
    ep = np.asarray(e.endpoints(), dtype=float)
    out, worst = np.empty((e.n - 1, e.n)), 0
    for gap in range(e.n - 1):
        m = start
        while True:
            fine, coarse = gap_moment_sums(ep, gap, m, e.n - 1)[:, 0]
            if abs(fine - coarse).max() < _MOMENT_TOL * max(1.0, abs(fine).max()):
                break
            m *= 2
        out[gap], worst = fine, max(worst, m)
    return out, worst


def test_level_synchronous_ladder_matches_the_per_gap_ladder_bit_for_bit():
    rng = random.Random(32)
    sets = [random_unit_interval_union(rng, n) for n in range(2, 21) for _ in range(2)]
    sets += [canonical_set(0.3, 2), canonical_set(0.3, 6),
             make_interval_union([(-1.0, -0.5), (-0.4, -0.4 + 1e-5), (0.1, 1.0)])]
    for e in sets:
        got, m = _moment_vectors(e)
        want, want_m = per_gap_moment_ladder(e)
        assert np.array_equal(got, want) and m == want_m


def test_moments_accepted_below_128_intervals_match_a_ladder_from_128():
    # a gap that passes the test at m = 32 or 64 must already be at
    # rounding: a false early acceptance would show here as a difference
    # near the test's 1e-12
    rng = random.Random(33)
    sets = [random_unit_interval_union(rng, n, min_seg)
            for n in range(3, 21) for min_seg in (0.05, 0.5 / (2 * n - 1)) for _ in range(2)]
    sets += [canonical_set(l, arcs) for l in (0.3, math.pi, 5.5) for arcs in range(2, 21)]
    for e in sets:
        got, _ = _moment_vectors(e)
        want, _ = per_gap_moment_ladder(e, start=128)
        scale = np.maximum(1.0, abs(want).max(axis=1))
        assert (abs(got - want).max(axis=1) <= 2e-15 * scale).all(), e


def test_ladder_calls_the_kernel_once_per_run_of_open_gaps(monkeypatch):
    calls = []  # (m, start, stop) of every kernel call

    def recording(endpoints, gap, m, jmax, stop=None):
        calls.append((m, gap, gap + 1 if stop is None else stop))
        return gap_moment_sums(endpoints, gap, m, jmax, stop)

    # six gaps beside five components 1e-5 wide climb the ladder together
    e = make_interval_union([(-1.0, -0.5), (-0.4, -0.39999), (-0.3, -0.29999), (-0.2, -0.19999),
                             (-0.1, -0.09999), (0.0, 1e-5), (0.2, 1.0)])
    want, want_m = per_gap_moment_ladder(e)
    monkeypatch.setattr(kernels_module, "gap_moment_sums", recording)
    got, m = _moment_vectors(e)
    assert np.array_equal(got, want) and m == want_m
    assert [c for c in calls if c[0] == _LADDER[0]] == [(_LADDER[0], 0, 6)]
    assert all(stop - start <= _LADDER[-1] // level for level, start, stop in calls)
    # all six converge at 2048; a call below 1024 holds all six, at 1024 at
    # most 4 gaps, at 2048 at most 2
    assert calls == ([(level, 0, 6) for level in _LADDER[:_LADDER.index(1024)]]
                     + [(1024, 0, 4), (1024, 4, 6), (2048, 0, 2), (2048, 2, 4), (2048, 4, 6)])
    # gaps 0 and 2 climb past the first level beside thin end components, gap
    # 1 between them does not
    e = make_interval_union([(-1.0, -1.0 + 1e-5), (-0.5, 0.0), (0.3, 0.6), (1.0 - 1e-5, 1.0)])
    want, want_m = per_gap_moment_ladder(e)
    calls.clear()
    got, m = _moment_vectors(e)
    assert np.array_equal(got, want) and m == want_m
    assert calls[:3] == [(_LADDER[0], 0, 3), (_LADDER[1], 0, 1), (_LADDER[1], 2, 3)]


def test_widom_on_thin_canonical_pair_matches_closed_form():
    res = widom_capacity(canonical_set(0.3, 2))
    assert abs(res.value - 0.5 * math.sin(0.3 / 4)) <= res.est_error


@pytest.mark.parametrize("width", [1e-7, 1e-9])
def test_unconverged_gap_moments_raise(width):
    e = make_interval_union([(-1.0, -0.5), (-0.4, -0.4 + width), (0.1, 1.0)])
    # a thin interval puts a near-singular factor at the edge of both gaps next to it
    with pytest.raises(ConvergenceError, match="gap 0 .* 4097 Lobatto nodes"):
        widom_capacity(e)


def test_unconverged_gap_moments_name_the_lowest_failing_gap():
    # gap 0 converges at the cap, gaps 1 and 2 both fail there
    e = make_interval_union([(-1, -0.8), (-0.6, -0.5), (-0.4, -0.4 + 1e-9), (0.1, 1)])
    with pytest.raises(ConvergenceError, match="gap 1 .* 4097 Lobatto nodes"):
        widom_capacity(e)


def test_a_node_rounding_onto_an_endpoint_raises_without_a_warning():
    # gap 1's last Lobatto node rounds from 1e-20 onto a_2 = 0, where the
    # endpoint product is 0; the ladder raises, and no numpy RuntimeWarning
    # (an error under this suite's settings) escapes before it
    with pytest.raises(ConvergenceError, match="gap 0 .* 4097 Lobatto nodes"):
        capacity(make_interval_union([(-1.0, -0.5), (0.0, 1e-20), (0.6, 1.0)]))


def test_gap_moments_converging_at_the_cap_still_return():
    e = make_interval_union([(-1.0, -0.5), (-0.4, -0.4 + 1e-5), (0.1, 1.0)])
    assert widom_polynomial(e).moment_nodes == _LADDER[-1]
    res = widom_capacity(e)
    # inside the set whose middle interval has width 1e-3, and containing the one without it
    assert widom_capacity(make_interval_union([(-1.0, -0.5), (0.1, 1.0)])).value < res.value
    assert res.value < widom_capacity(make_interval_union([(-1.0, -0.5), (-0.4, -0.399), (0.1, 1.0)])).value


def test_green_integrand_is_not_finite_where_the_endpoint_product_overflows():
    # n = 3: the product of sqrt(t - e) over the five endpoints but b_n,
    # ~ t^2.5, overflows at t = 1e130 while p ~ t^2 does not, and p / inf
    # would read 0, a finite wrong value
    model = widom_polynomial(canonical_set(math.pi, 5))
    assert model.E.n == 3
    f = exact_module._green_integrand(model, 5, 1.0)
    t = np.array([2.0, 1e50, 1e130, 1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f(t)
    assert np.isfinite(vals).tolist() == [True, True, False, False]


def loop_green_integrand(model, skip, sign, t):
    """The regular part of p/sqrt|q| at endpoint ``skip``, node by node on Python floats.

    Horner's rule in np.polyval's order, from 0, and the product of the
    roots sqrt|t - e| in endpoint order.
    """
    ep = model.E.endpoints()
    p = (1.0, *model.coeffs[::-1])
    out = []
    for x in t.tolist():
        y = 0.0
        for c in p:
            y = y * x + c
        root = 1.0
        for k, e in enumerate(ep):
            if k != skip:
                root *= math.sqrt(abs(x - e))
        off = abs(x - ep[skip])
        out.append((y / root if root < math.inf else math.nan) - sign * math.sqrt(off) / (1.0 + off))
    return np.array(out)


def test_green_integrand_matches_a_scalar_loop_bit_for_bit():
    # at the tail's nodes right of b_n, at nodes left of a_1 and at nodes
    # across the hull, on sets on and off the unit hull
    rng = random.Random(43)
    nodes = np.random.default_rng(43)
    for n in (3, 10, 20):
        for shift in (False, True):
            e = random_unit_interval_union(rng, n)
            if shift:
                e = make_interval_union([(3.0 * a + 0.7, 3.0 * b + 0.7) for a, b in e.intervals])
            model = widom_polynomial(e)
            a1, bn = e.hull
            width = bn - a1
            tan2 = width * np.tan(np.linspace(0.01, 1.5, 41)) ** 2
            inside = nodes.uniform(a1 - 0.5 * width, bn + 0.5 * width, 64)
            for skip, sign, t in ((2 * n - 1, 1.0, bn + tan2), (0, -1.0, a1 - tan2),
                                  (n, 0.0, inside), (2 * n - 1, 0.0, inside)):
                got = exact_module._green_integrand(model, skip, sign)(t)
                assert got.tobytes() == loop_green_integrand(model, skip, sign, t).tobytes()


def test_widom_capacity_calls_the_tail_integrand_once_when_the_first_level_is_accepted(monkeypatch):
    # the first level of the tail ladder, 127 nodes, is one call of the integrand
    calls, nodes = [], []
    make_integrand, tail = exact_module._green_integrand, exact_module.tail_integral

    def counted_integrand(*args):
        f = make_integrand(*args)
        calls.append(0)

        def counted(t):
            calls[-1] += 1
            return f(t)

        return counted

    def recorded_tail(*args, **kwargs):
        res = tail(*args, **kwargs)
        nodes.append(res.nodes_used)
        return res

    monkeypatch.setattr(exact_module, "_green_integrand", counted_integrand)
    monkeypatch.setattr(exact_module, "tail_integral", recorded_tail)
    rng = random.Random(41)
    for n in range(3, 21):
        for _ in range(3):
            widom_capacity(random_unit_interval_union(rng, n))
    within = [c for c, used in zip(calls, nodes, strict=True) if used == 127]
    assert all(c == 1 for c in within)
    assert len(within) > len(calls) / 2


TAIL_CACHES = (special_module._half_line_level, exact_module._offset_terms)


def clear_tail_caches():
    for cache in TAIL_CACHES:
        cache.cache_clear()


def uncached_half_line_level(b, step, w, top, m):
    """``_half_line_level`` formed afresh: the map's t and the Jacobian factors."""
    nodes = special_module._fejer_rule(m)[0]
    theta = 0.5 * top + 0.5 * top * (nodes if m == 128 else nodes[::2])
    t = b + step * np.tan(theta) ** 2
    return t, 2.0 * math.sqrt(w) * (1.0 + abs(t - b) / w)


def uncached_green_integrand(model, skip, sign):
    """``_green_integrand`` with its comparison term formed on every call."""
    ep = np.asarray(model.E.endpoints(), dtype=float)
    base, others = ep[skip], np.concatenate((ep[:skip], ep[skip + 1:]))[:, None]
    p = np.array((1.0, *model.coeffs[::-1]))
    p = [p[i, ...] for i in range(p.size)]

    def f(t):
        y = np.full_like(t, p[0], dtype=float)
        for c in p[1:]:
            y *= t
            y += c
        root = np.multiply.reduce(np.sqrt(np.abs(others - t)), axis=0)
        off = abs(t - base)
        return np.where(root < np.inf, y / root, np.nan) - sign * np.sqrt(off) / (1.0 + off)

    return f


def uncached_robin_quad(model, monkeypatch):
    """The Robin tail with its levels and its comparison term formed afresh."""
    a1, bn = model.E.hull
    f = uncached_green_integrand(model, 2 * model.E.n - 1, 1.0)
    with monkeypatch.context() as patched:
        patched.setattr(special_module, "_half_line_level", uncached_half_line_level)
        return special_module._half_line(f, bn, math.inf, 1e-10, bn - a1, "reference")


def recorded_ladder(monkeypatch):
    """Make every half-line integral record its integrand's values, level by level; returns the record."""
    levels = []
    half_line = special_module._half_line

    def recorded(f, b, x, tol, width, what):
        def kept(t):
            vals = f(t)
            levels.append(vals.tobytes())
            return vals

        return half_line(kept, b, x, tol, width, what)

    monkeypatch.setattr(special_module, "_half_line", recorded)
    monkeypatch.setattr(exact_module, "_half_line", recorded)
    return levels


def fingerprint(levels, res):
    """The recorded level values and the result, as bytes; clears the record."""
    out = b"".join(levels) + np.array([res.value, res.est_error, res.nodes_used]).tobytes()
    levels.clear()
    return out


def test_half_line_levels_interleave_to_the_fejer_nodes_bit_for_bit():
    # the ladder puts each level's new values at the even indices and the
    # older ones at the odd: so interleaved, the t of levels 128..m must be
    # the map of all m - 1 nodes of Fejer's m rule
    for b, step, w in ((1.0, 2.0, 2.0), (-0.4, -0.3, 0.3)):
        for top in (math.pi / 2, 0.3):
            t = np.empty(0)
            for m in _LADDER[_LADDER.index(128):_LADDER.index(1024) + 1]:
                fresh = special_module._half_line_level(b, step, w, top, m)[0]
                assert not fresh.flags.writeable
                if t.size:
                    both = np.empty(m - 1)
                    both[::2], both[1::2] = fresh, t
                    fresh = both
                t = fresh
                theta = 0.5 * top + 0.5 * top * special_module._fejer_rule(m)[0]
                assert t.tobytes() == (b + step * np.tan(theta) ** 2).tobytes(), (b, top, m)


def test_half_line_levels_match_the_uncached_arithmetic_bit_for_bit():
    # the Robin tail's map, maps off the unit hull and the Green edges' maps
    # of short spans, whose top is pi/4
    for b, step, w, top in ((1.0, 2.0, 2.0, math.pi / 2), (3.7, 6.0, 6.0, math.pi / 2),
                            (-0.4, 0.4, 0.4, math.pi / 2), (-1.0, -0.3, 0.3, math.pi / 4),
                            (0.1, 0.15, 0.15, math.pi / 4)):
        for m in _LADDER[_LADDER.index(128):]:
            got = special_module._half_line_level(b, step, w, top, m)
            want = uncached_half_line_level(b, step, w, top, m)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (b, w, top, m)


def test_cached_robin_tail_matches_the_uncached_arithmetic_bit_for_bit(monkeypatch):
    levels = recorded_ladder(monkeypatch)
    rng = random.Random(47)
    clear_tail_caches()
    for n in range(3, 21):
        for _ in range(2):
            model = widom_polynomial(random_unit_interval_union(rng, n))
            want = fingerprint(levels, uncached_robin_quad(model, monkeypatch))
            assert fingerprint(levels, exact_module._robin_quad(model)) == want, n
    # off the unit hull, b_n != 1 and the width is not 2: a map of its own
    for n in (3, 7, 12):
        e = random_unit_interval_union(rng, n)
        for scale, shift in ((3.0, 0.7), (0.2, -0.4), (2.0, -3.0)):
            model = widom_polynomial(make_interval_union([(scale * a + shift, scale * b + shift)
                                                          for a, b in e.intervals]))
            want = uncached_robin_quad(model, monkeypatch)
            want_levels = fingerprint(levels, want)
            assert fingerprint(levels, exact_module._robin_quad(model)) == want_levels
            assert np.array([robin_constant(model)]).tobytes() == np.array([want.value]).tobytes()
            levels.clear()


def test_cached_green_values_match_the_uncached_arithmetic_bit_for_bit(monkeypatch):
    levels = recorded_ladder(monkeypatch)
    model = widom_polynomial(make_interval_union([(-1.0, -0.5), (-0.2, 0.1), (0.5, 1.0)]))
    # left of the hull, inside each gap (nearer either end) and right of it
    points = (-7.0, -1.3, -1.0 - 1e-9, -0.45, -0.25, 0.15, 0.4, 1.0 + 1e-7, 1.6, 40.0)

    def values():
        out = np.array([green_value(model, x) for x in points]).tobytes() + b"".join(levels)
        levels.clear()
        return out

    with monkeypatch.context() as patched:
        patched.setattr(exact_module, "_green_integrand", uncached_green_integrand)
        patched.setattr(special_module, "_half_line_level", uncached_half_line_level)
        want = values()
    clear_tail_caches()
    cold = values()
    warm = values()
    clear_tail_caches()
    cleared = values()
    assert cold == want and warm == want and cleared == want


def test_tail_caches_are_read_only_and_bounded():
    model = widom_polynomial(random_unit_interval_union(random.Random(53), 4))
    clear_tail_caches()
    assert exact_module._robin_quad(model).nodes_used == 127
    t, jac = special_module._half_line_level(1.0, 2.0, 2.0, math.pi / 2, 128)
    term = exact_module._offset_terms(1.0, 1.0, t.tobytes())
    for a in (t, jac, term):
        assert not a.flags.writeable
    # the first level of the Robin tail was computed once, then read from the caches
    assert [cache.cache_info().misses for cache in TAIL_CACHES] == [1, 1]
    for x in np.linspace(1.001, 30.0, 1000):
        green_value(model, float(x))
    for cache in TAIL_CACHES:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize <= 16


def decaying(t):
    return 1.0 / (1.0 + t * t)


# each runs to the ladder's cap, or returns, without the check
BAD_HALF_LINE_CALLS = {
    "tail-tol-nan": lambda model, h: exact_module.tail_integral(h, 1.0, math.nan),
    "tail-tol-0": lambda model, h: exact_module.tail_integral(h, 1.0, 0.0),
    "tail-b-nan": lambda model, h: exact_module.tail_integral(h, math.nan, 1e-10),
    "tail-b-inf": lambda model, h: exact_module.tail_integral(h, math.inf, 1e-10),
    "tail-b-minus-inf": lambda model, h: exact_module.tail_integral(h, -math.inf, 1e-10),
    "tail-width-nan": lambda model, h: exact_module.tail_integral(h, 1.0, 1e-10, width=math.nan),
    "tail-width-inf": lambda model, h: exact_module.tail_integral(h, 1.0, 1e-10, width=math.inf),
    "tail-width-minus-inf": lambda model, h: exact_module.tail_integral(h, 1.0, 1e-10, width=-math.inf),
    "tail-width-0": lambda model, h: exact_module.tail_integral(h, 1.0, 1e-10, width=0.0),
    "green-tol-nan": lambda model, h: green_value(model, 3.0, tol=math.nan),
    "green-tol-0": lambda model, h: green_value(model, 3.0, tol=0.0),
    "green-tol-minus-1": lambda model, h: green_value(model, 3.0, tol=-1.0),
    "green-gap-tol-0": lambda model, h: green_value(model, -0.3, tol=0.0),
}


@pytest.mark.parametrize("case", list(BAD_HALF_LINE_CALLS))
def test_half_line_arguments_are_checked_before_any_evaluation(monkeypatch, case):
    model = widom_polynomial(make_interval_union([(-1.0, -0.5), (-0.2, 0.1), (0.5, 1.0)]))
    count = [0]

    def counted(f):
        def g(t):
            count[0] += 1
            return f(t)

        return g

    make_integrand = exact_module._green_integrand
    monkeypatch.setattr(exact_module, "_green_integrand", lambda *args: counted(make_integrand(*args)))
    with pytest.raises(DomainError):
        BAD_HALF_LINE_CALLS[case](model, counted(decaying))
    assert count == [0]
