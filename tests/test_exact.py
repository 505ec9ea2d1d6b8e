"""Exact capacity tests: theta-quotient route, Schwarz-Christoffel route, Green values."""

import math
import random

import numpy as np
import pytest

from logcap import (
    ConvergenceError,
    DomainError,
    NarrowGapWarning,
    akhiezer_capacity,
    akhiezer_params,
    capacity,
    canonical_set,
    chebyshev_gauss,
    green_value,
    make_interval_union,
    robin_constant,
    widom_capacity,
    widom_polynomial,
)
from logcap._kernels import gap_moment_sums
from logcap.verify import random_unit_interval_union


def sym_pair(g):
    return make_interval_union([(-1.0, -g), (g, 1.0)])


def test_akhiezer_symmetric_closed_form():
    for g in (0.2, 0.5, 0.8):
        res = akhiezer_capacity(-g, g)
        assert res.value == pytest.approx(0.5 * math.sqrt(1 - g * g), abs=1e-12)
    assert akhiezer_capacity(-0.5, 0.5).value == pytest.approx(0.433012701892, abs=1e-11)
    assert akhiezer_capacity(-0.8, 0.8).value == pytest.approx(0.3, abs=1e-12)


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


def test_akhiezer_narrow_gap_warns():
    with pytest.warns(NarrowGapWarning):
        akhiezer_capacity(0.1, 0.1 + 1e-7)


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


def test_widom_narrow_gap_warns():
    e = make_interval_union([(-1.0, 0.0), (1e-8, 1.0)])
    with pytest.warns(NarrowGapWarning):
        widom_capacity(e)


def test_est_error_brackets_truth_on_known_cases():
    for g in (0.2, 0.5, 0.8):
        res = widom_capacity(sym_pair(g))
        truth = 0.5 * math.sqrt(1 - g * g)
        assert abs(res.value - truth) <= max(res.est_error, 1e-10)


def test_green_value_budget_exhaustion_raises_convergence_error():
    model = widom_polynomial(canonical_set(0.3, 4))
    with pytest.raises(ConvergenceError) as exc_info:
        green_value(model, -4.0, tol=1e-13)
    partial = exc_info.value.partial
    assert partial.nodes_used > 200000
    assert math.isfinite(partial.value)


def loop_gap_moment_sums(endpoints, gap, m, jmax):
    """Gap moment sums one power at a time, as the numpy kernel did before its table form."""
    lo_i, hi_i = 2 * gap + 1, 2 * gap + 2
    lo, hi = endpoints[lo_i], endpoints[hi_i]
    nodes = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * np.pi / (2.0 * m))
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    mask = np.ones(endpoints.shape[0], dtype=bool)
    mask[lo_i] = mask[hi_i] = False
    w = -np.prod(t[:, None] - endpoints[mask], axis=1)
    acc = 1.0 / np.sqrt(w)
    out = np.empty(jmax + 1)
    for j in range(jmax + 1):
        out[j] = acc.sum()
        acc *= t
    out *= np.pi / m
    return out


def test_gap_moment_sums_match_power_loop_bit_for_bit():
    rng = random.Random(8)
    for n in (2, 5, 11, 20):
        for _ in range(2):
            ep = np.asarray(random_unit_interval_union(rng, n).endpoints(), dtype=float)
            ep = 3.0 * ep + 0.7  # off the unit hull as well
            for gap in range(n - 1):
                for m in (64, 128, 256):
                    got = gap_moment_sums(ep, gap, m, n - 1)
                    want = loop_gap_moment_sums(ep, gap, m, n - 1)
                    assert got.tobytes() == want.tobytes()


def test_gap_moments_against_generic_rule():
    # the specialized kernel agrees with the generic Chebyshev-Gauss rule
    rng = np.random.default_rng(17)
    ep = np.sort(rng.uniform(-1, 1, size=6))
    while np.min(np.diff(ep)) < 1e-3:
        ep = np.sort(rng.uniform(-1, 1, size=6))
    gap = 1
    lo, hi = ep[2 * gap + 1], ep[2 * gap + 2]
    mask = np.ones(6, dtype=bool)
    mask[[2 * gap + 1, 2 * gap + 2]] = False

    def smooth(j):
        def g(t):
            w = -np.prod(t[:, None] - ep[mask], axis=1)
            return t ** j / np.sqrt(w)

        return g

    m = 128
    sums = gap_moment_sums(ep, gap, m, 2)
    for j in range(3):
        want = chebyshev_gauss(smooth(j), lo, hi, m)
        assert sums[j] == pytest.approx(want, rel=1e-13)
