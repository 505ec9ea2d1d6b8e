"""Elliptic integrals, theta series and quadrature tests.

Frozen reference values were produced with 40-digit mpmath evaluations of
the defining integrals/series; the scipy.integrate.quad oracles recompute
the defining integrals independently of the AGM/Carlson implementations.
"""

import functools
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from logcap import (
    CircleArcSet,
    ConvergenceError,
    DomainError,
    GapPoints,
    akhiezer_capacity,
    akhiezer_params,
    beurling_arc_capacity,
    canonical_set,
    capacity,
    complete_E,
    complete_K,
    gap_division_lower,
    gillis_upper,
    green_value,
    haliste_arcs_capacity,
    incomplete_F,
    make_interval_union,
    polarization_upper,
    schiefermayr_lower,
    schiefermayr_upper,
    sector_product_lower,
    solynin_lower,
    theta3,
    theta4,
    uniform_measure_partition,
)
from logcap import exact as exact_module
from logcap import special as special_module
from logcap import widom_polynomial
from logcap.special import EllipticParams, _fejer_rule, _half_line, _half_line_level
from logcap.verify import equality_gap_points, random_unit_interval_union, run_verify


def k_integral_oracle(k, phi=math.pi / 2):
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, phi,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def e_integral_oracle(k):
    val, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, math.pi / 2,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def test_complete_K_values():
    assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert complete_K(1 / math.sqrt(2)) == pytest.approx(1.8540746773013719, rel=1e-14)
    assert complete_K(0.99) == pytest.approx(3.3566005233611923, rel=1e-14)
    for k in (0.3, 0.7, 0.95):
        assert complete_K(k) == pytest.approx(k_integral_oracle(k), rel=1e-11)


def test_complete_K_domain():
    with pytest.raises(DomainError):
        complete_K(1.0)
    with pytest.raises(DomainError):
        complete_K(-0.1)


def test_complete_E_values():
    assert complete_E(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert complete_E(1.0) == 1.0
    assert complete_E(0.6) == pytest.approx(1.4180833944487242, rel=1e-13)
    for k in (0.2, 0.6, 0.9):
        assert complete_E(k) == pytest.approx(e_integral_oracle(k), rel=1e-11)
    for k in (1.5, -0.1):
        with pytest.raises(DomainError, match="modulus must lie in"):
            complete_E(k)


def agm_K_reference(k):
    """The former K loop: stops at |a - g| < 1e-16 a or after 40 steps; also returns the steps."""
    a, g = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    for step in range(40):
        if abs(a - g) < 1e-16 * a:
            return math.pi / (2.0 * a), step
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return math.pi / (2.0 * a), 40


def agm_E_reference(k):
    """The former E loop: stops at c = (a - g) / 2 < 1e-17 a or after 40 steps."""
    if k == 1.0:
        return 1.0
    a, g = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    s, pw = 0.5 * k * k, 1.0
    for _ in range(40):
        c = 0.5 * (a - g)
        if c < 1e-17 * a:
            break
        s += pw * c * c
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        pw *= 2.0
    return math.pi / (2.0 * a) * (1.0 - s)


def test_complete_K_and_E_match_the_tolerance_loops_bit_for_bit():
    rng = random.Random(18)
    ks = [i / 4000 for i in range(4000)]
    ks += [1.0 - 10.0 ** rng.uniform(-16, -1) for _ in range(500)]
    ks += [rng.random() for _ in range(1000)]
    capped = 0
    for k in ks:
        want_K, steps = agm_K_reference(k)
        capped += steps == 40
        assert complete_K(k) == want_K, k
        assert complete_E(k) == agm_E_reference(k), k
    # the moduli where the old K loop never met its tolerance are covered
    assert capped > 500


def test_incomplete_F_values():
    assert incomplete_F(0.0, 0.3) == 0.0
    for k in (0.0, 0.4, 0.8):
        assert incomplete_F(1.0, k) == pytest.approx(complete_K(k), rel=1e-13)
    assert incomplete_F(0.5, 0.5) == pytest.approx(0.5294286270519058, rel=1e-12)
    # oracle: integral up to arcsin(lambda)
    for lam, k in [(0.3, 0.6), (0.9, 0.4), (0.7, 0.95)]:
        want = k_integral_oracle(k, math.asin(lam))
        assert incomplete_F(lam, k) == pytest.approx(want, rel=1e-10)


def test_incomplete_F_domain():
    with pytest.raises(DomainError):
        incomplete_F(1.1, 0.5)
    with pytest.raises(DomainError):
        incomplete_F(0.5, 1.0)


def test_legendre_relation():
    for k in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        kp = math.sqrt(1 - k * k)
        lhs = (complete_E(k) * complete_K(kp) + complete_E(kp) * complete_K(k)
               - complete_K(k) * complete_K(kp))
        assert lhs == pytest.approx(math.pi / 2, abs=1e-12)


def test_theta_series_values():
    # direct truncated series at q = 0.1: 1 + 2(0.1 + 1e-4 + 1e-9 + ...)
    assert theta3(0.3, 0.0) == 1.0
    assert theta4(-1.0, 0.0) == 1.0
    assert theta3(0.0, 0.1) == pytest.approx(1.2002000020000002, abs=1e-15)
    assert theta4(0.0, 0.1) == pytest.approx(0.8001999980000002, abs=1e-15)


def test_theta_shift_identity():
    for q in (0.05, 0.1, 0.5, 0.9):
        for z in (0.0, 0.4, 1.2):
            assert theta3(z + math.pi / 2, q) == pytest.approx(theta4(z, q), abs=1e-13)


def test_theta_positivity_and_truncation():
    for q in (0.1, 0.5, 0.9):
        assert theta4(0.0, q) > 0.0
        # appending more terms changes nothing at the 1e-15 level
        def brute(z, q, extra):
            total = 1.0
            for m in range(1, extra):
                total += 2.0 * q ** (m * m) * math.cos(2 * m * z)
            return total
        assert theta3(0.7, q) == pytest.approx(brute(0.7, q, 200), abs=2e-15)


@pytest.mark.parametrize("theta", [theta3, theta4])
def test_theta_series_stops_at_its_term_cap(theta):
    # at nome 1 - 1e-9 the terms q^(m^2) stay above 1e-16 past m = 20000
    with pytest.raises(ConvergenceError, match="theta series did not converge"):
        theta(0.0, 1.0 - 1e-9)


def test_theta_domain():
    with pytest.raises(DomainError):
        theta3(0.0, 1.0)
    with pytest.raises(DomainError):
        theta4(0.0, -0.2)


# each returned nan or a value, warned, or raised a bare ValueError,
# TypeError or OverflowError, before its arguments were checked
NON_FINITE_OR_FRACTIONAL_ARGUMENTS = {
    "theta3-z-inf": lambda: theta3(math.inf, 0.1),
    "theta3-z-minus-inf": lambda: theta3(-math.inf, 0.1),
    "theta3-z-nan": lambda: theta3(math.nan, 0.1),
    "theta4-z-inf": lambda: theta4(math.inf, 0.1),
    "theta4-z-minus-inf": lambda: theta4(-math.inf, 0.1),
    "theta4-z-nan": lambda: theta4(math.nan, 0.1),
    "elliptic-params-moduli-nan": lambda: EllipticParams(math.nan, math.nan, 0.5, 0.0),
    "elliptic-params-omega-inf": lambda: EllipticParams(0.6, 0.8, 0.5, math.inf),
    "elliptic-params-omega-nan": lambda: EllipticParams(0.6, 0.8, 0.5, math.nan),
    "canonical-set-fractional-count": lambda: canonical_set(1.0, 2.5),
    "uniform-partition-fractional-count": lambda: uniform_measure_partition(2.5),
    "haliste-fractional-count": lambda: haliste_arcs_capacity(1.0, 2.5),
    # integers beyond the float range raised OverflowError; each fails at
    # the conversion, before a count could allocate
    "canonical-set-huge-count": lambda: canonical_set(1.0, 10**400),
    "uniform-partition-huge-count": lambda: uniform_measure_partition(10**400),
    "haliste-huge-count": lambda: haliste_arcs_capacity(1.0, 10**400),
    "green-value-huge-x": lambda: green_value(
        widom_polynomial(make_interval_union([(-1.0, -0.5), (0.5, 1.0)])), 10**400),
    "green-value-huge-negative-x": lambda: green_value(
        widom_polynomial(make_interval_union([(-1.0, -0.5), (0.5, 1.0)])), -10**400),
    "sector-product-huge-angle": lambda: sector_product_lower(
        CircleArcSet(((0.0, 1.0),)), [0.0, 10**400]),
    # integers too long for Python to print (over 4300 digits) raised a bare
    # ValueError from the error message that named them
    "uniform-partition-unprintable-count": lambda: uniform_measure_partition(-10**5000),
    "canonical-set-unprintable-count": lambda: canonical_set(1.0, -10**5000),
    "verify-unprintable-count": lambda: run_verify(count=-10**5000),
    "canonical-set-unprintable-length": lambda: canonical_set(10**5000, 3),
    "haliste-unprintable-length": lambda: haliste_arcs_capacity(-10**5000, 3),
    "beurling-unprintable-length": lambda: beurling_arc_capacity(10**5000),
    "complete-k-unprintable-modulus": lambda: complete_K(10**5000),
    "complete-e-unprintable-modulus": lambda: complete_E(-10**5000),
    "incomplete-f-unprintable-sine": lambda: incomplete_F(10**5000, 0.5),
    "incomplete-f-unprintable-modulus": lambda: incomplete_F(0.5, 10**5000),
    "theta-unprintable-nome": lambda: theta3(0.0, 10**5000),
    "akhiezer-unprintable-alpha": lambda: akhiezer_capacity(10**5000, 0.5),
    "capacity-unprintable-method": lambda: capacity(
        make_interval_union([(-1.0, -0.5), (0.5, 1.0)]), method=10**5000),
    "gap-point-unprintable": lambda: GapPoints((10**5000,)).validate_for(
        make_interval_union([(-1.0, -0.5), (0.5, 1.0)])),
    # and these, but for the nome, raised OverflowError
    "theta3-unprintable-z": lambda: theta3(10**5000, 0.1),
    "theta4-unprintable-z": lambda: theta4(-10**5000, 0.1),
    "elliptic-params-unprintable-k": lambda: EllipticParams(10**5000, 0.5, 0.5, 0.0),
    "elliptic-params-unprintable-omega": lambda: EllipticParams(1.0, 0.0, 0.5, 10**5000),
    "elliptic-params-unprintable-nome": lambda: EllipticParams(1.0, 0.0, 10**5000, 0.0),
    # a string that is no number raised a bare ValueError, and None a bare
    # TypeError
    "green-value-string-x": lambda: green_value(
        widom_polynomial(make_interval_union([(-1.0, -0.5), (0.5, 1.0)])), "abc"),
    "green-value-none-x": lambda: green_value(
        widom_polynomial(make_interval_union([(-1.0, -0.5), (0.5, 1.0)])), None),
    "sector-product-string-angle": lambda: sector_product_lower(
        CircleArcSet(((0.0, 1.0),)), ["abc", 1.0]),
    "sector-product-none-angle": lambda: sector_product_lower(
        CircleArcSet(((0.0, 1.0),)), [None, 1.0]),
    # run_verify ran its suites and then failed at seed + 2, a bare TypeError
    "verify-none-seed": lambda: run_verify(seed=None, count=0),
    "verify-string-seed": lambda: run_verify(seed="a", count=0),
    # the seeded generators raised a bare TypeError; each checks its
    # arguments before its first draw
    "random-union-string-count": lambda: random_unit_interval_union(random.Random(1), "a"),
    "random-union-fractional-count": lambda: random_unit_interval_union(random.Random(1), 2.5),
    "equality-gap-points-string-count": lambda: equality_gap_points("a"),
    # a gap point list or an interior point list that is no iterable raised
    # a bare TypeError
    "gap-points-int": lambda: GapPoints(5),
    "gap-points-none": lambda: GapPoints(None),
    "solynin-interior-int": lambda: solynin_lower(
        make_interval_union([(-1.0, -0.5), (-0.2, 0.2), (0.5, 1.0)]), GapPoints((-0.3, 0.3)), 5),
}
# every real argument read by errors._real, each a call with that argument
# left free; a string and None in it raised a bare TypeError, and each, with
# an integer beyond the float range, gets a row of its own below
ONE_REAL_ARGUMENT = {
    "beurling-length": lambda v: beurling_arc_capacity(v),
    "complete-k-modulus": lambda v: complete_K(v),
    "complete-e-modulus": lambda v: complete_E(v),
    "incomplete-f-sine": lambda v: incomplete_F(v, 0.5),
    "incomplete-f-modulus": lambda v: incomplete_F(0.5, v),
    "theta3-z": lambda v: theta3(v, 0.1),
    "theta3-nome": lambda v: theta3(0.0, v),
    "theta4-z": lambda v: theta4(v, 0.1),
    "theta4-nome": lambda v: theta4(0.0, v),
    "elliptic-params-k": lambda v: EllipticParams(v, 0.8, 0.5, 0.0),
    "elliptic-params-k-prime": lambda v: EllipticParams(0.6, v, 0.5, 0.0),
    "elliptic-params-nome": lambda v: EllipticParams(0.6, 0.8, v, 0.0),
    "elliptic-params-omega": lambda v: EllipticParams(0.6, 0.8, 0.5, v),
    "canonical-set-length": lambda v: canonical_set(v, 3),
    "haliste-length": lambda v: haliste_arcs_capacity(v, 3),
    "gap-division-gap-point": lambda v: gap_division_lower(
        make_interval_union([(-1.0, -0.5), (0.5, 1.0)]), GapPoints((v,))),
    "solynin-gap-point": lambda v: solynin_lower(
        make_interval_union([(-1.0, -0.5), (0.5, 1.0)]), GapPoints((v,))),
    "solynin-interior-point": lambda v: solynin_lower(
        make_interval_union([(-1.0, -0.5), (-0.2, 0.2), (0.5, 1.0)]), GapPoints((-0.3, 0.3)), (v,)),
    "length-within-start": lambda v: CircleArcSet(((0.0, 1.0),)).length_within(v, 1.0),
    "length-within-end": lambda v: CircleArcSet(((0.0, 1.0),)).length_within(0.0, v),
}
for _f in (schiefermayr_lower, polarization_upper, gillis_upper, schiefermayr_upper,
           akhiezer_params, akhiezer_capacity):
    _name = _f.__name__.replace("_", "-")
    ONE_REAL_ARGUMENT[f"{_name}-alpha"] = functools.partial(lambda f, v: f(v, 0.5), _f)
    ONE_REAL_ARGUMENT[f"{_name}-beta"] = functools.partial(lambda f, v: f(-0.5, v), _f)
for _name, _call in ONE_REAL_ARGUMENT.items():
    for _kind, _value in (("string", "abc"), ("none", None), ("huge", 10**400)):
        NON_FINITE_OR_FRACTIONAL_ARGUMENTS[f"{_name}-{_kind}"] = functools.partial(_call, _value)


@pytest.mark.parametrize("case", list(NON_FINITE_OR_FRACTIONAL_ARGUMENTS))
def test_non_finite_or_fractional_arguments_raise_domain_error(case):
    with pytest.raises(DomainError):
        NON_FINITE_OR_FRACTIONAL_ARGUMENTS[case]()


def test_numeric_strings_still_read_as_numbers():
    model = widom_polynomial(make_interval_union([(-1.0, -0.5), (0.5, 1.0)]))
    assert green_value(model, "2.0") == green_value(model, 2.0)
    f = CircleArcSet(((0.0, 1.0),))
    assert sector_product_lower(f, ["0", repr(2.0 * math.pi)]) == sector_product_lower(f, [0.0, 2.0 * math.pi])


def test_numeric_strings_read_as_numbers_in_every_real_argument():
    assert complete_K("0.5") == complete_K(0.5)
    assert theta4("1", "0.25") == theta4(1.0, 0.25)
    assert akhiezer_capacity("-0.5", "0.25") == akhiezer_capacity(-0.5, 0.25)
    assert haliste_arcs_capacity("1.5", 3) == haliste_arcs_capacity(1.5, 3)


def test_arc_and_cell_counts_may_be_numpy_integers():
    assert canonical_set(1.0, np.int64(3)) == canonical_set(1.0, 3)
    assert uniform_measure_partition(np.int64(3)) == uniform_measure_partition(3)
    assert haliste_arcs_capacity(1.0, np.int64(3)) == haliste_arcs_capacity(1.0, 3)


def half_line_tail(f, b, width=2.0):
    """The half-line ladder over (b, infinity), as the Robin tail climbs it, for a closed-form f."""
    return _half_line(f, b, math.inf, width, "tail integral")


def test_tail_integral_inverse_square():
    r = half_line_tail(lambda t: np.sqrt(t - 1.0) / t ** 2, 1.0)
    assert abs(r.value - 1.0) <= max(r.est_error, 1e-13)
    assert r.est_error >= abs(r.value - 1.0)


def test_tail_integral_with_endpoint_singularity():
    r = half_line_tail(lambda t: 1.0 / (t * t), 1.0)
    assert r.value == pytest.approx(math.pi / 2, abs=1e-11)
    assert r.est_error >= abs(r.value - math.pi / 2)


def test_tail_integral_cubic():
    r = half_line_tail(lambda t: np.sqrt(t - 2.0) / t ** 3, 2.0)
    assert r.value == pytest.approx(0.125, abs=1e-13)
    assert r.est_error >= abs(r.value - 0.125)


def test_tail_integral_negative_start():
    # hull far left of zero: the shifted far-substitution must still apply
    r = half_line_tail(lambda t: np.sqrt(t + 5.0) / (1.0 + t * t), -5.0, width=1.0)
    want = math.pi / 2 + math.atan(5.0)
    assert r.value == pytest.approx(want, abs=1e-10)
    assert r.est_error >= abs(r.value - want)


# the three shapes the Widom route hands the ladder: towards +inf (the Robin
# tail, a Green value right of the hull), towards -inf (left of it) and
# towards a finite x on either side (a Green value in a gap), each as
# (f, b, x, width, the integral of f(t) / sqrt|t - b| from b to x)
HALF_LINE_CLOSED_FORMS = {
    "right-to-inf-reciprocal": (lambda t: 1.0 / (1.0 + t), 0.0, math.inf, 1.0, math.pi),
    "right-to-inf-shifted-reciprocal": (lambda t: 1.0 / (t + 1.0), 3.0, math.inf, 2.0, math.pi / 2),
    "right-to-inf-exponential": (lambda t: np.exp(-t), 0.0, math.inf, 1.0, math.sqrt(math.pi)),
    "right-to-inf-damped-cosine": (lambda t: np.exp(-t) * np.cos(t), 0.0, math.inf, 1.0,
                                   math.sqrt(math.pi) * 2.0 ** -0.25 * math.cos(math.pi / 8)),
    "right-to-inf-wide-map": (lambda t: 1.0 / (1.0 + t), 0.0, math.inf, 64.0, math.pi),
    "right-to-inf-narrow-map": (lambda t: 1.0 / (1.0 + t), 0.0, math.inf, 0.25, math.pi),
    "left-to-inf-reciprocal": (lambda t: 1.0 / (-1.0 - t), -2.0, -math.inf, 1.0, math.pi),
    "left-to-inf-exponential": (lambda t: np.exp(t - 1.5), 1.5, -math.inf, 2.0, math.sqrt(math.pi)),
    "right-finite-constant": (lambda t: np.ones_like(t), 0.0, 2.0, 5.0, 2.0 * math.sqrt(2.0)),
    "right-finite-beyond-the-width": (lambda t: np.ones_like(t), 0.0, 10.0, 1.0, 2.0 * math.sqrt(10.0)),
    "right-finite-linear": (lambda t: t - 0.5, 0.5, 1.5, 2.0, 2.0 / 3.0),
    "right-finite-exponential": (lambda t: np.exp(-t), 0.0, 1.0, 2.0, math.sqrt(math.pi) * math.erf(1.0)),
    "left-finite-constant": (lambda t: np.ones_like(t), 1.0, -3.0, 10.0, 4.0),
    "left-finite-exponential": (lambda t: np.exp(t), 0.0, -1.0, 2.0, math.sqrt(math.pi) * math.erf(1.0)),
}


@pytest.mark.parametrize("case", list(HALF_LINE_CLOSED_FORMS))
def test_half_line_matches_closed_forms_in_every_direction(case):
    f, b, x, width, want = HALF_LINE_CLOSED_FORMS[case]
    r = _half_line(f, b, x, width, "test integral")
    assert abs(r.value - want) <= r.est_error, case
    # each converges well within the ladder's one tolerance
    assert r.est_error <= special_module._HALF_LINE_TOL, case
    assert r.nodes_used in (127, 255), case


def test_tail_integral_budget_error_carries_partial():
    def nasty(t):
        return np.cos(50.0 * t) ** 2 * np.sqrt(t) / (1.0 + t * t)

    # the ladder's cap, m = 4096, is its only budget
    with pytest.raises(ConvergenceError, match="did not converge with 4095 nodes") as exc_info:
        half_line_tail(nasty, 0.0)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.nodes_used == 4095
    assert math.isfinite(partial.value)


def closed_form_fejer_weights(m):
    """Fejer's second rule on [-1, 1] by its O(m^2) trigonometric sum, k = 1..m-1."""
    theta = np.arange(1, m) * np.pi / m
    j = np.arange(1, m // 2 + 1)
    sums = (np.sin(np.outer(theta, 2 * j - 1)) / (2 * j - 1)).sum(axis=1)
    return 4.0 * np.sin(theta) / m * sums


@pytest.mark.parametrize("m", [2, 4, 8, 64, 128, 512])
def test_fejer_rule_matches_the_closed_form_and_nests(m):
    nodes, weights = _fejer_rule(m)
    assert np.array_equal(nodes, np.cos(np.arange(1, m) * np.pi / m))
    assert np.abs(weights - closed_form_fejer_weights(m)).max() <= 1e-15
    assert not nodes.flags.writeable and not weights.flags.writeable
    if m > 2:
        # the m/2 rule is the even-indexed half of the nodes, bit for bit
        assert np.array_equal(nodes[1::2], _fejer_rule(m // 2)[0])


@pytest.mark.parametrize("m", [8, 128, 4096])
def test_fejer_rule_integrates_powers_below_m_exactly(m):
    # theta^k over (0, 1), as the ladder maps the rule there
    nodes, weights = _fejer_rule(m)
    theta = 0.5 + 0.5 * nodes
    for k in range(m):
        assert 0.5 * np.dot(weights, theta ** k) == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_half_line_never_accepts_a_non_finite_level():
    # f(t) / sqrt(t) over (0, 1): the map t = tan^2(theta), theta in (0, pi/4)
    top = math.pi / 4
    # inf at a node of the first level, which every level after holds too:
    # the ladder runs to its cap
    first = _half_line_level(0.0, 1.0, 1.0, top, 128)[0][-1]

    def spike(t):
        return np.where(t == first, np.inf, np.sqrt(t))

    # nan only from the m = 512 level on, where a kink has not converged yet
    late = _half_line_level(0.0, 1.0, 1.0, top, 512)[0][-1]

    def kink(t):
        return np.where(t <= late, np.nan, np.sqrt(t) * np.abs(t - 0.3))

    for f, want in ((spike, 1.0), (kink, 0.29)):
        with pytest.raises(ConvergenceError, match="test integral did not converge") as exc_info:
            _half_line(f, 0.0, 1.0, 1.0, "test integral")
        partial = exc_info.value.partial
        assert partial.nodes_used == 4095
        assert partial.value == pytest.approx(want, abs=1e-5)


def test_tail_integral_reports_what_it_evaluates():
    seen = []

    def h(t):
        seen.append(t.size)
        return np.cos(5.0 * t) * np.exp(-t)

    r = half_line_tail(h, 1.0)
    assert seen == [127] + [2 ** k for k in range(7, 7 + len(seen) - 1)]
    assert r.nodes_used == sum(seen)
    assert type(r.value) is float and type(r.est_error) is float and type(r.nodes_used) is int


def test_gap_residuals_match_the_per_gap_loop():
    rng = random.Random(6)
    for n in (3, 8, 20):
        e = random_unit_interval_union(rng, n)
        model = widom_polynomial(e)
        moments, _ = exact_module._moment_vectors(e)
        c = np.array(model.coeffs)
        assert model.gap_residuals == tuple(float(mom[n - 1] + mom[: n - 1] @ c) for mom in moments)


def test_elliptic_params_invariant():
    with pytest.raises(DomainError):
        EllipticParams(k=0.5, k_prime=0.5, q=0.1, omega=0.0)
    with pytest.raises(DomainError, match="nome"):
        EllipticParams(k=0.6, k_prime=0.8, q=1.0, omega=0.0)
    p = EllipticParams(k=0.6, k_prime=0.8, q=0.05, omega=1.0)
    assert p.k ** 2 + p.k_prime ** 2 == pytest.approx(1.0, abs=1e-14)
