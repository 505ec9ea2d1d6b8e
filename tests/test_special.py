"""Elliptic integrals, theta series, quadrature and linear-solve tests.

Frozen reference values were produced with 40-digit mpmath evaluations of
the defining integrals/series; the scipy.integrate.quad oracles recompute
the defining integrals independently of the AGM/Carlson implementations.
"""

import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from logcap import (
    ConvergenceError,
    DomainError,
    SingularMatrixError,
    chebyshev_gauss,
    complete_E,
    complete_K,
    incomplete_F,
    solve_dense,
    tail_integral,
    theta3,
    theta4,
)
from logcap import exact as exact_module
from logcap import canonical_set, green_value, make_interval_union, widom_polynomial
from logcap._kernels import skip_product
from logcap.exact import _tail_integrand
from logcap.special import EllipticParams, _adaptive_gl, _vectorized
from logcap.verify import random_unit_interval_union

from gauss_moments import gauss_widom_model


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


def test_theta_domain():
    with pytest.raises(DomainError):
        theta3(0.0, 1.0)
    with pytest.raises(DomainError):
        theta4(0.0, -0.2)


def test_chebyshev_gauss_examples():
    assert chebyshev_gauss(lambda t: np.ones_like(t), -1, 1, 8) == pytest.approx(math.pi, rel=1e-15)
    assert chebyshev_gauss(lambda t: t, -1, 1, 8) == pytest.approx(0.0, abs=1e-14)
    # int_0^2 t^2/sqrt(t(2-t)) dt = 3*pi/2
    assert chebyshev_gauss(lambda t: t * t, 0, 2, 8) == pytest.approx(1.5 * math.pi, rel=1e-14)


def test_chebyshev_gauss_polynomial_exactness():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        deg = int(rng.integers(0, 2 * m))  # degree <= 2m - 1
        coeffs = rng.standard_normal(deg + 1)
        a = float(rng.uniform(-2, 0))
        b = float(rng.uniform(0.5, 3))

        def g(t):
            return np.polyval(coeffs, t)

        lo = chebyshev_gauss(g, a, b, m)
        hi = chebyshev_gauss(g, a, b, 4 * m + 3)
        assert lo == pytest.approx(hi, rel=1e-12, abs=1e-12)


def test_chebyshev_gauss_scalar_callable():
    got = chebyshev_gauss(lambda t: float(t) ** 2, 0, 2, 16)
    assert got == pytest.approx(1.5 * math.pi, rel=1e-14)


def test_chebyshev_gauss_argument_errors():
    with pytest.raises(DomainError):
        chebyshev_gauss(lambda t: t, 0, 1, 0)
    with pytest.raises(DomainError):
        chebyshev_gauss(lambda t: t, 1, 0, 4)


def test_tail_integral_inverse_square():
    r = tail_integral(lambda t: 1.0 / t ** 2, 1.0, 1e-10)
    assert abs(r.value - 1.0) <= max(r.est_error, 1e-13)
    assert r.est_error >= abs(r.value - 1.0)


def test_tail_integral_with_endpoint_singularity():
    r = tail_integral(lambda t: 1.0 / (t * t * np.sqrt(t - 1.0)), 1.0, 1e-10)
    assert r.value == pytest.approx(math.pi / 2, abs=1e-11)
    assert r.est_error >= abs(r.value - math.pi / 2)


def test_tail_integral_cubic():
    r = tail_integral(lambda t: 1.0 / t ** 3, 2.0, 1e-10)
    assert r.value == pytest.approx(0.125, abs=1e-13)
    assert r.est_error >= abs(r.value - 0.125)


def test_tail_integral_negative_start():
    # hull far left of zero: the shifted far-substitution must still apply
    r = tail_integral(lambda t: 1.0 / (1.0 + t * t), -5.0, 1e-10, width=1.0)
    want = math.pi / 2 + math.atan(5.0)
    assert r.value == pytest.approx(want, abs=1e-10)


def test_tail_integral_budget_error_carries_partial():
    def nasty(t):
        return np.cos(50.0 * t) ** 2 / (1.0 + t * t)

    with pytest.raises(ConvergenceError) as exc_info:
        tail_integral(nasty, 0.0, 1e-13, max_evals=300)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.nodes_used >= 300
    assert math.isfinite(partial.value)


# Depth-first adaptive Gauss-Legendre and the tail and edge integrals built on
# it, as the library computed them one panel at a time.  The level-synchronous
# quadrature must build the same panel tree and return the same bits.

class _DfsBudgetExceeded(Exception):
    pass


def _dfs_adaptive_gl(f, a, b, tol, budget):
    """Adaptive 15-point Gauss-Legendre on [a, b], depth first (right half first)."""
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        budget[0] += nodes.size
        if budget[0] > budget[1]:
            raise _DfsBudgetExceeded()
        return half * float(np.dot(weights, f(mid + half * nodes)))

    total_width = b - a
    value = 0.0
    err = 0.0
    stack = [(a, b, panel(a, b))]
    while stack:
        lo, hi, coarse = stack.pop()
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        fine = left + right
        delta = abs(fine - coarse)
        local_tol = tol * (hi - lo) / total_width
        if delta <= max(local_tol, 1e-16 * abs(fine)) or (hi - lo) <= 1e-14 * total_width:
            value += fine
            err += delta
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return value, err


def dfs_tail_integral(h, b, tol, width=2.0, max_evals=100000):
    """(value, est_error, nodes_used) of the depth-first tail quadrature."""
    T = max(b + width, 0.5 * width)
    hv = _vectorized(h)
    budget = [0, max_evals]

    def near_f(u):
        t = b + (T - b) * u * u
        return 2.0 * (T - b) * u * hv(t)

    def far_f(s):
        return hv(1.0 / s) / (s * s)

    near_val, near_err = _dfs_adaptive_gl(near_f, 0.0, 1.0, 0.5 * tol, budget)
    far_val, far_err = _dfs_adaptive_gl(far_f, 0.0, 1.0 / T, 0.5 * tol, budget)
    return near_val + far_val, near_err + far_err, budget[0]


def dfs_edge_integral(ep, p_hi, skip, base, x, tol):
    """Drop-in for ``logcap.exact._edge_integral`` on the depth-first quadrature."""
    span = abs(x - base)
    direction = 1.0 if x > base else -1.0

    def f(u):
        t = base + direction * u * u
        sp = skip_product(ep, skip, np.ascontiguousarray(t))
        pv = np.polyval(p_hi, t)
        return 2.0 * pv / np.sqrt(np.abs(sp))

    val, _ = _dfs_adaptive_gl(f, 0.0, math.sqrt(span), tol, [0, 200000])
    return val


def assert_same_tail(h, b, tol, **kw):
    """Same bits as the depth-first quadrature, or a ConvergenceError where it runs out."""
    try:
        want = dfs_tail_integral(h, b, tol, **kw)
    except _DfsBudgetExceeded:
        with pytest.raises(ConvergenceError) as exc_info:
            tail_integral(h, b, tol, **kw)
        assert math.isfinite(exc_info.value.partial.value)
        return None
    got = tail_integral(h, b, tol, **kw)
    assert (got.value, got.est_error, got.nodes_used) == want
    assert type(got.value) is float and type(got.est_error) is float
    assert type(got.nodes_used) is int
    return got


def test_tail_integral_matches_depth_first_on_widom_models():
    rng = random.Random(20)
    for n in range(3, 21):
        for _ in range(2):
            model = widom_polynomial(random_unit_interval_union(rng, n))
            a1, bn = model.E.hull
            h = _tail_integrand(model)
            for tol in (1e-10, 1e-8):
                assert_same_tail(h, bn, tol, width=bn - a1)


def test_tail_integral_matches_depth_first_on_smooth_and_oscillatory_integrands():
    cases = [
        (lambda t: 1.0 / (1.0 + t * t), -5.0, 1.0),
        (lambda t: np.exp(-t) / (1.0 + t), 0.5, 2.0),
        (lambda t: 1.0 / (t * t * np.sqrt(t - 1.0)), 1.0, 2.0),
        (lambda t: np.cos(7.0 * t) * np.exp(-t), 0.0, 3.0),
        (lambda t: np.sin(3.0 * t) ** 2 * np.exp(-0.5 * t) / (1.0 + t), 2.0, 0.5),
        (lambda t: math.exp(-t) * math.cos(5.0 * t), 0.0, 2.0),  # scalar-only callable
        (lambda t: np.where(t < 2.3, 1.0, 2.0) / (1.0 + t * t), 0.0, 2.0),  # jump: width floor
    ]
    for h, b, width in cases:
        for tol in (1e-6, 1e-10, 1e-12):
            assert_same_tail(h, b, tol, width=width)


def test_tail_integral_budget_boundary_matches_depth_first():
    def h(t):
        return np.cos(5.0 * t) * np.exp(-t) / np.sqrt(t - 1.0)

    r = assert_same_tail(h, 1.0, 1e-10)
    assert tail_integral(h, 1.0, 1e-10, max_evals=r.nodes_used) == r
    for short in (r.nodes_used - 1, 300):
        assert_same_tail(h, 1.0, 1e-10, max_evals=short)
    # an integrand that oscillates ever faster near s = 1/t = 0 never converges
    assert_same_tail(lambda t: np.cos(20.0 * t) / (1.0 + t * t), 0.0, 1e-10, max_evals=3000)


def evaluations_of(f, b, max_evals):
    """(nodes evaluated, calls of f) by tail_integral(f, b, 1e-10, max_evals=max_evals)."""
    seen = [0, 0]

    def counted(t):
        seen[0] += np.size(t)
        seen[1] += 1
        return f(t)

    try:
        tail_integral(counted, b, 1e-10, max_evals=max_evals)
    except ConvergenceError:
        pass
    return tuple(seen)


def test_tail_integral_prefetch_stays_within_the_budget():
    # the first call also evaluates levels below the two roots, only as far
    # as they fit: at max_evals=30 that is the roots alone
    def h(t):
        return np.cos(5.0 * t) * np.exp(-t) / np.sqrt(t - 1.0)

    def osc(t):
        return np.cos(20.0 * t) / (1.0 + t * t)

    full = tail_integral(h, 1.0, 1e-10).nodes_used
    for f, b, max_evals in [(h, 1.0, m) for m in (full, full - 1, 300)] + [(osc, 0.0, 3000)]:
        nodes, _ = evaluations_of(f, b, max_evals)
        assert 0 < nodes <= max_evals
    assert evaluations_of(h, 1.0, 30) == (30, 1)
    # with the second level prefetched too, the halves of accepted first-level
    # panels go unused: at most 1% over the budget, also where it runs out
    assert evaluations_of(h, 1.0, 100000)[0] <= full + 60
    for max_evals in (12000, 100000):
        nodes, _ = evaluations_of(osc, 0.0, max_evals)
        assert nodes <= 1.01 * max_evals


def test_tail_integral_partial_stays_finite_when_a_node_lands_on_the_endpoint():
    # the near-piece refinement reaches nodes where t rounds onto b and the
    # integrand is infinite; the partial leaves such panels out (the Gauss-ladder
    # model stalls there; the Lobatto-ladder one converges)
    model = gauss_widom_model(canonical_set(math.pi, 20))
    a1, bn = model.E.hull
    with pytest.raises(ConvergenceError) as exc_info:
        tail_integral(_tail_integrand(model), bn, 1e-10, width=bn - a1)
    partial = exc_info.value.partial
    assert partial.nodes_used > 100000
    assert math.isfinite(partial.value)


def test_adaptive_gl_refuses_an_infinite_panel():
    # inf <= inf must pass neither the defect test nor the width floor: the
    # panels holding infinite values keep splitting until the budget runs out
    def step(t):
        return np.where(t < 0.004, np.inf, 1.0)

    def sliver(t):
        # infinite only on nodes closer to 0 than the floor-width panel reaches
        return np.where(t < 1e-16, np.inf, 1.0 / np.sqrt(t))

    piece = (0.0, 1.0, 1e-10, lambda x: x, lambda x, hx: hx)
    for h, max_evals, lo, hi in ((step, 100000, 0.99, 1.0), (sliver, 20000, 1.99, 2.0)):
        with pytest.raises(ConvergenceError) as exc_info:
            _adaptive_gl(h, (piece,), max_evals, "test integral")
        partial = exc_info.value.partial
        assert partial.nodes_used > max_evals
        assert lo < partial.value <= hi


def test_green_value_matches_depth_first(monkeypatch):
    e = make_interval_union([(-1.0, -0.55), (-0.3, 0.1), (0.25, 0.4), (0.7, 1.0)])
    model = widom_polynomial(e)
    points = [-7.0, -1.3, -1.0 - 1e-9, -0.5, -0.42, -0.31, 0.15, 0.2, 0.24,
              0.45, 0.6, 1.0 + 1e-9, 2.5, 40.0]
    got = [green_value(model, x) for x in points]
    monkeypatch.setattr(exact_module, "_edge_integral", dfs_edge_integral)
    want = [green_value(model, x) for x in points]
    assert got == want
    assert all(type(g) is float for g in got)


def test_solve_dense_identity_and_diagonal():
    assert np.allclose(solve_dense(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])
    assert np.allclose(solve_dense([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]), [1, 2])


def test_solve_dense_random_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = int(rng.integers(1, 9))
        m = rng.standard_normal((s, s))
        x0 = rng.standard_normal(s)
        x = solve_dense(m, m @ x0)
        assert np.abs(x - x0).max() < 1e-10


def test_solve_dense_residual_contract():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((8, 8))
    rhs = rng.standard_normal(8)
    x = solve_dense(m, rhs)
    resid = np.abs(m @ x - rhs).max()
    assert resid <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_solve_dense_singular():
    with pytest.raises(SingularMatrixError):
        solve_dense([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])


def test_solve_dense_guard_is_a_singular_value_ratio():
    for m in ([[1.0, 1.0], [1.0, 1.0 + 1e-14]], np.diag([1.0, 1e-14])):
        with pytest.raises(SingularMatrixError):
            solve_dense(m, [1.0, 1.0])
    # well conditioned at any scale
    assert np.allclose(solve_dense(1e-20 * np.eye(3), [1e-20, 2e-20, 3e-20]), [1, 2, 3])
    with pytest.raises(DomainError):
        solve_dense(np.ones((2, 3)), [1.0, 1.0])
    with pytest.raises(DomainError):
        solve_dense(np.eye(3), [1.0, 1.0])


def polyval_tail_integrand(model):
    """The Robin tail integrand as built from np.convolve and evaluated by np.polyval."""
    ep = np.asarray(model.E.endpoints(), dtype=float)
    bn = ep[-1]
    p_hi = np.concatenate(([1.0], np.asarray(model.coeffs[::-1], dtype=float)))
    tp = np.convolve([1.0, 1.0 - bn], p_hi)
    q_hi = np.array([1.0])
    for root in ep:
        q_hi = np.convolve(q_hi, [1.0, -root])
    big_n = (np.convolve(tp, tp) - q_hi)[1:]

    def h(t):
        sq = np.sqrt(np.prod(t[..., None] - ep, axis=-1))
        tau = t - bn + 1.0
        return np.polyval(big_n, t) / (tau * sq * (np.polyval(tp, t) + sq))

    return h


def test_integrands_match_polyval_bit_for_bit(monkeypatch):
    rng = random.Random(5)
    captured = []

    def capture(f, pieces, max_evals, what):
        captured.append((f, pieces[0]))
        return [(0.0, 0.0)], 0

    monkeypatch.setattr(exact_module, "_adaptive_gl", capture)
    for n in (3, 8, 20):
        model = widom_polynomial(random_unit_interval_union(rng, n))
        ep = np.asarray(model.E.endpoints(), dtype=float)
        a1, bn = model.E.hull
        big_t = bn + (bn - a1)
        near = bn + (big_t - bn) * np.linspace(0.0, 1.0, 201) ** 2
        far = np.geomspace(big_t, 1e12, 201)
        # at n = 20 the far end overflows to inf / inf: nan on both sides
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for t in (near, far):
                assert np.array_equal(_tail_integrand(model)(t), polyval_tail_integrand(model)(t),
                                      equal_nan=True)
        p_hi = np.concatenate(([1.0], np.asarray(model.coeffs[::-1], dtype=float)))
        for skip, x in ((0, -3.0), (1, 0.5 * (ep[1] + ep[2])), (2 * n - 1, 40.0)):
            captured.clear()
            exact_module._edge_integral(ep, p_hi, skip, ep[skip], x, 1e-10)
            (f, (u_lo, u_hi, _, to_t, _)), = captured
            t = to_t(np.linspace(u_lo, u_hi, 201))
            want = 2.0 * np.polyval(p_hi, t) / np.sqrt(np.abs(skip_product(ep, skip, t)))
            with np.errstate(divide="ignore"):
                assert np.array_equal(f(t), want, equal_nan=True)


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
    p = EllipticParams(k=0.6, k_prime=0.8, q=0.05, omega=1.0)
    assert p.k ** 2 + p.k_prime ** 2 == pytest.approx(1.0, abs=1e-14)
