"""Exact logarithmic capacity of interval unions.

Two independent routes.  For two intervals the theta-quotient formula of
Akhiezer evaluates the capacity from elliptic moduli; for any number of
intervals the Schwarz-Christoffel construction determines the Green
function's integrand p(t)/sqrt(q(t)) and the capacity follows from the
Robin constant, exp(-R).  The two routes cross-validate each other on
two-interval sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NarrowGapWarning
from .sets import IntervalUnion, normalize_to_unit
from .special import (
    EllipticParams,
    QuadratureResult,
    _adaptive_gl,
    complete_K,
    incomplete_F,
    solve_dense,
    tail_integral,
    theta3,
    theta4,
)

AKHIEZER = "akhiezer"
WIDOM = "widom"
CLOSED_FORM = "closed_form"

NARROW_GAP = 1e-6

_MOMENT_START = 64
_MOMENT_CAP = 4096
_MOMENT_TOL = 1e-12


@dataclass(frozen=True)
class CapacityResult:
    value: float
    method: str
    est_error: float


@dataclass(frozen=True)
class WidomModel:
    """Green-function data for the complement of an interval union.

    ``coeffs`` are the low-order coefficients c_0..c_{n-2} of the monic
    polynomial p(t) = t^{n-1} + ... chosen so that the integral of
    p/sqrt(q) over every gap vanishes; q is monic with the 2n endpoints
    as roots.  ``gap_residuals`` are the achieved gap integrals (ideally
    zero) at ``moment_nodes`` quadrature nodes; ``robin`` is filled in by
    the capacity computation.
    """

    E: IntervalUnion
    coeffs: tuple[float, ...]
    gap_residuals: tuple[float, ...]
    moment_nodes: int
    robin: float | None = None


def _check_two_interval(alpha: float, beta: float) -> None:
    if not (-1.0 < alpha < beta < 1.0):
        raise DomainError(
            f"need -1 < alpha < beta < 1 for [-1,alpha] u [beta,1], got ({alpha}, {beta})"
        )


def _warn_narrow_gaps(e: IntervalUnion) -> None:
    for lo, hi in e.gaps():
        if hi - lo < NARROW_GAP:
            warnings.warn(
                f"gap ({lo}, {hi}) narrower than {NARROW_GAP}; results lose accuracy",
                NarrowGapWarning,
                stacklevel=3,
            )


def akhiezer_params(alpha: float, beta: float) -> EllipticParams:
    """Elliptic moduli (k, k', q, omega) of the set [-1,alpha] u [beta,1]."""
    _check_two_interval(alpha, beta)
    k2 = 2.0 * (beta - alpha) / ((1.0 - alpha) * (1.0 + beta))
    if not 0.0 < k2 < 1.0:
        raise DomainError(f"degenerate configuration, k^2 = {k2}")
    k = math.sqrt(k2)
    kp = math.sqrt(1.0 - k2)
    big_k = complete_K(k)
    big_kp = complete_K(kp)
    q = math.exp(-math.pi * big_kp / big_k)
    lam = math.sqrt((1.0 - alpha) / 2.0)
    omega = math.pi * incomplete_F(lam, k) / (2.0 * big_k)
    return EllipticParams(k, kp, q, omega)


def akhiezer_capacity(alpha: float, beta: float) -> CapacityResult:
    """Capacity of [-1,alpha] u [beta,1] via the theta-quotient formula."""
    _check_two_interval(alpha, beta)
    if beta - alpha < NARROW_GAP:
        warnings.warn(
            f"gap ({alpha}, {beta}) narrower than {NARROW_GAP}; results lose accuracy",
            NarrowGapWarning,
            stacklevel=2,
        )
    params = akhiezer_params(alpha, beta)
    q, omega = params.q, params.omega
    num = theta4(0.0, q) * theta3(0.0, q)
    den = theta4(omega, q) * theta3(omega, q)
    value = 0.5 * (num / den) ** 2
    est = max(1e-13, abs(value) * 1e-13 / (1.0 - q))
    return CapacityResult(value, AKHIEZER, est)


def _moment_vectors(e: IntervalUnion) -> tuple[list[np.ndarray], int]:
    """Converged gap moment integrals S_j = int t^j / sqrt(q), j = 0..n-1, per gap."""
    ep = np.asarray(e.endpoints(), dtype=float)
    n = e.n
    out = []
    worst = _MOMENT_START
    for gap in range(n - 1):
        m = _MOMENT_START
        prev = _kernels.gap_moment_sums(ep, gap, m, n - 1)
        while m < _MOMENT_CAP:
            m *= 2
            cur = _kernels.gap_moment_sums(ep, gap, m, n - 1)
            done = np.max(np.abs(cur - prev)) < _MOMENT_TOL * max(1.0, float(np.max(np.abs(cur))))
            prev = cur
            if done:
                break
        out.append(prev)
        worst = max(worst, m)
    return out, worst


def widom_polynomial(e: IntervalUnion) -> WidomModel:
    """Solve the gap moment system for the monic polynomial p.

    For a single interval the polynomial is the constant 1 and the system
    is vacuous.
    """
    n = e.n
    if n == 1:
        return WidomModel(e, (), (), 0)
    _warn_narrow_gaps(e)
    moments, nodes = _moment_vectors(e)
    mat = np.array([mom[: n - 1] for mom in moments])
    rhs = -np.array([mom[n - 1] for mom in moments])
    c = solve_dense(mat, rhs)
    residuals = tuple(float(mom[n - 1] + mom[: n - 1] @ c) for mom in moments)
    return WidomModel(e, tuple(float(x) for x in c), residuals, nodes)


def _tail_integrand(model: WidomModel):
    """Evaluator of p(t)/sqrt(q(t)) - 1/(1 + t - b_n), stable for huge t.

    Written as N(t) / (tau sqrt(q) (tau p + sqrt(q))) with
    N = (tau p)^2 - q and tau(t) = 1 + t - b_n; the leading terms of N
    cancel in exact coefficient arithmetic, so no subtractive loss occurs
    where p/sqrt(q) and 1/tau nearly agree.
    """
    ep = np.asarray(model.E.endpoints(), dtype=float)
    bn = ep[-1]
    p_hi = np.concatenate(([1.0], np.asarray(model.coeffs[::-1], dtype=float)))
    tp = np.convolve([1.0, 1.0 - bn], p_hi)
    q_hi = np.array([1.0])
    for root in ep:
        q_hi = np.convolve(q_hi, [1.0, -root])
    big_n = np.convolve(tp, tp) - q_hi
    assert big_n[0] == 0.0
    big_n = big_n[1:]

    def h(t):
        t = np.asarray(t, dtype=float)
        sq = np.sqrt(np.prod(t[..., None] - ep, axis=-1))
        tau = t - bn + 1.0
        tpv = np.polyval(tp, t)
        return np.polyval(big_n, t) / (tau * sq * (tpv + sq))

    return h


def _robin_quad(model: WidomModel, tol: float = 1e-10) -> QuadratureResult:
    e = model.E
    a1, bn = e.hull
    h = _tail_integrand(model)
    return tail_integral(h, bn, tol, width=bn - a1)


def robin_constant(model: WidomModel, tol: float = 1e-10) -> float:
    """Robin constant of the set; capacity equals exp(-robin_constant).

    Evaluates the tail integral of p/sqrt(q) - 1/(1 + t - b_n) over
    (b_n, infinity); the shifted comparison term makes the value exact for
    sets whose hull is not [-1, 1] as well.
    """
    return _robin_quad(model, tol).value


def widom_capacity(e: IntervalUnion) -> CapacityResult:
    """Capacity through the Schwarz-Christoffel route (any number of intervals)."""
    if e.n == 1:
        a, b = e.intervals[0]
        return CapacityResult(0.25 * (b - a), CLOSED_FORM, 0.0)
    norm, scale = normalize_to_unit(e)
    model = widom_polynomial(norm)
    quad = _robin_quad(model)
    cap = math.exp(-quad.value)
    resid = sum(abs(r) for r in model.gap_residuals)
    value = scale * cap
    est = value * (quad.est_error + 10.0 * resid) + 1e-15
    return CapacityResult(value, WIDOM, est)


def _edge_integral(ep: np.ndarray, p_hi: np.ndarray, skip: int, base: float,
                   x: float, tol: float) -> float:
    """Integral of p/sqrt(q) from base to x with the 1/sqrt singularity at base.

    ``skip`` is the endpoint index of ``base``; substitution t = base +- u^2.
    Returns the integral with sqrt(q) > 0; orientation is from base towards x.
    """
    span = abs(x - base)
    direction = 1.0 if x > base else -1.0

    def f(t):
        sp = _kernels.skip_product(ep, skip, t)
        return 2.0 * np.polyval(p_hi, t) / np.sqrt(np.abs(sp))

    piece = (0.0, math.sqrt(span), tol, lambda u: base + direction * u * u, lambda u, fu: fu)
    ((val, _),), _ = _adaptive_gl(f, (piece,), 200000, "Green function quadrature")
    return val


def green_value(model: WidomModel, x: float, tol: float = 1e-10) -> float:
    """Green function of the complement (pole at infinity) at a real point x.

    x must lie outside the open intervals of the set; on the set's boundary
    the value reflects the achieved gap residuals and is ~0.  Raises
    ConvergenceError when the quadrature from the nearest endpoint does not
    reach ``tol`` within 200000 evaluations; its ``partial`` is that
    integral so far.
    """
    e = model.E
    n = e.n
    ep = np.asarray(e.endpoints(), dtype=float)
    p_hi = np.concatenate(([1.0], np.asarray(model.coeffs[::-1], dtype=float)))
    a1, bn = e.hull
    for a, b in e.intervals:
        if a < x < b:
            raise DomainError(f"{x} lies inside the set")
    # branch sign of sqrt(q) on gap j, continued from +1 right of the set
    signs = [(-1.0) ** (n - 1 - j) for j in range(n - 1)]
    resid = model.gap_residuals
    if x <= a1:
        if x == a1:
            return 0.0
        return abs(_edge_integral(ep, p_hi, 0, a1, x, tol))
    if x >= bn:
        acc = sum(s * r for s, r in zip(signs, resid))
        if x == bn:
            return abs(acc)
        return abs(acc + _edge_integral(ep, p_hi, 2 * n - 1, bn, x, tol))
    for g, (lo, hi) in enumerate(e.gaps()):
        if lo <= x <= hi:
            acc = sum(signs[j] * resid[j] for j in range(g))
            if x == lo:
                return abs(acc)
            if x == hi:
                return abs(acc + signs[g] * resid[g])
            if x - lo <= hi - x:
                part = _edge_integral(ep, p_hi, 2 * g + 1, lo, x, tol)
            else:
                part = resid[g] - _edge_integral(ep, p_hi, 2 * g + 2, hi, x, tol)
            return abs(acc + signs[g] * part)
    raise DomainError(f"{x} could not be located relative to the set")


def capacity(e: IntervalUnion, method: str = "auto") -> CapacityResult:
    """Logarithmic capacity of an interval union.

    ``method`` selects the route: "auto" uses the closed form for one
    interval, the theta formula for two and the Schwarz-Christoffel route
    otherwise; "akhiezer" and "widom" force a route (the theta formula
    requires exactly two intervals).
    """
    if method == "auto":
        if e.n == 2:
            return _akhiezer_on(e)
        return widom_capacity(e)
    if method == AKHIEZER:
        if e.n != 2:
            raise DomainError("theta-quotient formula needs exactly two intervals")
        return _akhiezer_on(e)
    if method == WIDOM:
        return widom_capacity(e)
    raise DomainError(f"unknown method {method!r}")


def _akhiezer_on(e: IntervalUnion) -> CapacityResult:
    norm, scale = normalize_to_unit(e)
    alpha = norm.intervals[0][1]
    beta = norm.intervals[1][0]
    res = akhiezer_capacity(alpha, beta)
    return CapacityResult(res.value * scale, AKHIEZER, res.est_error * scale)
