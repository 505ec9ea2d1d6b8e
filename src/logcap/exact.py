"""Exact logarithmic capacity of interval unions.

Two independent routes.  For two intervals the theta-quotient formula of
Akhiezer evaluates the capacity from elliptic moduli; for any number of
intervals the Schwarz-Christoffel construction determines the Green
function's integrand p(t)/sqrt(q(t)) and the capacity follows from the
Robin constant, exp(-R).  The two routes cross-validate each other on
two-interval sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError, _brief
from .sets import IntervalUnion, _check_two_interval, normalize_to_unit
from .special import (
    _LADDER,
    EllipticParams,
    QuadratureResult,
    _carlson_rf,
    _complete_K_of_kp,
    _half_line,
    complete_K,  # noqa: F401  unused; perfbench/tracing.py hooks these three names here
    incomplete_F,  # noqa: F401
    solve_dense,
    tail_integral,
    theta3,  # noqa: F401
    theta4,
)

AKHIEZER = "akhiezer"
WIDOM = "widom"
CLOSED_FORM = "closed_form"

_MOMENT_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class CapacityResult:
    value: float
    method: str
    est_error: float


@dataclass(frozen=True, slots=True)
class WidomModel:
    """Green-function data for the complement of an interval union.

    ``coeffs`` are the low-order coefficients c_0..c_{n-2} of the monic
    polynomial p(t) = t^{n-1} + ... chosen so that the integral of
    p/sqrt(q) over every gap vanishes; q is monic with the 2n endpoints
    as roots.  ``gap_residuals`` are the achieved gap integrals (ideally
    zero); ``moment_nodes`` is the largest Chebyshev-Lobatto interval count
    m any gap's moments needed (m + 1 nodes; 0 for a single interval).
    """

    E: IntervalUnion
    coeffs: tuple[float, ...]
    gap_residuals: tuple[float, ...]
    moment_nodes: int


def akhiezer_params(alpha: float, beta: float) -> EllipticParams:
    """Elliptic moduli (k, k', q, omega) of the set [-1,alpha] u [beta,1].

    The smaller of k^2 and k'^2, and the arguments of Carlson's R_F, come
    from closed forms in alpha and beta, so thin components keep their digits.
    """
    _check_two_interval(alpha, beta)
    den = (1.0 - alpha) * (1.0 + beta)
    k2 = 2.0 * (beta - alpha) / den
    kp2 = (1.0 + alpha) * (1.0 - beta) / den
    k2, kp2 = (1.0 - kp2, kp2) if k2 > kp2 else (k2, 1.0 - k2)
    if not (k2 > 0.0 and kp2 > 0.0):
        raise DomainError(f"degenerate configuration, k^2 = {k2}, k'^2 = {kp2}")
    k = math.sqrt(k2)
    kp = math.sqrt(kp2)
    big_k = _complete_K_of_kp(kp)
    big_kp = _complete_K_of_kp(k)
    q = math.exp(-math.pi * big_kp / big_k)
    # F(arcsin(lam), k) with 1 - lam^2 = (1 + alpha)/2, 1 - k^2 lam^2 = (1 + alpha)/(1 + beta)
    lam = math.sqrt((1.0 - alpha) / 2.0)
    big_f = lam * _carlson_rf(0.5 * (1.0 + alpha), (1.0 + alpha) / (1.0 + beta), 1.0)
    omega = math.pi * big_f / (2.0 * big_k)
    return EllipticParams(k, kp, q, omega)


def akhiezer_capacity(alpha: float, beta: float) -> CapacityResult:
    """Capacity of [-1,alpha] u [beta,1] via the theta-quotient formula.

    The quotient theta4 theta3 at 0 over theta4 theta3 at omega, nome q, is
    evaluated as theta4(0) over theta4(2 omega) at nome q^2, by
    theta3(z, q) theta4(z, q) = theta4(0, q^2) theta4(2z, q^2): two series
    instead of four, each shorter and cancelling less.  ``est_error`` is
    relative to the value: value 1e-13 / (1 - q).
    """
    params = akhiezer_params(alpha, beta)
    q2 = params.q * params.q
    value = 0.5 * (theta4(0.0, q2) / theta4(2.0 * params.omega, q2)) ** 2
    return CapacityResult(value, AKHIEZER, value * 1e-13 / (1.0 - params.q))


def _gap_runs(gaps: list[int], size: int) -> list[list[int]]:
    """The sorted ``gaps`` as ranges [start, stop) of consecutive gaps, none over ``size`` long."""
    runs = []
    for g in gaps:
        if runs and runs[-1][1] == g and g - runs[-1][0] < size:
            runs[-1][1] = g + 1
        else:
            runs.append([g, g + 1])
    return runs


def _converged(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Which rows of a level pass: the two rules agree to _MOMENT_TOL relative to max(1, largest moment)."""
    return (abs(fine - coarse).max(axis=1)
            < _MOMENT_TOL * np.maximum(1.0, abs(fine).max(axis=1)))


def _moment_vectors(e: IntervalUnion) -> tuple[np.ndarray, int]:
    """Converged gap moment integrals S_j = int t^j / sqrt(q), j = 0..n-1, a row per gap.

    Also returns the largest Lobatto interval count m any gap needed.  The
    ladder, ``special._LADDER``, climbs level by level from m = 32, where
    nearly every gap of a smooth set already passes, to the cap at 4096:
    one kernel call per run of consecutive gaps still pending, then one
    test of all of them.  A call covers at most ``_LADDER[-1] // m`` gaps
    (128 at m = 32), so it holds no more nodes than one gap at the cap.
    Up to that many gaps the first level is one call over all of them,
    whose rows are returned as they are when every gap passes; otherwise
    the pending gaps go on from the second level.
    Raises ConvergenceError, naming the lowest such gap, when a gap's
    m-interval and m/2-interval rules still disagree at the cap.  A node
    that rounds onto an endpoint makes a level inf or nan, which the test
    never accepts, so numpy's divide and invalid warnings are silenced for
    the whole ladder.
    """
    ep = np.asarray(e.endpoints(), dtype=float)
    n = e.n
    m = _LADDER[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        if n - 1 <= _LADDER[-1] // m:
            out, coarse = _kernels.gap_moment_sums(ep, 0, m, n - 1, n - 1)
            pending = np.flatnonzero(~_converged(out, coarse))
            if not pending.size:
                return out, m
            rungs = _LADDER[1:]
        else:
            out, pending, rungs = np.empty((n - 1, n)), np.arange(n - 1), _LADDER
        for m in rungs:
            runs = _gap_runs(pending.tolist(), _LADDER[-1] // m)
            sums = [_kernels.gap_moment_sums(ep, start, m, n - 1, stop) for start, stop in runs]
            fine, coarse = sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)
            done = _converged(fine, coarse)
            out[pending[done]] = fine[done]
            pending = pending[~done]
            if not pending.size:
                return out, m
    gap = int(pending[0])
    lo, hi = ep[2 * gap + 1], ep[2 * gap + 2]
    raise ConvergenceError(
        f"gap moments on gap {gap} ({lo}, {hi}) did not converge "
        f"with {m + 1} Lobatto nodes ({m} intervals)"
    )


def widom_polynomial(e: IntervalUnion) -> WidomModel:
    """Solve the gap moment system for the monic polynomial p.

    For a single interval the polynomial is the constant 1 and the system
    is vacuous.  Raises ConvergenceError when a gap's moments do not
    converge within the Lobatto ladder's cap.
    """
    n = e.n
    if n == 1:
        return WidomModel(e, (), (), 0)
    moments, nodes = _moment_vectors(e)
    mat, last = moments[:, : n - 1], moments[:, n - 1]
    c = solve_dense(mat, -last)
    # vecdot runs numpy's dot kernel row by row, as mom[: n - 1] @ c does
    residuals = last + np.vecdot(mat, c)
    return WidomModel(e, tuple(c.tolist()), tuple(residuals.tolist()), nodes)


@functools.lru_cache(maxsize=16)
def _offset_terms(base: float, sign: float, nodes: bytes) -> np.ndarray:
    """sign sqrt(off)/(1 + off), off = |t - base|, at float64 nodes t (shared, read-only).

    Keyed by the nodes' bytes: every Robin tail gets the same nodes from the
    half-line ladder, so the term is computed once per level.
    """
    off = abs(np.frombuffer(nodes) - base)
    term = sign * np.sqrt(off) / (1.0 + off)
    term.flags.writeable = False
    return term


def _green_integrand(model: WidomModel, skip: int, sign: float):
    """Evaluator of the regular part of p/sqrt|q| at endpoint ``skip``, in product form.

    Returns f(t) = p(t) / prod sqrt|t - e| over the endpoints but e_skip,
    minus sign sqrt(off)/(1 + off), off = |t - e_skip|, so that
    f(t)/sqrt(off) = p/sqrt|q| - sign/(1 + off).  No coefficient of q is
    formed, and the base root is left out, so a node that rounds onto
    e_skip still has a finite value.  Where the product overflows, p / inf
    would read 0: the value is nan instead, so an overflow never passes for
    a finite value.  The comparison term depends only on t, e_skip and
    sign, and comes from ``_offset_terms``.
    """
    ep = np.asarray(model.E.endpoints(), dtype=float)
    # the other endpoints as a column: the product over them runs down
    # axis 0, one vector multiplication per endpoint, in endpoint order
    base, others = ep[skip], np.concatenate((ep[:skip], ep[skip + 1:]))[:, None]
    # p's coefficients, highest first, as 0-d arrays: numpy adds one to a
    # vector in about half the time it takes to add a Python float
    p = np.array((1.0, *model.coeffs[::-1]))
    p = [p[i, ...] for i in range(p.size)]

    def f(t):
        # Horner's rule in place, with the roundings of np.polyval
        y = np.full_like(t, p[0], dtype=float)
        for c in p[1:]:
            y *= t
            y += c
        root = np.multiply.reduce(np.sqrt(np.abs(others - t)), axis=0)
        return np.where(root < np.inf, y / root, np.nan) - _offset_terms(base, sign, t.tobytes())

    return f


def _robin_quad(model: WidomModel) -> QuadratureResult:
    a1, bn = model.E.hull
    return tail_integral(_green_integrand(model, 2 * model.E.n - 1, 1.0), bn, 1e-10, width=bn - a1)


def robin_constant(model: WidomModel) -> float:
    """Robin constant of the set; capacity equals exp(-robin_constant).

    Evaluates the tail integral of p/sqrt(q) - 1/(1 + t - b_n) over
    (b_n, infinity) to 1e-10; the shifted comparison term makes the value
    exact for sets whose hull is not [-1, 1] as well.
    """
    return _robin_quad(model).value


def widom_capacity(e: IntervalUnion) -> CapacityResult:
    """Capacity through the Schwarz-Christoffel route (any number of intervals).

    Runs on the affine image of e with hull [-1, 1]; value and error are
    scaled back by the half-width, and the error is at least one ulp of
    the value; one interval has a closed form, with error 0.
    """
    if e.n == 1:
        # (b - a)/4 as one correctly rounded quotient of integers, which
        # neither overflows nor rounds twice where the ends are subnormal
        (na, da), (nb, db) = (x.as_integer_ratio() for x in e.intervals[0])
        return CapacityResult((nb * da - na * db) / (4 * da * db), CLOSED_FORM, 0.0)
    norm, scale = normalize_to_unit(e)
    model = widom_polynomial(norm)
    quad = _robin_quad(model)
    cap = math.exp(-quad.value)
    resid = sum(abs(r) for r in model.gap_residuals)
    est = cap * (quad.est_error + 10.0 * resid) + 1e-15
    value = scale * cap
    return CapacityResult(value, WIDOM, max(scale * est, math.ulp(value)))


def green_value(model: WidomModel, x: float, tol: float = 1e-10) -> float:
    """Green function of the complement (pole at infinity) at a real point x.

    x must lie outside the open intervals of the set; on the set's boundary
    the value reflects the achieved gap residuals and is ~0.  The value is
    integrated from the nearer endpoint of x's gap (the left one on a tie),
    or the nearer hull end, on top of the signed gap residuals left of that
    endpoint.  Outside the hull, where p/sqrt|q| ~ sign/|t|, the integrand
    is p/sqrt|q| - sign/(1 + |t - base|) and sign log1p(span) is added
    back, so far points converge.  Raises ConvergenceError when that
    quadrature does not reach ``tol`` at the cap of its ladder; its
    ``partial`` is the quadrature's, without the sign log1p(span).  Raises
    DomainError when x is nan or beyond the float range, and, before any
    evaluation, when tol is not positive; at an x on the set's boundary,
    which needs no quadrature, tol is not checked.
    """
    e = model.E
    n = e.n
    ep = np.asarray(e.endpoints(), dtype=float)
    try:
        x = float(x)
    except OverflowError:
        raise DomainError("x is too large for a float") from None
    if math.isnan(x):
        raise DomainError("x is nan")
    i = int(np.searchsorted(ep, x))  # ep[i - 1] < x <= ep[i]
    if i % 2 and x < ep[i]:
        raise DomainError(f"{x} lies inside the set")
    lo, hi = max(i - 1, 0), min(i, 2 * n - 1)
    k = lo if x - ep[lo] <= ep[hi] - x else hi
    # endpoint k bounds component j; G there is the sum of the gap residuals
    # left of it, each times the branch sign of sqrt(q) on its gap, and G
    # moves from there by the integral towards x times the branch sign right
    # of component j (for x left of it, that of its left gap, negated)
    j = k // 2
    signs = (-1.0) ** np.arange(n - 1, -1, -1)
    before = np.concatenate(([0.0], np.cumsum(signs[:-1] * model.gap_residuals)))[j]
    branch = signs[j]
    span = abs(x - ep[k])
    if span == 0.0:
        return abs(float(before))
    # the sign of p/sqrt|q| outside the hull is the branch of its end; 0 inside it
    sign = 0.0 if ep[0] < x < ep[-1] else float(branch)
    integrand = _green_integrand(model, k, sign)
    quad = _half_line(integrand, ep[k], x, tol, ep[-1] - ep[0], "Green function quadrature")
    return abs(float(before + branch * (quad.value + sign * math.log1p(span))))


def capacity(e: IntervalUnion, method: str = "auto") -> CapacityResult:
    """Logarithmic capacity of an interval union.

    ``method`` selects the route: "auto" takes the theta formula
    ("akhiezer") for two intervals and the Schwarz-Christoffel route
    ("widom") otherwise, which has a closed form for one interval; the
    theta formula requires exactly two intervals.  The route runs on the
    affine image of e with hull [-1, 1], and value and error are scaled
    back by the half-width (cap(a e + b) = |a| cap(e)); but for the closed
    form, the error is at least one ulp of the value.
    """
    if method == "auto":
        method = AKHIEZER if e.n == 2 else WIDOM
    if method == WIDOM:
        return widom_capacity(e)
    if method != AKHIEZER:
        raise DomainError(f"unknown method {_brief(method)}")
    if e.n != 2:
        raise DomainError("theta-quotient formula needs exactly two intervals")
    norm, scale = normalize_to_unit(e)
    res = akhiezer_capacity(norm.intervals[0][1], norm.intervals[1][0])
    value = scale * res.value
    return CapacityResult(value, AKHIEZER, max(scale * res.est_error, math.ulp(value)))
