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
from numpy.linalg import _umath_linalg

from . import _kernels
from .errors import ConvergenceError, DomainError, SingularMatrixError, _brief, _real
from .sets import IntervalUnion, _check_two_interval, _left_sum, normalize_to_unit
from .special import (
    _LADDER,
    EllipticParams,
    QuadratureResult,
    _carlson_rf,
    _complete_K_of_kp,
    _half_line,
    complete_K,  # noqa: F401  unused; perfbench/tracing.py hooks these three names here, as it hooks solve_dense
    incomplete_F,  # noqa: F401
    tail_integral,
    theta3,  # noqa: F401
    theta4,
)

AKHIEZER = "akhiezer"
WIDOM = "widom"
CLOSED_FORM = "closed_form"

_MOMENT_TOL = 1e-12

# the LAPACK gufuncs that np.linalg.svd(m, compute_uv=False) and
# np.linalg.solve(m, v) call for a float matrix and a 1-D right-hand side
_lapack_svd = _umath_linalg.svd
_lapack_solve1 = _umath_linalg.solve1


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
    alpha, beta = _check_two_interval(alpha, beta)
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


def _converged(fine: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Which rows of a level pass, diff = |fine - coarse|: below _MOMENT_TOL relative to max(1, largest moment)."""
    return diff.max(axis=1) < _MOMENT_TOL * np.maximum(1.0, abs(fine).max(axis=1))


def _moment_vectors(e: IntervalUnion) -> tuple[np.ndarray, int]:
    """Converged gap moment integrals S_j = int t^j / sqrt(q), j = 0..n-1, a row per gap (n >= 2).

    Also returns the largest Lobatto interval count m any gap needed.  The
    ladder, ``special._LADDER``, climbs level by level from m = 32, where
    nearly every gap of a smooth set already passes, to the cap at 4096:
    one kernel call per run of consecutive gaps still pending, then one
    test of all of them.  A call covers at most ``_LADDER[-1] // m`` gaps
    (128 at m = 32), so it holds no more nodes than one gap at the cap.
    Up to that many gaps the first level is one call over all of them,
    whose rows are returned as they are when every gap passes; otherwise
    the pending gaps go on from the second level.  Up to 129 intervals the
    rows come back as the kernel lays them out, the gap axis contiguous,
    which the residuals' last bits depend on; past that every gap starts
    pending, and the rows are those of a C-ordered array, each row
    contiguous.  The first level forms |fine - coarse| once; when its
    largest entry is below _MOMENT_TOL, every gap passes, since no row's
    bound is smaller, and the per-row maxima are skipped.
    Raises ConvergenceError, naming the lowest such gap, when a gap's
    m-interval and m/2-interval rules still disagree at the cap.  A node
    that rounds onto an endpoint makes a level inf or nan, and so does a
    moment beyond the float range, on a set far from the origin; the test
    never accepts either, so numpy's divide, overflow and invalid warnings
    are silenced for the whole ladder.
    """
    ep = np.asarray(e.endpoints(), dtype=float)
    n = e.n
    m = _LADDER[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n - 1 <= _LADDER[-1] // m:
            out, coarse = _kernels.gap_moment_sums(ep, 0, m, n - 1, n - 1)
            diff = abs(out - coarse)
            if diff.max() < _MOMENT_TOL:  # a nan fails here and in the per-row test
                return out, m
            pending = np.flatnonzero(~_converged(out, diff))
            if not pending.size:
                return out, m
            rungs = _LADDER[1:]
        else:
            out, pending, rungs = np.empty((n - 1, n)), np.arange(n - 1), _LADDER
        for m in rungs:
            runs = _gap_runs(pending.tolist(), _LADDER[-1] // m)
            sums = [_kernels.gap_moment_sums(ep, start, m, n - 1, stop) for start, stop in runs]
            fine, coarse = sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)
            done = _converged(fine, abs(fine - coarse))
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


# a module global that widom_polynomial calls by name: perfbench/tracing.py hooks it here
def solve_dense(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve the moment system m x = v with LAPACK's partially pivoted LU (gesv).

    m and v are finite: ``_moment_vectors`` accepts no row holding a nan
    or an infinity.  Raises SingularMatrixError when sigma_min(m) <= 1e-13
    sigma_max(m), a test independent of the scale of m, or when LAPACK
    meets a zero pivot.  The guard and the solve call the gufuncs that
    ``np.linalg.svd(m, compute_uv=False)`` and ``np.linalg.solve(m, v)``
    run, with the same operands, so they return those calls' bits without
    their wrappers' cost.
    """
    # each gufunc flags a LAPACK failure as an invalid value and nothing
    # else: it clears the flags that LAPACK's own arithmetic raised
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            sigma = _lapack_svd(m, signature="d->d")
        except FloatingPointError as exc:
            raise SingularMatrixError("LAPACK: SVD did not converge") from exc
        if not sigma[-1] > 1e-13 * sigma[0]:
            raise SingularMatrixError(f"singular values {sigma[-1]:.3e} <= 1e-13 x {sigma[0]:.3e}")
        try:
            return _lapack_solve1(m, v, signature="dd->d")
        except FloatingPointError as exc:
            raise SingularMatrixError("LAPACK: Singular matrix") from exc


def widom_polynomial(e: IntervalUnion) -> WidomModel:
    """Solve the gap moment system for the monic polynomial p.

    For a single interval the polynomial is the constant 1 and the system
    is vacuous.  Raises ConvergenceError when a gap's moments do not
    converge within the Lobatto ladder's cap.  Works in e's own coordinates,
    without ``capacity``'s map onto [-1, 1]: far from the origin the system
    is singular (SingularMatrixError), so build on ``normalize_to_unit(e)``.
    """
    n = e.n
    if n == 1:
        return WidomModel(e, (), (), 0)
    moments, nodes = _moment_vectors(e)
    mat, last = moments[:, : n - 1], moments[:, n - 1]
    c = solve_dense(mat, -last)
    # the residuals' last bits, and est_error's, depend on the layout of
    # mat: the kernel returns the moments with the gap axis contiguous, and
    # vecdot rounds those strided rows otherwise than it rounds a contiguous
    # copy of them, and otherwise than mat @ c does
    residuals = last + np.vecdot(mat, c)
    return WidomModel(e, tuple(c.tolist()), tuple(residuals.tolist()), nodes)


# the powers s^0..s^31 of an ``_offset_series`` entry: every p of degree
# n - 1 <= 31 (the monomial solve gives out below that) reads the same
# entry; a larger n takes the next multiple of 32
_SERIES = 32


def _series_size(n: int) -> int:
    """The multiple of ``_SERIES`` that holds n Taylor coefficients."""
    return _SERIES * -(-n // _SERIES)


@functools.lru_cache(maxsize=32)
def _shift_matrix(base: float, n: int) -> np.ndarray:
    """S[k, j] = C(j, k) base^(j - k) for j, k < n, as floats (shared, read-only).

    Pascal's matrix by column sums, C(j, k) = C(j - 1, k) + C(j - 1, k - 1),
    each exact while C(j, k) < 2^53 (all j <= 56), times base^i, the
    product of i factors base from the left: at base = 1, as in every
    Robin tail on the unit hull, S is Pascal's matrix.  Each Robin tail's
    n, and each endpoint a Green function is integrated from, builds S
    once.  Near the largest float the powers overflow, as Horner's powers
    of t would, inside the caller's errstate.
    """
    out = np.zeros((n, n))
    out[0] = 1.0
    for j in range(1, n):
        out[1:, j] = out[1:, j - 1] + out[:-1, j - 1]
    lag = np.arange(n)
    powers = np.multiply.accumulate(np.where(lag, base, 1.0))
    out *= powers[np.maximum(lag - lag[:, None], 0)]
    out.flags.writeable = False
    return out


def _taylor_coefficients(coeffs: tuple[float, ...], base: float) -> np.ndarray:
    """Coefficients d_k of p(base + s) = sum_k d_k s^k, p monic with low-order coefficients ``coeffs``.

    d = S (c_0, ..., c_{n-2}, 1), one vecdot per row of the cached
    ``_shift_matrix`` S, for every base.  Right of b_n every d_k is
    positive: p has one root in each gap, all left of b_n, so
    p(b_n + s) = prod_k (s + b_n - z_k).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.vecdot(_shift_matrix(base, len(coeffs) + 1), np.array((*coeffs, 1.0)))


@functools.lru_cache(maxsize=16)
def _offset_series(base: float, sign: float, nodes: bytes, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Powers of s = t - base and the comparison term at float64 nodes t (shared, read-only).

    The powers are s^0..s^(size - 1), a contiguous row per node, each the
    one before times s; the term is sign sqrt(off)/(1 + off), off = |s|.
    Keyed by the nodes' bytes and not by n: every Robin tail gets the same
    nodes from the half-line ladder and, whatever its n up to ``_SERIES``,
    reads the same entry per level.  At the deep levels the high powers
    overflow, inside the ladder's errstate; p reads inf only where its
    endpoint product, of higher degree in t, has overflowed too, and the
    value is nan anyway.
    """
    s = np.frombuffer(nodes) - base
    powers = np.empty((s.size, size))
    powers[:, 0] = 1.0
    powers[:, 1:] = s[:, None]
    np.multiply.accumulate(powers[:, 1:], axis=1, out=powers[:, 1:])
    off = abs(s)
    term = sign * np.sqrt(off) / (1.0 + off)
    powers.flags.writeable = term.flags.writeable = False
    return powers, term


def _green_integrand(model: WidomModel, skip: int, sign: float):
    """Evaluator of the regular part of p/sqrt|q| at endpoint ``skip``, in product form.

    Returns f(t) = p(t) / prod sqrt|t - e| over the endpoints but e_skip,
    minus sign sqrt(off)/(1 + off), off = |t - e_skip|, so that
    f(t)/sqrt(off) = p/sqrt|q| - sign/(1 + off).  No coefficient of q is
    formed, and the base root is left out, so a node that rounds onto
    e_skip still has a finite value.  p is its Taylor series at e_skip in
    the signed offset s = t - e_skip, its coefficients shifted to e_skip
    by the cached ``_shift_matrix`` of e_skip and n: at each node, one dot
    of the node's row of powers of s with the coefficients.
    A vecdot per row, not a matrix product, so a node's value does not
    depend on how many nodes share the call.  Right of b_n no term of the
    sum is negative.  Where the product overflows, p / inf would read 0:
    the value is nan instead, so an overflow never passes for a finite
    value.  The powers and the comparison term depend only on t, e_skip
    and sign, and come from one ``_offset_series`` entry per level.
    """
    ep = np.asarray(model.E.endpoints(), dtype=float)
    # the other endpoints as a column: the product over them runs down
    # axis 0, one vector multiplication per endpoint, in endpoint order
    base, others = ep[skip], np.concatenate((ep[:skip], ep[skip + 1:]))[:, None]
    d = _taylor_coefficients(model.coeffs, base)
    n = d.size
    size = _series_size(n)

    def f(t):
        powers, term = _offset_series(base, sign, t.tobytes(), size)
        y = np.vecdot(powers[:, :n], d)
        # abs and sqrt in place: one (2n - 1, nodes) array per level, not three
        x = others - t
        np.abs(x, out=x)
        np.sqrt(x, out=x)
        root = np.multiply.reduce(x, axis=0)
        return np.where(root < np.inf, y / root, np.nan) - term

    return f


def _robin_quad(model: WidomModel) -> QuadratureResult:
    a1, bn = model.E.hull
    return tail_integral(_green_integrand(model, 2 * model.E.n - 1, 1.0), bn, 1e-10, width=bn - a1)


def robin_constant(model: WidomModel) -> float:
    """Robin constant of the set; capacity equals exp(-robin_constant).

    Evaluates the tail integral of p/sqrt(q) - 1/(1 + t - b_n) over
    (b_n, infinity) to 1e-10; the shifted comparison term makes the value
    exact for sets whose hull is not [-1, 1] as well.  For a set far from
    the origin, take the model of its normalized image and subtract log(scale).
    """
    return _robin_quad(model).value


def widom_capacity(e: IntervalUnion) -> CapacityResult:
    """Capacity through the Schwarz-Christoffel route (any number of intervals): ``capacity(e, "widom")``."""
    return capacity(e, WIDOM)


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
    DomainError when x is nan or no number within the float range, and,
    before any evaluation, when tol is not a positive number; at an x on
    the set's boundary, which needs no quadrature, tol is not checked.  The
    model and x are in the set's own coordinates (see widom_polynomial).
    """
    e = model.E
    n = e.n
    ep = np.asarray(e.endpoints(), dtype=float)
    x = _real(x, "x")
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
    ("widom") otherwise, which has a closed form for one interval, with
    error 0; the theta formula requires exactly two intervals.  Either
    route runs on the affine image of e with hull [-1, 1], and value and
    error are scaled back by the half-width (cap(a e + b) = |a| cap(e));
    the error is at least one ulp of the value.
    """
    if method == "auto":
        method = AKHIEZER if e.n == 2 else WIDOM
    elif method == AKHIEZER:
        if e.n != 2:
            raise DomainError("theta-quotient formula needs exactly two intervals")
    elif method != WIDOM:
        raise DomainError(f"unknown method {_brief(method)}")
    if e.n == 1:
        # (b - a)/4 as one correctly rounded quotient of integers, which
        # neither overflows nor rounds twice where the ends are subnormal
        (na, da), (nb, db) = (x.as_integer_ratio() for x in e.intervals[0])
        return CapacityResult((nb * da - na * db) / (4 * da * db), CLOSED_FORM, 0.0)
    norm, scale = normalize_to_unit(e)
    if method == AKHIEZER:
        res = akhiezer_capacity(norm.intervals[0][1], norm.intervals[1][0])
    else:
        model = widom_polynomial(norm)
        quad = _robin_quad(model)
        cap = math.exp(-quad.value)
        resid = _left_sum(map(abs, model.gap_residuals))
        res = CapacityResult(cap, WIDOM, cap * (quad.est_error + 10.0 * resid) + 1e-15)
    value = scale * res.value
    return CapacityResult(value, res.method, max(scale * res.est_error, math.ulp(value)))
