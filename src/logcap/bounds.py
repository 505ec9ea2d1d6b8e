"""Elementary lower and upper bounds for the capacity of interval unions.

Lower bounds: the classical measure bound, Schiefermayr's two-interval
bound, Solynin's tailored-partition bound, the general partition bound,
and the gap-division bound.  Upper bounds: the trivial 1/2, polarization,
Gillis, Schiefermayr's elliptic-integral bound, and the circle-projection
bound.  Products of powers are evaluated in the log domain; a vanishing
factor short-circuits to 0.  The checks of a set's shape are ``sets.py``'s;
this module checks only its bounds' own parameters.

Every factor is one formula, the partition cell term, written once as
:func:`_cell_log` for the public bounds.  It serves the partition,
Solynin and sector-product bounds, and the gap-division bound too: the
factor (cos p - cos q) / 2 of a component equals
sin((q - p) / 2) sin((p + q) / 2), so its log is the mean of two cell
terms of the same cell.  Every arccos width of a part of the set, a
component or its intersection with a partition cell, comes from
``sets._arcs``, which keeps the digits of a thin component.  The
bounds compute on Python floats with ``math``: a set has a handful of
components, and a numpy call on so few costs more than its arithmetic.

The Solynin and gap-division bounds have free division points.  Both are
chains: each factor depends only on its two neighbouring points, and
each chain sum is concave in the arccos angles of the points.  Their
maximizers climb by damped Newton steps, on a tridiagonal Hessian.
:func:`_chain_eval` takes each link's value and derivatives by the chain
rule from the cell term's closed-form derivatives, in one kernel per
chain: Solynin's one mu anchored at the cell's low or high end, gap
division's constant width and its mu = c - 2 th_hi.  Their coefficients
0, +-1, +-2 and 4 multiply exactly, so each kernel gives the bits of the
generic link formula that the tests keep as its reference.  The arccos
angles of the set's interior endpoints are taken once per chain: they
are the ends of its angle boxes, its start's anchors and Solynin's link
constants.
The gap points start at the centres of their angle boxes, and Solynin's
interior split points at the optimum of their two cells for small
gaps.  Every trial point takes one :func:`_chain_eval` but the last:
an interior step that no box end clips and that predicts a rise of at
most _LAST_RISE of the sum is taken unevaluated, since by Newton's
quadratic convergence the rise predicted after it is far below
_NEWTON_TOL.  Otherwise the ascent stops at an evaluated point where
Newton's predicted rise is at most _NEWTON_TOL of the sum.  Each public
bound is evaluated once at the points its ascent returns, so every
value is the bound at its own points.  At n = 2 the two chains are one
function of the gap point, and ``all_bounds`` runs one ascent for both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, _brief
from .sets import (
    CircleArcSet,
    GapPoints,
    IntervalUnion,
    Partition,
    _arcs,
    _check_arc_family,
    _check_count,
    _check_two_interval,
    _require_unit_hull,
    _require_unit_subset,
    normalize_to_unit,
)
from .special import (
    _agm,
    complete_E,  # noqa: F401  unused; perfbench/tracing.py hooks these two names here
    complete_K,  # noqa: F401
)

LOWER = "lower"
UPPER = "upper"

# the Newton ascent of the optimized bounds
_NEWTON_STEPS = 30
_NEWTON_TOL = 1e-15
# an interior step predicting at most this rise of the sum is the last: by
# Newton's quadratic convergence the rise after it is far below _NEWTON_TOL
_LAST_RISE = 1e-12
_HALVINGS = 4
_TO_EDGE = 0.9


@dataclass(frozen=True, slots=True)
class BoundReport:
    name: str
    kind: str  # "lower" or "upper"
    value: float
    params: Partition | GapPoints | None = None


def classical_bounds(e: IntervalUnion) -> tuple[float, float]:
    """(measure/4, 1/2) for a subset of [-1, 1]."""
    _require_unit_subset(e)
    return e.total_length() / 4.0, 0.5


def schiefermayr_lower(alpha: float, beta: float) -> float:
    """Elementary lower bound for [-1,alpha] u [beta,1]; tight when alpha + beta = 0."""
    _check_two_interval(alpha, beta)
    num = ((1.0 - alpha * alpha) * (1.0 - beta * beta)) ** 0.25
    den = math.sqrt((1.0 - alpha) * (1.0 + beta)) + math.sqrt((1.0 + alpha) * (1.0 - beta))
    return num / den


def polarization_upper(alpha: float, beta: float) -> float:
    """Upper bound by symmetrizing the gap about the origin; tight when alpha + beta = 0."""
    _check_two_interval(alpha, beta)
    return 0.25 * math.sqrt(4.0 - (alpha - beta) ** 2)


def gillis_upper(alpha: float, beta: float) -> float:
    """Gillis' logarithmic-interpolation upper bound for [-1,alpha] u [beta,1]."""
    _check_two_interval(alpha, beta)
    la = math.log((1.0 + alpha) / 8.0)
    lb = math.log((1.0 - beta) / 8.0)
    return 2.0 * math.exp(la * lb / (la + lb))


def schiefermayr_upper(alpha: float, beta: float) -> float:
    """Elliptic-integral upper bound for [-1,alpha] u [beta,1].

    Stated for alpha + beta >= 0; otherwise the reflected set
    [-1,-beta] u [-alpha,1] of equal capacity is used.  The modulus is
    k = 2 (beta - alpha) / ((1 - alpha) (1 + beta)) = 1 - t, so
    k' = sqrt(t (2 - t)) keeps its digits on a thin outer component,
    where k rounds to 1, and E/K = 1 - s comes from the AGM's partial sums.
    """
    _check_two_interval(alpha, beta)
    if alpha + beta < 0.0:
        alpha, beta = -beta, -alpha
    t = (1.0 + alpha) * (1.0 - beta) / ((1.0 - alpha) * (1.0 + beta))
    k = 1.0 - t
    ratio = 1.0 - _agm(math.sqrt(t * (2.0 - t)), 0.5 * k * k)[1]
    log_term = math.log((math.sqrt(2.0) + math.sqrt(1.0 - alpha)) / math.sqrt(1.0 + alpha))
    return (1.0 + alpha) / (2.0 * (1.0 + beta)) * math.exp(2.0 * (ratio - t) * log_term ** 2)


def beurling_arc_capacity(l: float) -> float:
    """Capacity of a single arc of length l; the minimum over closed arc sets of that length."""
    if not 0.0 < l <= 2.0 * math.pi:
        raise DomainError(f"arc length must lie in (0, 2*pi], got {_brief(l)}")
    return math.sin(l / 4.0)


def haliste_arcs_capacity(l: float, n: int) -> float:
    """Capacity of n rotationally symmetric arcs of total length l.

    This is the maximum capacity among unions of n closed arcs of total
    length l, so it serves as an upper bound for such unions.
    """
    _check_arc_family(l, n)
    return math.sin(l / 4.0) ** (1.0 / n)


# the cell term is c M^2 log sin(h mu / M); its derivatives take c h and -c h^2
_C = 2.0 / math.pi ** 2
_H = 0.5 * math.pi
_CH = _C * _H
_CHH = -_C * _H * _H


def _cell_log(cell_mu: float, *inter_mu: float) -> float:
    """Mean of the log partition cell terms sin(pi mu / (2 M)) ** (2 M^2 / pi^2).

    M = ``cell_mu`` is the arccos measure of the cell and each mu in
    ``inter_mu`` that of a part of the set in it; -inf where M <= 0 or
    the product of the sines is <= 0.  With one mu this is the cell term
    of the partition, Solynin and sector-product bounds.  With mu = w,
    the component's arccos width, and mu = th_a + th_b - 2 th_hi, it is
    the gap-division factor of a component [th_b, th_a] in the cell
    [th_hi, th_hi + M], since (cos p - cos q) / 2 = sin((q - p) / 2)
    sin((p + q) / 2).
    """
    if not cell_mu > 0.0:
        return -math.inf
    s = 1.0
    for mu in inter_mu:
        s *= math.sin(_H * mu / cell_mu)
    if not s > 0.0:
        return -math.inf
    return _C / len(inter_mu) * cell_mu * cell_mu * math.log(s)


def sector_product_lower(f: CircleArcSet, sector_angles) -> float:
    """Lower bound for the capacity of a circle subset from a sector partition.

    ``sector_angles`` are increasing angles phi_0 < ... < phi_m with
    phi_m = phi_0 + 2*pi; sector k spans beta_k * pi radians and
    contributes [sin(mes(sector k intersect F) / (2 beta_k))] ** (beta_k^2 / 2),
    the partition cell term with M = beta_k * pi / 2 and mu = mes / 2.
    An empty intersection forces the bound to 0.
    """
    try:
        angles = [float(phi) for phi in sector_angles]
    except OverflowError:
        raise DomainError("sector angle too large for a float") from None
    if len(angles) < 2:
        raise DomainError("need at least one sector")
    if not all(lo < hi for lo, hi in zip(angles, angles[1:])):
        raise DomainError("sector angles must strictly increase")
    if abs((angles[-1] - angles[0]) - 2.0 * math.pi) > 1e-9:
        raise DomainError("sector angles must cover exactly one full turn")
    log_total = 0.0
    for lo, hi in zip(angles, angles[1:]):
        log_total += _cell_log(0.5 * (hi - lo), 0.5 * f.length_within(lo, hi))
    return math.exp(log_total)


def partition_lower(e: IntervalUnion, p: Partition) -> float:
    """Partition lower bound: 1/2 prod_k sin(pi mu_k / (2 M_k)) ** (2 M_k^2 / pi^2).

    M_k is the arccos measure of cell k and mu_k that of its intersection
    with the set, both widths taken by ``sets._arcs``, so a cell inside a
    component, however thin, has mu_k = M_k and factor 1; a cell missing
    the set entirely gives bound 0.  Cells and components are both sorted,
    so one walk over the two finds each cell's parts of the set.
    """
    _require_unit_subset(e)
    comps, n = e.intervals, e.n
    pts = p.points
    log_total, k = 0.0, 0
    for j in range(len(pts) - 1):
        lo, hi = pts[j], pts[j + 1]
        # components ending at or before the cell starts meet no later cell
        while k < n and comps[k][1] <= lo:
            k += 1
        mu, i = 0.0, k
        while i < n and comps[i][0] < hi:
            a, b = comps[i]
            mu += _arcs(max(a, lo), min(b, hi))[0]
            i += 1
        log_total += _cell_log(_arcs(lo, hi)[0], mu)
    return 0.5 * math.exp(log_total)


def gap_division_lower(e: IntervalUnion, d: GapPoints) -> float:
    """Lower bound from one division point per gap (hull must be [-1, 1]).

    Each component contributes a cosine-difference factor raised to the
    squared relative arccos span of its enclosing division cell: the links
    of the gap-division chain at the arccos angles of the points.
    """
    _require_unit_hull(e)
    return _gap_division_value(e, _gap_division_consts(e), d)


def _gap_division_value(e: IntervalUnion, consts, d: GapPoints) -> float:
    """:func:`gap_division_lower` at ``d`` from the ``consts`` of e's chain."""
    d.validate_for(e)
    x = [math.pi, *map(math.acos, d.deltas), 0.0]
    log_total = 0.0
    for k, (w, c) in enumerate(consts):
        lo, hi = x[k], x[k + 1]
        log_total += _cell_log(lo - hi, w, c - 2.0 * hi if k else c)
    return 0.5 * math.exp(log_total)


_INFEASIBLE = (-math.inf, None, None, None)


def _chain_eval(chain, x):
    """Chain sum at the angles ``x`` (ends included), its gradient and its Hessian.

    ``chain`` is (gap, consts): the gap-division chain of
    :func:`_gap_division_chain` where ``gap`` is true, else the Solynin
    chain of :func:`_solynin_chain`.  Link k, at its angles lo = x[k] >
    hi = x[k + 1], is :func:`_cell_log` of its cell M = lo - hi with:

    - Solynin: one mu = lo - end for even k, end - hi for odd k, where
      end = consts[k] is the angle of the component end the cell meets;
    - gap division: mu = w and mu = c - 2 hi, where (w, c) = consts[k];
      in the first cell mu = c, the mirror of :func:`_gap_division_consts`.

    Each link's value, gradient and Hessian come by the chain rule from
    the cell term's closed-form derivatives in (M, mu), with u = h mu / M.
    Each mu's coefficients in lo and hi are 0, +-1 or -2, so their
    products with those derivatives are exact and the kernel gives the
    bits of the generic formula for a mu = a lo + b hi + off.  The
    Hessian is tridiagonal and comes as its diagonal and off-diagonal.
    Where a link is 0 the sum is -inf and there are no derivatives.
    """
    gap, consts = chain
    sin, cos, log = math.sin, math.cos, math.log
    m = len(x) - 2
    total, grad, diag, off = 0.0, [], [], []
    for k in range(m + 1):
        lo, hi = x[k], x[k + 1]
        cell = lo - hi
        if not cell > 0.0:
            return _INFEASIBLE
        cm = _C * cell
        # the end links, at lo = pi and hi = 0, move one point and need
        # only f_lo and f_ll: the first link's f_hi and f_hh are -f_lo
        # and f_ll, since its mu's do not move with hi
        inner = 0 < k < m
        if gap:
            w, c = consts[k]
            mu = c - 2.0 * hi if k else c
            if not mu > 0.0:
                return _INFEASIBLE
            u, v = _H * w / cell, _H * mu / cell
            s, r = sin(u), sin(v)
            if not (s > 0.0 and r > 0.0):
                return _INFEASIBLE
            log_s, log_r = log(s), log(r)
            cot_s, cot_r = cos(u) / s, cos(v) / r
            csc_s, csc_r = 1.0 + cot_s * cot_s, 1.0 + cot_r * cot_r
            cc = cm * cell
            total += (cc * log_s + cc * log_r) * 0.5
            # g_ are the w term's derivatives and h_ those of mu = c - 2 hi
            g_m = cm * (2.0 * log_s - u * cot_s)
            h_m = cm * (2.0 * log_r - v * cot_r)
            g_mm = _C * (2.0 * log_s - 2.0 * u * cot_s - u * u * csc_s)
            h_mm = _C * (2.0 * log_r - 2.0 * v * cot_r - v * v * csc_r)
            # M is the w term's only variable; the second term adds its
            # derivatives in mu to those in hi
            f_lo = (g_m + h_m) * 0.5
            f_ll = (g_mm + h_mm) * 0.5
            if inner:
                h_mu = _CH * (cot_r + v * csc_r)
                f_hi = (-g_m + (-h_m - 2.0 * (_CH * cell * cot_r))) * 0.5
                f_lh = (-g_mm + (-h_mm - 2.0 * h_mu)) * 0.5
                f_hh = (g_mm + (h_mm + 4.0 * h_mu + 4.0 * (_CHH * csc_r))) * 0.5
        else:
            end = consts[k]
            mu = end - hi if k & 1 else lo - end
            if not mu > 0.0:
                return _INFEASIBLE
            u = _H * mu / cell
            s = sin(u)
            if not s > 0.0:
                return _INFEASIBLE
            log_s = log(s)
            cot = cos(u) / s
            csc2 = 1.0 + cot * cot
            total += cm * cell * log_s
            # the term's derivatives in M, all that an end link needs
            f_lo = cm * (2.0 * log_s - u * cot)
            f_ll = _C * (2.0 * log_s - 2.0 * u * cot - u * u * csc2)
            if inner:
                # mu moves with the end it is anchored at: lo for even k, hi for odd
                g_m, g_mm = f_lo, f_ll
                g_u = _CH * cell * cot
                g_mu = _CH * (cot + u * csc2)
                anchored = g_mm + 2.0 * g_mu + _CHH * csc2
                if k & 1:
                    f_hi, f_hh = -g_m - g_u, anchored
                else:
                    f_lo, f_hi, f_ll, f_hh = g_m + g_u, -g_m, anchored, g_mm
                f_lh = -g_mm - g_mu
        if not k:
            f_hi, f_hh = -f_lo, f_ll
        else:
            grad.append(f_hi_prev + f_lo)
            diag.append(f_hh_prev + f_ll)
            if inner:
                off.append(f_lh)
        f_hi_prev, f_hh_prev = f_hi, f_hh
    return total, grad, diag, off


def _tridiag_solve(diag, off, grad):
    """Solve H d = -grad for the symmetric tridiagonal H by one Thomas pass.

    Returns None unless every pivot is negative, that is unless H is
    negative definite.
    """
    piv = diag[0]
    if not piv < 0.0:
        return None
    di = -grad[0] / piv
    d, w = [di], []
    for e, h, g in zip(off, diag[1:], grad[1:]):
        wi = e / piv
        piv = h - e * wi
        if not piv < 0.0:
            return None
        di = (-g - e * di) / piv
        d.append(di)
        w.append(wi)
    for i in range(len(w) - 1, -1, -1):
        di = d[i] = d[i] - w[i] * di
    return d


def _newton_step(grad, diag, off, x, boxes):
    """Newton step of a chain sum at the angles ``x`` in the open angle ``boxes``.

    A coordinate that the Newton step would take out of its box, in the
    direction in which its gradient points, goes _TO_EDGE of the way to
    that edge instead, and the other coordinates solve again with it held
    there, so an optimum on an edge is approached geometrically.  One
    that would leave against its gradient is not held: the trial of
    :func:`_chain_max` stops it short of the edge.  Returns the step, the
    rise the quadratic model predicts for it and whether no coordinate is
    held, or None unless the Hessian is negative definite.  The rise is
    g.d + 1/2 d.H.d; where no coordinate is held, d solves H d = -g and
    the rise is 1/2 g.d, taken in one pass.
    """
    d = _tridiag_solve(diag, off, grad)
    if d is None:
        return None
    free = d
    for xi, di, (lo, hi) in zip(x, d, boxes):
        if not lo < xi + di < hi:
            # _held_step returns d itself where it holds no coordinate
            d = _held_step(grad, diag, off, x, boxes, d)
            break
    g_d = 0.0
    for g, di in zip(grad, d):
        g_d += g * di
    if d is free:
        return d, 0.5 * g_d, True
    h_dd = o_dd = 0.0
    for h, di in zip(diag, d):
        h_dd += h * di * di
    for o, di, dj in zip(off, d, d[1:]):
        o_dd += o * di * dj
    return d, g_d + 0.5 * (h_dd + 2.0 * o_dd), False


def _held_step(grad, diag, off, x, boxes, d):
    """The step ``d`` of :func:`_newton_step` with the coordinates that leave their boxes held.

    A held coordinate i steps by s_i: its row of H d = -grad becomes
    -d_i = -s_i, and its neighbours' rows move off * s_i to the right.
    """
    held = {i: _TO_EDGE * ((hi if di > 0.0 else lo) - xi)
            for i, (xi, di, g, (lo, hi)) in enumerate(zip(x, d, grad, boxes))
            if not lo < xi + di < hi and (g > 0.0) == (di > 0.0)}
    if not held:
        return d
    grad_h, diag_h, off_h = list(grad), list(diag), list(off)
    for i, s in held.items():
        if i:
            grad_h[i - 1] += off[i - 1] * s
            off_h[i - 1] = 0.0
        if i < len(off):
            grad_h[i + 1] += off[i] * s
            off_h[i] = 0.0
    for i, s in held.items():
        diag_h[i], grad_h[i] = -1.0, s
    return _tridiag_solve(diag_h, off_h, grad_h)


def _box_centre(lo, hi, x_lo, x_hi):
    """The cosine of the centre of the angle box (x_lo, x_hi) of (lo, hi), strictly inside (lo, hi).

    The centre of a box a few ulp wide can round onto one of its ends; it
    goes to the float next to that end.
    """
    t = math.cos(0.5 * (x_lo + x_hi))
    return t if lo < t < hi else min(max(t, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def _chain_max(chain, boxes, angle_boxes, t):
    """Maximize a chain sum over -1 = t_0 < t_1 < ... < t_m < t_{m+1} = 1.

    Coordinate t_i ranges over the open box ``boxes[i - 1]``, whose
    arccos angles are ``angle_boxes[i - 1]``, and ``chain`` is a chain of
    :func:`_chain_eval`, which gives its value and its first and second
    derivatives in the arccos angles of the points.  The sum is concave
    in those angles, so damped Newton steps from ``t`` reach its maximum.
    A step is taken only if the sum rises, halving it up to _HALVINGS
    times.  A t_i that a trial carries onto or past an end of its open
    box goes _TO_EDGE of the way to that end instead: beside the end its
    cell term has a log singularity, from which each Newton step would
    only double its distance.  Where that too rounds onto or past the
    end, t_i goes to the float next to it, so a box a few ulp wide cannot
    stall the other coordinates.  The ascent stops once the rise that
    Newton's model predicts at the accepted point is at most _NEWTON_TOL
    of the sum, or when no halving rises.  An interior step, one that
    holds no coordinate and whose full step no box end clips, that
    predicts a rise of at most _LAST_RISE of the sum is the last: its
    points are returned without evaluating the chain there, since the
    evaluation and the Newton solve after it would only confirm the stop.
    Returns those points, else the last accepted t_1 ... t_m (the start
    where the sum is -inf there).
    """
    cos = math.cos
    x = list(map(math.acos, t))
    total, grad, diag, off = _chain_eval(chain, [math.pi, *x, 0.0])
    if grad is None:
        return t
    for _ in range(_NEWTON_STEPS):
        newton = _newton_step(grad, diag, off, x, angle_boxes)
        if newton is None or not newton[1] > _NEWTON_TOL * abs(total):
            break
        d, rise, interior = newton
        last = interior and not rise > _LAST_RISE * abs(total)
        step = 1.0
        for _ in range(_HALVINGS + 1):
            x_new = [xi + step * di for xi, di in zip(x, d)]
            t_new = list(map(cos, x_new))
            for ti, (lo, hi) in zip(t_new, boxes):
                if not lo < ti < hi:
                    _to_edge(x, d, boxes, angle_boxes, x_new, t_new)
                    break
            else:
                if last:
                    return t_new
            trial = _chain_eval(chain, [math.pi, *x_new, 0.0])
            if trial[0] > total:
                break
            step *= 0.5
            last = False
        else:
            break
        x, t = x_new, t_new
        total, grad, diag, off = trial
    return t


def _to_edge(x, d, boxes, angle_boxes, x_new, t_new):
    """Put each trial t_i of :func:`_chain_max` on or past an end of its box _TO_EDGE of the way there.

    The way is from x_i to the end's angle.  Where that too rounds onto
    or past the end, t_i goes to the float next to it.  ``x_new`` and
    ``t_new`` change in place.
    """
    for i, ((lo, hi), (x_lo, x_hi)) in enumerate(zip(boxes, angle_boxes)):
        if not lo < t_new[i] < hi:
            xi, di = x[i], d[i]
            ti = math.cos(xi + _TO_EDGE * ((x_hi if di > 0.0 else x_lo) - xi))
            ti = min(max(ti, math.nextafter(lo, hi)), math.nextafter(hi, lo))
            x_new[i], t_new[i] = math.acos(ti), ti


def _gap_division_consts(e: IntervalUnion):
    """The constants (w, c) of the gap-division chain's links: link k is factor k.

    Factor k is :func:`_cell_log` of its cell with mu = w_k, the arccos
    width of component k, and mu = c_k - 2 th_hi, where c_k = th_a + th_b.
    In the first cell, whose low end is pi, the second mu is within
    rounding of 2 M on a thin first component; its mirror
    2 M - mu = pi - th_b = arccos(-b_1) has the same sine and keeps the
    digits, and it is constant: that link's c is the mirror itself.
    """
    consts = [_arcs(a, b) for a, b in e.intervals]
    consts[0] = (consts[0][0], math.acos(-e.intervals[0][1]))
    return consts


def _gap_division_chain(e: IntervalUnion):
    """The gap-division bound for :func:`_chain_max`: chain, boxes, angle boxes and start.

    The boxes are the gaps, and the points start at the centres of their
    angle boxes.
    """
    pts = e.endpoints()[1:-1]
    th = list(map(math.acos, pts))
    lo, hi, x_lo, x_hi = pts[::2], pts[1::2], th[1::2], th[::2]
    start = list(map(_box_centre, lo, hi, x_lo, x_hi))
    return (True, _gap_division_consts(e)), list(zip(lo, hi)), list(zip(x_lo, x_hi)), start


def gap_division_lower_max(e: IntervalUnion) -> tuple[float, GapPoints]:
    """Maximize the gap-division bound over the division points.

    Factor k depends only on the division points on either side of
    component k, so the Newton steps solve a tridiagonal system.  The
    public bound at the returned points is taken from the same constants.
    """
    _require_unit_hull(e)
    chain, boxes, angle_boxes, start = _gap_division_chain(e)
    d = GapPoints(tuple(_chain_max(chain, boxes, angle_boxes, start)))
    return _gap_division_value(e, chain[1], d), d


def _solynin_points(e: IntervalUnion, d: GapPoints, interior) -> Partition:
    d.validate_for(e)
    interior = list(interior)
    if len(interior) != max(0, e.n - 2):
        raise DomainError(
            f"expected {max(0, e.n - 2)} interior points for {e.n} intervals, "
            f"got {len(interior)}"
        )
    for g, (a, b) in zip(interior, e.intervals[1:-1]):
        if not a < g < b:
            raise DomainError(f"interior point {g} outside component ({a}, {b})")
    # -1, d_1, g_1, d_2, ..., g_{n-2}, d_{n-1}, 1
    return Partition((-1.0, *(t for pair in zip(d.deltas, [*interior, 1.0]) for t in pair)))


def solynin_lower(e: IntervalUnion, d: GapPoints, interior=()) -> float:
    """Tailored-partition lower bound: each cell meets one component at one shared endpoint.

    ``interior`` supplies one split point inside each interior component
    (none are needed for two intervals).
    """
    _require_unit_hull(e)
    return partition_lower(e, _solynin_points(e, d, interior))


def _solynin_chain(e: IntervalUnion):
    """The tailored-partition bound for :func:`_chain_max`: chain, boxes, angle boxes and start.

    Link k is cell k, which meets its component at interior endpoint
    k + 1 of e: an even cell from the cell's left end to b, an odd one
    from a to the cell's right end.  The arccos angles of those endpoints
    are the links' constants, the ends of the angle boxes and the start's
    anchors.
    """
    pts = e.endpoints()[1:-1]
    th = list(map(math.acos, pts))
    # gap, component, gap, ..., gap: box i is (pts[i], pts[i + 1])
    boxes = list(zip(pts, pts[1:]))
    angle_boxes = list(zip(th[1:], th))
    return (False, th), boxes, angle_boxes, _solynin_start(pts, th)


def _solynin_start(pts, th):
    """Start points for the Solynin ascent in the boxes (pts[i], pts[i + 1]) of :func:`_solynin_chain`.

    ``th`` are the arccos angles of ``pts``.  A gap point starts at the
    centre of its angle box.  An interior split
    point starts at the small-gap optimum of its two cells: with gamma the
    arccos part of a gap in a cell of arccos measure M, the cell term is
    M^2 log sin(pi/2 (1 - gamma/M)) ~ -pi^2 gamma^2/8 - pi^4 gamma^4/(192 M^2),
    so the cells' sum at fixed M_1 + M_2 peaks at
    M_1/M_2 = (gamma_1/gamma_2)^(4/3), each gamma taken from the component
    to the start of the gap point beside it.  A split point whose t falls
    within 1% of its box width from an end, or whose gammas both round to
    0, stays at the box centre.
    """
    t = list(map(_box_centre, pts, pts[1:], th[1:], th))
    x = list(map(math.acos, t))
    for i in range(1, len(t) - 1, 2):
        a, b = pts[i], pts[i + 1]
        w1 = (x[i - 1] - th[i]) ** (4.0 / 3.0)
        w2 = (th[i + 1] - x[i + 1]) ** (4.0 / 3.0)
        if not w1 + w2 > 0.0:
            continue
        ti = math.cos(x[i - 1] - (x[i - 1] - x[i + 1]) * w1 / (w1 + w2))
        margin = 0.01 * (b - a)
        if a + margin < ti < b - margin:
            t[i] = ti
    return t


def solynin_lower_max(e: IntervalUnion) -> tuple[float, Partition]:
    """Maximize the tailored-partition bound over gap and interior split points.

    The cells [t_k, t_{k+1}] of the chain -1, d_1, g_1, d_2, ..., d_{n-1}, 1
    each meet component (k+1)//2 at one known end, so the measure of the
    intersection is a closed form in one endpoint, and the Newton steps
    solve a tridiagonal system.  They start from :func:`_solynin_start`:
    each split point g_i at the small-gap optimum of its two cells, each
    d_i at the centre of its angle box.  Raises DomainError, as
    ``solynin_lower`` does, where a gap or an interior component is 1 ulp
    wide, so that no split point fits inside it.
    """
    _require_unit_hull(e)
    t = _chain_max(*_solynin_chain(e))
    p = _solynin_points(e, GapPoints(tuple(t[::2])), t[1::2])
    return partition_lower(e, p), p


def projection_upper(e: IntervalUnion) -> float:
    """Upper bound 1/2 cos(sum of gap arccos spans / 2) ** (1/(n-1)).

    Comes from projecting to the circle and replacing the preimage by the
    extremal rotationally symmetric arc family of the same total length.
    """
    _require_unit_hull(e)
    s = sum(math.acos(hi) - math.acos(lo) for lo, hi in e.gaps())
    return 0.5 * math.cos(0.5 * s) ** (1.0 / (e.n - 1))


def uniform_measure_partition(n_cells: int) -> Partition:
    """Partition of [-1, 1] into cells of equal arccos measure.

    The count is checked on every call; the immutable partition depends
    on nothing else, so up to _CACHED_CELLS cells it is built once per
    count and shared by the calls, a set's ``all_bounds`` among them.
    """
    _check_count(n_cells, "cells")
    n_cells = int(n_cells)
    if n_cells > _CACHED_CELLS:
        return _uniform_partition(n_cells)
    return _cached_uniform_partition(n_cells)


def _uniform_partition(n_cells: int) -> Partition:
    pts = [math.cos(math.pi * (n_cells - k) / n_cells) for k in range(n_cells + 1)]
    return Partition(tuple(pts))


# a cached partition holds n_cells + 1 floats; larger ones are built per call
_CACHED_CELLS = 128
_cached_uniform_partition = functools.lru_cache(maxsize=32)(_uniform_partition)


def all_bounds(e: IntervalUnion) -> list[BoundReport]:
    """Every bound for a set of n intervals, in a stable order.

    The bounds are taken on the affine image of e with hull [-1, 1] and
    scaled back by the half-width (cap(a e + b) = |a| cap(e)); ``params``
    stay in normalized coordinates.  The classical pair always appears,
    the partition, gap-division and projection bounds for n >= 2, and the
    two-interval bounds for n = 2.  An optimized bound is left out where
    one of its open boxes holds no float: the gap-division bound where a
    gap is 1 ulp wide, and the Solynin bound also where an interior
    component is.  At n = 2 the two chains are one function of the gap
    point, so one ascent, gap division's, serves both: Solynin's bound is
    ``solynin_lower`` at its point.
    """
    norm, scale = normalize_to_unit(e)
    n = norm.n
    reports = []

    def add(name, kind, value, params=None):
        reports.append(BoundReport(name, kind, scale * value, params))

    lo, hi = classical_bounds(norm)
    add("classical_lower", LOWER, lo)
    if n == 2:
        alpha, beta = norm.intervals[0][1], norm.intervals[1][0]
        add("schiefermayr_lower", LOWER, schiefermayr_lower(alpha, beta))
    if n >= 2:
        gaps_open = all(math.nextafter(a, b) < b for a, b in norm.gaps())
        gap_max = gap_division_lower_max(norm) if gaps_open else None
        if gap_max and n == 2:
            p = Partition((-1.0, *gap_max[1].deltas, 1.0))
            add("solynin_lower", LOWER, partition_lower(norm, p), p)
        elif gaps_open and all(math.nextafter(a, b) < b for a, b in norm.intervals[1:-1]):
            add("solynin_lower", LOWER, *solynin_lower_max(norm))
        upart = uniform_measure_partition(n)
        add("partition_uniform_lower", LOWER, partition_lower(norm, upart), upart)
        if gap_max:
            add("gap_division_lower", LOWER, *gap_max)
    add("classical_upper", UPPER, hi)
    if n == 2:
        add("polarization_upper", UPPER, polarization_upper(alpha, beta))
        add("gillis_upper", UPPER, gillis_upper(alpha, beta))
        add("schiefermayr_upper", UPPER, schiefermayr_upper(alpha, beta))
    if n >= 2:
        add("projection_upper", UPPER, projection_upper(norm))
    return reports
