"""Elementary lower and upper bounds for the capacity of interval unions.

Lower bounds: the classical measure bound, Schiefermayr's two-interval
bound, Solynin's tailored-partition bound, the general partition bound,
and the gap-division bound.  Upper bounds: the trivial 1/2, polarization,
Gillis, Schiefermayr's elliptic-integral bound, and the circle-projection
bound.  Products of powers are evaluated in the log domain; a vanishing
factor short-circuits to 0.  The checks of a set's shape are ``sets.py``'s;
this module checks only its bounds' own parameters.

Every factor is one formula, the partition cell term, written once as
:func:`_cell_log` for the public bounds, with its closed-form
derivatives in :func:`_link_terms` for the optimizers.  It serves the
partition, Solynin and sector-product bounds, and the gap-division bound
too: the factor (cos p - cos q) / 2 of a component equals
sin((q - p) / 2) sin((p + q) / 2), so its log is the mean of two cell
terms of the same cell.  Every arccos width of a part of the set, a
component or its intersection with a partition cell, comes from
``sets._arcs``, which keeps the digits of a thin component.  The bounds
compute on Python floats with ``math``: a set has a handful of
components, and a numpy call on so few costs more than its arithmetic.
The Solynin and gap-division bounds have free division points.  Both are
chains: each factor depends only on its two neighbouring points, and
each chain sum is concave in the arccos angles of the points.  Their
maximizers climb by damped Newton steps, on a tridiagonal Hessian that
the chain rule takes from the cell term's closed-form derivatives.  The
gap points start at the centres of their angle boxes, and Solynin's
interior split points at the optimum of their two cells for small
gaps.  The last step, once the rises shrink quadratically, is checked by
the chain sum's value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .sets import (
    CircleArcSet,
    GapPoints,
    IntervalUnion,
    Partition,
    _arcs,
    _check_arc_family,
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
_HALVINGS = 4
_TO_EDGE = 0.9
_LAST_RISE = 1e-9


@dataclass(frozen=True)
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
        raise DomainError(f"arc length must lie in (0, 2*pi], got {l}")
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


_INFEASIBLE = (-math.inf, 0.0, 0.0, 0.0, 0.0, 0.0)


def _link_terms(mus, lo, hi):
    """One chain link as a function of its arccos angles lo > hi: value and derivatives.

    The link is :func:`_cell_log` of the cell M = lo - hi with one
    mu = a lo + b hi + off per (a, b, off) in ``mus``.  Returns
    (f, f_lo, f_hi, f_ll, f_lh, f_hh) by the chain rule from each term's
    closed-form derivatives in (M, mu), with u = h mu / M; f = -inf,
    and no derivatives, where a term is 0.
    """
    cell = lo - hi
    if not cell > 0.0:
        return _INFEASIBLE
    cm = _C * cell
    f = f_lo = f_hi = f_ll = f_lh = f_hh = 0.0
    for a, b, off in mus:
        mu = a * lo + b * hi + off
        if not mu > 0.0:
            return _INFEASIBLE
        u = _H * mu / cell
        s = math.sin(u)
        if not s > 0.0:
            return _INFEASIBLE
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


def sector_product_lower(f: CircleArcSet, sector_angles) -> float:
    """Lower bound for the capacity of a circle subset from a sector partition.

    ``sector_angles`` are increasing angles phi_0 < ... < phi_m with
    phi_m = phi_0 + 2*pi; sector k spans beta_k * pi radians and
    contributes [sin(mes(sector k intersect F) / (2 beta_k))] ** (beta_k^2 / 2),
    the partition cell term with M = beta_k * pi / 2 and mu = mes / 2.
    An empty intersection forces the bound to 0.
    """
    angles = [float(phi) for phi in sector_angles]
    if len(angles) < 2:
        raise DomainError("need at least one sector")
    if not all(lo < hi for lo, hi in zip(angles, angles[1:])):
        raise DomainError("sector angles must strictly increase")
    if abs((angles[-1] - angles[0]) - 2.0 * math.pi) > 1e-9:
        raise DomainError("sector angles must cover exactly one full turn")
    mes = f.length_within(angles[:-1], angles[1:]).tolist()
    log_total = 0.0
    for lo, hi, m in zip(angles, angles[1:], mes):
        log_total += _cell_log(0.5 * (hi - lo), 0.5 * m)
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
    of :func:`_gap_division_chain` at the arccos angles of the points.
    """
    _require_unit_hull(e)
    return _gap_division_value(e, _gap_division_chain(e)[1], d)


def _gap_division_value(e: IntervalUnion, links, d: GapPoints) -> float:
    """:func:`gap_division_lower` at ``d`` from the ``links`` of e's chain."""
    d.validate_for(e)
    x = [math.acos(t) for t in (-1.0, *d.deltas, 1.0)]
    log_total = 0.0
    for mus, lo, hi in zip(links, x, x[1:]):
        log_total += _cell_log(lo - hi, *(a * lo + b * hi + off for a, b, off in mus))
    return 0.5 * math.exp(log_total)


def _chain_eval(links, x):
    """Chain sum at the angles ``x`` (ends included), its gradient and its Hessian.

    Link k is :func:`_link_terms` of ``links[k]`` at x[k] > x[k + 1].

    The Hessian is tridiagonal and comes as its diagonal and off-diagonal.
    """
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


def _chain_value(links, x):
    """The chain sum of :func:`_chain_eval` alone, by the same arithmetic; -inf where infeasible."""
    total = 0.0
    for mus, lo, hi in zip(links, x, x[1:]):
        cell = lo - hi
        if not cell > 0.0:
            return -math.inf
        cm = _C * cell
        f = 0.0
        for a, b, off in mus:
            mu = a * lo + b * hi + off
            if not mu > 0.0:
                return -math.inf
            s = math.sin(_H * mu / cell)
            if not s > 0.0:
                return -math.inf
            f += cm * cell * math.log(s)
        total += f * (1.0 / len(mus))
    return total


def _tridiag_solve(diag, off, rhs):
    """Solve H d = rhs for the symmetric tridiagonal H by one Thomas pass.

    Returns None unless every pivot is negative, that is unless H is
    negative definite.
    """
    m = len(rhs)
    d, w = [0.0] * m, [0.0] * m
    for i in range(m):
        e = off[i - 1] if i else 0.0
        piv = diag[i] - e * (w[i - 1] if i else 0.0)
        if not piv < 0.0:
            return None
        d[i] = (rhs[i] - e * (d[i - 1] if i else 0.0)) / piv
        if i < m - 1:
            w[i] = off[i] / piv
    for i in range(m - 2, -1, -1):
        d[i] -= w[i] * d[i + 1]
    return d


def _newton_step(grad, diag, off, x, boxes):
    """Newton step of a chain sum at the angles ``x`` in the open angle ``boxes``.

    A coordinate that the Newton step would take out of its box, in the
    direction in which its gradient points, goes _TO_EDGE of the way to
    that edge instead, and the other coordinates solve again with it held
    there, so an optimum on an edge is approached geometrically.  One
    that would leave against its gradient is not held: the trial of
    :func:`_chain_max` stops it short of the edge.  Returns the step and
    the rise the quadratic model predicts for it, or None unless the
    Hessian is negative definite.
    """
    d = _tridiag_solve(diag, off, [-g for g in grad])
    if d is None:
        return None
    held = {i: _TO_EDGE * ((hi if di > 0.0 else lo) - xi)
            for i, (xi, di, g, (lo, hi)) in enumerate(zip(x, d, grad, boxes))
            if not lo < xi + di < hi and (g > 0.0) == (di > 0.0)}
    if held:
        rhs, diag_h, off_h = [-g for g in grad], list(diag), list(off)
        for i, s in held.items():
            if i:
                rhs[i - 1] -= off[i - 1] * s
                off_h[i - 1] = 0.0
            if i < len(off):
                rhs[i + 1] -= off[i] * s
                off_h[i] = 0.0
        for i, s in held.items():
            diag_h[i], rhs[i] = -1.0, -s
        d = _tridiag_solve(diag_h, off_h, rhs)
    g_d = h_dd = o_dd = 0.0
    for g, h, di in zip(grad, diag, d):
        g_d += g * di
        h_dd += h * di * di
    for o, di, dj in zip(off, d, d[1:]):
        o_dd += o * di * dj
    return d, g_d + 0.5 * (h_dd + 2.0 * o_dd)


def _box_centre(lo, hi):
    """The cosine of the centre of the arccos angle box of (lo, hi), strictly inside (lo, hi).

    The centre of a box a few ulp wide can round onto one of its ends; it
    goes to the float next to that end.
    """
    t = math.cos(0.5 * (math.acos(hi) + math.acos(lo)))
    return min(max(t, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def _chain_max(boxes, links, bound, start=None):
    """Maximize a chain sum over -1 = t_0 < t_1 < ... < t_m < t_{m+1} = 1.

    Coordinate t_i ranges over the open box ``boxes[i - 1]``, and
    ``links[k]`` lists link k's mu's for :func:`_link_terms`, which gives
    its value and its first and second derivatives in the arccos angles
    of its two points.  The sum is concave in those angles, so damped
    Newton steps from ``start`` (by default the centres of the angle
    boxes) reach its maximum.  A step is taken only if the sum rises,
    halving it up to _HALVINGS times.  A t_i that a trial carries onto or
    past an end of its open box goes _TO_EDGE of the way to that end
    instead: beside the end its cell term has a log singularity, from
    which each Newton step would only double its distance.  Where that
    too rounds onto or past the end, t_i goes to the float next to it, so
    a box a few ulp wide cannot stall the other coordinates.  The ascent
    stops once the predicted rise is at most _NEWTON_TOL of the sum (for
    an interior step, 1/2 g.d).  Near the maximum Newton's rises shrink
    quadratically, so a step whose rise r is at most _LAST_RISE of the
    sum, and r (r / r_prev)^2 at most _NEWTON_TOL of it, is the last: its
    trials check the sum's value alone, by :func:`_chain_value`, with no
    derivatives and no solve at the point it returns.  ``bound(t)``
    returns the public bound and its parameters at t_1 ... t_m, and the
    result is ``bound`` at the last accepted t.
    """
    angle_boxes = [(math.acos(hi), math.acos(lo)) for lo, hi in boxes]
    # the floats next to the box ends, where a t_i on or past an end goes
    inner = [(math.nextafter(lo, hi), math.nextafter(hi, lo)) for lo, hi in boxes]
    t = start or [_box_centre(lo, hi) for lo, hi in boxes]
    x = [math.pi, *map(math.acos, t), 0.0]
    total, grad, diag, off = _chain_eval(links, x)
    rise = math.inf
    for _ in range(_NEWTON_STEPS):
        newton = _newton_step(grad, diag, off, x[1:-1], angle_boxes)
        if newton is None or not newton[1] > _NEWTON_TOL * abs(total):
            break
        prev, (d, rise) = rise, newton
        last = (rise <= _LAST_RISE * abs(total)
                and rise * (rise / prev) ** 2 <= _NEWTON_TOL * abs(total))
        step = 1.0
        for _ in range(_HALVINGS + 1):
            x_new, t_new = [math.pi], []
            for xi, di, (t_lo, t_hi), (x_lo, x_hi) in zip(x[1:-1], d, inner, angle_boxes):
                x_try = xi + step * di
                ti = math.cos(x_try)
                if not t_lo <= ti <= t_hi:
                    ti = math.cos(xi + _TO_EDGE * ((x_hi if di > 0.0 else x_lo) - xi))
                    ti = min(max(ti, t_lo), t_hi)
                    x_try = math.acos(ti)
                x_new.append(x_try)
                t_new.append(ti)
            x_new.append(0.0)
            trial = _chain_value(links, x_new) if last else _chain_eval(links, x_new)
            if (trial if last else trial[0]) > total:
                break
            step *= 0.5
        else:
            break
        x, t = x_new, t_new
        if last:
            break
        total, grad, diag, off = trial
    return bound(t)


def _gap_division_chain(e: IntervalUnion):
    """The gap-division bound as a chain for :func:`_chain_max`: link k is factor k.

    Factor k is :func:`_cell_log` of its cell with mu = w_k and
    mu = th_a + th_b - 2 th_hi.  In the first cell, whose low end is pi,
    the second mu is within rounding of 2 M on a thin first component;
    its mirror 2 M - mu = pi - th_b = arccos(-b_1) has the same sine and
    keeps the digits.
    """
    links = []
    for a, b in e.intervals:
        w, total = _arcs(a, b)
        links.append(((0.0, 0.0, w), (0.0, -2.0, total)))
    links[0] = (links[0][0], (0.0, 0.0, math.acos(-e.intervals[0][1])))
    return e.gaps(), links


def gap_division_lower_max(e: IntervalUnion) -> tuple[float, GapPoints]:
    """Maximize the gap-division bound over the division points.

    Factor k depends only on the division points on either side of
    component k, so the Newton steps solve a tridiagonal system.  The
    public bound at the returned points is taken from the same links.
    """
    _require_unit_hull(e)
    boxes, links = _gap_division_chain(e)

    def bound(t):
        d = GapPoints(tuple(t))
        return _gap_division_value(e, links, d), d

    return _chain_max(boxes, links, bound)


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
    """The tailored-partition bound as a chain for :func:`_chain_max`: link k is cell k."""
    gaps = e.gaps()
    boxes = [gaps[0]]
    for comp, gap in zip(e.intervals[1:-1], gaps[1:]):
        boxes += [comp, gap]
    # cell k meets its component at endpoint k + 1: an even cell from the
    # cell's left end to b, an odd one from a to the cell's right end
    end = [math.acos(x) for x in e.endpoints()[1:-1]]
    links = [((0.0, -1.0, end_k),) if k % 2 else ((1.0, 0.0, -end_k),)
             for k, end_k in enumerate(end)]
    return boxes, links


def _solynin_start(boxes):
    """Start points for the Solynin ascent on the chain boxes of :func:`_solynin_chain`.

    A gap point starts at the centre of its angle box.  An interior split
    point starts at the small-gap optimum of its two cells: with gamma the
    arccos part of a gap in a cell of arccos measure M, the cell term is
    M^2 log sin(pi/2 (1 - gamma/M)) ~ -pi^2 gamma^2/8 - pi^4 gamma^4/(192 M^2),
    so the cells' sum at fixed M_1 + M_2 peaks at
    M_1/M_2 = (gamma_1/gamma_2)^(4/3), each gamma taken from the component
    to the start of the gap point beside it.  A split point whose t falls
    within 1% of its box width from an end, or whose gammas both round to
    0, stays at the box centre.
    """
    t = [_box_centre(lo, hi) for lo, hi in boxes]
    x = [math.acos(ti) for ti in t]
    for i in range(1, len(boxes) - 1, 2):
        a, b = boxes[i]
        w1 = (x[i - 1] - math.acos(a)) ** (4.0 / 3.0)
        w2 = (math.acos(b) - x[i + 1]) ** (4.0 / 3.0)
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

    def bound(t):
        p = _solynin_points(e, GapPoints(tuple(t[::2])), t[1::2])
        return partition_lower(e, p), p

    boxes, links = _solynin_chain(e)
    return _chain_max(boxes, links, bound, _solynin_start(boxes))


def projection_upper(e: IntervalUnion) -> float:
    """Upper bound 1/2 cos(sum of gap arccos spans / 2) ** (1/(n-1)).

    Comes from projecting to the circle and replacing the preimage by the
    extremal rotationally symmetric arc family of the same total length.
    """
    _require_unit_hull(e)
    s = sum(math.acos(hi) - math.acos(lo) for lo, hi in e.gaps())
    return 0.5 * math.cos(0.5 * s) ** (1.0 / (e.n - 1))


def uniform_measure_partition(n_cells: int) -> Partition:
    """Partition of [-1, 1] into cells of equal arccos measure."""
    if n_cells < 1:
        raise DomainError("need at least one cell")
    pts = [math.cos(math.pi * (n_cells - k) / n_cells) for k in range(n_cells + 1)]
    return Partition(tuple(pts))


def all_bounds(e: IntervalUnion) -> list[BoundReport]:
    """Every bound for a set of n intervals, in a stable order.

    The bounds are taken on the affine image of e with hull [-1, 1] and
    scaled back by the half-width (cap(a e + b) = |a| cap(e)); ``params``
    stay in normalized coordinates.  The classical pair always appears,
    the partition, gap-division and projection bounds for n >= 2, and the
    two-interval bounds for n = 2.  An optimized bound is left out where
    one of its open boxes holds no float: the gap-division bound where a
    gap is 1 ulp wide, and the Solynin bound also where an interior
    component is.
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
        if gaps_open and all(math.nextafter(a, b) < b for a, b in norm.intervals[1:-1]):
            add("solynin_lower", LOWER, *solynin_lower_max(norm))
        upart = uniform_measure_partition(n)
        add("partition_uniform_lower", LOWER, partition_lower(norm, upart), upart)
        if gaps_open:
            add("gap_division_lower", LOWER, *gap_division_lower_max(norm))
    add("classical_upper", UPPER, hi)
    if n == 2:
        add("polarization_upper", UPPER, polarization_upper(alpha, beta))
        add("gillis_upper", UPPER, gillis_upper(alpha, beta))
        add("schiefermayr_upper", UPPER, schiefermayr_upper(alpha, beta))
    if n >= 2:
        add("projection_upper", UPPER, projection_upper(norm))
    return reports
