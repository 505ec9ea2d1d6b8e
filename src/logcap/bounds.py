"""Elementary lower and upper bounds for the capacity of interval unions.

Lower bounds: the classical measure bound, Schiefermayr's two-interval
bound, Solynin's tailored-partition bound, the general partition bound,
and the gap-division bound.  Upper bounds: the trivial 1/2, polarization,
Gillis, Schiefermayr's elliptic-integral bound, and the circle-projection
bound.  Products of powers are evaluated in the log domain; a vanishing
factor short-circuits to 0.

Each factor is written once, as a vectorized function shared by the
public bound and its optimizer: the partition cell term (used by the
partition, Solynin and sector-product bounds) and the gap-division factor.
The Solynin and gap-division bounds have free division points.  Both are
chains: each factor depends only on its two neighbouring points, so
their maximizers solve a grid of candidates exactly with one max-sum
pass, then climb from its optimum by damped Newton steps in the arccos
angles, on a tridiagonal Hessian written in closed form beside each
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exact import _check_two_interval
from .sets import (
    CircleArcSet,
    GapPoints,
    IntervalUnion,
    Partition,
    _require_unit_subset,
    normalize_to_unit,
)
from .special import complete_E, complete_K

LOWER = "lower"
UPPER = "upper"

# first grid of the optimized bounds, then the Newton ascent from its optimum
_GRID_CANDIDATES = 33
_NEWTON_STEPS = 30
_NEWTON_TOL = 1e-15
_HALVINGS = 4
_TO_EDGE = 0.9
_REACH = 2.0


@dataclass(frozen=True)
class BoundReport:
    name: str
    kind: str  # "lower" or "upper"
    value: float
    params: Partition | GapPoints | None = None


def _require_unit_hull(e: IntervalUnion) -> None:
    if not e.is_unit_hull():
        raise DomainError("bound requires a_1 = -1 and b_n = 1 exactly")
    if e.n < 2:
        raise DomainError("bound needs at least two intervals")


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
    [-1,-beta] u [-alpha,1] of equal capacity is used.
    """
    _check_two_interval(alpha, beta)
    if alpha + beta < 0.0:
        alpha, beta = -beta, -alpha
    k = 2.0 * (beta - alpha) / ((1.0 - alpha) * (1.0 + beta))
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus outside (0, 1): {k}")
    ratio = complete_E(k) / complete_K(k)
    t = (1.0 + alpha) * (1.0 - beta) / ((1.0 - alpha) * (1.0 + beta))
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
    if not 0.0 < l < 2.0 * math.pi:
        raise DomainError(f"total arc length must lie in (0, 2*pi), got {l}")
    if n < 1:
        raise DomainError("need a positive number of arcs")
    return math.sin(l / 4.0) ** (1.0 / n)


def _cell_log(cell_mu, inter_mu):
    """Log of the partition cell term sin(pi mu / (2 M)) ** (2 M^2 / pi^2), elementwise.

    M = ``cell_mu`` is the arccos measure of the cell and mu = ``inter_mu``
    that of its intersection with the set; -inf where mu <= 0.  Callers
    silence numpy's divide and invalid warnings.
    """
    s = np.sin((0.5 * math.pi) * inter_mu / cell_mu)
    term = (2.0 / math.pi ** 2) * cell_mu * cell_mu * np.log(s)
    return np.where(inter_mu > 0.0, term, -np.inf)


def _gap_division_log(th_a, th_b, th_lo, th_hi):
    """Log of one component's gap-division factor, elementwise; -inf where the factor is <= 0.

    The component has arccos angles th_b < th_a and lies in the division
    cell of arccos angles th_hi < th_lo.  Callers silence numpy's divide
    and invalid warnings.
    """
    span = th_lo - th_hi
    factor = 0.5 * (np.cos(math.pi * (th_b - th_hi) / span)
                    - np.cos(math.pi * (th_a - th_hi) / span))
    # fmax sends factor <= 0, and nan, to log(0) = -inf
    return (span * span / math.pi ** 2) * np.log(np.fmax(factor, 0.0))


_INFEASIBLE = (-math.inf, 0.0, 0.0, 0.0, 0.0, 0.0)


def _cell_terms(cell_mu, inter_mu):
    """Scalar :func:`_cell_log` and its derivatives in (M, mu).

    Returns (f, f_M, f_mu, f_MM, f_Mmu, f_mumu) with M = ``cell_mu`` and
    mu = ``inter_mu``; f = -inf, and no derivatives, where the term is 0.
    With u = pi mu / (2 M) and c = 2 / pi^2, f = c M^2 log sin u.
    """
    if not (inter_mu > 0.0 and cell_mu > 0.0):
        return _INFEASIBLE
    u = (0.5 * math.pi) * inter_mu / cell_mu
    s = math.sin(u)
    if not s > 0.0:
        return _INFEASIBLE
    c = 2.0 / math.pi ** 2
    log_s = math.log(s)
    cot = math.cos(u) / s
    csc2 = 1.0 + cot * cot
    h = 0.5 * math.pi
    return (c * cell_mu * cell_mu * log_s,
            c * cell_mu * (2.0 * log_s - u * cot),
            c * h * cell_mu * cot,
            c * (2.0 * log_s - 2.0 * u * cot - u * u * csc2),
            c * h * (cot + u * csc2),
            -c * h * h * csc2)


def _solynin_link_terms(even, end, lo, hi):
    """Solynin cell k as a function of its arccos angles lo > hi: value and derivatives.

    An even cell meets its component from lo to ``end`` = th_b, an odd
    one from ``end`` = th_a to hi.  Returns (f, f_lo, f_hi, f_ll, f_lh, f_hh).
    """
    if even:
        f, f_m, f_u, f_mm, f_mu, f_uu = _cell_terms(lo - hi, lo - end)
        return f, f_m + f_u, -f_m, f_mm + 2.0 * f_mu + f_uu, -f_mm - f_mu, f_mm
    f, f_m, f_u, f_mm, f_mu, f_uu = _cell_terms(lo - hi, end - hi)
    return f, f_m, -f_m - f_u, f_mm, -f_mm - f_mu, f_mm + 2.0 * f_mu + f_uu


def _gap_division_terms(th_a, th_b, lo, hi):
    """Scalar :func:`_gap_division_log` and its derivatives in the cell angles.

    Returns (f, f_lo, f_hi, f_ll, f_lh, f_hh) for the cell of arccos
    angles hi < lo; f = -inf, and no derivatives, where the factor is <= 0.
    With S = lo - hi, p = pi (th_b - hi) / S and q = pi (th_a - hi) / S,
    f = S^2 / pi^2 log phi with phi = (cos p - cos q) / 2.
    """
    span = lo - hi
    if not span > 0.0:
        return _INFEASIBLE
    p = math.pi * (th_b - hi) / span
    q = math.pi * (th_a - hi) / span
    cp, cq = math.cos(p), math.cos(q)
    phi = 0.5 * (cp - cq)
    if not phi > 0.0:
        return _INFEASIBLE
    sp, sq = math.sin(p), math.sin(q)
    r = 1.0 / span
    r2 = r * r
    # first and second derivatives of p and q in (lo, hi)
    p_l, p_h = -p * r, (p - math.pi) * r
    q_l, q_h = -q * r, (q - math.pi) * r
    p_ll, p_lh, p_hh = 2.0 * p * r2, (math.pi - 2.0 * p) * r2, 2.0 * (p - math.pi) * r2
    q_ll, q_lh, q_hh = 2.0 * q * r2, (math.pi - 2.0 * q) * r2, 2.0 * (q - math.pi) * r2
    # derivatives of log phi
    l_l = 0.5 * (sq * q_l - sp * p_l) / phi
    l_h = 0.5 * (sq * q_h - sp * p_h) / phi
    l_ll = 0.5 * (cq * q_l * q_l + sq * q_ll - cp * p_l * p_l - sp * p_ll) / phi - l_l * l_l
    l_lh = 0.5 * (cq * q_l * q_h + sq * q_lh - cp * p_l * p_h - sp * p_lh) / phi - l_l * l_h
    l_hh = 0.5 * (cq * q_h * q_h + sq * q_hh - cp * p_h * p_h - sp * p_hh) / phi - l_h * l_h
    c = 1.0 / math.pi ** 2
    log_phi = math.log(phi)
    return ((span * span / math.pi ** 2) * log_phi,
            c * (2.0 * span * log_phi + span * span * l_l),
            c * (-2.0 * span * log_phi + span * span * l_h),
            c * (2.0 * log_phi + 4.0 * span * l_l + span * span * l_ll),
            c * (-2.0 * log_phi + 2.0 * span * (l_h - l_l) + span * span * l_lh),
            c * (2.0 * log_phi - 4.0 * span * l_h + span * span * l_hh))


def sector_product_lower(f: CircleArcSet, sector_angles) -> float:
    """Lower bound for the capacity of a circle subset from a sector partition.

    ``sector_angles`` are increasing angles phi_0 < ... < phi_m with
    phi_m = phi_0 + 2*pi; sector k spans beta_k * pi radians and
    contributes [sin(mes(sector k intersect F) / (2 beta_k))] ** (beta_k^2 / 2),
    the partition cell term with M = beta_k * pi / 2 and mu = mes / 2.
    An empty intersection forces the bound to 0.
    """
    angles = np.fromiter(sector_angles, dtype=float)
    if len(angles) < 2:
        raise DomainError("need at least one sector")
    if not np.all(angles[:-1] < angles[1:]):
        raise DomainError("sector angles must strictly increase")
    if abs((angles[-1] - angles[0]) - 2.0 * math.pi) > 1e-9:
        raise DomainError("sector angles must cover exactly one full turn")
    mes = f.length_within(angles[:-1], angles[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        return math.exp(_cell_log(0.5 * np.diff(angles), 0.5 * mes).sum())


def partition_lower(e: IntervalUnion, p: Partition) -> float:
    """Partition lower bound: 1/2 prod_k sin(pi mu_k / (2 M_k)) ** (2 M_k^2 / pi^2).

    M_k is the arccos measure of cell k and mu_k that of its intersection
    with the set; a cell missing the set entirely gives bound 0.
    """
    _require_unit_subset(e)
    th = np.arccos(e.endpoints())
    cut = np.arccos(p.points)
    lo, hi = cut[:-1, None], cut[1:, None]
    # component k spans the angles [th_b, th_a], cell j the angles [hi_j, lo_j]
    inter_mu = np.maximum(np.minimum(th[0::2], lo) - np.maximum(th[1::2], hi), 0.0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * math.exp(_cell_log(cut[:-1] - cut[1:], inter_mu).sum())


def gap_division_lower(e: IntervalUnion, d: GapPoints) -> float:
    """Lower bound from one division point per gap (hull must be [-1, 1]).

    Each component contributes a cosine-difference factor raised to the
    squared relative arccos span of its enclosing division cell.
    """
    _require_unit_hull(e)
    d.validate_for(e)
    th = np.arccos(e.endpoints())
    cut = np.arccos((-1.0, *d.deltas, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * math.exp(_gap_division_log(th[0::2], th[1::2], cut[:-1], cut[1:]).sum())


def _chain_argmax(tables) -> list[int]:
    """Exact max-sum over a chain of link tables.

    ``tables[k][i, j]`` is the log-contribution of link k with candidate i
    of chain point k and candidate j of chain point k+1; -inf marks an
    infeasible pair.  A forward pass keeps argmax back-pointers, so ties
    keep the lowest index.  Returns the chosen index of every point.
    """
    score = np.zeros(tables.shape[1])
    back = []
    for table in tables:
        table = score[:, None] + table
        back.append(table.argmax(axis=0))
        score = table.max(axis=0)
    idx = [int(score.argmax())]
    for best in reversed(back):
        idx.append(int(best[idx[-1]]))
    return idx[::-1]


def _chain_grid(link_log, boxes) -> tuple[list[float], float]:
    """Optimum of a chain sum over 33 equispaced interior candidates per box.

    ``link_log(lo, hi)`` returns every link's log-contribution at once, as
    an array broadcast to (links, 33, 33), from the arccos angles ``lo``
    of each link's left point (shape (links, 33, 1)) and ``hi`` of its
    right point (shape (links, 1, 33)); link 0's left point is -1 (angle
    pi) and the last link's right point is 1 (angle 0).  Returns the
    chosen t_1 ... t_m and the chain sum there.
    """
    lo, hi = np.array(boxes, dtype=float).T
    step = (hi - lo) / (_GRID_CANDIDATES + 1)
    t = lo[:, None] + np.arange(1, _GRID_CANDIDATES + 1) * step[:, None]
    x = np.empty((len(t) + 2, _GRID_CANDIDATES))
    x[0], x[-1], x[1:-1] = math.pi, 0.0, np.arccos(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = link_log(x[:-1, :, None], x[1:, None, :])
    idx = _chain_argmax(tables)
    f = float(tables[np.arange(len(tables)), idx[:-1], idx[1:]].sum())
    return [float(t[i, j]) for i, j in enumerate(idx[1:-1])], f


def _chain_eval(link_terms, x):
    """Chain sum at the angles ``x`` (ends included), its gradient and its Hessian.

    The Hessian is tridiagonal and comes as its diagonal and off-diagonal.
    """
    m = len(x) - 2
    total, grad, diag, off = 0.0, [0.0] * m, [0.0] * m, [0.0] * (m - 1)
    for k in range(m + 1):
        f, f_lo, f_hi, f_ll, f_lh, f_hh = link_terms(k, x[k], x[k + 1])
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

    A coordinate that the Newton step would take out of its box goes
    _TO_EDGE of the way to that edge instead, and the other coordinates
    solve again with it held there, so an optimum on an edge is
    approached geometrically.  Returns the step and the rise the
    quadratic model predicts for it, or None unless the Hessian is
    negative definite.
    """
    d = _tridiag_solve(diag, off, [-g for g in grad])
    if d is None:
        return None
    held = {i: _TO_EDGE * ((hi if di > 0.0 else lo) - xi)
            for i, (xi, di, (lo, hi)) in enumerate(zip(x, d, boxes)) if not lo < xi + di < hi}
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
    curv = (sum(h * di * di for h, di in zip(diag, d))
            + 2.0 * sum(o * di * dj for o, di, dj in zip(off, d, d[1:])))
    return d, sum(g * di for g, di in zip(grad, d)) + 0.5 * curv


def _chain_newton(link_terms, boxes, t):
    """Damped Newton ascent of a chain sum in the arccos angles, from t_1 ... t_m.

    No coordinate moves by more than _REACH grid steps at once.  A step
    is taken only if every t_i stays in its open box and the sum rises,
    halving it up to _HALVINGS times; the ascent stops once the predicted
    rise is at most _NEWTON_TOL of the sum (for an interior step,
    1/2 g.d).  Returns the last accepted t (``t`` itself if no step was
    taken).
    """
    x = [math.pi, *map(math.acos, t), 0.0]
    angle_boxes = [(math.acos(hi), math.acos(lo)) for lo, hi in boxes]
    reach = [_REACH * (hi - lo) / (_GRID_CANDIDATES + 1) for lo, hi in angle_boxes]
    total, grad, diag, off = _chain_eval(link_terms, x)
    for _ in range(_NEWTON_STEPS):
        # each step stays within _REACH grid steps, so it climbs in the basin
        # it is in rather than jumping to another one
        local = [(max(lo, xi - r), min(hi, xi + r))
                 for (lo, hi), xi, r in zip(angle_boxes, x[1:-1], reach)]
        newton = _newton_step(grad, diag, off, x[1:-1], local)
        if newton is None or not newton[1] > _NEWTON_TOL * abs(total):
            break
        d, step = newton[0], 1.0
        for _ in range(_HALVINGS + 1):
            x_new = [xi + step * di for xi, di in zip(x[1:-1], d)]
            t_new = [math.cos(xi) for xi in x_new]
            if all(lo < ti < hi for ti, (lo, hi) in zip(t_new, boxes)):
                x_new = [math.pi, *x_new, 0.0]
                trial = _chain_eval(link_terms, x_new)
                if trial[0] > total:
                    break
            step *= 0.5
        else:
            break
        x, t = x_new, t_new
        total, grad, diag, off = trial
    return t


def _chain_grid_max(chain, bound):
    """Maximize a chain sum over -1 = t_0 < t_1 < ... < t_m < t_{m+1} = 1.

    ``chain`` is (boxes, link_log, link_terms): coordinate t_i ranges over
    the open box ``boxes[i - 1]``, ``link_log`` evaluates every link on the
    first grid as in :func:`_chain_grid`, and ``link_terms(k, lo, hi)``
    returns link k's value and its first and second derivatives in the
    arccos angles of its two points.  The 33-candidate grid, solved
    exactly, is the global search; damped Newton steps from its optimum
    then reach the local maximum.  ``bound(t)`` returns the public bound
    and its parameters at t_1 ... t_m, and the result is ``bound`` at the
    Newton point, or at the grid optimum where that is higher.
    """
    boxes, link_log, link_terms = chain
    t0, f0 = _chain_grid(link_log, boxes)
    t = _chain_newton(link_terms, boxes, t0)
    if t is t0:
        return bound(t0)
    best = bound(t)
    # the public bound evaluates arccos(cos x), not x: a rise within its
    # rounding, or on a component a few dozen ulp wide a fall, is caught here
    if not best[0] > 0.5 * math.exp(f0) * (1.0 + 1e-9):
        best = max(best, bound(t0), key=lambda r: r[0])
    return best


def _gap_division_chain(e: IntervalUnion):
    """The gap-division bound as a chain for :func:`_chain_grid_max`: link k is factor k."""
    th = np.arccos(e.endpoints())
    th_a, th_b = th[0::2], th[1::2]

    def link_log(lo, hi):
        return _gap_division_log(th_a[:, None, None], th_b[:, None, None], lo, hi)

    ends = list(zip(th_a.tolist(), th_b.tolist()))

    def link_terms(k, lo, hi):
        return _gap_division_terms(*ends[k], lo, hi)

    return e.gaps(), link_log, link_terms


def gap_division_lower_max(e: IntervalUnion) -> tuple[float, GapPoints]:
    """Maximize the gap-division bound over the division points.

    Factor k depends only on the division points on either side of
    component k, so the grid optimum is found exactly by a chain pass,
    and the Newton steps solve a tridiagonal system.
    """
    _require_unit_hull(e)

    def bound(t):
        d = GapPoints(tuple(t))
        return gap_division_lower(e, d), d

    return _chain_grid_max(_gap_division_chain(e), bound)


def _solynin_points(e: IntervalUnion, d: GapPoints, interior) -> Partition:
    interior = list(interior)
    if len(interior) != max(0, e.n - 2):
        raise DomainError(
            f"expected {max(0, e.n - 2)} interior points for {e.n} intervals, "
            f"got {len(interior)}"
        )
    for g, (a, b) in zip(interior, e.intervals[1:-1]):
        if not a < g < b:
            raise DomainError(f"interior point {g} outside component ({a}, {b})")
    pts = [-1.0]
    for i, delta in enumerate(d.deltas):
        pts.append(delta)
        if i < len(interior):
            pts.append(interior[i])
    pts.append(1.0)
    return Partition(tuple(pts))


def solynin_lower(e: IntervalUnion, d: GapPoints, interior=()) -> float:
    """Tailored-partition lower bound: each cell meets one component at one shared endpoint.

    ``interior`` supplies one split point inside each interior component
    (none are needed for two intervals).
    """
    _require_unit_hull(e)
    d.validate_for(e)
    return partition_lower(e, _solynin_points(e, d, interior))


def _solynin_chain(e: IntervalUnion):
    """The tailored-partition bound as a chain for :func:`_chain_grid_max`: link k is cell k."""
    gaps = e.gaps()
    boxes = [gaps[0]]
    for comp, gap in zip(e.intervals[1:-1], gaps[1:]):
        boxes += [comp, gap]
    th = np.arccos(e.endpoints())
    k = np.arange(len(boxes) + 1)
    comp = (k + 1) // 2
    # an even cell meets its component from the cell's left end to b_comp,
    # an odd one from a_comp to the cell's right end
    even = k % 2 == 0
    end = np.where(even, th[2 * comp + 1], th[2 * comp])

    def link_log(lo, hi):
        even_k, end_k = even[:, None, None], end[:, None, None]
        return _cell_log(lo - hi, np.where(even_k, lo - end_k, end_k - hi))

    links = list(zip(even.tolist(), end.tolist()))

    def link_terms(k, lo, hi):
        return _solynin_link_terms(*links[k], lo, hi)

    return boxes, link_log, link_terms


def solynin_lower_max(e: IntervalUnion) -> tuple[float, Partition]:
    """Maximize the tailored-partition bound over gap and interior split points.

    The cells [t_k, t_{k+1}] of the chain -1, d_1, g_1, d_2, ..., d_{n-1}, 1
    each meet component (k+1)//2 at one known end, so the measure of the
    intersection is a closed form in one endpoint, the grid optimum is
    found exactly by a chain pass, and the Newton steps solve a
    tridiagonal system.
    """
    _require_unit_hull(e)

    def bound(t):
        p = Partition((-1.0, *t, 1.0))
        return partition_lower(e, p), p

    return _chain_grid_max(_solynin_chain(e), bound)


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
    pts[0], pts[-1] = -1.0, 1.0
    return Partition(tuple(pts))


def all_bounds(e: IntervalUnion) -> list[BoundReport]:
    """Every bound for a set of n intervals, in a stable order.

    The bounds are taken on the affine image of e with hull [-1, 1] and
    scaled back by the half-width (cap(a e + b) = |a| cap(e)); ``params``
    stay in normalized coordinates.  The classical pair always appears,
    the partition, gap-division and projection bounds for n >= 2, and the
    two-interval bounds for n = 2.
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
        add("solynin_lower", LOWER, *solynin_lower_max(norm))
        upart = uniform_measure_partition(n)
        add("partition_uniform_lower", LOWER, partition_lower(norm, upart), upart)
        add("gap_division_lower", LOWER, *gap_division_lower_max(norm))
    add("classical_upper", UPPER, hi)
    if n == 2:
        add("polarization_upper", UPPER, polarization_upper(alpha, beta))
        add("gillis_upper", UPPER, gillis_upper(alpha, beta))
        add("schiefermayr_upper", UPPER, schiefermayr_upper(alpha, beta))
    if n >= 2:
        add("projection_upper", UPPER, projection_upper(norm))
    return reports
