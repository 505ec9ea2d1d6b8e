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
their maximizers solve each candidate grid exactly with one max-sum
pass, then refine the grid around the optimum.
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

# candidate grid schedule of the optimized bounds
_GRID_CANDIDATES = 33
_REFINE_ROUNDS = 3
_REFINE_FACTOR = 10.0


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


def _chain_argmax(pair_log, pts) -> list[int]:
    """Exact max-sum over chain points with candidate arrays ``pts``.

    ``pair_log(k, lo, hi)`` returns the log-contribution of link k, between
    chain points k and k+1, for a column of candidates ``lo`` of point k
    against a row ``hi`` of point k+1, as an array broadcast to
    (len(lo), len(hi)); -inf marks an infeasible pair.  A forward pass keeps
    argmax back-pointers, so ties keep the lowest index.  Returns the chosen
    index of every point.
    """
    score = np.zeros(len(pts[0]))
    back = []
    for k in range(len(pts) - 1):
        table = score[:, None] + pair_log(k, pts[k][:, None], pts[k + 1][None, :])
        back.append(table.argmax(axis=0))
        score = table.max(axis=0)
    idx = [int(score.argmax())]
    for best in reversed(back):
        idx.append(int(best[idx[-1]]))
    return idx[::-1]


def _chain_grid_max(pair_log, boxes) -> list[float]:
    """Maximize a chain sum over -1 = t_0 < t_1 < ... < t_m < t_{m+1} = 1.

    Coordinate t_i ranges over the open box ``boxes[i - 1]``.  ``pair_log``
    is as in :func:`_chain_argmax` but receives the arccos of the
    candidates, so t_0 and t_{m+1} enter as pi and 0.  Each coordinate
    starts with 33 equispaced interior candidates, then the grid is refined
    by 10x around the optimum for 3 rounds, clipped to the box.  Every grid
    is solved exactly.  Returns t_1 ... t_m at the optimum of the last grid.
    """
    lo, hi = np.array(boxes, dtype=float).T
    step = (hi - lo) / (_GRID_CANDIDATES + 1)
    grids = list(lo[:, None] + np.arange(1, _GRID_CANDIDATES + 1) * step[:, None])
    offsets = np.arange(_GRID_CANDIDATES) - _GRID_CANDIDATES // 2
    ends = np.array([math.pi]), np.array([0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for round_ in range(_REFINE_ROUNDS + 1):
            if round_:
                step = step / _REFINE_FACTOR
                grids = [g[(g > lo_i) & (g < hi_i)]
                         for g, lo_i, hi_i in zip(x[:, None] + offsets * step[:, None], lo, hi)]
            idx = _chain_argmax(pair_log, [ends[0], *map(np.arccos, grids), ends[1]])
            x = np.array([g[j] for g, j in zip(grids, idx[1:-1])])
    return x.tolist()


def gap_division_lower_max(e: IntervalUnion) -> tuple[float, GapPoints]:
    """Maximize the gap-division bound over the division points.

    Factor k depends only on the division points on either side of
    component k, so the grid optimum is found exactly by a chain pass.
    """
    _require_unit_hull(e)
    th = np.arccos(e.endpoints())

    def pair_log(k, th_lo, th_hi):
        return _gap_division_log(th[2 * k], th[2 * k + 1], th_lo, th_hi)

    d = GapPoints(tuple(_chain_grid_max(pair_log, e.gaps())))
    return gap_division_lower(e, d), d


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


def solynin_lower_max(e: IntervalUnion) -> tuple[float, Partition]:
    """Maximize the tailored-partition bound over gap and interior split points.

    The cells [t_k, t_{k+1}] of the chain -1, d_1, g_1, d_2, ..., d_{n-1}, 1
    each meet component (k+1)//2 at one known end, so the measure of the
    intersection is a closed form in one endpoint and the grid optimum is
    found exactly by a chain pass.
    """
    _require_unit_hull(e)
    gaps = e.gaps()
    boxes = [gaps[0]]
    for comp, gap in zip(e.intervals[1:-1], gaps[1:]):
        boxes += [comp, gap]
    th = np.arccos(e.endpoints())

    def pair_log(k, th_lo, th_hi):
        comp = (k + 1) // 2
        # an even cell meets its component from the cell's left end to b_comp,
        # an odd one from a_comp to the cell's right end
        inter_mu = th_lo - th[2 * comp + 1] if k % 2 == 0 else th[2 * comp] - th_hi
        return _cell_log(th_lo - th_hi, inter_mu)

    x = _chain_grid_max(pair_log, boxes)
    p = _solynin_points(e, GapPoints(tuple(x[0::2])), x[1::2])
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
