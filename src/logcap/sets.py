"""Interval unions on the real line and arc subsets of the unit circle.

The central object is :class:`IntervalUnion`, a finite union of disjoint
closed intervals.  For subsets of ``[-1, 1]`` the module provides the
arccos-weighted measure ``chebyshev_measure`` (integral of dx/sqrt(1-x^2)),
the symmetric circle preimage, and the canonical projection sets obtained
from rotationally symmetric arc families.  All values are immutable and
every operation is a pure function.  Every check of a set's shape (the
``_require_*`` and ``_check_*`` helpers, ``GapPoints.validate_for``) and
the arccos width ``_arcs`` live here, for the other modules to call.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from math import acos, asin, sin

from .errors import DomainError, ValidationError, _brief, _real, _reals

TWO_PI = 2.0 * math.pi

# hull ends this close to +-1 are snapped exactly, so hull checks can use ==
_SNAP_TOL = 1e-14


def _left_sum(values):
    """``values`` added left to right from 0, as ``sum`` added floats before Python 3.12 compensated them."""
    total = 0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class IntervalUnion:
    """Ordered union of disjoint closed intervals [a_1,b_1], ..., [a_n,b_n].

    Invariants: at least one interval, all endpoints finite floats, and
    a_1 < b_1 < a_2 < ... < a_n < b_n.  Use :func:`make_interval_union` to
    build one from unordered or touching input pairs.  The constructor
    reads them as floats and checks them; ``make_interval_union`` and
    ``normalize_to_unit`` build their result through ``_unchecked_union``
    instead, without that second walk over the endpoints, because each has
    already established them: the first by its reading and merge, the
    second by its check that the mapped endpoints strictly increase.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        intervals = _pairs(self.intervals, "interval")
        for (_, b), (a, _) in zip(intervals, intervals[1:]):
            if a <= b:
                raise ValidationError("intervals must be sorted and disjoint")
        object.__setattr__(self, "intervals", tuple(intervals))

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def hull(self) -> tuple[float, float]:
        return self.intervals[0][0], self.intervals[-1][1]

    def endpoints(self) -> list[float]:
        """Flat [a_1, b_1, ..., a_n, b_n]."""
        out = []
        for pair in self.intervals:
            out += pair
        return out

    def gaps(self) -> list[tuple[float, float]]:
        """Open gaps (b_i, a_{i+1}) between consecutive intervals."""
        return [(b, a) for (_, b), (a, _) in zip(self.intervals, self.intervals[1:])]

    def total_length(self) -> float:
        return _left_sum(b - a for a, b in self.intervals)

    def contains(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.intervals)

    def is_unit_hull(self) -> bool:
        """True when the hull is exactly [-1, 1]."""
        return self.intervals[0][0] == -1.0 and self.intervals[-1][1] == 1.0

    def to_json_dict(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntervalUnion":
        try:
            pairs = data["intervals"]
        except (TypeError, KeyError) as exc:
            raise ValidationError("expected {'intervals': [[a, b], ...]}") from exc
        return make_interval_union(pairs)


def _unchecked_union(intervals: tuple[tuple[float, float], ...]) -> IntervalUnion:
    """An IntervalUnion of ``intervals``, which must already hold its invariants, left unchecked."""
    e = object.__new__(IntervalUnion)
    object.__setattr__(e, "intervals", intervals)
    return e


@dataclass(frozen=True)
class CircleArcSet:
    """Closed subset of the unit circle as disjoint arcs in [0, 2*pi].

    Arcs are sorted by start angle with non-overlapping interiors; an arc
    crossing angle 0 is stored split at 0, so the total length lies in (0, 2*pi].
    """

    arcs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        arcs = _pairs(self.arcs, "arc")
        ends = [0.0, *(x for arc in arcs for x in arc), TWO_PI]
        if ends != sorted(ends):
            raise ValidationError("arcs must lie in [0, 2*pi], sorted with disjoint interiors")
        object.__setattr__(self, "arcs", tuple(arcs))

    def total_length(self) -> float:
        return _left_sum(e - s for s, e in self.arcs)

    def length_within(self, lo: float, hi: float) -> float:
        """Arc length of the set inside the sector [lo, hi] (angles, hi <= lo + 2*pi)."""
        lo, hi = _real(lo, "sector start"), _real(hi, "sector end")
        total = 0.0
        for shift in (-TWO_PI, 0.0, TWO_PI):  # each arc and its copies a turn away
            for s, e in self.arcs:
                total += min(max(e + shift, lo), hi) - min(max(s + shift, lo), hi)
        return total


@dataclass(frozen=True)
class Partition:
    """Division points -1 = t_0 < t_1 < ... < t_s = 1 of the base interval.

    The constructor reads them as floats and checks them.  The bound
    optimizers build theirs through ``_unchecked_partition`` instead: each
    point comes strictly inside an open box of the set, once the optimizer
    has checked that every box holds a float.
    """

    points: tuple[float, ...]

    def __post_init__(self):
        try:
            points = tuple(map(float, self.points))
        except (OverflowError, TypeError, ValueError):
            raise ValidationError(f"partition points must read as floats, got {_brief(self.points)}") from None
        if len(points) < 2:
            raise ValidationError("partition needs at least two points")
        if points[0] != -1.0 or points[-1] != 1.0:
            raise ValidationError("partition must start at -1 and end at 1")
        for lo, hi in zip(points, points[1:]):
            if not lo < hi:
                raise ValidationError("partition points must strictly increase")
        object.__setattr__(self, "points", points)

    def cells(self) -> list[tuple[float, float]]:
        return list(zip(self.points, self.points[1:]))


def _unchecked_partition(points: tuple[float, ...]) -> Partition:
    """A Partition of ``points``, which must already hold its invariants, left unchecked."""
    p = object.__new__(Partition)
    object.__setattr__(p, "points", points)
    return p


@dataclass(frozen=True)
class GapPoints:
    """One chosen point per gap of an interval union (delta_1 ... delta_{n-1}), read by ``errors._reals``."""

    deltas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas", _reals(self.deltas, "gap point"))

    def validate_for(self, e: IntervalUnion) -> None:
        if len(self.deltas) != e.n - 1:
            raise DomainError(
                f"expected {e.n - 1} gap points for a union of {e.n} intervals, "
                f"got {len(self.deltas)}"
            )
        for d, (lo, hi) in zip(self.deltas, e.gaps()):
            if not lo < d < hi:
                raise DomainError(f"gap point {d} outside open gap ({lo}, {hi})")


def _pairs(pairs, what: str) -> list[tuple[float, float]]:
    """``pairs`` as a list of (a, b) floats, each end read once by ``float()``: the one pair reader.

    Raises ValidationError, naming ``what``, unless ``pairs`` is a non-empty
    iterable of two-entry pairs of ends finite as floats, with a < b.
    """
    try:
        pairs = list(pairs)
    except TypeError as exc:
        raise ValidationError(f"expected a sequence of (a, b) pairs, got {_brief(pairs)}") from exc
    if not pairs:
        raise ValidationError(f"need at least one {what}")
    out = []
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"not an (a, b) pair: {_brief(pair)}") from exc
        try:
            a, b = float(a), float(b)
            finite = math.isfinite(a) and math.isfinite(b)
        except OverflowError:
            raise ValidationError("endpoint too large for a float") from None
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ValidationError(f"not a number or a non-finite endpoint in ({_brief(a)}, {_brief(b)})")
        if a >= b:
            raise ValidationError(f"reversed or empty {what} ({a}, {b})")
        out.append((a, b))
    return out


def _merge(pairs, slack: float) -> list[list[float]]:
    """``pairs`` sorted, each merged into the one before it where it starts at most ``slack`` past its end."""
    merged = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1] + slack:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def make_interval_union(pairs) -> IntervalUnion:
    """Build an :class:`IntervalUnion` from (a, b) pairs.

    Pairs are sorted; overlapping or touching intervals are merged.  A
    hull end a_1 within 1e-14 of -1, or b_n within 1e-14 of 1, is snapped
    there exactly unless that would empty its interval; no other endpoint
    moves.  Raises ValidationError unless ``pairs`` is an iterable of
    two-entry pairs whose ends ``float()`` reads as finite numbers.
    """
    merged = _merge(_pairs(pairs, "interval"), 0.0)
    first, last = merged[0], merged[-1]
    if abs(first[0] + 1.0) < _SNAP_TOL and first[1] > -1.0:
        first[0] = -1.0
    if abs(last[1] - 1.0) < _SNAP_TOL and last[0] < 1.0:
        last[1] = 1.0
    return _unchecked_union(tuple((a, b) for a, b in merged))


def _require_unit_subset(e: IntervalUnion) -> None:
    a1, bn = e.hull
    if a1 < -1.0 or bn > 1.0:
        raise DomainError(f"set must lie inside [-1, 1], hull is [{a1}, {bn}]")


def _require_unit_hull(e: IntervalUnion) -> None:
    if not e.is_unit_hull():
        raise DomainError("bound requires a_1 = -1 and b_n = 1 exactly")
    if e.n < 2:
        raise DomainError("bound needs at least two intervals")


def _check_two_interval(alpha, beta) -> tuple[float, float]:
    a, b = _real(alpha, "alpha"), _real(beta, "beta")
    if not (-1.0 < a < b < 1.0):
        raise DomainError(
            "need -1 < alpha < beta < 1 for [-1,alpha] u [beta,1], "
            f"got ({_brief(alpha)}, {_brief(beta)})"
        )
    return a, b


def _check_count(n: int, what: str) -> None:
    """Raise DomainError unless n is a positive whole number within the float range."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise DomainError(f"need a positive whole number of {what}, got {_brief(n)}")
    if n > sys.float_info.max:
        raise DomainError(f"too many {what} for a float")


def _check_arc_family(l, n) -> float:
    lf = _real(l, "total arc length")
    if not 0.0 < lf < TWO_PI:
        raise DomainError(f"total arc length must lie in (0, 2*pi), got {_brief(l)}")
    _check_count(n, "arcs")
    return lf


def _arcs(a: float, b: float) -> tuple[float, float]:
    """Arccos width w = th_a - th_b and sum th_a + th_b of the interval [a, b].

    w comes from b - a = 2 sin((th_a + th_b) / 2) sin(w / 2), not from the
    difference of two arccos values, which loses log10(1/w) digits on a
    thin interval; w = 0 where b <= a.  The caller loops over intervals:
    at a handful of them ``math`` costs less than a numpy call, and the
    module-level names and the comparisons in place of ``max`` and ``min``
    halve the cost of a call; each comparison picks what the builtin
    picks, a -0.0 width included.
    """
    s = acos(a) + acos(b)
    # near -1, s is near 2 pi and sin(s / 2) would cancel against the
    # rounding of pi; the mirrored angles pi - th = arccos(-x) keep its digits
    half = 0.5 * (acos(-a) + acos(-b)) if a + b < 0.0 else 0.5 * s
    r = b - a
    r = (r if not 0.0 > r else 0.0) / (2.0 * sin(half))
    # sin(w / 2) is within an ulp or two of 1 on an interval spanning
    # nearly all of [-1, 1]; the clamp keeps rounding out of asin's domain
    return 2.0 * asin(r if not 1.0 < r else 1.0), s


def chebyshev_measure(e: IntervalUnion) -> float:
    """Measure of e under dx/sqrt(1-x^2); half the length of its circle preimage.

    Equals sum_i [arccos(a_i) - arccos(b_i)], each width taken by
    :func:`_arcs`, and lies in [0, pi].
    """
    _require_unit_subset(e)
    total = 0.0
    for a, b in e.intervals:
        total += _arcs(a, b)[0]
    return total


def normalize_to_unit(e: IntervalUnion) -> tuple[IntervalUnion, float]:
    """Affine image of e with hull exactly [-1, 1], plus the half-width scale.

    Capacity transforms as cap(e) = scale * cap(normalized).  A set with
    hull [-1, 1] is returned as is, with scale 1.0: every union holds
    float endpoints, however it was built, so the map below is then the
    identity bit for bit (k = 0, centre 0, half-width 1), and ``capacity``
    and ``all_bounds`` skip its endpoint list, its 2n scaled divisions
    and the rebuilt union.  Raises ValidationError when a component or gap
    is narrower than the rounding at the hull's scale, so that its mapped
    ends coincide or cross.
    """
    if e.is_unit_hull():
        return e, 1.0
    ends = e.endpoints()
    # scaled by 2**k, the hull's larger end lies in [1, 2): the half-width and
    # centre neither overflow near 1e308 nor round off the last bits of a
    # subnormal hull, and a hull [-1, 1] is not scaled at all
    k = 1 - math.frexp(max(abs(ends[0]), abs(ends[-1])))[1]
    lo, hi = math.ldexp(ends[0], k), math.ldexp(ends[-1], k)
    half, center = 0.5 * (hi - lo), 0.5 * (hi + lo)
    mapped = [(math.ldexp(x, k) - center) / half for x in ends]
    scale = math.ldexp(half, -k)
    # the hull ends are forced exactly; interior endpoints stay as mapped
    mapped[0], mapped[-1] = -1.0, 1.0
    for i in range(len(ends) - 1):
        if not mapped[i] < mapped[i + 1]:
            raise ValidationError(
                f"{('component', 'gap')[i % 2]} {i // 2} ({ends[i]}, {ends[i + 1]}) is narrower "
                f"than the rounding at the hull's scale (half-width {scale:.6g}): it collapses "
                f"when mapped onto [-1, 1]"
            )
    return _unchecked_union(tuple(zip(mapped[::2], mapped[1::2]))), scale


def _project_arc(s: float, e: float) -> tuple[float, float]:
    """Projection of the arc {exp(i*t): s <= t <= e} onto the real axis."""
    lo = min(math.cos(s), math.cos(e))
    hi = max(math.cos(s), math.cos(e))
    # the arc may contain a crest (angle 0 mod 2pi) or a trough (pi mod 2pi)
    if math.ceil(s / TWO_PI) * TWO_PI <= e:
        hi = 1.0
    if math.pi + math.ceil((s - math.pi) / TWO_PI) * TWO_PI <= e:
        lo = -1.0
    return lo, hi


def canonical_set(l: float, n: int) -> IntervalUnion:
    """Projection onto the real axis of n arcs of total length l centered at angles 2*pi*j/n.

    These are the sets on which the partition and gap-division bounds are tight.
    """
    h = _check_arc_family(l, n) / (2.0 * n)
    pairs = []
    for j in range(n):
        c = TWO_PI * j / n
        pairs.append(_project_arc(c - h, c + h))
    return make_interval_union(pairs)


def circle_preimage(e: IntervalUnion) -> CircleArcSet:
    """Symmetric preimage of e on the unit circle under orthogonal projection.

    Total arc length equals 2 * chebyshev_measure(e).
    """
    _require_unit_subset(e)
    arcs = []
    for a, b in e.intervals:
        t1, t0 = math.acos(a), math.acos(b)  # t0 < t1 in [0, pi]
        arcs.append((t0, t1))  # upper half
        arcs.append((TWO_PI - t1, TWO_PI - t0))  # mirrored arc, lower half
    # merge arcs sharing endpoints; a join across angle 0 stays split at 0
    return CircleArcSet(_merge([(s, e) for s, e in arcs if e > s], 1e-15))


def project_to_real_axis(f: CircleArcSet) -> IntervalUnion:
    """Orthogonal projection of an arc set onto the real axis."""
    return make_interval_union([_project_arc(s, e) for s, e in f.arcs])
