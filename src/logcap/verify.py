"""Seeded self-verification suites: sandwich, equality, dominance, cross-method.

Used by the ``verify`` CLI command and reusable from tests.  All suites are
deterministic for a fixed seed and produce plain-text report lines, so two
runs with the same arguments emit byte-identical output.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field

from .bounds import (
    LOWER,
    all_bounds,
    gap_division_lower,
    gap_division_lower_max,
    partition_lower,
    projection_upper,
    schiefermayr_lower,
    solynin_lower,
    uniform_measure_partition,
)
from .errors import DomainError, _brief
from .exact import akhiezer_capacity, capacity, widom_capacity
from .sets import GapPoints, IntervalUnion, canonical_set, make_interval_union

SANDWICH_SLACK = 1e-9
EQUALITY_TOL = 1e-8
DOMINANCE_SLACK = 1e-10
CROSS_METHOD_TOL = 1e-8


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: int = 0
    worst: float = math.inf  # smallest margin seen; negative means a violation
    notes: list[str] = field(default_factory=list)

    def record(self, margin: float, note: str = "") -> None:
        self.checks += 1
        if margin < self.worst:
            self.worst = margin
        if margin < 0.0:
            self.failures += 1
            if note and len(self.notes) < 5:
                self.notes.append(note)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        worst = "n/a" if self.checks == 0 else f"{self.worst:.3e}"
        status = "ok" if self.ok else "FAIL"
        return (
            f"{self.name:<14} {status:>4}: {self.checks - self.failures}/{self.checks} "
            f"checks passed (worst margin {worst})"
        )


def random_unit_interval_union(rng: random.Random, n: int, min_seg: float = 0.05) -> IntervalUnion:
    """Random union of n intervals with hull [-1, 1]; every piece >= min_seg long."""
    segs = 2 * n - 1
    if segs * min_seg >= 2.0:
        raise DomainError("minimum segment length too large for [-1, 1]")
    raw = [rng.random() for _ in range(segs)]
    total = sum(raw)
    rest = 2.0 - segs * min_seg
    lengths = [min_seg + rest * r / total for r in raw]
    pts = [-1.0]
    for length in lengths:
        pts.append(pts[-1] + length)
    pts[-1] = 1.0
    return make_interval_union([(pts[2 * i], pts[2 * i + 1]) for i in range(n)])


def equality_gap_points(n: int) -> GapPoints:
    """Division points at which the gap-division bound is tight on canonical sets.

    For the projection of 2(n-1) symmetric arcs these are
    -cos(pi (2k - 1) / (2n - 2)), k = 1..n-1.
    """
    if n < 2:
        raise DomainError("need at least two intervals")
    return GapPoints(
        tuple(-math.cos(math.pi * (2 * k - 1) / (2 * n - 2)) for k in range(1, n))
    )


def sandwich_suite(seed: int, count: int) -> SuiteResult:
    """Random sets: every lower bound <= exact <= every upper bound."""
    res = SuiteResult("sandwich")
    rng = random.Random(seed)
    sizes = (2, 3, 4)
    for i in range(count):
        e = random_unit_interval_union(rng, sizes[i % len(sizes)])
        exact = capacity(e).value
        for rep in all_bounds(e):
            if rep.kind == LOWER:
                margin = exact - rep.value + SANDWICH_SLACK
            else:
                margin = rep.value - exact + SANDWICH_SLACK
            res.record(margin, f"{rep.name} vs exact on {e.intervals}")
    return res


def cross_method_suite(seed: int, count: int) -> SuiteResult:
    """Theta-quotient and Schwarz-Christoffel capacities agree on two intervals."""
    res = SuiteResult("cross-method")
    rng = random.Random(seed + 1)
    for _ in range(count):
        alpha = rng.uniform(-0.95, 0.89)
        beta = rng.uniform(alpha + 0.05, 0.95)
        e = make_interval_union([(-1.0, alpha), (beta, 1.0)])
        va = akhiezer_capacity(alpha, beta).value
        vw = widom_capacity(e).value
        res.record(CROSS_METHOD_TOL - abs(va - vw), f"({alpha:.6f}, {beta:.6f})")
    return res


def equality_suite() -> SuiteResult:
    """Canonical sets: partition, gap-division and projection bounds are tight."""
    res = SuiteResult("equality")
    for l in (math.pi / 2.0, math.pi, 1.5 * math.pi):
        for n_arcs in (2, 3, 4, 5):
            e = canonical_set(l, n_arcs)
            exact = widom_capacity(e).value
            v = partition_lower(e, uniform_measure_partition(n_arcs))
            res.record(EQUALITY_TOL - abs(v - exact), f"partition l={l:.4f} n={n_arcs}")
        for n_comp in (3, 4):
            e = canonical_set(l, 2 * (n_comp - 1))
            exact = widom_capacity(e).value
            v = gap_division_lower(e, equality_gap_points(n_comp))
            res.record(EQUALITY_TOL - abs(v - exact), f"gap-division l={l:.4f} n={n_comp}")
            v = projection_upper(e)
            res.record(EQUALITY_TOL - abs(v - exact), f"projection l={l:.4f} n={n_comp}")
    return res


def dominance_suite(seed: int) -> SuiteResult:
    """Optimized gap-division beats the two-interval bound; beats tailored partitions at shared points."""
    res = SuiteResult("dominance")
    for alpha in [-0.9 + 1.6 * i / 19 for i in range(20)]:
        for j in range(20):
            beta = alpha + 0.05 + (0.95 - alpha - 0.05) * j / 19
            e = make_interval_union([(-1.0, alpha), (beta, 1.0)])
            opt, _ = gap_division_lower_max(e)
            res.record(
                opt - schiefermayr_lower(alpha, beta) + DOMINANCE_SLACK,
                f"two-interval ({alpha:.4f}, {beta:.4f})",
            )
    rng = random.Random(seed + 2)
    for _ in range(50):
        e = random_unit_interval_union(rng, 3)
        deltas = GapPoints(tuple(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
                                 for lo, hi in e.gaps()))
        interior = [0.5 * (a + b) for a, b in e.intervals[1:-1]]
        v_gap = gap_division_lower(e, deltas)
        v_sol = solynin_lower(e, deltas, interior)
        res.record(v_gap - v_sol + DOMINANCE_SLACK, f"three-interval {e.intervals}")
    return res


def _check_count(count) -> None:
    """Raise DomainError unless ``count`` is a whole number >= 0."""
    if not (isinstance(count, numbers.Integral) and count >= 0):
        raise DomainError(f"count must be a whole number >= 0, got {_brief(count)}")


def run_verify(seed: int = 1, count: int = 200) -> tuple[str, bool]:
    """Run all suites; returns (report text, all passed).

    Raises DomainError, before any suite runs, unless ``count`` is a
    whole number >= 0.
    """
    _check_count(count)
    suites = [
        sandwich_suite(seed, count),
        equality_suite(),
        dominance_suite(seed),
        cross_method_suite(seed, min(count, 100)),
    ]
    lines = [f"logcap verify: seed={_brief(seed)} count={count}"]
    for s in suites:
        lines.append(s.line())
        lines.extend(f"    {note}" for note in s.notes)
    ok = all(s.ok for s in suites)
    lines.append("RESULT: PASS" if ok else "RESULT: FAIL")
    return "\n".join(lines) + "\n", ok
