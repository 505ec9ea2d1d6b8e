"""Seeded workloads for the logcap benchmark: inputs, the timed op, and output checks.

An *op* is one generated set taken through the workload's public calls,
starting from raw interval pairs: ``make_interval_union`` then
``capacity`` (and ``all_bounds`` for ``bounds_sandwich``).  Inputs come in
*blocks*, each with the workload's exact mix of interval counts.  A run
draws a fixed pool of ``pool_blocks`` blocks from the seed and times it
round after round (``run.run_pass``).

Input generation and the checks run outside the timed region.  The
generators are written here on purpose instead of reusing
``logcap.verify``, so that a change to the library cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import logcap
from logcap.verify import CROSS_METHOD_TOL, SANDWICH_SLACK


@dataclass(frozen=True)
class Op:
    """One benchmark input: interval pairs plus what the check needs."""

    pairs: tuple[tuple[float, float], ...]
    label: str
    closed_form: float | None = None  # exact capacity where a closed form is known


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list[Op]]
    run: Callable[[Op], tuple]
    check: Callable[[Op, tuple], bool]
    pool_blocks: int  # a run times the same pool of this many blocks in every round


def unit_hull_pairs(rng: random.Random, n: int, min_seg: float) -> tuple[tuple[float, float], ...]:
    """n intervals with hull [-1, 1]; each of the 2n-1 pieces (intervals and gaps) >= min_seg."""
    segs = 2 * n - 1
    raw = [rng.random() for _ in range(segs)]
    total = sum(raw)
    rest = 2.0 - segs * min_seg
    pts = [-1.0]
    for r in raw:
        pts.append(pts[-1] + min_seg + rest * r / total)
    pts[-1] = 1.0
    return tuple((pts[2 * i], pts[2 * i + 1]) for i in range(n))


def affine_pairs(rng: random.Random, pairs) -> tuple[tuple[float, float], ...]:
    """Image of the pairs under x -> a x + b, |a| in [0.1, 10], b in [-5, 5], either sign of a."""
    a = 10.0 ** rng.uniform(-1.0, 1.0) * rng.choice((-1.0, 1.0))
    b = rng.uniform(-5.0, 5.0)
    return tuple(tuple(sorted((a * lo + b, a * hi + b))) for lo, hi in pairs)


# ---- the timed calls -------------------------------------------------------
# Functions are looked up on the package at call time, so the traced run's
# wrappers (installed on module attributes) see every call.

def run_capacity(op: Op) -> tuple:
    e = logcap.make_interval_union(op.pairs)
    return e, logcap.capacity(e)


def run_sandwich(op: Op) -> tuple:
    e = logcap.make_interval_union(op.pairs)
    return e, logcap.capacity(e), logcap.all_bounds(e)


# ---- checks (untimed) ------------------------------------------------------

def bracket_ok(e, value: float) -> bool:
    """Classical, uniform-partition and projection bracket, on the unit-hull image of e."""
    norm, scale = logcap.normalize_to_unit(e)
    lo = max(
        logcap.classical_bounds(norm)[0],
        logcap.partition_lower(norm, logcap.uniform_measure_partition(norm.n)),
    )
    hi = min(0.5, logcap.projection_upper(norm))
    v = value / scale
    return lo - SANDWICH_SLACK <= v <= hi + SANDWICH_SLACK


def check_capacity(op: Op, out: tuple) -> bool:
    e, res = out
    if not math.isfinite(res.value):
        return False
    if op.closed_form is not None:
        return abs(res.value - op.closed_form) <= res.est_error
    if e.n == 2:
        # theta route (timed) against the Schwarz-Christoffel route
        scale = 0.5 * (e.hull[1] - e.hull[0])
        other = logcap.capacity(e, method="widom").value
        return abs(res.value - other) <= CROSS_METHOD_TOL * scale
    return bracket_ok(e, res.value)


def check_sandwich(op: Op, out: tuple) -> bool:
    _, res, reports = out
    exact = res.value
    for rep in reports:
        if rep.kind == "lower" and rep.value > exact + SANDWICH_SLACK:
            return False
        if rep.kind == "upper" and rep.value < exact - SANDWICH_SLACK:
            return False
    return math.isfinite(exact)


# ---- blocks ----------------------------------------------------------------

def exact_random_block(rng: random.Random) -> list[Op]:
    # one set of each n = 2..20 in random order: n is uniform and the mix is exact per block
    ns = list(range(2, 21))
    rng.shuffle(ns)
    return [Op(affine_pairs(rng, unit_hull_pairs(rng, n, 0.05)), f"random n={n}") for n in ns]


HARD_LENGTHS = (0.3, math.pi, 5.5)
HARD_ARCS = (2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40)
HARD_RANDOM_NS = (16, 17, 18, 19, 20)
HARD_RANDOM_PER_N = 4


def canonical_op(l: float, arcs: int) -> Op:
    e = logcap.canonical_set(l, arcs)
    return Op(e.intervals, f"canonical l={l:.4f} arcs={arcs}",
              0.5 * math.sin(l / 4.0) ** (2.0 / arcs))


def exact_hard_block(rng: random.Random) -> list[Op]:
    ops = [canonical_op(l, arcs) for l in HARD_LENGTHS for arcs in HARD_ARCS]
    for n in HARD_RANDOM_NS:
        for _ in range(HARD_RANDOM_PER_N):
            pairs = unit_hull_pairs(rng, n, 0.5 / (2 * n - 1))
            ops.append(Op(pairs, f"narrow n={n}"))
    rng.shuffle(ops)
    return ops


# n <= 4 is what `verify` and `sweep` feed all_bounds; n = 6 and 8 are the tail.
# Cumulative shares 0.2 / 0.4 / 0.8 / 0.95 / 1 put p50 a quarter into the n = 4
# class and p90 two thirds into the n = 6 class, away from class edges; both
# classes vary less in cost from set to set than n = 2 and n = 3 do.
SANDWICH_MIX = (2,) * 4 + (3,) * 4 + (4,) * 8 + (6,) * 3 + (8,) * 1


def bounds_sandwich_block(rng: random.Random) -> list[Op]:
    ns = list(SANDWICH_MIX)
    rng.shuffle(ns)
    return [Op(unit_hull_pairs(rng, n, 0.05), f"unit-hull n={n}") for n in ns]


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists: README.md and BENCHMARK.json
        Workload("exact_random", exact_random_block, run_capacity, check_capacity, pool_blocks=60),
        Workload("exact_hard", exact_hard_block, run_capacity, check_capacity, pool_blocks=1),
        Workload("bounds_sandwich", bounds_sandwich_block, run_sandwich, check_sandwich, pool_blocks=6),
    )
}


def output_record(out) -> tuple:
    """Hashable summary of an op's result (or its exception) for the output digest."""
    if isinstance(out, BaseException):
        return (type(out).__name__,)
    res = out[1]
    rec = (res.method, res.value, res.est_error)
    if len(out) > 2:
        rec += tuple((r.name, r.value) for r in out[2])
    return rec
