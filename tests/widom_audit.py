"""Audit ``widom_capacity``'s est_error against the 30-digit mpmath reference.

Run from the repository root as ``PYTHONPATH=src python tests/widom_audit.py``
(about a minute).  The pool is 8 seeded random sets with hull [-1, 1] for
each n = 3..12, in which about a third of the components and gaps are
drawn log-uniform from 1e-5 to 1e-2 wide, and the misses pinned by
``test_widom_reference.py``.  Prints error / est_error for every set and
the worst of them, or the ConvergenceError or SingularMatrixError a set
raises.
Exits 1 when a set that is not in PINNED misses (error above est_error),
or a pinned set no longer does, and when a set that is not in
PINNED_RAISES raises, or a set in it returns.
"""

import random
import sys

from logcap import ConvergenceError, SingularMatrixError, make_interval_union, widom_capacity

from test_widom_reference import EST_ERROR_MISSES
from widom_mp import widom_capacity_mp

# error above est_error beside a thin component, until the
# maximum-principle certificate of ROADMAP item 3 brackets them; the four
# from the seeded pool (error / est_error 2.4, 1.3, 2.1 and 1.06) each
# have an outer component 2.4e-5..3.0e-4 wide
PINNED = {*EST_ERROR_MISSES, "n3-3", "n3-5", "n4-2", "n6-6"}
# the monomial moment matrix of n11-6, clustered parts of equal scale, is
# singular to 1e-13, until the gap-centre basis of ROADMAP item 5
PINNED_RAISES = {"n11-6"}


def audit_pool() -> dict:
    rng = random.Random(2024)
    pool = dict(EST_ERROR_MISSES)
    for n in range(3, 13):
        for k in range(8):
            thin = [10.0 ** rng.uniform(-5.0, -2.0) if rng.random() < 0.3 else None
                    for _ in range(2 * n - 1)]
            weights = [rng.random() if w is None else 0.0 for w in thin]
            scale = (2.0 - sum(w for w in thin if w)) / (sum(weights) or 1.0)
            pts = [-1.0]
            for w, weight in zip(thin, weights):
                pts.append(pts[-1] + (w or scale * weight))
            pts[-1] = 1.0
            pool[f"n{n}-{k}"] = tuple(zip(pts[::2], pts[1::2]))
    return pool


def main() -> int:
    worst, raised, failed = 0.0, [], []
    pool = audit_pool()
    for name, intervals in pool.items():
        try:
            res = widom_capacity(make_interval_union(intervals))
        except (ConvergenceError, SingularMatrixError) as exc:
            raised.append(name)
            print(f"{name:>18}  {type(exc).__name__}: {exc}{'  (pinned)' * (name in PINNED_RAISES)}")
            continue
        ratio = float(abs(res.value - widom_capacity_mp(intervals)) / res.est_error)
        worst = max(worst, ratio)
        if (ratio > 1.0) != (name in PINNED):
            failed.append(name)
        print(f"{name:>18}  error / est_error {ratio:.3f}{'  (pinned)' * (name in PINNED)}")
    # a raise that is not pinned, or a pinned raise that now returns
    failed += sorted(PINNED_RAISES.symmetric_difference(raised))
    print(f"{len(pool)} sets: worst error / est_error {worst:.3f}; "
          f"{len(raised)} raised a typed error; failed: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
