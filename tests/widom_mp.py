"""An independent mpmath reference for the Schwarz-Christoffel (Widom) capacity.

The same construction as ``logcap.exact.widom_capacity``, computed with
none of its numerics, at ``dps`` digits (30 by default):

- the set is mapped onto hull [-1, 1] in mpmath, and the capacity scaled
  back by the half-width;
- each gap moment S_j = int t^j / sqrt|q| over a gap (b, a) is integrated
  in theta, with t = mid + half sin(theta): the gap's own root factor
  sqrt((t - b)(a - t)) = half cos(theta) cancels against dt, so
  ``mpmath.quad`` sees only the other endpoints' factors;
- the coefficients c_0..c_{n-2} of the monic p(t) = t^(n-1) + ..., whose
  integral of p / sqrt|q| over every gap vanishes, come from
  ``mpmath.lu_solve``;
- the Robin constant, the integral of p / sqrt(q) - 1 / (1 + t - 1) over
  (1, inf), is integrated in t = 1 + u^2 over u in [0, 1, 10, inf], which
  removes the root at t = 1; the capacity is exp(-Robin constant).

A set costs about a second at n <= 4 and 30 digits.
"""

from __future__ import annotations

import functools

import mpmath


def widom_capacity_mp(intervals, dps: int = 30) -> mpmath.mpf:
    """Capacity of the union of ``intervals`` (sorted, disjoint float pairs) at ``dps`` digits."""
    with mpmath.workdps(dps):
        ends = [mpmath.mpf(x) for iv in intervals for x in iv]
        mid, half = (ends[-1] + ends[0]) / 2, (ends[-1] - ends[0]) / 2
        ends = [(x - mid) / half for x in ends]
        ends[0], ends[-1] = mpmath.mpf(-1), mpmath.mpf(1)
        n = len(ends) // 2
        if n == 1:
            return half / 2
        rows = [_gap_moments(ends, g, n) for g in range(n - 1)]
        mat = mpmath.matrix([row[: n - 1] for row in rows])
        coeffs = mpmath.lu_solve(mat, mpmath.matrix([-row[n - 1] for row in rows]))
        others = ends[:-1]

        def tail(u):
            t = 1 + u * u
            p = t ** (n - 1) + sum(coeffs[k] * t ** k for k in range(n - 1))
            return 2 * (p / _root_product(t, others) - u / (1 + u * u))

        robin = mpmath.quad(tail, [0, 1, 10, mpmath.inf])
        return half * mpmath.exp(-robin)


def _root_product(t, ends):
    """prod sqrt|t - e| over ``ends``."""
    out = mpmath.mpf(1)
    for e in ends:
        out *= mpmath.sqrt(abs(t - e))
    return out


def _gap_moments(ends, g: int, n: int) -> list:
    """S_j = int t^j / sqrt|q| over gap g, j = 0..n-1 (the sign of sqrt|q| does not matter)."""
    b, a = ends[2 * g + 1], ends[2 * g + 2]
    gmid, ghalf = (a + b) / 2, (a - b) / 2
    others = ends[: 2 * g + 1] + ends[2 * g + 3:]

    # every moment is integrated on the same nodes: t and the root product once per node
    @functools.lru_cache(maxsize=None)
    def node(theta):
        t = gmid + ghalf * mpmath.sin(theta)
        return t, 1 / _root_product(t, others)

    def moment(j):
        def f(theta):
            t, w = node(theta)
            return t ** j * w
        return mpmath.quad(f, [-mpmath.pi / 2, mpmath.pi / 2])

    return [moment(j) for j in range(n)]
