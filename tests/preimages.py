"""Polynomial preimages: interval unions of any size with a closed-form capacity.

For a real polynomial P of degree d with leading coefficient c whose
critical values all have |P| > 1, E = P^-1([-1, 1]) is a union of d
intervals, one around each root, and cap(E) = (2|c|)^(-1/d) (the preimage
theorem; Ransford, Potential Theory in the Complex Plane, Thm 5.2.5).
"""

import math

import numpy as np

from logcap import make_interval_union


def _product(c, roots, x):
    return c * math.prod(x - r for r in roots)


def _bisect(pred, lo, hi):
    """The adjacent floats lo < hi at which pred, False towards lo and True towards hi, flips.

    pred is called only strictly between the two ends.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def polynomial_preimage(rng: np.random.Generator, d: int):
    """A random preimage of degree d: (E_in, E_out, closed-form capacity of E).

    The roots are the Chebyshev roots cos((2i + 1) pi / 2d), each moved by
    U(-0.3, 0.3)/d, and c is scaled so that the smallest critical |P| is
    U(1.05, 3).  The critical points and the endpoints come from bisection
    on the product form c prod(x - r_i), to adjacent floats.  E_in and E_out
    move every endpoint of that bracket one ulp inwards and outwards, so
    E_in is inside E and E is inside E_out, and by monotonicity
    cap(E_in) <= cap(E) <= cap(E_out).
    """
    i = np.arange(d)
    roots = np.sort(np.cos((2 * i + 1) * np.pi / (2 * d)) + rng.uniform(-0.3, 0.3, d) / d)
    roots = roots.tolist()
    # the critical point between two roots is the zero of P'/P = sum 1/(x - r_i),
    # which falls from +inf to -inf there
    crits = [_bisect(lambda x: sum(1.0 / (x - r) for r in roots) < 0.0, lo, hi)[0]
             for lo, hi in zip(roots, roots[1:])]
    smallest = min((abs(_product(1.0, roots, x)) for x in crits), default=1.0)
    c = rng.uniform(1.05, 3.0) / smallest

    def inside(x):
        return abs(_product(c, roots, x)) <= 1.0

    # around root i, |P| rises from 0 to above 1 at the critical points on
    # either side, or far enough out past the outer roots
    pad = 2.0 * (roots[-1] - roots[0]) + 2.0
    walls = [roots[0] - pad, *crits, roots[-1] + pad]
    inner, outer = [], []
    for k, r in enumerate(roots):
        a_out, a_in = _bisect(inside, walls[k], r)
        b_in, b_out = _bisect(lambda x: not inside(x), r, walls[k + 1])
        inner.append((math.nextafter(a_in, math.inf), math.nextafter(b_in, -math.inf)))
        outer.append((math.nextafter(a_out, -math.inf), math.nextafter(b_out, math.inf)))
    cap = (2.0 * abs(c)) ** (-1.0 / d)
    return make_interval_union(inner), make_interval_union(outer), cap
